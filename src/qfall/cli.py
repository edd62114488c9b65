"""Command-line interface.

Every subcommand resolves its configuration with the same precedence
(flags > environment > config file > reference defaults), writes its data
files with %.17g precision, and always leaves a `<command>_manifest.json`
in the output directory recording status, config hash, seed, library
versions and wall time - also when the run fails.
"""

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .config import (RunConfig, _validate, build_components, config_dict,
                     config_hash, resolve_config)
from .errors import ConfigError
from .freefall import MapMaker, current_map_yt, fall_windows
from .gqs import build_basis, classical_cutoff_velocity, transmitted_fraction
from .inference import (EventSet, GridDensityFamily, count_information,
                        cramer_rao_sigma, estimate_g, fisher_information,
                        replicate_rng, run_campaign, sample_events)
from .physcore import CONSTANTS, derive_scales
from .source import polar_nodes


def _versions() -> dict:
    import scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "qfall": __version__}


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path: str, meta: dict, header, columns) -> None:
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# qfall %s\n" % __version__)
        for key in sorted(meta):
            fh.write("# %s = %s\n" % (key, meta[key]))
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def _read_events_csv(path: str) -> EventSet:
    meta = {}
    header = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            s = line.strip()
            if not s:
                continue
            if s.startswith("#"):
                body = s[1:].strip()
                if "=" in body:
                    key, value = body.split("=", 1)
                    meta[key.strip()] = value.strip()
                continue
            where = "%s line %d" % (path, line_no)
            if header is None:
                header = [c.strip() for c in s.split(",")]
                for name in ("t_s", "T_s", "phi_rad"):
                    if name not in header:
                        raise ConfigError("%s: no %r column" % (where, name))
                continue
            tokens = s.split(",")
            if len(tokens) != len(header):
                raise ConfigError("%s: %d values for %d columns"
                                  % (where, len(tokens), len(header)))
            try:
                rows.append([float(x) for x in tokens])
            except ValueError as exc:
                raise ConfigError("%s: %s" % (where, exc)) from None
    if header is None or "n_source" not in meta:
        raise ConfigError("%s is not an event file (missing header or "
                          "n_source)" % path)
    arr = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
    cols = {name: arr[:, k] for k, name in enumerate(header)}
    return EventSet(edge_time=cols["t_s"], arrival_time=cols["T_s"],
                    azimuth=cols["phi_rad"],
                    n_source=int(meta["n_source"]),
                    g_true=float(meta.get("g_true", "nan")))


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    """Flags and QFALL_SEED over the config, checked like a config file
    before any compute."""
    updates = {}
    for attr in ("g", "n_max", "n_source", "n_replicates"):
        value = getattr(args, attr, None)
        if value is not None:
            updates[attr] = value
    if args.seed is not None:
        updates["seed"] = args.seed
    elif os.environ.get("QFALL_SEED"):
        raw = os.environ["QFALL_SEED"]
        try:
            updates["seed"] = int(raw)
        except ValueError:
            raise ConfigError("QFALL_SEED must be an integer, got %r"
                              % raw) from None
    cfg = replace(cfg, **updates)
    _validate(cfg)
    return cfg


def _folded_components(cfg: RunConfig):
    """Components of the commands that fold the detector azimuth.

    Folded maps and detector cuts need the polarization in the detector
    plane or vertical; this checks it before any compute (`end-of-mirror`
    and `source-dist` take any direction).
    """
    trap, pd, geom, spec = build_components(cfg)
    polar_nodes(pd, spec.n_polar, folded=True)
    return trap, pd, geom, spec


def _family(cfg: RunConfig) -> GridDensityFamily:
    trap, pd, geom, spec = _folded_components(cfg)
    return GridDensityFamily(cfg.n_max, trap, pd, geom, spec, g0=cfg.g)


# each command returns (output file names, resolved-details dict)

def _cmd_scales(cfg, args, out_dir):
    sc = derive_scales(cfg.g)
    data = {"gravity_mps2": sc.g, "length_m": sc.length,
            "energy_J": sc.energy,
            "energy_eV": sc.energy / CONSTANTS.electron_volt,
            "time_s": sc.time, "velocity_mps": sc.velocity,
            "momentum_kgmps": sc.momentum}
    _write_json(os.path.join(out_dir, "scales.json"), data)
    return ["scales.json"], {}


def _cmd_basis(cfg, args, out_dir):
    basis = build_basis(cfg.n_max, cfg.g)
    n = np.arange(1, cfg.n_max + 1)
    _write_csv(os.path.join(out_dir, "basis.csv"),
               {"g_mps2": "%.17g" % cfg.g, "n_max": cfg.n_max},
               ["n", "lambda_n", "ai_prime_n", "support_m"],
               [n, basis.table.values, basis.table.ai_prime,
                basis.table.support * basis.scales.length])
    return ["basis.csv"], {"lambda_max": float(basis.lam_max)}


def _cmd_source_dist(cfg, args, out_dir):
    trap, pd, _, _ = build_components(cfg)
    nodes = polar_nodes(pd, cfg.n_polar)
    _write_csv(os.path.join(out_dir, "source_dist.csv"),
               {"n_polar": cfg.n_polar}, ["u", "weight"],
               [nodes.u, nodes.w_even])
    data = {"trap_width_m": trap.width,
            "momentum_spread_kgmps": trap.momentum_spread,
            "velocity_spread_mps": trap.velocity_spread,
            "recoil_velocity_mps": pd.recoil_velocity,
            "dipolar": pd.dipolar}
    _write_json(os.path.join(out_dir, "source_dist.json"), data)
    return ["source_dist.csv", "source_dist.json"], {}


def _cmd_end_of_mirror(cfg, args, out_dir):
    trap, pd, geom, _ = build_components(cfg)
    basis = build_basis(cfg.n_max, cfg.g)
    tr = transmitted_fraction(basis, trap, pd, geom.release_height,
                              cfg.n_polar)
    n = np.arange(1, cfg.n_max + 1)
    _write_csv(os.path.join(out_dir, "end_of_mirror.csv"),
               {"g_mps2": "%.17g" % cfg.g,
                "release_height_m": "%.17g" % geom.release_height},
               ["n", "lambda_n", "population"],
               [n, basis.table.values, tr.populations])
    data = {"fraction": tr.fraction,
            "expected_count": tr.expected_count(cfg.n_source),
            "n_source": cfg.n_source,
            "cutoff_velocity_mps": classical_cutoff_velocity(
                basis, geom.release_height)}
    _write_json(os.path.join(out_dir, "end_of_mirror.json"), data)
    return ["end_of_mirror.csv", "end_of_mirror.json"], {
        "fraction": data["fraction"]}


def _cmd_current_map(cfg, args, out_dir):
    for flag, count in (("--ny", args.ny), ("--nT", args.nT)):
        if count < 1:
            raise ConfigError("%s must be at least 1, got %d" % (flag, count))
    trap, pd, geom, spec = _folded_components(cfg)
    basis = build_basis(cfg.n_max, cfg.g)
    win = fall_windows(basis, trap, pd, geom)
    T_lo = args.T_min if args.T_min is not None else (
        win["t_lo"] + win["tau_lo"])
    T_hi = args.T_max if args.T_max is not None else (
        win["t_hi"] + win["tau_hi"])
    y_lo = args.y_min if args.y_min is not None else (
        geom.travel_distance * T_lo / win["t_hi"])
    y_hi = args.y_max if args.y_max is not None else (
        geom.travel_distance * T_hi / win["t_lo"])
    y = np.linspace(y_lo, y_hi, args.ny)
    T = np.linspace(T_lo, T_hi, args.nT)
    dm = current_map_yt(basis, trap, pd, geom, y, T, spec)
    yy, TT = np.meshgrid(y, T, indexing="ij")
    _write_csv(os.path.join(out_dir, "current_map.csv"),
               {"g_mps2": "%.17g" % cfg.g, "jacobian": spec.jacobian},
               ["y_m", "T_s", "density_per_m2s"],
               [yy.ravel(), TT.ravel(), dm.density.ravel()])
    iy, iT = np.unravel_index(int(np.argmax(dm.density)), dm.density.shape)
    data = {"peak_y_m": float(y[iy]), "peak_T_s": float(T[iT]),
            "peak_density_per_m2s": float(dm.density[iy, iT]),
            "clipped_mass": dm.metadata["clipped_mass"]}
    _write_json(os.path.join(out_dir, "current_map.json"), data)
    outputs = ["current_map.csv", "current_map.json"]
    resolved = {"ny": args.ny, "nT": args.nT, "windows": win,
                "n_z": dm.metadata["n_z"]}
    if args.folded:
        fm = MapMaker(cfg.n_max, trap, pd, geom, spec, g0=cfg.g).build(cfg.g)
        tt, TT2 = np.meshgrid(fm.t, fm.T, indexing="ij")
        _write_csv(os.path.join(out_dir, "folded_map.csv"),
                   {"g_mps2": "%.17g" % cfg.g, "jacobian": fm.jacobian,
                    "fraction": "%.17g" % fm.metadata["fraction"]},
                   ["t_s", "T_s", "weight_per_s2"],
                   [tt.ravel(), TT2.ravel(), fm.density.ravel()])
        outputs.append("folded_map.csv")
        resolved["folded_grid"] = [int(fm.t.shape[0]), int(fm.T.shape[0])]
    return outputs, resolved


def _cmd_simulate(cfg, args, out_dir):
    fam = _family(cfg)
    fm = fam.map_at(cfg.g)
    events = sample_events(fm, cfg.n_source, replicate_rng(cfg.seed, 0))
    _write_csv(os.path.join(out_dir, "events.csv"),
               {"n_source": cfg.n_source, "g_true": "%.17g" % cfg.g,
                "seed": cfg.seed},
               ["t_s", "T_s", "phi_rad", "rbar_m"],
               [events.edge_time, events.arrival_time, events.azimuth,
                events.radius(fam.geometry)])
    return ["events.csv"], {"n_detected": events.n_detected,
                            "fraction": fm.metadata["fraction"]}


def _cmd_estimate(cfg, args, out_dir):
    events = _read_events_csv(args.events)
    fam = _family(cfg)
    est = estimate_g(events, fam, rel_window=cfg.rel_window,
                     n_scan=cfg.n_scan,
                     conditional=cfg.likelihood == "conditional")
    _write_json(os.path.join(out_dir, "estimate.json"),
                {"g_hat_mps2": est.value, "sigma_mps2": est.sigma,
                 "widened": est.widened, "n_detected": events.n_detected,
                 "likelihood": cfg.likelihood})
    _write_csv(os.path.join(out_dir, "estimate_scan.csv"),
               {"n_detected": events.n_detected},
               ["g_mps2", "loglik"], [est.scan_g, est.scan_ll])
    return ["estimate.json", "estimate_scan.csv"], {
        "n_scan": int(est.scan_g.shape[0])}


def _cmd_fisher(cfg, args, out_dir):
    fam = _family(cfg)
    info = fisher_information(fam, rel_window=cfg.rel_window)
    extra = count_information(fam, rel_window=cfg.rel_window)
    conditional = cfg.likelihood == "conditional"
    sigma = cramer_rao_sigma(fam, cfg.n_source, conditional=conditional,
                             rel_window=cfg.rel_window)
    _write_json(os.path.join(out_dir, "fisher.json"),
                {"fisher_per_event": info,
                 "count_information_per_atom": extra,
                 "sigma_cr_mps2": sigma, "n_source": cfg.n_source,
                 "likelihood": cfg.likelihood})
    return ["fisher.json"], {}


def _cmd_campaign(cfg, args, out_dir):
    fam = _family(cfg)
    res = run_campaign(fam, cfg.n_source, cfg.n_replicates, cfg.seed,
                       rel_window=cfg.rel_window, n_scan=cfg.n_scan,
                       conditional=cfg.likelihood == "conditional")
    _write_json(os.path.join(out_dir, "campaign.json"), res.summary())
    _write_csv(os.path.join(out_dir, "campaign_replicates.csv"),
               {"seed": cfg.seed, "n_source": cfg.n_source},
               ["replicate", "n_detected", "g_hat_mps2", "sigma_mps2"],
               [np.arange(res.n_replicates), res.n_detected,
                res.estimates, res.sigmas])
    return ["campaign.json", "campaign_replicates.csv"], {
        "scan_lo": float(res.scan_g[0]), "scan_hi": float(res.scan_g[-1]),
        "edge_hits": res.edge_hits}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config file (or QFALL_CONFIG)")
    common.add_argument("--out", help="output directory (or QFALL_OUT)")
    common.add_argument("--seed", type=int, help="RNG seed (or QFALL_SEED)")
    common.add_argument("--g", type=float, help="gravity override, m/s^2")
    common.add_argument("--n-max", dest="n_max", type=int,
                        help="number of bouncer modes")
    common.add_argument("--n-source", dest="n_source", type=int,
                        help="atoms dropped per experiment")
    common.add_argument("--replicates", dest="n_replicates", type=int,
                        help="campaign replicate count")

    parser = argparse.ArgumentParser(
        prog="qfall",
        description="Quantum free-fall simulator and gravity estimator")
    parser.add_argument("--version", action="version",
                        version="qfall %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("scales", parents=[common],
                   help="gravitational scale quartet").set_defaults(
                       func=_cmd_scales)
    sub.add_parser("basis", parents=[common],
                   help="bouncer mode table").set_defaults(func=_cmd_basis)
    sub.add_parser("source-dist", parents=[common],
                   help="recoil polar marginal").set_defaults(
                       func=_cmd_source_dist)
    sub.add_parser("end-of-mirror", parents=[common],
                   help="mode populations and transmission").set_defaults(
                       func=_cmd_end_of_mirror)

    cm = sub.add_parser("current-map", parents=[common],
                        help="detector-plane current density")
    cm.add_argument("--ny", type=int, default=101)
    cm.add_argument("--nT", type=int, default=121)
    cm.add_argument("--y-min", dest="y_min", type=float)
    cm.add_argument("--y-max", dest="y_max", type=float)
    cm.add_argument("--T-min", dest="T_min", type=float)
    cm.add_argument("--T-max", dest="T_max", type=float)
    cm.add_argument("--folded", action="store_true",
                    help="also write the folded (t, T) map")
    cm.set_defaults(func=_cmd_current_map)

    sub.add_parser("simulate", parents=[common],
                   help="draw one synthetic event set").set_defaults(
                       func=_cmd_simulate)

    est = sub.add_parser("estimate", parents=[common],
                         help="maximum-likelihood g from an event file")
    est.add_argument("--events", required=True, help="events.csv path")
    est.set_defaults(func=_cmd_estimate)

    sub.add_parser("fisher", parents=[common],
                   help="Fisher information and Cramer-Rao bound"
                   ).set_defaults(func=_cmd_fisher)
    sub.add_parser("campaign", parents=[common],
                   help="replicated estimates vs the bound").set_defaults(
                       func=_cmd_campaign)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    out_dir = args.out or os.environ.get("QFALL_OUT") or "."
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"command": args.command, "status": "ok", "outputs": [],
                "resolved": {}}
    code = 0
    try:
        cfg = resolve_config(args.config or os.environ.get("QFALL_CONFIG"))
        cfg = _apply_overrides(cfg, args)
        manifest["config_hash"] = config_hash(cfg)
        manifest["config"] = config_dict(cfg)
        manifest["seed"] = cfg.seed
        outputs, resolved = args.func(cfg, args, out_dir)
        manifest["outputs"] = outputs
        manifest["resolved"] = resolved
    except Exception as exc:
        manifest["status"] = "error"
        manifest["error"] = "%s: %s" % (type(exc).__name__, exc)
        print("error: %s" % exc, file=sys.stderr)
        code = 1
    manifest["versions"] = _versions()
    manifest["wall_time_s"] = time.perf_counter() - t0
    _write_json(os.path.join(
        out_dir, "%s_manifest.json" % args.command.replace("-", "_")),
        manifest)
    return code


if __name__ == "__main__":
    sys.exit(main())
