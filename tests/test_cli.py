"""End-to-end CLI runs: file outputs, manifests, precedence, determinism.

All commands run in-process through main() against a reduced ladder so the
whole module stays in tens of seconds.
"""

import json
import math
import os
import re

import numpy as np
import pytest

import qfall.cli as cli
import qfall.gqs as gqs
from qfall.cli import _read_events_csv, main
from qfall.config import build_components, parse_config
from qfall.freefall import MapMaker
from qfall.inference import NODE_TAIL
from qfall.physcore import derive_scales

DESK_CFG = """
physics.n_max = 50
inference.n_source = 20000
inference.n_replicates = 4
inference.seed = 42
inference.n_scan = 11
inference.rel_window = 1e-4
"""


@pytest.fixture()
def desk_cfg(tmp_path):
    path = tmp_path / "desk.cfg"
    path.write_text(DESK_CFG)
    return str(path)


def _csv_rows(path):
    """Data rows of a CSV file the CLI wrote, past its '#' lines and its
    column header."""
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def _manifest(out_dir, command):
    path = os.path.join(out_dir, "%s_manifest.json" % command)
    with open(path) as fh:
        return json.load(fh)


class TestLightCommands:
    def test_scales(self, tmp_path):
        out = str(tmp_path)
        assert main(["scales", "--out", out]) == 0
        with open(tmp_path / "scales.json") as fh:
            data = json.load(fh)
        sc = derive_scales(9.81)
        assert data["length_m"] == sc.length
        assert data["time_s"] == sc.time
        man = _manifest(out, "scales")
        assert man["status"] == "ok"
        assert man["outputs"] == ["scales.json"]
        assert len(man["config_hash"]) == 64
        assert man["versions"]["numpy"] == np.__version__

    def test_basis_table(self, tmp_path, desk_cfg):
        out = str(tmp_path)
        assert main(["basis", "--config", desk_cfg, "--out", out]) == 0
        rows = _csv_rows(tmp_path / "basis.csv")
        assert rows.shape == (50, 4)
        assert rows[0, 1] == pytest.approx(2.3381074104597674, abs=1e-10)

    def test_end_of_mirror(self, tmp_path, desk_cfg, monkeypatch):
        calls = []
        overlap_matrix = gqs.overlap_matrix

        def counted(*args, **kwargs):
            calls.append(args)
            return overlap_matrix(*args, **kwargs)

        monkeypatch.setattr(gqs, "overlap_matrix", counted)
        out = str(tmp_path)
        assert main(["end-of-mirror", "--config", desk_cfg,
                     "--out", out]) == 0
        assert len(calls) == 1
        with open(tmp_path / "end_of_mirror.json") as fh:
            data = json.load(fh)
        assert data["fraction"] == pytest.approx(0.0923, abs=5e-3)
        assert data["expected_count"] == round(20000 * data["fraction"])
        cfg = parse_config(DESK_CFG)
        trap, pd, geom, _ = build_components(cfg)
        want = gqs.transmitted_fraction(gqs.build_basis(cfg.n_max), trap, pd,
                                        geom.release_height, cfg.n_polar)
        assert data["fraction"] == want.fraction

    def test_source_dist(self, tmp_path, desk_cfg):
        out = str(tmp_path)
        assert main(["source-dist", "--config", desk_cfg,
                     "--out", out]) == 0
        rows = _csv_rows(tmp_path / "source_dist.csv")
        assert rows[:, 1].sum() == pytest.approx(1.0, abs=1e-12)


class TestCurrentMap:
    def test_small_grid(self, tmp_path, desk_cfg):
        out = str(tmp_path)
        assert main(["current-map", "--config", desk_cfg, "--out", out,
                     "--ny", "9", "--nT", "11"]) == 0
        rows = _csv_rows(tmp_path / "current_map.csv")
        assert rows.shape == (9 * 11, 3)
        assert rows[:, 2].min() >= 0.0
        with open(tmp_path / "current_map.json") as fh:
            data = json.load(fh)
        assert data["peak_density_per_m2s"] > 0
        man = _manifest(out, "current_map")
        assert man["resolved"]["ny"] == 9
        # 99 cells are too few for the fall-time lattice to pay: the cut
        # formed one kernel row per cell and no lattice step
        assert man["resolved"]["n_tau"] == 9 * 11
        assert man["resolved"]["tau_step"] is None

    def test_default_window_forms_one_row_per_cell(self, tmp_path, desk_cfg):
        # the derived 101 x 121 window: its stencils would hold 63261
        # lattice rows, against 12221 direct rows
        out = str(tmp_path)
        assert main(["current-map", "--config", desk_cfg, "--out", out]) == 0
        resolved = _manifest(out, "current_map")["resolved"]
        assert resolved["n_tau"] == 101 * 121 == 12221
        assert resolved["tau_step"] is None

    @pytest.mark.parametrize("flag", ["--ny", "--nT"])
    def test_empty_cut_refused_before_compute(self, tmp_path, desk_cfg,
                                              monkeypatch, flag):
        monkeypatch.setattr(gqs, "airy_zeros", _no_zero_table)
        out = str(tmp_path)
        assert main(["current-map", "--config", desk_cfg, "--out", out,
                     flag, "0"]) == 1
        error = _manifest(out, "current_map")["error"]
        assert "ConfigError" in error and flag in error
        assert not (tmp_path / "current_map.csv").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--y-min", "nan"), ("--y-max", "inf"), ("--T-min", "nan"),
        ("--T-max", "-inf")])
    def test_non_finite_window_refused_before_compute(
            self, tmp_path, desk_cfg, monkeypatch, flag, value):
        monkeypatch.setattr(gqs, "airy_zeros", _no_zero_table)
        out = str(tmp_path)
        assert main(["current-map", "--config", desk_cfg, "--out", out,
                     "%s=%s" % (flag, value)]) == 1
        error = _manifest(out, "current_map")["error"]
        assert "ConfigError" in error and flag in error
        assert not (tmp_path / "current_map.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-0.2"])
    def test_non_positive_T_min_refused_before_compute(
            self, tmp_path, desk_cfg, monkeypatch, value):
        monkeypatch.setattr(gqs, "airy_zeros", _no_zero_table)
        out = str(tmp_path)
        assert main(["current-map", "--config", desk_cfg, "--out", out,
                     "--T-min=%s" % value]) == 1
        error = _manifest(out, "current_map")["error"]
        assert "ConfigError: --T-min must be positive" in error

    def test_T_window_without_fall_time_refused_before_compute(
            self, tmp_path, desk_cfg, monkeypatch):
        monkeypatch.setattr(gqs, "airy_zeros", _no_zero_table)
        out = str(tmp_path)
        assert main(["current-map", "--config", desk_cfg, "--out", out,
                     "--T-max=-0.1"]) == 1
        error = _manifest(out, "current_map")["error"]
        assert "ConfigError: --T-max=-0.1 leaves no fall time" in error

    @pytest.mark.parametrize("flags, named", [
        (["--y-min=0.04"], "--y-min and y-max derived from the T window"),
        (["--y-min=-0.3", "--y-max=0.3"], "--y-min and --y-max"),
        (["--T-min=0.001"], "y-min derived from the T window and y-max "
         "derived from the T window")])
    def test_y_window_on_the_mirror_refused_before_the_cut(
            self, tmp_path, desk_cfg, monkeypatch, flags, named):
        # a y window reaching |y| <= travel_distance, straddling 0 or not,
        # is refused naming its ends, not inside the cut
        def no_cut(*args, **kwargs):
            raise AssertionError("the cut ran")

        monkeypatch.setattr(cli, "current_map_yt", no_cut)
        out = str(tmp_path)
        assert main(["current-map", "--config", desk_cfg, "--out", out]
                    + flags) == 1
        error = _manifest(out, "current_map")["error"]
        assert error.startswith("ConfigError: y window")
        assert "(%s)" % named in error
        assert "travel_distance" in error

    def test_negative_y_cut(self, tmp_path, desk_cfg):
        out = str(tmp_path)
        assert main(["current-map", "--config", desk_cfg, "--out", out,
                     "--y-min=-0.3", "--y-max=-0.27", "--T-min=0.29",
                     "--T-max=0.3", "--ny", "3", "--nT", "3"]) == 0
        with open(tmp_path / "current_map.json") as fh:
            data = json.load(fh)
        assert data["peak_y_m"] < 0.0 and data["peak_density_per_m2s"] > 0

    def test_unclipped_maps_report_positive_zero(self, tmp_path, desk_cfg,
                                                 monkeypatch):
        # neither map clips a cell here, so each clipped mass is +0.0, not
        # the -0.0 of a negated empty sum
        maps = []
        build = MapMaker.build
        monkeypatch.setattr(MapMaker, "build",
                            lambda self, g: maps.append(build(self, g))
                            or maps[-1])
        out = str(tmp_path)
        assert main(["current-map", "--config", desk_cfg, "--out", out,
                     "--ny", "3", "--nT", "3", "--folded"]) == 0
        with open(tmp_path / "current_map.json") as fh:
            clipped = json.load(fh)["clipped_mass"]
        (fm,) = maps
        for value in (clipped, fm.metadata["clipped_mass"]):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_folded_export(self, tmp_path, desk_cfg):
        out = str(tmp_path)
        assert main(["current-map", "--config", desk_cfg, "--out", out,
                     "--ny", "5", "--nT", "5", "--folded"]) == 0
        man = _manifest(out, "current_map")
        assert "folded_map.csv" in man["outputs"]
        nt, nT = man["resolved"]["folded_grid"]
        with open(tmp_path / "folded_map.csv") as fh:
            n_rows = sum(1 for line in fh
                         if line.strip() and not line.startswith("#"))
        assert n_rows == nt * nT + 1  # header plus one row per cell


class TestSimulateEstimate:
    def test_roundtrip_and_determinism(self, tmp_path, desk_cfg):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["simulate", "--config", desk_cfg, "--out", out_a]) == 0
        assert main(["simulate", "--config", desk_cfg, "--out", out_b]) == 0
        bytes_a = (tmp_path / "a" / "events.csv").read_bytes()
        bytes_b = (tmp_path / "b" / "events.csv").read_bytes()
        assert bytes_a == bytes_b
        out_c = str(tmp_path / "c")
        assert main(["simulate", "--config", desk_cfg, "--out", out_c,
                     "--seed", "43"]) == 0
        assert (tmp_path / "c" / "events.csv").read_bytes() != bytes_a

        events = _read_events_csv(os.path.join(out_a, "events.csv"))
        assert events.n_source == 20000
        assert events.g_true == pytest.approx(9.81, rel=1e-15)
        man = _manifest(out_a, "simulate")
        assert man["resolved"]["n_detected"] == events.n_detected

        assert main(["estimate", "--config", desk_cfg, "--out", out_a,
                     "--events", os.path.join(out_a, "events.csv")]) == 0
        with open(os.path.join(out_a, "estimate.json")) as fh:
            est = json.load(fh)
        assert abs(est["g_hat_mps2"] - 9.81) < 4 * est["sigma_mps2"]
        assert est["n_off_lattice"] == 0
        scan = _csv_rows(os.path.join(out_a, "estimate_scan.csv"))
        assert scan.shape[0] == 11

    def test_off_lattice_events_counted(self, tmp_path, monkeypatch):
        # a 0.15 s fall is shorter than any fall time of the window, so
        # the event scores the density floor; estimate.json counts it
        cfg = tmp_path / "small.cfg"
        cfg.write_text("physics.n_max = 20\n")
        path = tmp_path / "events.csv"
        path.write_text("# n_source = 100\nt_s,T_s,phi_rad,rbar_m\n"
                        "0.05,0.2,1.0,0.2\n")
        builds = []
        build = MapMaker.build
        monkeypatch.setattr(MapMaker, "build",
                            lambda self, g: builds.append(g)
                            or build(self, g))
        out = str(tmp_path / "out")
        assert main(["estimate", "--config", str(cfg), "--out", out,
                     "--events", str(path)]) == 0
        with open(os.path.join(out, "estimate.json")) as fh:
            assert json.load(fh)["n_off_lattice"] == 1
        # the count reads the kept g0 map: no g is built twice
        assert len(builds) == len(set(builds))

    def test_event_csv_float_roundtrip(self, tmp_path, desk_cfg):
        out = str(tmp_path)
        assert main(["simulate", "--config", desk_cfg, "--out", out]) == 0
        events = _read_events_csv(os.path.join(out, "events.csv"))
        # %.17g preserves doubles exactly, so T - t stays positive
        assert (events.arrival_time - events.edge_time).min() > 0

    @pytest.mark.parametrize("body, detail", [
        ("t_s,T_s,rbar_m\n0.05,0.3,0.3\n", "line 3: no 'phi_rad' column"),
        ("t_s,T_s,phi_rad,rbar_m\n0.05,0.3,1.0\n",
         "line 4: 3 values for 4 columns"),
        ("t_s,T_s,phi_rad,rbar_m\n0.05,0.3,abc,0.3\n", "line 4: .*'abc'"),
        ("# n_source = 1e3x\nt_s,T_s,phi_rad\n0.05,0.3,1.0\n",
         "line 3: n_source: .*'1e3x'"),
        ("# g_true = 9.8.1\nt_s,T_s,phi_rad\n0.05,0.3,1.0\n",
         "line 3: g_true: .*'9.8.1'"),
        ("t_s,T_s,phi_rad,rbar_m\n0.05,0.3,1.0,0.3\nnan,0.3,1.0,0.3\n",
         "line 5: t_s = nan is not finite"),
        ("t_s,T_s,phi_rad,rbar_m\n0.05,-inf,1.0,0.3\n",
         "line 4: T_s = -inf is not finite"),
        ("t_s,T_s,phi_rad,t_s\n0.05,0.3,1.0,0.06\n",
         "line 3: column 't_s' repeated"),
        ("t_s,T_s,phi_rad\n", "holds no events"),
        ("t_s,T_s,phi_rad\n" + "0.05,0.3,1.0\n" * 101,
         ": 101 events for n_source = 100"),
        ("# n_source = 5\nt_s,T_s,phi_rad\n0.05,0.3,1.0\n",
         "line 3: header 'n_source' repeated"),
        ("# g_true = 9.8\n# g_true = 9.81\nt_s,T_s,phi_rad\n0.05,0.3,1.0\n",
         "line 4: header 'g_true' repeated"),
    ], ids=["missing_column", "short_row", "bad_number", "bad_n_source",
            "bad_g_true", "nan_time", "inf_arrival", "repeated_column",
            "no_events", "overfull", "repeated_n_source", "repeated_g_true"])
    def test_bad_event_file_refused(self, monkeypatch, tmp_path, desk_cfg,
                                    body, detail):
        path = tmp_path / "events.csv"
        path.write_text("# qfall 0.1.0\n# n_source = 100\n" + body)
        out = str(tmp_path / "out")
        # refused before the map family is set up
        families = []
        monkeypatch.setattr(cli, "_family", families.append)
        assert main(["estimate", "--config", desk_cfg, "--out", out,
                     "--events", str(path)]) == 1
        assert families == []
        error = _manifest(out, "estimate")["error"]
        assert error.startswith("ConfigError: %s" % path)
        assert re.search(detail, error)
        assert not os.path.exists(os.path.join(out, "estimate.json"))


class TestFisherCampaign:
    def test_fisher_file(self, tmp_path, desk_cfg):
        out = str(tmp_path)
        assert main(["fisher", "--config", desk_cfg, "--out", out]) == 0
        with open(tmp_path / "fisher.json") as fh:
            data = json.load(fh)
        assert data["fisher_per_event"] > 0
        assert data["sigma_cr_mps2"] == pytest.approx(
            1.0 / math.sqrt(20000 * 0.0923 * data["fisher_per_event"]),
            rel=0.01)
        assert "delta_rel" not in data

    def test_campaign_files(self, tmp_path, desk_cfg):
        out = str(tmp_path)
        assert main(["campaign", "--config", desk_cfg, "--out", out]) == 0
        with open(tmp_path / "campaign.json") as fh:
            data = json.load(fh)
        assert data["n_replicates"] == 4
        assert data["sigma_mc"] > 0
        # the 9 nodes of the +-1e-4 window, fewer than the 11 scan points
        assert data["map_builds"] == 9
        assert data["node_tail"] <= NODE_TAIL
        rows = _csv_rows(tmp_path / "campaign_replicates.csv")
        assert rows.shape == (4, 4)
        man = _manifest(out, "campaign")
        assert man["resolved"]["edge_hits"] == 0


def _no_zero_table(n_max):
    raise RuntimeError("zero table requested")


class TestPolarizationCheck:
    """A tilted polarization breaks the two-harmonic azimuth fold."""

    @pytest.fixture()
    def tilted_cfg(self, tmp_path):
        path = tmp_path / "tilted.cfg"
        path.write_text(DESK_CFG + "source.polarization = 0, 1, 1\n")
        return str(path)

    def test_folding_commands_refuse_it_before_compute(
            self, tmp_path, tilted_cfg, monkeypatch):
        monkeypatch.setattr(gqs, "airy_zeros", _no_zero_table)
        events = tmp_path / "events.csv"
        events.write_text("# n_source = 10\nt_s,T_s,phi_rad,rbar_m\n"
                          "0.01,0.3,0.1,1.5\n")
        for command in ("simulate", "estimate", "fisher", "campaign",
                        "current-map"):
            out = str(tmp_path / command)
            extra = ["--events", str(events)] if command == "estimate" \
                else []
            assert main([command, "--config", tilted_cfg, "--out", out]
                        + extra) == 1
            error = _manifest(out, command.replace("-", "_"))["error"]
            assert "ConfigError" in error and "polarization" in error

    def test_mirror_commands_accept_it(self, tmp_path, tilted_cfg,
                                       monkeypatch):
        monkeypatch.setattr(gqs, "airy_zeros", _no_zero_table)
        out = str(tmp_path)
        assert main(["source-dist", "--config", tilted_cfg,
                     "--out", out]) == 0
        # end-of-mirror passes the configuration and goes on to the zeros
        assert main(["end-of-mirror", "--config", tilted_cfg,
                     "--out", out]) == 1
        assert "zero table requested" in _manifest(out, "end_of_mirror")[
            "error"]


class TestOverrideValidation:
    """Flag and environment overrides are checked before any compute."""

    @pytest.mark.parametrize("command, flags, key", [
        ("fisher", ["--n-source", "0"], "n_source"),
        ("campaign", ["--replicates", "1"], "n_replicates"),
        ("simulate", ["--n-max", "0"], "n_max"),
        ("fisher", ["--g", "-9.81"], "physics.g"),
    ])
    def test_bad_override_refused(self, tmp_path, desk_cfg, monkeypatch,
                                  command, flags, key):
        monkeypatch.setattr(gqs, "airy_zeros", _no_zero_table)
        out = str(tmp_path)
        assert main([command, "--config", desk_cfg, "--out", out]
                    + flags) == 1
        error = _manifest(out, command)["error"]
        assert "ConfigError" in error and key in error

    def test_bad_seed_variable_refused(self, tmp_path, desk_cfg,
                                       monkeypatch):
        monkeypatch.setattr(gqs, "airy_zeros", _no_zero_table)
        monkeypatch.setenv("QFALL_SEED", "abc")
        out = str(tmp_path)
        assert main(["fisher", "--config", desk_cfg, "--out", out]) == 1
        error = _manifest(out, "fisher")["error"]
        assert "ConfigError" in error and "QFALL_SEED" in error
        assert "'abc'" in error


class TestFailureAndPrecedence:
    def test_failed_run_leaves_manifest(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("physics.n_max = -3\n")
        out = str(tmp_path)
        assert main(["scales", "--config", str(bad), "--out", out]) == 1
        man = _manifest(out, "scales")
        assert man["status"] == "error"
        assert "n_max" in man["error"]
        assert man["outputs"] == []

    @pytest.mark.parametrize("command, line, message", [
        ("scales", "source.detachment_energy = -1 ueV",
         "recoil settings must be nonnegative"),
        ("scales", "physics.g = abc m/s2", "cannot read number 'abc'"),
        ("basis", "physics.n_max = 200000", "n_max unreasonably large"),
    ], ids=["negative_recoil", "unreadable_g", "huge_n_max"])
    def test_bad_setting_refused(self, tmp_path, command, line, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(line + "\n")
        out = str(tmp_path)
        assert main([command, "--config", str(bad), "--out", out]) == 1
        man = _manifest(out, command)
        assert man["status"] == "error"
        assert message in man["error"]

    def test_event_file_without_source_count_refused(self, tmp_path,
                                                     desk_cfg):
        path = tmp_path / "events.csv"
        path.write_text("# qfall 0.1.0\nt_s,T_s,phi_rad\n0.05,0.3,1.0\n")
        out = str(tmp_path / "out")
        assert main(["estimate", "--config", desk_cfg, "--out", out,
                     "--events", str(path)]) == 1
        man = _manifest(out, "estimate")
        assert man["status"] == "error"
        assert "%s is not an event file" % path in man["error"]

    def test_seed_precedence(self, tmp_path, desk_cfg, monkeypatch):
        out = str(tmp_path)
        monkeypatch.setenv("QFALL_SEED", "7")
        assert main(["scales", "--config", desk_cfg, "--out", out]) == 0
        assert _manifest(out, "scales")["seed"] == 7
        assert main(["scales", "--config", desk_cfg, "--out", out,
                     "--seed", "9"]) == 0
        assert _manifest(out, "scales")["seed"] == 9
        monkeypatch.delenv("QFALL_SEED")
        assert main(["scales", "--config", desk_cfg, "--out", out]) == 0
        assert _manifest(out, "scales")["seed"] == 42

    def test_config_via_env(self, tmp_path, desk_cfg, monkeypatch):
        out = str(tmp_path)
        monkeypatch.setenv("QFALL_CONFIG", desk_cfg)
        assert main(["scales", "--out", out]) == 0
        assert _manifest(out, "scales")["config"]["n_max"] == 50

    def test_gravity_flag_overrides(self, tmp_path):
        out = str(tmp_path)
        assert main(["scales", "--out", out, "--g", "3.71"]) == 0
        with open(tmp_path / "scales.json") as fh:
            data = json.load(fh)
        assert data["gravity_mps2"] == 3.71
        assert data["length_m"] == derive_scales(3.71).length
