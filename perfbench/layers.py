"""Where the traced run wraps the program, and the per-layer metrics.

Each layer's public functions are wrapped in every module that looks them up
(`freefall` calls `mode_chirp_sums`, `overlap_matrix` and
`eigenfunction_matrix` through `from ... import`; `run_campaign` calls
`log_likelihood` through the `inference` globals), and methods in their
class.  `physcore`, `source`, `mirror`, `config` and `cli` cost milliseconds
and have no span: their time lands in the self time of their callers.
"""

from __future__ import annotations

import statistics

from qfall import airy, freefall, gqs, inference, kernels

from spans import Tracer, covered_time, self_times

#: Modules searched for the names they look up.
MODULES = (airy, gqs, kernels, freefall, inference)


def kernel_counts(result, chi_w, z, idx_cut, alpha, zprime, invtau, gtau):
    """Work of one `mode_chirp_sums` call, computed from its argument shapes.

    K lattice times, N modes and J heights give K*N*J terms, of which
    sum(idx_cut)*K lie below the modes' support cuts.  The numpy engine does
    four real (K x J) @ (J x N) products, 8*K*N*J flops, plus K*J sin/cos
    pairs counted as one operation each.  Bytes are those of the operands
    and of the two complex (K, N) results.  These are computed, not
    measured, so they repeat exactly.
    """
    K, N, J = int(alpha.shape[0]), int(chi_w.shape[0]), int(z.shape[0])
    operands = (chi_w, z, idx_cut, alpha, zprime, invtau, gtau)
    return {"terms": K * N * J,
            "useful_terms": K * int(idx_cut.sum()),
            "flop": 8 * K * N * J + K * J,
            "bytes": sum(int(a.nbytes) for a in operands) + 2 * K * N * 16}


def _mode_points(result, table, xi):
    return {"points": int(result.shape[0]) * int(result.shape[1])}


def _sampled(result, *args, **kwargs):
    return {"events": int(result.n_detected)}


def _scored(result, events, *args, **kwargs):
    return {"events": int(events.n_detected)}


#: span name -> (defining owner, attribute, count function)
TARGETS = {
    "airy.airy_zeros": (airy, "airy_zeros", None),
    "airy.eigenfunction_matrix": (airy, "eigenfunction_matrix", _mode_points),
    "gqs.overlap_matrix": (gqs, "overlap_matrix", None),
    "kernels.mode_chirp_sums": (kernels, "mode_chirp_sums", kernel_counts),
    "freefall.MapMaker.build": (freefall.MapMaker, "build", None),
    "freefall.current_map_yt": (freefall, "current_map_yt", None),
    "inference.map_at": (inference.GridDensityFamily, "map_at", None),
    "inference.sample_events": (inference, "sample_events", _sampled),
    "inference.log_likelihood": (inference, "log_likelihood", _scored),
    "inference.fisher_information": (inference, "fisher_information", None),
    "inference.run_campaign": (inference, "run_campaign", None),
}


def install(tracer: Tracer) -> None:
    """Wrap every target where it is defined and wherever it is imported."""
    for name, (owner, attr, count) in TARGETS.items():
        if isinstance(owner, type):
            tracer.wrap(owner, attr, name, count)
            continue
        target = vars(owner)[attr]
        for module in MODULES:
            if vars(module).get(attr) is target:
                tracer.wrap(module, attr, name, count)


#: per-layer metric -> unit, in the order they are printed
UNITS = {
    "airy.airy_zeros.s": "s",
    "airy.eigenfunction_matrix.s": "s",
    "airy.eigenfunction_matrix.calls": "count",
    "airy.eigenfunction_matrix.points": "count",
    "gqs.overlap_matrix.self_s": "s",
    "gqs.overlap_matrix.calls": "count",
    "kernels.mode_chirp_sums.self_s": "s",
    "kernels.mode_chirp_sums.calls": "count",
    "kernels.mode_chirp_sums.terms": "count",
    "kernels.mode_chirp_sums.useful_ratio": "ratio",
    "kernels.mode_chirp_sums.gflop": "GFLOP",
    "kernels.mode_chirp_sums.gflop_per_s": "GFLOP/s",
    "kernels.mode_chirp_sums.mbytes": "MB",
    "freefall.MapMaker.build.calls": "count",
    "freefall.MapMaker.build.p50_s": "s",
    "freefall.MapMaker.build.self_s": "s",
    "freefall.current_map_yt.self_s": "s",
    "inference.map_at.calls": "count",
    "inference.map_at.builds": "count",
    "inference.map_at.hit_ratio": "ratio",
    "inference.map_at.self_s": "s",
    "inference.sample_events.s": "s",
    "inference.sample_events.events": "count",
    "inference.log_likelihood.s": "s",
    "inference.log_likelihood.calls": "count",
    "inference.log_likelihood.p50_us": "us",
    "inference.log_likelihood.events": "count",
    "inference.fisher_information.self_s": "s",
    "inference.run_campaign.self_s": "s",
    "trace.setup_s": "s",
    "trace.run_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}


#: span name -> the metric holding its self time (".s" where the span has
#: no wrapped children, so self time is its whole duration)
SELF_TIME = {
    "airy.airy_zeros": "airy.airy_zeros.s",
    "airy.eigenfunction_matrix": "airy.eigenfunction_matrix.s",
    "gqs.overlap_matrix": "gqs.overlap_matrix.self_s",
    "kernels.mode_chirp_sums": "kernels.mode_chirp_sums.self_s",
    "freefall.MapMaker.build": "freefall.MapMaker.build.self_s",
    "freefall.current_map_yt": "freefall.current_map_yt.self_s",
    "inference.map_at": "inference.map_at.self_s",
    "inference.sample_events": "inference.sample_events.s",
    "inference.log_likelihood": "inference.log_likelihood.s",
    "inference.fisher_information": "inference.fisher_information.self_s",
    "inference.run_campaign": "inference.run_campaign.self_s",
}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, setup_s: float, run_s: float) -> dict:
    """Per-layer metrics of one traced repetition (set-up and body).

    `trace.overhead_s` needs an untraced run and is filled in by the caller.
    """
    own = self_times(spans)
    by_name = {name: [] for name in TARGETS}
    for index, span in enumerate(spans):
        by_name[span.name].append(index)

    def calls(name):
        return len(by_name[name])

    def total(name, key):
        return sum(spans[i].counts[key] for i in by_name[name])

    def durations(name):
        return [spans[i].duration for i in by_name[name]]

    m = {metric: sum(own[i] for i in by_name[name])
         for name, metric in SELF_TIME.items()}
    map_at = set(by_name["inference.map_at"])
    builds = sum(1 for i in by_name["freefall.MapMaker.build"]
                 if spans[i].parent in map_at)
    kernel = "kernels.mode_chirp_sums"
    terms = total(kernel, "terms")
    kernel_s = m[SELF_TIME[kernel]]
    gflop = total(kernel, "flop") / 1e9
    covered = covered_time(spans, "setup") + covered_time(spans, "run")
    m.update({
        "airy.eigenfunction_matrix.calls": calls("airy.eigenfunction_matrix"),
        "airy.eigenfunction_matrix.points":
            total("airy.eigenfunction_matrix", "points"),
        "gqs.overlap_matrix.calls": calls("gqs.overlap_matrix"),
        "kernels.mode_chirp_sums.calls": calls(kernel),
        "kernels.mode_chirp_sums.terms": terms,
        "kernels.mode_chirp_sums.useful_ratio":
            total(kernel, "useful_terms") / terms if terms else 0.0,
        "kernels.mode_chirp_sums.gflop": gflop,
        "kernels.mode_chirp_sums.gflop_per_s":
            gflop / kernel_s if kernel_s > 0.0 else 0.0,
        "kernels.mode_chirp_sums.mbytes": total(kernel, "bytes") / 1e6,
        "freefall.MapMaker.build.calls": calls("freefall.MapMaker.build"),
        "freefall.MapMaker.build.p50_s":
            _median(durations("freefall.MapMaker.build")),
        "inference.map_at.calls": len(map_at),
        "inference.map_at.builds": builds,
        "inference.map_at.hit_ratio":
            1.0 - builds / len(map_at) if map_at else 0.0,
        "inference.sample_events.events":
            total("inference.sample_events", "events"),
        "inference.log_likelihood.calls": calls("inference.log_likelihood"),
        "inference.log_likelihood.p50_us":
            1e6 * _median(durations("inference.log_likelihood")),
        "inference.log_likelihood.events":
            total("inference.log_likelihood", "events"),
        "trace.setup_s": setup_s,
        "trace.run_s": run_s,
        "trace.untraced_s": setup_s + run_s - covered,
    })
    return m
