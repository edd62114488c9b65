#!/usr/bin/env python3
"""Run one benchmark workload of qfall and print its metrics.

    python3 perfbench/run.py --workload desk_campaign --seed 20260822 \
        --seconds 40 --trace 0

Run from the repository root; the program is imported from `src/`.  One
repetition sets the workload up (again and again for a second where set-up
is short, keeping the last state) and runs its body once.  Repetitions go on
until the next one would end more than half a repetition after `--seconds`,
so that a body of a third of `--seconds` still gets three repetitions and a
median that drops an outlier.
`--trace 0` reports the end-to-end metrics (medians over the repetitions).
`--trace 1` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (means, so that the self times and the
untraced remainder add up to the traced time).  Every repetition's outputs
are checked against the workload's references.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: end-to-end metric -> unit
END_TO_END = {"setup_s": "s", "run_s": "s", "wall_s": "s",
              "peak_rss_mb": "MB"}


def environment() -> dict:
    """What the numbers depend on besides the code under test."""
    import numpy as np
    import scipy
    from qfall import kernels

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "engine": kernels.get_engine()}


def repetition(workload, seed, setup_seconds, tracer=None):
    """Set up until `setup_seconds` have gone by (at least once), keep the
    last state, run the body once."""
    setup_times = []
    state = None
    while not setup_times or sum(setup_times) < setup_seconds:
        state = None  # free the previous state before building the next
        if tracer is not None:
            tracer.phase = "setup"
        t0 = time.perf_counter()
        state = workload.setup(workload.n_max)
        setup_times.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.phase = "run"
    t0 = time.perf_counter()
    outcome = workload.body(state, seed)
    return setup_times, time.perf_counter() - t0, outcome


def measure(workload, seed, seconds, trace):
    import layers

    rec = {"setup_s": [], "run_s": [], "traced": [], "outputs": [],
           "problems": [], "attempted": 0, "failed": 0}

    def account(outcome):
        problems = workload.check(outcome.outputs, seed)
        rec["outputs"].append(outcome.outputs)
        rec["problems"] += problems
        rec["attempted"] += outcome.attempted
        # a run whose outputs drift fails as a whole
        rec["failed"] += outcome.attempted if problems else outcome.failed

    start = time.perf_counter()
    iterations = 0
    while True:
        try:
            setup_times, run_s, outcome = repetition(
                workload, seed, workload.setup_seconds)
            rec["setup_s"] += setup_times
            rec["run_s"].append(run_s)
            account(outcome)
            if trace:
                with Tracer() as tracer:
                    layers.install(tracer)
                    setup_times, run_s, outcome = repetition(
                        workload, seed, 0.0, tracer)
                rec["traced"].append(layers.layer_metrics(
                    tracer.spans, setup_times[0], run_s))
                account(outcome)
        except Exception as exc:  # a failing repetition ends the run
            traceback.print_exc(file=sys.stderr)
            rec["problems"].append("raised %r" % exc)
            rec["attempted"] += workload.nominal_ops
            rec["failed"] += workload.nominal_ops
            break
        iterations += 1
        elapsed = time.perf_counter() - start
        if elapsed * (1.0 + 0.5 / iterations) > seconds:
            break
    return rec


def end_to_end(rec) -> dict:
    setup_s = statistics.median(rec["setup_s"])
    run_s = statistics.median(rec["run_s"])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": setup_s, "run_s": run_s, "wall_s": setup_s + run_s,
            "peak_rss_mb": peak}


def per_layer(rec) -> dict:
    import layers

    traced = rec["traced"]
    out = {name: statistics.fmean(m[name] for m in traced)
           for name in traced[0]}
    for name, unit in layers.UNITS.items():
        if unit == "count":  # computed counts repeat exactly
            out[name] = traced[0][name]
    out["trace.overhead_s"] = out["trace.run_s"] - statistics.fmean(
        rec["run_s"])
    return {name: out[name] for name in layers.UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20260822)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "qfall" / "__init__.py").is_file():
        print("perfbench: no program source at %s" % (SRC / "qfall"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qfall
    if Path(qfall.__file__).resolve().parent != SRC / "qfall":
        print("perfbench: qfall imported from %s, not from %s"
              % (qfall.__file__, SRC), file=sys.stderr)
        return 2
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r, expected one of %s"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    rec = measure(workload, args.seed, args.seconds, args.trace)
    if args.trace and rec["traced"]:
        values, units = per_layer(rec), layers.UNITS
    elif not args.trace and rec["run_s"]:
        values, units = end_to_end(rec), END_TO_END
    else:  # the first repetition raised
        values, units = {}, {}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    correct = not rec["problems"] and bool(metrics)

    print("workload %s  seed %d  n_max %d  trace %d  repetitions %d"
          % (workload.name, args.seed, workload.n_max, args.trace,
             len(rec["run_s"])))
    print("environment " + json.dumps(env))
    if rec["outputs"]:
        print("outputs " + json.dumps(rec["outputs"][0]))
    for problem in dict.fromkeys(rec["problems"]):
        print("CHECK FAILED: " + problem)
    for name, m in metrics.items():
        print("%-40s %-22r %s" % (name, m["value"], m["unit"]))
    if args.trace and metrics:
        v = {name: m["value"] for name, m in metrics.items()}
        spans_s = sum(v[name] for name in layers.SELF_TIME.values())
        print("accounting: span self times %.6f s + untraced %.6f s = %.6f s"
              " = traced set-up %.6f s + traced run %.6f s"
              % (spans_s, v["trace.untraced_s"],
                 spans_s + v["trace.untraced_s"], v["trace.setup_s"],
                 v["trace.run_s"]))
    print("%-40s %-22r ratio  (%d of %d operations)"
          % ("failed_ratio", rec["failed"] / max(rec["attempted"], 1),
             rec["failed"], rec["attempted"]))
    if args.out:
        record = {"workload": workload.name, "seed": args.seed,
                  "n_max": workload.n_max, "trace": args.trace,
                  "seconds": args.seconds, "environment": env,
                  "correct": correct, "attempted": rec["attempted"],
                  "failed": rec["failed"], "problems": rec["problems"],
                  "outputs": rec["outputs"], "setup_s": rec["setup_s"],
                  "run_s": rec["run_s"], "traced": rec["traced"],
                  "metrics": metrics}
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
