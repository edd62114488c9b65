"""Tests of the benchmark itself: spans, wrappers, fingerprints, counts.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import time
import types

import numpy as np
import pytest

import layers
import run
import workloads
from spans import Tracer, covered_time, self_times
from qfall import inference
from qfall.freefall import MapMaker

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def _scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    mod = types.ModuleType("fake")
    mod.leaf = lambda: None

    def middle():
        mod.leaf()
        mod.leaf()

    mod.middle = middle
    mod.top = lambda: mod.middle()
    # top [0, 20] > middle [1, 15] > leaf [2, 5] and [6, 10]; then a
    # top-level leaf [30, 31]
    tracer = Tracer(clock=_scripted_clock([0, 1, 2, 5, 6, 10, 15, 20, 30,
                                           31]))
    with tracer:
        for name in ("top", "middle", "leaf"):
            tracer.wrap(mod, name, name)
        tracer.phase = "run"
        mod.top()
        mod.leaf()
    names = [s.name for s in tracer.spans]
    assert names == ["top", "middle", "leaf", "leaf", "leaf"]
    assert self_times(tracer.spans) == [6, 7, 3, 4, 1]
    assert sum(self_times(tracer.spans)) == covered_time(tracer.spans, "run")
    assert covered_time(tracer.spans, "setup") == 0


def test_wrappers_are_restored_even_after_an_error():
    sites = [(owner, attr) for owner, attr, _ in layers.TARGETS.values()]
    sites += [(m, a) for m in layers.MODULES
              for owner, a, _ in layers.TARGETS.values()
              if not isinstance(owner, type) and a in vars(m)]
    before = {(id(o), a): vars(o)[a] for o, a in sites}
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            layers.install(tracer)
            assert inference.log_likelihood is not before[
                (id(inference), "log_likelihood")]
            raise RuntimeError("boom")
    assert {(id(o), a): vars(o)[a] for o, a in sites} == before


def test_perturbed_fingerprint_is_a_failure():
    ref = workloads.DETECTOR_FIXED
    out = dict(ref, clipped_mass=0.0)
    assert workloads._detector_check(out, 1) == []
    drift = dict(out, density_sum=ref["density_sum"] * (1.0 + 1e-6))
    assert workloads._detector_check(drift, 1)
    moved = dict(out, peak_T=ref["peak_T"] + 2.6e-4)
    assert workloads._detector_check(moved, 1)

    desk = dict(workloads.DESK_SEEDED[20260822],
                sigma_cr=workloads.DESK_FIXED["sigma_cr"], edge_hits=0.0)
    assert workloads._desk_check(desk, 20260822) == []
    assert workloads._desk_check(dict(desk, sigma_mc=7.8e-4), 20260822)
    assert workloads._desk_check(dict(desk, edge_hits=1.0), 20260822)


def test_a_drifting_repetition_fails_all_its_operations():
    fake = workloads.Workload(
        name="fake", n_max=1, setup_seconds=0.0, nominal_ops=3,
        setup=lambda n_max: n_max,
        body=lambda state, seed: workloads.Outcome({"x": 1.0}, 3, 0),
        check=lambda out, seed: ["x drifted"])
    rec = run.measure(fake, 7, seconds=0.0, trace=False)
    assert rec["attempted"] == 3 and rec["failed"] == 3
    assert rec["problems"] == ["x drifted"]
    assert len(rec["setup_s"]) == 1 and len(rec["run_s"]) == 1


def test_kernel_counts_are_exact():
    K, N, J = 3, 2, 5
    counts = layers.kernel_counts(
        None, np.zeros((N, J)), np.zeros(J), np.array([4, 5]),
        *(np.zeros(K) for _ in range(4)))
    assert counts == {"terms": 30, "useful_terms": 27,
                      "flop": 8 * 30 + K * J,
                      "bytes": 8 * (N * J + J + N + 4 * K) + 2 * K * N * 16}


def _traced_build():
    trap, pd = workloads._components()
    with Tracer() as tracer:
        layers.install(tracer)
        tracer.phase = "setup"
        family = inference.GridDensityFamily(12, trap, pd, workloads.GEO)
        tracer.phase = "run"
        family.map_at(family.g0)
        family.map_at(family.g0)
    return family, layers.layer_metrics(tracer.spans, 1.0, 1.0)


def test_traced_counts_repeat_and_match_the_shapes():
    family, first = _traced_build()
    _, second = _traced_build()
    counts = [k for k, unit in layers.UNITS.items() if unit == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    grid = family.maker.mode_grid
    K, (N, J) = family.maker.axes.n_tau, grid.chi.shape
    assert first["kernels.mode_chirp_sums.terms"] == K * N * J
    assert first["kernels.mode_chirp_sums.useful_ratio"] == pytest.approx(
        grid.idx_cut.sum() / (N * J), rel=1e-15)
    assert first["inference.map_at.calls"] == 2
    assert first["inference.map_at.builds"] == 1
    assert first["freefall.MapMaker.build.calls"] == 1
    # self times and the untraced remainder add up to set-up + run
    spans_s = sum(first[m] for m in layers.SELF_TIME.values())
    assert spans_s + first["trace.untraced_s"] == pytest.approx(2.0,
                                                                rel=1e-12)
    assert vars(MapMaker)["build"].__name__ == "build"


def test_benchmark_json_matches_the_code():
    bench = json.loads(BENCHMARK_JSON.read_text())
    assert set(layers.SELF_TIME.values()) <= set(layers.UNITS)
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.UNITS


def test_short_set_up_is_repeated_for_its_time():
    fake = workloads.Workload(
        name="fake", n_max=1, setup_seconds=0.02, nominal_ops=1,
        setup=lambda n_max: time.sleep(0.001),
        body=lambda state, seed: workloads.Outcome({}, 1, 0),
        check=lambda out, seed: [])
    setup_times, _, _ = run.repetition(fake, 7, fake.setup_seconds)
    assert len(setup_times) >= 2
    assert sum(setup_times[:-1]) < 0.02 <= sum(setup_times)
