"""Self-tests of the benchmark itself (not of infbsde).

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's own test collection.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, _workload, passes, read_errors  # noqa: E402

from infbsde import (_svg, cli, grid, model, neural, nn_schemes,  # noqa: E402
                     picard_grid, simulate)


def _span(i, name, start, end, parent=None, thread=1):
    return tracing.Span(i, name, start, end, parent, thread)


def test_self_times_on_a_nested_trace():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 3.0, 6.0, parent=0, thread=2),  # overlaps a
        _span(3, "leaf", 2.0, 3.0, parent=1),
        _span(4, "leaf", 8.0, 11.0, parent=0),        # runs past root's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    names = tracing.by_name(spans)
    assert names["leaf"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0}
    assert tracing.parallel_efficiency(spans, "root", 2) == pytest.approx(
        (3 + 3 + 3) / 20)


def test_tracer_links_parents_and_counts():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda n: n * 2,
                        lambda a, k, r: {"rows": a[0]})
    outer = tracer.wrap("outer", lambda n: inner(n) + inner(n))
    assert outer(3) == 12
    spans = {s.name: s for s in tracer.spans}
    assert spans["inner"].parent == spans["outer"].id
    assert spans["outer"].parent is None
    assert tracer.counts["rows"] == 6
    # outer spans ticks 0..5, its two children cover 1..2 and 3..4
    assert tracing.by_name(tracer.spans)["outer"]["self_s"] == 3.0
    tracer.enabled = False
    assert outer(1) == 4 and len(tracer.spans) == 3


def _install(tracer):
    return tracing.install(tracer, {
        "cli": cli, "picard_grid": picard_grid, "nn_schemes": nn_schemes,
        "grid": grid, "neural": neural, "_svg": _svg})


@pytest.fixture
def traced():
    tracer = tracing.Tracer()
    uninstall = _install(tracer)
    try:
        yield tracer
    finally:
        uninstall()


TINY = {
    "grid": _workload("tiny-grid", "", "grid-solve", "arctan-const-sigma", 1,
                      1, (9, 9), d=2, ntilde=1, M=40, iters=2),
    "euler": _workload("tiny-euler", "", "grid-solve", "arctan-tanh-sigma", 1,
                       1, (9, 9), d=1, dt=0.05, ntilde=2, M=30, iters=2),
    "direct": _workload("tiny-direct", "", "nn-direct", "arctan-const-sigma",
                        1, 1, (9, 9), epochs=2, steps=3, **{"M-x": 8, "M": 6}),
    "picard": _workload("tiny-picard", "", "nn-picard", "arctan-const-sigma",
                        1, 1, (9, 9), M=16, iters=2, steps=5),
}


def _run(workload, outdir, seed=3):
    argv = [*workload.argv, "--seed", str(seed), "--out", str(outdir)]
    assert cli.run(argv) == 0
    return read_errors(str(outdir), workload)


def test_work_counts_match_the_config(traced, tmp_path):
    _run(TINY["grid"], tmp_path / "grid")
    assert traced.counts["simulate.draws"] == TINY["grid"].work() == 9 * 40 * 2
    assert traced.counts["fixedpoint.r_sample.rows"] == 9 * 40 * 2
    traced.counts.clear()

    direct = TINY["direct"]
    _run(direct, tmp_path / "direct")
    steps = 2 * 3
    assert traced.counts["nn_schemes.steps"] == steps
    assert direct.work() == steps * 8 * 6
    # per step: both inner branches (x at E and at G) plus the start points
    assert traced.counts["neural.backprop.rows"] == 2 * direct.work() + steps * 8
    traced.counts.clear()

    picard = TINY["picard"]
    _run(picard, tmp_path / "picard")
    assert traced.counts["neural.backprop.rows"] == picard.work() == 16 * 2 * 5


def test_euler_sample_steps_match_the_horizons(traced):
    problem = model.problem_by_name("arctan-tanh-sigma", 1)
    params = model.SchemeParams()
    dt, m = 0.05, 200
    stream = simulate.RngStream(11)
    picard_grid.sample_fk_batch(problem, params, np.zeros(1), m, dt,
                                stream.generator())
    # the sampler's first draws are the raw horizons, rounded up to dt
    gen = stream.generator()
    n_e = np.maximum(np.ceil(gen.exponential(1 / params.exp_rate, m) / dt), 1)
    z = gen.standard_normal(m)
    n_g = np.maximum(np.ceil(z * z / (2 * params.gamma_rate) / dt), 1)
    steps = np.maximum(n_e, n_g)
    assert traced.counts["simulate.draws"] == m
    assert traced.counts["simulate.sample_steps"] == steps.sum()
    assert traced.counts["simulate.loop_steps"] == steps.max()


def _untimed_files(outdir: Path) -> dict:
    """Every output file but the two tables that carry a seconds column."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir())
            if p.name not in ("iterations.csv", "nn_trace.csv")}


@pytest.mark.parametrize("kind", sorted(TINY))
def test_tracing_does_not_perturb_outputs(kind, tmp_path):
    workload = TINY[kind]
    plain = _run(workload, tmp_path / "plain")
    tracer = tracing.Tracer()
    uninstall = _install(tracer)
    try:
        traced = _run(workload, tmp_path / "traced")
    finally:
        uninstall()
    assert tracer.spans, "the wrappers recorded nothing"
    assert passes(plain[0], workload)
    assert plain == traced
    assert _untimed_files(tmp_path / "plain") == _untimed_files(
        tmp_path / "traced")


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])
    layers = tracing.layer_metrics([], {}, 1)
    assert [m["name"] for m in spec["per_layer"]] == [
        *layers, "trace.overhead_frac"]
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert os.path.isdir(HERE.parent / spec["paths"][0])


def test_reference_kernel_covers_every_thread_count():
    for workload in WORKLOADS.values():
        threads = workload.bsde_threads
        assert reference.measure(threads) > 0
        # a host twice as slow as the recorded one halves the time
        assert reference.reference_seconds(
            2.0, 2 * reference.REFERENCE_S[threads], threads) == 1.0
