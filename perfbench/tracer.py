"""Outside-in span tracer for the infbsde layers.

Nothing in ``src/infbsde`` knows about tracing.  ``install`` replaces the
public entry points of each module, as the callers import them, by thin
wrappers that record a span (name, start, end, parent, thread id) and a
work count per call.  Spans stay in memory until the run ends; the
derived per-layer metrics come from ``layer_metrics``.

A span opened on a worker thread whose own stack is empty takes as parent
the innermost open span of the main thread: that is the ``picard_step``
that handed the node to the pool.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int


class Tracer:
    """Collects spans and per-name work counters in memory.

    While ``enabled`` is false the wrappers call straight through, so one
    process can alternate traced and untraced calls.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._stacks: Dict[int, List[int]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()
        self.enabled = True

    def _parent(self, thread: int) -> Optional[int]:
        stack = self._stacks.get(thread)
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def call(self, name: str, fn: Callable, args, kwargs,
             count: Optional[Callable] = None):
        thread = threading.get_ident()
        span_id = next(self._ids)
        parent = self._parent(thread)
        stack = self._stacks.setdefault(thread, [])
        stack.append(span_id)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, thread))
        if count is not None:
            for key, amount in count(args, kwargs, result).items():
                self.add(key, amount)
        return result

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self.call(name, fn, args, kwargs, count)
        return wrapper


# --------------------------------------------------------------------------
# derived metrics

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: Dict[int, list] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end))
                   for c in children.get(s.id, ())]
        clipped = [iv for iv in clipped if iv[1] > iv[0]]
        out[s.id] = (s.end - s.start) - _covered(clipped)
    return out


def by_name(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, busy (summed duration) and self time."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for s in spans:
        entry = out[s.name]
        entry["calls"] += 1
        entry["busy_s"] += s.end - s.start
        entry["self_s"] += selfs[s.id]
    return out


def parallel_efficiency(spans: List[Span], step_name: str,
                        workers: int) -> float:
    """Sum of worker busy time over ``workers * wall`` of each step span.

    Worker busy time is the summed duration of the direct children of the
    step span, whichever thread ran them.
    """
    steps = {s.id: s for s in spans if s.name == step_name}
    if not steps:
        return 0.0
    busy = sum(s.end - s.start for s in spans if s.parent in steps)
    wall = sum(s.end - s.start for s in steps.values())
    return busy / (workers * wall) if wall > 0 else 0.0


# Layer of each span name; a layer's share is its self time over the self
# time of every span, the root ``cli.run`` included.
LAYER_OF = {
    "cli.run": "cli",
    "cli.write": "cli",
    "simulate.sample_fk_batch": "simulate",
    "fixedpoint.r_sample_batch": "fixedpoint",
    "model.f": "model",
    "model.f_y": "model",
    "model.f_z": "model",
    "grid.interpolate": "grid",
    "picard_grid.picard_step": "picard_grid",
    "neural.forward": "neural",
    "neural.backprop": "neural",
    "neural.adam": "neural",
    "nn_schemes.solve": "nn_schemes",
}
LAYERS = ("simulate", "model", "fixedpoint", "grid", "picard_grid", "neural",
          "nn_schemes", "cli")


def _per(numer: float, denom: float, scale: float = 1.0) -> float:
    return numer * scale / denom if denom else 0.0


def layer_metrics(spans: List[Span], counts: Dict[str, float],
                  workers: int) -> Dict[str, float]:
    """Per-layer metrics of one traced run (see perfbench/README.md)."""
    names = by_name(spans)
    counts = defaultdict(float, counts)

    def get(name, key):
        return names[name][key] if name in names else 0.0

    total_self = sum(v["self_s"] for v in names.values())
    layer_self = defaultdict(float)
    for name, v in names.items():
        layer_self[LAYER_OF.get(name, "cli")] += v["self_s"]

    sim_busy = get("simulate.sample_fk_batch", "busy_s")
    f_busy = get("model.f", "busy_s")
    interp_busy = get("grid.interpolate", "busy_s")
    fwd_busy = get("neural.forward", "busy_s")
    bwd_busy = get("neural.backprop", "busy_s")
    adam_busy = get("neural.adam", "busy_s")
    out = {
        "simulate.draws": counts["simulate.draws"],
        "simulate.busy_s": sim_busy,
        "simulate.ns_per_draw": _per(sim_busy, counts["simulate.draws"], 1e9),
        "simulate.sample_steps": counts["simulate.sample_steps"],
        "simulate.ns_per_sample_step":
            _per(sim_busy, counts["simulate.sample_steps"], 1e9),
        "simulate.rows_per_loop_step":
            _per(counts["simulate.sample_steps"], counts["simulate.loop_steps"]),
        "model.f.rows": counts["model.f.rows"],
        "model.f.busy_s": f_busy,
        "model.f.ns_per_row": _per(f_busy, counts["model.f.rows"], 1e9),
        "model.f_jac.busy_s": get("model.f_y", "busy_s")
        + get("model.f_z", "busy_s"),
        "grid.interpolate.points": counts["grid.interpolate.points"],
        "grid.interpolate.busy_s": interp_busy,
        "grid.interpolate.ns_per_point":
            _per(interp_busy, counts["grid.interpolate.points"], 1e9),
        "fixedpoint.r_sample.rows": counts["fixedpoint.r_sample.rows"],
        "fixedpoint.r_sample.self_s":
            get("fixedpoint.r_sample_batch", "self_s"),
        "picard_grid.iters": get("picard_grid.picard_step", "calls"),
        "picard_grid.step.busy_s": get("picard_grid.picard_step", "busy_s"),
        "picard_grid.step.self_s": get("picard_grid.picard_step", "self_s"),
        "picard_grid.parallel_eff":
            parallel_efficiency(spans, "picard_grid.picard_step", workers),
        "neural.forward.rows": counts["neural.forward.rows"],
        "neural.forward.ns_per_row":
            _per(fwd_busy, counts["neural.forward.rows"], 1e9),
        "neural.backprop.rows": counts["neural.backprop.rows"],
        "neural.backprop.ns_per_row":
            _per(bwd_busy, counts["neural.backprop.rows"], 1e9),
        "neural.adam.steps": get("neural.adam", "calls"),
        "neural.adam.us_per_step":
            _per(adam_busy, get("neural.adam", "calls"), 1e6),
        "nn_schemes.steps": counts["nn_schemes.steps"],
        "nn_schemes.self_s": get("nn_schemes.solve", "self_s"),
        "cli.output_s": get("cli.write", "busy_s"),
        "cli.output_bytes": counts["cli.output_bytes"],
    }
    for layer in LAYERS:
        out[f"share.{layer}"] = _per(layer_self[layer], total_self)
    out["share.model.f"] = _per(get("model.f", "self_s"), total_self)
    out["share.grid.interpolate"] = _per(get("grid.interpolate", "self_s"),
                                         total_self)
    out["share.neural.fwd_bwd"] = _per(
        get("neural.forward", "self_s") + get("neural.backprop", "self_s"),
        total_self)
    out["share.neural.adam"] = _per(get("neural.adam", "self_s"), total_self)
    return out


# --------------------------------------------------------------------------
# installing the wrappers

def _sample_counts(args, kwargs, fk):
    """Draws, and for Euler dynamics the sample-steps and loop steps."""
    problem = args[0]
    dt = args[4] if len(args) > 4 else kwargs.get("dt")
    draws = len(fk)
    if problem.sde.is_brownian or not draws:
        return {"simulate.draws": draws}
    n_e = _steps(fk.e_time, dt)
    n_g = _steps(fk.g_time, dt)
    per_row = [max(a, b) for a, b in zip(n_e, n_g)]
    return {"simulate.draws": draws,
            "simulate.sample_steps": sum(per_row),
            "simulate.loop_steps": max(per_row)}


def _steps(times, dt) -> List[int]:
    # the Euler sampler returns horizons already rounded to n * dt
    return [int(round(t / dt)) for t in times.tolist()]


def _rows(index: int, key: str):
    def count(args, kwargs, result):
        return {key: len(args[index])}
    return count


def install(tracer: Tracer, modules) -> Callable[[], None]:
    """Wrap the public entry points of every layer, from the outside.

    ``modules`` maps names to the imported ``infbsde`` modules.  Returns a
    function that puts the original entry points back.
    """
    cli, picard_grid, nn_schemes = (modules["cli"], modules["picard_grid"],
                                    modules["nn_schemes"])
    grid, neural, svg = modules["grid"], modules["neural"], modules["_svg"]
    saved = []

    def patch(obj, attr, name, count=None):
        original = getattr(obj, attr)
        saved.append((obj, attr, original))
        setattr(obj, attr, tracer.wrap(name, original, count))

    for mod in (picard_grid, nn_schemes):
        patch(mod, "sample_fk_batch", "simulate.sample_fk_batch",
              _sample_counts)
        patch(mod, "r_sample_batch", "fixedpoint.r_sample_batch",
              lambda a, k, r: {"fixedpoint.r_sample.rows": len(a[3])})
    patch(grid, "interpolate", "grid.interpolate",
          lambda a, k, r: {"grid.interpolate.points": len(r[0])})
    patch(picard_grid, "picard_step", "picard_grid.picard_step")

    def traced_problem(build):
        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            problem = build(*args, **kwargs)
            gen = problem.gen
            swap = {"f": tracer.wrap("model.f", gen.f,
                                     _rows(0, "model.f.rows"))}
            for name in ("f_y", "f_z"):
                fn = getattr(gen, name)
                if fn is not None:
                    swap[name] = tracer.wrap(f"model.{name}", fn)
            return dataclasses.replace(
                problem, gen=dataclasses.replace(gen, **swap))
        return wrapper

    for mod in (cli, picard_grid, nn_schemes):
        saved.append((mod, "problem_by_name", mod.problem_by_name))
        mod.problem_by_name = traced_problem(mod.problem_by_name)

    patch(neural.Mlp, "_forward_cached", "neural.forward",
          lambda a, k, r: {"neural.forward.rows": len(r[0][0])})
    patch(neural.Mlp, "backprop", "neural.backprop",
          _rows(3, "neural.backprop.rows"))
    patch(nn_schemes, "adam_step", "neural.adam",
          lambda a, k, r: {"nn_schemes.steps": 1})
    for attr in ("contraction_nn_solve", "direct_nn_solve"):
        patch(cli, attr, "nn_schemes.solve")
    for attr in ("_write_csv", "_echo_config", "write_grid_csv",
                 "save_checkpoint"):
        patch(cli, attr, "cli.write")
    patch(svg, "line_plot", "cli.write")

    def uninstall() -> None:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)
    return uninstall
