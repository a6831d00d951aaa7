"""Grid-based Picard iteration and the mesh-refinement rate study.

Each iteration draws fresh samples at every extended-grid node (several
iterations drawn ahead in one sampler call while they fit ``DRAW_ROWS``),
averages the single-draw estimator applied to the interpolated previous
iterate, and (optionally) applies growth truncation.  Errors are reported
on the inner nodes only, unweighted, against the analytic solution, else
nan.
"""
from __future__ import annotations

import contextvars
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fixedpoint import point_means, r_sample_batch, truncate_growth
from .grid import Grid, GridFunction, node_errors, truncated_nodes
from .model import RunConfig, problem_by_name
from .simulate import FkBatch, RngStream, sample_fk_batch


class FitUnderdetermined(ValueError):
    """Too few mesh sizes to fit a convergence slope."""


def _worker_count() -> int:
    """Threads of the node loop: ``BSDE_THREADS``, or 1 when it is unset.

    Raises ValueError unless the variable is a positive integer.
    """
    raw = os.environ.get("BSDE_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"BSDE_THREADS must be a positive integer, not {raw!r}")
    return count


@dataclass(frozen=True)
class GridSolveConfig(RunConfig):
    """Configuration of one grid Picard run.

    ``half_width`` is the half side of the inner reporting box; the mesh is
    ``half_width / n_half`` and the grid extends ``pad`` extra layers.
    ``truncation`` is an optional (bound, growth degree) pair, a finite
    positive bound and a finite non-negative degree; it is off by default.
    Construction also builds ``grid``, so a box or padding that makes no
    grid raises ValueError.
    """

    n_half: int = 10
    pad: int = 0
    half_width: float = 3.0
    m_samples: int = 40000
    n_iters: int = 10
    truncation: Optional[Tuple[float, float]] = None
    grid: Grid = field(init=False, repr=False, compare=False)

    @staticmethod
    def _problem_by_name(name: str, d: int, overrides: Optional[dict]):
        # this module's name, for the tracer (see RunConfig)
        return problem_by_name(name, d, overrides)

    def __post_init__(self):
        super().__post_init__()
        if self.n_half < 1:
            raise ValueError("n_half must be at least 1")
        if self.m_samples < 2:
            raise ValueError("m_samples must be at least 2")
        if self.n_iters < 1:
            raise ValueError("n_iters must be at least 1")
        if self.truncation is not None:
            bound, degree = self.truncation
            if not (0 < bound < np.inf and 0 <= degree < np.inf):
                raise ValueError("truncation needs 0 < bound < inf and "
                                 "0 <= degree < inf")
        object.__setattr__(self, "grid", Grid(self.dim, self.n_half,
                                              self.mesh, self.pad))

    @property
    def mesh(self) -> float:
        return self.half_width / self.n_half


@dataclass(frozen=True)
class IterationReport:
    n: int
    sup_err_u: float
    sup_err_ubar: float
    seconds: float


# Draws per sample_fk_batch and r_sample_batch call.  Nodes are grouped until
# a chunk holds about this many rows, so each numpy call in the estimator is
# long enough to release the GIL for the other worker; see CHANGES.md for how
# it was chosen.
CHUNK_ROWS = 12000
# Rows a solve draws ahead: consecutive iterations are grouped while their
# rows, nodes x m_samples each, fit in this budget, and each chunk draws all
# of a group's iterations in one sampler call (one Euler loop).  A solve
# whose iteration alone exceeds it draws one iteration at a time.
DRAW_ROWS = 1 << 15


class FreshDraws:
    """The fresh per-node draws of consecutive Picard iterations.

    Iteration ``k`` of the group draws node ``i`` from
    ``streams[k].substream(i)``.  The first time a chunk of nodes is taken,
    one sampler call draws it for every iteration of the group; the chunk
    keeps the later iterations' rows until they are taken, one iteration per
    :func:`picard_step`.  Point ``i`` of a sampler call equals a call on that
    point alone, so grouping changes no value.  Threads may take different
    chunks at once; each chunk is taken by one thread at a time, so each
    touches only its own entry.
    """

    def __init__(self, streams: Sequence[RngStream]):
        self.streams = list(streams)
        self._ahead: Dict[range, List[FkBatch]] = {}

    def take(self, cfg: GridSolveConfig, chunk: range,
             nodes: np.ndarray) -> FkBatch:
        """The next iteration's ``m_samples`` draws at each of ``nodes``,
        the grid nodes whose indices are ``chunk``."""
        ahead = self._ahead.get(chunk)
        if ahead is None:
            fk = sample_fk_batch(
                cfg.built_problem, cfg.params,
                np.tile(nodes, (len(self.streams), 1)), cfg.m_samples, cfg.dt,
                [stream.substream(node) for stream in self.streams
                 for node in chunk])
            ahead = self._ahead[chunk] = fk.split(len(self.streams))
        if not ahead:
            raise ValueError(f"all {len(self.streams)} iterations of nodes "
                             f"{chunk.start}-{chunk.stop - 1} were taken")
        return ahead.pop(0)


def picard_step(v: GridFunction, cfg: GridSolveConfig,
                draws: FreshDraws) -> GridFunction:
    """One Picard update: the next iteration of ``draws`` against the
    interpolant of ``v``.

    Nodes are evaluated in chunks of consecutive indices, one
    :meth:`FreshDraws.take` per chunk, which changes no value.
    """
    grid, problem = v.grid, cfg.built_problem
    m, dim_y = cfg.m_samples, problem.gen.dim_y
    u_new = np.empty((grid.n_nodes, dim_y))
    ubar_new = np.empty((grid.n_nodes, dim_y, grid.dim))
    nodes = grid.nodes

    def update(chunk: range) -> None:
        rows = slice(chunk.start, chunk.stop)
        fk = draws.take(cfg, chunk, nodes[rows])
        u_new[rows], ubar_new[rows] = point_means(
            r_sample_batch(problem, cfg.params, v, fk), chunk, "node")

    per_chunk = max(1, CHUNK_ROWS // m)
    chunks = [range(start, min(start + per_chunk, grid.n_nodes))
              for start in range(0, grid.n_nodes, per_chunk)]
    workers = min(_worker_count(), len(chunks))
    if workers < 2:
        for chunk in chunks:
            update(chunk)
    else:
        # each chunk runs in a copy of the caller's context, as in
        # asyncio.to_thread, so the caller's np.errstate holds on the workers
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda ctx, chunk: ctx.run(update, chunk),
                          [contextvars.copy_context() for _ in chunks], chunks))

    if cfg.truncation is not None:
        bound, degree = cfg.truncation
        u_new, ubar_new = truncate_growth((u_new, ubar_new), nodes, bound, degree)
    return GridFunction(grid, u_new, ubar_new)


@dataclass
class GridSolveResult:
    final: GridFunction
    reports: list


def solve(cfg: GridSolveConfig,
          base_stream: Optional[RngStream] = None) -> GridSolveResult:
    """Run the Picard iteration from the zero grid function."""
    problem = cfg.built_problem
    v = GridFunction.zero(cfg.grid, problem.gen.dim_y)
    inner = truncated_nodes(cfg.grid)
    if base_stream is None:
        base_stream = RngStream(cfg.seed)
    exact = None if problem.analytic is None else problem.analytic(cfg.grid.nodes)

    # iteration n draws from base_stream.substream(n), up to DRAW_ROWS rows
    # ahead; the first iteration of a group pays for drawing all of it
    ahead = max(1, DRAW_ROWS // (cfg.grid.n_nodes * cfg.m_samples))
    reports = []
    for n in range(1, cfg.n_iters + 1):
        start = time.perf_counter()
        if (n - 1) % ahead == 0:
            draws = FreshDraws([base_stream.substream(k) for k in
                                range(n, min(n + ahead, cfg.n_iters + 1))])
        v = picard_step(v, cfg, draws)
        elapsed = time.perf_counter() - start
        sup_u = sup_ubar = np.nan
        if exact is not None:
            err_u, err_ubar = node_errors(v, *exact)
            sup_u, sup_ubar = float(err_u[inner].max()), float(err_ubar[inner].max())
        reports.append(IterationReport(n, sup_u, sup_ubar, elapsed))
    return GridSolveResult(v, reports)


def _check_rate_study(n_half_values: Sequence[int], k: float = 1.0) -> None:
    """Raise unless there are 3 distinct mesh sizes and ``0 < k < inf``."""
    if len(np.unique(n_half_values)) < 3:
        raise FitUnderdetermined(
            "need at least 3 distinct mesh sizes to fit a slope")
    if not 0 < k < np.inf:
        raise ValueError("k must be finite and positive")


def _sample_counts(n_half_values: Sequence[int], k: float,
                   half_width: float) -> List[int]:
    """Per-node sample counts of a rate study, ``round(k * n_half^4 /
    half_width^4)`` but at least 2; :func:`_check_rate_study` must pass
    and every count fit in int64, or ValueError."""
    _check_rate_study(n_half_values, k)
    try:
        counts = [max(2, round(k * nh**4 / half_width**4))
                  for nh in n_half_values]
    except ArithmeticError:  # an infinite count, or half_width**4 out of range
        counts = [2**63]
    if max(counts) >= 2**63:
        raise ValueError(f"no int64 sample counts for k = {k} and "
                         f"half_width = {half_width}")
    return counts


def fit_rate_slope(n_half_values: Sequence[int],
                   errors: Sequence[float]) -> Tuple[float, float]:
    """Least-squares slope of log error against log(2 + n_half)."""
    _check_rate_study(n_half_values)
    if len(n_half_values) != len(errors):
        raise ValueError("mismatched inputs")
    x = np.log(2.0 + np.asarray(n_half_values, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


@dataclass
class RateStudyResult:
    n_half: np.ndarray
    m_samples: np.ndarray
    sup_err_u: np.ndarray
    sup_err_ubar: np.ndarray
    slope: float
    intercept: float


def rate_study(cfg_template: GridSolveConfig, n_half_values: Sequence[int],
               k: float) -> RateStudyResult:
    """Refinement study at fixed box size: mesh shrinks, samples grow.

    For each value the mesh is ``half_width / n_half`` and the per-node
    sample count is ``round(k * n_half^4 / half_width^4)``, then the sup
    error over the inner nodes at the final iterate is recorded.  The
    fitted slope uses the larger of the two component errors.
    """
    samples = _sample_counts(n_half_values, k, cfg_template.half_width)
    sup_u, sup_ubar = [], []
    for run, (nh, m) in enumerate(zip(n_half_values, samples)):
        cfg = replace(cfg_template, n_half=int(nh), m_samples=m)
        last = solve(cfg, RngStream(cfg.seed, stream_id=run + 1)).reports[-1]
        sup_u.append(last.sup_err_u)
        sup_ubar.append(last.sup_err_ubar)
    worst = np.maximum(sup_u, sup_ubar)
    slope, intercept = fit_rate_slope(list(n_half_values), worst)
    return RateStudyResult(
        np.asarray(list(n_half_values)), np.asarray(samples),
        np.asarray(sup_u), np.asarray(sup_ubar), slope, intercept,
    )
