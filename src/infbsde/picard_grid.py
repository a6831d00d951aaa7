"""Grid-based Picard iteration and the mesh-refinement rate study.

Each iteration takes samples at every extended-grid node from the solve's
one draws object, which owns the node chunks: :class:`FreshDraws` draws
every iteration anew, ahead in groups that fit ``DRAW_ROWS``, and
:class:`FrozenDraws` draws once and reuses the batch, so the iteration is a
fixed map.  It averages the single-draw estimator applied to the
interpolated previous iterate, and (optionally) applies growth truncation.
Errors are reported on the inner nodes only, unweighted, against the
analytic solution, else nan.
"""
from __future__ import annotations

import contextvars
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence, Tuple

import numpy as np

from .fixedpoint import point_means, r_sample_batch, truncate_growth
from .grid import (Grid, GridFunction, GridMismatch, check_grid,
                   node_errors, sup_diff, truncated_nodes)
# problem_by_name builds this module's configs (RunConfig); the tracer wraps it
from .model import RunConfig, at_least, problem_by_name
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
class GridRunConfig(RunConfig):
    """What every mesh of a grid Picard run shares.

    ``half_width`` is the half side of the inner reporting box, which the
    grid extends by ``pad`` extra layers.  ``trunc_bound`` and
    ``trunc_degree`` switch growth truncation on together: a finite
    positive bound and a finite non-negative degree; it is off by default.
    Construction also checks ``BSDE_THREADS`` (:func:`_worker_count`).
    """

    pad: int = 0
    half_width: float = 3.0
    n_iters: int = at_least(1, 10)
    trunc_bound: Optional[float] = None
    trunc_degree: Optional[float] = None

    def __post_init__(self):
        super().__post_init__()
        _worker_count()
        # the box and padding every mesh shares, checked as a grid would
        check_grid(self.dim, 0, self.half_width, self.pad)
        if (self.trunc_bound is None) != (self.trunc_degree is None):
            raise ValueError("trunc_bound and trunc_degree go together")
        if self.trunc_bound is not None and not (
                0 < self.trunc_bound < np.inf
                and 0 <= self.trunc_degree < np.inf):
            raise ValueError("truncation needs 0 < bound < inf and "
                             "0 <= degree < inf")


@dataclass(frozen=True)
class GridSolveConfig(GridRunConfig):
    """Configuration of one grid Picard run: ``m_samples`` draws per node
    on the mesh ``half_width / n_half``.  Construction builds ``grid``.

    ``draws`` is ``"fresh"`` (new draws every iteration, the scheme the
    error analysis covers) or ``"frozen"`` (one batch per node, reused:
    the empirical map; see :class:`FrozenDraws`), whose batches must fit
    ``FROZEN_BYTES``.  On frozen draws only, a finite positive ``tol``
    ends the solve at the first iteration whose
    :func:`~infbsde.grid.sup_diff` from the previous iterate is below it;
    fresh iterates never settle below the Monte Carlo noise.
    """

    n_half: int = at_least(1, 10)
    m_samples: int = at_least(2, 40000)
    draws: str = "fresh"
    tol: Optional[float] = None
    grid: Grid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        if self.draws not in ("fresh", "frozen"):
            raise ValueError(f"draws must be 'fresh' or 'frozen', "
                             f"not {self.draws!r}")
        if self.tol is not None and not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and positive, not {self.tol}")
        if self.tol is not None and self.draws != "frozen":
            raise ValueError("tol needs draws='frozen': fresh iterates "
                             "never settle below the Monte Carlo noise")
        object.__setattr__(self, "grid", Grid(self.dim, self.n_half,
                                              self.mesh, self.pad))
        held = self.grid.n_nodes * self.m_samples * (2 + 3 * self.dim) * 8
        if self.draws == "frozen" and held > FROZEN_BYTES:
            raise ValueError(
                f"frozen draws would hold {held / 2**20:.0f} MiB, above the "
                f"{FROZEN_BYTES // 2**20} MiB bound: lower n_half or "
                f"m_samples, or use fresh draws")

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
# long enough that its fixed cost per call stays small; see CHANGES.md for how
# it was chosen.  The interpolation's corner gathers do not overlap on two
# workers; drawing and the arithmetic do (README.md).
CHUNK_ROWS = 12000
# Rows a solve draws ahead: consecutive iterations are grouped while their
# rows, nodes x m_samples each, fit in this budget, and each chunk draws all
# of a group's iterations in one sampler call (one Euler loop).  A solve
# whose iteration alone exceeds it draws one iteration at a time.
DRAW_ROWS = 1 << 15
# Bytes a frozen solve may keep: every node's batch, m_samples rows of
# 2 + 3d floats.  Configs A and C of the README hold 34 and 43 MB; grid-solve
# at its default mesh and M holds 1.1 GB in d=2, above this bound.
FROZEN_BYTES = 1 << 30


class FreshDraws:
    """The fresh per-node draws of a solve's Picard iterations.

    Iteration ``k`` draws node ``i`` from ``streams[k].substream(i)``.
    Construction cuts the nodes into ``chunks`` of about ``CHUNK_ROWS`` rows
    and the iterations into groups of ``group``, which fit ``DRAW_ROWS``.
    A chunk's first take in a group draws it for the whole group in one
    sampler call; point ``i`` of a call equals a call on that point alone,
    so neither cut changes a value.  Threads may take different chunks at
    once, each chunk on one thread at a time.
    """

    def __init__(self, cfg: GridSolveConfig, streams: Sequence[RngStream]):
        self.cfg, self.streams = cfg, list(streams)
        n_nodes, m = cfg.grid.n_nodes, cfg.m_samples
        per_chunk = max(1, CHUNK_ROWS // m)
        self.chunks = [range(start, min(start + per_chunk, n_nodes))
                       for start in range(0, n_nodes, per_chunk)]
        self.group = max(1, DRAW_ROWS // (n_nodes * m))
        # per chunk, its untaken iterations: a stream until drawn, then rows
        self._ahead = [list(self.streams) for _ in self.chunks]

    def take(self, index: int) -> FkBatch:
        """Chunk ``index``'s draws for its next iteration."""
        cfg, chunk, ahead = self.cfg, self.chunks[index], self._ahead[index]
        if not ahead:
            raise ValueError(f"all {len(self.streams)} iterations of nodes "
                             f"{chunk.start}-{chunk.stop - 1} were taken")
        if isinstance(ahead[0], RngStream):
            group = ahead[:self.group]
            fk = sample_fk_batch(cfg.built_problem, cfg.params, np.tile(
                cfg.grid.nodes[chunk], (len(group), 1)), cfg.m_samples, cfg.dt,
                [stream.substream(node) for stream in group for node in chunk])
            ahead[:len(group)] = fk.split(len(group))
        return ahead.pop(0)


class FrozenDraws(FreshDraws):
    """One batch of draws per node, handed out on every iteration.

    With the same batch each time, the Picard iteration applies one
    deterministic map, the empirical (sample-average) map of the draws, and
    converges to its fixed point.  These are the fresh draws of
    ``streams[0]`` alone, so the first iteration equals the first fresh one;
    the other streams are not used.  A chunk is drawn at its first take and
    kept: the solve holds every batch, ``2 + 3d`` floats per row, which
    :class:`GridSolveConfig` bounds by ``FROZEN_BYTES``.
    """

    def __init__(self, cfg: GridSolveConfig, streams: Sequence[RngStream]):
        super().__init__(cfg, list(streams)[:1])
        self._batches = {}

    def take(self, index: int) -> FkBatch:
        """Chunk ``index``'s draws, the same batch on every take."""
        if index not in self._batches:
            self._batches[index] = super().take(index)
        return self._batches[index]


def picard_step(v: GridFunction, draws: FreshDraws) -> GridFunction:
    """One Picard update: the next iteration of ``draws`` against the
    interpolant of ``v``, which must live on ``draws.cfg.grid``.

    Nodes are evaluated in ``draws.chunks``, one :meth:`FreshDraws.take`
    per chunk, which changes no value.
    """
    cfg = draws.cfg
    grid, problem = cfg.grid, cfg.built_problem
    if v.grid != grid:
        raise GridMismatch("the iterate and the draws live on other lattices")
    u_new = np.empty((grid.n_nodes, problem.gen.dim_y))
    ubar_new = np.empty((grid.n_nodes, problem.gen.dim_y, grid.dim))

    def update(index: int) -> None:
        chunk = draws.chunks[index]
        u_new[chunk], ubar_new[chunk] = point_means(r_sample_batch(
            problem, cfg.params, v, draws.take(index)), chunk, "node")

    indices = range(len(draws.chunks))
    workers = min(_worker_count(), len(indices))
    if workers < 2:
        for index in indices:
            update(index)
    else:
        # each chunk runs in a copy of the caller's context, as in
        # asyncio.to_thread, so the caller's np.errstate holds on the workers
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda ctx, index: ctx.run(update, index),
                          [contextvars.copy_context() for _ in indices],
                          indices))

    if cfg.trunc_bound is not None:
        u_new, ubar_new = truncate_growth((u_new, ubar_new), grid.nodes,
                                          cfg.trunc_bound, cfg.trunc_degree)
    return GridFunction(grid, u_new, ubar_new)


@dataclass
class GridSolveResult:
    final: GridFunction
    reports: list


def solve(cfg: GridSolveConfig,
          base_stream: Optional[RngStream] = None) -> GridSolveResult:
    """Run the Picard iteration from the zero grid function, for
    ``cfg.n_iters`` iterations or until one moves the iterate by less than
    ``cfg.tol``.  Frozen draws derive iteration 1's stream alone."""
    problem = cfg.built_problem
    v = GridFunction.zero(cfg.grid, problem.gen.dim_y)
    inner = truncated_nodes(cfg.grid)
    if base_stream is None:
        base_stream = RngStream(cfg.seed)
    exact = None if problem.analytic is None else problem.analytic(cfg.grid.nodes)

    count = 1 if cfg.draws == "frozen" else cfg.n_iters
    draws = (FrozenDraws if cfg.draws == "frozen" else FreshDraws)(
        cfg, [base_stream.substream(n) for n in range(1, count + 1)])
    reports = []
    for n in range(1, cfg.n_iters + 1):
        start = time.perf_counter()
        v, v_old = picard_step(v, draws), v
        elapsed = time.perf_counter() - start
        sup_u = sup_ubar = np.nan
        if exact is not None:
            err_u, err_ubar = node_errors(v, *exact)
            sup_u, sup_ubar = float(err_u[inner].max()), float(err_ubar[inner].max())
        reports.append(IterationReport(n, sup_u, sup_ubar, elapsed))
        if cfg.tol is not None and sup_diff(v, v_old) < cfg.tol:
            break
    return GridSolveResult(v, reports)


def _check_rate_study(n_half_values: Sequence[int], k: float = 1.0) -> None:
    """Raise unless there are 3 distinct mesh sizes and ``0 < k < inf``."""
    if len(np.unique(n_half_values)) < 3:
        raise FitUnderdetermined(
            "need at least 3 distinct mesh sizes to fit a slope")
    if not 0 < k < np.inf:
        raise ValueError("k must be finite and positive")


def fit_rate_slope(n_half_values: Sequence[int],
                   errors: Sequence[float]) -> Tuple[float, float]:
    """Least-squares slope of log error against log(2 + n_half)."""
    _check_rate_study(n_half_values)
    if len(n_half_values) != len(errors):
        raise ValueError("mismatched inputs")
    errors = np.asarray(errors, dtype=float)
    if not np.all((0.0 < errors) & (errors < np.inf)):
        raise ArithmeticError("no log slope: the errors must be finite and "
                              f"positive, got {errors.tolist()}")
    x = np.log(2.0 + np.asarray(n_half_values, dtype=float))
    slope, intercept = np.polyfit(x, np.log(errors), 1)
    return float(slope), float(intercept)


@dataclass
class RateStudyResult:
    sup_err_u: np.ndarray
    sup_err_ubar: np.ndarray
    slope: float
    intercept: float


@dataclass(frozen=True)
class RateStudyConfig(GridRunConfig):
    """Configuration of a refinement study at fixed box size.

    Mesh ``i`` is ``half_width / n`` with ``m_samples[i] = round(k * n^4
    / half_width^4)`` draws per node, at least 2, for ``n = ntilde_list[i]``.
    Construction raises ValueError unless every entry is at least 1, three
    are distinct, ``0 < k < inf`` and every count fits in int64.  It then
    builds ``meshes``, one :class:`GridSolveConfig` per mesh with the
    study's shared settings, and so every grid the study runs on.
    """

    ntilde_list: Tuple[int, ...] = at_least(1, (5, 8, 12, 16, 20))
    k: float = 200.0
    m_samples: Tuple[int, ...] = field(init=False)
    meshes: Tuple[GridSolveConfig, ...] = field(init=False, repr=False,
                                                compare=False)

    def __post_init__(self):
        super().__post_init__()
        _check_rate_study(self.ntilde_list, self.k)
        try:
            counts = tuple(max(2, round(self.k * n**4 / self.half_width**4))
                           for n in self.ntilde_list)
        except ArithmeticError:  # k * n^4 or half_width**4 out of range
            counts = (2**63,)
        if max(counts) >= 2**63:
            raise ValueError(f"no int64 sample counts for k = {self.k} and "
                             f"half_width = {self.half_width}")
        object.__setattr__(self, "m_samples", counts)
        shared = {f.name: getattr(self, f.name) for f in fields(GridRunConfig)}
        object.__setattr__(self, "meshes", tuple(
            GridSolveConfig(**shared, n_half=int(n), m_samples=m)
            for n, m in zip(self.ntilde_list, counts)))


def rate_study(cfg: RateStudyConfig) -> RateStudyResult:
    """Refinement study at fixed box size: mesh shrinks, samples grow.

    Each of ``cfg.meshes`` is solved, and the sup error over the inner
    nodes at the final iterate is recorded.  The fitted slope uses the
    larger of the two component errors.
    """
    last = [solve(mesh, RngStream(cfg.seed, stream_id=run + 1)).reports[-1]
            for run, mesh in enumerate(cfg.meshes)]
    sup_u = np.array([report.sup_err_u for report in last])
    sup_ubar = np.array([report.sup_err_ubar for report in last])
    return RateStudyResult(sup_u, sup_ubar, *fit_rate_slope(
        cfg.ntilde_list, np.maximum(sup_u, sup_ubar)))
