"""Regular lattice, multilinear hat-basis interpolation, and boundary trim.

Nodes live on a centered box of a scaled integer lattice.  Interpolation is
cell-local (at most 2^d basis functions are nonzero at any point) and
extends beyond the box by clamping the query to the box boundary.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .fixedpoint import CandidatePair, poly_weight
from .model import as_points


class GridMismatch(ValueError):
    """Two grid functions do not share the same lattice."""


def clamp_to_box(x: np.ndarray, half_extent: float) -> np.ndarray:
    """Componentwise clamp onto the box; the Euclidean box projection."""
    return np.clip(x, -half_extent, half_extent)


@dataclass(frozen=True)
class Grid:
    """Centered lattice with ``n_half`` reporting layers plus ``pad`` extras.

    The extended box has ``2*(n_half+pad)+1`` nodes per axis at spacing
    ``mesh``; errors are reported on the inner ``2*n_half+1`` layers only.
    """

    dim: int
    n_half: int
    mesh: float
    pad: int = 0
    node_indices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1 or self.n_half < 0 or self.pad < 0 or self.mesh <= 0:
            raise ValueError("grid requires dim >= 1, n_half, pad >= 0, mesh > 0")
        half = self.n_half + self.pad
        axis = np.arange(-half, half + 1)
        idx = np.stack(
            np.meshgrid(*([axis] * self.dim), indexing="ij"), axis=-1
        ).reshape(-1, self.dim)
        object.__setattr__(self, "node_indices", idx)

    @property
    def n_side(self) -> int:
        return 2 * (self.n_half + self.pad) + 1

    @property
    def n_nodes(self) -> int:
        return self.n_side**self.dim

    @property
    def half_extent(self) -> float:
        return (self.n_half + self.pad) * self.mesh

    @property
    def half_width(self) -> float:
        """Half side of the inner reporting box."""
        return self.n_half * self.mesh

    @property
    def nodes(self) -> np.ndarray:
        return self.node_indices * self.mesh

    def same_lattice(self, other: "Grid") -> bool:
        return (
            self.dim == other.dim
            and self.n_half == other.n_half
            and self.pad == other.pad
            and self.mesh == other.mesh
        )


def basis_weight(z, x, mesh: float) -> np.ndarray:
    """Tensor hat function centered at node ``z``, evaluated at ``x``."""
    znode = np.atleast_1d(np.asarray(z, dtype=float))
    pts = np.asarray(x, dtype=float)
    t = 1.0 - np.abs((pts - znode) / mesh)
    return np.prod(np.maximum(t, 0.0), axis=-1)


@dataclass
class GridFunction:
    """Values of a candidate pair on the extended lattice."""

    grid: Grid
    u: np.ndarray
    ubar: np.ndarray
    # (nodes, d' + d'*d): u and the flattened ubar side by side, so that
    # interpolation gathers each corner once.  Built at construction, so u
    # and ubar must not be modified in place afterwards.
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.grid.n_nodes
        if self.u.shape[0] != n or self.ubar.shape[0] != n:
            raise ValueError("value arrays must have one row per node")
        if self.ubar.shape != (n, self.u.shape[1], self.grid.dim):
            raise ValueError("ubar must be shaped (nodes, d', d)")
        self.table = np.concatenate([self.u, self.ubar.reshape(n, -1)], axis=1)

    @property
    def dim_y(self) -> int:
        return self.u.shape[1]

    @classmethod
    def zero(cls, grid: Grid, dim_y: int) -> "GridFunction":
        return cls(
            grid,
            np.zeros((grid.n_nodes, dim_y)),
            np.zeros((grid.n_nodes, dim_y, grid.dim)),
        )

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.u.copy(), self.ubar.copy())

    def as_candidate(self) -> CandidatePair:
        return CandidatePair(
            lambda x: interpolate(self, x), self.grid.dim, self.dim_y, "grid"
        )


def interpolate(phi: GridFunction, x) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate the multilinear extension of ``phi`` at points ``x``.

    Inside the box this combines the 2^d nodes of the containing cell;
    outside, the query is clamped to the box boundary first.
    """
    g = phi.grid
    pts = as_points(x, g.dim)
    m = pts.shape[0]
    table = phi.table
    if g.n_side == 1:
        out = np.broadcast_to(table[0], (m, table.shape[1])).copy()
    else:
        clamped = clamp_to_box(pts, g.half_extent)
        rel = (clamped + g.half_extent) / g.mesh
        base = np.floor(rel).astype(np.int64)
        np.clip(base, 0, g.n_side - 2, out=base)
        frac = rel - base
        lower = 1.0 - frac
        # (flat node offset, weight) per corner, in itertools.product order;
        # each weight is the left-to-right product of its axis factors
        corners = [(base @ (g.n_side ** np.arange(g.dim - 1, -1, -1)), None)]
        for k in range(g.dim):
            stride = g.n_side ** (g.dim - 1 - k)
            corners = [
                (flat + bit * stride, col if wgt is None else wgt * col)
                for flat, wgt in corners
                for bit, col in ((0, lower[:, k]), (1, frac[:, k]))
            ]
        out = np.zeros((m, table.shape[1]))
        for flat, wgt in corners:
            out += wgt[:, None] * np.take(table, flat, axis=0)
    return out[:, :phi.dim_y], out[:, phi.dim_y:].reshape(m, phi.dim_y, g.dim)


def _joint_node_norms(phi: GridFunction, psi: GridFunction) -> np.ndarray:
    if not phi.grid.same_lattice(psi.grid):
        raise GridMismatch("grid functions live on different lattices")
    du = phi.u - psi.u
    dubar = phi.ubar - psi.ubar
    return np.sqrt(np.sum(du**2, axis=1) + np.sum(dubar**2, axis=(1, 2)))


def sup_weighted_diff(phi: GridFunction, psi: GridFunction,
                      weight_degree: float) -> float:
    """Max over nodes of the joint value gap divided by the growth weight."""
    norms = _joint_node_norms(phi, psi)
    return float(np.max(norms / poly_weight(phi.grid.nodes, weight_degree)))


def sup_diff(phi: GridFunction, psi: GridFunction) -> float:
    """Unweighted variant of :func:`sup_weighted_diff` (plain node sup)."""
    return float(np.max(_joint_node_norms(phi, psi)))


def truncated_nodes(grid: Grid) -> np.ndarray:
    """Indices of the inner reporting nodes (pad layers removed)."""
    keep = np.all(np.abs(grid.node_indices) <= grid.n_half, axis=1)
    return np.flatnonzero(keep)


def _format(v: float) -> str:
    return f"{float(v):.17g}"


def grid_csv_header(dim: int, dim_y: int, analytic: bool) -> list:
    cols = [f"i{k + 1}" for k in range(dim)]
    cols += [f"x{k + 1}" for k in range(dim)]
    cols += [f"u_{i + 1}" for i in range(dim_y)]
    cols += [f"ubar_{i + 1}{j + 1}" for i in range(dim_y) for j in range(dim)]
    if analytic:
        cols += [f"u_exact_{i + 1}" for i in range(dim_y)]
        cols += [f"ubar_exact_{i + 1}{j + 1}" for i in range(dim_y) for j in range(dim)]
        cols += ["err_u", "err_ubar"]
    return cols


def write_grid_csv(phi: GridFunction, path, analytic=None) -> None:
    """Serialize node values (plus exact values and errors when known)."""
    g = phi.grid
    nodes = g.nodes
    if analytic is not None:
        u_ex = analytic.u(nodes)
        ubar_ex = analytic.ubar(nodes)
        err_u = np.linalg.norm(phi.u - u_ex, axis=1)
        err_ubar = np.sqrt(np.sum((phi.ubar - ubar_ex) ** 2, axis=(1, 2)))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(grid_csv_header(g.dim, phi.dim_y, analytic is not None))
        for n in range(g.n_nodes):
            row = [str(int(i)) for i in g.node_indices[n]]
            row += [_format(v) for v in nodes[n]]
            row += [_format(v) for v in phi.u[n]]
            row += [_format(v) for v in phi.ubar[n].ravel()]
            if analytic is not None:
                row += [_format(v) for v in u_ex[n]]
                row += [_format(v) for v in ubar_ex[n].ravel()]
                row += [_format(err_u[n]), _format(err_ubar[n])]
            writer.writerow(row)


def read_grid_csv(path, grid: Grid, dim_y: int) -> GridFunction:
    """Load node values written by :func:`write_grid_csv` onto ``grid``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    expected = grid_csv_header(grid.dim, dim_y, False)
    if header[: len(expected)] != expected:
        raise GridMismatch(f"unexpected columns in {path}")
    if len(rows) != grid.n_nodes:
        raise GridMismatch(f"expected {grid.n_nodes} rows, found {len(rows)}")
    u = np.empty((grid.n_nodes, dim_y))
    ubar = np.empty((grid.n_nodes, dim_y, grid.dim))
    base = 2 * grid.dim
    for n, row in enumerate(rows):
        idx = np.array([int(v) for v in row[: grid.dim]])
        if not np.array_equal(idx, grid.node_indices[n]):
            raise GridMismatch(f"node ordering mismatch at row {n}")
        u[n] = [float(v) for v in row[base: base + dim_y]]
        flat = row[base + dim_y: base + dim_y + dim_y * grid.dim]
        ubar[n] = np.array([float(v) for v in flat]).reshape(dim_y, grid.dim)
    return GridFunction(grid, u, ubar)
