"""Regular lattice, multilinear hat-basis interpolation, and boundary trim.

Nodes live on a centered box of a scaled integer lattice.  Interpolation is
cell-local (at most 2^d basis functions are nonzero at any point) and
extends beyond the box by clamping the query to the box boundary.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

import numpy as np

from .model import as_points


class GridMismatch(ValueError):
    """Two grid functions do not share the same lattice."""


def check_grid(dim: int, n_half: int, mesh: float, pad: int) -> None:
    """Raise ValueError unless these settings make a :class:`Grid`."""
    if dim < 1 or n_half < 0 or pad < 0 or not 0 < mesh < np.inf:
        raise ValueError("grid requires dim >= 1, n_half, pad >= 0 and "
                         "a finite mesh > 0")


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
        check_grid(self.dim, self.n_half, self.mesh, self.pad)
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
    def nodes(self) -> np.ndarray:
        return self.node_indices * self.mesh


@dataclass
class GridFunction:
    """Values of a candidate pair on the extended lattice; calling it
    interpolates them."""

    grid: Grid
    u: np.ndarray
    ubar: np.ndarray
    # (d' + d'*d, nodes), column layout: one contiguous row per output
    # column, those of u first, then those of the flattened ubar, so that
    # interpolation gathers a corner with one take along the node axis into
    # a column-major result.  Built at construction, so u and ubar must not
    # be modified in place afterwards.
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.grid.n_nodes
        if self.u.shape[0] != n or self.ubar.shape[0] != n:
            raise ValueError("value arrays must have one row per node")
        if self.ubar.shape != (n, self.u.shape[1], self.grid.dim):
            raise ValueError("ubar must be shaped (nodes, d', d)")
        self.table = np.concatenate([self.u.T, self.ubar.reshape(n, -1).T])

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

    def __call__(self, x) -> Tuple[np.ndarray, np.ndarray]:
        return interpolate(self, x)


def _cell_corners(g: Grid, pts: np.ndarray) -> list:
    """(flat node index, weight) of each corner of the cell holding each
    point, in itertools.product order, after clamping to the box.

    Each weight is the left-to-right product of its axis factors; the
    per-axis work runs on contiguous ``(m,)`` columns, and its temporaries
    are freed on return, before :func:`interpolate` allocates its output.
    """
    clamped = np.clip(pts, -g.half_extent, g.half_extent)
    corners = [(None, None)]
    for k in range(g.dim):
        frac = clamped[:, k] + g.half_extent
        frac /= g.mesh
        # frac >= 0 after the clamp, so the truncating cast is the floor
        low = frac.astype(np.int64)
        np.clip(low, 0, g.n_side - 2, out=low)
        frac -= low
        stride = g.n_side ** (g.dim - 1 - k)
        low *= stride
        axis = ((low, 1.0 - frac), (low + stride, frac))
        corners = [(offset if flat is None else flat + offset,
                    col if wgt is None else wgt * col)
                   for flat, wgt in corners for offset, col in axis]
    return corners


def interpolate(phi: GridFunction, x) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate the multilinear extension of ``phi`` at points ``x``.

    Inside the box this combines the 2^d nodes of the containing cell;
    outside, the query is clamped to the box boundary first.  The arrays
    returned are transposed views of one column-major result.
    """
    g = phi.grid
    pts = as_points(x, g.dim)
    m = pts.shape[0]
    table = phi.table
    if g.n_side == 1:
        out = np.repeat(table, m, axis=1)
    else:
        corners = _cell_corners(g, pts)
        out = np.zeros((table.shape[0], m))
        gathered = np.empty_like(out)
        for flat, wgt in corners:
            # every index lies on the lattice, so "clip" changes none; it
            # only spares numpy the bounds-checked buffered gather
            np.take(table, flat, axis=1, out=gathered, mode="clip")
            gathered *= wgt
            out += gathered
    return out[:phi.dim_y].T, out[phi.dim_y:].T.reshape(m, phi.dim_y, g.dim)


def sup_diff(phi: GridFunction, psi: GridFunction) -> float:
    """Max over nodes of the joint gap of the value and gradient blocks."""
    # node_indices is not compared, so this compares the lattice itself
    if phi.grid != psi.grid:
        raise GridMismatch("grid functions live on different lattices")
    du = phi.u - psi.u
    dubar = phi.ubar - psi.ubar
    return float(np.max(np.sqrt(np.sum(du**2, axis=1)
                                + np.sum(dubar**2, axis=(1, 2)))))


def truncated_nodes(grid: Grid) -> np.ndarray:
    """Indices of the inner reporting nodes (pad layers removed)."""
    keep = np.all(np.abs(grid.node_indices) <= grid.n_half, axis=1)
    return np.flatnonzero(keep)


def _format(v: float) -> str:
    return f"{float(v):.17g}"


def write_csv(path, header: List[str], rows: Iterable[List]) -> None:
    """One header line, then one line per row; floats carry 17 significant
    digits (``_format``), other values their ``str``."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format(v) if isinstance(v, float) else v
                             for v in row])


def node_errors(phi: GridFunction, u_ex: np.ndarray,
                ubar_ex: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-node gaps of ``u`` and of ``ubar`` to the exact node values."""
    err_u = np.linalg.norm(phi.u - u_ex, axis=1)
    err_ubar = np.sqrt(np.sum((phi.ubar - ubar_ex) ** 2, axis=(1, 2)))
    return err_u, err_ubar


def write_grid_csv(phi: GridFunction, path, analytic=None) -> None:
    """Serialize node values (plus exact values and errors when known)."""
    g = phi.grid
    nodes = g.nodes
    values = [f"u_{i + 1}" for i in range(phi.dim_y)]
    values += [f"ubar_{i + 1}{j + 1}" for i in range(phi.dim_y) for j in range(g.dim)]
    header = [f"{axis}{k + 1}" for axis in "ix" for k in range(g.dim)] + values
    # the float columns in header order, one row per node
    blocks = [nodes, phi.u, phi.ubar.reshape(g.n_nodes, -1)]
    if analytic is not None:
        u_ex, ubar_ex = analytic(nodes)
        header += [v.replace("_", "_exact_", 1) for v in values]
        header += ["err_u", "err_ubar"]
        blocks += [u_ex, ubar_ex.reshape(g.n_nodes, -1),
                   np.column_stack(node_errors(phi, u_ex, ubar_ex))]
    write_csv(path, header,
              ([int(i) for i in idx] + row.tolist() for idx, row
               in zip(g.node_indices, np.concatenate(blocks, axis=1))))

