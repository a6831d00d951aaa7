"""Lattice geometry, hat-basis interpolation, sup norms, and CSV output."""
import csv
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infbsde import (Grid, GridFunction, GridMismatch, interpolate,
                     sup_diff, truncated_nodes, write_grid_csv)


def random_grid_function(grid, dim_y=1, seed=0):
    gen = np.random.default_rng(seed)
    return GridFunction(grid, gen.normal(size=(grid.n_nodes, dim_y)),
                        gen.normal(size=(grid.n_nodes, dim_y, grid.dim)))


class TestGridGeometry:
    def test_counts_and_extents(self):
        g = Grid(dim=1, n_half=10, mesh=0.3, pad=2)
        assert g.n_side == 25 and g.n_nodes == 25
        assert g.half_extent == pytest.approx(3.6)
        g2 = Grid(dim=2, n_half=1, mesh=1.0, pad=1)
        assert g2.n_nodes == 25
        assert truncated_nodes(g2).size == 9

    def test_truncated_nodes_inner_box(self):
        g = Grid(dim=1, n_half=10, mesh=0.3, pad=2)
        keep = truncated_nodes(g)
        assert keep.size == 21
        assert np.abs(g.nodes[keep]).max() <= 3.0 + 1e-12
        outside = np.setdiff1d(np.arange(g.n_nodes), keep)
        assert np.abs(g.nodes[outside]).min() > 3.0

    def test_invalid_parameters(self):
        for kwargs in ({"dim": 0, "n_half": 1, "mesh": 1.0},
                       {"dim": 1, "n_half": -1, "mesh": 1.0},
                       {"dim": 1, "n_half": 1, "mesh": 0.0},
                       {"dim": 1, "n_half": 1, "mesh": 1.0, "pad": -1}):
            with pytest.raises(ValueError):
                Grid(**kwargs)


def basis_values(g, x):
    """(m, nodes) hat-basis weights: interpolate the node indicators, one
    output column per node."""
    phi = GridFunction(g, np.eye(g.n_nodes),
                       np.zeros((g.n_nodes, g.n_nodes, g.dim)))
    return interpolate(phi, x)[0]


def hat_weight(node, x, mesh):
    """Tensor hat function centered at ``node``, evaluated at ``x``."""
    t = 1.0 - np.abs((np.asarray(x, dtype=float) - node) / mesh)
    return np.prod(np.maximum(t, 0.0), axis=-1)


class TestBasis:
    def test_hat_values(self):
        g1 = Grid(dim=1, n_half=1, mesh=0.5)
        centre = 1  # nodes -0.5, 0, 0.5
        np.testing.assert_array_equal(
            basis_values(g1, [[0.0], [0.25], [0.5]])[:, centre], [1.0, 0.5, 0.0])
        g2 = Grid(dim=2, n_half=1, mesh=0.5)
        assert basis_values(g2, [[0.25, 0.25]])[0, g2.n_nodes // 2] == 0.25

    def test_partition_of_unity(self):
        g = Grid(dim=2, n_half=2, mesh=0.7)
        gen = np.random.default_rng(1)
        pts = gen.uniform(-g.half_extent, g.half_extent, size=(40, 2))
        weights = basis_values(g, pts)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
        want = np.stack([hat_weight(node, pts, g.mesh) for node in g.nodes],
                        axis=1)
        np.testing.assert_allclose(weights, want, rtol=0, atol=1e-12)


class TestInterpolation:
    def test_node_exactness(self):
        g = Grid(dim=2, n_half=2, mesh=0.5)
        phi = random_grid_function(g, dim_y=2, seed=2)
        u, ubar = interpolate(phi, g.nodes)
        np.testing.assert_allclose(u, phi.u, atol=1e-13)
        np.testing.assert_allclose(ubar, phi.ubar, atol=1e-13)

    def test_linear_reproduction(self):
        g = Grid(dim=2, n_half=3, mesh=0.4)
        coef = np.array([1.5, -0.7])
        phi = GridFunction(g, (g.nodes @ coef + 0.3)[:, None],
                           np.zeros((g.n_nodes, 1, 2)))
        gen = np.random.default_rng(3)
        pts = gen.uniform(-g.half_extent, g.half_extent, size=(30, 2))
        u, _ = interpolate(phi, pts)
        np.testing.assert_allclose(u[:, 0], pts @ coef + 0.3, atol=1e-12)

    def test_outside_equals_clamped(self):
        g = Grid(dim=1, n_half=2, mesh=1.0)
        phi = random_grid_function(g, seed=4)
        far = np.array([[5.0], [-7.5]])
        u_far, ub_far = interpolate(phi, far)
        u_cl, ub_cl = interpolate(phi,
                                  np.clip(far, -g.half_extent, g.half_extent))
        np.testing.assert_array_equal(u_far, u_cl)
        np.testing.assert_array_equal(ub_far, ub_cl)

    def test_non_expansive_in_sup_norm(self):
        g = Grid(dim=2, n_half=2, mesh=0.6)
        phi = random_grid_function(g, seed=5)
        gen = np.random.default_rng(6)
        pts = gen.uniform(-4, 4, size=(200, 2))
        u, ubar = interpolate(phi, pts)
        assert np.abs(u).max() <= np.abs(phi.u).max() + 1e-12
        assert np.abs(ubar).max() <= np.abs(phi.ubar).max() + 1e-12

    def test_quadratic_midpoint_error(self):
        # hat interpolation of x^2 errs by exactly mesh^2/4 at midpoints
        g = Grid(dim=1, n_half=4, mesh=0.5)
        phi = GridFunction(g, g.nodes**2, np.zeros((g.n_nodes, 1, 1)))
        mids = g.nodes[:-1] + g.mesh / 2
        u, _ = interpolate(phi, mids)
        np.testing.assert_allclose(u - mids**2, 0.25 * g.mesh**2, atol=1e-13)

    def test_single_node_grid_is_constant(self):
        g = Grid(dim=1, n_half=0, mesh=1.0)
        phi = GridFunction(g, np.array([[2.5]]), np.array([[[0.5]]]))
        u, ubar = interpolate(phi, np.array([[-3.0], [0.0], [9.0]]))
        np.testing.assert_array_equal(u, [[2.5]] * 3)
        np.testing.assert_array_equal(ubar, [[[0.5]]] * 3)

    def test_call_matches_interpolate(self):
        g = Grid(dim=1, n_half=2, mesh=0.5)
        phi = random_grid_function(g, seed=7)
        pts = np.array([[0.3], [-0.9]])
        u, ubar = phi(pts)
        eu, eubar = interpolate(phi, pts)
        np.testing.assert_array_equal(u, eu)
        np.testing.assert_array_equal(ubar, eubar)


def per_corner_interpolate(phi, x):
    """Reference multilinear interpolation: separate u and ubar sums over the
    2^d corners, each weight a masked product over the axes."""
    g = phi.grid
    pts = np.asarray(x, dtype=float)
    m = pts.shape[0]
    if g.n_side == 1:
        return (np.broadcast_to(phi.u[0], (m, phi.dim_y)).copy(),
                np.broadcast_to(phi.ubar[0], (m, phi.dim_y, g.dim)).copy())
    rel = (np.clip(pts, -g.half_extent, g.half_extent)
           + g.half_extent) / g.mesh
    base = np.floor(rel).astype(np.int64)
    np.clip(base, 0, g.n_side - 2, out=base)
    frac = rel - base
    out_u = np.zeros((m, phi.dim_y))
    out_ubar = np.zeros((m, phi.dim_y, g.dim))
    for corner in itertools.product((0, 1), repeat=g.dim):
        offs = np.asarray(corner)
        wgt = np.prod(np.where(offs == 1, frac, 1.0 - frac), axis=1)
        flat = np.ravel_multi_index(tuple((base + offs).T), (g.n_side,) * g.dim)
        out_u += wgt[:, None] * phi.u[flat]
        out_ubar += wgt[:, None, None] * phi.ubar[flat]
    return out_u, out_ubar


@st.composite
def grid_cases(draw, dyadic=False):
    """A grid of dimension 1-3, values on it and a generator for queries."""
    dim = draw(st.integers(1, 3))
    n_half = draw(st.integers(0, 3))
    pad = draw(st.integers(0, 1))
    if dyadic:
        # dyadic meshes keep node coordinates and cell offsets exact
        mesh = draw(st.integers(1, 12)) / draw(st.sampled_from([1, 2, 4, 8]))
    else:
        mesh = draw(st.floats(0.05, 2.0))
    dim_y = draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    g = Grid(dim=dim, n_half=n_half, mesh=mesh, pad=pad)
    return random_grid_function(g, dim_y, seed), np.random.default_rng(seed)


class TestInterpolationProperties:
    @settings(max_examples=60, deadline=None)
    @given(grid_cases(dyadic=True))
    def test_reproduces_node_values_exactly(self, case):
        phi, _ = case
        u, ubar = interpolate(phi, phi.grid.nodes)
        np.testing.assert_array_equal(u, phi.u)
        np.testing.assert_array_equal(ubar, phi.ubar)

    @settings(max_examples=60, deadline=None)
    @given(grid_cases())
    def test_reproduces_node_values(self, case):
        phi, _ = case
        u, ubar = interpolate(phi, phi.grid.nodes)
        np.testing.assert_allclose(u, phi.u, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ubar, phi.ubar, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(grid_cases())
    def test_reproduces_affine_functions(self, case):
        phi, gen = case
        g = phi.grid
        size = phi.dim_y * (1 + g.dim)
        slope = gen.uniform(-2.0, 2.0, (g.dim, size))
        level = gen.uniform(-2.0, 2.0, size)

        def affine(x):
            vals = x @ slope + level
            return (vals[:, :phi.dim_y],
                    vals[:, phi.dim_y:].reshape(-1, phi.dim_y, g.dim))

        if g.n_side == 1:
            slope[:] = 0.0
        affine_phi = GridFunction(g, *affine(g.nodes))
        pts = gen.uniform(-g.half_extent, g.half_extent, (40, g.dim))
        u, ubar = interpolate(affine_phi, pts)
        want_u, want_ubar = affine(pts)
        np.testing.assert_allclose(u, want_u, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ubar, want_ubar, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(grid_cases())
    def test_outside_query_equals_clamped_query(self, case):
        phi, gen = case
        g = phi.grid
        reach = 3.0 * g.half_extent + 1.0
        pts = gen.uniform(-reach, reach, (40, g.dim))
        u, ubar = interpolate(phi, pts)
        u_cl, ubar_cl = interpolate(
            phi, np.clip(pts, -g.half_extent, g.half_extent))
        np.testing.assert_array_equal(u, u_cl)
        np.testing.assert_array_equal(ubar, ubar_cl)

    @settings(max_examples=60, deadline=None)
    @given(grid_cases())
    def test_equals_per_corner_reference(self, case):
        phi, gen = case
        g = phi.grid
        reach = 1.5 * g.half_extent + 0.5
        pts = gen.uniform(-reach, reach, (60, g.dim))
        pts[:5] = g.nodes[gen.integers(0, g.n_nodes, 5)]
        u, ubar = interpolate(phi, pts)
        ref_u, ref_ubar = per_corner_interpolate(phi, pts)
        np.testing.assert_array_equal(u, ref_u)
        np.testing.assert_array_equal(ubar, ref_ubar)


class TestSupDiffs:
    def test_hand_example(self):
        g = Grid(dim=1, n_half=1, mesh=1.0)
        phi = GridFunction(g, np.array([[2.0], [3.0], [4.0]]),
                           np.zeros((3, 1, 1)))
        psi = GridFunction.zero(g, 1)
        assert sup_diff(phi, psi) == 4.0

    def test_joint_norm_mixes_value_and_gradient(self):
        g = Grid(dim=1, n_half=0, mesh=1.0)
        phi = GridFunction(g, np.array([[3.0]]), np.array([[[4.0]]]))
        assert sup_diff(phi, GridFunction.zero(g, 1)) == pytest.approx(5.0)

    def test_mismatch_raises(self):
        a = GridFunction.zero(Grid(dim=1, n_half=1, mesh=1.0), 1)
        b = GridFunction.zero(Grid(dim=1, n_half=1, mesh=0.5), 1)
        with pytest.raises(GridMismatch):
            sup_diff(a, b)

    def test_shape_validation(self):
        g = Grid(dim=2, n_half=1, mesh=1.0)
        with pytest.raises(ValueError):
            GridFunction(g, np.zeros((g.n_nodes, 1)),
                         np.zeros((g.n_nodes, 1, 3)))
        with pytest.raises(ValueError):
            GridFunction(g, np.zeros((g.n_nodes - 1, 1)),
                         np.zeros((g.n_nodes - 1, 1, 2)))


def read_columns(path):
    """The header of a grid CSV and its body as a float array."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, np.array([[float(v) for v in row] for row in rows])


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        g = Grid(dim=2, n_half=2, mesh=1 / 3, pad=1)
        phi = random_grid_function(g, dim_y=2, seed=8)
        path = tmp_path / "grid.csv"
        write_grid_csv(phi, path)
        header, body = read_columns(path)
        assert header == ["i1", "i2", "x1", "x2", "u_1", "u_2", "ubar_11",
                          "ubar_12", "ubar_21", "ubar_22"]
        np.testing.assert_array_equal(body[:, :2], g.node_indices)
        np.testing.assert_array_equal(body[:, 2:4], g.nodes)
        np.testing.assert_array_equal(body[:, 4:6], phi.u)
        np.testing.assert_array_equal(body[:, 6:], phi.ubar.reshape(-1, 4))

    def test_analytic_columns(self, tmp_path):
        from infbsde import problem_by_name

        problem = problem_by_name("arctan-const-sigma", 1)
        g = Grid(dim=1, n_half=2, mesh=0.5)
        phi = GridFunction(g, problem.analytic.u(g.nodes),
                           problem.analytic.ubar(g.nodes))
        path = tmp_path / "grid.csv"
        write_grid_csv(phi, path, analytic=problem.analytic)
        header = path.read_text().splitlines()[0].split(",")
        assert header == ["i1", "x1", "u_1", "ubar_11", "u_exact_1",
                          "ubar_exact_11", "err_u", "err_ubar"]
        body = path.read_text().splitlines()[1:]
        assert all(row.split(",")[-1] == "0" and row.split(",")[-2] == "0"
                   for row in body)
        _, values = read_columns(path)
        np.testing.assert_array_equal(values[:, 2:3], phi.u)
        np.testing.assert_array_equal(values[:, 4:5], phi.u)

    def test_seventeen_digit_floats(self, tmp_path):
        g = Grid(dim=1, n_half=0, mesh=1.0)
        phi = GridFunction(g, np.array([[np.pi]]), np.array([[[1 / 3]]]))
        path = tmp_path / "grid.csv"
        write_grid_csv(phi, path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[2] == "3.1415926535897931"
        assert row[3] == "0.33333333333333331"
