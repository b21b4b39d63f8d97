"""Grid layout, quadrature, weights, and discrete calculus."""
import gc
import weakref

import numpy as np
import pytest

import landau
from landau.diagnostics import moments
from landau.grid_field import (
    gradient_values,
    laplacian_values,
    squared_norm,
    weighted_gradient_energy,
)

from oracle_values import LP_1_5_M_4_5_MU, MASS_MU_N16, MASS_MU_N64


def test_make_grid_validation():
    with pytest.raises(ValueError, match="n must be even"):
        landau.make_grid(9, 8.0)
    with pytest.raises(ValueError, match="n must be at least 8"):
        landau.make_grid(6, 8.0)
    with pytest.raises(ValueError, match="l must be positive"):
        landau.make_grid(16, 0.0)


def test_axis_cell_centered(grid16):
    g = grid16
    assert g.h == pytest.approx(2 * g.l / g.n)
    # symmetric about 0, no node at the origin
    assert np.allclose(g.axis, -g.axis[::-1])
    assert np.min(np.abs(g.axis)) == pytest.approx(g.h / 2)
    assert g.axis[0] == pytest.approx(-g.l + 0.5 * g.h)


def test_cell_volume(grid16):
    assert grid16.cell_volume() == pytest.approx(grid16.h ** 3)


def test_radius_and_bracket(grid16):
    g = grid16
    assert np.allclose(g.bracket2, 1.0 + g.radius2)
    i = g.n // 2
    assert g.radius2[i, i, i] == pytest.approx(3 * (g.h / 2) ** 2)


@pytest.mark.parametrize("grid_name", ["grid16", "grid32"])
def test_node_arrays_match_meshgrid(request, grid_name):
    # frozen construction: the (3, n, n, n) node coordinate cube
    grid = request.getfixturevalue(grid_name)
    coords = np.meshgrid(grid.axis, grid.axis, grid.axis, indexing="ij")
    c0, c1, c2 = coords
    assert np.array_equal(grid.radius2, c0 * c0 + c1 * c1 + c2 * c2)
    assert np.array_equal(grid.bracket2, 1.0 + (c0 * c0 + c1 * c1 + c2 * c2))
    for d, x in enumerate(grid.axes):
        assert np.array_equal(np.broadcast_to(x, coords[d].shape), coords[d])


def test_maxwellian_mass_oracle(grid16, grid64):
    mu16 = landau.maxwellian(grid16)
    mu64 = landau.maxwellian(grid64)
    assert moments(grid16, mu16.values)[0] == pytest.approx(MASS_MU_N16, abs=1e-13)
    assert moments(grid64, mu64.values)[0] == pytest.approx(MASS_MU_N64, abs=1e-13)


def test_field_validation(grid16):
    with pytest.raises(ValueError, match="values shape does not match grid"):
        landau.ScalarField(grid16, np.zeros((4, 4, 4)))
    bad = np.zeros((16, 16, 16))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="field values must be finite"):
        landau.ScalarField(grid16, bad)


def test_weight_field_values(grid16):
    w = grid16.weight(4.5)
    assert np.allclose(w, grid16.bracket2 ** 2.25)


def test_weight_field_log_space(grid16):
    # a large exponent: <v>^60 peaks near 7.8e66 at the corners, far from
    # the double range, and the power form is finite and exact at the centre
    w = grid16.weight(60.0)
    assert np.all(np.isfinite(w))
    i = grid16.n // 2
    b = grid16.bracket2[i, i, i]
    assert w[i, i, i] == pytest.approx(b ** 30.0, rel=1e-12)


def test_weight_built_once_per_index(weight_builds):
    grid = landau.make_grid(16, 8.0)
    builds = weight_builds(grid)
    w = grid.weight(4.5)
    assert grid.weight(9.0 / 2.0) is w and grid.weight(np.float64(4.5)) is w
    assert grid.weight(3) is grid.weight(3.0)
    assert builds == [4.5, 3.0]
    assert np.array_equal(w, grid.bracket2 ** 2.25)
    with pytest.raises(ValueError, match="read-only"):
        w[0, 0, 0] = 0.0
    # <v>^2000 overflows at the corners (any |m| above about 270 does)
    with np.errstate(over="ignore"), pytest.raises(
        ValueError, match="field values must be finite"
    ):
        grid.weight(2000.0)
    assert builds == [4.5, 3.0]


def test_grid_keeps_no_coordinate_cube():
    # |v|^2 and 1 + |v|^2 are new arrays at each read, so writing into one
    # changes no later read; the only cubes a grid keeps are its weights
    grid = landau.make_grid(16, 8.0)
    r2 = grid.radius2
    r2[0, 0, 0] = -1.0
    assert grid.radius2[0, 0, 0] == 3 * (7.5 * grid.h) ** 2
    assert grid.bracket2 is not grid.bracket2
    w = grid.weight(4.5)
    cubes = [v for v in vars(grid).values() if isinstance(v, np.ndarray) and v.ndim == 3]
    assert cubes == []
    assert list(grid._weights.values()) == [w]


def test_grid_with_weights_freed_without_gc():
    # the weight cache holds bare arrays, never fields that point back at
    # the grid, so reference counting alone frees a grid that read weights
    grid = landau.make_grid(16, 8.0)
    grid.weight(4.5)
    grid.weight(60.0)
    grid.weight(-6.0)
    landau.weighted_lp_norm(landau.maxwellian(grid), 1.5, 3.0)
    assert len(grid.__dict__["_weights"]) == 4
    ref = weakref.ref(grid)
    gc.disable()
    try:
        del grid
        assert ref() is None
    finally:
        gc.enable()


def test_weighted_lp_norm_maxwellian(grid64):
    mu = landau.maxwellian(grid64)
    # second moment with unit weight: integral of <v>^2 mu = 1 + 3
    val = landau.weighted_lp_norm(mu, 1.0, 2.0)
    assert val == pytest.approx(4.0, rel=1e-5)
    assert landau.weighted_lp_norm(mu, 1.5, 4.5) == pytest.approx(
        LP_1_5_M_4_5_MU, rel=1e-6
    )


def test_weighted_lp_norm_validation(grid16):
    mu = landau.maxwellian(grid16)
    with pytest.raises(ValueError, match="p must be at least 1"):
        landau.weighted_lp_norm(mu, 0.5, 0.0)


def test_weighted_lp_norm_clips_negative(grid16):
    vals = np.full((16, 16, 16), 1.0)
    vals[0, 0, 0] = -1e-3
    clipped = vals.copy()
    clipped[0, 0, 0] = 0.0
    got = landau.weighted_lp_norm(landau.ScalarField(grid16, vals), 1.5, 0.0)
    want = landau.weighted_lp_norm(landau.ScalarField(grid16, clipped), 1.5, 0.0)
    assert got == want


def test_gradient_exact_on_linear(grid16):
    g = grid16
    vx, vy, vz = g.axes
    vals = 2.0 * vx - 3.0 * vy + 0.5 * vz
    assert vals.shape == (16, 16, 16)
    grad = gradient_values(g, vals)
    assert np.allclose(grad[0], 2.0, atol=1e-12)
    assert np.allclose(grad[1], -3.0, atol=1e-12)
    assert np.allclose(grad[2], 0.5, atol=1e-12)


@pytest.mark.parametrize("n", [8, 10, 34])
def test_gradient_stencil_bit_identical_to_numpy(n):
    # the direct stencil runs np.gradient's operations in its order, so the
    # bits agree, also when written into a given array
    g = landau.make_grid(n, 6.0)
    vx, vy, vz = g.axes
    rng = np.random.default_rng(n)
    linear = np.broadcast_to(2.0 * vx - 3.0 * vy + 0.5 * vz, (n,) * 3)
    for vals in (rng.standard_normal((n,) * 3), np.ascontiguousarray(linear)):
        want = np.stack(np.gradient(vals, g.h, edge_order=2)).view(np.uint64)
        assert np.array_equal(gradient_values(g, vals).view(np.uint64), want)
        out = np.full((3,) + vals.shape, np.nan)
        assert gradient_values(g, vals, out=out) is out
        assert np.array_equal(out.view(np.uint64), want)


@pytest.mark.parametrize("shape", [(3, 3, 3), (5, 7, 9), (9, 4, 3), (16, 16, 16)])
def test_gradient_on_boxes_bit_identical_to_numpy(grid16, shape):
    # each axis's interior difference runs on the flattened array at that
    # axis's stride; the edge stencils overwrite the nodes where it wraps
    vals = np.random.default_rng(len(shape) + shape[0]).standard_normal(shape)
    want = np.stack(np.gradient(vals, grid16.h, edge_order=2)).view(np.uint64)
    assert np.array_equal(gradient_values(grid16, vals).view(np.uint64), want)
    for d in range(3):  # one component, alone
        got = gradient_values(grid16, vals, axis=d)
        assert got.shape == shape and np.array_equal(got.view(np.uint64), want[d])
    strided = np.empty((3,) + shape[::-1]).transpose(0, 3, 2, 1)
    with pytest.raises(ValueError):
        gradient_values(grid16, vals, out=strided)


@pytest.mark.parametrize("shape", [(16, 16, 16), (5, 7, 9)])
def test_weighted_gradient_energy_bit_identical(grid16, shape):
    # axis by axis in two rows, with the bits of the sum over the weighted
    # squared norm of the whole gradient, with or without a given out
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(shape)
    weight = rng.uniform(0.5, 2.0, shape)
    g = np.gradient(vals, grid16.h, edge_order=2)
    want = grid16.cell_volume() * float(
        np.sum(weight * (g[0] ** 2 + g[1] ** 2 + g[2] ** 2)))
    assert weighted_gradient_energy(grid16, vals, weight) == want
    out = np.full((2,) + shape, np.nan)
    assert weighted_gradient_energy(grid16, vals, weight, out=out) == want


def test_squared_norm_in_place_bit_identical(grid16):
    rng = np.random.default_rng(3)
    grad = rng.standard_normal((3, 16, 16, 16))
    want = (grad[0] ** 2 + grad[1] ** 2 + grad[2] ** 2).view(np.uint64)
    got = squared_norm(grad)
    assert np.shares_memory(got, grad)
    assert np.array_equal(got.view(np.uint64), want)


def test_laplacian_exact_on_quadratic(grid16):
    # second differences are exact on |v|^2, one-sided stencils included
    lap = laplacian_values(grid16, grid16.radius2.copy())
    assert np.allclose(lap, 6.0, atol=1e-10)
