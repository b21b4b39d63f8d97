"""Kernel tables, the two convolution routes, and coefficient assembly."""
import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import fft as sp_fft
from scipy.special import erf

import landau
from landau import _accel, coefficients
from landau.coefficients import Workspace
from landau.errors import ConfigError

from oracle_values import A_MU_ORIGIN, LATTICE_DEFICIT, S0_UNIT

COMPONENTS = ("scalar", "xx", "yy", "zz", "xy", "xz", "yz")


@pytest.fixture(scope="module")
def table8(grid8):
    return landau.kernel_table_for(grid8)


@pytest.fixture(scope="module")
def kernels8(grid8):
    """The seven real-space kernels on grid8, scalar first."""
    return {comp: coefficients.real_space_kernel(grid8, comp) for comp in COMPONENTS}


def _spectral(f, table=None):
    """a and the six rows of A from compute_coefficients, keyed like COMPONENTS."""
    c = landau.compute_coefficients(f, table)
    return dict(zip(COMPONENTS, (c.a.values, *c.A.values)))


def test_unit_offset_slots(grid8, kernels8):
    # h = 1 here, so slot (1,0,0) sits at distance 1 from the origin
    assert grid8.h == 1.0
    assert kernels8["scalar"][1, 0, 0] == pytest.approx(1.0 / (4 * np.pi), rel=1e-14)
    # matrix kernel projects off the offset direction
    xx, yy, zz, xy, xz, yz = (kernels8[comp][1, 0, 0] for comp in COMPONENTS[1:])
    assert xx == pytest.approx(0.0, abs=1e-15)
    assert yy == pytest.approx(1.0 / (8 * np.pi), rel=1e-14)
    assert zz == pytest.approx(1.0 / (8 * np.pi), rel=1e-14)
    assert xy == xz == yz == 0.0


def test_unit_cell_average_matches_quadrature():
    # the closed form 3Q/(16 pi), Q = 4 (ln(2 + sqrt 3) - pi/6), against
    # the frozen 2-D quadrature of Q
    assert coefficients._UNIT_CELL_KERNEL_AVERAGE == pytest.approx(S0_UNIT, rel=1e-15)


def test_import_loads_no_quadrature():
    # of scipy the package imports scipy.fft only, which keeps start-up short
    src = os.path.dirname(os.path.dirname(landau.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, landau; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_origin_slot_value(grid8, kernels8):
    # cell average of the kernel plus the lattice correction that cancels
    # the h^2 defect of midpoint sums; both halves are frozen independently
    expected = (S0_UNIT + LATTICE_DEFICIT + 1.0 / 24.0) / grid8.h
    assert kernels8["scalar"][0, 0, 0] == pytest.approx(expected, abs=2e-7)
    for comp in ("xx", "yy", "zz"):
        assert kernels8[comp][0, 0, 0] == pytest.approx(expected / 3.0, abs=1e-7)
    for comp in ("xy", "xz", "yz"):
        assert kernels8[comp][0, 0, 0] == 0.0


def test_table_symmetry(kernels8):
    # even kernel: slot for -j equals slot for +j
    s = kernels8["scalar"]
    assert s[1, 2, 3] == pytest.approx(s[-1, -2, -3], rel=1e-14)
    for comp in COMPONENTS:
        assert np.all(np.isfinite(kernels8[comp])), comp


def test_trace_identity_random(grid16):
    rng = np.random.default_rng(7)
    for _ in range(3):
        f = landau.ScalarField(grid16, rng.random((16, 16, 16)))
        c = landau.compute_coefficients(f)
        tr = c.A.values[0] + c.A.values[1] + c.A.values[2]
        scale = float(np.max(np.abs(c.a.values)))
        assert float(np.max(np.abs(tr - c.a.values))) / scale <= 1e-10


def test_dual_route_all_components(grid8, table8):
    rng = np.random.default_rng(11)
    f = landau.ScalarField(grid8, rng.random((8, 8, 8)))
    spectral = _spectral(f, table8)
    for comp in COMPONENTS:
        direct = landau.direct_convolve(f, comp)
        scale = float(np.max(np.abs(direct.values)))
        err = float(np.max(np.abs(spectral[comp] - direct.values))) / scale
        assert err <= 1e-10, comp


def test_delta_translation(grid8, table8, kernels8):
    # a unit point mass reproduces the kernels themselves
    n = grid8.n
    i0 = (2, 5, 3)
    vals = np.zeros((n, n, n))
    vals[i0] = 1.0 / grid8.cell_volume()
    spectral = _spectral(landau.ScalarField(grid8, vals), table8)
    for probe in ((2, 5, 3), (3, 5, 3), (2, 4, 3), (7, 0, 0)):
        off = tuple((probe[d] - i0[d]) % (2 * n) for d in range(3))
        assert spectral["scalar"][probe] == pytest.approx(
            kernels8["scalar"][off], rel=1e-12)


def test_potential_of_maxwellian(grid32):
    mu = landau.maxwellian(grid32)
    c = landau.compute_coefficients(mu)
    r = np.sqrt(grid32.radius2)
    exact = erf(r / np.sqrt(2.0)) / (4.0 * np.pi * r)
    rel = np.abs(c.a.values - exact) / exact
    assert float(rel.max()) <= 1e-3
    # the closed form's r -> 0 limit agrees with the frozen quadrature of
    # the potential at the origin
    assert A_MU_ORIGIN == pytest.approx(
        np.sqrt(2.0 / np.pi) / (4.0 * np.pi), rel=1e-12
    )


def test_zero_field_rejected(grid16):
    # ellipticity floor needs positive mass; the solver special-cases zero
    f = landau.ScalarField(grid16, np.zeros((16, 16, 16)))
    with pytest.raises(ValueError, match="nonpositive total mass"):
        landau.compute_coefficients(f)


def test_convolution_linearity(grid8, table8):
    rng = np.random.default_rng(3)
    f = rng.random((8, 8, 8))
    g = rng.random((8, 8, 8))
    lhs = _spectral(landau.ScalarField(grid8, 2.0 * f + 0.5 * g), table8)
    af = _spectral(landau.ScalarField(grid8, f), table8)
    ag = _spectral(landau.ScalarField(grid8, g), table8)
    for comp in COMPONENTS:
        rhs = 2.0 * af[comp] + 0.5 * ag[comp]
        assert np.allclose(lhs[comp], rhs, rtol=1e-12, atol=1e-14), comp


def test_matrix_positive_semidefinite(grid16):
    mu = landau.maxwellian(grid16)
    c = landau.compute_coefficients(mu)
    xx, yy, zz, xy, xz, yz = c.A.values
    m = np.zeros(xx.shape + (3, 3))
    m[..., 0, 0], m[..., 1, 1], m[..., 2, 2] = xx, yy, zz
    m[..., 0, 1] = m[..., 1, 0] = xy
    m[..., 0, 2] = m[..., 2, 0] = xz
    m[..., 1, 2] = m[..., 2, 1] = yz
    eigs = np.linalg.eigvalsh(m)
    assert float(eigs.min()) >= -1e-14
    c0_hat, sup_A = c.ellipticity_range()
    assert c0_hat > 0.0
    assert sup_A > 0.0
    # sup_A is the raw eigenvalue sup; c0_hat carries the <v>^3 weight
    # (closed-form 3x3 eigenvalues, so only ~1e-9 agreement with LAPACK)
    assert sup_A == pytest.approx(float(eigs.max()), rel=1e-8)
    floor = eigs.min(axis=-1) * grid16.bracket2 ** 1.5
    assert c0_hat == pytest.approx(float(floor.min()), rel=1e-8)


def test_grad_a_matches_gradient_of_a(grid16):
    mu = landau.maxwellian(grid16)
    c = landau.compute_coefficients(mu)
    from landau.grid_field import gradient_values

    assert np.array_equal(c.grad_a.values, gradient_values(grid16, c.a.values))


def test_fft_workers_env(monkeypatch):
    monkeypatch.setenv("LANDAU_THREADS", "2")
    assert coefficients.fft_workers() == 2
    monkeypatch.setenv("LANDAU_THREADS", "two")
    with pytest.raises(ConfigError, match="LANDAU_THREADS must be an integer"):
        coefficients.fft_workers()
    monkeypatch.delenv("LANDAU_THREADS")
    # unset: the CPU affinity count, never scipy's -1 (all of os.cpu_count())
    assert coefficients.fft_workers() == len(os.sched_getaffinity(0))


def test_table_grid_mismatch(grid8, grid16, table8):
    f = landau.ScalarField(grid16, np.ones((16, 16, 16)))
    with pytest.raises(ValueError, match="kernel table grid does not match"):
        landau.compute_coefficients(f, table8)
    with pytest.raises(ValueError, match="unknown kernel component"):
        landau.direct_convolve(landau.ScalarField(grid8, np.ones((8, 8, 8))), "yx")


@pytest.mark.parametrize("route", [landau.compute_coefficients, landau.spectral_vs_direct])
def test_table_for_other_box_rejected(grid16, route):
    # same n, different l: the table's offsets are scaled for another h
    grid = landau.make_grid(16, 6.0)
    f = landau.ScalarField(grid, landau.maxwellian(grid).values)
    with pytest.raises(ValueError, match="kernel table grid does not match"):
        route(f, landau.kernel_table_for(grid16))


def test_equal_grids_share_one_table():
    # the cache is keyed by (n, l), not by the grid object
    a, b = landau.make_grid(8, 5.0), landau.make_grid(8, 5.0)
    assert a is not b
    table = landau.kernel_table_for(a)
    assert landau.kernel_table_for(b) is table
    assert (table.grid.n, table.grid.l) == (8, 5.0)
    assert landau.kernel_table_for(landau.make_grid(8, 6.0)) is not table


def test_direct_route_leaves_no_table_behind(grid8):
    # the direct sums build their real-space kernels per call: after a full
    # check the shared table still holds its symbols and no other array
    table = landau.kernel_table_for(grid8)
    f = landau.ScalarField(grid8, np.random.default_rng(23).random((8, 8, 8)))
    landau.spectral_vs_direct(f, table)
    arrays = [name for name, v in vars(table).items() if isinstance(v, np.ndarray)]
    assert arrays == ["symbols"]


def _warm_peak(grid):
    """tracemalloc peak of a second compute_coefficients with one workspace,
    and the per-call scratch the transforms are allowed: one z-chunk's
    padded input and output (4 + 2/n doubles a node) and the product
    blocks of the lanes."""
    n = grid.n
    table = landau.kernel_table_for(grid)
    f = landau.maxwellian(grid)
    work = Workspace.for_grid(grid)
    landau.compute_coefficients(f, table, work)
    tracemalloc.start()
    try:
        landau.compute_coefficients(f, table, work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunk = coefficients._FFT_CHUNK_NODES * (4 + 2 / n) * 8
    lanes = min(coefficients.fft_workers(), 2 * n)
    blocks = lanes * coefficients._BLOCK_PLANES * 2 * n * (n + 1) * 8
    return peak, chunk + blocks


def test_compute_coefficients_allocation_peak(grid32):
    # the spectra, A, a and grad a are the workspace's, the z transforms
    # run in x-row chunks and the complex ones in place, so a second call
    # with the same workspace allocates only the chunk budget, here one
    # chunk of the whole grid
    peak, budget = _warm_peak(grid32)
    assert peak < budget


@pytest.mark.parametrize("threads", ["1", "2"])
def test_warm_coefficients_allocate_under_a_cube_at_n64(grid64, monkeypatch, threads):
    # a chunk is an eighth of the grid at n = 64.  The warm peak was 4.1
    # n^3 doubles when the y pass's in-place result was assigned back over
    # its own memory, which numpy does through a copy
    monkeypatch.setenv("LANDAU_THREADS", threads)
    peak, budget = _warm_peak(grid64)
    assert peak < budget
    assert peak < grid64.n ** 3 * 8


def test_workspace_shares_one_buffer_by_phase(grid16):
    # the product spectrum overlays a, grad a and grad f, which are
    # written only once the six rows of A are built; it overlaps neither
    # those rows nor the spectrum of f they are built from
    n = grid16.n
    work = Workspace.for_grid(grid16)
    spectrum, product = work.spectra
    assert work.coefficients.shape == (10, n, n, n)
    assert work.gradient.shape == (3, n, n, n)
    assert work.spectra.shape == (2, 2 * n, 2 * n, n + 1)
    assert np.shares_memory(product, work.coefficients[6:])
    assert np.shares_memory(product, work.gradient)
    assert not np.shares_memory(product, work.coefficients[:6])
    assert not np.shares_memory(product, spectrum)
    assert not np.shares_memory(spectrum, work.coefficients)
    assert not np.shares_memory(spectrum, work.gradient)
    assert not np.shares_memory(work.coefficients, work.gradient)
    buffer = work.coefficients.base
    assert work.gradient.base is buffer and work.spectra.base is buffer
    assert buffer.nbytes == (22 * n ** 3 + 16 * n ** 2) * 8
    for view in (spectrum, product):
        assert view.flags.aligned and view.ctypes.data % 16 == 0


def test_consecutive_sets_match_fresh_workspaces(grid16):
    # a set is built from f alone: whatever the previous set, or the grad f
    # written over its product spectrum, left in the workspace, the next
    # set has the bits of one built in a fresh workspace
    table = landau.kernel_table_for(grid16)
    rng = np.random.default_rng(29)
    fields = [landau.ScalarField(grid16, rng.random((16, 16, 16))) for _ in range(2)]
    fields.append(landau.maxwellian(grid16))
    work = Workspace.for_grid(grid16)
    for f in fields:
        got = landau.compute_coefficients(f, table, work)
        want = landau.compute_coefficients(f, table, Workspace.for_grid(grid16))
        for a, b in ((got.A, want.A), (got.a, want.a), (got.grad_a, want.grad_a)):
            assert np.array_equal(a.values.view(np.uint64), b.values.view(np.uint64))
        work.gradient[...] = np.nan  # grad f, as a step writes it


def test_ellipticity_range_matches_eager_formula(grid16):
    rng = np.random.default_rng(17)
    f = landau.ScalarField(grid16, rng.random((16, 16, 16)))
    c = landau.compute_coefficients(f)
    lmin, lmax = _accel.eig_range(c.A.values)
    w3 = grid16.weight(3.0)
    assert c.ellipticity_range() == (float(np.min(w3 * lmin)), float(np.max(lmax)))


def _padded_kernels(grid):
    """Real-space kernels, scalar first, with the offset-n planes zeroed."""
    n = grid.n
    kernels = np.stack([coefficients.real_space_kernel(grid, comp) for comp in COMPONENTS])
    kernels[:, n] = kernels[:, :, n] = kernels[:, :, :, n] = 0.0
    return kernels


def _mirror_signs(component):
    """Parity signs along kx and ky: -1 where the component is odd."""
    return tuple(-1.0 if component.count(axis) == 1 else 1.0 for axis in "xy")


@pytest.mark.parametrize("grid_name", ["grid8", "grid16", "grid32"])
def test_symbols_are_real(request, grid_name):
    # each of the six views of the table is the nonnegative octant of its
    # component's full rfftn symbol, and the rest of the symbol is that
    # octant mirrored by parity
    table = landau.kernel_table_for(request.getfixturevalue(grid_name))
    n = table.grid.n
    hats = sp_fft.rfftn(_padded_kernels(table.grid)[1:], axes=(1, 2, 3))
    for c, (hat, view) in enumerate(zip(hats, table.octants(), strict=True)):
        comp = COMPONENTS[c + 1]
        scale = float(np.max(np.abs(hat.real)))
        tol = 1e-13 * scale
        assert float(np.max(np.abs(hat.imag))) <= 1e-12 * scale, comp
        octant = hat.real[: n + 1, : n + 1]
        assert np.allclose(view, octant, rtol=0.0, atol=tol), comp
        sx, sy = _mirror_signs(comp)
        assert np.allclose(hat.real[n + 1 :], sx * hat.real[n - 1 : 0 : -1],
                           rtol=0.0, atol=tol), comp
        assert np.allclose(hat.real[:, n + 1 :], sy * hat.real[:, n - 1 : 0 : -1],
                           rtol=0.0, atol=tol), comp


def _full_grid_coefficients(f, table):
    """A and a by mirroring each octant onto the whole (2n, 2n, n+1) grid,
    one product with the spectrum of f, then the pruned inverse."""
    n = f.grid.n
    workers = coefficients.fft_workers()
    spec = np.empty((2 * n, 2 * n, n + 1), dtype=complex)
    fhat = coefficients._forward(f.values, spec, workers)
    a6 = np.empty((6, n, n, n))
    for c, (comp, octant) in enumerate(zip(COMPONENTS[1:], table.octants())):
        sx, sy = _mirror_signs(comp)
        sym = np.empty((2 * n, 2 * n, n + 1))
        sym[: n + 1, : n + 1] = octant
        sym[n + 1 :, : n + 1] = sx * sym[n - 1 : 0 : -1, : n + 1]
        sym[:, n + 1 :] = sy * sym[:, n - 1 : 0 : -1]
        spec = sp_fft.ifft(fhat * sym, axis=1, workers=workers)[:, :n]
        spec = sp_fft.ifft(spec, axis=0, workers=workers)[:n]
        a6[c] = sp_fft.irfft(spec, n=2 * n, axis=-1, workers=workers)[..., :n]
    a6 *= f.grid.cell_volume()
    return a6, a6[0] + a6[1] + a6[2]


@pytest.mark.parametrize("grid_name", ["grid8", "grid16", "grid32"])
def test_quadrant_products_match_full_grid_mirroring(request, grid_name):
    # the quadrant-by-quadrant products against octant views reproduce the
    # full-grid symbol route bit for bit
    grid = request.getfixturevalue(grid_name)
    table = landau.kernel_table_for(grid)
    n = grid.n
    rng = np.random.default_rng(19)
    for values in (rng.random((n, n, n)), landau.maxwellian(grid).values):
        f = landau.ScalarField(grid, values)
        c = landau.compute_coefficients(f, table)
        a6, a = _full_grid_coefficients(f, table)
        assert np.array_equal(c.A.values, a6)
        assert np.array_equal(c.a.values, a)


@pytest.mark.parametrize("grid_name", ["grid8", "grid16"])
def test_matches_full_padded_convolution(request, grid_name):
    grid = request.getfixturevalue(grid_name)
    table = landau.kernel_table_for(grid)
    n, m = grid.n, 2 * grid.n
    rng = np.random.default_rng(5)
    f = landau.ScalarField(grid, rng.random((n, n, n)))
    padded = np.zeros((m, m, m))
    padded[:n, :n, :n] = f.values
    fhat = sp_fft.rfftn(padded)
    spectral = _spectral(f, table)
    for comp, kernel in zip(COMPONENTS, _padded_kernels(grid)):
        full = sp_fft.irfftn(fhat * sp_fft.rfftn(kernel), s=(m, m, m))
        want = full[:n, :n, :n] * grid.cell_volume()
        got = spectral[comp]
        scale = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(got - want))) <= 1e-13 * scale, comp


@pytest.mark.parametrize("grid_name", ["grid8", "grid16"])
def test_table_holds_only_real_symbols(request, grid_name):
    grid = request.getfixturevalue(grid_name)
    table = landau.kernel_table_for(grid)
    n = grid.n
    arrays = [getattr(table, f.name) for f in dataclasses.fields(table)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert not any(np.iscomplexobj(a) for a in arrays)
    # the nonnegative octant of the xx and xy symbols, nothing else
    assert sum(a.nbytes for a in arrays) == coefficients.table_nbytes(n)
    assert coefficients.table_nbytes(n) == 2 * (n + 1) ** 3 * 8
