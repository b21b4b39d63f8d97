"""Scalar functionals: conserved quantities, entropy, Fisher information,
level-set energies, equilibrium distance, and the bulk split."""
import math
import tracemalloc

import numpy as np
import pytest

import landau
from landau.cli_io import Trajectory
from landau.diagnostics import record
from landau.solver import make_state

from conftest import Snapshot
from oracle_values import (
    ENTROPY_MU,
    LP_1_5_M_4_5_MU,
    LS_A_MU,
    LS_B_MU,
    LS_LEVEL,
    MASS_MU_N64,
)


@pytest.fixture(scope="module")
def mu64(grid64):
    return landau.maxwellian(grid64)


@pytest.fixture(scope="module")
def mu_traj(grid64, mu64):
    # frozen equilibrium at three instants: every functional is constant
    snaps = (
        Snapshot(mu64, 0.0, 0),
        Snapshot(mu64, 0.5, 1),
        Snapshot(mu64, 1.0, 2),
    )
    return Trajectory(grid64, snaps, (), 1.0)


def test_record_in_lent_scratch_is_the_same_record(grid32):
    # gradients, masks and compactions go into the lent scratch: the record
    # is the same, to the bit, as one that allocates them, with zeros and
    # values below the Fisher floor for the compactions to drop
    x, y, z = grid32.axes
    vals = np.exp(-0.5 * ((x - 1.0) ** 2 + y * y + z * z)) * (1.0 + 0.1 * np.sin(y))
    vals[vals < 1e-9] = 0.0
    vals[:2] = 1e-15
    state = make_state(landau.ScalarField(grid32, vals))
    plain = record(state, (1.5, 2.0), (4.5,))
    scratch = np.full((4,) + vals.shape, np.nan)
    record(state, (1.5, 2.0), (4.5,), scratch=scratch)  # builds the weight
    tracemalloc.start()
    try:
        lent = record(state, (1.5, 2.0), (4.5,), scratch=scratch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lent == plain
    # 4.8 n^3 doubles of temporaries without the scratch; what is left is
    # the moments' products and chunks of the compactions
    assert peak < 1.5 * grid32.n ** 3 * 8


def test_record_equilibrium_values(mu64):
    rec = record(make_state(mu64))
    assert rec.mass == pytest.approx(MASS_MU_N64, abs=1e-13)
    assert rec.energy == pytest.approx(3.0, rel=1e-9)
    assert max(abs(c) for c in rec.momentum) <= 1e-15
    assert rec.entropy == pytest.approx(ENTROPY_MU, abs=1e-11)
    # direct form converges faster than the square-root form here
    assert rec.fisher == pytest.approx(3.0, abs=5e-3)
    assert rec.fisher_sqrt_form == pytest.approx(3.0, abs=0.1)
    assert rec.linf == float(mu64.values.max())
    assert rec.lp_norms[(1.5, 4.5)] == pytest.approx(LP_1_5_M_4_5_MU, rel=1e-12)


def test_record_scaling(grid64, mu64):
    rec = record(make_state(landau.ScalarField(grid64, 2.0 * mu64.values)))
    assert rec.mass == pytest.approx(2.0, rel=1e-9)
    assert rec.energy == pytest.approx(6.0, rel=1e-9)
    # i(cf) = c i(f)
    assert rec.fisher == pytest.approx(6.0, rel=2e-3)


def test_record_degenerate(grid16):
    z = landau.ScalarField(grid16, np.zeros((16, 16, 16)))
    # the general quadrature gives exactly 0.0 on the all-zero field
    rec = record(make_state(z))
    assert rec.mass == 0.0
    assert rec.entropy == 0.0
    assert rec.fisher == 0.0


def test_equilibrium_distance_zero(mu64):
    l1, l2m, linf = landau.equilibrium_distance(make_state(mu64))
    assert l1 == 0.0 and l2m == 0.0 and linf == 0.0


def test_equilibrium_distance_gates(grid32, grid64, mu64):
    doubled = landau.ScalarField(grid64, 2.0 * mu64.values)
    with pytest.raises(ValueError, match="state is not normalized: mass"):
        landau.equilibrium_distance(doubled)
    mu32 = landau.maxwellian(grid32)
    shifted = landau.ScalarField(grid32, np.roll(mu32.values, 1, axis=0))
    with pytest.raises(ValueError, match="nonzero momentum"):
        landau.equilibrium_distance(shifted)
    hot = (2.0 * np.pi * 1.3) ** -1.5 * np.exp(-0.5 * grid32.radius2 / 1.3)
    with pytest.raises(ValueError, match="state is not normalized: energy"):
        landau.equilibrium_distance(landau.ScalarField(grid32, hot))


def test_equilibrium_distance_positive(run_bimax32):
    l1, l2m, linf = landau.equilibrium_distance(run_bimax32.traj.states[0])
    assert l1 > 0.1
    assert l2m > 0.0 and linf > 0.0


def test_level_set_energy_oracle(mu_traj):
    win = landau.level_set_energy(mu_traj, LS_LEVEL, 1.5, 4.5)
    assert win.n_snapshots == 3
    assert win.a_sup == pytest.approx(LS_A_MU, rel=5e-4)
    # the gradient term has a cusp at the level boundary, so the discrete
    # value sits visibly below the continuum one at n=64 and climbs slowly
    assert win.b_int < LS_B_MU
    assert win.b_int == pytest.approx(LS_B_MU, rel=0.35)
    assert win.e == pytest.approx(win.a_sup + win.b_int)


def test_level_set_energy_b_refines(grid32, mu_traj):
    mu32 = landau.maxwellian(grid32)
    snaps = (Snapshot(mu32, 0.0, 0), Snapshot(mu32, 1.0, 1))
    traj32 = Trajectory(grid32, snaps, (), 1.0)
    w32 = landau.level_set_energy(traj32, LS_LEVEL, 1.5, 4.5)
    w64 = landau.level_set_energy(mu_traj, LS_LEVEL, 1.5, 4.5)
    assert w32.b_int < w64.b_int < LS_B_MU


def test_level_set_energy_single_snapshot(mu_traj):
    win = landau.level_set_energy(mu_traj, LS_LEVEL, 1.5, 4.5, window=(0.0, 0.0))
    assert win.n_snapshots == 1
    assert win.b_int == 0.0
    assert win.e == win.a_sup


def test_level_set_energy_validation(mu_traj):
    with pytest.raises(ValueError, match="level must be nonnegative"):
        landau.level_set_energy(mu_traj, -1.0)
    with pytest.raises(ValueError, match="empty window"):
        landau.level_set_energy(mu_traj, LS_LEVEL, window=(2.0, 3.0))


class _CountedSnapshot:
    """A snapshot that counts the reads of its field."""

    def __init__(self, f, t, reads):
        self._f, self.t, self.step_count, self._reads = f, t, 0, reads

    @property
    def f(self):
        self._reads.append(self.t)
        return self._f


def test_level_set_energies_read_each_snapshot_once(grid16):
    # rungs with nested, disjoint and whole windows share one walk: every
    # snapshot is read once, and each rung equals its one-rung call
    mu = landau.maxwellian(grid16).values
    reads = []
    snaps = tuple(_CountedSnapshot(landau.ScalarField(grid16, (1.0 + 0.1 * i) * mu),
                                   0.25 * i, reads) for i in range(5))
    traj = Trajectory(grid16, snaps, (), 1.0)
    rungs = [(0.01, 1.5, 4.5, None), (0.02, 1.5, 4.5, (0.25, 1.0)),
             (0.005, 2.0, 6.0, (0.5, 1.0)), (0.0, 1.5, 4.5, (0.0, 0.0))]
    wins = landau.level_set_energies(traj, rungs)
    assert sorted(reads) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert [w.n_snapshots for w in wins] == [5, 4, 3, 1]
    for rung, win in zip(rungs, wins):
        assert landau.level_set_energy(traj, *rung) == win
    reads.clear()
    with pytest.raises(ValueError, match="empty window"):
        landau.level_set_energies(traj, rungs + [(0.01, 1.5, 4.5, (2.0, 3.0))])
    assert reads == []  # every window is checked before the first read


def test_eps_regularity_is_level_set_e(mu_traj):
    eps = landau.eps_regularity(mu_traj, LS_LEVEL, window=(0.0, 1.0))
    win = landau.level_set_energy(mu_traj, LS_LEVEL, 1.5, 4.5, window=(0.0, 1.0))
    assert eps == win.e


def test_level_above_max_costs_no_gradient(grid16, monkeypatch):
    # a level above max f leaves no excess on any snapshot: the excess
    # terms are exactly zero and take no gradient
    from landau import diagnostics

    mu = landau.maxwellian(grid16)
    traj = Trajectory(grid16, (Snapshot(mu, 0.0, 0), Snapshot(mu, 1.0, 1)), (), 1.0)
    level = 2.0 * float(mu.values.max())
    calls = []
    gradient_values = landau.grid_field.gradient_values

    def counted(*args, **kwargs):
        calls.append(1)
        return gradient_values(*args, **kwargs)

    monkeypatch.setattr(landau.grid_field, "gradient_values", counted)
    win = landau.level_set_energy(traj, level)
    assert win.e == 0.0 and win.a_sup == 0.0 and win.b_int == 0.0
    assert calls == []
    # the bulk series: y and F vanish the same way; only the capped bulk
    # z, G takes its one gradient per snapshot, one call per axis
    series = [diagnostics.bulk_quantities(s, level, 4.5) for s in traj.states]
    assert [row[:2] for row in series] == [(0.0, 0.0)] * 2
    assert len(calls) == 2 * 3


@pytest.mark.parametrize("grid_name", ["grid16", "grid32"])
def test_moments_match_meshgrid(request, grid_name):
    # frozen construction: sums against the (3, n, n, n) coordinate cube
    from landau.diagnostics import moments

    grid = request.getfixturevalue(grid_name)
    coords = np.meshgrid(grid.axis, grid.axis, grid.axis, indexing="ij")
    r2 = coords[0] * coords[0] + coords[1] * coords[1] + coords[2] * coords[2]
    vol = grid.cell_volume()
    rng = np.random.default_rng(5)
    for vals in (rng.random((grid.n,) * 3), landau.maxwellian(grid).values):
        mass, momentum, energy = moments(grid, vals)
        assert mass == vol * float(np.sum(vals))
        assert momentum == tuple(vol * float(np.sum(c * vals)) for c in coords)
        assert energy == vol * float(np.sum(r2 * vals))


def test_bulk_quantities_vacuous_threshold(grid16):
    mu = landau.maxwellian(grid16)
    snap = Snapshot(mu, 0.0, 0)
    K = 2.0 * float(mu.values.max())
    y, f_term, z, g_term = landau.bulk_quantities(snap, K)
    assert y == 0.0 and f_term == 0.0
    assert z > 0.0 and g_term > 0.0


def test_bulk_quantities_split(grid16):
    # threshold inside the range: both halves are active and y decreases in K
    mu = landau.maxwellian(grid16)
    snap = Snapshot(mu, 0.0, 0)
    m = float(mu.values.max())
    y1, f1, z1, g1 = landau.bulk_quantities(snap, 0.2 * m)
    y2, f2, z2, g2 = landau.bulk_quantities(snap, 0.4 * m)
    assert y1 > y2 > 0.0
    assert f1 > 0.0 and z1 > 0.0
    assert z2 >= z1


def _full_grid_excess(grid, values, level, p, m):
    """The excess integrals as plain full-grid expressions: the whole n^3
    excess, np.gradient with second-order edges, and full sums."""
    x = grid.axis
    r2 = x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2
    e = np.maximum(values - level, 0.0)
    vol = grid.h ** 3
    a_val = vol * np.sum((1.0 + r2) ** (0.5 * m) * e ** p)
    grad = np.gradient(e ** (0.5 * p), grid.h, edge_order=2)
    grad2 = grad[0] ** 2 + grad[1] ** 2 + grad[2] ** 2
    b_val = vol * np.sum((1.0 + r2) ** (0.5 * (m - 3.0)) * grad2)
    return a_val, b_val


def _bumps(grid, centers, widths, heights):
    x = grid.axis
    out = np.zeros((grid.n,) * 3)
    for (cx, cy, cz), s, a in zip(centers, widths, heights):
        r2 = ((x[:, None, None] - cx) ** 2 + (x[None, :, None] - cy) ** 2
              + (x[None, None, :] - cz) ** 2)
        out += a * np.exp(-0.5 * r2 / (s * s))
    return out


def _oracle_fields(grid):
    rng = np.random.default_rng(27)
    l = grid.l
    yield "random bumps", _bumps(grid, rng.uniform(-0.6 * l, 0.6 * l, (3, 3)),
                                 rng.uniform(0.6, 1.5, 3), rng.uniform(0.5, 2.0, 3))
    yield "face", _bumps(grid, [(l, 0.3, -1.1)], [1.2], [1.0])
    yield "corner", _bumps(grid, [(-l, l, -l)], [1.5], [1.0])


@pytest.mark.parametrize("p, m", [(1.5, 4.5), (1.5, 6.0), (2.0, 4.5), (2.0, 6.0)])
def test_excess_box_matches_full_grid(grid32, p, m, monkeypatch):
    # the excess integrals on the bounding box equal the plain full-grid
    # sums to round-off, for interior supports, supports on a face and in
    # a corner, and level 0 (the box is the whole grid); a level at or
    # above max f gives exactly 0.0 and takes no gradient
    from landau import diagnostics

    calls = []
    gradient_values = landau.grid_field.gradient_values

    def counted(grid, values, out=None, axis=None):
        calls.append(values.shape)
        return gradient_values(grid, values, out, axis)

    monkeypatch.setattr(landau.grid_field, "gradient_values", counted)
    for name, vals in _oracle_fields(grid32):
        maxima = diagnostics._axis_maxima(vals)
        top = float(vals.max())
        for level in (0.0, 0.05 * top, 0.3 * top, 0.8 * top):
            got = diagnostics._excess_integrals(grid32, vals, level, p, m, maxima)
            want = _full_grid_excess(grid32, vals, level, p, m)
            for g, w in zip(got, want):
                assert w > 0.0, (name, level)
                assert abs(g - w) <= 1e-13 * w, (name, level, g, w)
        # level 0: the whole grid, one call per axis
        assert calls[:3] == [(32, 32, 32)] * 3
        assert all(shape != (32, 32, 32) for shape in calls[3:]), name
        calls.clear()
        for level in (top, 2.0 * top):
            got = diagnostics._excess_integrals(grid32, vals, level, p, m, maxima)
            assert got == (0.0, 0.0)
        assert calls == []


def test_excess_functionals_run_on_the_support(grid32, monkeypatch):
    # a compact bump: no excess functional hands gradient_values an n^3
    # array, so their work scales with the support, not the grid
    from landau import diagnostics

    x = grid32.axis
    r2 = ((x[:, None, None] - 1.0) ** 2 + x[None, :, None] ** 2
          + (x[None, None, :] + 0.5) ** 2)
    bump = np.maximum(1.0 - r2 / 4.0, 0.0) ** 2
    snaps = tuple(Snapshot(landau.ScalarField(grid32, (1.0 - 0.1 * i) * bump), 0.5 * i, i)
                  for i in range(3))
    traj = Trajectory(grid32, snaps, (), 1.0)
    shapes = []
    gradient_values = landau.grid_field.gradient_values

    def recorded(grid, values, out=None, axis=None):
        shapes.append(values.shape)
        return gradient_values(grid, values, out, axis)

    monkeypatch.setattr(landau.grid_field, "gradient_values", recorded)
    rungs = [(level, p, 4.5, None) for level in (0.0, 0.1, 0.5) for p in (1.5, 2.0)]
    wins = landau.level_set_energies(traj, rungs)
    assert all(w.e > 0.0 for w in wins)
    for snap in snaps:
        y, f_term, _, _ = landau.bulk_quantities(snap, 0.2)
        assert y > 0.0 and f_term > 0.0
    assert len(shapes) == 3 * (3 * len(rungs) + 2 * 3)  # one call per axis
    assert max(math.prod(shape) for shape in shapes) < grid32.n ** 3 // 4
