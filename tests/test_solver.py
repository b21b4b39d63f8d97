"""Flux assembly, conservation, step control, and the run loop."""
import dataclasses
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

import landau
from landau import _accel, solver
from landau.cli_io import DiagnosticsConfig, FileSnapshot, RunControlConfig, run_trajectory
from landau.coefficients import CoefficientSet, Workspace
from landau.diagnostics import moments
from landau.errors import NumericError, StiffnessError
from landau.grid_field import gradient_values
from landau.solver import StepControl, make_state, stable_dt, step


# symmetric component of A for each (axis, axis) pair: xx yy zz xy xz yz
_IDX = {
    (0, 0): 0, (1, 1): 1, (2, 2): 2,
    (0, 1): 3, (1, 0): 3,
    (0, 2): 4, (2, 0): 4,
    (1, 2): 5, (2, 1): 5,
}


def reference_div_flux(f, g, a6, ga, h):
    """Face-by-face assembly of div(A grad f - f grad a), apart from _accel.

    Each axis gets an explicit array of its n+1 faces: the two wall faces
    are zero, each interior face carries A grad f - f grad a with
    coefficients, tangential derivatives and f averaged over the two
    adjacent cells and the normal derivative a two-point difference.  The
    face arrays are then differenced back onto the cells.
    """
    n = f.shape[0]
    faces = []
    for d in range(3):
        lo = tuple(slice(None, -1) if e == d else slice(None) for e in range(3))
        hi = tuple(slice(1, None) if e == d else slice(None) for e in range(3))
        face = 0.5 * (a6[_IDX[d, d]][lo] + a6[_IDX[d, d]][hi]) * (f[hi] - f[lo]) / h
        for e in range(3):
            if e != d:
                ade = 0.5 * (a6[_IDX[d, e]][lo] + a6[_IDX[d, e]][hi])
                face = face + ade * 0.5 * (g[e][lo] + g[e][hi])
        face = face - 0.5 * (ga[d][lo] + ga[d][hi]) * 0.5 * (f[lo] + f[hi])
        shape = [n, n, n]
        shape[d] = n + 1
        arr = np.zeros(shape)
        arr[tuple(slice(1, n) if e == d else slice(None) for e in range(3))] = face
        faces.append(arr)
    return sum(np.diff(faces[d], axis=d) for d in range(3)) / h


def run_to(f, rc, outdir):
    """``run_trajectory`` of f under rc, its snapshots written to outdir."""
    os.makedirs(outdir, exist_ok=True)
    return run_trajectory(f, rc, DiagnosticsConfig(), str(outdir))


def identity_coefficients(grid):
    """A = Id, a = 0: reduces the scheme to the plain heat flux."""
    n = grid.n
    z = np.zeros((n, n, n))
    mat = np.zeros((6, n, n, n))
    mat[0] = mat[1] = mat[2] = 1.0
    return CoefficientSet(grid, z, np.zeros((3, n, n, n)), mat)


def test_step_control_validation():
    with pytest.raises(ValueError, match=r"cfl must lie in \(0, 1\]"):
        StepControl(cfl=0.0)
    with pytest.raises(ValueError, match=r"cfl must lie in \(0, 1\]"):
        StepControl(cfl=1.5)
    with pytest.raises(ValueError, match="dt_min must be positive"):
        StepControl(dt_min=0.0)
    with pytest.raises(ValueError, match="dt_min must not exceed dt_max"):
        StepControl(dt_min=0.5, dt_max=0.1)


def test_mass_telescoping(grid16):
    mu = landau.maxwellian(grid16)
    state = make_state(mu)
    control = StepControl(cfl=0.5, dt_min=1e-9, dt_max=0.05)
    m0 = moments(grid16, state.f.values)[0]
    for _ in range(5):
        state = step(state, control)
        m = moments(grid16, state.f.values)[0]
        assert abs(m - m0) / m0 <= 1e-13
        m0 = m


def test_rhs_cell_sum_telescopes(grid16):
    # every interior face enters two cells with opposite signs and the wall
    # faces carry nothing, so the cell sum of the rhs cancels to round-off
    rng = np.random.default_rng(11)
    shape = (16, 16, 16)
    f = rng.random(shape)
    a6 = rng.standard_normal((6,) + shape)
    ga = rng.standard_normal((3,) + shape)
    rhs = _accel.div_flux(f, gradient_values(grid16, f), a6, ga, grid16.h)
    assert abs(float(np.sum(rhs))) <= 1e-13 * float(np.sum(np.abs(rhs)))


def test_divergence_matches_fused_kernel(grid16):
    # the explicit face assembly and the production kernel must agree
    mu = landau.maxwellian(grid16)
    coeffs = landau.compute_coefficients(make_state(mu).f)
    g = gradient_values(grid16, mu.values)
    a6, ga = coeffs.A, coeffs.grad_a
    ref = reference_div_flux(mu.values, g, a6, ga, grid16.h)
    fused = _accel.div_flux(mu.values, g, a6, ga, grid16.h)
    scale = float(np.max(np.abs(ref)))
    assert float(np.max(np.abs(fused - ref))) <= 1e-12 * scale


def test_identity_coefficients_give_heat_flux(grid16):
    rng = np.random.default_rng(5)
    vals = 1.0 + 0.1 * rng.random((16, 16, 16))
    c = identity_coefficients(grid16)
    h = grid16.h
    div = _accel.div_flux(vals, gradient_values(grid16, vals), c.A,
                          c.grad_a, h)
    lap = (
        np.diff(vals, 2, axis=0)[:, 1:-1, 1:-1]
        + np.diff(vals, 2, axis=1)[1:-1, :, 1:-1]
        + np.diff(vals, 2, axis=2)[1:-1, 1:-1, :]
    ) / h**2
    assert np.allclose(div[1:-1, 1:-1, 1:-1], lap, rtol=0, atol=1e-13)


def test_zero_field_fixed_point(grid16):
    f = landau.ScalarField(grid16, np.zeros((16, 16, 16)))
    state = make_state(f)
    # the all-zero field has no coefficient set and no ellipticity
    assert state.c0_hat == 0.0
    assert state.sup_A == 0.0
    control = StepControl(cfl=0.5, dt_min=1e-9, dt_max=0.25)
    # no dynamics: the step falls back to dt_max and nothing moves
    assert stable_dt(state, control) == 0.25
    nxt = step(state, control)
    assert nxt.t == pytest.approx(0.25)
    assert np.all(nxt.f.values == 0.0)


def test_maxwellian_near_stationary():
    # the sampled equilibrium is stationary up to discretization error,
    # and the rhs residual shrinks under refinement
    l2 = {}
    for n in (16, 32):
        g = landau.make_grid(n, 8.0)
        mu = landau.maxwellian(g)
        coeffs = landau.compute_coefficients(make_state(mu).f)
        rhs = _accel.div_flux(mu.values, gradient_values(g, mu.values),
                              coeffs.A, coeffs.grad_a, g.h)
        l2[n] = float(np.sqrt(np.mean(rhs**2)))
        rel_rate = float(np.max(np.abs(rhs))) / float(mu.values.max())
        assert rel_rate <= 1e-2
    assert l2[32] <= 0.55 * l2[16]


def test_stable_dt_formula(grid16):
    state = make_state(landau.maxwellian(grid16))
    control = StepControl(cfl=0.4, dt_min=1e-9, dt_max=10.0)
    coeffs = landau.compute_coefficients(state.f)
    ga = coeffs.grad_a
    gmax = np.sqrt(float(np.max(ga[0] ** 2 + ga[1] ** 2 + ga[2] ** 2)))
    sup_A = coeffs.ellipticity_range()[1]
    expected = 0.4 * grid16.h**2 / (6.0 * sup_A + grid16.h * gmax)
    assert stable_dt(state, control) == pytest.approx(expected, rel=1e-14)
    # dt_max clamps from above
    tight = StepControl(cfl=0.4, dt_min=1e-9, dt_max=1e-3)
    assert stable_dt(state, tight) == 1e-3


def test_stiffness_error(grid16):
    state = make_state(landau.maxwellian(grid16))
    control = StepControl(cfl=0.01, dt_min=1.0, dt_max=2.0)
    with pytest.raises(StiffnessError, match="stiffness: stable step"):
        stable_dt(state, control)


def test_nan_in_coefficient_set_raises(grid16, monkeypatch):
    # the eigenvalue range reads a nan off-diagonal as isotropic and stays
    # finite, so the flux divergence is what shows the set is not
    compute = solver.compute_coefficients

    def poisoned(f, work=None):
        c = compute(f, work)
        c.A[3][4, 5, 6] = np.nan
        assert all(map(math.isfinite, c.ellipticity_range()))
        return c

    monkeypatch.setattr(solver, "compute_coefficients", poisoned)
    with pytest.raises(NumericError, match="non-finite flux divergence"):
        make_state(landau.maxwellian(grid16))


def test_undershoot_tracking(grid16):
    vals = landau.maxwellian(grid16).values.copy()
    vals[0, 0, 0] = -1e-3
    state = make_state(landau.ScalarField(grid16, vals))
    assert state.undershoot == pytest.approx(1e-3)


def test_positivity_clip_accounting(grid16):
    vals = landau.maxwellian(grid16).values.copy()
    vals[0, 0, 0] = -1e-6
    f = landau.ScalarField(grid16, vals)
    state = make_state(f)
    control = StepControl(cfl=0.5, dt_min=1e-9, dt_max=1e-4, positivity_clip=True)
    total0 = float(np.sum(state.f.values))
    nxt = step(state, control)
    # negatives are clipped, the clipped mass is logged, the total is restored
    assert float(np.min(nxt.f.values)) >= 0.0
    assert nxt.clipped_mass > 0.0
    assert float(np.sum(nxt.f.values)) == pytest.approx(total0, rel=1e-12)


def test_run_validation(grid16, tmp_path):
    mu = landau.maxwellian(grid16)
    with pytest.raises(ValueError, match="T must be positive"):
        run_to(mu, RunControlConfig(T=0.0), tmp_path)
    neg = mu.values.copy()
    neg[0, 0, 0] = -1.0
    with pytest.raises(ValueError, match="initial data must be nonnegative"):
        run_to(landau.ScalarField(grid16, neg), RunControlConfig(T=1.0), tmp_path)
    assert os.listdir(tmp_path) == []


def test_run_snapshot_every(grid16, tmp_path):
    mu = landau.maxwellian(grid16)
    rc = RunControlConfig(T=0.1, cfl=0.5, dt_min=1e-9, dt_max=0.02, snapshot_cadence=2)
    traj = run_to(mu, rc, tmp_path)
    # every second step from t=0, endpoint always kept
    assert [s.step_count for s in traj.states] == [0, 2, 4, 5]
    assert traj.states[0].t == 0.0
    assert traj.states[-1].t == pytest.approx(0.1, rel=1e-12)
    # records cover every step including t=0
    assert len(traj.records) == traj.states[-1].step_count + 1
    assert traj.records[0].t == 0.0
    assert all(type(s) is FileSnapshot for s in traj.states)


def test_run_lands_exactly_on_T(grid16, tmp_path):
    mu = landau.maxwellian(grid16)
    traj = run_to(mu, RunControlConfig(T=0.1, cfl=0.5, dt_min=1e-9, dt_max=0.03), tmp_path)
    assert traj.states[-1].t == pytest.approx(0.1, rel=1e-12)


def test_eig_range_once_per_recorded_state(grid16, monkeypatch, tmp_path):
    # the ellipticity range is computed once per state, when it is built,
    # and read by diagnostics.record and stable_dt; Heun-stage coefficient
    # sets never compute it
    calls = []
    eig_range = _accel.eig_range

    def counting(a6, out=None):
        calls.append(1)
        return eig_range(a6, out)

    monkeypatch.setattr(_accel, "eig_range", counting)
    rc = RunControlConfig(T=0.03, cfl=0.5, dt_min=1e-9, dt_max=0.01)
    traj = run_to(landau.maxwellian(grid16), rc, tmp_path)
    steps = traj.states[-1].step_count
    assert steps == 3
    assert len(traj.records) == steps + 1
    assert len(calls) == steps + 1


def test_step_releases_stage_coefficients(grid16):
    # a coefficient set holds 10 n^3 doubles (a, grad a, A); a step without
    # the run's workspace allocates one workspace (22 n^3 + 16 n^2, its
    # product spectrum overlaying a, grad a and grad f) for both of its
    # sets.  With a 29 n^3 workspace, separate spectrum pair, the step
    # peaked at 39.5 n^3 doubles, against 44 plus the pair when the stage
    # set was alive while the new state's set was built
    state = make_state(landau.maxwellian(grid16))
    control = StepControl()
    step(state, control)  # warms the kernel table and state's ellipticity range
    tracemalloc.start()
    try:
        step(state, control)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * grid16.n ** 3 * 8


@pytest.mark.parametrize("clip", [False, True])
def test_heun_update_matches_the_plain_expression(grid16, clip):
    # the step builds its stage and the new f in place, the new f in the
    # second stage's memory; every element sees the same operations on
    # the same operands as the plain expressions, so the bits agree
    vals = landau.maxwellian(grid16).values * (1.0 + 0.5 * grid16.axes[0] ** 2 / 64.0)
    if clip:  # a dip below zero for the clip to remove
        vals = vals - 0.25 * float(np.min(vals[vals > 1e-12]))
    state = make_state(landau.ScalarField(grid16, vals))
    control = StepControl(cfl=0.5, dt_max=0.05, positivity_clip=clip)
    dt = stable_dt(state, control)
    new = step(state, control)
    f0, k1 = state.f.values, state.rhs
    stage = f0 + dt * k1
    c = landau.compute_coefficients(landau.ScalarField(grid16, stage))
    k2 = _accel.div_flux(stage, gradient_values(grid16, stage), c.A,
                         c.grad_a, grid16.h)
    want = f0 + 0.5 * dt * (k1 + k2)
    if clip:
        assert np.any(want < 0.0)
        total = float(np.sum(want))
        want = np.maximum(want, 0.0)
        want = want * (total / float(np.sum(want)))
    assert np.array_equal(new.f.values.view(np.uint64), want.view(np.uint64))


def test_state_keeps_its_rhs_not_its_coefficients(grid16):
    # a state holds the flux divergence at f with f's own coefficients and
    # three scalars of that set, each the same bits as from a fresh set
    vals = landau.maxwellian(grid16).values * (1.0 + 0.5 * grid16.axes[0] ** 2 / 64.0)
    first = make_state(landau.ScalarField(grid16, vals))
    later = step(first, StepControl(cfl=0.5, dt_max=0.05))
    for state in (first, later):
        held = [getattr(state, f.name) for f in dataclasses.fields(state)]
        assert not any(isinstance(v, CoefficientSet) for v in held)
        c = landau.compute_coefficients(state.f)
        fv = state.f.values
        want = _accel.div_flux(fv, gradient_values(grid16, fv), c.A,
                               c.grad_a, grid16.h)
        assert np.array_equal(state.rhs.view(np.uint64), want.view(np.uint64))
        ga = c.grad_a
        assert state.grad_a_max == math.sqrt(
            float(np.max(ga[0] ** 2 + ga[1] ** 2 + ga[2] ** 2)))
        assert (state.c0_hat, state.sup_A) == c.ellipticity_range()


def test_warm_step_allocates_no_coefficient_set(grid32):
    # with the run's workspace, a step writes both of its coefficient sets
    # into that one array.  The stage set used to be allocated inside the
    # step: its warm peak was 19.6 n^3 doubles at n = 32, and this bound is
    # that figure less one set of 10 n^3
    n = grid32.n
    work = Workspace.for_grid(grid32)
    state = make_state(landau.maxwellian(grid32), 0.0, work)
    control = StepControl()
    step(state, control, work=work)  # warms the kernel table
    tracemalloc.start()
    try:
        step(state, control, work=work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 9.6 * n ** 3 * 8


def test_run_frees_its_spectrum_pair(grid16, tmp_path):
    # the spectrum pair belongs to the run's workspace: once the run
    # returns, no spectrum-sized array is left, on the calling thread or
    # elsewhere.  A fresh thread makes the check independent of what
    # earlier tests ran on this one.
    n = grid16.n
    landau.kernel_table_for(grid16)
    f = landau.maxwellian(grid16)
    spectrum = (2 * n) ** 2 * (n + 1) * 16
    held = []

    def run_and_look():
        run_to(f, RunControlConfig(T=0.02, dt_max=0.01), tmp_path)
        snapshot = tracemalloc.take_snapshot()
        held.extend(t.size for t in snapshot.traces if t.size >= spectrum)

    tracemalloc.start()
    try:
        worker = threading.Thread(target=run_and_look)
        worker.start()
        worker.join()
    finally:
        tracemalloc.stop()
    assert held == []


def _bimaxwellian(grid):
    x, y, z = grid.axes
    r2 = y * y + z * z
    return landau.ScalarField(grid, 0.5 * (np.exp(-0.5 * ((x - 1.2) ** 2 + r2))
                                           + np.exp(-0.5 * ((x + 1.2) ** 2 + r2))))


@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("lam", [2.0, 0.5])
@pytest.mark.parametrize("bound", ["dt_max", "cfl"])
def test_critical_scaling_is_exact(n, lam, bound, tmp_path):
    # the equation is invariant under f -> lam^2 f(lam^2 t, lam v).  On the
    # grid (n, l / lam) the nodes are v / lam, so lam^2 f has the same node
    # array times lam^2, and for lam a power of two every scaling of the
    # kernel table, the cell volume and the step is exact: the second run
    # is lam^2 times the first, bit for bit, at every snapshot.  The two
    # runs go back to back, so no buffer may carry state between runs.
    s = lam ** -2
    if bound == "dt_max":  # three steps of dt_max
        rc = RunControlConfig(T=0.03, dt_max=0.01, snapshot_cadence=1)
    else:  # the CFL bound sets every step but the last
        rc = RunControlConfig(T=0.025, cfl=0.02, dt_max=math.inf, snapshot_cadence=1)
    scaled = dataclasses.replace(rc, T=rc.T * s, dt_min=rc.dt_min * s,
                                 dt_max=rc.dt_max * s)
    f = _bimaxwellian(landau.make_grid(n, 8.0))
    g = landau.ScalarField(landau.make_grid(n, 8.0 / lam), f.values / s)
    first = run_to(f, rc, tmp_path / "first")
    second = run_to(g, scaled, tmp_path / "second")
    assert len(first.states) == len(second.states) >= 4
    for a, b in zip(first.states, second.states):
        assert (b.t, b.step_count) == (a.t * s, a.step_count)
        assert np.array_equal(b.f.values, a.f.values / s)


# the cube symmetries the oracle applies: how each maps a field, and which
# component of A, with which sign, lands in each slot (xx yy zz xy xz yz)
_CUBE_SYMMETRIES = {
    "swap_xy": (lambda v: v.transpose(1, 0, 2), (1, 0, 2, 3, 5, 4), (1,) * 6),
    "reflect_x": (lambda v: v[::-1], (0, 1, 2, 3, 4, 5), (1, 1, 1, -1, -1, 1)),
}


@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("symmetry", sorted(_CUBE_SYMMETRIES))
def test_run_commutes_with_cube_symmetries(n, symmetry, tmp_path):
    # the equation commutes with every symmetry of the cube, and so does the
    # grid: running the swapped or reflected datum gives the swapped or
    # reflected f, and its A is that of f with its components permuted and
    # sign-flipped; the routes differ only in the order of their rounding
    move, order, signs = _CUBE_SYMMETRIES[symmetry]
    grid = landau.make_grid(n, 8.0)
    x, y, z = grid.axes
    f0 = (np.exp(-0.5 * ((x - 0.9) ** 2 / 1.4 + (y + 0.4) ** 2 / 0.7 + (z - 0.2) ** 2))
          + 0.4 * np.exp(-0.5 * ((x + 1.1) ** 2 + (y - 0.8) ** 2 / 1.6 + z * z / 0.6
                                 - 0.5 * x * y)))
    rc = RunControlConfig(T=0.2, dt_max=0.05, snapshot_cadence=1)
    runs = [run_to(landau.ScalarField(grid, v), rc, tmp_path / name)
            for name, v in (("f0", f0), ("moved", np.ascontiguousarray(move(f0))))]
    assert len(runs[0].states) == len(runs[1].states) == 5
    scale = float(np.max(f0))
    for a, b in zip(*(r.states for r in runs)):
        assert float(np.max(np.abs(b.f.values - move(a.f.values)))) <= 1e-13 * scale
    A, moved_A = (landau.compute_coefficients(r.states[-1].f).A for r in runs)
    scale = float(np.max(np.abs(A)))
    for c, (src, sign) in enumerate(zip(order, signs)):
        assert float(np.max(np.abs(moved_A[c] - sign * move(A[src])))) <= 1e-13 * scale
