"""Iteration ladders, recurrence fits, closed-form bound predictions, and
the bulk propagation monitor."""
import math
from fractions import Fraction

import numpy as np
import pytest

import landau
from landau import diagnostics
from landau.degiorgi import (
    EPS0_NOTE,
    IterationLadder,
    critical_bracket,
    critical_eps0,
    fit_recurrence,
    ladder_verdict,
    measure_ladder,
    predict_linf_bound,
    prop51_window,
    propagation_ode_monitor,
    subcritical_bracket,
)
from landau.cli_io import Trajectory
from landau.inequalities import CRITICAL, SUBCRITICAL
from landau.solver import make_state

from conftest import Snapshot


@pytest.fixture(scope="module")
def mu_traj16(grid16):
    mu = landau.maxwellian(grid16)
    snaps = tuple(Snapshot(mu, 0.5 * i, i) for i in range(3))
    records = tuple(diagnostics.record(make_state(mu, s.t)) for s in snaps)
    return Trajectory(grid16, snaps, records, 1.0)


def test_measure_ladder_validation(mu_traj16):
    with pytest.raises(ValueError, match="unknown regime"):
        measure_ladder(mu_traj16, "weird", 0.02, 0.03, 0.5, 1.0)
    for n in (0, 13):
        with pytest.raises(ValueError, match=r"N_levels must lie in \[1, 12\]"):
            measure_ladder(mu_traj16, CRITICAL, 0.02, 0.03, 0.5, 1.0, N_levels=n)
    with pytest.raises(ValueError, match="need 0 < t <= T"):
        measure_ladder(mu_traj16, CRITICAL, 0.02, 0.03, 0.0, 1.0)
    with pytest.raises(ValueError, match="need 0 < t <= T"):
        measure_ladder(mu_traj16, CRITICAL, 0.02, 0.03, 1.5, 1.0)
    with pytest.raises(ValueError, match="window uncovered"):
        measure_ladder(mu_traj16, CRITICAL, 0.02, 0.03, 0.5, 2.0)
    with pytest.raises(ValueError, match="positive amplitude"):
        measure_ladder(mu_traj16, CRITICAL, 0.02, 0.0, 0.5, 1.0)
    with pytest.raises(ValueError, match="K must be nonnegative"):
        measure_ladder(mu_traj16, CRITICAL, -0.1, 0.03, 0.5, 1.0)
    with pytest.raises(ValueError, match="subcritical ladder needs K > 0"):
        measure_ladder(mu_traj16, SUBCRITICAL, 0.0, 0.0, 0.5, 1.0)


def test_measure_ladder_critical_structure(mu_traj16):
    # max f on this grid is mu(0.5, 0.5, 0.5) ~ 0.0437; stay well below it
    K, amp = 0.005, 0.03
    lad = measure_ladder(mu_traj16, CRITICAL, K, amp, 0.5, 1.0)
    assert len(lad.levels) == 9
    assert lad.levels[0] == K and lad.times[0] == 0.0
    assert np.all(np.diff(lad.levels) > 0) and np.all(np.diff(lad.times) > 0)
    assert lad.levels[-1] < K + amp and lad.times[-1] < lad.t
    # static data: raising the level and shrinking the window both lose energy
    assert np.all(np.diff(lad.energies) < 0)
    for e, a, b in zip(lad.energies, lad.a_values, lad.b_values):
        assert e == a + b
    assert lad.floor == 1e-13 * (1.0 + lad.energies[0])
    assert all(lad.usable)


def test_measure_ladder_subcritical_structure(mu_traj16):
    lad = measure_ladder(mu_traj16, SUBCRITICAL, 0.04, 0.0, 0.5, 1.0, p=2.0)
    assert lad.levels[0] == 0.0
    for e, a, b in zip(lad.energies, lad.a_values, lad.b_values):
        assert e == pytest.approx(a ** 0.4 * b ** 0.6, rel=1e-12)


def test_measure_ladder_marks_drained_levels(mu_traj16):
    # top thresholds exceed max f, so the excess vanishes there
    lad = measure_ladder(mu_traj16, CRITICAL, 0.04, 0.02, 0.5, 1.0)
    assert lad.energies[0] > 0 and lad.usable[0]
    assert lad.energies[-1] == 0.0 and not lad.usable[-1]


def synthetic_ladder(regime, energies, K=0.1, amplitude=0.2, t=0.5, p=2.0,
                     usable=None):
    n = len(energies)
    if usable is None:
        usable = (True,) * n
    return IterationLadder(
        regime=regime, K=K, amplitude=amplitude, t=t, T=1.0, p=p,
        levels=tuple(range(n)), times=tuple(0.1 * i for i in range(n)),
        energies=tuple(energies), a_values=tuple(energies),
        b_values=(0.0,) * n, floor=1e-13, usable=usable,
    )


def test_fit_recurrence_geometric_ladder():
    energies = [0.5 * 8.0 ** (-n) for n in range(9)]
    lad = synthetic_ladder(CRITICAL, energies)
    fit = fit_recurrence(lad)
    assert fit.verdict == "fitted"
    assert fit.rungs == tuple(range(8))
    for n, br in zip(fit.rungs, fit.brackets):
        assert br == critical_bracket(n, lad.K, lad.amplitude, lad.t, energies[0])
    assert fit.c_hat == max(fit.ratios)
    # soundness: the fitted constant dominates every rung, equality at one
    for n, br in zip(fit.rungs, fit.brackets):
        assert energies[n + 1] <= fit.c_hat * br * energies[n] ** (5.0 / 3.0) * (1 + 1e-12)
    assert min(fit.slack) == pytest.approx(0.0, abs=1e-12)
    assert all(s >= -1e-12 for s in fit.slack)
    assert fit.note == EPS0_NOTE


def test_fit_recurrence_subcritical_brackets():
    energies = [0.5 * 8.0 ** (-n) for n in range(9)]
    fit = fit_recurrence(synthetic_ladder(SUBCRITICAL, energies, K=0.25, t=0.5, p=3.0))
    for n, br in zip(fit.rungs, fit.brackets):
        assert br == subcritical_bracket(n, 0.25, 0.5, 3.0)


def test_fit_recurrence_vacuous_and_degenerate():
    fit = fit_recurrence(synthetic_ladder(CRITICAL, [0.0] * 9))
    assert fit.verdict == "vacuous"
    assert fit.c_hat == 0.0 and fit.rungs == () and fit.ratios == ()
    usable = (True, True, True) + (False,) * 6
    lad = synthetic_ladder(CRITICAL, [1.0, 0.1, 0.01] + [0.0] * 6, usable=usable)
    with pytest.raises(ValueError, match="degenerate ladder: need at least 4 levels"):
        fit_recurrence(lad)


def test_fit_recurrence_on_measured_ladder(mu_traj16):
    lad = measure_ladder(mu_traj16, CRITICAL, 0.005, 0.03, 0.5, 1.0)
    fit = fit_recurrence(lad)
    assert fit.verdict == "fitted"
    assert fit.c_hat > 0 and all(np.isfinite(fit.ratios))


def test_ladder_verdict_default_rule(mu_traj16):
    # t = T/2, K = 0.6 sup, amplitude 1.05 (sup - K); the fit is sound and
    # E0 sits below eps0, so the rung decay is checked
    v = ladder_verdict(mu_traj16, CRITICAL)
    sup = float(mu_traj16.states[0].f.values.max())
    lad = v.ladder
    assert v.tail_linf == sup and lad.t == 0.5
    assert lad.K == 0.6 * sup and lad.amplitude == 1.05 * (sup - lad.K)
    assert v.skipped is None and v.fit.verdict == "fitted"
    assert v.predicted == predict_linf_bound(v.fit.c_hat, CRITICAL, lad.energies[0],
                                             lad.K, 0.5)
    assert v.sound is True and sup <= v.predicted
    assert v.eps0 == critical_eps0(v.fit.c_hat, v.fit.c_hat)
    assert lad.energies[0] <= v.eps0 and v.decay_active
    assert v.decay_ok is True and 0.0 < v.worst_ratio <= 0.9
    # subcritical: amplitude defaults to K and no decay check is made
    sub = ladder_verdict(mu_traj16, SUBCRITICAL, K=0.01)
    assert sub.ladder.amplitude == 0.01 and sub.fit.verdict == "fitted"
    assert sub.sound is True and sub.decay_ok is None and sub.eps0 is None


def test_ladder_verdict_decay_vacuous_above_eps0(mu_traj16):
    v = ladder_verdict(mu_traj16, CRITICAL, K=0.005, amplitude=0.03)
    assert v.fit.verdict == "fitted" and v.sound is True
    assert v.ladder.energies[0] > v.eps0
    assert not v.decay_active and v.worst_ratio == 0.0 and v.decay_ok is True


def test_ladder_verdict_degenerate_fit_skipped(mu_traj16):
    # every threshold past the first rung exceeds max f
    v = ladder_verdict(mu_traj16, CRITICAL, K=0.04, amplitude=0.02)
    assert v.fit is None
    assert v.skipped.startswith("degenerate ladder: need at least 4 levels")
    assert v.sound is None and v.predicted is None
    assert v.decay_ok is None and not v.decay_active


def test_ladder_verdict_all_levels_empty(mu_traj16):
    v = ladder_verdict(mu_traj16, CRITICAL, K=1.0)
    assert v.skipped is None and v.fit.verdict == "vacuous"
    assert max(v.ladder.energies) == 0.0
    assert v.sound is None and v.predicted is None
    assert v.decay_ok is None and not v.decay_active


def test_critical_bracket_exact_rational():
    # sqrt(1/16) and 16^(3/4) are exact, so the whole bracket is rational
    K, eta, t, e0 = Fraction(3, 2), Fraction(16), Fraction(1, 2), Fraction(1, 16)
    for n in range(9):
        s = Fraction(4) ** n
        exact = 1 + s * (
            1 + 1 / (eta * t) + Fraction(1, 4) / 8 + K / eta + K * K / (eta * eta)
        )
        got = critical_bracket(n, 1.5, 16.0, 0.5, 0.0625)
        assert got == pytest.approx(float(exact), rel=1e-15)


def test_subcritical_bracket_exact_rational():
    # p = 3, K = 1/4, t = 1/2: every power is a dyadic rational
    for n in range(9):
        assert subcritical_bracket(n, 0.25, 0.5, 3.0) == 8 ** n * 52.0


def test_critical_eps0():
    assert critical_eps0(0.0, 0.0) == 1.0
    # threshold sits exactly at the cap when c1 + c2 = 1/16
    assert critical_eps0(0.03125, 0.03125) == 1.0
    assert critical_eps0(1.0, 0.0) == 0.015625
    assert critical_eps0(2.0, 2.0) == 1.0 / 512.0
    with pytest.raises(ValueError, match="constants must be nonnegative"):
        critical_eps0(-1.0, 0.0)
    assert "min(1, 1/(64" in EPS0_NOTE


def test_predict_linf_bound_critical():
    # c = 1: C* = 1 + 2 max(64, 256, 8) = 513; eps = 0 leaves C*(K+1)
    assert predict_linf_bound(1.0, CRITICAL, 0.0, 2.0, 1.0) == 513.0 * 3.0
    eps, t = 1e-6, 0.5
    want = 513.0 * 3.0 + 513.0 * eps ** (2.0 / 3.0) / t
    assert predict_linf_bound(1.0, CRITICAL, eps, 2.0, t) == pytest.approx(want, rel=1e-15)


def test_predict_linf_bound_subcritical():
    c, e0, K, t, p = 0.7, 0.2, 1.0, 0.25, 2.0
    gain = 3.0 * c * 2.0 ** (1.5 * (2.0 * p / 3.0 + 1.0))
    want = max(
        gain ** (3.0 / (2.0 * p)) * e0 ** (1.0 / p) * t ** (-3.0 / (2.0 * p)),
        gain ** (3.0 / (2.0 * p)) * e0 ** (1.0 / p),
        gain ** (3.0 / (2.0 * p - 3.0)) * e0 ** (2.0 / (2.0 * p - 3.0)),
    )
    assert predict_linf_bound(c, SUBCRITICAL, e0, K, t, p) == pytest.approx(want, rel=1e-14)


def test_predict_linf_bound_validation():
    with pytest.raises(ValueError, match="need nonnegative constants"):
        predict_linf_bound(-1.0, CRITICAL, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="need nonnegative constants"):
        predict_linf_bound(1.0, CRITICAL, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="needs p > 3/2"):
        predict_linf_bound(1.0, SUBCRITICAL, 0.1, 1.0, 1.0, p=1.5)
    with pytest.raises(ValueError, match="unknown regime"):
        predict_linf_bound(1.0, "weird", 0.1, 1.0, 1.0)


def test_propagation_monitor_gates(grid16):
    mu = landau.maxwellian(grid16)
    two = Trajectory(grid16, (Snapshot(mu, 0.0, 0), Snapshot(mu, 1.0, 1)),
                     (), 1.0)
    with pytest.raises(ValueError, match="need at least 3 snapshots"):
        propagation_ode_monitor(two, 0.01)
    coarse = Trajectory(grid16, tuple(Snapshot(mu, 0.5 * i, 20 * i) for i in range(3)),
                        (), 1.0)
    with pytest.raises(ValueError, match="at most 10 steps apart"):
        propagation_ode_monitor(coarse, 0.01)


def test_propagation_monitor_static(mu_traj16):
    mu = mu_traj16.states[0]
    K = 0.5 * float(mu.f.values.max())
    mon = propagation_ode_monitor(mu_traj16, K)
    assert not mon.vacuous and mon.verdict
    assert mon.satisfied_fraction == 1.0
    assert np.all(mon.dydt == 0.0)
    # constant ratios: the 95th percentile is the common value
    y0, f0, z0, _ = diagnostics.bulk_quantities(mu, K, 4.5)
    want = f0 / (f0 * y0 ** (2.0 / 3.0) + (1.0 + K) * y0 + y0 ** 1.4 + K * z0)
    assert mon.c_fit == pytest.approx(want, rel=1e-12)


def test_propagation_monitor_vacuous(mu_traj16):
    K = 2.0 * float(mu_traj16.states[0].f.values.max())
    mon = propagation_ode_monitor(mu_traj16, K)
    assert mon.vacuous and mon.verdict
    assert mon.c_fit == 0.0 and mon.satisfied_fraction == 1.0


def test_propagation_monitor_builds_weights_once(mu_traj16, weight_builds):
    # <v>^m and <v>^(m-3) are built once per grid, not once per snapshot
    K = 0.5 * float(mu_traj16.states[0].f.values.max())
    want = np.array([diagnostics.bulk_quantities(s, K) for s in mu_traj16.states])
    grids = {id(s.f.grid): s.f.grid for s in mu_traj16.states}
    assert len(grids) == 1
    builds = weight_builds(*grids.values())
    mon = propagation_ode_monitor(mu_traj16, K)
    assert len(mu_traj16.states) == 3
    assert sorted(builds) == [1.5, 4.5]
    got = np.stack([mon.y, mon.f_series, mon.z, mon.g_series], axis=1)
    assert np.array_equal(got, want)


def test_prop51_window():
    # 2 delta = 1 makes the bracket 1 + 1 + 1
    assert prop51_window(0.5, 2.0) == pytest.approx(1.0 / 12.0, rel=1e-15)
    # 2 delta = 2 pins the exponent 7/3
    assert prop51_window(1.0, 1.0) == pytest.approx(
        1.0 / (3.0 + 2.0 ** (7.0 / 3.0)), rel=1e-15
    )
    assert prop51_window(50.0, 1e-6) == 1.0
    with pytest.raises(ValueError, match="delta must be positive"):
        prop51_window(0.0, 1.0)
    with pytest.raises(ValueError, match="c1 must be positive"):
        prop51_window(1.0, 0.0)
