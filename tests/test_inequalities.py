"""Cutoff construction, empirical inequality reports, and barriers."""
import math

import numpy as np
import pytest

import landau
from landau import inequalities
from landau.errors import HypothesisError
from landau.inequalities import (
    CRITICAL,
    SUBCRITICAL,
    barrier_verdict,
    critical_weight_constant,
    report_from_ratios,
)
from landau.solver import Snapshot, Trajectory

from conftest import build_run


def test_cutoff_shape():
    prof = landau.build_cutoff(1.5)
    r = np.array([0.0, 0.5, 1.5, 2.0, 3.0, 4.0])
    eta = prof.evaluate(r)
    assert eta[0] == 1.0 and eta[1] == 1.0 and eta[2] == 1.0
    assert 0.0 < eta[3] < 1.0
    assert eta[4] == 0.0 and eta[5] == 0.0
    assert np.all(np.diff(eta) <= 1e-15)
    assert np.isfinite(prof.c_hat) and prof.c_hat > 0.0


def test_cutoff_scale_invariance():
    c1 = landau.build_cutoff(1.0).c_hat
    c10 = landau.build_cutoff(10.0).c_hat
    assert abs(c1 - c10) <= 1e-10


def test_cutoff_gradient_scaling():
    p1 = landau.build_cutoff(1.0)
    p2 = landau.build_cutoff(2.0)
    # |grad eta_R|(R x) = |grad eta_1|(x) / R
    probe = np.array([1.3, 1.6, 1.9])
    g1 = p1.gradient_magnitude(probe)
    g2 = p2.gradient_magnitude(2.0 * probe)
    assert np.allclose(g2, g1 / 2.0, rtol=1e-12)


def test_report_from_ratios():
    rep = report_from_ratios("demo", (1.0, 1.1, 0.9, 1.05), 7)
    assert rep.passed
    assert rep.max_ratio == pytest.approx(1.1)
    assert rep.corpus_size == 4
    assert rep.halves_spread <= 0.2
    bad = report_from_ratios("demo", (1.0, math.inf, 0.9, 1.0), 7)
    assert not bad.passed
    # a large even/odd half gap fails the stability gate
    skew = report_from_ratios("demo", (1.0, 0.1, 1.0, 0.1), 7)
    assert not skew.passed and skew.halves_spread > 0.2


def test_weighted_sobolev_small_corpus(grid16):
    corpus = landau.make_corpus(grid16, 8, 11)
    assert len(corpus) == 8
    rep = landau.check_weighted_sobolev(corpus, 4.5, 11)
    assert rep.passed
    assert np.isfinite(rep.max_ratio) and rep.max_ratio > 0.0
    assert rep.corpus_size == 8


def test_interpolation_small_corpus(grid16):
    # the even/odd stability split needs a dozen samples to settle down
    corpus = landau.make_corpus(grid16, 16, 7)
    rep = landau.check_interpolation(corpus, 1.5, 2.5, 4.5, 7)
    assert rep.passed
    assert np.isfinite(rep.max_ratio)


def test_eps_poincare_report_structure(grid16):
    # the slope gate is calibrated on the full default corpus; a small one
    # only has to produce finite ratios and the fitted-slope note
    pairs = landau.make_poincare_corpus(grid16, 8, 5)
    eps_grid = np.logspace(-1.5, 0.0, 5)
    rep = landau.check_eps_poincare(pairs, 2.0, eps_grid, 2.0, 5)
    assert rep.corpus_size == len(rep.ratios)
    assert all(np.isfinite(r) for r in rep.ratios)
    assert "slope" in rep.notes


def test_critical_weight_constant():
    assert critical_weight_constant(-6.0, 10.0) == pytest.approx(111.0)
    assert critical_weight_constant(0.0, 1.0) == pytest.approx(3.0 + 4.5)


def test_barrier_rate_critical():
    eta = landau.barrier_sufficient_rate(CRITICAL, 10.0, m_bound=0.02)
    assert eta == pytest.approx(1.5 * 111.0 * 0.02, rel=1e-14)
    with pytest.raises(ValueError, match="needs the bound M"):
        landau.barrier_sufficient_rate(CRITICAL, 10.0)


def test_barrier_rate_subcritical():
    tb, el = 0.06, 0.01
    eta = landau.barrier_sufficient_rate(
        SUBCRITICAL, 10.0, trace_bound=tb, ellipticity=el
    )
    c1 = 10.0 * tb
    c2 = 10.0 * 12.0 * el
    delta = min(c2 / c1, 2.5)
    assert eta == pytest.approx(c1 * (5.0 / (2.0 * delta)) ** (10.0 / 3.0), rel=1e-14)
    assert eta >= c1
    with pytest.raises(HypothesisError, match="hypothesis: k > 5 required"):
        landau.barrier_sufficient_rate(SUBCRITICAL, 4.0, trace_bound=tb, ellipticity=el)


def test_barrier_params_validation():
    with pytest.raises(ValueError, match="amplitude a must be positive"):
        landau.BarrierParams(a=0.0, k=10.0, eta_rate=1.0, regime=CRITICAL)
    eta = landau.barrier_sufficient_rate(CRITICAL, 10.0, m_bound=0.02)
    p = landau.BarrierParams(a=0.5, k=10.0, eta_rate=eta, regime=CRITICAL)
    assert p.level(0.0) == pytest.approx(0.5)
    assert p.level(1.0) == pytest.approx(0.5 * math.exp(-p.eta_rate))
    # 2/3 power in the critical clock
    assert p.level(8.0) == pytest.approx(0.5 * math.exp(-p.eta_rate * 4.0))


def test_minimum_principle_monitor_exact_barrier(grid16):
    # data a hair above the barrier: zero excess at t=0 and forever after,
    # and the ratio grows as the barrier decays while f stays put
    a0 = 1e-3
    wk = landau.weight_field(grid16, -10.0).values
    f = landau.ScalarField(grid16, (1.0 + 1e-6) * a0 * wk)
    eta = landau.barrier_sufficient_rate(CRITICAL, 10.0, m_bound=0.02)
    params = landau.BarrierParams(a=a0, k=10.0, eta_rate=eta, regime=CRITICAL)
    snaps = tuple(Snapshot(f, 0.25 * i, i) for i in range(4))
    traj = Trajectory(grid16, snaps, (), 0.75)
    mon = landau.minimum_principle_monitor(traj, params)
    assert mon.hypothesis_ok
    assert np.all(mon.values == 0.0)
    assert mon.max_increase == 0.0
    for snap, ratio in zip(snaps, mon.ratios):
        expected = (1.0 + 1e-6) * math.exp(eta * snap.t ** (2.0 / 3.0))
        assert ratio == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError, match="n_weight must be below -3"):
        landau.minimum_principle_monitor(traj, params, n_weight=-2.0)


def test_barrier_verdict_builds_weights_once(monkeypatch):
    # <v>^k and <v>^n are built once per verdict, whatever the snapshot count
    data, traj = build_run("polytail", 16, 8.0, 0.05, 0.01, 1)
    assert len(traj.states) == 6
    sparse = Trajectory(traj.grid, traj.states[::3], traj.records, traj.T)
    calls = []
    real = inequalities.weight_field
    monkeypatch.setattr(inequalities, "weight_field",
                        lambda grid, m: calls.append(m) or real(grid, m))
    for t in (traj, sparse):
        calls.clear()
        v = barrier_verdict(t, data.field, CRITICAL, 10.0)
        assert len(v.monitor.values) == len(t.states)
        assert len(calls) == 2


def test_make_corpus_properties(grid16):
    corpus = landau.make_corpus(grid16, 6, 3)
    for f in corpus:
        assert float(f.values.min()) >= 0.0
        assert landau.integrate(f) > 0.0
    # seeded: same seed reproduces, different seed does not
    again = landau.make_corpus(grid16, 6, 3)
    assert np.array_equal(corpus[0].values, again[0].values)
    other = landau.make_corpus(grid16, 6, 4)
    assert not np.array_equal(corpus[0].values, other[0].values)
