"""Cutoff construction, empirical inequality reports, and barriers."""
import math
import tracemalloc

import numpy as np
import pytest

import landau
from landau import inequalities
from landau.cli_io import Trajectory, run_inequality_suite
from landau.diagnostics import moments
from landau.errors import HypothesisError
from landau.grid_field import gradient_values
from landau.inequalities import (
    CRITICAL,
    SUBCRITICAL,
    barrier_verdict,
    critical_weight_constant,
    interpolation_ratios,
    interpolation_reports,
    report_from_ratios,
    sobolev_ratio,
    sobolev_report,
)

from conftest import Snapshot, build_run


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
    ratios = [sobolev_ratio(f, 4.5) for f in landau.iter_corpus(grid16, 8, 11)]
    assert len(ratios) == 8
    rep = sobolev_report(4.5, ratios, 11)
    assert rep.passed
    assert np.isfinite(rep.max_ratio) and rep.max_ratio > 0.0
    assert rep.corpus_size == 8


def test_interpolation_small_corpus(grid16):
    # the even/odd stability split needs a dozen samples to settle down
    rows = [interpolation_ratios(f, 1.5, (2.5,), 4.5)
            for f in landau.iter_corpus(grid16, 16, 7)]
    (rep,) = interpolation_reports(1.5, (2.5,), 4.5, rows, 7)
    assert rep.passed
    assert np.isfinite(rep.max_ratio)


def _interpolation_reference(corpus, p, q, k, seed):
    """One q per call, every term recomputed per sample."""
    m = inequalities.interpolation_weight(p, q, k)
    expo_mass = (3.0 * p - q) / (2.0 * p)
    expo_grad = 3.0 * (q - p) / (2.0 * p)
    grid = corpus[0].grid
    w_k, w_m, w_g = (grid.weight(i) for i in (k, m, k - 3.0))
    ratios = []
    for f in corpus:
        vol = grid.cell_volume()
        fv = np.maximum(f.values, 0.0)
        num = vol * float(np.sum(w_k * fv ** q))
        mass = vol * float(np.sum(w_m * fv ** p))
        g = gradient_values(grid, fv ** (0.5 * p))
        grad = vol * float(np.sum(w_g * (g[0] ** 2 + g[1] ** 2 + g[2] ** 2)))
        if mass <= 0.0 or grad <= 0.0:
            continue
        ratios.append(num / (mass ** expo_mass * grad ** expo_grad))
    return report_from_ratios(
        f"interpolation_p{p:g}_q{q:g}_k{k:g}", ratios, seed, notes=f"m={m:.6g}"
    )


@pytest.mark.parametrize("grid_name", ["grid16", "grid32"])
def test_interpolation_multi_q_matches_per_q_reference(request, grid_name):
    # one pass per sample for all q gives each q's report bit for bit,
    # clipped and skipped (all-zero, all-negative) samples included
    grid = request.getfixturevalue(grid_name)
    corpus = list(landau.iter_corpus(grid, 9, 13))
    signed = corpus[0].values - 0.5 * float(corpus[0].values.max())
    zero = np.zeros((grid.n,) * 3)
    corpus += [landau.ScalarField(grid, v) for v in (signed, zero, -corpus[1].values)]
    qs = (2.5, 13.0 / 6.0, 4.0)
    rows = [interpolation_ratios(f, 1.5, qs, 4.5) for f in corpus]
    reports = interpolation_reports(1.5, qs, 4.5, rows, 13)
    assert reports == [_interpolation_reference(corpus, 1.5, q, 4.5, 13) for q in qs]
    assert reports[0].corpus_size == len(corpus) - 2


def test_eps_poincare_report_structure(grid16):
    # the slope gate is calibrated on the full default corpus; a small one
    # only has to produce finite ratios and the fitted-slope note
    pairs = landau.iter_poincare_corpus(grid16, 8, 5)
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
    wk = grid16.weight(-10.0)
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


@pytest.fixture(scope="module")
def poly_run16(tmp_path_factory):
    return build_run(tmp_path_factory, "polytail", 16, 8.0, 0.05, 0.01, 1)


def test_barrier_verdict_builds_weights_once(poly_run16, weight_builds):
    # <v>^k and <v>^n are built once per grid, whatever the snapshot count
    data, traj = poly_run16
    assert len(traj.states) == 6
    assert all(s.f.grid is traj.grid for s in traj.states)
    assert data.field.grid is traj.grid
    sparse = Trajectory(traj.grid, traj.states[::3], traj.records, traj.T)
    builds = weight_builds(traj.grid)
    for t in (traj, sparse):
        v = barrier_verdict(t, data.field, CRITICAL, 10.0)
        assert len(v.monitor.values) == len(t.states)
    assert sorted(builds) == [-6.0, 10.0]


@pytest.mark.parametrize("k", [41.0, 60.0])
def test_barrier_verdict_holds_at_t0_for_log_space_weights(poly_run16, k):
    # for large k as for small, the default a must read the same <v>^k as
    # the monitor, so the data sit exactly on the barrier at t = 0
    data, traj = poly_run16
    v = barrier_verdict(traj, data.field, CRITICAL, k)
    assert v.params.a == float(np.min(data.field.values * traj.grid.weight(k)))
    assert v.monitor.values[0] == 0.0
    assert v.monitor.ratios[0] == 1.0
    assert v.hypothesis_ok


def _coordinate_cube(grid):
    """The (3, n, n, n) node coordinates, as the grid once cached them."""
    return np.stack(np.meshgrid(grid.axis, grid.axis, grid.axis, indexing="ij"))


def _old_make_corpus(grid, size, seed):
    """iter_corpus as built from the (3, n, n, n) node coordinates."""
    rng = np.random.default_rng(seed)
    coords = _coordinate_cube(grid)
    fields = []
    for i in range(size):
        kind = i % 3
        amp = 10.0 ** rng.uniform(-1.0, 1.0)
        if kind == 0:
            center = rng.uniform(-1.5, 1.5, size=3)
            width = rng.uniform(0.4, 1.6)
            r2 = sum((coords[d] - center[d]) ** 2 for d in range(3))
            vals = amp * np.exp(-0.5 * r2 / width ** 2)
        elif kind == 1:
            vals = np.zeros_like(coords[0])
            for _ in range(int(rng.integers(2, 4))):
                center = rng.uniform(-1.5, 1.5, size=3)
                width = rng.uniform(0.4, 1.2)
                w = rng.uniform(0.2, 1.0)
                r2 = sum((coords[d] - center[d]) ** 2 for d in range(3))
                vals = vals + amp * w * np.exp(-0.5 * r2 / width ** 2)
        else:
            center = rng.uniform(-1.0, 1.0, size=3)
            k_tail = rng.uniform(6.0, 12.0)
            r2 = sum((coords[d] - center[d]) ** 2 for d in range(3))
            vals = amp * (1.0 + r2) ** (-0.5 * k_tail)
        fields.append(vals)
    return fields


def _old_make_poincare_corpus(grid, size, seed):
    """iter_poincare_corpus as built from the node coordinates."""
    rng = np.random.default_rng(seed)
    coords = _coordinate_cube(grid)
    amps = np.logspace(-3.0, 3.0, size) * rng.uniform(0.95, 1.05, size=size)
    cutoff = landau.build_cutoff(0.3 * grid.l)
    radius = np.sqrt(coords[0] * coords[0] + coords[1] * coords[1]
                     + coords[2] * coords[2])
    phi_cut = cutoff.evaluate(radius)
    phi_one = np.ones_like(radius)
    pairs = []
    for i in range(size):
        center = rng.normal(0.0, 0.1, size=3)
        width = rng.uniform(0.9, 1.1)
        r2 = sum((coords[d] - center[d]) ** 2 for d in range(3))
        pairs.append((amps[i] * np.exp(-0.5 * r2 / width ** 2),
                      phi_cut if i % 2 else phi_one))
    return pairs


@pytest.mark.parametrize("grid_name", ["grid16", "grid32", "grid48"])
def test_radius2_matches_coordinate_sum(request, grid_name):
    grid = request.getfixturevalue(grid_name)
    rng = np.random.default_rng(23)
    coords = _coordinate_cube(grid)
    for center in rng.uniform(-2.0, 2.0, size=(5, 3)):
        want = sum((coords[d] - center[d]) ** 2 for d in range(3))
        assert np.array_equal(grid.radius2_about(center), want)


@pytest.mark.parametrize("grid_name", ["grid16", "grid32"])
def test_corpora_match_coordinate_construction(request, grid_name):
    # the streams draw in the old construction's order
    grid = request.getfixturevalue(grid_name)
    corpus = landau.iter_corpus(grid, 9, 29)
    for f, want in zip(corpus, _old_make_corpus(grid, 9, 29), strict=True):
        assert np.array_equal(f.values, want)
    for (g, phi), (g_want, phi_want) in zip(
        landau.iter_poincare_corpus(grid, 6, 29),
        _old_make_poincare_corpus(grid, 6, 29), strict=True
    ):
        assert np.array_equal(g.values, g_want)
        assert np.array_equal(phi.values, phi_want)


@pytest.mark.parametrize("grid_name", ["grid16", "grid32"])
def test_streamed_suite_matches_list_route(request, grid_name):
    # one streamed pass gives every report of the per-sample checks run
    # on the whole corpus as a list, one check at a time
    grid = request.getfixturevalue(grid_name)
    size, seed = 12, 31
    qs = (2.5, 13.0 / 6.0)
    corpus = list(landau.iter_corpus(grid, size, seed))
    want = [
        sobolev_report(4.5, [sobolev_ratio(f, 4.5) for f in corpus], seed),
        *interpolation_reports(
            1.5, qs, 4.5, [interpolation_ratios(f, 1.5, qs, 4.5) for f in corpus], seed
        ),
        landau.check_eps_poincare(
            list(landau.iter_poincare_corpus(grid, size, seed)), 2.0,
            np.logspace(-2.0, 0.0, 7), 2.0, seed,
        ),
    ]
    assert run_inequality_suite(grid, size, seed) == want


def test_suite_memory_does_not_grow_with_corpus_size():
    # each sample is dropped once checked: a fivefold corpus adds no array
    n = 32
    peaks = []
    for size in (8, 40):
        grid = landau.make_grid(n, 8.0)  # fresh, so both runs build its weights
        tracemalloc.start()
        try:
            run_inequality_suite(grid, size, 2026)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 8 * n ** 3


def test_corpus_properties(grid16):
    corpus = list(landau.iter_corpus(grid16, 6, 3))
    for f in corpus:
        assert float(f.values.min()) >= 0.0
        assert moments(grid16, f.values)[0] > 0.0
    # seeded: same seed reproduces, different seed does not
    again = list(landau.iter_corpus(grid16, 6, 3))
    assert np.array_equal(corpus[0].values, again[0].values)
    other = list(landau.iter_corpus(grid16, 6, 4))
    assert not np.array_equal(corpus[0].values, other[0].values)
