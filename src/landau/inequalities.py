"""Numerical verification toolkit for the functional inequalities.

Unknown absolute constants are estimated, never asserted: a check passes
when the empirical constant is finite and stable across independent corpus
halves.  Corpora are seeded and recorded so reports are reproducible.

Scratch contract: the per-sample functions ``sobolev_ratio``,
``interpolation_ratios`` and ``_poincare_terms`` write every temporary
into the rows of an optional ``scratch`` of shape (rows, n, n, n), and
allocate one when it is not given.  ``sobolev_ratio`` overwrites rows 0
and 1, the other two rows 0 to 3; what a row holds after a call is
undefined.  A sample is never a view of a scratch: each corpus generator
builds each sample in place in a fresh array of its own, so a caller may
hold samples, as ``list(iter_corpus(...))`` does, while others are
checked.  The three functions take their gradient energies axis by axis
through ``grid_field.weighted_gradient_energy``, so none builds a
(3, n, n, n) gradient.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError
from .grid_field import ScalarField, VelocityGrid, weighted_gradient_energy

# sharp constant in (integral u^6)^(1/3) <= C integral |grad u|^2 on R^3
SOBOLEV_CONSTANT = (2.0 / math.pi) ** (4.0 / 3.0) / 3.0

CRITICAL = "critical"
SUBCRITICAL = "subcritical"


@dataclass(frozen=True)
class InequalityReport:
    name: str
    corpus_size: int
    ratios: tuple
    max_ratio: float
    halves_spread: float
    passed: bool
    notes: str = ""
    seed: int | None = None


def _halves_spread(ratios) -> float:
    """Relative gap between the max over even- and odd-indexed samples."""
    finite = [r for r in ratios if np.isfinite(r) and r > 0.0]
    if len(finite) < 4:
        return 0.0
    a = max(finite[0::2])
    b = max(finite[1::2])
    top = max(a, b)
    return abs(a - b) / top if top > 0.0 else 0.0


def report_from_ratios(name, ratios, seed, notes="", extra_pass=True) -> InequalityReport:
    finite = [r for r in ratios if np.isfinite(r)]
    spread = _halves_spread(ratios)
    ok = (
        len(finite) > 0
        and all(np.isfinite(r) for r in ratios)
        and max(finite) > 0.0
        and spread <= 0.2
        and extra_pass
    )
    return InequalityReport(
        name=name,
        corpus_size=len(ratios),
        ratios=tuple(float(r) for r in ratios),
        max_ratio=float(max(finite)) if finite else float("nan"),
        halves_spread=float(spread),
        passed=bool(ok),
        notes=notes,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# corpora
#
# Each corpus is a seeded generator that yields one sample at a time, so a
# caller that checks and drops each sample holds one sample, not the corpus.


def iter_corpus(grid: VelocityGrid, size: int, seed: int) -> Iterator[ScalarField]:
    """Seeded corpus of smooth decaying fields: Gaussians, mixtures, tails."""
    rng = np.random.default_rng(seed)
    term = np.empty((grid.n,) * 3)  # each next Gaussian of a mixture
    for i in range(size):
        yield _corpus_field(grid, rng, i % 3, term)


def _corpus_field(grid: VelocityGrid, rng: np.random.Generator, kind: int,
                  term: np.ndarray) -> ScalarField:
    # a function of its own, so no name of a sample stays bound in the
    # generator's frame while the caller checks the sample; the sample is
    # built in place in a fresh array, with the bits of the plain
    # expressions, and ``term`` is overwritten
    amp = 10.0 ** rng.uniform(-1.0, 1.0)
    if kind == 0:
        center = rng.uniform(-1.5, 1.5, size=3)
        width = rng.uniform(0.4, 1.6)
        vals = _gaussian(grid, center, width, amp)
    elif kind == 1:
        vals = np.zeros((grid.n,) * 3)
        for _ in range(int(rng.integers(2, 4))):
            center = rng.uniform(-1.5, 1.5, size=3)
            width = rng.uniform(0.4, 1.2)
            w = rng.uniform(0.2, 1.0)
            vals += _gaussian(grid, center, width, amp * w, out=term)
    else:
        center = rng.uniform(-1.0, 1.0, size=3)
        k_tail = rng.uniform(6.0, 12.0)
        vals = grid.radius2_about(center)
        vals += 1.0
        _power(vals, -0.5 * k_tail, vals)
        vals *= amp
    return ScalarField(grid, vals)


def _gaussian(grid: VelocityGrid, center, width: float, amp: float,
              out: np.ndarray | None = None) -> np.ndarray:
    """amp * exp(-0.5 |v - center|^2 / width^2) at the nodes, in the plain
    expression's order of operations, written into ``out`` when given."""
    r2 = grid.radius2_about(center, out=out)
    r2 *= -0.5
    r2 /= width ** 2
    np.exp(r2, out=r2)
    r2 *= amp
    return r2


def _power(x: np.ndarray, e: float, out: np.ndarray) -> np.ndarray:
    """x ** e written into ``out``, with the bits of the plain expression:
    ``**`` squares for e = 2 where np.power calls pow.  For e = 1, where
    ``**`` copies, pow returns x, as a libm correct to within an ulp must."""
    if e == 2.0:
        return np.square(x, out=out)
    return np.power(x, e, out=out)


def iter_poincare_corpus(
    grid: VelocityGrid, size: int, seed: int
) -> Iterator[tuple[ScalarField, ScalarField]]:
    """Seeded (g, phi) pairs with amplitudes stratified over six decades.

    The stratification makes the corpus envelope trace the epsilon power
    law of the split instead of a single sample's linear cutoff.  Every
    pair shares one of two phi fields: the cutoff at R = 0.3 l, or 1.
    Each g is built in place in a fresh array.
    """
    rng = np.random.default_rng(seed)
    amps = np.logspace(-3.0, 3.0, size) * rng.uniform(0.95, 1.05, size=size)
    phi_cut = ScalarField(grid, build_cutoff(0.3 * grid.l).evaluate(np.sqrt(grid.radius2)))
    phi_one = ScalarField(grid, np.ones((grid.n,) * 3))
    for i in range(size):
        center = rng.normal(0.0, 0.1, size=3)
        width = rng.uniform(0.9, 1.1)
        yield (ScalarField(grid, _gaussian(grid, center, width, amps[i])),
               phi_cut if i % 2 else phi_one)


# ---------------------------------------------------------------------------
# inequality checks
#
# Each check is a per-sample ratio function and a report builder.  A
# sample's ratio is None when the sample is degenerate for that inequality;
# the report builder drops those.  The CLI panel feeds one streamed corpus
# to several ratio functions.


def _sobolev_c1(k: float) -> float:
    if k < 3.0:
        raise ValueError("k must be at least 3")
    return SOBOLEV_CONSTANT * (k - 3.0) * (k - 1.0) / 4.0


def sobolev_ratio(f: ScalarField, k: float, scratch: np.ndarray | None = None) -> float | None:
    """One sample's ratio for the weighted Sobolev bound at weight index k:
    [(int <v>^(3k-9) f^6)^(1/3) + C1 int <v>^(k-5) f^2] over
    int <v>^(k-3) |grad f|^2, with C1 = (k-3)(k-1)/4 relative to the
    Sobolev constant.  None for a constant sample.  Rows 0 and 1 of
    ``scratch``, at least (2, n, n, n), are overwritten; one is allocated
    when it is not given."""
    c1 = _sobolev_c1(k)
    grid = f.grid
    vol = grid.cell_volume()
    fv = f.values
    if scratch is None:
        scratch = np.empty((2,) + fv.shape)
    w_top, w_mid, w_grad = map(grid.weight, (3.0 * k - 9.0, k - 5.0, k - 3.0))
    rhs = weighted_gradient_energy(grid, fv, w_grad, out=scratch[:2])
    if rhs <= 0.0:
        return None
    term = np.power(fv, 6, out=scratch[0])
    term *= w_top
    lhs1 = (vol * float(np.sum(term))) ** (1.0 / 3.0)
    np.multiply(w_mid, fv, out=term)
    term *= fv
    lhs2 = c1 * vol * float(np.sum(term))
    return (lhs1 + lhs2) / rhs


def sobolev_report(k: float, ratios, seed: int | None = None) -> InequalityReport:
    """The weighted Sobolev report from per-sample ``sobolev_ratio``s."""
    c1 = _sobolev_c1(k)
    return report_from_ratios(
        f"weighted_sobolev_k{k:g}",
        [r for r in ratios if r is not None],
        seed,
        notes=f"c1={c1:.6g} (relative Sobolev constant {SOBOLEV_CONSTANT:.6g})",
    )


def interpolation_weight(p: float, q: float, k: float) -> float:
    """The forced moment index m for the L^q interpolation bound."""
    if not (1.0 < p < q < 3.0 * p):
        raise ValueError("need 1 < p < q < 3p")
    return (2.0 * k * p - (k - 3.0) * (3.0 * q - 3.0 * p)) / (3.0 * p - q)


def interpolation_ratios(f: ScalarField, p: float, qs, k: float,
                         scratch: np.ndarray | None = None) -> list:
    """One sample's ratios of int <v>^k f^q against the mass and gradient
    terms, one per q in qs, in order; None where a term vanishes.

    The sample is clipped and its gradient term taken once for all q;
    only f^q and the mass sum against <v>^m(q) are computed per q.  Rows 0
    to 3 of ``scratch``, at least (4, n, n, n), are overwritten: row 0
    holds the clipped sample, row 1 its powers, rows 2 and 3 the weighted
    products and the gradient energy.  One is allocated when it is not
    given.
    """
    ms = [interpolation_weight(p, q, k) for q in qs]
    grid = f.grid
    vol = grid.cell_volume()
    if scratch is None:
        scratch = np.empty((4,) + f.values.shape)
    fv, power, prod = scratch[0], scratch[1], scratch[2]
    np.maximum(f.values, 0.0, out=fv)
    _power(fv, p, power)
    masses = [vol * float(np.sum(np.multiply(grid.weight(m), power, out=prod)))
              for m in ms]
    _power(fv, 0.5 * p, power)
    grad = weighted_gradient_energy(grid, power, grid.weight(k - 3.0), out=scratch[2:4])
    ratios = []
    for q, mass in zip(qs, masses):
        if mass <= 0.0 or grad <= 0.0:
            ratios.append(None)
            continue
        _power(fv, q, power)
        power *= grid.weight(k)
        num = vol * float(np.sum(power))
        expo_mass = (3.0 * p - q) / (2.0 * p)
        expo_grad = 3.0 * (q - p) / (2.0 * p)
        ratios.append(num / (mass ** expo_mass * grad ** expo_grad))
    return ratios


def interpolation_reports(
    p: float, qs, k: float, rows: list, seed: int | None = None
) -> list[InequalityReport]:
    """One interpolation report per q in qs, in order, from the list of
    per-sample ``interpolation_ratios`` rows."""
    return [
        report_from_ratios(
            f"interpolation_p{p:g}_q{q:g}_k{k:g}",
            [row[i] for row in rows if row[i] is not None],
            seed,
            notes=f"m={interpolation_weight(p, q, k):.6g}",
        )
        for i, q in enumerate(qs)
    ]


def _poincare_terms(g: ScalarField, phi: ScalarField, p: float, q: float,
                    scratch: np.ndarray | None = None) -> tuple:
    """(LHS, G, M, N) of one eps-Poincare pair: the weighted masses of
    phi^2 g^(p+1) and phi^2 g^p, of g^q, and the gradient term of phi g^(p/2).

    Every product is formed in place in a row of ``scratch``, at least
    (4, n, n, n), so the sums see the bits of the plain expressions: row 0
    holds the clipped g, row 1 g^p and then phi g^(p/2), row 2
    <v>^(9/2) phi^2, row 3 the other powers; rows 2 and 3 then take the
    gradient energy.  All four rows are
    overwritten; they are allocated when ``scratch`` is not given.
    """
    grid = g.grid
    vol = grid.cell_volume()
    w92, w32 = grid.weight(4.5), grid.weight(1.5)
    if scratch is None:
        scratch = np.empty((4,) + g.values.shape)
    gv, gp, wpp, term = scratch[:4]
    np.maximum(g.values, 0.0, out=gv)
    pv = phi.values
    _power(gv, p, gp)
    np.multiply(w92, pv, out=wpp)
    wpp *= pv
    _power(gv, p + 1.0, term)
    term *= wpp
    lhs = vol * float(np.sum(term))
    wpp *= gp
    mterm = vol * float(np.sum(wpp))
    term = gp if q == p else _power(gv, q, term)
    term *= w92
    nq = vol * float(np.sum(term))
    root = _power(gv, 0.5 * p, gp)
    root *= pv
    return lhs, weighted_gradient_energy(grid, root, w32, out=scratch[2:4]), mterm, nq


def check_eps_poincare(
    pairs: Iterable[tuple[ScalarField, ScalarField]],
    q: float,
    eps_grid,
    p: float = 2.0,
    seed: int | None = None,
) -> InequalityReport:
    """Two-term epsilon split of the weighted mass of g^(p+1).

    For each epsilon the fitted constant is the max over samples of
    LHS / [eps G + eps^(-3/(2q-3)) N M]; the envelope of the second-term
    coefficient over the stratified corpus must follow the predicted
    eps^(-3/(2q-3)) power law.  The pairs are read once, in order, so a
    generator such as ``iter_poincare_corpus`` is never held whole.
    """
    if q <= 1.5:
        raise ValueError("q must exceed 3/2")
    eps_grid = np.asarray(sorted(float(e) for e in eps_grid))
    if eps_grid.size < 2 or np.any(eps_grid <= 0.0):
        raise ValueError("eps grid must hold at least two positive values")
    theta = 3.0 / (2.0 * q - 3.0)

    samples = []
    scratch = None
    for g, phi in pairs:
        if scratch is None:  # once the pairs' source holds its phi fields
            scratch = np.empty((4,) + g.values.shape)
        lhs, gterm, mterm, nq = _poincare_terms(g, phi, p, q, scratch)
        del g, phi  # not held while the next pair is built
        if mterm <= 0.0 or nq <= 0.0:
            continue  # degenerate sample, skipped
        nfac = nq ** (2.0 / (2.0 * q - 3.0))
        samples.append((lhs, gterm, mterm, nfac))

    c_of_eps = []
    d_of_eps = []
    mid_ratios = None
    for idx, eps in enumerate(eps_grid):
        ratios = []
        dvals = []
        for lhs, gterm, mterm, nfac in samples:
            rhs = eps * gterm + eps ** (-theta) * nfac * mterm
            ratios.append(lhs / rhs)
            dvals.append(max(lhs - eps * gterm, 0.0) / (nfac * mterm))
        c_of_eps.append(max(ratios))
        d_of_eps.append(max(dvals))
        if idx == eps_grid.size // 2:
            mid_ratios = ratios
    d_of_eps = np.asarray(d_of_eps)
    usable = d_of_eps > 0.0
    if np.count_nonzero(usable) >= 2:
        slope = float(
            np.polyfit(np.log(eps_grid[usable]), np.log(d_of_eps[usable]), 1)[0]
        )
    else:
        slope = float("nan")
    predicted = -theta
    slope_ok = np.isfinite(slope) and abs(slope - predicted) <= 0.1
    notes = (
        f"second-term slope {slope:.4f} vs predicted {predicted:.4f}; "
        f"fitted C per eps: "
        + ", ".join(f"{e:g}:{c:.4g}" for e, c in zip(eps_grid, c_of_eps))
    )
    return report_from_ratios(
        f"eps_poincare_q{q:g}_p{p:g}",
        mid_ratios or [],
        seed,
        notes=notes,
        extra_pass=slope_ok,
    )


# ---------------------------------------------------------------------------
# smooth cutoff


def _bump(x: np.ndarray) -> np.ndarray:
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, np.exp(-1.0 / safe), 0.0)


def _bump_prime(x: np.ndarray) -> np.ndarray:
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, np.exp(-1.0 / safe) / (safe * safe), 0.0)


def _phi(x: np.ndarray) -> np.ndarray:
    u = _bump(2.0 - x)
    w = _bump(x - 1.0)
    rho = u / (u + w)
    return rho * rho


def _phi_prime(x: np.ndarray) -> np.ndarray:
    u = _bump(2.0 - x)
    w = _bump(x - 1.0)
    du = -_bump_prime(2.0 - x)
    dw = _bump_prime(x - 1.0)
    denom = (u + w) ** 2
    rho = u / (u + w)
    drho = (du * w - u * dw) / denom
    return 2.0 * rho * drho


@dataclass(frozen=True)
class CutoffProfile:
    """Radial cutoff equal to 1 on [0, R] and 0 beyond 2R.

    ``c_hat`` is the mesh maximum of R |grad eta| / min(sqrt(eta),
    sqrt(1 - eta)), so it certifies both square-root gradient bounds at
    once; the construction depends on r/R only, making c_hat exactly
    scale-invariant.
    """

    R: float
    c_hat: float

    def evaluate(self, radius: np.ndarray) -> np.ndarray:
        return _phi(np.asarray(radius, dtype=float) / self.R)

    def gradient_magnitude(self, radius: np.ndarray) -> np.ndarray:
        return np.abs(_phi_prime(np.asarray(radius, dtype=float) / self.R)) / self.R


# nodes of the mesh on x = r/R in [0, 2.2] that c_hat is maximized over;
# fine enough to resolve the transition annulus 1 < x < 2
_CUTOFF_MESH_POINTS = 22001


def build_cutoff(R: float) -> CutoffProfile:
    if not R > 0.0:
        raise ValueError("R must be positive")
    x = np.linspace(0.0, 2.2, _CUTOFF_MESH_POINTS)
    eta = _phi(x)
    dphi = np.abs(_phi_prime(x))
    denom = np.minimum(np.sqrt(eta), np.sqrt(np.maximum(1.0 - eta, 0.0)))
    mask = (denom > 0.0) & (dphi > 0.0)
    return CutoffProfile(R=float(R), c_hat=float(np.max(dphi[mask] / denom[mask])))


# ---------------------------------------------------------------------------
# barriers


def critical_weight_constant(n: float, k: float) -> float:
    """Coefficient of the transport terms in the critical barrier estimate.

    Collects the Young split of the drift against the weighted gradient for
    weight exponents (n, k): 3 (n + k)^2 + (9/2) k - 3 n.
    """
    return 3.0 * (n + k) ** 2 + 4.5 * k - 3.0 * n


def barrier_sufficient_rate(
    regime: str,
    k: float,
    *,
    n_weight: float = -6.0,
    m_bound: float | None = None,
    trace_bound: float | None = None,
    ellipticity: float | None = None,
) -> float:
    """Sufficient barrier decay rate for the given coefficient bounds.

    Critical regime (exp(-eta t^(2/3)) barrier): eta = (3/2) C(n,k) M with
    M = sup_t t^(1/3) |A[f]|_inf.  Subcritical regime (exp(-eta t)
    barrier, k > 5): with C1 = k * trace bound and C2 = k (k+2) *
    ellipticity floor, delta = min(C2/C1, 5/2) and
    eta = C1 (5/(2 delta))^(10/3); the clamp keeps eta >= C1, which is
    pointwise sufficient on its own.
    """
    if regime == CRITICAL:
        if m_bound is None or not m_bound > 0.0:
            raise ValueError("critical regime needs the bound M > 0")
        return 1.5 * critical_weight_constant(n_weight, k) * m_bound
    if regime == SUBCRITICAL:
        if k <= 5.0:
            raise HypothesisError("hypothesis: k > 5 required")
        if trace_bound is None or not trace_bound > 0.0:
            raise ValueError("subcritical regime needs a positive trace bound")
        if ellipticity is None or not ellipticity > 0.0:
            raise ValueError("subcritical regime needs a positive ellipticity floor")
        c1 = k * trace_bound
        c2 = k * (k + 2.0) * ellipticity
        delta = min(c2 / c1, 2.5)
        return c1 * (5.0 / (2.0 * delta)) ** (10.0 / 3.0)
    raise ValueError(f"unknown regime {regime!r}")


@dataclass(frozen=True)
class BarrierParams:
    """Pointwise barrier a exp(-eta t^(2/3)) <v>^-k or a exp(-eta t) <v>^-k."""

    a: float
    k: float
    eta_rate: float
    regime: str

    def __post_init__(self) -> None:
        if not self.a > 0.0:
            raise ValueError("barrier amplitude a must be positive")
        if not self.k > 0.0:
            raise ValueError("barrier exponent k must be positive")
        if self.regime not in (CRITICAL, SUBCRITICAL):
            raise ValueError(f"unknown regime {self.regime!r}")

    def level(self, t: float) -> float:
        if self.regime == CRITICAL:
            return self.a * math.exp(-self.eta_rate * t ** (2.0 / 3.0))
        return self.a * math.exp(-self.eta_rate * t)


@dataclass(frozen=True)
class MonitorSeries:
    values: np.ndarray
    ratios: np.ndarray
    hypothesis_ok: bool
    max_increase: float


def minimum_principle_monitor(
    trajectory, params: BarrierParams, n_weight: float = -6.0
) -> MonitorSeries:
    """Weighted level-set mass of the barrier excess along a trajectory.

    Tracks int <v>^n (level(t) - f <v>^k)_+^(3/2) per snapshot; for data
    that starts above the barrier it should be identically zero at t = 0
    and nonincreasing afterwards.  Also gives the lower-bound ratio
    min f <v>^k / level(t) per snapshot.  A snapshot with min f <v>^k at
    or above level(t) has no excess: its value is exactly 0.0, the sum's
    value, set without the power and the sum.
    """
    if n_weight >= -3.0:
        raise ValueError("n_weight must be below -3")
    states = trajectory.states
    if not states:
        raise ValueError("trajectory has no snapshots")
    grid = trajectory.grid
    vol = grid.cell_volume()
    wn = grid.weight(n_weight)
    wk = grid.weight(params.k)
    values = np.empty(len(states))
    ratios = np.empty(len(states))
    for i, snap in enumerate(states):
        level = params.level(snap.t)
        fk = snap.f.values * wk
        fk_min = np.min(fk)
        ratios[i] = fk_min / level
        if fk_min >= level:
            values[i] = 0.0
        else:
            values[i] = vol * np.sum(wn * np.maximum(level - fk, 0.0) ** 1.5)
    increases = np.diff(values)
    max_increase = float(np.max(increases)) if increases.size else 0.0
    return MonitorSeries(
        values=values,
        ratios=ratios,
        hypothesis_ok=bool(values[0] == 0.0),
        max_increase=max_increase,
    )


@dataclass(frozen=True)
class BarrierVerdict:
    """Barrier and monitor of one trajectory, with the three checks and
    their two tolerances."""

    params: BarrierParams
    monitor: MonitorSeries
    min_ratio: float
    monotone_tol: float
    lower_tol: float
    hypothesis_ok: bool
    monotone_ok: bool
    lower_bound_ok: bool


def barrier_verdict(trajectory, f0: ScalarField, regime: str, k: float, *,
                    n_weight: float = -6.0, a: float | None = None) -> BarrierVerdict:
    """Build the barrier from the records' coefficient bounds and check it:
    the monitor starts at 0, rises by at most 1e-8 + h^2 per snapshot, and
    the ratios stay at or above 1 - 10 h^2.  a defaults to min f0 <v>^k."""
    records = trajectory.records
    if a is None:
        a = float(np.min(f0.values * f0.grid.weight(k)))
    if regime == CRITICAL:
        bounds = {"m_bound": max(
            (r.sup_A * r.t ** (1.0 / 3.0) for r in records if r.t > 0.0),
            default=records[-1].sup_A,
        )}
    else:
        bounds = {
            "trace_bound": 3.0 * max(r.sup_A for r in records),
            "ellipticity": min(r.c0_hat for r in records),
        }
    eta = barrier_sufficient_rate(regime, k, n_weight=n_weight, **bounds)
    params = BarrierParams(a=a, k=k, eta_rate=eta, regime=regime)
    monitor = minimum_principle_monitor(trajectory, params, n_weight)
    h2 = trajectory.grid.h ** 2
    monotone_tol = 1e-8 + h2
    lower_tol = 1.0 - 10.0 * h2
    min_ratio = float(np.min(monitor.ratios))
    return BarrierVerdict(
        params=params, monitor=monitor, min_ratio=min_ratio,
        monotone_tol=monotone_tol, lower_tol=lower_tol,
        hypothesis_ok=monitor.hypothesis_ok,
        monotone_ok=monitor.max_increase <= monotone_tol,
        lower_bound_ok=min_ratio >= lower_tol,
    )
