"""Iteration ladders driven by measured level-set energies.

The critical ladder raises thresholds K + (1 - 2^-n) eta while shrinking
the time window from t(1 - 2^-n); the subcritical ladder raises K(1 - 2^-n)
at a general exponent p.  Constants in front of the gain-of-integrability
recurrence are fitted per trajectory, never assumed, and the fitted values
feed the closed-form pointwise bound predictions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .inequalities import CRITICAL, SUBCRITICAL

EPS0_NOTE = (
    "eps0 uses min(1, 1/(64 (C1+C2)^(3/2))): the smallness-consistent "
    "reading of the iteration's threshold"
)


@dataclass(frozen=True)
class IterationLadder:
    regime: str
    K: float
    amplitude: float
    t: float
    T: float
    p: float
    levels: tuple
    times: tuple
    energies: tuple
    a_values: tuple
    b_values: tuple
    floor: float
    usable: tuple


def measure_ladder(
    trajectory,
    regime: str,
    K: float,
    amplitude: float,
    t: float,
    T: float,
    N_levels: int = 8,
    p: float = 2.0,
) -> IterationLadder:
    """Level-set energies along the geometric threshold/time ladder.

    Critical regime: E_n = A + B at exponent 3/2 and weight 9/2.
    Subcritical regime: E_n = A^(2/5) B^(3/5) at exponent p.
    Levels below 10x the quadrature floor are kept but marked unusable.
    """
    if regime not in (CRITICAL, SUBCRITICAL):
        raise ValueError(f"unknown regime {regime!r}")
    if not 1 <= N_levels <= 12:
        raise ValueError("N_levels must lie in [1, 12]")
    if not 0.0 < t <= T:
        raise ValueError("need 0 < t <= T")
    states = trajectory.states
    if states[0].t > 1e-9 or states[-1].t < T * (1.0 - 1e-9):
        raise ValueError("window uncovered: trajectory does not span [0, T]")
    if regime == CRITICAL:
        if not amplitude > 0.0:
            raise ValueError("critical ladder needs a positive amplitude")
        if K < 0.0:
            raise ValueError("K must be nonnegative")
    elif not K > 0.0:
        raise ValueError("subcritical ladder needs K > 0")

    # every rung from one walk over the snapshots
    fracs = [1.0 - 2.0 ** (-n) for n in range(N_levels + 1)]
    times = [t * frac for frac in fracs]
    if regime == CRITICAL:
        levels, p_rung = [K + frac * amplitude for frac in fracs], 1.5
    else:
        levels, p_rung = [K * frac for frac in fracs], p
    wins = diagnostics.level_set_energies(
        trajectory, [(ell_n, p_rung, 4.5, (t_n, T)) for ell_n, t_n in zip(levels, times)]
    )
    if regime == CRITICAL:
        energies = [win.e for win in wins]
    else:
        energies = [win.a_sup ** 0.4 * win.b_int ** 0.6 for win in wins]
    a_vals = [win.a_sup for win in wins]
    b_vals = [win.b_int for win in wins]

    floor = 1e-13 * (1.0 + energies[0])
    usable = tuple(e > 10.0 * floor for e in energies)
    return IterationLadder(
        regime=regime, K=float(K), amplitude=float(amplitude), t=float(t),
        T=float(T), p=float(p), levels=tuple(levels), times=tuple(times),
        energies=tuple(energies), a_values=tuple(a_vals),
        b_values=tuple(b_vals), floor=floor, usable=usable,
    )


def critical_bracket(n: int, K: float, eta: float, t: float, e0: float) -> float:
    """Growth factor of the critical recurrence at rung n."""
    s = 4.0 ** n
    return 1.0 + s * (
        1.0
        + 1.0 / (eta * t)
        + math.sqrt(e0) / eta ** 0.75
        + K / eta
        + K * K / (eta * eta)
    )


def subcritical_bracket(n: int, K: float, t: float, p: float) -> float:
    """Growth factor of the subcritical recurrence at rung n."""
    kappa = 2.0 * p / 3.0 + 1.0
    return 2.0 ** (n * kappa) * (
        1.0 / (K ** (2.0 * p / 3.0) * t)
        + 1.0 / K ** (2.0 * p / 3.0)
        + 1.0 / K ** ((2.0 * p - 3.0) / 3.0)
    )


@dataclass(frozen=True)
class RecurrenceFit:
    regime: str
    c_hat: float
    rungs: tuple
    ratios: tuple
    slack: tuple
    brackets: tuple
    verdict: str
    note: str = EPS0_NOTE


def fit_recurrence(ladder: IterationLadder) -> RecurrenceFit:
    """Smallest single constant C with E_{n+1} <= C bracket_n E_n^(5/3).

    C is the max ratio over usable rungs, so the bound holds with equality
    at the tightest rung and nonnegative slack everywhere else.
    """
    E = ladder.energies
    if max(E) == 0.0:
        return RecurrenceFit(ladder.regime, 0.0, (), (), (), (), "vacuous")
    pairs = [
        n
        for n in range(len(E) - 1)
        if ladder.usable[n] and ladder.usable[n + 1]
    ]
    if len(pairs) < 3:
        raise ValueError("degenerate ladder: need at least 4 levels above the floor")
    brackets = []
    for n in pairs:
        if ladder.regime == CRITICAL:
            br = critical_bracket(n, ladder.K, ladder.amplitude, ladder.t, E[0])
        else:
            br = subcritical_bracket(n, ladder.K, ladder.t, ladder.p)
        brackets.append(br)
    ratios = [E[n + 1] / (br * E[n] ** (5.0 / 3.0)) for n, br in zip(pairs, brackets)]
    c_hat = max(ratios)
    slack = [
        c_hat * br * E[n] ** (5.0 / 3.0) - E[n + 1]
        for n, br in zip(pairs, brackets)
    ]
    return RecurrenceFit(
        regime=ladder.regime, c_hat=float(c_hat), rungs=tuple(pairs),
        ratios=tuple(ratios), slack=tuple(slack), brackets=tuple(brackets),
        verdict="fitted",
    )


def critical_eps0(c1: float, c2: float) -> float:
    """Smallness threshold for the critical iteration.

    min(1, 1/(64 (C1+C2)^(3/2))); the min keeps the threshold consistent
    with its role (first recurrence term below 1/2 for E0 below it).
    """
    if c1 < 0.0 or c2 < 0.0:
        raise ValueError("constants must be nonnegative")
    if c1 + c2 == 0.0:
        return 1.0
    return min(1.0, 1.0 / (64.0 * (c1 + c2) ** 1.5))


def predict_linf_bound(
    c: float, regime: str, value: float, K: float, t: float, p: float = 2.0
) -> float:
    """Closed-form pointwise bound from the fitted recurrence constant c.

    Critical: C*(K+1) + C* eps^(2/3)/t with value = eps and
    C* = 1 + 2 max(64c, 256c^(4/3), 8c^(1/2)) (valid for eps <= 1).
    Subcritical: max of the three K-choices from the barrier algebra with
    value = E0, B = 2^(3 kappa/2).
    """
    if c < 0.0 or value < 0.0 or not t > 0.0:
        raise ValueError("need nonnegative constants and t > 0")
    if regime == CRITICAL:
        cstar = 1.0 + 2.0 * max(64.0 * c, 256.0 * c ** (4.0 / 3.0), 8.0 * math.sqrt(c))
        return cstar * (K + 1.0) + cstar * value ** (2.0 / 3.0) / t
    if regime == SUBCRITICAL:
        if not p > 1.5:
            raise ValueError("subcritical regime needs p > 3/2")
        kappa = 2.0 * p / 3.0 + 1.0
        big_b = 2.0 ** (1.5 * kappa)
        gain = 3.0 * c * big_b
        e0 = value
        return max(
            gain ** (3.0 / (2.0 * p)) * e0 ** (1.0 / p) * t ** (-3.0 / (2.0 * p)),
            gain ** (3.0 / (2.0 * p)) * e0 ** (1.0 / p),
            gain ** (3.0 / (2.0 * p - 3.0)) * e0 ** (2.0 / (2.0 * p - 3.0)),
        )
    raise ValueError(f"unknown regime {regime!r}")


@dataclass(frozen=True)
class LadderVerdict:
    """Ladder, fit and checks of one trajectory.  ``sound`` is None without
    a fitted constant; ``skipped`` names why a degenerate fit was skipped.
    ``decay_ok`` checks rungs n <= 6 in the critical regime only (None
    elsewhere) and holds vacuously, ``decay_active`` False, when E0 > eps0.
    """

    ladder: IterationLadder
    fit: RecurrenceFit | None
    predicted: float | None
    tail_linf: float
    sound: bool | None
    eps0: float | None
    decay_active: bool
    worst_ratio: float
    decay_ok: bool | None
    skipped: str | None


def ladder_verdict(trajectory, regime: str, *, K: float | None = None,
                   amplitude: float | None = None, t: float | None = None,
                   N_levels: int = 8, p: float = 2.0) -> LadderVerdict:
    """Measure, fit and check the ladder.  None takes the default rule:
    t = T/2, K = 0.6 sup_[t,T] f, and the amplitude max(1.05 (sup - K),
    1e-8) when critical, K otherwise."""
    T = trajectory.T
    t = t if t is not None else 0.5 * T
    tail_linf = max(r.linf for r in trajectory.records if r.t >= t)
    K = K if K is not None else 0.6 * tail_linf
    if amplitude is None:
        # slightly overshoot the sup so the top rungs empty out
        amplitude = max(1.05 * (tail_linf - K), 1e-8) if regime == CRITICAL else K
    ladder = measure_ladder(trajectory, regime, K, amplitude, t, T, N_levels=N_levels, p=p)
    try:
        fit, skipped = fit_recurrence(ladder), None
    except ValueError as exc:  # a degenerate ladder is a result, not a fault
        fit, skipped = None, str(exc)
    predicted = sound = eps0 = decay_ok = None
    active, worst = False, 0.0
    if fit is not None and fit.verdict == "fitted":
        predicted = predict_linf_bound(fit.c_hat, regime, ladder.energies[0], K, t, p)
        sound = tail_linf <= predicted * (1.0 + 1e-9)
        if regime == CRITICAL:
            eps0 = critical_eps0(fit.c_hat, fit.c_hat)
            E, floor = ladder.energies, 10.0 * ladder.floor
            active = E[0] <= eps0
            # worst ratio of consecutive rungs n <= 6 above the floor
            for n in range(min(6, len(E) - 1)):
                if not active or E[n] <= floor:
                    break
                if E[n + 1] > floor:
                    worst = max(worst, E[n + 1] / E[n])
            decay_ok = worst <= 0.9
    return LadderVerdict(
        ladder=ladder, fit=fit, predicted=predicted, tail_linf=tail_linf,
        sound=sound, eps0=eps0, decay_active=active, worst_ratio=worst,
        decay_ok=decay_ok, skipped=skipped,
    )


@dataclass(frozen=True)
class OdeMonitor:
    times: np.ndarray
    y: np.ndarray
    f_series: np.ndarray
    z: np.ndarray
    g_series: np.ndarray
    dydt: np.ndarray
    c_fit: float
    satisfied_fraction: float
    verdict: bool
    vacuous: bool


def propagation_ode_monitor(trajectory, K: float, m: float = 4.5) -> OdeMonitor:
    """Check dy/dt + F <= c (F y^(2/3) + (1+K) y + y^(7/5) + K z).

    y, F are the excess functionals at threshold K; z, G the capped bulk
    at 2K.  dy/dt is centered on the snapshot times.  The constant is
    fitted as the 95th percentile of the per-time ratios and the verdict
    asks that one constant covers at least 95% of times.
    """
    states = trajectory.states
    if len(states) < 3:
        raise ValueError("cadence too coarse: need at least 3 snapshots")
    gaps = np.diff([s.step_count for s in states])
    if np.max(gaps) > 10:
        raise ValueError("cadence too coarse: snapshots at most 10 steps apart")
    times = np.array([s.t for s in states])
    series = np.array([diagnostics.bulk_quantities(s, K, m) for s in states])
    y, f_term, z, g_term = series.T
    dydt = np.gradient(y, times)
    lhs = dydt + f_term
    shape = f_term * y ** (2.0 / 3.0) + (1.0 + K) * y + y ** 1.4 + K * z
    vacuous = bool(np.max(y) == 0.0 and np.max(f_term) == 0.0)
    live = shape > 0.0
    if not np.any(live):
        return OdeMonitor(times, y, f_term, z, g_term, dydt, 0.0, 1.0, True, vacuous)
    ratios = lhs[live] / shape[live]
    c_fit = max(0.0, float(np.percentile(ratios, 95.0)))
    satisfied = float(np.mean(lhs[live] <= c_fit * shape[live] * (1.0 + 1e-9)))
    verdict = bool(np.all(np.isfinite(ratios)) and satisfied >= 0.95)
    return OdeMonitor(
        times=times, y=y, f_series=f_term, z=z, g_series=g_term, dydt=dydt,
        c_fit=c_fit, satisfied_fraction=satisfied, verdict=verdict,
        vacuous=vacuous,
    )


def prop51_window(delta: float, c1: float) -> float:
    """Time horizon over which initial smallness delta propagates:
    min(1, delta / (C1 (1 + 2 delta + (2 delta)^(7/3))))."""
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    if not c1 > 0.0:
        raise ValueError("c1 must be positive")
    return min(1.0, delta / (c1 * (1.0 + 2.0 * delta + (2.0 * delta) ** (7.0 / 3.0))))
