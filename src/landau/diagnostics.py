"""Scalar functionals tracked along runs.

Conserved quantities, entropy, Fisher information (both the |grad f|^2/f
form with the {f = 0} convention and the 4|grad sqrt(f)|^2 cross-check),
weighted norms, level-set energies over time windows, and distance to the
normalized equilibrium.

The excess functionals (level-set energies and the bulk quantities, whose
capped half is the excess of min(f, 2K) over level 0) are summed over the excess's bounding box widened by a halo of
3 cells, not over the grid: outside the box the excess and its gradient
are exactly zero, so the sums are the full grid's up to summation order.
An empty excess gives exactly 0.0 and takes no gradient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid_field import (
    ScalarField,
    gradient_values,
    squared_norm,
    weighted_gradient_energy,
    weighted_lp_norms,
)


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    mass: float
    momentum: tuple
    energy: float
    entropy: float
    fisher: float
    fisher_sqrt_form: float
    linf: float
    lp_norms: dict
    c0_hat: float
    sup_A: float


def moments(grid, values, out: np.ndarray | None = None) -> tuple:
    """(mass, momentum, energy) of node values by midpoint quadrature.

    Each product summed is built in ``out``, an n^3 array, when given, and
    |v|^2 with it, so the call allocates no grid-sized array; the sums run
    over the same products either way."""
    vol = grid.cell_volume()
    mass = vol * float(np.sum(values))
    momentum = tuple(
        vol * float(np.sum(np.multiply(x, values, out=out))) for x in grid.axes
    )
    weighted = grid.radius2_about((0.0, 0.0, 0.0), out=out)
    weighted *= values
    energy = vol * float(np.sum(weighted))
    return mass, momentum, energy


# nodes per chunk of a compaction: 256 kB of doubles
_COMPACT_NODES = 1 << 15


def _compact(values: np.ndarray, mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """values[mask] of two flat arrays, written chunk by chunk into the head
    of the flat array out, which it returns: the array boolean indexing
    gives, without its grid-sized temporary (np.compress makes two)."""
    k = 0
    for lo in range(0, values.size, _COMPACT_NODES):
        part = values[lo : lo + _COMPACT_NODES][mask[lo : lo + _COMPACT_NODES]]
        out[k : k + part.size] = part
        k += part.size
    return out[:k]


def record(
    state, p_list=(1.5,), m_list=(4.5,), f_floor: float = 1e-14,
    scratch: np.ndarray | None = None,
) -> DiagnosticsRecord:
    """All tracked functionals of one state by midpoint quadrature.

    ``scratch``, (4, n, n, n) contiguous doubles, holds the moments'
    products, the gradients, the masks, the compacted arrays and the
    norms' powers and products, and is overwritten; a run lends rows of
    its workspace that are dead between coefficient sets.  Without it, one
    is allocated.  The compactions give the arrays boolean indexing gives,
    and logs and products run in place on the same operands, so every sum
    runs over the same data as with plain expressions.
    """
    f = state.f
    grid = f.grid
    vol = grid.cell_volume()
    fv = f.values
    flat = fv.reshape(-1)
    t = float(state.t)
    if scratch is None:
        scratch = np.empty((4,) + fv.shape)
    g, rest = scratch[:3], scratch[3]
    mass, momentum, energy = moments(grid, fv, rest)
    # the masks go into the last row, which is free until the square root
    mask = rest.reshape(-1).view(bool)[: flat.size]
    np.greater(flat, 0.0, out=mask)
    fpos = _compact(flat, mask, g[0].reshape(-1))
    plogp = np.log(fpos, out=g[1].reshape(-1)[: fpos.size])
    plogp *= fpos
    entropy = vol * float(np.sum(plogp))

    grad2 = squared_norm(gradient_values(grid, fv, out=g)).reshape(-1)
    np.greater(flat, f_floor, out=mask)
    ratio = _compact(grad2, mask, g[1].reshape(-1))
    ratio /= _compact(flat, mask, g[2].reshape(-1))
    fisher = vol * float(np.sum(ratio))
    root = np.maximum(fv, 0.0, out=rest)
    np.sqrt(root, out=root)
    fisher_sqrt = 4.0 * vol * float(np.sum(squared_norm(gradient_values(grid, root, out=g))))

    lp = weighted_lp_norms(f, p_list, m_list, out=g[:2])
    return DiagnosticsRecord(
        t=t, mass=mass, momentum=momentum, energy=energy, entropy=entropy,
        fisher=fisher, fisher_sqrt_form=fisher_sqrt, linf=float(np.max(fv)),
        lp_norms=lp, c0_hat=state.c0_hat, sup_A=state.sup_A,
    )


@dataclass(frozen=True)
class LevelSetWindow:
    level: float
    p: float
    m: float
    t1: float
    t2: float
    a_sup: float
    b_int: float
    e: float
    n_snapshots: int


# zero cells kept on each side of the excess's support: gradient_values'
# one-sided edge stencil reads three cells, so on a box with a 3-cell zero
# rim every difference equals the full grid's, and the box edge reads 0
_HALO = 3


def _axis_maxima(values: np.ndarray) -> tuple:
    """Max of an (n, n, n) array over each x-, y- and z-index."""
    plane = values.max(axis=2)
    return plane.max(axis=1), plane.max(axis=0), values.max(axis=(0, 1))


def _excess_integrals(grid, values, level: float, p: float, m: float, maxima):
    """Weighted p-mass (weight <v>^m) of the excess e = (values - level)_+
    and the gradient term of e^(p/2) (weight <v>^(m-3)), summed over the
    excess's bounding box only.

    ``maxima`` are ``_axis_maxima(values)``.  The box is the index range,
    per axis, where they exceed the level, widened by ``_HALO`` cells and
    clipped to the grid; outside it e and its gradient are exactly zero,
    so both sums equal the full grid's up to summation order.  Both are
    exactly 0.0 when nothing exceeds the level, which then costs no
    gradient."""
    box = []
    for axis_max in maxima:
        above = np.flatnonzero(axis_max > level)
        if not above.size:
            return 0.0, 0.0
        box.append(slice(max(above[0] - _HALO, 0), above[-1] + 1 + _HALO))
    box = tuple(box)
    e = values[box] - level
    np.maximum(e, 0.0, out=e)
    vol = grid.cell_volume()
    a_val = vol * float(np.sum(grid.weight(m)[box] * e ** p))
    b_val = weighted_gradient_energy(grid, e ** (0.5 * p), grid.weight(m - 3.0)[box])
    return a_val, b_val


def level_set_energy(
    trajectory, level: float, p: float = 1.5, m: float = 4.5, window=None
) -> LevelSetWindow:
    """Windowed level-set energy: A = sup_t of the weighted p-mass of the
    excess, B = time integral (trapezoid over snapshots) of the weighted
    gradient term, E = A + B.  One rung of ``level_set_energies``."""
    return level_set_energies(trajectory, [(level, p, m, window)])[0]


def level_set_energies(trajectory, rungs) -> list:
    """``level_set_energy`` of every rung, each a (level, p, m, window)
    tuple with window None for the whole trajectory, in one walk over the
    snapshots: each snapshot is read once and serves every rung whose
    window holds it."""
    states = trajectory.states
    windows = []
    for level, p, m, window in rungs:
        if level < 0.0:
            raise ValueError("level must be nonnegative")
        if window is None:
            window = (states[0].t, states[-1].t)
        t1, t2 = float(window[0]), float(window[1])
        span = max(abs(t1), abs(t2), 1.0)
        inside = [t1 - 1e-12 * span <= s.t <= t2 + 1e-12 * span for s in states]
        if not any(inside):
            raise ValueError("empty window: no snapshots in [t1, t2]")
        windows.append((float(level), float(p), float(m), t1, t2, inside))
    a_vals = [[] for _ in windows]
    b_vals = [[] for _ in windows]
    times = [[] for _ in windows]
    for i, s in enumerate(states):
        served = [r for r, win in enumerate(windows) if win[5][i]]
        if not served:
            continue
        f = s.f  # one read of a snapshot kept on disk
        maxima = _axis_maxima(f.values)
        for r in served:
            level, p, m = windows[r][:3]
            a_val, b_val = _excess_integrals(f.grid, f.values, level, p, m, maxima)
            a_vals[r].append(a_val)
            b_vals[r].append(b_val)
            times[r].append(s.t)
    out = []
    for (level, p, m, t1, t2, _), a_r, b_r, t_r in zip(windows, a_vals, b_vals, times):
        a_sup = max(a_r)
        if len(t_r) > 1:
            bv = np.asarray(b_r)
            b_int = float(np.sum(0.5 * (bv[1:] + bv[:-1]) * np.diff(t_r)))
        else:
            b_int = 0.0
        out.append(LevelSetWindow(
            level=level, p=p, m=m, t1=t1, t2=t2,
            a_sup=a_sup, b_int=b_int, e=a_sup + b_int, n_snapshots=len(t_r),
        ))
    return out


def eps_regularity(trajectory, K: float, window=None) -> float:
    """The smallness quantity: level-set energy at (K, p=3/2, m=9/2)."""
    return level_set_energy(trajectory, K, 1.5, 4.5, window).e


def maxwellian(grid) -> ScalarField:
    """The normalized equilibrium (mass 1, momentum 0, energy 3) sampled
    on the grid."""
    vals = (2.0 * math.pi) ** -1.5 * np.exp(-0.5 * grid.radius2)
    return ScalarField(grid, vals)


def equilibrium_distance(state, m: float = 4.5):
    """(L1, weighted L2_m, Linf) distance of f to the equilibrium.

    Requires the state to satisfy the normalization (mass 1, zero
    momentum, energy 3) within loose tolerances; anything else is a
    caller error since the fixed equilibrium would be the wrong target.
    """
    f = getattr(state, "f", state)
    grid = f.grid
    vol = grid.cell_volume()
    fv = f.values
    mass, mom, energy = moments(grid, fv)
    if abs(mass - 1.0) > 0.05:
        raise ValueError(f"state is not normalized: mass {mass:.4g} != 1")
    if max(abs(q) for q in mom) > 0.05:
        raise ValueError("state is not normalized: nonzero momentum")
    if abs(energy - 3.0) > 0.3:
        raise ValueError(f"state is not normalized: energy {energy:.4g} != 3")
    diff = fv - maxwellian(grid).values
    l1 = vol * float(np.sum(np.abs(diff)))
    l2m = math.sqrt(vol * float(np.sum(grid.weight(m) * diff * diff)))
    return l1, l2m, float(np.max(np.abs(diff)))


def bulk_quantities(snap, K: float, m: float = 4.5):
    """(y, F, z, G) for one snapshot: excess and capped-bulk weighted
    3/2-masses and their gradient terms, at threshold K and cap 2K.  The
    capped bulk min(f, 2K)_+ is the excess of min(f, 2K) over level 0."""
    if K < 0.0:
        raise ValueError("level must be nonnegative")
    f = snap.f  # one read of a snapshot kept on disk
    grid, fv = f.grid, f.values
    y, f_term = _excess_integrals(grid, fv, K, 1.5, m, _axis_maxima(fv))
    capped = np.minimum(fv, 2.0 * K)
    z, g_term = _excess_integrals(grid, capped, 0.0, 1.5, m, _axis_maxima(capped))
    return y, f_term, z, g_term
