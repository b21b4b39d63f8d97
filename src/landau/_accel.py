"""The two numerical kernels outside the FFTs, in vectorized numpy.

``div_flux`` assembles the divergence of the face flux A grad f - f grad a
at every stage of every time step; ``eig_range`` gives the per-node
ellipticity range of A, read once per recorded state.  Both are serial
and deterministic, so repeated runs produce bit-identical output.
"""
from __future__ import annotations

import math

import numpy as np

_TWO_PI_3 = 2.0 * math.pi / 3.0

# symmetric component order used throughout: xx yy zz xy xz yz
_ROWS = ((0, 3, 4), (3, 1, 5), (4, 5, 2))


def eig_range(a6: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalue of a field of symmetric 3x3 matrices.

    Closed-form trigonometric method; no iterative solver.
    """
    axx, ayy, azz, axy, axz, ayz = a6
    p1 = axy * axy + axz * axz + ayz * ayz
    q = (axx + ayy + azz) / 3.0
    p2 = (axx - q) ** 2 + (ayy - q) ** 2 + (azz - q) ** 2 + 2.0 * p1
    p = np.sqrt(np.maximum(p2, 0.0) / 6.0)
    safe = p > 0.0
    ps = np.where(safe, p, 1.0)
    bxx = (axx - q) / ps
    byy = (ayy - q) / ps
    bzz = (azz - q) / ps
    bxy = axy / ps
    bxz = axz / ps
    byz = ayz / ps
    detb = (
        bxx * (byy * bzz - byz * byz)
        - bxy * (bxy * bzz - byz * bxz)
        + bxz * (bxy * byz - byy * bxz)
    )
    r = np.clip(detb / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    lmax = q + 2.0 * ps * np.cos(phi)
    lmin = q + 2.0 * ps * np.cos(phi + _TWO_PI_3)
    # p == 0 means the matrix is exactly isotropic
    lmax = np.where(safe, lmax, q)
    lmin = np.where(safe, lmin, q)
    return lmin, lmax


def div_flux(
    f: np.ndarray,
    g3: np.ndarray,
    a6: np.ndarray,
    ga3: np.ndarray,
    h: float,
) -> np.ndarray:
    """Divergence of the face flux A grad(f) - grad(a) f on the cell grid.

    Face values are arithmetic means of the two adjacent cells, the normal
    derivative is the two-point difference across the face, tangential
    derivatives are means of the cell-centered gradient ``g3``.  Boundary
    faces carry zero flux, so the full-grid sum telescopes to round-off.
    """
    out = np.zeros_like(f)
    for d in range(3):
        row = _ROWS[d]
        left = [slice(None)] * 3
        right = [slice(None)] * 3
        left[d] = slice(None, -1)
        right[d] = slice(1, None)
        lo, hi = tuple(left), tuple(right)
        face = 0.5 * (a6[row[d]][lo] + a6[row[d]][hi]) * (f[hi] - f[lo]) / h
        for e in range(3):
            if e == d:
                continue
            face += (
                0.5
                * (a6[row[e]][lo] + a6[row[e]][hi])
                * 0.5
                * (g3[e][lo] + g3[e][hi])
            )
        face -= 0.5 * (ga3[d][lo] + ga3[d][hi]) * 0.5 * (f[lo] + f[hi])
        out[lo] += face / h
        out[hi] -= face / h
    return out
