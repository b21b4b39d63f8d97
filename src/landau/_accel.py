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

    Closed-form trigonometric method; no iterative solver.  The steps run
    in place on a few work arrays, rounding the same operands in the same
    order as the plain expression of the method would, so the result is
    the same bit for bit at a fraction of its temporaries.
    """
    axx, ayy, azz, axy, axz, ayz = a6
    q = axx + ayy
    q += azz
    q /= 3.0
    # deviatoric diagonal, then p = sqrt(tr(dev^2) / 6)
    bxx, byy, bzz = axx - q, ayy - q, azz - q
    p1 = axy * axy
    p1 += axz * axz
    p1 += ayz * ayz
    p1 *= 2.0
    ps = bxx * bxx
    ps += byy * byy
    ps += bzz * bzz
    ps += p1
    del p1
    np.maximum(ps, 0.0, out=ps)
    ps /= 6.0
    np.sqrt(ps, out=ps)
    # p == 0 means the matrix is exactly isotropic
    isotropic = ~(ps > 0.0)
    ps[isotropic] = 1.0
    bxx /= ps
    byy /= ps
    bzz /= ps
    bxy, bxz, byz = axy / ps, axz / ps, ayz / ps
    # r = det(B) / 2, clipped, then phi = arccos(r) / 3
    r = byy * bzz
    r -= byz * byz
    r *= bxx
    term = bxy * bzz
    term -= byz * bxz
    term *= bxy
    r -= term
    np.multiply(bxy, byz, out=term)
    term -= byy * bxz
    term *= bxz
    r += term
    del bxx, byy, bzz, bxy, bxz, byz, term
    r /= 2.0
    np.clip(r, -1.0, 1.0, out=r)
    phi = np.arccos(r, out=r)
    phi /= 3.0
    ps *= 2.0
    lmax = np.cos(phi)
    lmax *= ps
    lmax += q
    phi += _TWO_PI_3
    lmin = np.cos(phi, out=phi)
    lmin *= ps
    lmin += q
    lmax[isotropic] = q[isotropic]
    lmin[isotropic] = q[isotropic]
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
