"""Hot numerical kernels with a numba path and a pure-numpy fallback.

The flux-divergence assembly, run at every stage of every time step, and
the per-node symmetric 3x3 eigenvalue range, run once per recorded state,
are the only loops outside the FFTs.  Both carry an ``@njit`` implementation and a vectorized numpy
implementation; ``LANDAU_NUMBA=0`` in the environment forces the numpy
path.  Both paths are serial and deterministic so repeated runs produce
bit-identical output.
"""
from __future__ import annotations

import math
import os

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False

USE_NUMBA = HAS_NUMBA and os.environ.get("LANDAU_NUMBA", "1") != "0"

_TWO_PI_3 = 2.0 * math.pi / 3.0

# symmetric component order used throughout: xx yy zz xy xz yz
_ROWS = ((0, 3, 4), (3, 1, 5), (4, 5, 2))


def eig_range_numpy(a6: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def div_flux_numpy(
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


if HAS_NUMBA:

    @njit(cache=True)
    def _face_x(f, gy, gz, axx, axy, axz, gax, h, i, j, k):
        t = 0.5 * (axx[i, j, k] + axx[i + 1, j, k]) * (f[i + 1, j, k] - f[i, j, k]) / h
        t += 0.5 * (axy[i, j, k] + axy[i + 1, j, k]) * 0.5 * (gy[i, j, k] + gy[i + 1, j, k])
        t += 0.5 * (axz[i, j, k] + axz[i + 1, j, k]) * 0.5 * (gz[i, j, k] + gz[i + 1, j, k])
        t -= 0.5 * (gax[i, j, k] + gax[i + 1, j, k]) * 0.5 * (f[i, j, k] + f[i + 1, j, k])
        return t

    @njit(cache=True)
    def _face_y(f, gx, gz, ayy, axy, ayz, gay, h, i, j, k):
        t = 0.5 * (ayy[i, j, k] + ayy[i, j + 1, k]) * (f[i, j + 1, k] - f[i, j, k]) / h
        t += 0.5 * (axy[i, j, k] + axy[i, j + 1, k]) * 0.5 * (gx[i, j, k] + gx[i, j + 1, k])
        t += 0.5 * (ayz[i, j, k] + ayz[i, j + 1, k]) * 0.5 * (gz[i, j, k] + gz[i, j + 1, k])
        t -= 0.5 * (gay[i, j, k] + gay[i, j + 1, k]) * 0.5 * (f[i, j, k] + f[i, j + 1, k])
        return t

    @njit(cache=True)
    def _face_z(f, gx, gy, azz, axz, ayz, gaz, h, i, j, k):
        t = 0.5 * (azz[i, j, k] + azz[i, j, k + 1]) * (f[i, j, k + 1] - f[i, j, k]) / h
        t += 0.5 * (axz[i, j, k] + axz[i, j, k + 1]) * 0.5 * (gx[i, j, k] + gx[i, j, k + 1])
        t += 0.5 * (ayz[i, j, k] + ayz[i, j, k + 1]) * 0.5 * (gy[i, j, k] + gy[i, j, k + 1])
        t -= 0.5 * (gaz[i, j, k] + gaz[i, j, k + 1]) * 0.5 * (f[i, j, k] + f[i, j, k + 1])
        return t

    @njit(cache=True)
    def _div_flux_jit(f, gx, gy, gz, axx, ayy, azz, axy, axz, ayz, gax, gay, gaz, h, out):
        n1, n2, n3 = f.shape
        inv_h = 1.0 / h
        for i in range(n1):
            for j in range(n2):
                for k in range(n3):
                    acc = 0.0
                    if i + 1 < n1:
                        acc += _face_x(f, gy, gz, axx, axy, axz, gax, h, i, j, k)
                    if i > 0:
                        acc -= _face_x(f, gy, gz, axx, axy, axz, gax, h, i - 1, j, k)
                    if j + 1 < n2:
                        acc += _face_y(f, gx, gz, ayy, axy, ayz, gay, h, i, j, k)
                    if j > 0:
                        acc -= _face_y(f, gx, gz, ayy, axy, ayz, gay, h, i, j - 1, k)
                    if k + 1 < n3:
                        acc += _face_z(f, gx, gy, azz, axz, ayz, gaz, h, i, j, k)
                    if k > 0:
                        acc -= _face_z(f, gx, gy, azz, axz, ayz, gaz, h, i, j, k - 1)
                    out[i, j, k] = acc * inv_h
        return out

    @njit(cache=True)
    def _eig_range_jit(axx, ayy, azz, axy, axz, ayz, lmin, lmax):
        m = axx.size
        fxx = axx.ravel()
        fyy = ayy.ravel()
        fzz = azz.ravel()
        fxy = axy.ravel()
        fxz = axz.ravel()
        fyz = ayz.ravel()
        fmin = lmin.ravel()
        fmax = lmax.ravel()
        for s in range(m):
            xx = fxx[s]
            yy = fyy[s]
            zz = fzz[s]
            xy = fxy[s]
            xz = fxz[s]
            yz = fyz[s]
            p1 = xy * xy + xz * xz + yz * yz
            q = (xx + yy + zz) / 3.0
            p2 = (xx - q) ** 2 + (yy - q) ** 2 + (zz - q) ** 2 + 2.0 * p1
            if p2 <= 0.0:
                fmin[s] = q
                fmax[s] = q
                continue
            p = math.sqrt(p2 / 6.0)
            bxx = (xx - q) / p
            byy = (yy - q) / p
            bzz = (zz - q) / p
            bxy = xy / p
            bxz = xz / p
            byz = yz / p
            detb = (
                bxx * (byy * bzz - byz * byz)
                - bxy * (bxy * bzz - byz * bxz)
                + bxz * (bxy * byz - byy * bxz)
            )
            r = detb / 2.0
            if r < -1.0:
                r = -1.0
            elif r > 1.0:
                r = 1.0
            phi = math.acos(r) / 3.0
            fmax[s] = q + 2.0 * p * math.cos(phi)
            fmin[s] = q + 2.0 * p * math.cos(phi + _TWO_PI_3)
        return lmin, lmax

    def div_flux_numba(f, g3, a6, ga3, h):
        out = np.empty_like(f)
        _div_flux_jit(
            f, g3[0], g3[1], g3[2], a6[0], a6[1], a6[2], a6[3], a6[4], a6[5],
            ga3[0], ga3[1], ga3[2], float(h), out,
        )
        return out

    def eig_range_numba(a6):
        lmin = np.empty_like(a6[0])
        lmax = np.empty_like(a6[0])
        _eig_range_jit(a6[0], a6[1], a6[2], a6[3], a6[4], a6[5], lmin, lmax)
        return lmin, lmax

else:  # pragma: no cover - exercised only without numba
    div_flux_numba = None
    eig_range_numba = None


if USE_NUMBA:
    div_flux = div_flux_numba
    eig_range = eig_range_numba
else:
    div_flux = div_flux_numpy
    eig_range = eig_range_numpy
