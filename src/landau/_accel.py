"""The two numerical kernels outside the FFTs, in vectorized numpy, and the
row slabs that spread them and the coefficient products over the cores.

``div_flux`` assembles the divergence of the face flux A grad f - f grad a
at every stage of every time step; ``eig_range`` gives the per-node
ellipticity range of A, read once per recorded state.

Each kernel cuts its rows along the first grid axis into one band per lane
and each band into chunks of a few rows.  The caller thread runs the first
band; a small thread pool, built on first use, runs the others.  numpy
releases the GIL inside its loops, so the bands run in parallel.  A chunk
performs the same floating-point operations, in the same order, as one
pass over the whole grid would on its elements, so the result is the same
bit for bit for every lane count and every run.  The lane count is
LANDAU_THREADS if set, else the CPU affinity count; with one lane the
kernel runs on the caller thread and no pool exists.  The pool threads
allocate no grid-sized array (every temporary goes to a workspace the
caller allocates) and call no public function, so a tracer that wraps the
public functions only ever runs on the caller thread.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from functools import lru_cache, partial

import numpy as np

from .errors import ConfigError

_TWO_PI_3 = 2.0 * math.pi / 3.0

# symmetric component order used throughout: xx yy zz xy xz yz
_ROWS = ((0, 3, 4), (3, 1, 5), (4, 5, 2))

# nodes per chunk of a band: about 256 kB per work array
_CHUNK_NODES = 1 << 15


def _threads() -> int:
    """LANDAU_THREADS if set (at least 1), else the CPU affinity count."""
    raw = os.environ.get("LANDAU_THREADS", "").strip()
    if raw:
        try:
            workers = int(raw)
        except ValueError as exc:
            raise ConfigError("LANDAU_THREADS must be an integer") from exc
        return max(1, workers)
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@lru_cache(maxsize=1)
def _pool(threads: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(threads, thread_name_prefix="landau-slab")


# a forked child has none of the parent's pool threads
os.register_at_fork(after_in_child=_pool.cache_clear)


def _band(kernel, lane: int, lo: int, hi: int, chunk: int) -> None:
    for start in range(lo, hi, chunk):
        kernel(lane, start, min(start + chunk, hi))


def _in_slabs(kernel, rows: int, lanes: int, chunk: int) -> None:
    """Call kernel(lane, lo, hi) on chunks of at most ``chunk`` rows that
    cover range(rows) once, lane k taking the k-th of ``lanes`` contiguous
    bands; lane 0 runs on the caller thread, the rest on the pool."""
    cuts = [rows * k // lanes for k in range(lanes + 1)]
    if lanes == 1:
        _band(kernel, 0, 0, rows, chunk)
        return
    pool = _pool(lanes - 1)
    futures = [pool.submit(_band, kernel, k, cuts[k], cuts[k + 1], chunk)
               for k in range(1, lanes)]
    try:
        _band(kernel, 0, cuts[0], cuts[1], chunk)
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _lanes_and_chunk(shape, splits: int = 1) -> tuple[int, int]:
    """Lanes and rows per chunk, at most a band over ``splits``, over an
    array of this shape."""
    rows, plane = shape[0], math.prod(shape[1:])
    lanes = min(_threads(), rows)
    band = -(-rows // lanes)
    return lanes, min(max(1, _CHUNK_NODES // max(1, plane)), -(-band // splits))


def eig_range(
    a6: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalue of a field of symmetric 3x3 matrices,
    written into the two rows of ``out`` when given.

    Closed-form trigonometric method; no iterative solver.  The steps run
    chunk by chunk on a few work arrays, rounding the same operands in the
    same order as the plain expression of the method would, so the result
    is the same bit for bit at a fraction of its temporaries.  Each chunk
    is scaled by a power of two taken from its largest |entry|, so the
    range is finite wherever A is.
    """
    shape = a6.shape[1:]
    # at least two chunks per band: on small grids one chunk would take a
    # whole band, and the eight work arrays would span the grid and set a
    # step's peak
    lanes, chunk = _lanes_and_chunk(shape, splits=2)
    lmin, lmax = (np.empty(shape), np.empty(shape)) if out is None else out
    work = np.empty((lanes, 8, chunk) + shape[1:])
    isotropic = np.empty((lanes, chunk) + shape[1:], dtype=bool)
    _in_slabs(partial(_eig_chunk, a6, lmin, lmax, work, isotropic),
              shape[0], lanes, chunk)
    return lmin, lmax


def _eig_chunk(a6, lmin, lmax, work, isotropic, lane, lo, hi) -> None:
    q, bxx, byy, bzz, bxy, bxz, byz, ps = work[lane, :, : hi - lo]
    iso = isotropic[lane, : hi - lo]
    # the outputs' rows serve as the last two work arrays until the end
    r, t = lmin[lo:hi], lmax[lo:hi]
    # the chunk runs on A / 2^e, 2^e its largest |entry| rounded up to a
    # power of two, so the squares below stay finite wherever A is; scaling
    # by a power of two is exact, so the range has the bits of the unscaled
    # method's wherever neither leaves the normal range
    chunk = a6[:, lo:hi]
    e = min(max(math.frexp(max(-chunk.min(), chunk.max()))[1], -1021), 1021)
    for entry, scaled in zip(chunk, (bxx, byy, bzz, bxy, bxz, byz)):
        np.multiply(entry, 2.0 ** -e, out=scaled)
    np.add(bxx, byy, out=q)
    q += bzz
    q /= 3.0
    # deviatoric diagonal, then p = sqrt(tr(dev^2) / 6)
    bxx -= q
    byy -= q
    bzz -= q
    np.multiply(bxy, bxy, out=r)
    np.multiply(bxz, bxz, out=t)
    r += t
    np.multiply(byz, byz, out=t)
    r += t
    r *= 2.0
    np.multiply(bxx, bxx, out=ps)
    np.multiply(byy, byy, out=t)
    ps += t
    np.multiply(bzz, bzz, out=t)
    ps += t
    ps += r
    np.maximum(ps, 0.0, out=ps)
    ps /= 6.0
    np.sqrt(ps, out=ps)
    # p == 0 means the matrix is exactly isotropic
    np.greater(ps, 0.0, out=iso)
    np.logical_not(iso, out=iso)
    np.copyto(ps, 1.0, where=iso)
    for b in (bxx, byy, bzz, bxy, bxz, byz):
        b /= ps
    # r = det(B) / 2, clipped, then phi = arccos(r) / 3; bxx, last read
    # by the first term, then holds the other two
    np.multiply(byy, bzz, out=r)
    np.multiply(byz, byz, out=t)
    r -= t
    r *= bxx
    term = bxx
    np.multiply(bxy, bzz, out=term)
    np.multiply(byz, bxz, out=t)
    term -= t
    term *= bxy
    r -= term
    np.multiply(bxy, byz, out=term)
    np.multiply(byy, bxz, out=t)
    term -= t
    term *= bxz
    r += term
    r /= 2.0
    np.clip(r, -1.0, 1.0, out=r)
    phi = np.arccos(r, out=r)
    phi /= 3.0
    ps *= 2.0
    np.cos(phi, out=t)
    t *= ps
    t += q
    phi += _TWO_PI_3
    np.cos(phi, out=r)
    r *= ps
    r += q
    np.copyto(t, q, where=iso)
    np.copyto(r, q, where=iso)
    t *= 2.0 ** e
    r *= 2.0 ** e


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
    lanes, chunk = _lanes_and_chunk(f.shape)
    out = np.zeros_like(f)
    # per lane: the face, a product and a sum, for chunk + 1 rows of faces
    work = np.empty((lanes, 3, (chunk + 1) * math.prod(f.shape[1:])))
    _in_slabs(partial(_flux_chunk, f, g3, a6, ga3, h, out, work),
              f.shape[0], lanes, chunk)
    return out


def _flux_chunk(f, g3, a6, ga3, h, out, work, lane, lo, hi) -> None:
    """Rows lo..hi-1 of div_flux.

    Each cell receives, per axis d in turn, +face/h from its upper face and
    then -face/h from its lower one, as in one pass over the grid.  The
    x-faces run from the one below row lo to the last one the chunk needs,
    so a face between two chunks is computed, identically, by both.
    """
    n = f.shape[0]
    first, last = max(lo - 1, 0), min(hi, n - 1)
    for d in range(3):
        if d == 0:
            below, above = (slice(first, last),), (slice(first + 1, last + 1),)
        else:
            cut = (slice(lo, hi),) + (slice(None),) * (d - 1)
            below, above = cut + (slice(None, -1),), cut + (slice(1, None),)
        face = _face(f, g3, a6, ga3, h, d, below, above, work[lane])
        if d == 0:
            upper, lower = out[lo:last], out[first + 1 : hi]
            upper += face[lo - first :]
            lower -= face[: hi - 1 - first]
        else:
            upper, lower = out[below], out[above]
            upper += face
            lower -= face


def _face(f, g3, a6, ga3, h, d, lo, hi, buffers) -> np.ndarray:
    """(A grad f - grad(a) f) . e_d / h on the faces between the cells lo
    and hi, in three buffers; returns the first."""
    shape = f[lo].shape
    face, t, u = (b[: math.prod(shape)].reshape(shape) for b in buffers)
    row = _ROWS[d]
    np.add(a6[row[d]][lo], a6[row[d]][hi], out=face)
    face *= 0.5
    np.subtract(f[hi], f[lo], out=t)
    face *= t
    face /= h
    for e in range(3):
        if e == d:
            continue
        np.add(a6[row[e]][lo], a6[row[e]][hi], out=t)
        t *= 0.5
        t *= 0.5
        np.add(g3[e][lo], g3[e][hi], out=u)
        t *= u
        face += t
    np.add(ga3[d][lo], ga3[d][hi], out=t)
    t *= 0.5
    t *= 0.5
    np.add(f[lo], f[hi], out=u)
    t *= u
    face -= t
    face /= h
    return face
