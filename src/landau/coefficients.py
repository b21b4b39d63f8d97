"""Nonlocal diffusion coefficients by zero-padded spectral convolution.

The matrix kernel Pi(v)/(8 pi |v|), Pi(v) = Id - v v^T/|v|^2, yields the
diffusion matrix A[f]; its trace is the scalar kernel 1/(4 pi |v|), so the
potential is a[f] = tr A[f].  The singular cell is replaced by the
analytic average of the kernel over that cell, which keeps the quadrature
second order.  Each component is even or odd along every axis, so its
real symbol on the doubled (zero-padding) grid is a signed mirror image
of its nonnegative octant (Martucci 1994).  The table keeps only the six
octants, 6 (n+1)^3 doubles (about 13 MB at n = 64, 103 MB at n = 128),
built from the kernels on (n+1)^3 nodes with a type-1 DCT along the even
axes and a type-1 DST along the odd ones.

Every convolution runs through one pruned transform path (Markel's FFT
pruning): the forward transform of f goes axis by axis and never touches
the seven-eighths of the padded input that is zero, and the inverse drops
the discarded output rows after each axis.  ``compute_coefficients``
transforms f once and streams the six components, one at a time, through
a single reused spectrum buffer, multiplied a few kx-planes at a time
against a small contiguous block that mirrors the octant with its parity
signs; the transform buffers are released before the gradient of the
potential is taken.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np
from scipy import fft as sp_fft

from . import _accel
from .grid_field import (
    ScalarField,
    SymMatrixField,
    VectorField,
    VelocityGrid,
    gradient_values,
    make_grid,
)

_FOUR_PI = 4.0 * np.pi
_EIGHT_PI = 8.0 * np.pi

_SCALAR_COMPONENT = "scalar"
_MATRIX_COMPONENTS = ("xx", "yy", "zz", "xy", "xz", "yz")
# per component and axis: is the kernel odd along it (the axis occurs once)?
_ODD = tuple(
    tuple(name.count(axis) == 1 for axis in "xyz") for name in _MATRIX_COMPONENTS
)


def fft_workers() -> int:
    """Worker count of the FFTs, and lane count of the row slabs in
    ``_accel``: LANDAU_THREADS if set, else the CPU affinity count."""
    return _accel._threads()


@lru_cache(maxsize=1)
def _unit_cell_kernel_average() -> float:
    """Average of 1/(4 pi |v|) over the unit cube centered at the origin.

    Gnomonic projection onto the six faces turns the weakly singular
    integral into a smooth 2-D one:
    integral over [-1,1]^3 of 1/|v| = 3 Q with
    Q = integral over [-1,1]^2 of (1 + x^2 + y^2)^(-1/2)
      = 4 (ln(2 + sqrt 3) - pi/6).
    """
    q = 4.0 * (np.log(2.0 + np.sqrt(3.0)) - np.pi / 6.0)
    return 3.0 * q / (16.0 * np.pi)


# Midpoint sums of the point-sampled kernel against a smooth f undershoot
# the continuum convolution by h^2 f(x) times a lattice constant.  Two
# pieces: the per-cell kernel deficits (cell average minus center value)
# sum to D = -0.00528220 over the unit lattice, each O(|j|^-5) since 1/r
# is harmonic; and the kernel-moment couplings to grad f and Hess f give
# exactly 1/12 - 1/24 through the identity Delta(K * f) = -f.  Loading
# D + 1/24 onto the origin slot cancels the whole h^2 term.  A third of
# it per diagonal entry does the same for the matrix kernel (the trace-
# free part of its Hessian coupling is all that survives) and keeps the
# trace identity exact.
_MIDPOINT_DEFICIT = 0.03638447


def _origin_slot(h: float) -> float:
    """Scalar-kernel value at the singular cell, corrected for its lattice."""
    return (_unit_cell_kernel_average() + _MIDPOINT_DEFICIT) / h


def _kernel_geometry(off: np.ndarray):
    """Per-axis offsets, |offset|^2 and |offset| on the lattice off^3.

    off holds the offsets of one axis with the origin at index 0; the
    origin's |offset| is a placeholder that the kernels overwrite.
    """
    o = (off[:, None, None], off[None, :, None], off[None, None, :])
    r2 = o[0] * o[0] + o[1] * o[1] + o[2] * o[2]
    r2[0, 0, 0] = 1.0
    return o, r2, np.sqrt(r2)


def _doubled_geometry(grid: VelocityGrid):
    """Kernel geometry on the doubled grid in wrap order: index j holds
    cell offset j for j <= n and j - 2n beyond."""
    n = grid.n
    m = 2 * n
    j = np.arange(m)
    return _kernel_geometry(np.where(j <= n, j, j - m).astype(float) * grid.h)


def _scalar_kernel(grid: VelocityGrid) -> np.ndarray:
    _, _, r = _doubled_geometry(grid)
    scalar = 1.0 / (_FOUR_PI * r)
    scalar[0, 0, 0] = _origin_slot(grid.h)
    return scalar


def _matrix_kernel(grid: VelocityGrid, comp: int, geometry) -> np.ndarray:
    """One component of Pi(v)/(8 pi |v|), in the order of _MATRIX_COMPONENTS."""
    o, r2, r = geometry
    i, k = ("xyz".index(axis) for axis in _MATRIX_COMPONENTS[comp])
    kernel = (1.0 / (_EIGHT_PI * r)) * (float(i == k) - o[i] * o[k] / r2)
    # origin slot: cubic symmetry kills the off-diagonal averages and
    # splits the scalar slot evenly over the diagonal
    kernel[0, 0, 0] = _origin_slot(grid.h) / 3.0 if i == k else 0.0
    return kernel


_local = threading.local()


def _spectra(m: int) -> np.ndarray:
    """Two (m, m, m/2+1) complex buffers of the calling thread, the spectrum
    of f and the product buffer of ``_convolutions``, kept from call to
    call.  Allocated afresh on every call, their freed blocks stayed
    resident or not depending on the heap layout, and the peak memory of
    one and the same run moved by a spectrum or more from process to
    process."""
    spectra = getattr(_local, "spectra", None)
    if spectra is None or spectra.shape[1] != m:
        _local.spectra = None  # free the old pair before the new one
        spectra = _local.spectra = np.empty((2, m, m, m // 2 + 1), dtype=complex)
    return spectra


def _forward(values: np.ndarray, m: int, workers: int) -> np.ndarray:
    """rfftn of values zero-padded to m^3, one axis at a time.

    The z pass writes into the first of the thread's spectrum buffers,
    zeroed elsewhere; the y pass runs in place on its first n planes and
    the x pass on the whole, so rows that are zero along the later axes are
    never transformed (FFT pruning) and no pass makes a padded copy.  The
    result is that buffer: the next call on this thread overwrites it.
    """
    n = values.shape[0]
    spec = _spectra(m)[0]
    spec[n:] = 0.0
    spec[:n, n:] = 0.0
    spec[:n, :n] = sp_fft.rfft(values, n=m, axis=2, workers=workers)
    spec[:n] = sp_fft.fft(spec[:n], axis=1, workers=workers, overwrite_x=True)
    return sp_fft.fft(spec, axis=0, workers=workers, overwrite_x=True)


def _halves(n: int):
    """The two ranges of a doubled-grid axis, first and stop, each with the
    octant rows that hold its symbol: 0..n as stored, and n+1..2n-1 as the
    mirror images n-1..1 (k -> 2n - k)."""
    return (0, n + 1, slice(None)), (n + 1, 2 * n, slice(n - 1, 0, -1))


# kx-planes per product block: 8 x 2n x (n+1) doubles, 0.5 MB at n = 64
_BLOCK_PLANES = 8


def _convolutions(values: np.ndarray, symbols, parities, workers: int) -> np.ndarray:
    """Leading n^3 corner of irfftn(rfftn(values) * symbol), zero padding to
    (2n)^3, for each octant symbol; stacked, not scaled by h^3.

    values is transformed once.  On the doubled grid a symbol is its octant
    mirrored by parity, hat[2n - k] = -hat[k] along an odd axis.  The 2n
    kx-planes of each product are split over the lanes of ``_accel``'s row
    slabs, one lane per FFT worker.  A few planes at a time, a lane copies
    the octant rows into its own small contiguous block, mirrored along ky
    with both parity signs applied, and multiplies the spectrum planes by
    that block into the second spectrum buffer, so every product runs on
    contiguous data.  The inverse runs on the caller thread, axis by axis
    in place, and drops the discarded output rows after each pass.
    """
    n = values.shape[0]
    fhat = _forward(values, 2 * n, workers)
    spec = _spectra(2 * n)[1]
    lanes = min(workers, 2 * n)
    blocks = np.empty((lanes, _BLOCK_PLANES, 2 * n, n + 1))
    out = np.empty((len(symbols), n, n, n))
    for c, parity in enumerate(parities):
        _accel._in_slabs(partial(_products, fhat, spec, symbols[c], parity, blocks),
                         2 * n, lanes, _BLOCK_PLANES)
        kept = sp_fft.ifft(spec, axis=1, workers=workers, overwrite_x=True)[:, :n]
        kept = sp_fft.ifft(kept, axis=0, workers=workers, overwrite_x=True)[:n]
        out[c] = sp_fft.irfft(kept, n=2 * n, axis=-1, workers=workers)[..., :n]
    return out


def _products(fhat, spec, octant, parity, blocks, lane, lo, hi) -> None:
    """spec = fhat * symbol on the kx-planes lo..hi-1, at most one block."""
    n = octant.shape[0] - 1
    odd_x, odd_y, _ = parity
    sign_y = -1.0 if odd_y else 1.0
    for (first, last, ox), sign_x in zip(_halves(n), (1.0, -1.0 if odd_x else 1.0)):
        start, stop = max(lo, first), min(hi, last)
        if start >= stop:
            continue
        rows = octant[ox][start - first : stop - first]
        b = blocks[lane, : stop - start]
        np.multiply(rows, sign_x, out=b[:, : n + 1])
        np.multiply(b[:, n - 1 : 0 : -1], sign_y, out=b[:, n + 1 :])
        np.multiply(fhat[start:stop], b, out=spec[start:stop])


@dataclass(frozen=True)
class KernelTable:
    """Real transfer functions of the six matrix-kernel components.

    ``symbols`` has shape (6, n+1, n+1, n+1) in the order xx, yy, zz, xy,
    xz, yz: the nonnegative octant, kx, ky, kz = 0..n, of the rfftn of
    each component tabulated on the doubled grid in wrap order, offsets
    -(n-1)..(n-1) per axis.  The unused slot at offset n never multiplies
    a retained output cell, so it is zeroed; each component is then even
    or odd along every axis and its symbol is real, with
    hat[2n - k] = hat[k] along an even axis and -hat[k] along an odd one.
    ``build_kernel_table`` tabulates only offsets 0..n and transforms them
    with DCT-I/DST-I; the convolutions mirror kx, ky > n from the octant
    with the parity sign.  The scalar kernel needs no symbol of its own:
    tr Pi/(8 pi r) = 1/(4 pi r) nodewise, so its symbol is the sum of the
    diagonal three, all even.

    The real-space ``scalar`` and ``matrix`` tables, offset-n slots not
    zeroed, are built on first access; only the direct-sum route and the
    tests read them.
    """

    grid: VelocityGrid
    symbols: np.ndarray

    @cached_property
    def scalar(self) -> np.ndarray:
        return _scalar_kernel(self.grid)

    @cached_property
    def matrix(self) -> np.ndarray:
        geometry = _doubled_geometry(self.grid)
        return np.stack([_matrix_kernel(self.grid, c, geometry) for c in range(6)])


@dataclass(frozen=True)
class CoefficientSet:
    """Potential a[f], its gradient, and the diffusion matrix A[f].

    The ellipticity range is derived from A on first read and cached:
    ``c0_hat`` = min over nodes of <v>^3 lambda_min(A), ``sup_A`` = max
    over nodes of lambda_max(A).  A set that is only stepped with, such
    as a Heun stage, never computes it.
    """

    a: ScalarField
    grad_a: VectorField
    A: SymMatrixField

    @cached_property
    def _ellipticity_range(self) -> tuple[float, float]:
        lmin, lmax = _accel.eig_range(self.A.values)
        return float(np.min(self.A.grid.weight(3.0) * lmin)), float(np.max(lmax))

    @property
    def c0_hat(self) -> float:
        return self._ellipticity_range[0]

    @property
    def sup_A(self) -> float:
        return self._ellipticity_range[1]


def _half_dft(values: np.ndarray, axis: int, odd: bool, workers: int) -> np.ndarray:
    """Offsets 0..n of the 2n-point DFT, along axis, of a sequence that is
    even or odd about offset 0 and zero at offset n, from its offsets 0..n.

    An even sequence's DFT is the DCT-I of its half.  An odd one's is -i
    times the DST-I of offsets 1..n-1, framed by zeros at 0 and n; the
    factor -i is left to the caller.
    """
    if not odd:
        return sp_fft.dct(values, type=1, axis=axis, workers=workers)
    inner = (slice(None),) * axis + (slice(1, values.shape[axis] - 1),)
    out = np.zeros_like(values)
    out[inner] = sp_fft.dst(values[inner], type=1, axis=axis, workers=workers)
    return out


def build_kernel_table(grid: VelocityGrid) -> KernelTable:
    n = grid.n
    workers = fft_workers()
    geometry = _kernel_geometry(np.arange(n + 1) * grid.h)
    symbols = np.empty((6, n + 1, n + 1, n + 1))
    for c, odd in enumerate(_ODD):
        hat = _matrix_kernel(grid, c, geometry)
        hat[n, :, :] = hat[:, n, :] = hat[:, :, n] = 0.0
        for axis in (2, 1, 0):
            hat = _half_dft(hat, axis, odd[axis], workers)
        # an off-diagonal component is odd along two axes: (-i)^2 = -1
        np.multiply(hat, -1.0 if any(odd) else 1.0, out=symbols[c])
    return KernelTable(grid=grid, symbols=symbols)


def kernel_table_for(grid: VelocityGrid) -> KernelTable:
    """The kernel table of grid's (n, l), shared by every equal grid."""
    return _cached_table(grid.n, grid.l)


@lru_cache(maxsize=4)
def _cached_table(n: int, l: float) -> KernelTable:
    return build_kernel_table(make_grid(n, l))


def _check_table_grid(table: KernelTable, grid: VelocityGrid) -> None:
    if table.grid is not grid and (table.grid.n, table.grid.l) != (grid.n, grid.l):
        raise ValueError("kernel table grid does not match field grid")


def convolve_free_space(
    f: ScalarField, table: KernelTable, component: str = _SCALAR_COMPONENT
) -> ScalarField:
    """Linear free-space convolution of f against one kernel component.

    Equals the direct sum h^3 sum_w K(v - w) f(w) to round-off: the zero
    padding guarantees no periodic image reaches a retained output cell.
    """
    _check_table_grid(table, f.grid)
    if component == _SCALAR_COMPONENT:
        # the sum of the diagonal three, each even along every axis
        khat, odd = table.symbols[0] + table.symbols[1] + table.symbols[2], _ODD[0]
    else:
        try:
            c = _MATRIX_COMPONENTS.index(component)
        except ValueError:
            raise ValueError(f"unknown kernel component {component!r}") from None
        khat, odd = table.symbols[c], _ODD[c]
    vals = _convolutions(f.values, (khat,), (odd,), fft_workers())[0]
    return ScalarField(f.grid, vals * f.grid.cell_volume())


def direct_convolve(
    f: ScalarField, table: KernelTable, component: str = _SCALAR_COMPONENT
) -> ScalarField:
    """Reference convolution by explicit summation over all cell pairs.

    Same kernel table as the spectral path, no transforms anywhere; cost
    grows with n^6, so keep n small.  Kept as an independent route for
    verifying the spectral result.
    """
    _check_table_grid(table, f.grid)
    if component == _SCALAR_COMPONENT:
        ker = table.scalar
    else:
        try:
            ker = table.matrix[_MATRIX_COMPONENTS.index(component)]
        except ValueError:
            raise ValueError(f"unknown kernel component {component!r}") from None
    n = f.grid.n
    m = 2 * n
    idx = np.indices((n, n, n)).reshape(3, -1).T
    flat = f.values.reshape(-1)
    total = flat.size
    out = np.empty(total)
    chunk = max(1, (1 << 22) // total)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        d = idx[start:stop, None, :] - idx[None, :, :]
        kv = ker[d[..., 0] % m, d[..., 1] % m, d[..., 2] % m]
        out[start:stop] = kv @ flat
    out *= f.grid.cell_volume()
    return ScalarField(f.grid, out.reshape(n, n, n))


def spectral_vs_direct(f: ScalarField, table: KernelTable) -> dict:
    """Max error of the spectral convolution against the direct sum, relative
    to the direct sum's max, per component: scalar, then the matrix six."""
    errors = {}
    for component in (_SCALAR_COMPONENT,) + _MATRIX_COMPONENTS:
        spectral = convolve_free_space(f, table, component)
        direct = direct_convolve(f, table, component)
        scale = float(np.max(np.abs(direct.values)))
        errors[component] = float(np.max(np.abs(spectral.values - direct.values))) / scale
    return errors


def compute_coefficients(f: ScalarField, table: KernelTable | None = None) -> CoefficientSet:
    """Potential a[f], its gradient and diffusion matrix A[f].

    One forward transform of f; then, per matrix component, the spectrum
    times that component's symbol goes through one reused buffer and one
    pruned inverse into A; the spectrum and that buffer are the thread's
    two kept spectrum buffers, so no call allocates a spectrum after the
    first.  a[f] = tr A[f] because the kernels' traces agree
    nodewise.  grad a is obtained by differencing the potential so
    the flux scheme sees the exact discrete identity grad_a = gradient(a).
    The ellipticity range is left to the first read of the set.
    """
    grid = f.grid
    mass = grid.cell_volume() * float(np.sum(f.values))
    if not mass > 0.0:
        raise ValueError("f has nonpositive total mass; ellipticity undefined")
    if table is None:
        table = kernel_table_for(grid)
    _check_table_grid(table, grid)
    a6 = _convolutions(f.values, table.symbols, _ODD, fft_workers())
    a6 *= grid.cell_volume()
    a_vals = a6[0] + a6[1] + a6[2]
    return CoefficientSet(
        a=ScalarField(grid, a_vals),
        grad_a=VectorField(grid, gradient_values(grid, a_vals)),
        A=SymMatrixField(grid, a6),
    )
