"""Nonlocal diffusion coefficients by zero-padded spectral convolution.

The matrix kernel Pi(v)/(8 pi |v|), Pi(v) = Id - v v^T/|v|^2, yields the
diffusion matrix A[f]; its trace is the scalar kernel 1/(4 pi |v|), so the
potential is a[f] = tr A[f].  The singular cell is replaced by the
analytic average of the kernel over that cell, which keeps the quadrature
second order.  Each component is even or odd along every axis, so its
real symbol on the doubled (zero-padding) grid is a signed mirror image
of its nonnegative octant (Martucci 1994).  The cell lattice is cubic,
so swapping two axes maps one kernel component onto another: yy and zz
are transposes of xx, and xz and yz transposes of xy.  The table keeps
only the octants of xx and xy, 2 (n+1)^3 doubles (about 4.4 MB at
n = 64, 34 MB at n = 128), built from the kernels on (n+1)^3 nodes with
a type-1 DCT along the even axes and a type-1 DST along the odd ones,
and reads the other four as transposed views.

``compute_coefficients`` is the one spectral route, and the one every run
steps with (Pareschi, Russo & Toscani, JCP 165, 2000).  It runs through
one pruned transform path (Markel's FFT pruning): the forward transform
of f goes axis by axis and never touches the seven-eighths of the padded
input that is zero, and the inverse drops the discarded output rows after
each axis.  It transforms f once and streams the six components, one at
a time, through a single reused spectrum buffer, multiplied a few
kx-planes at a time against a small contiguous block that mirrors the
octant with its parity signs.  The spectrum of f, the product buffer, a
set's A, a and grad a, and grad f share one buffer, a ``Workspace`` that a
run allocates at its start and reuses for every set it builds: the
product buffer overlays a, grad a and grad f, which are written only once
the six products are done.  The real transforms along z run a few
x-rows at a time straight into the spectrum and into A, and the complex
ones run in place, so a call allocates only a chunk's scratch and the
small product blocks, and the run's buffer is freed when the run ends.

``direct_convolve`` is the independent reference: it sums the real-space
kernel over every cell pair, with the one component it needs built per
call by ``real_space_kernel``, and ``spectral_vs_direct`` compares it
with the a and A of ``compute_coefficients``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

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
# per component: the stored symbol (0: xx, 1: xy) and the axis order whose
# transpose of it gives the component's octant
_OCTANT_VIEWS = (
    (0, (0, 1, 2)), (0, (1, 0, 2)), (0, (2, 1, 0)),
    (1, (0, 1, 2)), (1, (0, 2, 1)), (1, (2, 1, 0)),
)


def fft_workers() -> int:
    """Worker count of the FFTs, and lane count of the row slabs in
    ``_accel``: LANDAU_THREADS if set, else the CPU affinity count."""
    return _accel._threads()


# Average of 1/(4 pi |v|) over the unit cube centered at the origin.
# Gnomonic projection onto the six faces turns the weakly singular
# integral into a smooth 2-D one:
# integral over [-1,1]^3 of 1/|v| = 3 Q with
# Q = integral over [-1,1]^2 of (1 + x^2 + y^2)^(-1/2)
#   = 4 (ln(2 + sqrt 3) - pi/6).
_UNIT_CELL_KERNEL_AVERAGE = (
    3.0 * 4.0 * (np.log(2.0 + np.sqrt(3.0)) - np.pi / 6.0) / (16.0 * np.pi)
)


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
    return (_UNIT_CELL_KERNEL_AVERAGE + _MIDPOINT_DEFICIT) / h


def _kernel_geometry(off: np.ndarray):
    """Per-axis offsets, |offset|^2 and |offset| on the lattice off^3.

    off holds the offsets of one axis with the origin at index 0; the
    origin's |offset| is a placeholder that the kernels overwrite.
    """
    o = (off[:, None, None], off[None, :, None], off[None, None, :])
    r2 = o[0] * o[0] + o[1] * o[1] + o[2] * o[2]
    r2[0, 0, 0] = 1.0
    return o, r2, np.sqrt(r2)


def _matrix_kernel(grid: VelocityGrid, comp: int, geometry) -> np.ndarray:
    """One component of Pi(v)/(8 pi |v|), in the order of _MATRIX_COMPONENTS."""
    o, r2, r = geometry
    i, k = ("xyz".index(axis) for axis in _MATRIX_COMPONENTS[comp])
    kernel = (1.0 / (_EIGHT_PI * r)) * (float(i == k) - o[i] * o[k] / r2)
    # origin slot: cubic symmetry kills the off-diagonal averages and
    # splits the scalar slot evenly over the diagonal
    kernel[0, 0, 0] = _origin_slot(grid.h) / 3.0 if i == k else 0.0
    return kernel


def real_space_kernel(grid: VelocityGrid, component: str = _SCALAR_COMPONENT) -> np.ndarray:
    """One kernel component, "scalar" or one of xx, yy, zz, xy, xz, yz, on
    the doubled grid in wrap order: index j holds cell offset j for j <= n
    and j - 2n beyond; the offset-n slots are not zeroed.  Built afresh on
    every call, (2n)^3 doubles, and kept by no table."""
    if component != _SCALAR_COMPONENT and component not in _MATRIX_COMPONENTS:
        raise ValueError(f"unknown kernel component {component!r}")
    n, m = grid.n, 2 * grid.n
    j = np.arange(m)
    geometry = _kernel_geometry(np.where(j <= n, j, j - m).astype(float) * grid.h)
    if component != _SCALAR_COMPONENT:
        return _matrix_kernel(grid, _MATRIX_COMPONENTS.index(component), geometry)
    scalar = 1.0 / (_FOUR_PI * geometry[2])
    scalar[0, 0, 0] = _origin_slot(grid.h)
    return scalar


@dataclass(frozen=True)
class Workspace:
    """The arrays a run writes its coefficient sets and gradients of f into:
    A, a and grad a as one (10, n, n, n) array, grad f as (3, n, n, n), and
    the spectrum pair of the transforms as one (2, 2n, 2n, n+1) complex
    array, the spectrum of f and the product buffer of ``_convolutions``.

    All of them are views of one float64 buffer, shared by phase:

        [spectrum of f | A rows 0-5 | a | grad a | grad f | rest of the product]
                                    ^ the product buffer starts here

    22 n^3 + 16 n^2 doubles in all.  The product buffer is live only while
    the six rows of A are built, and a, grad a and grad f are written only
    after that, so a set and grad f live until the next set is started.
    Between sets the whole buffer is free, and ``diagnostics.record``
    borrows four of its rows.  Every offset is an even number of doubles, so both complex views are
    aligned and the transforms run on them in place.
    """

    coefficients: np.ndarray
    gradient: np.ndarray
    spectra: np.ndarray

    @classmethod
    def for_grid(cls, grid: VelocityGrid) -> Workspace:
        n = grid.n
        shape, cube = (n,) * 3, n ** 3
        spectrum = 8 * n * n * (n + 1)  # doubles of one (2n, 2n, n+1) complex array
        product = spectrum + 6 * cube  # where the product buffer starts
        buffer = np.empty(product + spectrum)
        coefficients = buffer[spectrum : product + 4 * cube].reshape((10,) + shape)
        gradient = buffer[product + 4 * cube : product + 7 * cube].reshape((3,) + shape)
        spectra = np.ndarray((2, 2 * n, 2 * n, n + 1), complex, buffer,
                             strides=(8 * product, 32 * n * (n + 1), 16 * (n + 1), 16))
        return cls(coefficients, gradient, spectra)


# nodes per x-row chunk of the real transforms along z: a chunk's padded
# input and its output take about 4 doubles per node, 1 MB
_FFT_CHUNK_NODES = 1 << 15


def _row_chunks(n: int):
    """Consecutive x-row ranges (lo, hi) of an n^3 grid, each of at most
    ``_FFT_CHUNK_NODES`` nodes but at least one row."""
    rows = max(1, _FFT_CHUNK_NODES // (n * n))
    return ((lo, min(lo + rows, n)) for lo in range(0, n, rows))


def _in_place(transform, x: np.ndarray, axis: int, workers: int) -> None:
    """transform (fft or ifft) of the complex array x along axis, over x:
    scipy runs it in place on an aligned array it may overwrite."""
    result = transform(x, axis=axis, workers=workers, overwrite_x=True)
    if not np.may_share_memory(result, x):  # scipy copied x
        x[...] = result


def _forward(values: np.ndarray, spec: np.ndarray, workers: int) -> np.ndarray:
    """rfftn of values zero-padded to m^3, one axis at a time, into spec,
    an (m, m, m/2+1) complex buffer.

    The z pass writes into spec, zeroed elsewhere, a few x-rows at a time;
    the y pass runs in place on its first n planes and the x pass on the
    whole, so rows that are zero along the later axes are never
    transformed (FFT pruning) and no pass makes a padded copy of the grid.
    """
    n, m = values.shape[0], spec.shape[0]
    spec[n:] = 0.0
    spec[:n, n:] = 0.0
    for lo, hi in _row_chunks(n):
        spec[lo:hi, :n] = sp_fft.rfft(values[lo:hi], n=m, axis=2, workers=workers)
    _in_place(sp_fft.fft, spec[:n], 1, workers)
    _in_place(sp_fft.fft, spec, 0, workers)
    return spec


def _halves(n: int):
    """The two ranges of a doubled-grid axis, first and stop, each with the
    octant rows that hold its symbol: 0..n as stored, and n+1..2n-1 as the
    mirror images n-1..1 (k -> 2n - k)."""
    return (0, n + 1, slice(None)), (n + 1, 2 * n, slice(n - 1, 0, -1))


# kx-planes per product block: 8 x 2n x (n+1) doubles, 0.5 MB at n = 64
_BLOCK_PLANES = 8


def _convolutions(
    values: np.ndarray, octants, spectra: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Leading n^3 corner of irfftn(rfftn(values) * symbol), zero padding to
    (2n)^3, for each of the six octant symbols of ``KernelTable.octants``,
    with the parities of ``_ODD``; stacked into ``out``, not scaled by h^3.
    ``spectra`` is a ``Workspace``'s spectrum pair.

    values is transformed once, into the first spectrum buffer.  On the
    doubled grid a symbol is its octant mirrored by parity,
    hat[2n - k] = -hat[k] along an odd axis.  The 2n kx-planes of each
    product are split over the lanes of ``_accel``'s row slabs, one lane per
    FFT worker.  A few planes at a time, a lane copies the octant rows into
    its own small contiguous block, mirrored along ky with both parity signs
    applied, and multiplies the spectrum planes by that block into the
    second spectrum buffer, so every product runs on contiguous data.  The
    inverse runs on the caller thread, axis by axis in place, and drops the
    discarded output rows after each pass; its last, real pass runs a few
    x-rows at a time, and each chunk's corner goes straight into its row of
    ``out``.  ``out`` must not overlap the second spectrum buffer.
    """
    n = values.shape[0]
    workers = fft_workers()
    fhat = _forward(values, spectra[0], workers)
    spec = spectra[1]
    lanes = min(workers, 2 * n)
    blocks = np.empty((lanes, _BLOCK_PLANES, 2 * n, n + 1))
    for c, (octant, parity) in enumerate(zip(octants, _ODD)):
        _accel._in_slabs(partial(_products, fhat, spec, octant, parity, blocks),
                         2 * n, lanes, _BLOCK_PLANES)
        _in_place(sp_fft.ifft, spec, 1, workers)
        _in_place(sp_fft.ifft, spec[:, :n], 0, workers)
        for lo, hi in _row_chunks(n):
            out[c, lo:hi] = sp_fft.irfft(spec[lo:hi, :n], n=2 * n, axis=-1,
                                         workers=workers)[..., :n]
    return out


def _products(fhat, spec, octant, parity, blocks, lane, lo, hi) -> None:
    """spec = fhat * symbol on the kx-planes lo..hi-1, at most one block.

    octant may be a transposed view, whose rows the block gathers by plain
    copies, and the block's signs are applied by negating it whole: numpy
    copies a strided view straight through, where a multiply by a scalar
    sign would run it through a buffer.
    """
    n = octant.shape[0] - 1
    odd_x, odd_y, _ = parity
    for (first, last, ox), negate_x in zip(_halves(n), (False, odd_x)):
        start, stop = max(lo, first), min(hi, last)
        if start >= stop:
            continue
        rows = octant[ox][start - first : stop - first]
        b = blocks[lane, : stop - start]
        np.copyto(b[:, n + 1 :], rows[:, n - 1 : 0 : -1])
        if odd_y:  # the mirror half's sign; the other half is copied next
            np.negative(b, out=b)
        np.copyto(b[:, : n + 1], rows)
        if negate_x:
            np.negative(b, out=b)
        np.multiply(fhat[start:stop], b, out=spec[start:stop])


@dataclass(frozen=True)
class KernelTable:
    """Real transfer functions of the matrix kernel, two stored symbols for
    its six components.

    ``symbols`` has shape (2, n+1, n+1, n+1), the symbols of xx and of xy:
    the nonnegative octant, kx, ky, kz = 0..n, of the rfftn of each
    component tabulated on the doubled grid in wrap order, offsets
    -(n-1)..(n-1) per axis.  The unused slot at offset n never multiplies
    a retained output cell, so it is zeroed; each component is then even
    or odd along every axis and its symbol is real, with
    hat[2n - k] = hat[k] along an even axis and -hat[k] along an odd one.
    ``build_kernel_table`` tabulates only offsets 0..n and transforms them
    with DCT-I/DST-I; the convolutions mirror kx, ky > n from the octant
    with the parity sign.  The scalar kernel needs no symbol of its own:
    tr Pi/(8 pi r) = 1/(4 pi r) nodewise, so a[f] = tr A[f].

    The lattice is cubic: swapping axes i and k of a kernel component
    gives the component with i and k swapped in its name, and so does the
    same transpose of its symbol.  ``octants`` gives all six as views of
    the two stored symbols.  The table holds these symbols and nothing
    else: the direct-sum route builds the one real-space component it sums
    with ``real_space_kernel`` at each call, so no (2n)^3 table outlives it.
    """

    grid: VelocityGrid
    symbols: np.ndarray

    def octants(self) -> tuple:
        """The octant symbols of xx, yy, zz, xy, xz, yz: xx, its transposes
        (1, 0, 2) and (2, 1, 0), xy, and its transposes (0, 2, 1) and
        (2, 1, 0), all views of ``symbols``."""
        return tuple(self.symbols[s].transpose(axes) for s, axes in _OCTANT_VIEWS)


def table_nbytes(n: int) -> int:
    """Bytes of the kernel table at grid size n: two octant symbols of
    (n+1)^3 doubles."""
    return 2 * (n + 1) ** 3 * 8


@dataclass(frozen=True)
class CoefficientSet:
    """Potential a[f], its gradient, and the diffusion matrix A[f].

    Its ellipticity range is computed only on request, so a set that is
    only stepped with, such as a Heun stage, never computes it.
    """

    a: ScalarField
    grad_a: VectorField
    A: SymMatrixField

    def ellipticity_range(self, out: np.ndarray | None = None) -> tuple[float, float]:
        """(c0_hat, sup_A): the min over nodes of <v>^3 lambda_min(A) and
        the max over nodes of lambda_max(A).  ``out``, (2, n, n, n),
        receives the per-node smallest and largest eigenvalues of A."""
        lmin, lmax = _accel.eig_range(self.A.values, out)
        return float(np.min(self.A.grid.weight(3.0) * lmin)), float(np.max(lmax))


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
    symbols = np.empty((2, n + 1, n + 1, n + 1))
    # xx and xy; the other four components are transposes of these
    for s, c in enumerate((0, 3)):
        odd = _ODD[c]
        hat = _matrix_kernel(grid, c, geometry)
        hat[n, :, :] = hat[:, n, :] = hat[:, :, n] = 0.0
        for axis in (2, 1, 0):
            hat = _half_dft(hat, axis, odd[axis], workers)
        # an off-diagonal component is odd along two axes: (-i)^2 = -1
        np.multiply(hat, -1.0 if any(odd) else 1.0, out=symbols[s])
    return KernelTable(grid=grid, symbols=symbols)


def kernel_table_for(grid: VelocityGrid) -> KernelTable:
    """The kernel table of grid's (n, l), shared by every equal grid."""
    return _cached_table(grid.n, grid.l)


@lru_cache(maxsize=4)
def _cached_table(n: int, l: float) -> KernelTable:
    return build_kernel_table(make_grid(n, l))


def direct_convolve(f: ScalarField, component: str = _SCALAR_COMPONENT) -> ScalarField:
    """Reference convolution by explicit summation over all cell pairs.

    The kernel component comes from ``real_space_kernel`` on f's grid, no
    transforms anywhere; cost grows with n^6, so keep n small.  Kept as an
    independent route for verifying the spectral result.
    """
    ker = real_space_kernel(f.grid, component)
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
    """Max error of the a and A of ``compute_coefficients(f, table)``
    against the direct sums, relative to the direct sum's max, per
    component: scalar (a), then the six rows of A."""
    c = compute_coefficients(f, table)
    spectral = (c.a.values, *c.A.values)
    errors = {}
    for component, values in zip((_SCALAR_COMPONENT,) + _MATRIX_COMPONENTS, spectral):
        direct = direct_convolve(f, component).values
        scale = float(np.max(np.abs(direct)))
        errors[component] = float(np.max(np.abs(values - direct))) / scale
    return errors


def compute_coefficients(
    f: ScalarField, table: KernelTable | None = None, work: Workspace | None = None
) -> CoefficientSet:
    """Potential a[f], its gradient and diffusion matrix A[f].

    One forward transform of f; then, per matrix component, the spectrum
    times that component's symbol goes through one reused buffer and one
    pruned inverse into A; the spectrum and that buffer are the two
    spectrum buffers of ``work``, so no call with a given workspace
    allocates a spectrum.  a[f] = tr A[f] because the kernels' traces
    agree nodewise.  grad a is obtained by differencing the potential so
    the flux scheme sees the exact discrete identity grad_a = gradient(a).
    The ellipticity range is left to ``CoefficientSet.ellipticity_range``.

    The set is written into ``work.coefficients``, A in rows 0..5, a in
    row 6 and grad a in rows 7..9, and views it: a run passes its one
    workspace for every set it builds, and a set lives until the next is
    written.  Without ``work`` a fresh workspace is used.
    """
    grid = f.grid
    mass = grid.cell_volume() * float(np.sum(f.values))
    if not mass > 0.0:
        raise ValueError("f has nonpositive total mass; ellipticity undefined")
    if table is None:
        table = kernel_table_for(grid)
    elif table.grid is not grid and (table.grid.n, table.grid.l) != (grid.n, grid.l):
        raise ValueError("kernel table grid does not match field grid")
    work = work or Workspace.for_grid(grid)
    out = work.coefficients
    a6, a_vals, grad_a = out[:6], out[6], out[7:]
    _convolutions(f.values, table.octants(), work.spectra, a6)
    a6 *= grid.cell_volume()
    np.add(a6[0], a6[1], out=a_vals)
    a_vals += a6[2]
    return CoefficientSet(
        a=ScalarField(grid, a_vals),
        grad_a=VectorField(grid, gradient_values(grid, a_vals, out=grad_a)),
        A=SymMatrixField(grid, a6),
    )
