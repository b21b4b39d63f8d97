"""Uniform cell-centered velocity grid and its scalar field.

Provides the weighted norm, differential stencils and polynomial weights
that every other module builds on.  Nodes sit at cell centers, so no node
ever lands on v = 0 and singular kernels are evaluated only off the
origin.  A grid stores its 1-D axis and the weights <v>^m it was asked
for, and no coordinate cube: |v|^2 and 1 + |v|^2 are computed from the
axis at each read.  ``ScalarField`` is the one field container, a grid
and finite (n, n, n) values; vector and matrix quantities, such as a
gradient or a coefficient set, are bare (3, n, n, n) and (6, n, n, n)
arrays.

``gradient_values`` runs each axis through one per-axis stencil, which
takes its interior differences on the flattened array, so its ``out``
must be C-contiguous; it gives all three components or, with ``axis``,
one.  ``weighted_gradient_energy`` takes the components one at a time:
it overwrites both rows of its (2,) + shape ``out``, the scratch callers
lend it, and builds no (3,) + shape gradient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class VelocityGrid:
    """Cell-centered cubic grid on [-l, l]^3 with spacing h = 2l/n."""

    n: int
    l: float
    h: float

    @cached_property
    def axis(self) -> np.ndarray:
        """1-D node coordinates -l + (i + 1/2) h."""
        return -self.l + (np.arange(self.n) + 0.5) * self.h

    @property
    def axes(self) -> tuple:
        """The node coordinates as three 1-D views that broadcast to n^3."""
        a = self.axis
        return a[:, None, None], a[None, :, None], a[None, None, :]

    def radius2_about(self, center, out: np.ndarray | None = None) -> np.ndarray:
        """|v - center|^2 at the nodes, from the squared 1-D axis offsets,
        written into ``out`` when given."""
        sx, sy, sz = ((self.axis - c) ** 2 for c in center)
        return np.add(sx[:, None, None] + sy[None, :, None], sz[None, None, :], out=out)

    @property
    def radius2(self) -> np.ndarray:
        """|v|^2 at the nodes, a new array at each read."""
        return self.radius2_about((0.0, 0.0, 0.0))

    @property
    def bracket2(self) -> np.ndarray:
        """Squared Japanese bracket 1 + |v|^2 at the nodes, a new array at
        each read."""
        b = self.radius2
        b += 1.0
        return b

    @cached_property
    def _weights(self) -> dict:
        return {}

    def weight(self, m: float) -> np.ndarray:
        """Read-only node values of <v>^m with <v> = (1 + |v|^2)^(1/2),
        built once per distinct m on this grid."""
        m = float(m)
        w = self._weights.get(m)
        if w is None:
            w = self.bracket2 ** (0.5 * m)
            if not np.all(np.isfinite(w)):
                raise ValueError("field values must be finite")
            w = self._weights[m] = _read_only(w)
        return w

    def cell_volume(self) -> float:
        return self.h ** 3


@dataclass(frozen=True)
class ScalarField:
    """Finite node values of shape (n, n, n) on grid."""

    grid: VelocityGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (self.grid.n,) * 3:
            raise ValueError("values shape does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def make_grid(n: int, l: float) -> VelocityGrid:
    """Build the cell-centered grid; n must be even and at least 8."""
    if n != int(n) or n % 2 != 0:
        raise ValueError("n must be even")
    n = int(n)
    if n < 8:
        raise ValueError("n must be at least 8")
    if not l > 0:
        raise ValueError("l must be positive")
    return VelocityGrid(n=n, l=float(l), h=2.0 * float(l) / n)


def weighted_lp_norm(f: ScalarField, p: float, m: float) -> float:
    """(integral of <v>^m f^p)^(1/p); negative node values are clipped to 0."""
    return weighted_lp_norms(f, (p,), (m,))[(p, m)]


def weighted_lp_norms(
    f: ScalarField, p_list, m_list, out: np.ndarray | None = None
) -> dict:
    """``weighted_lp_norm(f, p, m)`` keyed by (p, m) for every p of p_list
    and m of m_list, raising f to each power p once.  ``out``, (2, n, n, n),
    holds f^p and its weighted products when given."""
    if any(p < 1.0 for p in p_list):
        raise ValueError("p must be at least 1")
    vals = f.values
    if np.any(vals < 0.0):
        vals = np.maximum(vals, 0.0)
    if out is None:
        out = np.empty((2,) + vals.shape)
    vol = f.grid.cell_volume()
    norms = {}
    for p in p_list:
        fp = np.power(vals, p, out=out[0])
        for m in m_list:
            weighted = np.multiply(f.grid.weight(m), fp, out=out[1])
            norms[(p, m)] = float((vol * np.sum(weighted)) ** (1.0 / p))
    return norms


def gradient_values(
    grid: VelocityGrid, values: np.ndarray, out: np.ndarray | None = None,
    axis: int | None = None,
) -> np.ndarray:
    """Second-order central differences, one-sided second order at the
    boundary, of a 3-D array with at least three nodes per axis and
    spacing ``grid.h``, as one (3,) + values.shape array, or, for an
    ``axis`` d, its component d as one values.shape array; written into
    ``out``, C-contiguous, when given.

    Each axis runs the operations of np.gradient(values, h, edge_order=2)
    in the same order, so the result is the same bit for bit, without its
    three per-axis arrays and the copy that stacks them.
    """
    if axis is not None:
        if out is None:
            out = np.empty(values.shape)
        _axis_gradient(values, grid.h, axis, out)
        return out
    if out is None:
        out = np.empty((3,) + values.shape)
    for d in range(3):
        _axis_gradient(values, grid.h, d, out[d])
    return out


def _axis_gradient(values: np.ndarray, h: float, d: int, out: np.ndarray) -> None:
    """Component d of ``gradient_values``, written into ``out``, a
    C-contiguous array of the shape of values.

    The central difference runs on the flattened arrays, offset by the
    stride s of axis d, so every axis reads contiguous memory; it also
    fills the nodes where axis d ends, and the one-sided edge stencils,
    taken on slices along axis d, then overwrite those."""
    if not out.flags.c_contiguous:
        raise ValueError("gradient_values needs a C-contiguous out")
    s = math.prod(values.shape[d + 1:])
    flat = values.reshape(-1)
    inner = out.reshape(-1)[s:-s]
    np.subtract(flat[2 * s:], flat[:-2 * s], out=inner)
    inner /= 2.0 * h

    def at(i):
        return (slice(None),) * d + (i,)

    first, last = out[at(0)], out[at(-1)]
    np.multiply(values[at(0)], -1.5 / h, out=first)
    first += (2.0 / h) * values[at(1)]
    first += (-0.5 / h) * values[at(2)]
    np.multiply(values[at(-3)], 0.5 / h, out=last)
    last += (-2.0 / h) * values[at(-2)]
    last += (1.5 / h) * values[at(-1)]


def weighted_gradient_energy(
    grid: VelocityGrid, values: np.ndarray, weight: np.ndarray,
    out: np.ndarray | None = None,
) -> float:
    """h^3 times the sum of weight |grad values|^2, from
    ``gradient_values`` taken one axis at a time.

    The squared components accumulate as (d0^2 + d1^2) + d2^2 in
    ``out[0]``, each next one squared in ``out[1]``: the order
    ``squared_norm`` sums in, so the result has the bits of
    h^3 sum(weight * squared_norm(gradient_values(grid, values))), and no
    (3,) + values.shape gradient is built.  ``out``, (2,) + values.shape,
    is overwritten when given."""
    if out is None:
        out = np.empty((2,) + values.shape)
    acc, row = out[0], out[1]
    np.square(gradient_values(grid, values, acc, axis=0), out=acc)
    for d in (1, 2):
        np.square(gradient_values(grid, values, row, axis=d), out=row)
        acc += row
    acc *= weight
    return grid.cell_volume() * float(np.sum(acc))


def squared_norm(g: np.ndarray) -> np.ndarray:
    """(g0^2 + g1^2) + g2^2 of a (3, ...) array, squaring g in place: g is
    overwritten and the result is a view of g[0]."""
    np.square(g, out=g)
    g[0] += g[1]
    g[0] += g[2]
    return g[0]


def _second_diff(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = v[2:] - 2.0 * v[1:-1] + v[:-2]
    # one-sided 4-point stencil, exact on cubics
    out[0] = 2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]
    out[-1] = 2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]
    return np.moveaxis(out, 0, axis) / (h * h)


def laplacian_values(grid: VelocityGrid, values: np.ndarray) -> np.ndarray:
    h = grid.h
    return (
        _second_diff(values, h, 0)
        + _second_diff(values, h, 1)
        + _second_diff(values, h, 2)
    )
