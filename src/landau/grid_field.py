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
"""
from __future__ import annotations

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
    if p < 1.0:
        raise ValueError("p must be at least 1")
    vals = f.values
    if np.any(vals < 0.0):
        vals = np.maximum(vals, 0.0)
    vol = f.grid.cell_volume()
    return float((vol * np.sum(f.grid.weight(m) * vals ** p)) ** (1.0 / p))


def gradient_values(
    grid: VelocityGrid, values: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Second-order central differences, one-sided second order at the
    boundary, as one (3, n, n, n) array, written into ``out`` when given.

    Each axis runs the operations of np.gradient(values, h, edge_order=2)
    in the same order, so the result is the same bit for bit, without its
    three per-axis arrays and the copy that stacks them.
    """
    h = grid.h
    if out is None:
        out = np.empty((3,) + values.shape)
    for d in range(3):
        f, g = np.moveaxis(values, d, 0), np.moveaxis(out[d], d, 0)
        np.subtract(f[2:], f[:-2], out=g[1:-1])
        g[1:-1] /= 2.0 * h
        np.multiply(f[0], -1.5 / h, out=g[0])
        g[0] += (2.0 / h) * f[1]
        g[0] += (-0.5 / h) * f[2]
        np.multiply(f[-3], 0.5 / h, out=g[-1])
        g[-1] += (-2.0 / h) * f[-2]
        g[-1] += (1.5 / h) * f[-1]
    return out


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
