"""Row slabs: bit-identical kernels for every lane count, and pool threads
that stay out of the public functions."""
import math
import sys
import threading
import types

import numpy as np
import pytest

import landau
from landau import _accel
from landau.grid_field import gradient_values

_ROWS = ((0, 3, 4), (3, 1, 5), (4, 5, 2))


def plain_div_flux(f, g3, a6, ga3, h):
    """div_flux as one whole-grid pass of numpy expressions."""
    out = np.zeros_like(f)
    for d in range(3):
        row = _ROWS[d]
        lo = tuple(slice(None, -1) if e == d else slice(None) for e in range(3))
        hi = tuple(slice(1, None) if e == d else slice(None) for e in range(3))
        face = 0.5 * (a6[row[d]][lo] + a6[row[d]][hi]) * (f[hi] - f[lo]) / h
        for e in range(3):
            if e != d:
                face += (0.5 * (a6[row[e]][lo] + a6[row[e]][hi])
                         * 0.5 * (g3[e][lo] + g3[e][hi]))
        face -= 0.5 * (ga3[d][lo] + ga3[d][hi]) * 0.5 * (f[lo] + f[hi])
        out[lo] += face / h
        out[hi] -= face / h
    return out


def plain_eig_range(a6):
    """The closed-form eigenvalue range as plain whole-grid expressions."""
    axx, ayy, azz, axy, axz, ayz = a6
    q = (axx + ayy + azz) / 3.0
    bxx, byy, bzz = axx - q, ayy - q, azz - q
    p1 = (axy * axy + axz * axz + ayz * ayz) * 2.0
    ps = np.sqrt(np.maximum(bxx * bxx + byy * byy + bzz * bzz + p1, 0.0) / 6.0)
    isotropic = ~(ps > 0.0)
    ps[isotropic] = 1.0
    bxx, byy, bzz = bxx / ps, byy / ps, bzz / ps
    bxy, bxz, byz = axy / ps, axz / ps, ayz / ps
    r = ((byy * bzz - byz * byz) * bxx - (bxy * bzz - byz * bxz) * bxy
         + (bxy * byz - byy * bxz) * bxz) / 2.0
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    lmax = np.cos(phi) * (ps * 2.0) + q
    lmin = np.cos(phi + 2.0 * math.pi / 3.0) * (ps * 2.0) + q
    lmax[isotropic] = q[isotropic]
    lmin[isotropic] = q[isotropic]
    return lmin, lmax


def kernel_outputs(grid):
    """Every slab kernel's output on fixed data for this grid."""
    n = grid.n
    rng = np.random.default_rng(n)
    f = rng.random((n, n, n))
    f[0] += 1.0  # nonzero mass on both wall rows
    f[-1] += 2.0
    field = landau.ScalarField(grid, f)
    c = landau.compute_coefficients(field)
    g3 = rng.standard_normal((3, n, n, n))
    a6 = rng.standard_normal((6, n, n, n))
    ga3 = rng.standard_normal((3, n, n, n))
    a6[:, 1, 2, 3] = (2.0, 2.0, 2.0, 0.0, 0.0, 0.0)  # exactly isotropic
    a6[:, n - 1, 0, 1] = 0.0
    lmin, lmax = _accel.eig_range(a6)
    return {
        "A": c.A, "a": c.a, "grad_a": c.grad_a,
        "div_flux": _accel.div_flux(f, g3, a6, ga3, grid.h),
        "plain_div_flux": plain_div_flux(f, g3, a6, ga3, grid.h),
        "lmin": lmin, "lmax": lmax,
        "plain_eig_range": np.stack(plain_eig_range(a6)),
        "eig_range": np.stack((lmin, lmax)),
    }


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("n", [8, 10, 34])
def test_kernels_bit_identical_for_every_lane_count(monkeypatch, n):
    # n = 10 and 34 leave uneven bands; at n = 34 one lane runs two chunks
    # and the product chunks straddle the kx half at plane n + 1
    grid = landau.make_grid(n, 8.0)
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the lanes as often as possible
    try:
        for lanes in (1, 2, 3):
            monkeypatch.setenv("LANDAU_THREADS", str(lanes))
            runs[lanes] = kernel_outputs(grid)
    finally:
        sys.setswitchinterval(interval)
    one = runs[1]
    assert np.array_equal(bits(one["div_flux"]), bits(one["plain_div_flux"]))
    assert np.array_equal(bits(one["eig_range"]), bits(one["plain_eig_range"]))
    assert one["lmin"][1, 2, 3] == one["lmax"][1, 2, 3] == 2.0
    for lanes in (2, 3):
        for name, values in runs[lanes].items():
            assert np.array_equal(bits(values), bits(one[name])), (lanes, name)


def test_one_lane_builds_no_pool(monkeypatch, grid16):
    monkeypatch.setenv("LANDAU_THREADS", "1")
    _accel._pool.cache_clear()
    landau.compute_coefficients(landau.maxwellian(grid16))
    _accel.eig_range(np.ones((6, 16, 16, 16)))
    assert _accel._pool.cache_info().currsize == 0


def public_landau_code():
    """Code objects of every public function a landau module binds."""
    codes = set()
    for name, mod in list(sys.modules.items()):
        if not name.startswith("landau") or not isinstance(mod, types.ModuleType):
            continue
        for attr, value in vars(mod).items():
            if isinstance(value, types.FunctionType) and not attr.startswith("_"):
                codes.add(value.__code__)
    return codes


def test_pool_threads_call_no_public_function(monkeypatch, grid16):
    # a tracer that wraps public landau functions and scipy.fft transforms
    # keeps one span stack; only the caller thread may enter those
    monkeypatch.setenv("LANDAU_THREADS", "2")
    f = landau.maxwellian(grid16)
    g3 = gradient_values(grid16, f.values)
    main = threading.get_ident()
    seen = []

    def profile(frame, event, arg):
        if event == "call" and threading.get_ident() != main:
            seen.append((frame.f_globals.get("__name__", ""), frame.f_code))

    _accel._pool.cache_clear()  # the pool's threads start under the profile
    threading.setprofile(profile)
    try:
        c = landau.compute_coefficients(f)
        _accel.div_flux(f.values, g3, c.A, c.grad_a, grid16.h)
        _accel.eig_range(c.A)
    finally:
        threading.setprofile(None)
        _accel._pool(1).shutdown()
        _accel._pool.cache_clear()
    ran = {code.co_name for module, code in seen if module.startswith("landau")}
    assert {"_products", "_flux_chunk", "_eig_chunk"} <= ran
    public = public_landau_code()
    assert not [code.co_name for _, code in seen if code in public]
    assert not [code.co_name for module, code in seen if module.startswith("scipy.fft")]
