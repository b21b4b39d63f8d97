"""Oracle constants frozen from independent routes.

Every value here was computed without the package (closed forms, scipy
quadrature on radial profiles, separable sums, lattice sums) and pasted
in.  Run  python3 tests/oracle_values.py  to regenerate them and compare
against the frozen copies.
"""
import numpy as np

# closed forms for the unit Maxwellian mu = (2 pi)^(-3/2) exp(-|v|^2/2)
ENTROPY_MU = -4.2568155996140185        # -(3/2)(1 + log 2 pi)
FISHER_MU = 3.0                          # int |grad mu|^2/mu = int |v|^2 mu
A_MU_ORIGIN = 0.06349363593424098        # a[mu](0) = sqrt(2/pi)/(4 pi)
A_MU_MATRIX_ORIGIN = 0.021164545311413662  # A[mu](0) = a[mu](0)/3 Id

# geometry of the singular cell: Q = int_{[-1,1]^2} (1+x^2+y^2)^(-1/2),
# so the average of 1/(4 pi |v|) over the unit cube is 3Q/(16 pi); frozen
# from 2-D quadrature, and equal to the closed form 4 (ln(2+sqrt 3) - pi/6)
Q_GNOMONIC = 3.1734364853060715
S0_UNIT = 0.18940053870923707

# sum over the unit lattice of (cell average - center value) of 1/(4 pi r);
# the origin slot of the kernel table absorbs this plus 1/24
LATTICE_DEFICIT = -0.0052821071136428715

# separable discrete Gaussian mass on the cell-centered grid, l = 8
MASS_MU_N16 = 0.9999999839482715
MASS_MU_N64 = 0.9999999999999973

# weighted level-set energies of mu at level 0.02, p = 3/2, m = 9/2,
# radial quadrature; LS_B via u = sqrt(r_l - r) to kill the endpoint
LS_LEVEL = 0.02
LS_A_MU = 0.10995454793910409
LS_B_MU = 0.2847083053212784

# (int <v>^4.5 mu^1.5)^(1/1.5)
LP_1_5_M_4_5_MU = 1.7615763877900223


def regenerate():
    from scipy import integrate as sint

    two_pi = 2.0 * np.pi
    out = {}
    out["ENTROPY_MU"] = -1.5 * (1.0 + np.log(two_pi))
    out["FISHER_MU"] = 3.0
    out["A_MU_ORIGIN"] = np.sqrt(2.0 / np.pi) / (4.0 * np.pi)
    out["A_MU_MATRIX_ORIGIN"] = out["A_MU_ORIGIN"] / 3.0

    q_val, _ = sint.dblquad(lambda y, x: 1.0 / np.sqrt(1.0 + x * x + y * y),
                            -1.0, 1.0, -1.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    # the package uses the closed form; the quadrature must agree with it
    q_closed = 4.0 * (np.log(2.0 + np.sqrt(3.0)) - np.pi / 6.0)
    if abs(q_val - q_closed) > 1e-13 * q_closed:
        raise RuntimeError(f"Q quadrature {q_val!r} != closed form {q_closed!r}")
    out["Q_GNOMONIC"] = q_val
    out["S0_UNIT"] = 3.0 * q_val / (16.0 * np.pi)

    q = 12
    gx, gw = np.polynomial.legendre.leggauss(q)
    gx *= 0.5
    gw *= 0.5
    ox, oy, oz = np.meshgrid(gx, gx, gx, indexing="ij")
    w3 = (gw[:, None, None] * gw[None, :, None] * gw[None, None, :]).ravel()
    offs = np.stack([ox.ravel(), oy.ravel(), oz.ravel()], axis=1)
    L = 8
    js = np.array([(a, b, c)
                   for a in range(-L, L + 1)
                   for b in range(-L, L + 1)
                   for c in range(-L, L + 1) if (a, b, c) != (0, 0, 0)],
                  dtype=float)
    D = 0.0
    for s in range(0, len(js), 1000):
        cells = js[s:s + 1000]
        pts = cells[:, None, :] + offs[None, :, :]
        r = np.sqrt((pts ** 2).sum(axis=2))
        avg = (w3[None, :] / r).sum(axis=1) / (4.0 * np.pi)
        point = 1.0 / (4.0 * np.pi * np.sqrt((cells ** 2).sum(axis=1)))
        D += float((avg - point).sum())
    tail = 0.0
    for jx in range(-60, 61):
        jy = np.arange(-60, 61)
        jz = np.arange(-60, 61)
        Y, Z = np.meshgrid(jy, jz, indexing="ij")
        mask = np.maximum(np.abs(Y), np.maximum(abs(jx), np.abs(Z))) > L
        r2 = (jx * jx + Y ** 2 + Z ** 2)[mask].astype(float)
        s4 = (jx ** 4 + Y ** 4 + Z ** 4)[mask].astype(float)
        r = np.sqrt(r2)
        # per-cell quartic term of the midpoint expansion of 1/(4 pi r)
        tail += float((-(105.0 * s4 / r ** 9 - 63.0 / r ** 5)
                       / (4.0 * np.pi) / 2880.0).sum())
    out["LATTICE_DEFICIT"] = D + tail

    def grid_mass(n, l):
        h = 2.0 * l / n
        x = -l + h * (np.arange(n) + 0.5)
        s = h * np.sum(np.exp(-x * x / 2.0) / np.sqrt(two_pi))
        return s ** 3

    out["MASS_MU_N16"] = grid_mass(16, 8.0)
    out["MASS_MU_N64"] = grid_mass(64, 8.0)

    mu0 = two_pi ** -1.5
    level = LS_LEVEL
    p, m = 1.5, 4.5
    r_l = np.sqrt(-2.0 * np.log(level / mu0))

    def mu_r(r):
        return mu0 * np.exp(-r * r / 2.0)

    def a_int(r):
        return (4.0 * np.pi * r * r * (1.0 + r * r) ** (m / 2.0)
                * np.maximum(mu_r(r) - level, 0.0) ** p)

    out["LS_A_MU"], _ = sint.quad(a_int, 0.0, r_l, epsabs=1e-13,
                                  epsrel=1e-12, limit=200)

    def b_sub(u):
        r = r_l - u * u
        g = mu_r(r) - level
        core = (4.0 * np.pi * r * r * (1.0 + r * r) ** ((m - 3.0) / 2.0)
                * (p / 2.0) ** 2 * g ** (p - 2.0) * (r * mu_r(r)) ** 2)
        return core * 2.0 * u

    out["LS_B_MU"], _ = sint.quad(b_sub, 0.0, np.sqrt(r_l), epsabs=1e-13,
                                  epsrel=1e-12, limit=200)

    def lpm(r):
        return (4.0 * np.pi * r * r * (1.0 + r * r) ** (m / 2.0)
                * mu_r(r) ** p)

    val, _ = sint.quad(lpm, 0.0, 30.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    out["LP_1_5_M_4_5_MU"] = val ** (1.0 / p)
    return out


if __name__ == "__main__":
    frozen = {k: v for k, v in globals().items()
              if k.isupper() and isinstance(v, float)}
    fresh = regenerate()
    width = max(len(k) for k in fresh)
    for key, val in fresh.items():
        ref = frozen.get(key)
        drift = abs(val - ref) / max(abs(ref), 1e-300)
        flag = "" if drift < 1e-6 else "  <-- DRIFT"
        print(f"{key:<{width}} = {val!r}  (frozen {ref!r}, rel {drift:.1e}){flag}")
