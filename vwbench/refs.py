"""Reference computations for the benchmark's output checks.

Everything here is written from the formulas, with numpy only, and never
imports vortexw: the checks must not pass merely because the program
agrees with itself.

Conventions (those of the vortexw README):

* a configuration is k points alpha_j in the open unit disc with integer
  degrees d_j;
* hat_w = pi [ -sum_{j!=l} d_j d_l log|a_j - a_l|
               + sum_{j!=l} d_j d_l log|1 - conj(a_j) a_l|
               + sum_j d_j^2 log(1 - |a_j|^2) ];
* a boundary phase psi = sum_n p_n cos(n t) + q_n sin(n t) has complex
  modes a_n = (p_n - i q_n) / 2, and its harmonic extension has
  Dirichlet energy pi sum_n n (p_n^2 + q_n^2);
* W = hat_w + 2 pi sum_{n<=T} n |u_n|^2, with u_n = b_n - i a_n and
  b_n = sum_j (d_j conj(a_j)^n - d0_j conj(a0_j)^n) / n for the reference
  configuration (a0, d0): half the Dirichlet energy of the composite
  conjugate phase;
* on Omega = f(D) both energies gain pi sum_j d_j^2 log|f'(a_j)|.

Run ``python3 vwbench/refs.py`` for the self-test.
"""
from __future__ import annotations

import numpy as np

P = np.polynomial.polynomial


def _dcoeffs(coeffs, order):
    c = np.asarray(coeffs, dtype=complex)
    return P.polyder(c, order) if c.size > order else np.zeros(1, dtype=complex)


# ------------------------------------------------------------ energies


def hat_w_disc(points, degrees):
    """hat_w on the disc; points may carry leading batch axes (..., k)."""
    a = np.asarray(points, dtype=complex)
    d = np.asarray(degrees, dtype=float)
    k = a.shape[-1]
    off = ~np.eye(k, dtype=bool)
    dd = np.where(off, np.outer(d, d), 0.0)
    diff = a[..., :, None] - a[..., None, :]
    refl = 1.0 - np.conj(a)[..., :, None] * a[..., None, :]
    # the diagonal of diff is zero; give it a harmless value before the log
    diff = np.where(off, diff, 1.0)
    pair = dd * (np.log(np.abs(refl)) - np.log(np.abs(diff)))
    self_term = d**2 * np.log(1.0 - np.abs(a) ** 2)
    return np.pi * (pair.sum(axis=(-2, -1)) + self_term.sum(axis=-1))


def map_correction(points, degrees, coeffs):
    """pi sum_j d_j^2 log|f'(a_j)| for f = sum_m coeffs[m] z^m."""
    a = np.asarray(points, dtype=complex)
    d = np.asarray(degrees, dtype=float)
    fp = P.polyval(a, _dcoeffs(coeffs, 1))
    return np.pi * np.sum(d**2 * np.log(np.abs(fp)), axis=-1)


def psi_modes(cos, sin, trunc):
    """Complex modes a_1..a_trunc of sum p_n cos(nt) + q_n sin(nt)."""
    a = np.zeros(trunc, dtype=complex)
    p = np.asarray(cos, dtype=float)[:trunc]
    q = np.asarray(sin, dtype=float)[:trunc]
    a[: p.size] += 0.5 * p
    a[: q.size] -= 0.5j * q
    return a


def psi_dirichlet(cos, sin):
    """Dirichlet energy of the harmonic extension of psi."""
    p = np.asarray(cos, dtype=float)
    q = np.asarray(sin, dtype=float)
    return float(
        np.pi * (np.sum(np.arange(1, p.size + 1) * p**2)
                 + np.sum(np.arange(1, q.size + 1) * q**2))
    )


def w_disc(points, degrees, base_points, base_degrees, cos, sin, trunc):
    """Full energy W on the disc (batch axes allowed on points)."""
    a = np.asarray(points, dtype=complex)
    d = np.asarray(degrees, dtype=float)
    a0 = np.asarray(base_points, dtype=complex)
    d0 = np.asarray(base_degrees, dtype=float)
    n = np.arange(1, trunc + 1)
    pw = np.conj(a)[..., :, None] ** n
    pw0 = np.conj(a0)[:, None] ** n
    b = (np.sum(d[:, None] * pw, axis=-2) - np.sum(d0[:, None] * pw0, axis=0)) / n
    u = b - 1j * psi_modes(cos, sin, trunc)
    return hat_w_disc(a, d) + 2.0 * np.pi * np.sum(n * np.abs(u) ** 2, axis=-1)


def w_omega(points, degrees, base_points, base_degrees, cos, sin, trunc, coeffs):
    return w_disc(points, degrees, base_points, base_degrees, cos, sin, trunc) + map_correction(
        points, degrees, coeffs
    )


def single_vortex_landscape(p, degree, coeffs):
    """hat_w on Omega for one vortex of the given degree at each point p."""
    p = np.asarray(p, dtype=complex)
    fp = P.polyval(p, _dcoeffs(coeffs, 1))
    return degree**2 * np.pi * (np.log(1.0 - np.abs(p) ** 2) + np.log(np.abs(fp)))


def fd_gradient(fn, points, h=1e-4, chunk=8):
    """Real gradient (x1, y1, x2, y2, ...) of fn at points by the fourth-order
    central stencil. fn takes a (..., k) complex array; the shifted
    configurations go in batches of chunk points (8 chunk configurations)."""
    a = np.asarray(points, dtype=complex)
    k = a.size
    steps = np.array([2.0, 1.0, -1.0, -2.0]) * h
    dirs = np.array([1.0, 1j])
    out = np.empty((k, 2))
    for lo in range(0, k, chunk):
        idx = np.arange(lo, min(k, lo + chunk))
        shifted = np.broadcast_to(a, (idx.size, 2, 4, k)).copy()
        shifted[np.arange(idx.size), :, :, idx] += dirs[None, :, None] * steps[None, None, :]
        v = fn(shifted)
        out[idx] = (-v[..., 0] + 8.0 * v[..., 1] - 8.0 * v[..., 2] + v[..., 3]) / (12.0 * h)
    return out.reshape(-1)


# ------------------------------------------- the single-vortex maximizer


def quadratic_maximizer(c):
    """Maximizer of hat_w on f(D), f(z) = z + c z^2 with real c: the real
    root of 3c x^2 + x - c = 0 in the disc."""
    if c == 0.0:
        return 0.0
    return (-1.0 + np.sqrt(1.0 + 12.0 * c * c)) / (6.0 * c)


def _single_grad_hess(coeffs, a):
    """Gradient (complex form g_x + i g_y) and real 2x2 Hessian of
    h(a) = pi log(1 - |a|^2) + pi log|f'(a)|."""
    fp, fpp, f3 = (complex(P.polyval(a, _dcoeffs(coeffs, m))) for m in (1, 2, 3))
    s = 1.0 - abs(a) ** 2
    x, y = a.real, a.imag
    g = np.pi * (-2.0 * a / s + np.conj(fpp / fp))
    # log|f'| = Re log f' is harmonic: its Hessian is [[Re q, -Im q], [-Im q, -Re q]]
    q = (f3 * fp - fpp**2) / fp**2
    hess = np.array(
        [
            [-2.0 / s - 4.0 * x * x / s**2 + q.real, -4.0 * x * y / s**2 - q.imag],
            [-4.0 * x * y / s**2 - q.imag, -2.0 / s - 4.0 * y * y / s**2 - q.real],
        ]
    )
    return g, np.pi * hess


def single_vortex_maximizer(coeffs):
    """Newton's method for the critical point of the single-vortex hat_w on
    Omega, started at the origin (near-disc maps have it there)."""
    a = 0j
    for _ in range(60):
        g, hess = _single_grad_hess(coeffs, a)
        step = np.linalg.solve(hess, -np.array([g.real, g.imag]))
        a += complex(step[0], step[1])
        if np.hypot(*step) <= 1e-15:
            break
    return a


def trace_operator(coeffs, alpha0, trunc):
    """Matrix of the linearized semi-stiff trace operator psi -> N at the
    single degree-one critical vortex alpha0, over the real modes
    (cos 1t, sin 1t, ..., cos Nt, sin Nt), by the implicit-function formula

        dN/dpsi = diag(n) - (dN/dalpha) H^{-1} (d grad_alpha W / dpsi),

    where H is the alpha-Hessian of W at psi = 0 with reference alpha0. At
    the reference b_n = 0, so only first derivatives of b_n enter:
    db_n/dx = conj(alpha0)^(n-1), db_n/dy = -i conj(alpha0)^(n-1)."""
    n = np.arange(1, trunc + 1)
    p = np.conj(complex(alpha0)) ** (n - 1)
    _, hess_hat = _single_grad_hess(coeffs, complex(alpha0))
    hess = hess_hat + 4.0 * np.pi * np.sum(n * np.abs(p) ** 2) * np.eye(2)
    # mode cos nt has a_n = 1/2, mode sin nt has a_n = -i/2; u_n gains -i a_n
    # and grad_alpha of 2 pi sum n |u_n|^2 is 4 pi sum n Re(conj(u_n) db_n)
    dc = {"cos": -0.5j, "sin": -0.5}
    mixed = np.zeros((2, 2 * trunc))
    for col, kind in enumerate(("cos", "sin")):
        cc = np.conj(dc[kind])
        mixed[0, col::2] = 4.0 * np.pi * n * np.real(cc * p)
        mixed[1, col::2] = 4.0 * np.pi * n * np.real(cc * (-1j) * p)
    # N has complex mode n a_n + i n b_n; real coefficients (2 Re, -2 Im)
    dn_dalpha = np.zeros((2 * trunc, 2))
    for col, db in enumerate((p, -1j * p)):
        c = 1j * n * db
        dn_dalpha[0::2, col] = 2.0 * c.real
        dn_dalpha[1::2, col] = -2.0 * c.imag
    stiff = np.diag(np.repeat(n, 2).astype(float))
    return stiff - dn_dalpha @ np.linalg.solve(hess, mixed)


def trace_operator_sigma_min(coeffs, alpha0, trunc):
    return float(np.linalg.svd(trace_operator(coeffs, alpha0, trunc), compute_uv=False)[-1])


# ------------------------------------------------ the symmetric polygon


def polygon_energy_slope(r, k, r_base, trunc):
    """d/dr of W at the regular k-gon of radius r (degree one, identity map,
    psi = 0) measured against the same k-gon at radius r_base; r may be an
    array.

    On the k-gon, prod_m (1 - x w^m) = 1 - x^k gives
    hat_w = pi [-k(k-1) log r + k log(1 - r^(2k))] + const, and b_n is
    k (r^n - r_base^n) / n on multiples n of k (zero elsewhere)."""
    r = np.asarray(r, dtype=float)
    rn = r[..., None] ** np.arange(k, trunc + 1, k)
    r0n = r_base ** np.arange(k, trunc + 1, k)
    hat = np.pi * (-k * (k - 1) / r - 2.0 * k * k * r ** (2 * k - 1) / (1.0 - r ** (2 * k)))
    seminorm = 4.0 * np.pi * k * k * np.sum((rn - r0n) * rn, axis=-1) / r
    return hat + seminorm


def polygon_radius(k, r_base, trunc):
    """Radius of the critical k-gon: the first sign change of the slope
    above r_base (the slope is negative at r_base), by bisection."""
    grid = np.linspace(r_base, 0.999, 2000)
    slope = polygon_energy_slope(grid, k, r_base, trunc)
    i = int(np.argmax(slope > 0.0))
    if slope[i] <= 0.0:
        raise ValueError(f"no critical {k}-gon above r = {r_base}")
    lo, hi = grid[i - 1], grid[i]
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if polygon_energy_slope(mid, k, r_base, trunc) > 0.0:
            hi = mid
        else:
            lo = mid


def regular_polygon(k, radius, phase):
    return radius * np.exp(1j * (phase + 2.0 * np.pi * np.arange(k) / k))


# ------------------------------------------------------------ self-test


def self_test():
    """Check the references against facts derived independently of them.
    Returns a list of (name, passed)."""
    out = []

    def add(name, ok):
        out.append((name, bool(ok)))

    for trunc in (8, 16):
        m = trace_operator([0.0, 1.0], 0.0, trunc)
        diag = np.repeat(np.arange(1, trunc + 1), 2).astype(float)
        diag[:2] = -1.0
        add(f"disc_operator_spectrum_{trunc}", np.allclose(m, np.diag(diag), atol=1e-13, rtol=0))
        add(f"disc_sigma_min_is_one_{trunc}", abs(trace_operator_sigma_min([0.0, 1.0], 0.0, trunc) - 1.0) <= 1e-13)

    for c in (0.1, -0.2):
        a = single_vortex_maximizer([0.0, 1.0, c])
        add(f"quadratic_maximizer_{c}", abs(a - quadratic_maximizer(c)) <= 1e-14)

    # symmetric pair: pi [-2 log 2r + 2 log(1 + r^2) + 2 log(1 - r^2)]
    r = 0.37
    pair = np.pi * (-2 * np.log(2 * r) + 2 * np.log(1 + r * r) + 2 * np.log(1 - r * r))
    add("hat_w_pair", abs(hat_w_disc([r, -r], [1, 1]) - pair) <= 1e-13)

    pts = np.array([0.3 + 0.1j, -0.2 + 0.4j, 0.1 - 0.5j])
    degs = [1, -2, 1]
    add("w_at_base_is_hat_w", abs(w_disc(pts, degs, pts, degs, [], [], 64) - hat_w_disc(pts, degs)) <= 1e-13)
    # single vortex: grad of pi log(1 - |a|^2) is -2 pi a / (1 - |a|^2)
    a1 = 0.3 - 0.2j
    g = fd_gradient(lambda z: hat_w_disc(z, [1]), [a1])
    exact = -2 * np.pi * a1 / (1 - abs(a1) ** 2)
    add("fd_gradient", np.max(np.abs(g - [exact.real, exact.imag])) <= 1e-9)
    # the harmonic extension of cos 2t (r^2 cos 2t) has Dirichlet energy 2 pi
    add("psi_dirichlet", abs(psi_dirichlet([0.0, 1.0], []) - 2 * np.pi) <= 1e-14)

    k, rb, r0, h = 5, 0.4, 0.8, 1e-5
    ph = 0.3
    poly = lambda rad: w_disc(regular_polygon(k, rad, ph), [1] * k, regular_polygon(k, rb, ph), [1] * k, [], [], 64)
    fd = (poly(r0 + h) - poly(r0 - h)) / (2 * h)
    add("polygon_slope", abs(fd - polygon_energy_slope(r0, k, rb, 64)) <= 1e-6 * max(1.0, abs(fd)))
    rs = polygon_radius(k, rb, 64)
    add("polygon_radius_root", abs(polygon_energy_slope(rs, k, rb, 64)) <= 1e-8)
    return out


if __name__ == "__main__":
    results = self_test()
    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    raise SystemExit(0 if all(ok for _, ok in results) else 1)
