"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with -s to see them alongside the dots)."""
import time
from dataclasses import replace

import numpy as np

from vortexw import (
    ConformalPolyMap,
    DiscEnergyContext,
    FourierSeries,
    VortexConfiguration,
    assemble_du_matrix,
    check_nd1,
    check_nd2,
    du_star_matrix_analytic_disc,
    expansion_report,
    h_half_seminorm_sq,
    harmonic_conjugate,
    hat_w,
    hat_w_grad,
    hat_w_hess,
    magic_determinant_check,
    n_disc,
    transport_w,
    transport_w_grad,
    w_disc,
    w_disc_hess,
)
from vortexw.disc_energy import _composite_coeffs

from reference import fd_complex_gradient, grad_phi, phase_potential

IDENTITY = ConformalPolyMap.identity()
ORIGIN = VortexConfiguration([0.0], (1,))


def report(num, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"[criterion {num}] {verdict}: {detail}")
    assert passed, f"criterion {num} failed: {detail}"


def random_admissible(rng, k, spread=0.6):
    while True:
        pts = spread * (rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k))
        if k == 1 or np.min(
            [abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1 :]]
        ) > 0.05:
            return pts


def test_criterion_1_disc_fixtures():
    t0 = time.perf_counter()
    g = hat_w_grad(ORIGIN)
    h = hat_w_hess(ORIGIN)
    ctx = DiscEnergyContext(ORIGIN)
    hw = w_disc_hess(ctx, ORIGIN)
    elapsed = time.perf_counter() - t0
    err_g = float(np.max(np.abs(g)))
    err_h = float(np.max(np.abs(h + 2 * np.pi * np.eye(2))))
    err_w = float(np.max(np.abs(hw - 2 * np.pi * np.eye(2))))
    ok = err_g <= 1e-10 and err_h <= 1e-10 and err_w <= 1e-8 and elapsed < 1.0
    report(
        1,
        ok,
        f"grad err {err_g:.1e}, hess err {err_h:.1e}, "
        f"full-energy hess err {err_w:.1e}, {elapsed:.2f}s",
    )


def test_criterion_2_du_spectrum():
    t0 = time.perf_counter()
    analytic = du_star_matrix_analytic_disc(32)
    diag = np.repeat(np.arange(1, 33), 2).astype(float)
    diag[:2] = -1.0
    exact = np.array_equal(analytic, np.diag(diag))
    assembled = assemble_du_matrix(IDENTITY, check_nd1(IDENTITY), 32)
    err = float(np.max(np.abs(assembled - analytic)))
    elapsed = time.perf_counter() - t0
    ok = exact and err <= 1e-6 and elapsed < 30.0
    report(2, ok, f"analytic diagonal exact={exact}, assembly err {err:.1e}, {elapsed:.1f}s")


def test_criterion_3_expansion():
    t0 = time.perf_counter()
    cfg = VortexConfiguration([0.5], (1,))
    ctx = DiscEnergyContext(ORIGIN)
    rep = expansion_report(ctx, cfg, [0.02, 0.01, 0.005])
    target = -np.pi * np.log(0.75)
    err = abs(rep.w_estimate - target)
    elapsed = time.perf_counter() - t0
    ok = err <= 5e-3 and elapsed < 60.0
    report(3, ok, f"w_estimate {rep.w_estimate:.6f} vs {target:.6f}, err {err:.1e}, {elapsed:.1f}s")


def test_criterion_4_canonical_datum_minimality():
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    consistent = True
    for i in range(50):
        k = int(rng.integers(1, 4))
        base = VortexConfiguration(random_admissible(rng, k, 0.4), (1,) * k)
        ctx = DiscEnergyContext(base)
        cfg = VortexConfiguration(random_admissible(rng, k), (1,) * k)
        if i % 5 == 0:
            cfg = base
        else:
            ctx = replace(ctx, psi=FourierSeries.from_real(
                cos=rng.normal(0, 0.3, 4), sin=rng.normal(0, 0.3, 4), trunc=ctx.trunc
            ))
        gap = w_disc(ctx, cfg) - hat_w(cfg)
        worst_gap = min(worst_gap, gap)
        composite = FourierSeries(np.concatenate([[0.0], _composite_coeffs(ctx, cfg.points_array(), cfg.degrees_array())]))
        zero_cost = h_half_seminorm_sq(composite) <= 1e-12
        if zero_cost != (abs(gap) <= 1e-12):
            consistent = False
    ok = worst_gap >= -1e-12 and consistent
    report(4, ok, f"min gap {worst_gap:.2e}, equality iff zero seminorm: {consistent}")


def test_criterion_5_mobius_transport():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        beta = 0.6 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        k = int(rng.integers(1, 4))
        pts = random_admissible(rng, k)
        degs = tuple(int(d) for d in rng.integers(1, 3, k))
        cfg = VortexConfiguration(pts, degs)
        mprime = (1 - abs(beta) ** 2) / (1 + np.conj(beta) * pts) ** 2
        lhs = hat_w(cfg) + np.pi * float(
            np.sum(np.array(degs) ** 2 * np.log(np.abs(mprime)))
        )
        mapped = (pts + beta) / (1 + np.conj(beta) * pts)
        rhs = hat_w(VortexConfiguration(mapped, degs))
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-10
    report(5, ok, f"max |transported - direct| = {worst:.1e} over 50 draws")


def test_criterion_6_determinant_identity():
    rng = np.random.default_rng(31)
    ws = rng.normal(0, 10, 1000) + 1j * rng.normal(0, 10, 1000)
    ok = all(magic_determinant_check(w) for w in ws)
    report(6, ok, "det(M_w - 2I) = det(M_w + 2I) = 4 - |w|^2 on 1000 random w")


def test_criterion_7_stability():
    details = []
    ok = True
    for eps in (0.01, 0.05, 0.1):
        f = ConformalPolyMap([0.0, 1.0, eps])
        nd1 = check_nd1(f)
        nd2 = check_nd2(f, nd1, trunc=16)
        bound = abs(nd1.a0) <= 5 * eps
        ok = ok and nd1.passed and nd2.passed and bound
        details.append(
            f"eps={eps}: nd1={nd1.passed}, nd2={nd2.passed}, "
            f"|a0|={abs(nd1.a0):.3f}<=5eps={bound}"
        )
    report(7, ok, "; ".join(details))


def _fd_gradient(fn, pts, h=1e-6):
    out = []
    for j in range(pts.size):
        for step in (h, 1j * h):
            dp = np.zeros_like(pts)
            dp[j] = step
            out.append((fn(pts + dp) - fn(pts - dp)) / (2 * h))
    return np.array(out)


def test_criterion_8_property_suite():
    rng = np.random.default_rng(999)
    f = ConformalPolyMap([0.0, 1.0, 0.05, 0.01j])
    worst_rel = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 3))
        pts = random_admissible(rng, k)
        degs = (1,) * k
        cfg = VortexConfiguration(pts, degs)
        base = VortexConfiguration(random_admissible(rng, k, 0.3), degs)
        ctx = DiscEnergyContext(base)
        ctx = replace(ctx, psi=FourierSeries.from_real(
            cos=rng.normal(0, 0.2, 3), sin=rng.normal(0, 0.2, 3), trunc=ctx.trunc
        ))

        def rel(analytic, fd):
            return float(
                np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(analytic))
            )

        worst_rel = max(
            worst_rel,
            rel(
                hat_w_grad(cfg),
                _fd_gradient(lambda p: hat_w(VortexConfiguration(p, cfg.degrees)), pts),
            ),
            rel(
                transport_w_grad(IDENTITY, ctx, cfg),
                _fd_gradient(lambda p: w_disc(ctx, VortexConfiguration(p, cfg.degrees)), pts),
            ),
            rel(
                transport_w_grad(f, ctx, cfg),
                _fd_gradient(
                    lambda p: transport_w(f, ctx, VortexConfiguration(p, cfg.degrees)), pts
                ),
            ),
        )
        # field gradient vs FD of the scalar potential
        z0 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        if np.min(np.abs(z0 - pts)) > 0.15:
            fd = fd_complex_gradient(lambda z: phase_potential(ctx, cfg, z), z0)
            g = grad_phi(ctx, cfg, z0)
            worst_rel = max(worst_rel, abs(g - fd) / max(1.0, abs(g)))
    grad_ok = worst_rel <= 1e-6

    conj_ok = True
    mean_ok = True
    for _ in range(100):
        psi = FourierSeries.from_real(
            a0=rng.normal(),
            cos=rng.normal(0, 1, 6),
            sin=rng.normal(0, 1, 6),
        )
        twice = harmonic_conjugate(harmonic_conjugate(psi))
        if not np.allclose(twice.coeffs, -psi.with_zero_mean().coeffs, atol=1e-13):
            conj_ok = False
        if abs(
            h_half_seminorm_sq(harmonic_conjugate(psi)) - h_half_seminorm_sq(psi)
        ) > 1e-10 * (1 + h_half_seminorm_sq(psi)):
            conj_ok = False
        k = int(rng.integers(1, 3))
        ctx = DiscEnergyContext(
            VortexConfiguration(random_admissible(rng, k, 0.4), (1,) * k), trunc=16
        )
        cfg = VortexConfiguration(random_admissible(rng, k), (1,) * k)
        psi16 = FourierSeries.from_real(cos=rng.normal(0, 1, 4), trunc=16)
        if n_disc(replace(ctx, psi=psi16), cfg).mean != 0.0:
            mean_ok = False

    ok = grad_ok and conj_ok and mean_ok
    report(
        8,
        ok,
        f"worst FD rel err {worst_rel:.1e}; conjugate properties {conj_ok}; "
        f"trace mean zero {mean_ok}",
    )
