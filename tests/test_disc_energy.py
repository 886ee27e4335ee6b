import copy
from dataclasses import fields, replace

import numpy as np
import pytest

from vortexw import (
    ConformalPolyMap,
    DegreeMismatch,
    DiscEnergyContext,
    FourierSeries,
    VortexConfiguration,
    h_half_seminorm_sq,
    hat_w,
    hat_w_grad,
    hat_w_hess,
    n_disc,
    punctured_energy,
    transport_w,
    transport_w_grad,
    w_disc,
    w_disc_hess,
)
from vortexw.disc_energy import (
    _base_shift_coeffs,
    _composite_coeffs,
    _hat_w,
    _hat_w_derivs,
    _seminorm_derivs,
    _w_disc,
    _w_disc_derivs,
)

from reference import fd_complex_gradient, fourier_values, grad_phi, hat_phi

ORIGIN = VortexConfiguration([0.0], (1,))
IDENTITY = ConformalPolyMap.identity()


def fd_gradient(fn, pts, h=1e-6):
    pts = np.asarray(pts, dtype=complex)
    out = []
    for j in range(pts.size):
        for step in (h, 1j * h):
            dp = np.zeros_like(pts)
            dp[j] = step
            out.append((fn(pts + dp) - fn(pts - dp)) / (2 * h))
    return np.array(out)


class TestHatPhi:
    """Closed-form checks of the reference potential of the FD tests."""

    def test_single_vortex_at_origin_is_log_r(self):
        z = 0.3 + 0.4j
        assert hat_phi(ORIGIN, z) == pytest.approx(np.log(0.5))

    def test_vanishes_on_circle(self):
        cfg = VortexConfiguration([0.5, -0.2 + 0.3j], (1, 2))
        z = np.exp(1j * np.linspace(0, 2 * np.pi, 9))
        np.testing.assert_allclose(hat_phi(cfg, z), 0.0, atol=1e-12)


class TestHatW:
    def test_origin_zero(self):
        assert hat_w(ORIGIN) == 0.0

    def test_single_vortex_closed_form(self):
        for a in (0.25, 0.5j, -0.3 + 0.4j):
            cfg = VortexConfiguration([a], (1,))
            assert hat_w(cfg) == pytest.approx(np.pi * np.log(1 - abs(a) ** 2))

    def test_rotation_invariance(self):
        pts = np.array([0.3 + 0.2j, -0.4 - 0.1j])
        cfg = VortexConfiguration(pts, (1, 1))
        rot = VortexConfiguration(np.exp(0.7j) * pts, (1, 1))
        assert hat_w(rot) == pytest.approx(hat_w(cfg), rel=1e-13)

    def test_degree_scaling_of_self_terms(self):
        a = 0.4
        d2 = hat_w(VortexConfiguration([a], (2,)))
        d1 = hat_w(VortexConfiguration([a], (1,)))
        assert d2 == pytest.approx(4 * d1)

    def test_gradient_matches_fd(self):
        cfg = VortexConfiguration([0.3 + 0.2j, -0.35 + 0.15j], (1, 2))
        g = hat_w_grad(cfg)
        fd = fd_gradient(lambda p: hat_w(VortexConfiguration(p, cfg.degrees)), cfg.points_array())
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)

    def test_hessian_matches_fd(self):
        cfg = VortexConfiguration([0.2 - 0.1j, -0.3j], (1, 1))
        h = hat_w_hess(cfg)
        cols = fd_gradient(
            lambda p: hat_w_grad(VortexConfiguration(p, cfg.degrees)), cfg.points_array()
        )
        fdh = np.column_stack(cols)
        np.testing.assert_allclose(h, 0.5 * (fdh + fdh.T), rtol=1e-5, atol=1e-6)

    def test_origin_hessian_fixture(self):
        np.testing.assert_allclose(
            hat_w_hess(ORIGIN), -2 * np.pi * np.eye(2), atol=1e-12
        )


def canonical_density(cfg, m=64):
    """Boundary density g^a wedge dg^a/dtau of the canonical datum on m
    circle points: the normal derivative Re(conj(z) grad Phi) of the phase
    potential with psi = 0 and the reference configuration equal to cfg."""
    z = np.exp(2j * np.pi * np.arange(m) / m)
    ctx = DiscEnergyContext(cfg, trunc=16)
    return np.real(np.conj(z) * grad_phi(ctx, cfg, z))


class TestCanonicalDatum:
    def test_mean_is_total_degree(self):
        cfg = VortexConfiguration([0.3, -0.2 + 0.1j], (1, 2))
        assert np.mean(canonical_density(cfg)) == pytest.approx(3.0, rel=1e-12)

    def test_origin_constant(self):
        np.testing.assert_allclose(canonical_density(ORIGIN), 1.0, rtol=0, atol=1e-15)


class TestPsiStarBase:
    """The conjugate phase trace b_n that relates the canonical data of a
    configuration and of the reference configuration."""

    def test_zero_when_cfg_is_base(self):
        base = VortexConfiguration([0.3 + 0.1j, -0.2j], (1, 2))
        ctx = DiscEnergyContext(base)
        assert not np.any(_base_shift_coeffs(ctx, base.points_array(), base.degrees_array()))

    def test_real_shift_closed_form(self):
        # base at 0, vortex at t in (0,1): the conjugate phase trace is
        # -log|1 - t e^{i theta}|^2 = 2 sum t^n cos(n theta) / n, so the
        # energy above hat_w is 2 pi sum t^(2n) / n = -2 pi log(1 - t^2)
        t = 0.5
        ctx = DiscEnergyContext(VortexConfiguration([0.0], (1,)), trunc=96)
        cfg = VortexConfiguration([t], (1,))
        gap = w_disc(ctx, cfg) - hat_w(cfg)
        assert gap == pytest.approx(-2 * np.pi * np.log(1 - t**2), rel=1e-12)

    def test_grad_matches_fd_of_potential(self):
        # the field kernel's reference-vortex terms against the trace b_n of
        # the closed form: moving the reference from cfg to the base changes
        # the phase gradient by minus the gradient of 2 Re sum b_n z^n
        ctx = DiscEnergyContext(VortexConfiguration([0.2j, -0.3], (2, -1)), trunc=128)
        cfg = VortexConfiguration([0.4 - 0.1j], (1,))
        b = _base_shift_coeffs(ctx, cfg.points_array(), cfg.degrees_array())
        n = np.arange(1, b.size + 1)

        def ext(z):
            return 2 * np.real(np.sum(b * z**n))

        z0 = 0.3 + 0.35j
        shift = grad_phi(ctx, cfg, z0) - grad_phi(DiscEnergyContext(cfg), cfg, z0)
        assert -shift == pytest.approx(fd_complex_gradient(ext, z0), abs=1e-7)

    @pytest.mark.parametrize("k", [1, 3, 64])
    @pytest.mark.parametrize("trunc", [1, 16, 64])
    def test_same_floats_as_two_moments(self, k, trunc):
        # the base's moments are taken once per context; the trace keeps
        # the floats of taking both moments on every call
        rng = np.random.default_rng(10 * k + trunc)
        base = random_configuration(rng, k)
        cfg = random_configuration(rng, 2)
        ctx = DiscEnergyContext(base, trunc)
        n = np.arange(1, trunc + 1)

        def moments(a, d):
            pw = np.conj(a[:, None]) ** n[None, :]
            return np.sum(d[:, None] * pw, axis=0)

        a, d = cfg.points_array(), cfg.degrees_array()
        want = (moments(a, d) - moments(base.points_array(), base.degrees_array())) / n
        assert _base_shift_coeffs(ctx, a, d).tobytes() == want.tobytes()

    def test_derived_moments_leave_equality_hash_and_repr(self):
        base = VortexConfiguration([0.1 + 0.2j, -0.3], (1, 2))
        ctx = DiscEnergyContext(base, trunc=8)
        assert [f.name for f in fields(ctx) if f.compare] == ["base", "trunc", "psi"]
        assert repr(ctx) == f"DiscEnergyContext(base={base!r}, trunc=8, psi={ctx.psi!r})"
        assert hash(ctx) == hash((base, 8, ctx.psi))
        twin = copy.copy(ctx)
        object.__setattr__(twin, "base_moments", np.zeros(8, dtype=complex))
        assert twin == ctx and hash(twin) == hash(ctx)
        assert not ctx.base_moments.flags.writeable


class TestContextPsi:
    """The context is the whole boundary datum: its phase psi is cut or
    padded to the context's truncation once, and defaults to zero."""

    def test_longer_psi_is_cut_to_trunc(self):
        psi = FourierSeries.from_real(cos=[0.0] * 7 + [0.1])
        ctx = DiscEnergyContext(ORIGIN, trunc=4, psi=psi)
        assert psi.trunc == 8
        assert ctx.psi.trunc == 4
        np.testing.assert_array_equal(ctx.psi.coeffs, psi.coeffs[:5])

    def test_shorter_psi_is_padded_with_zeros(self):
        psi = FourierSeries.from_real(cos=[0.2], sin=[0.0, 0.1])
        ctx = DiscEnergyContext(ORIGIN, trunc=16, psi=psi)
        assert ctx.psi.trunc == 16
        np.testing.assert_array_equal(ctx.psi.coeffs[:3], psi.coeffs)
        assert not np.any(ctx.psi.coeffs[3:])

    def test_default_is_the_zero_phase(self):
        base = VortexConfiguration([0.2 - 0.1j, 0.3j], (1, 1))
        cfg = VortexConfiguration([0.35 + 0.1j, -0.2 - 0.25j], (1, 1))
        plain = DiscEnergyContext(base, trunc=16)
        zero = DiscEnergyContext(base, 16, FourierSeries.zeros(16))
        assert w_disc(plain, cfg) == w_disc(zero, cfg)
        np.testing.assert_array_equal(w_disc_hess(plain, cfg), w_disc_hess(zero, cfg))
        np.testing.assert_array_equal(n_disc(plain, cfg).coeffs, n_disc(zero, cfg).coeffs)
        assert grad_phi(plain, cfg, 0.5j) == grad_phi(zero, cfg, 0.5j)


class TestWDisc:
    def test_reduces_to_hat_w(self):
        base = VortexConfiguration([0.25 - 0.3j, -0.4], (1, 1))
        ctx = DiscEnergyContext(base)
        assert w_disc(ctx, base) == pytest.approx(hat_w(base), abs=1e-12)

    def test_pure_psi_cost_at_base(self):
        base = VortexConfiguration([0.1 + 0.2j], (1,))
        ctx = DiscEnergyContext(base, psi=FourierSeries.from_real(cos=[0.3], sin=[0.0, 0.5]))
        expected = hat_w(base) + 0.5 * h_half_seminorm_sq(ctx.psi)
        assert w_disc(ctx, base) == pytest.approx(expected, rel=1e-12)

    def test_never_below_hat_w(self):
        rng = np.random.default_rng(11)
        ctx = DiscEnergyContext(VortexConfiguration([0.2, -0.1j], (1, 1)))
        for _ in range(10):
            pts = 0.6 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
            cfg = VortexConfiguration(pts, (1, 1))
            psi = FourierSeries.from_real(
                cos=rng.normal(0, 0.3, 3), sin=rng.normal(0, 0.3, 3), trunc=ctx.trunc
            )
            assert w_disc(replace(ctx, psi=psi), cfg) - hat_w(cfg) >= -1e-12

    def test_grad_matches_fd(self):
        psi = FourierSeries.from_real(cos=[0.2, -0.1], sin=[0.15])
        ctx = DiscEnergyContext(VortexConfiguration([0.1, 0.3j], (1, 1)), psi=psi)
        cfg = VortexConfiguration([0.35 + 0.1j, -0.2 - 0.25j], (1, 1))
        g = transport_w_grad(IDENTITY, ctx, cfg)
        fd = fd_gradient(
            lambda p: w_disc(ctx, VortexConfiguration(p, cfg.degrees)), cfg.points_array()
        )
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-7)

    def test_hess_matches_fd(self):
        psi = FourierSeries.from_real(cos=[0.1], sin=[0.3])
        ctx = DiscEnergyContext(VortexConfiguration([0.1], (1,)), psi=psi)
        cfg = VortexConfiguration([0.3 - 0.2j], (1,))
        h = w_disc_hess(ctx, cfg)
        cols = fd_gradient(
            lambda p: transport_w_grad(IDENTITY, ctx, VortexConfiguration(p, cfg.degrees)),
            cfg.points_array(),
        )
        fdh = np.column_stack(cols)
        np.testing.assert_allclose(h, 0.5 * (fdh + fdh.T), rtol=1e-5, atol=1e-6)

    def test_base_of_other_count_and_degrees(self):
        # b_n = (sum_j d_j conj(a_j)^n - sum_l d0_l conj(a0_l)^n) / n: the base
        # weighs its own points by its own degrees
        base = VortexConfiguration([0.2 + 0.1j, -0.3j, 0.5], (2, 1, -1))
        cfg = VortexConfiguration([0.4 - 0.3j, -0.1 + 0.2j], (1, 1))
        psi = FourierSeries.from_real(cos=[0.1], sin=[0.05, 0.02], trunc=48)
        ctx = DiscEnergyContext(base, 48, psi)
        n = np.arange(1, 49)
        b = sum(d * np.conj(a) ** n for a, d in zip(cfg.points, cfg.degrees))
        b = (b - sum(d * np.conj(a) ** n for a, d in zip(base.points, base.degrees))) / n
        u = b - 1j * psi.coeffs[1:]
        expected = hat_w(cfg) + 2 * np.pi * np.sum(n * np.abs(u) ** 2)
        assert w_disc(ctx, cfg) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "call",
        [
            lambda ctx, cfg: w_disc(ctx, cfg),
            lambda ctx, cfg: w_disc_hess(ctx, cfg),
            lambda ctx, cfg: n_disc(ctx, cfg),
            lambda ctx, cfg: transport_w(ConformalPolyMap([0.0, 1.0, 0.1]), ctx, cfg),
            lambda ctx, cfg: transport_w_grad(ConformalPolyMap([0.0, 1.0, 0.1]), ctx, cfg),
            lambda ctx, cfg: punctured_energy(ctx, cfg, 0.01),
        ],
    )
    def test_base_of_other_total_degree_raises(self, call):
        # W is defined only when the base has the configuration's total degree
        ctx = DiscEnergyContext(VortexConfiguration([0.2, -0.3j], (1, 1)))
        cfg = VortexConfiguration([0.4 - 0.3j, -0.1 + 0.2j], (1, -1))
        with pytest.raises(DegreeMismatch):
            call(ctx, cfg)

    def test_origin_hessian_fixture(self):
        ctx = DiscEnergyContext(ORIGIN)
        h = w_disc_hess(ctx, ORIGIN)
        np.testing.assert_allclose(h, 2 * np.pi * np.eye(2), atol=1e-8)


class TestNDisc:
    def test_zero_at_base_with_zero_psi(self):
        base = VortexConfiguration([0.2 - 0.1j], (1,))
        ctx = DiscEnergyContext(base)
        tr = n_disc(ctx, base)
        np.testing.assert_allclose(tr.coeffs, 0.0, atol=1e-15)

    def test_always_zero_mean(self):
        rng = np.random.default_rng(5)
        ctx = DiscEnergyContext(VortexConfiguration([0.3], (1,)))
        for _ in range(10):
            cfg = VortexConfiguration(
                [0.7 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))], (1,)
            )
            psi = FourierSeries.from_real(
                cos=rng.normal(0, 1, 4), sin=rng.normal(0, 1, 4), trunc=ctx.trunc
            )
            assert n_disc(replace(ctx, psi=psi), cfg).mean == 0.0

    def test_real_shift_closed_form(self):
        # base 0, vortex t: N(theta) = -2 t sin(theta) / (1 - 2 t cos + t^2)
        t = 0.5
        ctx = DiscEnergyContext(VortexConfiguration([0.0], (1,)), trunc=96)
        cfg = VortexConfiguration([t], (1,))
        tr = n_disc(ctx, cfg)
        theta = np.linspace(0.1, 2 * np.pi, 23)
        expected = -np.sin(theta) / (1.25 - np.cos(theta))
        np.testing.assert_allclose(fourier_values(tr, theta), expected, atol=1e-10)

    def test_pure_psi_is_normal_derivative(self):
        psi = FourierSeries.from_real(cos=[0.5, 0.0, 0.2], trunc=16)
        ctx = DiscEnergyContext(VortexConfiguration([0.0], (1,)), 16, psi)
        tr = n_disc(ctx, VortexConfiguration([0.0], (1,)))
        np.testing.assert_allclose(2 * tr.coeffs[1:4].real, [0.5, 0.0, 0.6], atol=1e-14)


# ------------------------------------------------------------------
# Loop forms of the pairwise sums, kept as references for the array
# kernels: one Python iteration per vortex pair, written term by term.


def hat_w_loop(cfg):
    a = cfg.points_array()
    d = cfg.degrees_array()
    total = np.sum(d**2 * np.log(1.0 - np.abs(a) ** 2))
    for j in range(cfg.k):
        for l in range(cfg.k):
            if l == j:
                continue
            total -= d[j] * d[l] * np.log(np.abs(a[j] - a[l]))
            total += d[j] * d[l] * np.log(np.abs(1.0 - np.conj(a[j]) * a[l]))
    return float(np.pi * total)


def hat_w_wirtinger_loop(cfg):
    """First and second Wirtinger derivatives of hat_w."""
    a = cfg.points_array()
    d = cfg.degrees_array()
    k = cfg.k
    du = np.zeros(k, dtype=complex)
    duv = np.zeros((k, k), dtype=complex)
    duvbar = np.zeros((k, k), dtype=complex)
    for j in range(k):
        omr = 1.0 - abs(a[j]) ** 2
        du[j] = -d[j] ** 2 * np.conj(a[j]) / omr
        duv[j, j] = -d[j] ** 2 * np.conj(a[j]) ** 2 / omr**2
        duvbar[j, j] = -d[j] ** 2 / omr**2
        for l in range(k):
            if l == j:
                continue
            diff = a[j] - a[l]
            q = 1.0 - a[j] * np.conj(a[l])
            du[j] += -d[j] * d[l] / diff - d[j] * d[l] * np.conj(a[l]) / q
            duv[j, j] += d[j] * d[l] / diff**2 - d[j] * d[l] * np.conj(a[l]) ** 2 / q**2
            duv[j, l] = -d[j] * d[l] / diff**2
            duvbar[j, l] = -d[j] * d[l] / q**2
    return np.pi * du, np.pi * duv, np.pi * duvbar


def seminorm_term_wirtinger_loop(ctx, cfg):
    """Wirtinger derivatives of S(alpha) = 2 pi sum n |b_n(alpha) + c_n|^2."""
    a = cfg.points_array()
    d = cfg.degrees_array()
    k = cfg.k
    n = np.arange(1, ctx.trunc + 1)
    u = _composite_coeffs(ctx, cfg.points_array(), cfg.degrees_array())
    pw = a[:, None] ** (n[None, :] - 1)
    du = 2.0 * np.pi * d * np.sum(n[None, :] * u[None, :] * pw, axis=1)
    duv = np.zeros((k, k), dtype=complex)
    duvbar = np.zeros((k, k), dtype=complex)
    pw2 = np.zeros_like(pw)
    pw2[:, 1:] = a[:, None] ** (n[None, 1:] - 2)
    for j in range(k):
        duv[j, j] = 2.0 * np.pi * d[j] * np.sum(n * (n - 1) * u * pw2[j])
        for l in range(k):
            duvbar[j, l] = 2.0 * np.pi * d[j] * d[l] * np.sum(n * pw[j] * np.conj(pw[l]))
    return du, duv, duvbar


def random_configuration(rng, k, radius=0.9, separation=0.02):
    pts = []
    while len(pts) < k:
        p = radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(p - q) >= separation for q in pts):
            pts.append(p)
    return VortexConfiguration(pts, rng.choice([-2, -1, 1, 2], size=k))


def assert_rel_close(got, want, rel=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestArrayKernelsMatchLoops:
    @pytest.mark.parametrize("k", [1, 2, 8, 64])
    def test_hat_w_terms(self, k):
        cfg = random_configuration(np.random.default_rng(100 + k), k)
        a, d = cfg.points_array(), cfg.degrees_array()
        du, duv, duvbar = hat_w_wirtinger_loop(cfg)
        assert hat_w(cfg) == pytest.approx(hat_w_loop(cfg), rel=1e-12)
        got_du, (got_uv, got_uvbar) = _hat_w_derivs(a, d, True)
        assert_rel_close(got_du, du)
        assert_rel_close(got_uv, duv)
        assert_rel_close(got_uvbar, duvbar)

    @pytest.mark.parametrize("k", [1, 2, 8, 64])
    def test_seminorm_terms(self, k):
        rng = np.random.default_rng(200 + k)
        cfg = random_configuration(rng, k)
        base = random_configuration(rng, k).points
        psi = FourierSeries.from_real(cos=rng.normal(0, 0.3, 5), sin=rng.normal(0, 0.3, 5), trunc=64)
        ctx = DiscEnergyContext(VortexConfiguration(base, cfg.degrees), 64, psi)
        a, d = cfg.points_array(), cfg.degrees_array()
        u = _composite_coeffs(ctx, a, d)
        du, duv, duvbar = seminorm_term_wirtinger_loop(ctx, cfg)
        got_du, (got_uv, got_uvbar) = _seminorm_derivs(a, d, u, True)
        assert_rel_close(got_du, du)
        assert_rel_close(got_uv, duv)
        assert_rel_close(got_uvbar, duvbar)

    def test_batch_axis(self):
        # a leading axis holds independent configurations of equal degrees
        rng = np.random.default_rng(7)
        degrees = (1, -2, 1)
        cfgs = [VortexConfiguration(random_configuration(rng, 3).points, degrees) for _ in range(5)]
        a = np.array([c.points_array() for c in cfgs])
        d = cfgs[0].degrees_array()
        assert_rel_close(_hat_w(a, d), [hat_w_loop(c) for c in cfgs])
        for row, c in zip(_hat_w_derivs(a, d)[0], cfgs):
            assert_rel_close(row, hat_w_wirtinger_loop(c)[0])
        # the W kernels give the per-configuration results stacked, bit for
        # bit, with a phase and a base of another vortex count
        psi = FourierSeries.from_real(cos=[0.2, -0.1], sin=[0.05, 0.1, 0.03])
        ctx = DiscEnergyContext(VortexConfiguration([0.3, -0.2j], (1, -1)), 16, psi)
        u = _composite_coeffs(ctx, a, d)
        for got, rows in [
            (_w_disc(ctx, a, d), [_w_disc(ctx, p, d) for p in a]),
            (_w_disc_derivs(ctx, a, d)[0], [_w_disc_derivs(ctx, p, d)[0] for p in a]),
            *zip(
                _seminorm_derivs(a, d, u, True)[1],
                zip(*[_seminorm_derivs(p, d, q, True)[1] for p, q in zip(a, u)]),
            ),
        ]:
            assert got.tobytes() == np.array(rows).tobytes()
