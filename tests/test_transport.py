import inspect
import math
import sys
import warnings

import numpy as np
import pytest

from vortexw import (
    ConformalPolyMap,
    DiscEnergyContext,
    FourierSeries,
    VortexConfiguration,
    find_critical_hat_w,
    find_critical_w,
    hat_w,
    hat_w_grad,
    hat_w_hess,
    n_disc,
    punctured_energy,
    transport_hat_w,
    transport_hat_w_grad,
    transport_w,
    transport_w_grad,
    transport_w_hess,
    w_disc,
    w_disc_hess,
)
from vortexw import cli, core, disc_energy, ndcheck, transport
from vortexw._calculus import assemble_hessian
from vortexw.transport import _log_fprime_derivs, _transport_hat_w_derivs, _transport_w_derivs

import reference

IDENTITY = ConformalPolyMap.identity()


def mobius(beta, z):
    return (z + beta) / (1 + np.conj(beta) * z)


def mobius_prime(beta, z):
    return (1 - abs(beta) ** 2) / (1 + np.conj(beta) * z) ** 2


class TestTransportHatW:
    def test_identity_is_noop(self):
        cfg = VortexConfiguration([0.3 + 0.1j, -0.2], (1, 1))
        assert transport_hat_w(IDENTITY, cfg) == hat_w(cfg)

    def test_scaling(self):
        for r in (0.5, 2.0, 3.5):
            val = transport_hat_w(
                ConformalPolyMap([0.0, r]), VortexConfiguration([0.0], (1,))
            )
            assert val == pytest.approx(np.pi * np.log(r))

    def test_mobius_coherence(self):
        # both sides of the automorphism identity in closed form
        rng = np.random.default_rng(42)
        for _ in range(25):
            beta = 0.5 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            pts = 0.6 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
            cfg = VortexConfiguration(pts, (1, 1))
            lhs = hat_w(cfg) + np.pi * np.sum(
                np.log(np.abs(mobius_prime(beta, pts)))
            )
            rhs = hat_w(VortexConfiguration(mobius(beta, pts), (1, 1)))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_rotation_composition_coherence(self):
        # m(z) = e^{i phi} z composed into a polynomial map stays polynomial
        phi = 0.9
        f = ConformalPolyMap([0.1, 1.0, 0.08])
        rot = np.exp(1j * phi)
        f_rot = ConformalPolyMap(f.coeffs * rot ** np.arange(3))
        pts = np.array([0.25 - 0.3j, -0.1 + 0.4j])
        cfg = VortexConfiguration(pts, (1, 1))
        lhs = transport_hat_w(f_rot, cfg)
        rhs = transport_hat_w(f, VortexConfiguration(rot * pts, (1, 1)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_grad_matches_fd(self):
        f = ConformalPolyMap([0.0, 1.0, 0.1, -0.02j])
        cfg = VortexConfiguration([0.3 + 0.2j], (1,))
        g = transport_hat_w_grad(f, cfg)
        h = 1e-6
        fd = []
        for step in (h, 1j * h):
            up = transport_hat_w(f, VortexConfiguration([cfg.points[0] + step], cfg.degrees))
            dn = transport_hat_w(f, VortexConfiguration([cfg.points[0] - step], cfg.degrees))
            fd.append((up - dn) / (2 * h))
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)

    def test_hess_matches_fd(self):
        f = ConformalPolyMap([0.0, 1.0, 0.05, 0.03])
        cfg = VortexConfiguration([0.2 - 0.25j], (1,))
        hess = _transport_hat_w_derivs(f, cfg.points_array(), cfg.degrees_array(), True)[1]
        h = 1e-6
        cols = []
        for step in (h, 1j * h):
            up = transport_hat_w_grad(f, VortexConfiguration([cfg.points[0] + step], cfg.degrees))
            dn = transport_hat_w_grad(f, VortexConfiguration([cfg.points[0] - step], cfg.degrees))
            cols.append((up - dn) / (2 * h))
        fdh = np.column_stack(cols)
        np.testing.assert_allclose(hess, 0.5 * (fdh + fdh.T), rtol=1e-5, atol=1e-6)


class TestTransportW:
    def test_identity_is_noop(self):
        ctx = DiscEnergyContext(VortexConfiguration([0.1], (1,)), psi=FourierSeries.from_real(cos=[0.2]))
        cfg = VortexConfiguration([0.3], (1,))
        assert transport_w(IDENTITY, ctx, cfg) == w_disc(ctx, cfg)

    def test_validates_once(self, monkeypatch, capsys):
        # a configuration or a map is checked once, when it is built: no
        # function checks the ones it is given, and a Newton solve checks
        # only the location it builds for its report
        calls, map_calls = [], []
        check, check_map = core.validate_configuration, core.validate_map

        def counted(c):
            calls.append(c)
            return check(c)

        def counted_map(f):
            map_calls.append(f)
            return check_map(f)

        for name, mod in list(sys.modules.items()):
            if name.startswith("vortexw") and getattr(mod, "validate_configuration", None) is check:
                monkeypatch.setattr(mod, "validate_configuration", counted)
            if name.startswith("vortexw") and getattr(mod, "validate_map", None) is check_map:
                monkeypatch.setattr(mod, "validate_map", counted_map)
        f = ConformalPolyMap([0.0, 1.0, 0.05])
        assert map_calls == [f]
        base = VortexConfiguration([0.1, -0.2j], (1, 1))
        cfg = VortexConfiguration([0.3, 0.1 + 0.2j], (1, 1))
        one = VortexConfiguration([0.1j], (1,))
        del calls[:]
        ctx = DiscEnergyContext(base, psi=FourierSeries.from_real(cos=[0.2]))
        for fn in (hat_w, hat_w_grad, hat_w_hess):
            fn(cfg)
        for fn in (w_disc, w_disc_hess, n_disc):
            fn(ctx, cfg)
        for fn in (transport_hat_w, transport_hat_w_grad):
            fn(f, cfg)
        for fn in (transport_w, transport_w_grad, transport_w_hess):
            fn(f, ctx, cfg)
        punctured_energy(ctx, cfg, 0.01)
        assert calls == []
        reps = [find_critical_hat_w(f, one), find_critical_w(f, ctx, cfg)]
        assert len(calls) == 2 and all(c is rep.location for c, rep in zip(calls, reps))
        ndcheck.check_nd2(f, ndcheck.check_nd1(f), trunc=8)
        assert map_calls == [f]
        # the map that landscape builds from its --map
        assert cli.run(["landscape", "--map=0,1,0.05", "--grid=9"]) == 0
        capsys.readouterr()
        assert len(map_calls) == 2 and map_calls[1].coeffs.tolist() == [0.0, 1.0, 0.05]

    def test_grad_correction_at_origin(self):
        # quadratic map: correction pi * conj(f''/f') = 2 pi conj(eps)
        eps = 0.04 + 0.01j
        f = ConformalPolyMap([0.0, 1.0, eps])
        ctx = DiscEnergyContext(VortexConfiguration([0.0], (1,)))
        cfg = VortexConfiguration([0.0], (1,))
        g = transport_w_grad(f, ctx, cfg)
        # w_disc part vanishes at the base origin
        np.testing.assert_allclose(
            g, [2 * np.pi * eps.real, -2 * np.pi * eps.imag], atol=1e-12
        )


def _log_fprime_d2(f, a, d):
    return _log_fprime_derivs(f, a, d, True)[1]


class TestLogFprimeHessian:
    # Hessian of alpha -> pi log|f'(alpha)| at one point, from its Wirtinger
    # kernel; the mixed second derivative of a harmonic function is zero
    def test_identity_zero(self):
        np.testing.assert_allclose(
            assemble_hessian(_log_fprime_d2(IDENTITY, np.array([0.3 + 0.1j]), np.ones(1)), 0), 0.0, atol=1e-15
        )

    def test_cubic_fixture(self):
        eps = 0.03
        f = ConformalPolyMap([0.0, 1.0, 0.0, eps])
        w = 6 * eps  # f'''(0) / f'(0)
        expected = np.pi * np.array([[w, 0.0], [0.0, -w]])
        np.testing.assert_allclose(assemble_hessian(_log_fprime_d2(f, np.zeros(1, complex), np.ones(1)), 0), expected, atol=1e-14)

    def test_matches_fd(self):
        f = ConformalPolyMap([0.0, 1.0, 0.07, -0.02])
        a = 0.2 - 0.3j
        hess = assemble_hessian(_log_fprime_d2(f, np.array([a]), np.ones(1)), 0)
        h = 1e-5

        def val(p):
            return np.pi * np.log(np.abs(complex(f.derivative(p))))

        fd = np.empty((2, 2))
        steps = (h, 1j * h)
        for i, si in enumerate(steps):
            for j, sj in enumerate(steps):
                fd[i, j] = (
                    val(a + si + sj) - val(a + si - sj) - val(a - si + sj) + val(a - si - sj)
                ) / (4 * h * h)
        np.testing.assert_allclose(hess, fd, atol=1e-5)



def landscape_points(n=161):
    """The admissible one-vortex configurations of the n x n landscape grid."""
    xs = np.linspace(-0.95, 0.95, n)
    p = (xs[None, :] + 1j * xs[:, None]).reshape(-1, 1)
    return p[core.configuration_is_admissible(p)]


def accepted_maps():
    """The maps that the map check accepts in tests/test_core.py."""
    rng = np.random.default_rng(3)
    maps = [[0.0, 1.0, eps] for eps in (0.0, 0.05, 0.2, 0.45)]
    for r in (0.02, 0.1, 0.25):
        maps += [[0.0, 1.0, r * np.exp(1j * t)] for t in np.linspace(0.0, 2 * np.pi, 8, endpoint=False)]
    for _ in range(20):
        phase = np.exp(2j * np.pi * rng.uniform(size=2))
        maps.append([0.0, 1.0, rng.uniform(0.02, 0.12) * phase[0], rng.uniform(0.005, 0.03) * phase[1]])
    exp3 = [0.0] + [3.0 ** (m - 1) / math.factorial(m) for m in range(1, 21)]
    maps += [exp3, [0.0, 1e-10, 3e-11], [0.0, 1.0, 0.1 - 0.05j, 0.02j]]
    maps += [[0.0, r] for r in (1e-300, 1e160, 1e308)] + [[1e308, 1e308], [0.0, 1e307, 4e306]]
    for c0 in (1e17, -3.0 + 2.0j, 1e300):
        maps += [[c0, 1.0], [c0, 1.0, 0.2], [c0, 1e-10, 3e-11], [c0, *exp3[1:]]]
    return maps


class TestMapKernelsFinite:
    # with f' checked once, when the map is built, the kernels divide by
    # f'(alpha) and take its log unchecked: on every map the check accepts
    # they stay finite at every point of the landscape grid
    @pytest.mark.parametrize("coeffs", accepted_maps())
    def test_hat_w_kernels_are_finite_on_the_grid(self, coeffs):
        a, d = landscape_points(), np.ones(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = ConformalPolyMap(coeffs)
            assert np.isfinite(transport._transport_hat_w(f, a, d)).all()
            for out in (*_transport_hat_w_derivs(f, a, d, True), _transport_hat_w_derivs(f, a, d)[0]):
                assert np.isfinite(out).all()


class TestBatchAxis:
    # a stack of configurations gives the per-configuration results stacked,
    # bit for bit, so that the batched Newton polish takes the steps of the
    # per-start one
    @pytest.mark.parametrize("coeffs", [[0.0, 1.0], [0.0, 1.0, 0.1], [0.0, 1.0, 0.08, 0.02j]])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stack_equals_calls_stacked(self, coeffs, k):
        f = ConformalPolyMap(coeffs)
        rng = np.random.default_rng(k)
        a = 0.8 * np.sqrt(rng.uniform(0, 1, (6, k)))
        a = a * np.exp(2j * np.pi * rng.uniform(0, 1, (6, k)))
        d = np.array([1.0, -1.0, 2.0][:k])
        duv, duvbar = disc_energy._hat_w_derivs(a, d, True)[1]

        def stacked(fn, *rows):
            return np.array([fn(*args) for args in zip(*rows)]).tobytes()

        assert assemble_hessian(duv, duvbar).tobytes() == stacked(assemble_hessian, duv, duvbar)
        assert _log_fprime_d2(f, a, d).tobytes() == stacked(lambda p: _log_fprime_d2(f, p, d), a)
        for n in (0, 1):
            assert _transport_hat_w_derivs(f, a, d, True)[n].tobytes() == stacked(
                lambda p: _transport_hat_w_derivs(f, p, d, True)[n], a
            )
        # the W kernels, with a phase and a base of another vortex count but
        # the same total degree
        base_degrees = {1: (2, -1), 2: (1, 1, -2), 3: (1, 1)}[k]
        base = VortexConfiguration([0.1, -0.3j, 0.2 + 0.2j][: len(base_degrees)], base_degrees)
        psi = FourierSeries.from_real(cos=[0.2, -0.1], sin=[0.05, 0.1, 0.03])
        ctx = DiscEnergyContext(base, 16, psi)
        for fn in (
            transport._transport_w,
            lambda f, ctx, a, d: _transport_w_derivs(f, ctx, a, d)[0],
            lambda f, ctx, a, d: _transport_w_derivs(f, ctx, a, d, True)[1],
        ):
            assert fn(f, ctx, a, d).tobytes() == stacked(lambda p: fn(f, ctx, p, d), a)


class TestFusedKernelsMatchReference:
    # the derivative kernels compute both orders in one pass; each output
    # keeps the bits of the separate first- and second-derivative kernels
    # of reference.py, on batches of 0, 1 and 2 leading axes
    MAPS = [[0.0, 1.0], [0.0, 1.0, 0.1], [0.1, 1.0, 0.08 - 0.03j, 0.02j]]
    SHAPES = [(), (3,), (2, 3)]

    @staticmethod
    def batch(rng, shape, k):
        a = 0.85 * np.sqrt(rng.uniform(0, 1, shape + (k,)))
        return a * np.exp(2j * np.pi * rng.uniform(0, 1, shape + (k,)))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_hat_w(self, k):
        rng = np.random.default_rng(40 + k)
        # d^2 = 9 is not a power of two, so a reordered product shows
        d = rng.choice([-3.0, -1.0, 1.0, 2.0, 3.0], size=k)
        for coeffs in self.MAPS:
            f = ConformalPolyMap(coeffs)
            for shape in self.SHAPES:
                a = self.batch(rng, shape, k)
                du, hess = _transport_hat_w_derivs(f, a, d, True)
                grad, none = _transport_hat_w_derivs(f, a, d)
                assert none is None
                assert du.tobytes() == grad.tobytes() == reference.transport_hat_w_du(f, a, d).tobytes()
                assert hess.tobytes() == reference.transport_hat_w_hess(f, a, d).tobytes()

    @pytest.mark.parametrize("k", range(1, 9))
    def test_w(self, k):
        # every truncation from 1 to 129, a nonzero phase, and a base of
        # another vortex count with the same total degree
        rng = np.random.default_rng(80 + k)
        d = rng.choice([-1.0, 1.0, 3.0], size=k)
        total = int(d.sum())
        base = VortexConfiguration([0.1, -0.3j, 0.2 + 0.2j], (total - 1, 2, -1))
        psi = FourierSeries.from_real(cos=rng.normal(0, 0.2, 6), sin=rng.normal(0, 0.2, 6), trunc=129)
        for trunc in range(1, 130):
            ctx = DiscEnergyContext(base, trunc, psi)
            f = ConformalPolyMap(self.MAPS[trunc % len(self.MAPS)])
            a = self.batch(rng, self.SHAPES[trunc % len(self.SHAPES)], k)
            du, hess = _transport_w_derivs(f, ctx, a, d, True)
            grad, none = _transport_w_derivs(f, ctx, a, d)
            assert none is None
            assert du.tobytes() == grad.tobytes() == reference.transport_w_du(f, ctx, a, d).tobytes()
            assert hess.tobytes() == reference.transport_w_hess(f, ctx, a, d).tobytes()

    def test_gradient_callers_take_no_second_derivative(self, monkeypatch):
        # hat_w_grad, transport_*_grad and the energy subcommand ask every
        # derivative kernel for the first order only
        asked = []
        for mod, name in [
            (disc_energy, "_hat_w_derivs"),
            (disc_energy, "_seminorm_derivs"),
            (transport, "_hat_w_derivs"),
            (transport, "_w_disc_derivs"),
            (transport, "_log_fprime_derivs"),
        ]:
            fn = getattr(mod, name)

            def recording(*args, _fn=fn, **kwargs):
                bound = inspect.signature(_fn).bind(*args, **kwargs)
                asked.append(bound.arguments.get("second", False))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mod, name, recording)
        monkeypatch.setattr(transport, "assemble_hessian", None)
        f = ConformalPolyMap([0.0, 1.0, 0.1, 0.02j])
        cfg = VortexConfiguration([0.3 + 0.1j, -0.2 + 0.4j], (1, -1))
        psi = FourierSeries.from_real(cos=[0.05], sin=[0.0, 0.02])
        ctx = DiscEnergyContext(VortexConfiguration([0.1, -0.2], (2, -2)), 16, psi)
        hat_w_grad(cfg), transport_hat_w_grad(f, cfg), transport_w_grad(f, ctx, cfg)
        argv = ["energy", "--map", "0,1,0.1", "--vortex=0.3,0.1,1", "--vortex=-0.2,0.4,-1"]
        assert cli.run(argv + ["--psi", '{"cos":[0.05]}']) == 0
        assert len(asked) > 5 and not any(asked)
