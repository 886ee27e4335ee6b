import numpy as np
import pytest

from vortexw import (
    ConformalPolyMap,
    DiscEnergyContext,
    FourierSeries,
    VortexConfiguration,
    VortexTooCloseToBoundary,
    find_critical_hat_w,
    find_critical_w,
    find_max_hat_w,
    transport_hat_w,
    transport_hat_w_grad,
)
from vortexw import critpoint
from vortexw.core import configuration_is_admissible

IDENTITY = ConformalPolyMap.identity()


def ascend_loop(f, pts, degrees):
    """The ascent of find_max_hat_w one start at a time through the checked
    public functions: the oracle for the batched ascent."""
    step = 0.05
    for _ in range(40):
        cfg = VortexConfiguration(pts, degrees)
        g = critpoint._unpack(transport_hat_w_grad(f, cfg))
        if np.linalg.norm(g) < 1e-3:
            break
        cand = pts + step * g / max(1.0, np.linalg.norm(g))
        if configuration_is_admissible(cand) and transport_hat_w(
            f, VortexConfiguration(cand, degrees)
        ) > transport_hat_w(f, cfg):
            pts = cand
        else:
            step *= 0.5
            if step < 1e-6:
                break
    return pts


class TestFindCriticalHatW:
    def test_disc_single_vortex(self):
        rep = find_critical_hat_w(IDENTITY, VortexConfiguration([0.3], (1,)))
        assert abs(rep.location.points[0]) < 1e-10
        assert rep.residual_norm <= 1e-12
        np.testing.assert_allclose(rep.hessian, -2 * np.pi * np.eye(2), atol=1e-9)
        assert rep.nondegenerate

    def test_quadratic_map_matches_grid_search(self):
        f = ConformalPolyMap([0.0, 1.0, 0.05])
        rep = find_critical_hat_w(f, VortexConfiguration([0.0], (1,)))
        assert rep.residual_norm <= 1e-12
        # coarse grid argmax as an independent oracle
        xs = np.linspace(-0.6, 0.6, 200)
        grid = [
            (transport_hat_w(f, VortexConfiguration([complex(x, y)], (1,))), x, y)
            for x in xs
            for y in xs
            if x * x + y * y < 0.97
        ]
        _, gx, gy = max(grid)
        # grid spacing is ~0.006, so agreement to one cell is the oracle bound
        assert abs(rep.location.points[0] - complex(gx, gy)) < 0.01

    def test_symmetric_dipole_pair(self):
        # opposite degrees attract while the boundary repels, giving a
        # symmetric stationary pair at t^4 + 4 t^2 - 1 = 0
        rep = find_critical_hat_w(
            IDENTITY, VortexConfiguration([0.5, -0.5], (1, -1))
        )
        a, b = rep.location.points
        assert a == pytest.approx(-b, abs=1e-10)
        assert rep.residual_norm <= 1e-12
        t_star = np.sqrt(np.sqrt(5.0) - 2.0)
        assert abs(a) == pytest.approx(t_star, abs=1e-10)

    def test_equal_degrees_have_no_symmetric_ray_critical_point(self):
        # same-sign pair: the reduced radial derivative is strictly negative,
        # so the solver must not claim convergence on the symmetric ray
        from vortexw import NewtonDiverged

        with pytest.raises(NewtonDiverged):
            find_critical_hat_w(IDENTITY, VortexConfiguration([0.5, -0.5], (1, 1)))

    def test_residual_is_true_gradient(self):
        f = ConformalPolyMap([0.0, 1.0, 0.08, 0.01j])
        rep = find_critical_hat_w(f, VortexConfiguration([0.1], (1,)))
        assert np.linalg.norm(transport_hat_w_grad(f, rep.location)) <= 1e-11

    def test_invalid_init_rejected(self):
        with pytest.raises(VortexTooCloseToBoundary):
            find_critical_hat_w(IDENTITY, VortexConfiguration([0.9999], (1,)))


class TestFindCriticalW:
    def test_disc_fixture(self):
        ctx = DiscEnergyContext(VortexConfiguration([0.0], (1,)))
        rep = find_critical_w(IDENTITY, ctx, VortexConfiguration([0.2], (1,)))
        assert abs(rep.location.points[0]) < 1e-10
        np.testing.assert_allclose(rep.hessian, 2 * np.pi * np.eye(2), atol=1e-8)

    def test_small_psi_moves_point_slightly(self):
        psi = FourierSeries.from_real(cos=[0.05])
        ctx = DiscEnergyContext(VortexConfiguration([0.0], (1,)), psi=psi)
        rep = find_critical_w(IDENTITY, ctx, VortexConfiguration([0.0], (1,)))
        assert 0 < abs(rep.location.points[0]) < 0.1
        assert rep.nondegenerate

    def test_perturbed_map(self):
        f = ConformalPolyMap([0.0, 1.0, 0.05])
        ctx = DiscEnergyContext(VortexConfiguration([0.0], (1,)))
        rep = find_critical_w(f, ctx, VortexConfiguration([0.0], (1,)))
        assert abs(rep.location.points[0]) < 0.2
        assert rep.nondegenerate

    def test_init_checked_once_and_location_built_once(self, monkeypatch):
        # a triangle of three vortices and a nonzero psi: the Newton loop
        # runs on arrays, so init's total degree is tested once where it
        # enters and the only configuration built is the report's location
        triangle = 0.5 * np.exp(2j * np.pi * np.arange(3) / 3)
        psi = FourierSeries.from_real(cos=[0.02, 0.01], sin=[-0.015], trunc=16)
        ctx = DiscEnergyContext(VortexConfiguration(triangle, (1, 1, 1)), 16, psi)
        init = VortexConfiguration(0.6 * triangle * np.exp(0.01j), (1, 1, 1))
        counts = {"built": 0, "degree_tests": 0}
        build, total_degree = VortexConfiguration.__init__, VortexConfiguration.total_degree

        def counting_build(cfg, points, degrees):
            counts["built"] += 1
            build(cfg, points, degrees)

        def counting_total_degree(cfg):
            counts["degree_tests"] += cfg is not ctx.base
            return total_degree.fget(cfg)

        monkeypatch.setattr(VortexConfiguration, "__init__", counting_build)
        monkeypatch.setattr(VortexConfiguration, "total_degree", property(counting_total_degree))
        rep = find_critical_w(IDENTITY, ctx, init)
        assert rep.residual_norm <= 1e-12
        assert rep.iterations >= 3
        assert counts == {"built": 1, "degree_tests": 1}


class TestFindMaxHatW:
    def test_disc(self):
        rep = find_max_hat_w(IDENTITY)
        assert abs(rep.location.points[0]) < 1e-10
        assert rep.value == pytest.approx(0.0, abs=1e-12)

    def test_scaling(self):
        rep = find_max_hat_w(ConformalPolyMap([0.0, 2.0]))
        assert abs(rep.location.points[0]) < 1e-10
        assert rep.value == pytest.approx(np.pi * np.log(2.0))

    def test_dominates_probe_grid(self):
        f = ConformalPolyMap([0.0, 1.0, 0.1])
        rep = find_max_hat_w(f)
        xs = np.linspace(-0.9, 0.9, 64)
        for x in xs:
            for y in xs[::4]:
                if x * x + y * y < 0.95:
                    val = transport_hat_w(f, VortexConfiguration([complex(x, y)], (1,)))
                    assert rep.value >= val - 1e-12


class TestBatchedAscent:
    @pytest.mark.parametrize(
        "coeffs",
        [[0.0, 1.0], [0.0, 2.0], [0.0, 1.0, 0.1], [0.0, 1.0, 0.08, 0.02j]],
    )
    def test_single_vortex_matches_loop_bit_for_bit(self, coeffs):
        f = ConformalPolyMap(coeffs)
        starts = critpoint._lattice_starts(critpoint.MULTISTART)
        assert starts.shape == (13, 1)
        batch = critpoint._ascend(f, starts, np.ones(1))
        loop = np.array([ascend_loop(f, s, (1,)) for s in starts])
        assert batch.tobytes() == loop.tobytes()

    @pytest.mark.parametrize("coeffs", [[0.0, 1.0], [0.0, 1.0, 0.1]])
    def test_pair_matches_loop_bit_for_bit(self, coeffs):
        f = ConformalPolyMap(coeffs)
        # the batched ascent is written for any k; 16 seeded admissible pairs
        rng = np.random.default_rng(2357)
        starts = 0.8 * np.sqrt(rng.uniform(0, 1, (24, 2))) * np.exp(
            2j * np.pi * rng.uniform(0, 1, (24, 2))
        )
        starts = starts[configuration_is_admissible(starts)][:16]
        assert starts.shape == (16, 2)
        batch = critpoint._ascend(f, starts, np.ones(2))
        loop = np.array([ascend_loop(f, s, (1, 1)) for s in starts])
        assert batch.tobytes() == loop.tobytes()

    @pytest.mark.parametrize("multistart,count", [(1, 2), (2, 2), (4, 4), (5, 5), (16, 13), (17, 17)])
    def test_start_count(self, multistart, count):
        assert critpoint._lattice_starts(multistart).shape == (count, 1)

    def test_polishes_through_module_attribute(self, monkeypatch):
        # vwbench counts Newton solves by wrapping this module attribute
        calls = []
        polish = critpoint.find_critical_hat_w

        def counted(*args, **kwargs):
            calls.append(args)
            return polish(*args, **kwargs)

        monkeypatch.setattr(critpoint, "find_critical_hat_w", counted)
        find_max_hat_w(ConformalPolyMap([0.0, 1.0, 0.1]))
        assert len(calls) == 13

