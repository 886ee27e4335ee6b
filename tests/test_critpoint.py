from functools import partial

import numpy as np
import pytest

from vortexw import (
    ConformalPolyMap,
    DiscEnergyContext,
    FourierSeries,
    LeftAdmissibleRegion,
    NewtonDiverged,
    VortexConfiguration,
    VortexTooCloseToBoundary,
    find_critical_hat_w,
    find_critical_w,
    find_max_hat_w,
    transport_hat_w,
    transport_hat_w_grad,
)
from vortexw import critpoint
from vortexw.core import BOUNDARY_MARGIN, configuration_is_admissible

from reference import transport_hat_w_hess

IDENTITY = ConformalPolyMap.identity()


def polish_loop(f, pts, degrees):
    """The Newton polish of one start as find_max_hat_w ran it, start by
    start, before the polish was batched: through the checked public
    functions and the one-configuration Hessian kernel of reference.py, the
    oracle for the batched polish. Returns (points, residual_norm,
    iterations, value, hessian), or None where the start is dropped."""
    d = np.asarray(degrees, dtype=float)

    def residual(x):
        return transport_hat_w_grad(f, VortexConfiguration(critpoint._unpack(x), degrees))

    if not configuration_is_admissible(pts):
        return None
    pts = np.asarray(pts, dtype=complex)
    x = np.empty(2 * pts.size)
    x[0::2], x[1::2] = pts.real, pts.imag
    r = residual(x)
    rn = np.linalg.norm(r)
    for it in range(1, critpoint.MAX_ITER + 2):
        if rn <= critpoint.TOL_NEWTON:
            break
        if it > critpoint.MAX_ITER:
            return None
        try:
            step = np.linalg.solve(transport_hat_w_hess(f, critpoint._unpack(x), d), -r)
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        while True:
            x_new = x + lam * step
            if configuration_is_admissible(critpoint._unpack(x_new)):
                r_new = residual(x_new)
                rn_new = np.linalg.norm(r_new)
                if rn_new <= (1.0 - 1e-4 * lam) * rn or rn_new <= critpoint.TOL_NEWTON:
                    break
            lam *= 0.5
            if lam < 1e-12:
                return None
        x, r, rn = x_new, r_new, rn_new
    a = critpoint._unpack(x)
    value = transport_hat_w(f, VortexConfiguration(a, degrees))
    return a, rn, it - 1, value, transport_hat_w_hess(f, a, d)


def polish(starts, degrees, derivs, value):
    """critpoint._solve from every start (m, k) with these degrees: one
    entry per start, its CriticalPointReport or the error that dropped it."""
    errors, solved = critpoint._solve(starts, derivs, value)
    reports = iter(critpoint._reports(degrees, *solved))
    return [next(reports) if error is None else error for error in errors]


def seeded_pairs():
    """16 seeded admissible starts of two vortices."""
    rng = np.random.default_rng(2357)
    starts = 0.8 * np.sqrt(rng.uniform(0, 1, (24, 2))) * np.exp(
        2j * np.pi * rng.uniform(0, 1, (24, 2))
    )
    starts = starts[configuration_is_admissible(starts)][:16]
    assert starts.shape == (16, 2)
    return starts


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

    @pytest.mark.parametrize(
        "coeffs",
        [
            [0.0, 1.0, 0.1],
            [0.0, 1.0, 0.25],
            [0.0, 1.0, -0.25],
            [0.0, 1.0, 0.49],
            # the cubic map of the nd byte pin in test_cli
            [
                0.0,
                1.0,
                0.015137621738702534 + 0.09638712605731306j,
                0.008761047569823141 - 0.008921770610729785j,
            ],
            [0.0, 1.0, 0.0, 0.3],
            [0.0, 1.0, 0.0, 0.0, 0.0, 0.15],
        ],
    )
    def test_dominates_probe_grid(self, coeffs):
        f = ConformalPolyMap(coeffs)
        rep = find_max_hat_w(f)
        xs = np.linspace(-0.9, 0.9, 64)
        for x in xs:
            for y in xs[::4]:
                if x * x + y * y < 0.95:
                    val = transport_hat_w(f, VortexConfiguration([complex(x, y)], (1,)))
                    assert rep.value >= val - 1e-12


# rows (x, y, tag, 0) of the synthetic system below: the tag point has zero
# residual and a unit Jacobian block, so it never moves, and picks how the
# first point behaves
SYNTHETIC = {-0.5: "converges", -0.4: "singular", -0.3: "stalls", -0.2: "slow", -0.1: "outward"}


def synthetic_residual(x):
    r = np.zeros_like(x)
    for n, row in enumerate(x):
        kind = SYNTHETIC[row[2]]
        if kind == "stalls":
            r[n, :2] = 1.0
        elif kind == "outward":
            r[n, 0] = row[0] - 2.0
        else:
            r[n, :2] = row[:2] - (0.2, 0.1)
    return r


def synthetic_derivs(x):
    j = np.tile(np.eye(4), (len(x), 1, 1))
    for n, row in enumerate(x):
        j[n, :2, :2] *= {"singular": 0.0, "slow": 40.0}.get(SYNTHETIC[row[2]], 1.0)
    return synthetic_residual(x), j


def overshoot_derivs(x):
    """One vortex at x0 + i x1: F = (x0, x1), except (10, 0) left of
    x0 = -0.1. The Jacobian is a label of the region, c I with c = 0.5
    right of x0 = 0.1, 3 left of -0.1 and 1 between, so a start at (0.2, 0)
    first tries (-0.2, 0), is refused there, and takes (0, 0) at half the
    step; a start in the middle band takes the origin at the full step."""
    r = np.where(x[:, :1] < -0.1, [10.0, 0.0], x)
    c = np.select([x[:, 0] > 0.1, x[:, 0] < -0.1], [0.5, 3.0], 1.0)
    return r, c[:, None, None] * np.eye(2)


def find_critical_w_loop(f, ctx, pts, degrees):
    """The public find_critical_w from one start, the oracle for the W
    kernels in the batched polish: (points, residual_norm, iterations,
    value, hessian), or None where the start is dropped."""
    try:
        rep = find_critical_w(f, ctx, VortexConfiguration(pts, degrees))
    except (NewtonDiverged, LeftAdmissibleRegion):
        return None
    return rep.location.points_array(), rep.residual_norm, rep.iterations, rep.value, rep.hessian


class TestBatchedPolish:
    @staticmethod
    def check_against_loop(f, starts, degrees, psi=None):
        # the hat_w kernels against polish_loop; with a phase psi, the W
        # kernels against find_critical_w
        d = np.asarray(degrees, dtype=float)
        if psi is None:
            kernels = critpoint._hat_w_kernels(f, d)
            loop = partial(polish_loop, f, degrees=degrees)
        else:
            ctx = DiscEnergyContext(VortexConfiguration([0.6j, -0.6j], (1, -1)), 16, psi)
            kernels = critpoint._w_kernels(f, ctx, d)
            loop = partial(find_critical_w_loop, f, ctx, degrees=degrees)
        batch = polish(starts, degrees, *kernels)
        for pts, rep in zip(starts, batch):
            want = loop(pts)
            assert (want is None) == (not isinstance(rep, critpoint.CriticalPointReport))
            if want is None:
                assert isinstance(rep, (NewtonDiverged, LeftAdmissibleRegion))
                continue
            loc = rep.location.points_array()
            got = (loc, rep.residual_norm, rep.iterations, rep.value, rep.hessian)
            assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want]
            assert rep.nondegenerate == critpoint.is_nondegenerate(want[4])
        return batch

    @pytest.mark.parametrize(
        "coeffs",
        [[0.0, 1.0], [0.0, 2.0], [0.0, 1.0, 0.1], [0.0, 1.0, 0.08, 0.02j]],
    )
    def test_single_vortex_matches_loop_bit_for_bit(self, coeffs):
        f = ConformalPolyMap(coeffs)
        starts = critpoint._LATTICE_STARTS
        assert starts.shape == (13, 1)
        batch = self.check_against_loop(f, starts, (1,))
        assert all(isinstance(rep, critpoint.CriticalPointReport) for rep in batch)

    @pytest.mark.parametrize("coeffs", [[0.0, 1.0], [0.0, 1.0, 0.1]])
    @pytest.mark.parametrize(
        ("degrees", "psi"),
        [
            pytest.param((1, 1), None, id="degrees0"),
            pytest.param((1, -1), None, id="degrees1"),
            pytest.param((1, -1), FourierSeries.from_real(cos=[0.05], sin=[0.0, 0.02]), id="w"),
        ],
    )
    def test_pair_matches_loop_bit_for_bit(self, coeffs, degrees, psi):
        # (1, 1): every row is dropped, most as the line search stalls and
        # some after 50 iterations. (1, -1): rows converge after 5 to 34
        # iterations or are dropped, each on its own schedule; so do they
        # for W (6 to 17 iterations)
        f = ConformalPolyMap(coeffs)
        batch = self.check_against_loop(f, seeded_pairs(), degrees, psi)
        kept = sum(isinstance(rep, critpoint.CriticalPointReport) for rep in batch)
        assert (kept == 0) if degrees == (1, 1) else (0 < kept < len(batch))

    def test_newton_rows_match_one_row_runs(self):
        starts = np.array([[0.3, 0.2, tag, 0.0] for tag in SYNTHETIC] + [[1.5, 0.0, -0.5, 0.0]])
        # the outward row starts just inside the boundary margin
        starts[4, :2] = (1.0 - BOUNDARY_MARGIN - 1e-13, 0.0)
        x, rn, its, _, errors = critpoint._newton(starts, synthetic_derivs)
        assert errors[0] is None
        assert [(type(e), str(e)) for e in errors[1:]] == [
            (NewtonDiverged, "singular Jacobian at iteration 1"),
            (NewtonDiverged, "line search stalled at |F| = 1.414e+00"),
            (NewtonDiverged, f"|F| = {rn[3]:.3e} after 50 iterations"),
            (LeftAdmissibleRegion, "no admissible decreasing step found"),
            (LeftAdmissibleRegion, "initial point outside admissible region"),
        ]
        for n in range(len(starts)):
            x1, rn1, its1, _, (error,) = critpoint._newton(starts[n : n + 1], synthetic_derivs)
            assert (type(error), str(error)) == (type(errors[n]), str(errors[n]))
            if error is None:
                assert (x1[0].tobytes(), rn1[0], its1[0]) == (x[n].tobytes(), rn[n], its[n])

    def test_stored_jacobian_is_the_accepted_iterates(self):
        # row 0's full step is refused and its half step converges, in the
        # rounds where row 1 takes its full step: each row reports the
        # Jacobian evaluated at its own accepted iterate, never the one of
        # a refused candidate
        calls = []

        def counted(x):
            calls.append(len(x))
            return overshoot_derivs(x)

        starts = np.array([[0.2, 0.0], [0.05, 0.05]])
        x, rn, its, jac, errors = critpoint._newton(starts, counted)
        assert errors == [None, None]
        assert calls == [2, 2, 1]
        assert x.tobytes() == np.zeros((2, 2)).tobytes()
        assert list(rn) == [0.0, 0.0] and list(its) == [1, 1]
        assert jac.tobytes() == overshoot_derivs(x)[1].tobytes()
        assert jac.tobytes() == np.array([np.eye(2), np.eye(2)]).tobytes()

    def test_hessian_kernel_calls(self, monkeypatch):
        # one batched derivative evaluation per Newton round, the start's
        # included, as many rounds as the slowest start takes, on the rows
        # still live; none after the loop, one value call, and one
        # configuration built, for the winner's report
        f = ConformalPolyMap([0.0, 1.0, 0.1])
        kernels = critpoint._hat_w_kernels(f, np.ones(1))
        reps = polish(critpoint._LATTICE_STARTS, (1,), *kernels)
        rounds = max(rep.iterations for rep in reps)
        live = [sum(rep.iterations >= n for rep in reps) for n in range(rounds + 1)]
        calls = {"derivs": [], "value": 0, "built": 0}
        derivs, value = critpoint._transport_hat_w_derivs, critpoint._transport_hat_w
        build = VortexConfiguration.__init__

        def counted_derivs(f, a, d, hessian=False):
            calls["derivs"].append((a.shape, hessian))
            return derivs(f, a, d, hessian)

        def counted_value(f, a, d):
            calls["value"] += 1
            return value(f, a, d)

        def counted_build(cfg, points, degrees):
            calls["built"] += 1
            build(cfg, points, degrees)

        monkeypatch.setattr(critpoint, "_transport_hat_w_derivs", counted_derivs)
        monkeypatch.setattr(critpoint, "_transport_hat_w", counted_value)
        monkeypatch.setattr(VortexConfiguration, "__init__", counted_build)
        rep = find_max_hat_w(f)
        assert rounds == 6
        assert live[0] == 13
        assert calls["derivs"] == [((n, 1), True) for n in live]
        assert calls["value"] == 1
        assert calls["built"] == 1
        # the report the winner got from polish, under the same tie-break
        want = min(reps, key=lambda r: (-r.value, abs(r.location.points[0])))
        fields = ("location", "residual_norm", "nondegenerate", "iterations", "value")
        assert [getattr(rep, k) for k in fields] == [getattr(want, k) for k in fields]
        assert rep.hessian.tobytes() == want.hessian.tobytes()
