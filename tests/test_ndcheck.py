import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexw import (
    ConformalPolyMap,
    DiscEnergyContext,
    FourierSeries,
    VortexConfiguration,
    assemble_du_matrix,
    check_nd1,
    check_nd2,
    du_star_matrix_analytic_disc,
    find_critical_hat_w,
    find_critical_w,
    magic_determinant_check,
    n_disc,
    transport_w_grad,
    w_disc_hess,
)
from vortexw import core, ndcheck

import reference

IDENTITY = ConformalPolyMap.identity()

FD_STEP = 1e-4
FD_AGREEMENT = 1e-5


def fd_du_matrix(f, nd1, trunc):
    """Central-difference assembly of the linearized trace operator: column m
    differences psi -> N(alpha(psi), psi) along the m-th real mode, with
    alpha(psi) from a Newton solve started at nd1.alpha0. Full and half steps;
    Richardson extrapolation when they disagree. The independent oracle for
    the implicit-function assembly."""
    start = VortexConfiguration([nd1.alpha0], (1,))
    ctx = DiscEnergyContext(start, trunc=trunc)

    def trace(psi):
        datum = replace(ctx, psi=psi)
        rep = find_critical_w(f, datum, start)
        c = n_disc(datum, rep.location).coeffs[1:]
        out = np.empty(2 * trunc)
        out[0::2] = 2.0 * c.real
        out[1::2] = -2.0 * c.imag
        return out

    cols = []
    for m in range(2 * trunc):
        modes = np.zeros((2, trunc))
        modes[m % 2, m // 2] = 1.0
        e = FourierSeries.from_real(cos=modes[0], sin=modes[1], trunc=trunc)

        def central(h):
            up, dn = FourierSeries(h * e.coeffs), FourierSeries(-h * e.coeffs)
            return (trace(up) - trace(dn)) / (2.0 * h)

        d_full = central(FD_STEP)
        d_half = central(0.5 * FD_STEP)
        if np.max(np.abs(d_full - d_half)) > FD_AGREEMENT:
            cols.append((4.0 * d_half - d_full) / 3.0)
        else:
            cols.append(d_full)
    return np.column_stack(cols)


def loop_psi_columns(f, cfg, trunc):
    """Derivatives of N and of grad_alpha W along each real mode of psi as
    differences of the checked public functions, one mode at a time: the
    oracle for the closed-form columns."""
    ctx = DiscEnergyContext(cfg, trunc=trunc)
    n0 = n_disc(ctx, cfg).coeffs[1:]
    g0 = transport_w_grad(f, ctx, cfg)
    dn_dpsi = np.empty((trunc, 2 * trunc), dtype=complex)
    dg_dpsi = np.empty((2 * cfg.k, 2 * trunc))
    for m in range(2 * trunc):
        modes = np.zeros((2, trunc))
        modes[m % 2, m // 2] = 1.0
        e = FourierSeries.from_real(cos=modes[0], sin=modes[1], trunc=trunc)
        dn_dpsi[:, m] = n_disc(replace(ctx, psi=e), cfg).coeffs[1:] - n0
        dg_dpsi[:, m] = transport_w_grad(f, replace(ctx, psi=e), cfg) - g0
    return dn_dpsi, dg_dpsi


class TestCheckNd1:
    def test_disc(self):
        rep = check_nd1(IDENTITY)
        assert rep.passed
        assert abs(rep.alpha0) < 1e-10
        assert abs(rep.a0) < 1e-10
        np.testing.assert_allclose(rep.hessian_hat, -2 * np.pi * np.eye(2), atol=1e-9)
        np.testing.assert_allclose(rep.hessian_w, 2 * np.pi * np.eye(2), atol=1e-8)

    def test_scaling_keeps_origin(self):
        rep = check_nd1(ConformalPolyMap([0.0, 2.0]))
        assert rep.passed
        assert abs(rep.alpha0) < 1e-10
        # scaling shifts the energy by a constant; curvature is unchanged
        np.testing.assert_allclose(rep.hessian_hat, -2 * np.pi * np.eye(2), atol=1e-9)

    def test_small_perturbation(self):
        rep = check_nd1(ConformalPolyMap([0.0, 1.0, 0.05]))
        assert rep.passed
        assert abs(rep.alpha0) < 0.25
        assert np.max(np.abs(rep.hessian_hat + 2 * np.pi * np.eye(2))) < 0.05 * 2 * np.pi * 2

    def test_double_nondegeneracy_on_random_maps(self):
        # if the prescribed-degree critical point is nondegenerate, so is the
        # full-energy Hessian taken with the base anchored at that point
        rng = np.random.default_rng(17)
        for _ in range(8):
            eps = 0.06 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            f = ConformalPolyMap([0.0, 1.0, eps])
            rep = find_critical_hat_w(f, VortexConfiguration([0.0], (1,)))
            assert rep.nondegenerate
            ctx = DiscEnergyContext(rep.location)
            h_w = w_disc_hess(ctx, rep.location)
            assert np.linalg.svd(h_w, compute_uv=False)[-1] > 1e-8 * np.pi

    def test_validates_each_configuration_once(self, monkeypatch):
        # a configuration is checked once, when it is built: here only the
        # locations that the batched polish builds for its converged starts,
        # never inside the Newton loop, the context or the Hessians
        calls = []
        check = core.validate_configuration

        def counted(cfg):
            calls.append(cfg)
            return check(cfg)

        for name, mod in list(sys.modules.items()):
            if name.startswith("vortexw") and getattr(mod, "validate_configuration", None) is check:
                monkeypatch.setattr(mod, "validate_configuration", counted)
        check_nd1(ConformalPolyMap([0.0, 1.0, 0.1]))
        starts = 13
        assert 0 < len(calls) <= 2 * (starts + 2)


class TestDuStarAnalytic:
    def test_spectrum(self):
        op = du_star_matrix_analytic_disc(6)
        expected = np.diag([-1.0, -1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6])
        np.testing.assert_array_equal(op, expected)
        assert np.linalg.svd(op, compute_uv=False)[-1] == 1.0

    def test_diagonal_only(self):
        op = du_star_matrix_analytic_disc(10)
        off = op - np.diag(np.diag(op))
        assert np.all(off == 0.0)

    def test_min_truncation(self):
        with pytest.raises(ValueError):
            du_star_matrix_analytic_disc(1)


class TestAssembleDu:
    def test_disc_matches_analytic(self):
        fd = assemble_du_matrix(IDENTITY, check_nd1(IDENTITY), 8)
        an = du_star_matrix_analytic_disc(8)
        np.testing.assert_allclose(fd, an, atol=1e-6)

    @pytest.mark.parametrize(
        "coeffs", [[0.0, 1.0], [0.0, 1.0, 0.05], [0.0, 1.0, 0.1, 0.02j]]
    )
    def test_matches_finite_differences(self, coeffs):
        f = ConformalPolyMap(coeffs)
        nd1 = check_nd1(f)
        assembled = assemble_du_matrix(f, nd1, 8)
        np.testing.assert_allclose(assembled, fd_du_matrix(f, nd1, 8), atol=1e-6)

    @pytest.mark.parametrize("trunc", [8, 16, 32])
    @pytest.mark.parametrize("coeffs", [[0.0, 1.0, 0.1], [0.0, 1.0, 0.08, 0.02j]])
    def test_closed_form_columns_match_mode_loop(self, coeffs, trunc):
        f = ConformalPolyMap(coeffs)
        cfg = VortexConfiguration([check_nd1(f).alpha0], (1,))
        dn, dg = ndcheck._psi_columns(cfg.points_array(), cfg.degrees_array(), trunc)
        dn_loop, dg_loop = loop_psi_columns(f, cfg, trunc)
        np.testing.assert_allclose(dn, dn_loop, rtol=0, atol=1e-14)
        np.testing.assert_allclose(dg, dg_loop, rtol=0, atol=1e-14)

    def test_mode_matrix_is_the_kron_construction_bit_for_bit(self):
        for trunc in range(1, 65):
            e = np.kron(np.eye(trunc), [0.5, -0.5j])
            assert ndcheck._mode_matrix(trunc).tobytes() == e.tobytes()

    def test_higher_modes_are_pure_stiff_part(self):
        # rank-<=2 coupling: only the mode-1 block deviates from the diagonal n
        fd = assemble_du_matrix(IDENTITY, check_nd1(IDENTITY), 6)
        sub = fd[2:, 2:]
        np.testing.assert_allclose(
            sub, np.diag(np.repeat(np.arange(2, 7), 2)), atol=1e-6
        )

    def test_perturbed_map_near_disc_spectrum(self):
        f = ConformalPolyMap([0.0, 1.0, 0.05])
        fd = assemble_du_matrix(f, check_nd1(f), 8)
        sv = np.linalg.svd(fd, compute_uv=False)[-1]
        assert abs(sv - 1.0) < 0.25


def near_disc_maps(count, seed=0):
    """Seeded near-disc maps, alternately z + c z^2 with real c and
    z + c2 z^2 + c3 z^3 with small complex coefficients."""
    rng = np.random.default_rng(seed)
    maps = []
    for i in range(count):
        if i % 2 == 0:
            coeffs = [0.0, 1.0, rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 0.25)]
        else:
            c2, c3 = rng.uniform(0.02, 0.12), rng.uniform(0.005, 0.03)
            coeffs = [0.0, 1.0] + [c * np.exp(2j * np.pi * rng.uniform()) for c in (c2, c3)]
        maps.append(ConformalPolyMap(coeffs))
    return maps


class TestSharedOperatorTerms:
    # check_nd2 builds the configuration, the psi-columns, the alpha-Jacobian
    # and the alpha0 terms of the Hessians once for N and 2N; its matrices
    # must be those of one assembly per truncation, signed zeros included

    @pytest.mark.parametrize("n", range(33))
    def test_matrices_are_the_per_truncation_bits(self, n):
        f = IDENTITY if n == 0 else near_disc_maps(32)[n - 1]
        nd1 = check_nd1(f)
        cfg = VortexConfiguration([nd1.alpha0], (1,))
        fused = reference.fused_transport_w_hess(f, DiscEnergyContext(cfg), cfg)
        assert nd1.hessian_w.tobytes() == fused.tobytes()
        for trunc in (4, 8, 16, 32):
            truncs = (trunc, 2 * trunc)
            terms = ndcheck._operator_terms(f, nd1, truncs)
            oracle = [reference.per_trunc_du_matrix(f, nd1, t) for t in truncs]
            for t, want in zip(truncs, oracle):
                assert assemble_du_matrix(f, nd1, t, terms).tobytes() == want.tobytes()
                assert assemble_du_matrix(f, nd1, t).tobytes() == want.tobytes()
            sv = [float(np.linalg.svd(m, compute_uv=False)[-1]) for m in oracle]
            rep = check_nd2(f, nd1, trunc)
            assert (rep.smallest_singular_value, rep.smallest_singular_value_refined) == tuple(sv)


class TestCheckNd2:
    def test_disc(self):
        rep = check_nd2(IDENTITY, check_nd1(IDENTITY), trunc=8)
        assert rep.passed
        assert rep.smallest_singular_value == pytest.approx(1.0, abs=1e-6)
        assert rep.stable

    def test_scaling_same_spectrum(self):
        f = ConformalPolyMap([0.0, 2.0])
        rep = check_nd2(f, check_nd1(f), trunc=8)
        assert rep.passed
        assert rep.smallest_singular_value == pytest.approx(1.0, abs=1e-4)

    def test_perturbed_map(self):
        f = ConformalPolyMap([0.0, 1.0, 0.05])
        rep = check_nd2(f, check_nd1(f), trunc=8)
        assert rep.passed


class TestMagicDeterminant:
    @pytest.mark.parametrize(
        "w,expected_det",
        [(0.0, 4.0), (3 + 4j, -21.0), (2.0, 0.0)],
    )
    def test_fixtures(self, w, expected_det):
        assert magic_determinant_check(w)
        m = np.array([[np.real(w), -np.imag(w)], [-np.imag(w), -np.real(w)]])
        assert np.linalg.det(m - 2 * np.eye(2)) == pytest.approx(expected_det)

    def test_zero_pivot_at_a_subnormal_imaginary_part(self):
        # det(M_w + 2I) is exactly 0 here, and det logs its pivots
        assert magic_determinant_check(complex(2.0, 2.225073858507203e-309))

    @given(
        st.floats(-50, 50, allow_nan=False), st.floats(-50, 50, allow_nan=False)
    )
    @settings(max_examples=200, deadline=None)
    def test_random(self, re, im):
        assert magic_determinant_check(complex(re, im))
