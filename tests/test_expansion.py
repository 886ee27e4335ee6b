import numpy as np
import pytest

from vortexw import (
    DiscEnergyContext,
    EvaluationAtVortex,
    FourierSeries,
    InvalidRadius,
    VortexConfiguration,
    expansion_report,
    grad_phi_ag,
    hat_w,
    punctured_energy,
)
from vortexw.expansion import _gprime_coeffs

ORIGIN = VortexConfiguration([0.0], (1,))
CTX0 = DiscEnergyContext(ORIGIN)
PSI0 = FourierSeries.zeros(CTX0.trunc)


class TestGradPhiAg:
    def test_radial_field_for_centered_vortex(self):
        for z in (0.3, 0.5j, -0.2 + 0.6j):
            g = grad_phi_ag(CTX0, ORIGIN, PSI0, z)
            assert abs(g) == pytest.approx(1.0 / abs(z), rel=1e-12)
            # points radially
            assert (g * np.conj(z)).imag == pytest.approx(0.0, abs=1e-12)

    def test_evaluation_at_vortex(self):
        with pytest.raises(EvaluationAtVortex):
            grad_phi_ag(CTX0, ORIGIN, PSI0, 0.0)

    def test_cos_phase_at_origin(self):
        psi = FourierSeries.from_real(cos=[1.0], trunc=8)
        cfg = VortexConfiguration([0.4], (1,))
        delta = grad_phi_ag(CTX0, cfg, psi, 0.0) - grad_phi_ag(
            CTX0, cfg, FourierSeries.zeros(8), 0.0
        )
        assert delta == pytest.approx(-1j, abs=1e-13)

    def test_matches_fd_of_scalar_potential(self):
        from vortexw import hat_phi, harmonic_conjugate, psi_star_base_boundary

        ctx = DiscEnergyContext(VortexConfiguration([0.2 + 0.1j], (1,)), trunc=64)
        cfg = VortexConfiguration([0.4 - 0.3j], (1,))
        psi = FourierSeries.from_real(cos=[0.1], sin=[0.05, 0.02], trunc=64)
        comp = psi_star_base_boundary(ctx, cfg) + harmonic_conjugate(psi)
        n = np.arange(1, comp.trunc + 1)

        def potential(z):
            ext = comp.mean + 2 * np.real(np.sum(comp.coeffs[1:] * z**n))
            return hat_phi(cfg, z) - ext

        z0 = 0.1 + 0.55j
        h = 1e-6
        fd = (potential(z0 + h) - potential(z0 - h)) / (2 * h) + 1j * (
            potential(z0 + 1j * h) - potential(z0 - 1j * h)
        ) / (2 * h)
        assert grad_phi_ag(ctx, cfg, psi, z0) == pytest.approx(fd, abs=1e-8)

    def test_zero_modes_of_psi_are_not_evaluated(self):
        cfg = VortexConfiguration([0.4 - 0.3j], (1,))
        z = np.array([0.3, 0.5j, -0.2 + 0.1j])
        short = FourierSeries.from_real(cos=[0.1], sin=[0.05, 0.02])
        padded = FourierSeries.from_real(cos=[0.1], sin=[0.05, 0.02], trunc=64)
        assert _gprime_coeffs(padded).size == 2
        assert _gprime_coeffs(FourierSeries.zeros(64)).size == 0
        np.testing.assert_array_equal(
            grad_phi_ag(CTX0, cfg, padded, z), grad_phi_ag(CTX0, cfg, short, z)
        )

    def test_vectorized_evaluation(self):
        z = np.array([0.3, 0.5j, -0.2 + 0.1j])
        g = grad_phi_ag(CTX0, ORIGIN, PSI0, z)
        assert g.shape == (3,)
        np.testing.assert_allclose(g, z / np.abs(z) ** 2, atol=1e-13)


class TestPuncturedEnergy:
    def test_centered_vortex_closed_form(self):
        for rho in (0.05, 0.02, 0.01):
            e = punctured_energy(CTX0, ORIGIN, PSI0, rho)
            assert e == pytest.approx(np.pi * np.log(1.0 / rho), abs=1e-6)

    def test_annular_additivity(self):
        e1 = punctured_energy(CTX0, ORIGIN, PSI0, 0.02)
        e2 = punctured_energy(CTX0, ORIGIN, PSI0, 0.04)
        assert e1 - e2 == pytest.approx(np.pi * np.log(2.0), abs=1e-6)

    def test_monotone_decreasing_in_rho(self):
        ctx = DiscEnergyContext(ORIGIN)
        cfg = VortexConfiguration([0.3 + 0.2j], (1,))
        vals = [
            punctured_energy(ctx, cfg, PSI0, rho) for rho in (0.01, 0.02, 0.05)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_bad_radius(self):
        with pytest.raises(InvalidRadius):
            punctured_energy(CTX0, ORIGIN, PSI0, 0.0)
        with pytest.raises(InvalidRadius):
            # half the boundary clearance is the cutoff
            punctured_energy(
                CTX0, VortexConfiguration([0.6], (1,)), PSI0, 0.3
            )


class TestExpansionReport:
    def test_centered_vortex_estimate_is_zero(self):
        rep = expansion_report(CTX0, ORIGIN, PSI0, [0.02, 0.01, 0.005])
        assert rep.w_formula == 0.0
        assert abs(rep.w_estimate) < 1e-5
        assert rep.slope_check

    def test_offset_vortex_closed_form(self):
        cfg = VortexConfiguration([0.5], (1,))
        rep = expansion_report(CTX0, cfg, PSI0, [0.02, 0.01, 0.005])
        target = -np.pi * np.log(0.75)
        assert rep.w_estimate == pytest.approx(target, abs=5e-3)
        assert rep.w_formula == pytest.approx(target, rel=1e-12)

    def test_canonical_pair_matches_hat_w(self):
        cfg = VortexConfiguration([0.4, -0.4], (1, 1))
        ctx = DiscEnergyContext(cfg)
        rep = expansion_report(ctx, cfg, FourierSeries.zeros(ctx.trunc), [0.02, 0.01, 0.005])
        assert rep.w_estimate == pytest.approx(hat_w(cfg), abs=1e-2)

    def test_psi_never_decreases_estimate_at_base(self):
        psi = FourierSeries.from_real(cos=[0.3], trunc=CTX0.trunc)
        plain = expansion_report(CTX0, ORIGIN, PSI0, [0.04, 0.02, 0.01])
        bumped = expansion_report(CTX0, ORIGIN, psi, [0.04, 0.02, 0.01])
        assert bumped.w_estimate >= plain.w_estimate - 1e-8
        assert bumped.w_formula == pytest.approx(
            0.5 * np.pi * 0.3**2 * 0.5 * 2, rel=1e-10
        )

    def test_needs_three_decreasing_radii(self):
        with pytest.raises(InvalidRadius):
            expansion_report(CTX0, ORIGIN, PSI0, [0.02, 0.01])
        with pytest.raises(InvalidRadius):
            expansion_report(CTX0, ORIGIN, PSI0, [0.01, 0.02, 0.005])
