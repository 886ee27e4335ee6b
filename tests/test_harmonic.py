import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexw import (
    AnnulusQuadrature,
    FourierSeries,
    h_half_seminorm_sq,
    harmonic_conjugate,
)


def _series(draw_floats):
    cos = draw_floats
    return FourierSeries.from_real(cos=cos[: len(cos) // 2], sin=cos[len(cos) // 2 :])


coeff_lists = st.lists(
    st.floats(-5, 5, allow_nan=False), min_size=2, max_size=12
)


class TestHarmonicConjugate:
    def test_cos_goes_to_sin(self):
        psi = FourierSeries.from_real(cos=[1.0])
        conj = harmonic_conjugate(psi)
        np.testing.assert_allclose(2 * conj.coeffs[1:].real, [0.0], atol=1e-15)
        np.testing.assert_allclose(-2 * conj.coeffs[1:].imag, [1.0], atol=1e-15)

    @given(coeff_lists)
    @settings(max_examples=60, deadline=None)
    def test_involution_is_minus_identity_mod_constants(self, vals):
        psi = _series(vals)
        twice = harmonic_conjugate(harmonic_conjugate(psi))
        np.testing.assert_allclose(
            twice.coeffs, -psi.with_zero_mean().coeffs, atol=1e-13
        )

    @given(coeff_lists)
    @settings(max_examples=60, deadline=None)
    def test_seminorm_preserved(self, vals):
        psi = _series(vals)
        assert h_half_seminorm_sq(harmonic_conjugate(psi)) == pytest.approx(
            h_half_seminorm_sq(psi), rel=1e-12, abs=1e-12
        )

    @given(coeff_lists)
    @settings(max_examples=30, deadline=None)
    def test_zero_mean(self, vals):
        psi = FourierSeries.from_real(a0=3.7, cos=vals)
        assert harmonic_conjugate(psi).mean == 0.0


class TestSeminorm:
    def test_single_cos_mode(self):
        # |cos theta|^2_{1/2} = pi
        psi = FourierSeries.from_real(cos=[1.0])
        assert h_half_seminorm_sq(psi) == pytest.approx(np.pi)

    def test_mode_scaling(self):
        for n in (1, 2, 5):
            c = np.zeros(9, dtype=complex)
            c[n] = 0.5
            psi = FourierSeries(c)
            assert h_half_seminorm_sq(psi) == pytest.approx(n * np.pi)

    def test_mean_does_not_contribute(self):
        a = FourierSeries.from_real(a0=0.0, cos=[1.0])
        b = FourierSeries.from_real(a0=9.0, cos=[1.0])
        assert h_half_seminorm_sq(a) == h_half_seminorm_sq(b)


def integrate_disc(field):
    """Integral of field(z) dA over the unit disc by the nodes and weights
    of AnnulusQuadrature.build()."""
    quad = AnnulusQuadrature.build()
    r = quad.radial_nodes[:, None]
    z = r * np.exp(1j * quad.angular_nodes[None, :])
    dtheta = 2 * np.pi / quad.angular_nodes.size
    return float(np.sum(quad.radial_weights @ (field(z) * r)) * dtheta)


class TestAnnulusQuadrature:
    def test_area(self):
        area = integrate_disc(lambda z: np.ones_like(z, dtype=float))
        assert area == pytest.approx(np.pi, rel=1e-12)

    def test_singular_moment(self):
        # integral of 1/r over the disc = 2 pi: no node sits at r = 0
        val = integrate_disc(lambda z: 1.0 / np.abs(z))
        assert val == pytest.approx(2 * np.pi, rel=1e-12)

    def test_harmonic_moment_vanishes(self):
        val = integrate_disc(lambda z: z.real)
        assert abs(val) < 1e-12
