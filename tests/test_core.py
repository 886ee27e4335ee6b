import warnings

import numpy as np
import pytest

from vortexw import (
    ConformalPolyMap,
    DegenerateDerivative,
    EmptyConfiguration,
    FourierSeries,
    VortexConfiguration,
    VortexTooCloseToBoundary,
    VorticesCollide,
    validate_configuration,
    validate_map,
)
from vortexw.core import _polygon_self_intersects, configuration_is_admissible, is_nondegenerate


class TestVortexConfiguration:
    def test_basic_accessors(self):
        cfg = VortexConfiguration([0.3 + 0.2j, -0.1j], (1, 2))
        assert cfg.k == 2
        assert cfg.total_degree == 3
        assert cfg.points == (0.3 + 0.2j, -0.1j)
        np.testing.assert_allclose(cfg.degrees_array(), [1.0, 2.0])

    def test_with_points_keeps_degrees(self):
        cfg = VortexConfiguration([0.1, 0.2], (1, -1))
        moved = cfg.with_points([0.3, 0.4j])
        assert moved.degrees == (1, -1)
        assert moved.points[1] == 0.4j

    def test_immutable(self):
        cfg = VortexConfiguration([0.1], (1,))
        with pytest.raises(AttributeError):
            cfg.points = (0.5,)

    def test_validate_roundtrip(self):
        cfg = VortexConfiguration([0.5, -0.5], (1, 1))
        assert validate_configuration(cfg) is cfg
        # idempotent
        assert validate_configuration(validate_configuration(cfg)) is cfg

    def test_empty_rejected(self):
        with pytest.raises(EmptyConfiguration):
            validate_configuration(VortexConfiguration([], ()))

    def test_mismatched_degrees_rejected(self):
        with pytest.raises(EmptyConfiguration):
            validate_configuration(VortexConfiguration([0.1, 0.2], (1,)))

    def test_boundary_margin(self):
        with pytest.raises(VortexTooCloseToBoundary):
            validate_configuration(VortexConfiguration([0.9995], (1,)))
        # just inside the margin is fine
        validate_configuration(VortexConfiguration([0.998], (1,)))

    def test_collision_margin(self):
        with pytest.raises(VorticesCollide):
            validate_configuration(
                VortexConfiguration([0.1, 0.1 + 1e-10], (1, 1))
            )

    def test_collision_names_first_pair(self):
        cfg = VortexConfiguration([0.3, 0.1, 0.2j, 0.1 + 1e-10, 0.3], (1, 1, 1, 1, 1))
        with pytest.raises(VorticesCollide, match="vortices 0 and 4"):
            validate_configuration(cfg)

    def test_nan_point_is_not_admissible(self):
        assert not configuration_is_admissible(np.array([complex("nan+0j")]))
        with pytest.raises(VortexTooCloseToBoundary):
            validate_configuration(VortexConfiguration([0.1, complex("nan+0j")], (1, 1)))

    def test_admissible_over_a_batch(self):
        batch = np.array(
            [[0.1, 0.2j], [0.1, 0.1 + 1e-10], [0.1, 0.9995], [-0.5, 0.5], [0.0, complex("nan")]]
        )
        got = configuration_is_admissible(batch)
        assert got.tolist() == [configuration_is_admissible(row) for row in batch]
        assert got.tolist() == [True, False, False, True, False]


class TestFourierSeries:
    def test_real_roundtrip(self):
        s = FourierSeries.from_real(a0=0.5, cos=[1.0, 0.25], sin=[0.0, -0.75])
        assert s.mean == 0.5
        np.testing.assert_allclose(s.cos_coeffs(), [1.0, 0.25])
        np.testing.assert_allclose(s.sin_coeffs(), [0.0, -0.75])

    def test_evaluate_matches_direct_sum(self):
        s = FourierSeries.from_real(a0=0.2, cos=[0.3], sin=[0.0, 0.7])
        theta = np.linspace(0, 2 * np.pi, 17)
        direct = 0.2 + 0.3 * np.cos(theta) + 0.7 * np.sin(2 * theta)
        np.testing.assert_allclose(s.evaluate(theta), direct, atol=1e-14)

    def test_negative_mode_is_conjugate(self):
        s = FourierSeries([0.0, 1 + 2j, 3 - 1j])
        assert s.coeff(-2) == np.conj(s.coeff(2))
        assert s.coeff(5) == 0.0

    def test_algebra_aligns_truncations(self):
        a = FourierSeries([0.0, 1.0])
        b = FourierSeries([1.0, 0.0, 2.0j])
        c = a + 2.0 * b
        assert c.trunc == 2
        assert c.mean == 2.0
        assert c.coeff(2) == 4.0j
        assert (-c).coeff(2) == -4.0j

    def test_mode0_must_be_real(self):
        with pytest.raises(ValueError):
            FourierSeries([1j, 0.0])

    def test_coeffs_read_only(self):
        s = FourierSeries.zeros(4)
        with pytest.raises(ValueError):
            s.coeffs[1] = 1.0


class TestConformalPolyMap:
    def test_identity(self):
        f = ConformalPolyMap.identity()
        assert f.is_identity()
        assert f(0.25 + 0.5j) == 0.25 + 0.5j
        assert f.derivative(0.3) == 1.0

    def test_polynomial_values_and_derivatives(self):
        f = ConformalPolyMap([1.0, 2.0, 0.0, 0.5])  # 1 + 2z + z^3/2
        z = 0.3 - 0.2j
        assert np.isclose(f(z), 1 + 2 * z + 0.5 * z**3)
        assert np.isclose(f.derivative(z), 2 + 1.5 * z**2)
        assert np.isclose(f.derivative(z, 2), 3 * z)
        assert np.isclose(f.derivative(z, 3), 3.0)
        assert f.derivative(z, 4) == 0.0


def segments_intersect_pairwise(p, q):
    """Proper crossing of any two non-adjacent segments p[i] -> q[i], by
    gathering each pair of segments and testing four orientations."""
    s = p.size

    def cross(o, a, b):
        return ((a - o).conjugate() * (b - o)).imag

    i_idx, j_idx = np.triu_indices(s, k=2)
    # first and last segments are adjacent on the loop
    keep = ~((i_idx == 0) & (j_idx == s - 1))
    i_idx, j_idx = i_idx[keep], j_idx[keep]
    a, b = p[i_idx], q[i_idx]
    c, d = p[j_idx], q[j_idx]
    hit = (cross(a, b, c) * cross(a, b, d) < 0) & (cross(c, d, a) * cross(c, d, b) < 0)
    return bool(np.any(hit))


class TestValidateMap:
    def test_identity_passes(self):
        report = validate_map(ConformalPolyMap.identity())
        assert abs(report["winding"] - 1.0) < 1e-9

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.2, 0.45])
    def test_small_quadratic_perturbations_pass(self, eps):
        validate_map(ConformalPolyMap([0.0, 1.0, eps]))

    @pytest.mark.parametrize("eps", [0.5, 0.6, 1.0])
    def test_large_quadratic_perturbations_fail(self, eps):
        # f'(z) = 1 + 2 eps z vanishes at |z| = 1/(2 eps) <= 1
        with pytest.raises(DegenerateDerivative):
            validate_map(ConformalPolyMap([0.0, 1.0, eps]))

    @pytest.mark.parametrize("r", [1e-300, 1e160, 1e308])
    def test_scalings_pass(self, r):
        # a scaling is a conformal bijection at any size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            validate_map(ConformalPolyMap([0.0, r]))

    def test_self_intersection_table_matches_segment_pairs(self):
        # random polynomial maps z + c_2 z^2 + ..., many with a looping boundary
        rng = np.random.default_rng(2024)
        z = np.exp(1j * np.linspace(0.0, 2 * np.pi, 256, endpoint=False))
        verdicts = []
        for _ in range(320):
            c = np.zeros(rng.integers(3, 8), dtype=complex)
            c[1] = 1.0
            c[2:] = rng.uniform(0.05, 0.6) * (
                rng.normal(size=c.size - 2) + 1j * rng.normal(size=c.size - 2)
            )
            p = np.polynomial.polynomial.polyval(z, c)
            p /= np.max(np.abs(p))
            want = segments_intersect_pairwise(p, np.roll(p, -1))
            assert _polygon_self_intersects(p) == want
            verdicts.append(want)
        assert 50 <= sum(verdicts) <= len(verdicts) - 50

    def test_zero_linear_coefficient_fails(self):
        with pytest.raises(DegenerateDerivative):
            validate_map(ConformalPolyMap([0.0, 0.0, 1.0]))


class TestNondegeneracy:
    def test_verdict(self):
        assert is_nondegenerate(2 * np.pi * np.eye(2))
        assert not is_nondegenerate(np.zeros((2, 2)))
