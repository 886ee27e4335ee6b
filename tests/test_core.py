import math
import re
import warnings

import numpy as np
import pytest

from vortexw import (
    BoundaryNotSimple,
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
from vortexw import core
from vortexw.core import (
    _polygon_self_intersects,
    _star_shaped,
    configuration_is_admissible,
    is_nondegenerate,
)

from reference import validate_map_with_table


class TestVortexConfiguration:
    def test_basic_accessors(self):
        cfg = VortexConfiguration([0.3 + 0.2j, -0.1j], (1, 2))
        assert cfg.k == 2
        assert cfg.total_degree == 3
        assert cfg.points == (0.3 + 0.2j, -0.1j)
        np.testing.assert_allclose(cfg.degrees_array(), [1.0, 2.0])

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
        with pytest.raises(VorticesCollide, match="vortices 0 and 4"):
            VortexConfiguration([0.3, 0.1, 0.2j, 0.1 + 1e-10, 0.3], (1, 1, 1, 1, 1))

    @pytest.mark.parametrize(
        "points, degrees, error, message",
        [
            ([], (), EmptyConfiguration, "configuration has no vortices"),
            ([0.1, 0.2], (1,), EmptyConfiguration, "2 points but 1 degrees"),
            ([0.1, 0.9995j], (1, 1), VortexTooCloseToBoundary, "|0.9995j| = 0.9995 >= 0.999"),
            ([0.1, 0.1 + 1e-10], (1, 1), VorticesCollide, "vortices 0 and 1 separated by 1.000e-10"),
        ],
    )
    def test_construction_checks(self, points, degrees, error, message):
        # every configuration is admissible: building one checks it, with
        # the errors and messages of validate_configuration
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            VortexConfiguration(points, degrees)

    @pytest.mark.parametrize("degree", [1.7, 2.0, True, np.True_, "1"])
    def test_degree_that_is_not_an_integer_is_refused(self, degree):
        # int() would turn 1.7 and True into 1 and read "1" as a number
        with pytest.raises(TypeError):
            VortexConfiguration([0.3], (degree,))

    def test_numpy_integer_degrees_are_accepted(self):
        cfg = VortexConfiguration([0.3, -0.3], np.array([2, -1], dtype=np.int32))
        assert cfg.degrees == (2, -1) and all(type(d) is int for d in cfg.degrees)

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

    def test_huge_and_infinite_points_fail_without_warning(self):
        inf = float("inf")
        batch = np.array(
            [[0.0, -1e308, 1e308], [complex(inf, 0), complex(0, inf), 0.1], [0.1, 0.2, 0.3]]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = configuration_is_admissible(batch)
        assert got.tolist() == [False, False, True]


class TestFourierSeries:
    def test_real_roundtrip(self):
        s = FourierSeries.from_real(a0=0.5, cos=[1.0, 0.25], sin=[0.0, -0.75])
        assert s.mean == 0.5
        np.testing.assert_allclose(2 * s.coeffs[1:].real, [1.0, 0.25])
        np.testing.assert_allclose(-2 * s.coeffs[1:].imag, [0.0, -0.75])

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

    @pytest.mark.parametrize(
        "coeffs",
        [[0.0, float("inf")], [0.0, 1.0, float("nan")], [float("nan"), 1.0], [complex(0, float("inf")), 1.0]],
    )
    def test_coefficients_that_are_not_finite_are_refused(self, coeffs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^map coefficients must be finite$"):
                ConformalPolyMap(coeffs)


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

    def test_self_intersection_verdict_matches_both_products(self):
        # reference: the transposed test as its own product of the transposed
        # tables, which holds the same floats as the transpose of C * C_next
        def both_products(p):
            s = p.size
            x, y = p.real, p.imag
            ex, ey = np.roll(x, -1) - x, np.roll(y, -1) - y
            c = ex[:, None] * (y[None, :] - y[:, None]) - ey[:, None] * (x[None, :] - x[:, None])
            c_next = np.roll(c, -1, axis=1)
            hit = np.triu((c * c_next < 0) & (c.T * c_next.T < 0), 2)
            hit[0, s - 1] = False
            return bool(np.any(hit))

        t = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
        z = np.exp(1j * t)
        boundaries = [
            z,  # circle
            z + 0.45 * z**2,  # simple, near a cusp
            0.5 * z + z**2,  # limacon with an inner loop
            np.sin(t + 0.01) + 0.5j * np.sin(2 * t + 0.02),  # figure eight
            z + 0.3 * z**3 + 0.2j * z**5,
        ]
        rng = np.random.default_rng(7)
        for _ in range(40):
            c = np.zeros(rng.integers(3, 7), dtype=complex)
            c[1] = 1.0
            c[2:] = rng.uniform(0.05, 0.6) * (
                rng.normal(size=c.size - 2) + 1j * rng.normal(size=c.size - 2)
            )
            boundaries.append(np.polynomial.polynomial.polyval(z, c))
        verdicts = []
        for p in boundaries:
            p = p / np.max(np.abs(p))
            verdicts.append(_polygon_self_intersects(p))
            assert verdicts[-1] == both_products(p)
        assert verdicts[:4] == [False, False, True, True]
        assert 5 <= sum(verdicts[5:]) <= 35

    @pytest.mark.parametrize("coeffs", [[0.0, 1.0, 1e308], [0.0, 1e308, 1e308]])
    def test_overflowing_derivative_is_degenerate_without_warning(self, coeffs):
        # m c_m overflows, and f' has a zero inside the disc
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDerivative, match="vanishes"):
                ConformalPolyMap(coeffs)

    @pytest.mark.parametrize(
        "coeffs, order",
        [
            # |f'| reaches 1.8e308 on the unit circle
            ([0.0, 1e308, 4e307], 1),
            ([0.0, 1e308, 0.0, 3e307], 1),
            # f' = 1e307 (1 + z^9 / 2) is bounded; its third derivative reaches 3.6e308
            ([0.0, 1e307] + [0.0] * 8 + [5e305], 3),
        ],
    )
    def test_derivative_that_can_overflow_is_degenerate(self, coeffs, order):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDerivative, match="^f" + "'" * order + " can overflow"):
                ConformalPolyMap(coeffs)

    def test_scaled_tests_do_not_overflow(self):
        # |f'| reaches 1.8e307 on the unit circle; the tests run on f / 1e307
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_map(ConformalPolyMap([0.0, 1e307, 4e306]))
        assert report["min_abs_fprime"] == pytest.approx(2e306, rel=1e-3)

    def test_zero_linear_coefficient_fails(self):
        with pytest.raises(DegenerateDerivative):
            validate_map(ConformalPolyMap([0.0, 0.0, 1.0]))

    def test_identity_report_is_exact(self):
        assert validate_map(ConformalPolyMap.identity()) == {"min_abs_fprime": 1.0, "winding": 1.0, "samples": 512}

    def test_affine_report_agrees_with_the_sampled_one(self):
        # c_0 + c_1 z + 0 z^2 has the same values but takes the sampled path,
        # whose winding is 1 within a few ulps
        rng = np.random.default_rng(11)
        for log_size in np.linspace(-300.0, 307.0, 41):
            c0, c1 = rng.normal(size=2) + 1j * rng.normal(size=2)
            c0 *= 10.0 ** rng.uniform(-300.0, 300.0)
            c1 *= 10.0**log_size / abs(c1)
            report = validate_map(ConformalPolyMap([c0, c1]))
            sampled = validate_map(ConformalPolyMap([c0, c1, 0.0]))
            assert report["min_abs_fprime"] == pytest.approx(abs(c1), rel=1e-15, abs=0.0)
            assert report["min_abs_fprime"] == pytest.approx(sampled["min_abs_fprime"], rel=1e-15, abs=0.0)
            assert report["winding"] == pytest.approx(sampled["winding"], rel=1e-15, abs=0.0)
            assert report["samples"] == sampled["samples"]

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ([1.0, 0.0], "^c_1 = 0$"),
            ([0.0, 1e-310], "below the smallest normal float$"),
            ([3.0, 2e-320j], "below the smallest normal float$"),
        ],
    )
    def test_affine_refusals(self, coeffs, message):
        with pytest.raises(DegenerateDerivative, match=message):
            ConformalPolyMap(coeffs)

    @pytest.mark.parametrize("c0", [1e17, -3.0 + 2.0j, 1e300])
    def test_translation_does_not_change_the_verdict(self, c0):
        # 1 + 1e-17 z rounds to 1: scaled by a max over c_0 too, the boundary
        # of the translated disc collapsed onto f(0)
        for coeffs in (
            [0.0, 1.0],
            [0.0, 1.0, 0.2],
            [0.0, 1.0, 0.1 - 0.05j, 0.02j],
            [0.0, 1e-10, 3e-11],
            exp_taylor(3.0, 20),
            exp_taylor(3.5, 20),
            [0.0, 1.0, 0.6],
        ):
            assert map_outcome([c0, *coeffs[1:]]) == map_outcome(coeffs)


def exp_taylor(a, deg):
    """Degree-deg Taylor polynomial of (e^{az} - 1) / a."""
    return [0.0] + [a ** (m - 1) / math.factorial(m) for m in range(1, deg + 1)]


def map_outcome(coeffs, check=None):
    """The report dict of validate_map on the map with these coefficients
    (of check on the coefficients, if given), or the type and message of
    the error raised. A map that fails the check is not built, so the map
    is built here, where its error is caught."""
    try:
        return check(coeffs) if check else validate_map(ConformalPolyMap(coeffs))
    except (DegenerateDerivative, BoundaryNotSimple) as exc:
        return type(exc), str(exc)


def count_table_calls(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p.size)
        return _polygon_self_intersects(p)

    monkeypatch.setattr(core, "_polygon_self_intersects", counted)
    return calls


def near_disc_coeffs(rng, cubic):
    """z + c z^2, or z + c2 z^2 + c3 z^3, with |f'| reaching 0 on the disc
    for the largest coefficients drawn."""
    phase = np.exp(2j * np.pi * rng.uniform(size=2))
    if not cubic:
        return [0.0, 1.0, rng.uniform(0.0, 0.6) * phase[0]]
    return [0.0, 1.0, rng.uniform(0.0, 0.4) * phase[0], rng.uniform(0.0, 0.25) * phase[1]]


class TestStarShapedBoundary:
    def test_same_verdict_as_the_table(self, monkeypatch):
        calls = count_table_calls(monkeypatch)
        rng = np.random.default_rng(14)
        maps = [near_disc_coeffs(rng, cubic) for cubic in [False] * 60 + [True] * 60]
        maps += [exp_taylor(a, deg) for deg in (16, 22, 28) for a in np.linspace(0.5, 6.0, 23)]
        maps += [[0.0, 0.0, 1.0], [0.0, 1.0, 0.5], [0.0, 1.0, -0.5j], [0.0, 1.0, 0.0, 1.0 / 3.0]]
        seen = set()
        for coeffs in maps:
            del calls[:]
            got = map_outcome(coeffs)
            assert got == map_outcome(coeffs, validate_map_with_table), coeffs
            if isinstance(got, dict):
                seen.add("table" if calls else "star-shaped")
            else:
                seen.add(got[0])
        assert seen == {"star-shaped", "table", BoundaryNotSimple, DegenerateDerivative}

    def test_near_disc_maps_skip_the_table(self, monkeypatch):
        def refuse(p):
            raise AssertionError("crossing table built for a star-shaped boundary")

        monkeypatch.setattr(core, "_polygon_self_intersects", refuse)
        maps = [[0.0, 1.0]]
        for r in (0.02, 0.1, 0.25):
            maps += [[0.0, 1.0, r * np.exp(1j * t)] for t in np.linspace(0.0, 2 * np.pi, 8, endpoint=False)]
        # the cubic family of the benchmark's near-disc maps
        rng = np.random.default_rng(3)
        for _ in range(200):
            phase = np.exp(2j * np.pi * rng.uniform(size=2))
            maps.append([0.0, 1.0, rng.uniform(0.02, 0.12) * phase[0], rng.uniform(0.005, 0.03) * phase[1]])
        for coeffs in maps:
            validate_map(ConformalPolyMap(coeffs))

    def test_table_decides_a_boundary_that_is_not_star_shaped(self, monkeypatch):
        # (e^{3z} - 1) / 3 is univalent but not starlike; at a = 3.5 the
        # image of the disc overlaps itself (e^w is one-to-one only on
        # strips of height 2 pi)
        calls = count_table_calls(monkeypatch)
        ConformalPolyMap(exp_taylor(3.0, 20))
        assert calls == [512]
        del calls[:]
        with pytest.raises(BoundaryNotSimple, match="^boundary curve self-intersects$"):
            ConformalPolyMap(exp_taylor(3.5, 20))
        assert calls == [512]

    def test_star_shaped_polygons_do_not_cross(self):
        # every edge turning counterclockwise about 0, winding once: the
        # table must find no crossing, for smooth radii, angles jittered
        # within one turn and thin spikes
        rng = np.random.default_rng(2026)
        for trial in range(150):
            s = int(rng.integers(4, 600))
            theta = 2 * np.pi * (np.arange(s) + rng.uniform(0.0, 0.95, s)) / s
            modes = np.arange(1, 6)
            phases = rng.uniform(0.0, 2 * np.pi, (5, 1))
            r = np.exp((rng.normal(size=5) / modes) @ np.cos(np.outer(modes, theta) + phases))
            spikes = rng.integers(0, s, size=int(rng.integers(0, 6)))
            r[spikes] *= 10.0 ** rng.uniform(0.5, 4.0, spikes.size)
            p = r * np.exp(1j * theta)
            p /= np.max(np.abs(p))
            assert _star_shaped(p), trial
            assert not _polygon_self_intersects(p), trial

    def test_star_shaped_needs_winding_once(self):
        # a loop that turns counterclockwise twice about 0 crosses itself
        theta = np.linspace(0.0, 4 * np.pi, 200, endpoint=False)
        p = (1.0 + 0.3 * np.cos(theta / 2)) * np.exp(1j * theta)
        assert _star_shaped(p)
        assert _polygon_self_intersects(p)


class TestNondegeneracy:
    def test_verdict(self):
        assert is_nondegenerate(2 * np.pi * np.eye(2))
        assert not is_nondegenerate(np.zeros((2, 2)))
