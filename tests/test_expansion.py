from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from vortexw import expansion
from vortexw import (
    DiscEnergyContext,
    FourierSeries,
    InvalidRadius,
    QuadratureNotConverged,
    VortexConfiguration,
    expansion_report,
    hat_w,
    punctured_energy,
)
from vortexw.expansion import MAX_NODES, RHO_FLOOR, _gprime_coeffs, _potential
from vortexw.harmonic import AnnulusQuadrature

import reference
from reference import (
    area_punctured_energy,
    energies_at_twice_the_nodes,
    fd_complex_gradient,
    grad_phi,
    per_radius_punctured_energy,
    phase_potential,
)

ORIGIN = VortexConfiguration([0.0], (1,))
CTX0 = DiscEnergyContext(ORIGIN)

# a configuration as the expand benchmark draws them: |a| <= 0.55, at least
# 0.3 apart, so every patch has the same window at every radius below 0.02
TRIPLE = VortexConfiguration(
    [-0.11272645038628784 - 0.22505744017870793j, -0.3683592693024358 - 0.03426079919646207j,
     0.19521006021448217 + 0.028573767378831626j],
    (2, -1, 1),
)
PAIR = VortexConfiguration([0.3 + 0.1j, -0.25 - 0.2j], (1, -1))
RADII = (0.01, 0.005, 0.0025, 0.00125)


def count_work(monkeypatch):
    """Count the field-kernel calls of the expansion module and the
    disc rules built, which only the area-rule oracle builds."""
    counts = {"kernel": 0, "build": 0}
    kernel, build = expansion.grad_phi_field, AnnulusQuadrature.build

    def counting_kernel(*args):
        counts["kernel"] += 1
        return kernel(*args)

    def counting_build():
        counts["build"] += 1
        return build()

    monkeypatch.setattr(expansion, "grad_phi_field", counting_kernel)
    monkeypatch.setattr(AnnulusQuadrature, "build", staticmethod(counting_build))
    return counts


def record_kernel_shapes(monkeypatch, module):
    """The shapes of the points of each field-kernel call made through
    module, in order."""
    shapes = []
    kernel = module.grad_phi_field

    def recording_kernel(z, *rest):
        shapes.append(np.shape(z))
        return kernel(z, *rest)

    monkeypatch.setattr(module, "grad_phi_field", recording_kernel)
    return shapes


class TestGradPhiAg:
    # the gradient of the phase potential Phi_{alpha, g}, through grad_phi
    def test_radial_field_for_centered_vortex(self):
        for z in (0.3, 0.5j, -0.2 + 0.6j):
            g = grad_phi(CTX0, ORIGIN, z)
            assert abs(g) == pytest.approx(1.0 / abs(z), rel=1e-12)
            # points radially
            assert (g * np.conj(z)).imag == pytest.approx(0.0, abs=1e-12)

    def test_cos_phase_at_origin(self):
        psi = FourierSeries.from_real(cos=[1.0], trunc=8)
        cfg = VortexConfiguration([0.4], (1,))
        delta = grad_phi(replace(CTX0, psi=psi), cfg, 0.0) - grad_phi(CTX0, cfg, 0.0)
        assert delta == pytest.approx(-1j, abs=1e-13)

    def test_matches_fd_of_scalar_potential(self):
        psi = FourierSeries.from_real(cos=[0.1], sin=[0.05, 0.02], trunc=64)
        ctx = DiscEnergyContext(VortexConfiguration([0.2 + 0.1j], (1,)), 64, psi)
        cfg = VortexConfiguration([0.4 - 0.3j], (1,))
        z0 = 0.1 + 0.55j
        fd = fd_complex_gradient(lambda z: phase_potential(ctx, cfg, z), z0)
        assert grad_phi(ctx, cfg, z0) == pytest.approx(fd, abs=1e-8)

    def test_matches_fd_with_base_of_other_count_and_degrees(self):
        # three reference vortices against two, degrees (2, 1, -1) against (1, 1)
        base = VortexConfiguration([0.2 + 0.1j, -0.3j, 0.5], (2, 1, -1))
        psi = FourierSeries.from_real(cos=[0.1], sin=[0.05, 0.02], trunc=64)
        ctx = DiscEnergyContext(base, 64, psi)
        cfg = VortexConfiguration([0.4 - 0.3j, -0.1 + 0.2j], (1, 1))
        for z0 in (0.1 + 0.55j, -0.5 - 0.2j):
            fd = fd_complex_gradient(lambda z: phase_potential(ctx, cfg, z), z0)
            assert grad_phi(ctx, cfg, z0) == pytest.approx(fd, abs=1e-8)

    def test_zero_modes_of_psi_are_not_evaluated(self):
        cfg = VortexConfiguration([0.4 - 0.3j], (1,))
        z = np.array([0.3, 0.5j, -0.2 + 0.1j])
        short = FourierSeries.from_real(cos=[0.1], sin=[0.05, 0.02])
        padded = FourierSeries.from_real(cos=[0.1], sin=[0.05, 0.02], trunc=64)
        assert _gprime_coeffs(replace(CTX0, psi=padded)).size == 2
        assert _gprime_coeffs(CTX0).size == 0
        np.testing.assert_array_equal(
            grad_phi(replace(CTX0, psi=padded), cfg, z),
            grad_phi(replace(CTX0, psi=short), cfg, z),
        )

    def test_vectorized_evaluation(self):
        z = np.array([0.3, 0.5j, -0.2 + 0.1j])
        g = grad_phi(CTX0, ORIGIN, z)
        assert g.shape == (3,)
        np.testing.assert_allclose(g, z / np.abs(z) ** 2, atol=1e-13)


class TestPuncturedEnergy:
    def test_centered_vortex_closed_form(self):
        for rho in (0.05, 0.02, 0.01):
            e = punctured_energy(CTX0, ORIGIN, rho)
            assert e == pytest.approx(np.pi * np.log(1.0 / rho), abs=1e-6)

    def test_annular_additivity(self):
        e1 = punctured_energy(CTX0, ORIGIN, 0.02)
        e2 = punctured_energy(CTX0, ORIGIN, 0.04)
        assert e1 - e2 == pytest.approx(np.pi * np.log(2.0), abs=1e-6)

    def test_monotone_decreasing_in_rho(self):
        ctx = DiscEnergyContext(ORIGIN)
        cfg = VortexConfiguration([0.3 + 0.2j], (1,))
        vals = [
            punctured_energy(ctx, cfg, rho) for rho in (0.01, 0.02, 0.05)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_bad_radius(self):
        with pytest.raises(InvalidRadius):
            punctured_energy(CTX0, ORIGIN, 0.0)
        with pytest.raises(InvalidRadius):
            # half the boundary clearance is the cutoff
            punctured_energy(CTX0, VortexConfiguration([0.6], (1,)), 0.3)


    @pytest.mark.parametrize(
        "ctx, cfg, psi, radii",
        [
            # the unit-circle term is shared by all four radii
            (DiscEnergyContext(TRIPLE), TRIPLE, FourierSeries.zeros(64), RADII),
            # radii of the size of the margin
            (CTX0, ORIGIN, FourierSeries.zeros(64), (0.3, 0.25, 0.2)),
            (
                CTX0,
                VortexConfiguration([0.4 - 0.3j], (1,)),
                FourierSeries.from_real(cos=[0.1], sin=[0.05, 0.02], trunc=CTX0.trunc),
                (0.02, 0.01, 0.005),
            ),
        ],
    )
    def test_radii_in_one_call_give_the_same_floats(self, ctx, cfg, psi, radii):
        ctx = replace(ctx, psi=psi)
        batched = punctured_energy(ctx, cfg, radii)
        assert isinstance(batched, tuple)
        assert batched == tuple(punctured_energy(ctx, cfg, r) for r in radii)

    @pytest.mark.parametrize("bad", [0.25, 0.0])
    def test_bad_radius_in_a_sequence(self, monkeypatch, bad):
        # half the boundary clearance of 0.6 is 0.2
        cfg = VortexConfiguration([0.6], (1,))
        with pytest.raises(InvalidRadius) as scalar:
            punctured_energy(CTX0, cfg, bad)
        counts = count_work(monkeypatch)
        with pytest.raises(InvalidRadius) as batched:
            punctured_energy(CTX0, cfg, (0.1, 0.05, bad, 0.01))
        assert str(batched.value) == str(scalar.value)
        # every radius is checked before any quadrature runs
        assert counts == {"kernel": 0, "build": 0}


class TestRadiusBound:
    @pytest.mark.parametrize("a", [0.0, 1e-3, 0.1, 0.55j])
    def test_smallest_radius_is_resolved_and_below_it_refused(self, a):
        # the bound of the punctured_energy docstring
        cfg = VortexConfiguration([a], (1,))
        rho_min = max(RHO_FLOOR, 1024 * float(np.spacing(abs(a))))
        with pytest.raises(InvalidRadius):
            punctured_energy(CTX0, cfg, 0.99 * rho_min)
        rep = expansion_report(CTX0, cfg, [0.01, 0.005, rho_min])
        assert abs(rep.w_estimate - rep.w_formula) <= 1e-3


class TestExpansionReport:
    @pytest.mark.parametrize(
        "ctx, cfg",
        [
            (CTX0, VortexConfiguration([0.5], (1,))),
            (DiscEnergyContext(PAIR), PAIR),
            (DiscEnergyContext(TRIPLE), TRIPLE),
        ],
    )
    def test_one_kernel_call_per_doubling_on_every_open_circle(self, monkeypatch, ctx, cfg):
        # the per-radius rule, one radius at a time, gives the calls of the
        # unit circle (1-D nodes) and of each radius's core circles
        ref_shapes = record_kernel_shapes(monkeypatch, reference)
        unit_calls, core_calls = 0, []
        for r in RADII:
            ref_shapes.clear()
            per_radius_punctured_energy(ctx, cfg, r)
            unit_calls = sum(len(shape) == 1 for shape in ref_shapes)
            core_calls.append(len(ref_shapes) - unit_calls)
        m = ref_shapes[0][0]
        # one call per doubling holds every circle whose group still doubles
        want = [
            ((i < unit_calls) + cfg.k * sum(i < n for n in core_calls), m if i == 0 else m << (i - 1))
            for i in range(max(unit_calls, *core_calls))
        ]
        counts = count_work(monkeypatch)
        shapes = record_kernel_shapes(monkeypatch, expansion)
        expansion_report(ctx, cfg, RADII)
        assert shapes == want
        assert counts["build"] == 0

    def test_centered_vortex_estimate_is_zero(self):
        rep = expansion_report(CTX0, ORIGIN, [0.02, 0.01, 0.005])
        assert rep.w_formula == 0.0
        assert abs(rep.w_estimate) < 1e-5
        assert rep.slope_check

    def test_offset_vortex_closed_form(self):
        cfg = VortexConfiguration([0.5], (1,))
        rep = expansion_report(CTX0, cfg, [0.02, 0.01, 0.005])
        target = -np.pi * np.log(0.75)
        assert rep.w_estimate == pytest.approx(target, abs=5e-3)
        assert rep.w_formula == pytest.approx(target, rel=1e-12)

    def test_canonical_pair_matches_hat_w(self):
        cfg = VortexConfiguration([0.4, -0.4], (1, 1))
        ctx = DiscEnergyContext(cfg)
        rep = expansion_report(ctx, cfg, [0.02, 0.01, 0.005])
        assert rep.w_estimate == pytest.approx(hat_w(cfg), abs=1e-2)

    def test_psi_never_decreases_estimate_at_base(self):
        psi = FourierSeries.from_real(cos=[0.3], trunc=CTX0.trunc)
        plain = expansion_report(CTX0, ORIGIN, [0.04, 0.02, 0.01])
        bumped = expansion_report(replace(CTX0, psi=psi), ORIGIN, [0.04, 0.02, 0.01])
        assert bumped.w_estimate >= plain.w_estimate - 1e-8
        assert bumped.w_formula == pytest.approx(
            0.5 * np.pi * 0.3**2 * 0.5 * 2, rel=1e-10
        )

    def test_psi_beyond_trunc_is_dropped_by_fit_and_formula_alike(self):
        # the closed form and the quadrature field read the same modes of psi
        psi = FourierSeries.from_real(cos=[0.0] * 7 + [0.1])
        ctx = DiscEnergyContext(ORIGIN, trunc=4, psi=psi)
        rep = expansion_report(ctx, ORIGIN, [0.02, 0.01, 0.005])
        assert abs(rep.w_estimate - rep.w_formula) <= 1e-4

    def test_needs_three_decreasing_radii(self):
        with pytest.raises(InvalidRadius):
            expansion_report(CTX0, ORIGIN, [0.02, 0.01])
        with pytest.raises(InvalidRadius):
            expansion_report(CTX0, ORIGIN, [0.01, 0.02, 0.005])


def full_grid_weight(z, a, windows):
    """Oracle to the bit: the global weight as the product of
    1 - _window(...) over every node, exponentials everywhere."""
    w0 = np.ones_like(z, dtype=float)
    for a_j, (r_in, r_out) in zip(a, windows):
        w0 *= 1.0 - reference._window(np.abs(z - a_j), r_in, r_out)
    return w0


class TestGlobalWeight:
    # the global weight of the area-rule oracle, reference._global_weight
    @pytest.mark.parametrize(
        "cfg, rho",
        [(TRIPLE, 0.01), (TRIPLE, 0.00125), (PAIR, 0.005), (ORIGIN, 0.3), (VortexConfiguration([0.6], (1,)), 0.1)],
    )
    def test_band_only_weight_is_the_full_grid_product(self, cfg, rho):
        quad = AnnulusQuadrature.build()
        z = quad.radial_nodes[:, None] * np.exp(1j * quad.angular_nodes[None, :])
        a = cfg.points_array()
        windows = tuple((max(0.5 * r, rho), r) for r in reference._patch_radii(cfg, rho))
        w0 = reference._global_weight(z, a, windows)
        assert w0.tobytes() == full_grid_weight(z, a, windows).tobytes()

    def test_hand_placed_nodes_at_the_band_edges(self):
        r_in, r_out = 0.04597267314237451, 0.18706665018485646
        # just inside r_out, t rounds to exactly 1
        inside = np.nextafter(r_out, 0.0)
        assert inside < r_out and (inside - r_in) / (r_out - r_in) == 1.0
        r = np.array([
            0.0, 0.5 * r_in, np.nextafter(r_in, 0.0), r_in, np.nextafter(r_in, 1.0),
            0.5 * (r_in + r_out), np.nextafter(inside, 0.0), inside, r_out,
            np.nextafter(r_out, 1.0), 0.3,
        ])
        a = np.array([0.0, 0.6 + 0.1j])
        windows = ((r_in, r_out), (0.05, 0.12))
        # |z - a_0| is r to the bit on both axes; the last rows are placed
        # about the second vortex
        z = np.concatenate([r, 1j * r, -r, a[1] + 0.5 * r])
        t = (np.abs(z - a[0]) - r_in) / (r_out - r_in)
        assert np.any(t == 0.0) and np.any(t == 1.0)
        w0 = reference._global_weight(z, a, windows)
        assert w0.tobytes() == full_grid_weight(z, a, windows).tobytes()
        # outside both bands the weight is exactly 0 or 1
        assert w0[3] == 0.0 and w0[7] == 1.0


def case(points, degrees, trunc, fractions):
    """Context, configuration and radii, as fractions of the margin, of a
    crowded case: the base is the configuration, or a vortex at 0 of the
    same degree."""
    cfg = VortexConfiguration(points, degrees)
    base = VortexConfiguration([0.0], degrees) if cfg.k == 1 else cfg
    return DiscEnergyContext(base, trunc), cfg, tuple(f * reference.margin(points) for f in fractions)


def crowded(name):
    """Context, configuration and radii of a case of reference.CROWDED."""
    return case(*reference.CROWDED[name], reference.CROWDED_RADII)


# the (1, -1) operation of the seed-7 expand pass, with two psi modes
PSI_PAIR = VortexConfiguration([0.26649965159847616 + 0.06057881911806078j, 0.4057917896655264 - 0.26828593805711193j], (1, -1))
PSI2 = FourierSeries.from_real(
    cos=[0.1383457817241346, -0.06304545449803722], sin=[-0.05491332938303625, 0.008553418659028145], trunc=64
)
BENIGN = [
    (DiscEnergyContext(PSI_PAIR, 64, PSI2), PSI_PAIR, (0.01, 0.005, 0.0025)),
    (CTX0, VortexConfiguration([0.5], (1,)), (0.02, 0.01, 0.005)),
    (DiscEnergyContext(TRIPLE), TRIPLE, RADII),
]

# degrees and psi modes of the four operations of an expand benchmark pass
BENCH_OPS = (((1,), 0, (0.02, 0.01, 0.005)), ((-2,), 3, (0.02, 0.01, 0.005, 0.0025)),
             ((1, -1), 2, (0.01, 0.005, 0.0025)), ((2, -1, 1), 0, (0.01, 0.005, 0.0025, 0.00125)))


def benchmark_like(seed):
    """The operations of an expand pass as the benchmark draws them: at
    |a| <= 0.55, at least 0.3 apart, psi modes of size at most 0.2."""
    rng = np.random.default_rng(seed)
    for degrees, modes, radii in BENCH_OPS:
        while True:
            pts = 0.55 * np.sqrt(rng.uniform(size=len(degrees))) * np.exp(2j * np.pi * rng.uniform(size=len(degrees)))
            if len(pts) == 1 or np.min(np.abs(pts[:, None] - pts[None, :]) + np.eye(len(pts))) >= 0.3:
                break
        cfg = VortexConfiguration(pts, degrees)
        base = VortexConfiguration([0.0], degrees) if cfg.k == 1 else cfg
        psi = FourierSeries.from_real(cos=rng.uniform(-0.2, 0.2, modes), sin=rng.uniform(-0.2, 0.2, modes), trunc=64)
        yield DiscEnergyContext(base, 64, psi), cfg, radii


class TestBoundaryRule:
    @pytest.mark.parametrize("ctx, cfg, radii", BENIGN)
    def test_potential_gradient_is_the_field(self, ctx, cfg, radii):
        args = (cfg.points_array(), cfg.degrees_array(), ctx.base.points_array(),
                ctx.base.degrees_array(), _gprime_coeffs(ctx))
        for z0 in (0.1 + 0.55j, -0.5 - 0.2j, 0.9 * np.exp(2.0j)):
            fd = fd_complex_gradient(lambda z: _potential(z, *args), z0)
            assert expansion.grad_phi_field(np.array(z0), *args) == pytest.approx(fd, abs=1e-8)

    @pytest.mark.parametrize("name", ["32-gon", "pair-0.01", "boundary-0.98"])
    def test_flux_through_each_core_circle(self, name):
        # the outward flux of grad Phi through |z - a_j| = rho is 2 pi d_j,
        # by the trapezoid rule on 256 nodes of the circle
        ctx, cfg, radii = crowded(name)
        a, d = cfg.points_array(), cfg.degrees_array()
        args = (a, d, ctx.base.points_array(), ctx.base.degrees_array(), _gprime_coeffs(ctx))
        u = np.exp(2j * np.pi * np.arange(256) / 256)
        for rho in (radii[0], 0.25 * reference.margin(a)):
            g = expansion.grad_phi_field(a[:, None] + rho * u, *args)
            flux = 2 * np.pi * np.mean((g * np.conj(rho * u)).real, axis=-1)
            np.testing.assert_allclose(flux, 2 * np.pi * d, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "ctx, cfg, radii",
        [crowded(name) for name in reference.CROWDED] + BENIGN,
        ids=[*reference.CROWDED, "pair-with-psi", "vortex-at-0.5", "triple"],
    )
    def test_twice_the_nodes_agree(self, monkeypatch, ctx, cfg, radii):
        energies = punctured_energy(ctx, cfg, radii)
        np.testing.assert_allclose(
            energies, energies_at_twice_the_nodes(monkeypatch, ctx, cfg, radii), rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_agrees_with_the_area_rule_on_benchmark_configurations(self, seed):
        # the area rule's own error on these configurations is up to about
        # 3e-4 (2.7e-4 over the 40 operations of benchmark seeds 0-9)
        for ctx, cfg, radii in benchmark_like(seed):
            np.testing.assert_allclose(
                punctured_energy(ctx, cfg, radii), area_punctured_energy(ctx, cfg, radii), rtol=0, atol=5e-4
            )

    def test_psi_modes_raise_the_starting_node_count(self, monkeypatch):
        # the mode n = 32 puts the mode 2n = 64 into Phi d_r Phi, which the
        # 64- and 32-node rules alias alike; the rule starts above 4n
        psi = FourierSeries.from_real(cos=[0.0] * 31 + [0.1], trunc=64)
        ctx = replace(CTX0, psi=psi)
        sizes = []
        kernel = expansion.grad_phi_field

        def recording_kernel(z, *rest):
            sizes.append(np.shape(z)[-1])
            return kernel(z, *rest)

        monkeypatch.setattr(expansion, "grad_phi_field", recording_kernel)
        rep = expansion_report(ctx, ORIGIN, [0.02, 0.01, 0.005])
        assert sizes[0] == 256
        # E = pi log(1/rho) + W - O(rho^64) for a centred vortex
        assert abs(rep.w_estimate - rep.w_formula) <= 1e-10

    def test_unit_circle_beyond_the_node_cap_is_refused(self):
        # the unit-circle rule converges about as |a|^M: 0.99 takes 4096
        # nodes, 0.998 more than MAX_NODES
        assert np.isfinite(punctured_energy(CTX0, VortexConfiguration([0.99], (1,)), 1e-4))
        with pytest.raises(QuadratureNotConverged, match=f"unit circle has not converged at {MAX_NODES} nodes"):
            punctured_energy(CTX0, VortexConfiguration([0.998], (1,)), 1e-5)

    def test_integrand_that_is_not_finite_is_refused(self):
        # Phi overflows on the unit circle; the area rule returned nan here
        ctx = DiscEnergyContext(ORIGIN, 8, FourierSeries.from_real(cos=[1e300, 1e300], trunc=8))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(QuadratureNotConverged):
            punctured_energy(ctx, VortexConfiguration([0.3], (1,)), 0.01)


PSI32 = (replace(CTX0, psi=FourierSeries.from_real(cos=[0.0] * 31 + [0.1], trunc=64)), ORIGIN, (0.02, 0.01, 0.005))
# the unit circle of a vortex at 0.9 doubles to 512 nodes, its cores stop at 64
NEAR_BOUNDARY = (CTX0, VortexConfiguration([0.9], (1,)), (0.02, 0.01, 0.005))
# of a (1, -1) pair 0.05 apart, only the cores at radius 0.0245 double
PAIR_005 = VortexConfiguration([0.175, 0.225], (1, -1))
ONE_RADIUS_DOUBLES = (DiscEnergyContext(PAIR_005), PAIR_005, (0.0245, 0.005, 0.0005))
# with a third vortex far from the pair, its core at 0.0245 doubles with
# the pair's: a group stops only when all of its circles agree
TRIPLE_WITH_PAIR = VortexConfiguration([0.175, 0.225, -0.5], (1, -1, 1))
WHOLE_GROUP_DOUBLES = (DiscEnergyContext(TRIPLE_WITH_PAIR), TRIPLE_WITH_PAIR, (0.0245, 0.005))


class TestOneRuleOverEveryCircle:
    # the batched rule against the per-radius rule it replaced, to the bit

    @pytest.mark.parametrize(
        "ctx, cfg, radii",
        [crowded(name) for name in reference.CROWDED] + BENIGN + [PSI32],
        ids=[*reference.CROWDED, "pair-with-psi", "vortex-at-0.5", "triple", "psi-mode-32"],
    )
    def test_same_floats_as_the_per_radius_rule(self, ctx, cfg, radii):
        assert punctured_energy(ctx, cfg, radii) == per_radius_punctured_energy(ctx, cfg, radii)

    @given(reference.crowded_configuration())
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_same_floats_on_crowded_configurations(self, drawn):
        ctx, cfg, radii = case(*drawn)
        assert punctured_energy(ctx, cfg, radii) == per_radius_punctured_energy(ctx, cfg, radii)

    @pytest.mark.parametrize(
        "ctx, cfg, radii, want",
        [
            (*NEAR_BOUNDARY, [(4, 64), (1, 64), (1, 128), (1, 256)]),
            (*ONE_RADIUS_DOUBLES, [(7, 64), (2, 64)]),
            (*WHOLE_GROUP_DOUBLES, [(7, 64), (3, 64)]),
        ],
        ids=["unit-circle-doubles", "one-radius-doubles", "whole-group-doubles"],
    )
    def test_groups_that_converged_are_not_evaluated_again(self, monkeypatch, ctx, cfg, radii, want):
        expected = per_radius_punctured_energy(ctx, cfg, radii)
        shapes = record_kernel_shapes(monkeypatch, expansion)
        assert punctured_energy(ctx, cfg, radii) == expected
        assert shapes == want

    def test_no_kernel_call_holds_more_than_one_group_at_the_cap(self, monkeypatch):
        # from 8 nodes, with a cap of 64, every group doubles once; the 13
        # circles at 8 nodes are more than the k MAX_NODES / 2 = 96 points
        # a call may hold, so each evaluation is split
        monkeypatch.setattr(expansion, "M_START", 8)
        monkeypatch.setattr(expansion, "MAX_NODES", 64)
        ctx = DiscEnergyContext(TRIPLE)
        expected = per_radius_punctured_energy(ctx, TRIPLE, RADII)
        shapes = record_kernel_shapes(monkeypatch, expansion)
        assert punctured_energy(ctx, TRIPLE, RADII) == expected
        assert max(np.prod(shape) for shape in shapes) <= TRIPLE.k * 64 // 2
        assert shapes == [(12, 8), (1, 8), (12, 8)]

    @pytest.mark.parametrize(
        "ctx, cfg, radii, max_nodes, where",
        [
            # Phi overflows on the unit circle
            (
                DiscEnergyContext(ORIGIN, 8, FourierSeries.from_real(cos=[1e300, 1e300], trunc=8)),
                VortexConfiguration([0.3], (1,)), (0.01, 0.005), MAX_NODES, "the unit circle",
            ),
            (CTX0, VortexConfiguration([0.998], (1,)), (2e-5, 1e-5), MAX_NODES, "the unit circle"),
            # the cores at 0.0245 and 0.0225 both fail; the first is named
            (DiscEnergyContext(PAIR_005), PAIR_005, (0.005, 0.0245, 0.0225), 64, "the circles of radius 0.0245"),
            # the unit circle fails with the cores at 0.0098, and comes first
            (
                DiscEnergyContext(VortexConfiguration([0.0], (2,))), VortexConfiguration([0.93, 0.95], (1, 1)),
                (0.001, 0.0098), 64, "the unit circle",
            ),
        ],
        ids=["not-finite", "vortex-at-0.998", "two-radii", "unit-circle-and-a-radius"],
    )
    def test_refusal_names_the_circle_the_per_radius_rule_names(self, monkeypatch, ctx, cfg, radii, max_nodes, where):
        monkeypatch.setattr(expansion, "MAX_NODES", max_nodes)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(QuadratureNotConverged) as expected:
                per_radius_punctured_energy(ctx, cfg, radii)
            with pytest.raises(QuadratureNotConverged) as refused:
                punctured_energy(ctx, cfg, radii)
        assert str(refused.value) == str(expected.value)
        assert str(refused.value) == f"the trapezoid rule on {where} has not converged at {max_nodes} nodes"
