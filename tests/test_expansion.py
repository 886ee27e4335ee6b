from dataclasses import replace

import numpy as np
import pytest

from vortexw import expansion
from vortexw import (
    DiscEnergyContext,
    FourierSeries,
    InvalidRadius,
    VortexConfiguration,
    expansion_report,
    hat_w,
    punctured_energy,
)
from vortexw.expansion import RHO_FLOOR, _gprime_coeffs
from vortexw.harmonic import AnnulusQuadrature

from reference import fd_complex_gradient, grad_phi, phase_potential

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
    disc rules it builds."""
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
            # the global term is shared by all four radii
            (DiscEnergyContext(TRIPLE), TRIPLE, FourierSeries.zeros(64), RADII),
            # 1.8 rho > 0.4 margin: the outer radius, and so the window,
            # changes with rho and no global term may be shared
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
    def test_global_grid_and_rules_once_per_report(self, monkeypatch, ctx, cfg):
        counts = count_work(monkeypatch)
        expansion_report(ctx, cfg, RADII)
        # one patch per vortex and radius, one global grid for all radii
        assert counts == {"kernel": len(RADII) * cfg.k + 1, "build": 1}

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
        w0 *= 1.0 - expansion._window(np.abs(z - a_j), r_in, r_out)
    return w0


class TestGlobalWeight:
    @pytest.mark.parametrize(
        "cfg, rho",
        [(TRIPLE, 0.01), (TRIPLE, 0.00125), (PAIR, 0.005), (ORIGIN, 0.3), (VortexConfiguration([0.6], (1,)), 0.1)],
    )
    def test_band_only_weight_is_the_full_grid_product(self, cfg, rho):
        quad = AnnulusQuadrature.build()
        z = quad.radial_nodes[:, None] * np.exp(1j * quad.angular_nodes[None, :])
        a = cfg.points_array()
        windows = tuple((max(0.5 * r, rho), r) for r in expansion._patch_radii(cfg, rho))
        w0 = expansion._global_weight(z, a, windows)
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
        w0 = expansion._global_weight(z, a, windows)
        assert w0.tobytes() == full_grid_weight(z, a, windows).tobytes()
        # outside both bands the weight is exactly 0 or 1
        assert w0[3] == 0.0 and w0[7] == 1.0
