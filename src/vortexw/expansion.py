"""Quadrature verification of the small-core energy expansion.

The half Dirichlet energy of the explicit unimodular field over the disc
with core discs of radius rho removed behaves as

    E(rho) = pi (sum_j d_j^2) log(1/rho) + W + O(rho),

which ties the closed-form energies back to the integral they renormalize.
The punctured integral is computed with a smooth partition of unity: one
log-radial polar patch around each vortex plus a global grid carrying the
complementary weight, so every integrand seen by a quadrature rule is
smooth on its domain.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import grad_phi_field
from .core import FourierSeries, VortexConfiguration, validate_configuration
from .disc_energy import DiscEnergyContext, w_disc
from .errors import EvaluationAtVortex, InvalidRadius
from .harmonic import AnnulusQuadrature

_VORTEX_EVAL_TOL = 1e-12

PATCH_RADIAL = 96
PATCH_ANGULAR = 256


def _gprime_coeffs(psi: FourierSeries) -> np.ndarray:
    """Coefficients of P(z) = 2 sum_{n>=1} n a_n z^{n-1}, without the
    trailing zeros of modes psi does not use, so the kernel does not
    evaluate them on every node."""
    n = np.arange(1, psi.trunc + 1)
    return np.trim_zeros(2.0 * n * psi.coeffs[1:], "b")


def grad_phi_ag(ctx: DiscEnergyContext, cfg: VortexConfiguration, psi: FourierSeries, z):
    """Gradient of the total phase potential at z, as dx + i dy.

    The modulus squared of this field is the Dirichlet density of the
    explicit unimodular map with vortices cfg and boundary phase psi over
    the canonical datum of ctx.base.
    """
    validate_configuration(cfg)
    zz = np.asarray(z, dtype=complex)
    a = cfg.points_array()
    if np.any(np.abs(zz[..., None] - a) < _VORTEX_EVAL_TOL):
        raise EvaluationAtVortex("z coincides with a vortex")
    out = grad_phi_field(
        zz,
        a,
        cfg.degrees_array(),
        ctx.base.points_array(),
        ctx.base.degrees_array(),
        _gprime_coeffs(psi),
    )
    return out if out.ndim else complex(out)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for t <= 0, 1 for t >= 1."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        lo = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        hi = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return lo / (lo + hi)


def _patch_radii(cfg: VortexConfiguration, rho: float) -> np.ndarray:
    """Outer radius of each vortex patch: well inside the disc, clear of the
    other vortices, and leaving room for the window above rho."""
    a = cfg.points_array()
    k = cfg.k
    margins = np.empty(k)
    for j in range(k):
        m = 1.0 - abs(a[j])
        for l in range(k):
            if l != j:
                m = min(m, abs(a[j] - a[l]))
        margins[j] = m
    if np.any(rho >= 0.5 * margins):
        raise InvalidRadius(
            f"rho = {rho} not below half the vortex separation margins"
        )
    return np.maximum(0.4 * margins, np.minimum(1.8 * rho, 0.9 * margins))


def _window(r: np.ndarray, rho: float, r_out: float) -> np.ndarray:
    """Weight 1 near the vortex, smoothly 0 beyond r_out."""
    r_in = max(0.5 * r_out, rho)
    return 1.0 - _smoothstep((r - r_in) / (r_out - r_in))


def punctured_energy(
    ctx: DiscEnergyContext,
    cfg: VortexConfiguration,
    psi: FourierSeries,
    rho: float,
    quad: AnnulusQuadrature | None = None,
) -> float:
    """Half the Dirichlet integral of the phase gradient over the disc with
    the discs of radius rho about the vortices removed."""
    validate_configuration(cfg)
    if not 0.0 < rho < 1.0:
        raise InvalidRadius(f"rho = {rho} outside (0, 1)")
    a = cfg.points_array()
    d = cfg.degrees_array()
    a0 = ctx.base.points_array()
    d0 = ctx.base.degrees_array()
    gp = _gprime_coeffs(psi)
    r_out = _patch_radii(cfg, rho)

    def density(z):
        g = grad_phi_field(z, a, d, a0, d0, gp)
        return 0.5 * (g.real**2 + g.imag**2)

    # polar patches in log-radial coordinates around each vortex
    total = 0.0
    x, w = np.polynomial.legendre.leggauss(PATCH_RADIAL)
    theta = np.linspace(0.0, 2 * np.pi, PATCH_ANGULAR, endpoint=False)
    dtheta = 2 * np.pi / PATCH_ANGULAR
    for j in range(cfg.k):
        t_lo, t_hi = np.log(rho), np.log(r_out[j])
        t = 0.5 * (t_lo + t_hi) + 0.5 * (t_hi - t_lo) * x
        wt = 0.5 * (t_hi - t_lo) * w
        r = np.exp(t)
        z = a[j] + r[:, None] * np.exp(1j * theta[None, :])
        vals = density(z) * _window(r, rho, r_out[j])[:, None]
        # area element r dr dtheta = r^2 dt dtheta in log-radial coordinates
        total += float(np.sum(wt @ (vals * r[:, None] ** 2)) * dtheta)

    # global grid carries the complementary weight; nodes under any patch
    # core (weight zero) are skipped so the singularities are never touched
    if quad is None:
        quad = AnnulusQuadrature.build(0.0)
    r_glob = quad.radial_nodes[:, None]
    z = r_glob * np.exp(1j * quad.angular_nodes[None, :])
    w0 = np.ones_like(z, dtype=float)
    for j in range(cfg.k):
        w0 *= 1.0 - _window(np.abs(z - a[j]), rho, r_out[j])
    mask = w0 > 0.0
    vals = np.zeros_like(w0)
    vals[mask] = 0.5 * np.abs(
        grad_phi_field(z[mask], a, d, a0, d0, gp)
    ) ** 2 * w0[mask]
    dtheta = 2 * np.pi / quad.angular_nodes.size
    total += float(np.sum(quad.radial_weights @ (vals * r_glob)) * dtheta)
    return total


@dataclass(frozen=True)
class ExpansionReport:
    rho: tuple
    energies: tuple
    w_estimate: float
    w_formula: float
    fitted_slope: float
    slope_values: tuple
    slope_check: bool
    residuals: tuple


def expansion_report(
    ctx: DiscEnergyContext,
    cfg: VortexConfiguration,
    psi: FourierSeries,
    rho_list,
    quad: AnnulusQuadrature | None = None,
) -> ExpansionReport:
    """Fit E(rho) = pi (sum d^2) log(1/rho) + W + C rho with the log
    coefficient held fixed, and compare the fitted W with the closed form.

    slope_check recovers the log coefficient independently by differencing
    E at successive rho and accepts it within 5% relative.
    """
    rho = tuple(float(r) for r in rho_list)
    if len(rho) < 3 or any(r2 >= r1 for r1, r2 in zip(rho, rho[1:])):
        raise InvalidRadius("need at least 3 strictly decreasing rho values")
    coeff_log = np.pi * float(np.sum(cfg.degrees_array() ** 2))
    energies = tuple(punctured_energy(ctx, cfg, psi, r, quad=quad) for r in rho)
    y = np.array(energies) - coeff_log * np.log(1.0 / np.array(rho))
    design = np.column_stack([np.ones(len(rho)), np.array(rho)])
    (w_est, slope), *_ = np.linalg.lstsq(design, y, rcond=None)
    residuals = tuple(y - design @ [w_est, slope])
    slope_values = tuple(
        (e1 - e2) / (np.log(1.0 / r1) - np.log(1.0 / r2))
        for (e1, r1), (e2, r2) in zip(
            zip(energies, rho), list(zip(energies, rho))[1:]
        )
    )
    slope_ok = all(abs(s - coeff_log) <= 0.05 * coeff_log for s in slope_values)
    return ExpansionReport(
        rho=rho,
        energies=energies,
        w_estimate=float(w_est),
        w_formula=w_disc(ctx, cfg, psi),
        fitted_slope=float(slope),
        slope_values=slope_values,
        slope_check=bool(slope_ok),
        residuals=residuals,
    )
