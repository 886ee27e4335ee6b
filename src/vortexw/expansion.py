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
from .core import VortexConfiguration
from .disc_energy import DiscEnergyContext, _checked, w_disc
from .errors import InvalidRadius
from .harmonic import AnnulusQuadrature

PATCH_RADIAL = 96
PATCH_ANGULAR = 256

# Smallest core radius punctured_energy accepts, whatever the vortices; the
# bound also rises to 1024 ulps of the largest |a_j| (see punctured_energy).
RHO_FLOOR = 1e-20


def _gprime_coeffs(ctx: DiscEnergyContext) -> np.ndarray:
    """Coefficients of P(z) = 2 sum_{n>=1} n a_n z^{n-1} for the phase
    ctx.psi, without the trailing zeros of modes it does not use, so the
    kernel does not evaluate them on every node."""
    n = np.arange(1, ctx.trunc + 1)
    return np.trim_zeros(2.0 * n * ctx.psi.coeffs[1:], "b")


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
    diff = a[:, None] - a[None, :]
    # moduli by np.hypot, which rounds as abs of one complex scalar does;
    # np.abs over a complex array can differ from it in the last place
    gap = np.hypot(diff.real, diff.imag)
    gap[np.eye(cfg.k, dtype=bool)] = np.inf
    margins = np.minimum(1.0 - np.hypot(a.real, a.imag), np.min(gap, axis=1))
    if np.any(rho >= 0.5 * margins):
        raise InvalidRadius(
            f"rho = {rho} not below half the vortex separation margins"
        )
    return np.maximum(0.4 * margins, np.minimum(1.8 * rho, 0.9 * margins))


def _window(r: np.ndarray, r_in: float, r_out: float) -> np.ndarray:
    """Weight 1 inside r_in, smoothly 0 beyond r_out."""
    return 1.0 - _smoothstep((r - r_in) / (r_out - r_in))


def _global_weight(z: np.ndarray, a, windows) -> np.ndarray:
    """The product over the patches of 1 - _window(|z - a_j|, r_in, r_out)
    at the nodes z, to the bit. A factor is exactly 0.0 where t <= 0 and
    exactly 1.0 where t >= 1, so the exponentials of the ramp are taken
    only in the band 0 < t < 1. The band is selected by t itself: rounding
    can make t exactly 1 just inside r_out."""
    w0 = np.ones_like(z, dtype=float)
    for a_j, (r_in, r_out) in zip(a, windows):
        t = (np.abs(z - a_j) - r_in) / (r_out - r_in)
        w0[t <= 0.0] = 0.0
        band = (t > 0.0) & (t < 1.0)
        w0[band] *= 1.0 - (1.0 - _smoothstep(t[band]))
    return w0


def _global_term(quad: AnnulusQuadrature, a, windows, field) -> float:
    """The global grid carries the complementary weight; nodes under any
    patch core (weight zero) are skipped so the singularities are never
    touched."""
    r_glob = quad.radial_nodes[:, None]
    z = r_glob * np.exp(1j * quad.angular_nodes[None, :])
    w0 = _global_weight(z, a, windows)
    mask = w0 > 0.0
    vals = np.zeros_like(w0)
    vals[mask] = 0.5 * np.abs(field(z[mask])) ** 2 * w0[mask]
    dtheta = 2 * np.pi / quad.angular_nodes.size
    return float(np.sum(quad.radial_weights @ (vals * r_glob)) * dtheta)


def punctured_energy(ctx: DiscEnergyContext, cfg: VortexConfiguration, rho):
    """Half the Dirichlet integral of the phase gradient over the disc with
    the discs of radius rho about the vortices removed.

    rho is one radius (the result is a float) or a sequence of radii (the
    result is a tuple of floats, in the same order). The quadrature rules
    are built once per call, and the global term is computed once per
    distinct set of patch windows.

    Every radius must lie in (0, 1), below half of each vortex's clearance,
    and at or above max(RHO_FLOOR, 1024 ulps of max_j |a_j|): about
    1.4e-14 for a vortex at 0.1 and 1.1e-13 for one at 0.5 or beyond.
    Below that the patch nodes a_j + rho e^{i theta} round away the offset
    they are built from, or the 96-node log-radial rule spreads over too
    long a span log(r_out / rho); either costs more than about 1e-3 of the
    energy. Any other radius raises InvalidRadius before any quadrature.
    """
    a, d = _checked(ctx, cfg)
    scalar = np.ndim(rho) == 0
    radii = (rho,) if scalar else tuple(rho)
    rho_min = max(RHO_FLOOR, 1024 * float(np.spacing(np.max(np.abs(a)))))
    r_outs = []
    for r in radii:
        if not 0.0 < r < 1.0:
            raise InvalidRadius(f"rho = {r} outside (0, 1)")
        if r < rho_min:
            raise InvalidRadius(f"rho = {r} below {rho_min:.3g}, the smallest radius resolved here")
        r_outs.append(_patch_radii(cfg, r))
    a0 = ctx.base.points_array()
    d0 = ctx.base.degrees_array()
    gp = _gprime_coeffs(ctx)

    def field(z):
        return grad_phi_field(z, a, d, a0, d0, gp)

    x, w = np.polynomial.legendre.leggauss(PATCH_RADIAL)
    theta = np.linspace(0.0, 2 * np.pi, PATCH_ANGULAR, endpoint=False)
    dtheta = 2 * np.pi / PATCH_ANGULAR
    quad = AnnulusQuadrature.build()
    global_terms = {}
    energies = []
    for rho_i, r_out in zip(radii, r_outs):
        # (r_in, r_out) of each patch window: the windows, and so the
        # global term, depend on rho only through these pairs
        windows = tuple((max(0.5 * r, rho_i), r) for r in r_out)
        # before the patches: at the first radius no patch array is alive
        # yet to add to the peak memory of the global grid
        if windows not in global_terms:
            global_terms[windows] = _global_term(quad, a, windows, field)
        # polar patches in log-radial coordinates around each vortex
        total = 0.0
        for j in range(cfg.k):
            t_lo, t_hi = np.log(rho_i), np.log(r_out[j])
            t = 0.5 * (t_lo + t_hi) + 0.5 * (t_hi - t_lo) * x
            wt = 0.5 * (t_hi - t_lo) * w
            r = np.exp(t)
            z = a[j] + r[:, None] * np.exp(1j * theta[None, :])
            g = field(z)
            vals = 0.5 * (g.real**2 + g.imag**2) * _window(r, *windows[j])[:, None]
            # area element r dr dtheta = r^2 dt dtheta in log-radial coordinates
            total += float(np.sum(wt @ (vals * r[:, None] ** 2)) * dtheta)
        energies.append(total + global_terms[windows])
    return energies[0] if scalar else tuple(energies)


@dataclass(frozen=True)
class ExpansionReport:
    rho: tuple
    energies: tuple
    w_estimate: float
    w_formula: float
    fitted_slope: float
    slope_check: bool
    residuals: tuple


def expansion_report(ctx: DiscEnergyContext, cfg: VortexConfiguration, rho_list) -> ExpansionReport:
    """Fit E(rho) = pi (sum d^2) log(1/rho) + W + C rho with the log
    coefficient held fixed, and compare the fitted W with the closed form.

    slope_check recovers the log coefficient independently by differencing
    E at successive rho and accepts it within 5% relative.
    """
    rho = tuple(float(r) for r in rho_list)
    if len(rho) < 3 or any(r2 >= r1 for r1, r2 in zip(rho, rho[1:])):
        raise InvalidRadius("need at least 3 strictly decreasing rho values")
    coeff_log = np.pi * float(np.sum(cfg.degrees_array() ** 2))
    energies = punctured_energy(ctx, cfg, rho)
    y = np.array(energies) - coeff_log * np.log(1.0 / np.array(rho))
    design = np.column_stack([np.ones(len(rho)), np.array(rho)])
    (w_est, slope), *_ = np.linalg.lstsq(design, y, rcond=None)
    residuals = tuple(y - design @ [w_est, slope])
    slopes = (
        (e1 - e2) / (np.log(1.0 / r1) - np.log(1.0 / r2))
        for e1, e2, r1, r2 in zip(energies, energies[1:], rho, rho[1:])
    )
    slope_ok = all(abs(s - coeff_log) <= 0.05 * coeff_log for s in slopes)
    return ExpansionReport(
        rho=rho,
        energies=energies,
        w_estimate=float(w_est),
        w_formula=w_disc(ctx, cfg),
        fitted_slope=float(slope),
        slope_check=bool(slope_ok),
        residuals=residuals,
    )
