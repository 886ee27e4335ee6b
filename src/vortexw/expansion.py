"""Quadrature verification of the small-core energy expansion.

The half Dirichlet energy of the explicit unimodular field over the disc
with core discs of radius rho removed behaves as

    E(rho) = pi (sum_j d_j^2) log(1/rho) + W + O(rho),

which ties the closed-form energies back to the integral they renormalize.
The field is grad Phi for a Phi harmonic on the punctured disc (see
_potential), so by Green's identity E is the boundary integral

    1/2 oint_{|z|=1} Phi d_r Phi dtheta - 1/2 sum_j oint_{|z-a_j|=rho} Phi d_r Phi rho dtheta,

whose integrands are smooth and periodic: the trapezoid rule converges on
them geometrically, and half of its nodes give its error estimate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import grad_phi_field
from .core import VortexConfiguration
from .disc_energy import DiscEnergyContext, _checked, w_disc
from .errors import InvalidRadius, QuadratureNotConverged

# Nodes per circle of the trapezoid rule: its start, its cap, and the
# agreement of the M- and M/2-node means that stops its doubling.
M_START = 64
MAX_NODES = 2**14
TOL_TRAPEZOID = 1e-12

# Smallest core radius punctured_energy accepts, whatever the vortices; the
# bound also rises to 1024 ulps of the largest |a_j| (see punctured_energy).
RHO_FLOOR = 1e-20


def _gprime_coeffs(ctx: DiscEnergyContext) -> np.ndarray:
    """Coefficients of P(z) = 2 sum_{n>=1} n a_n z^{n-1} for the phase
    ctx.psi, without the trailing zeros of modes it does not use, so the
    kernel does not evaluate them on every node."""
    n = np.arange(1, ctx.trunc + 1)
    return np.trim_zeros(2.0 * n * ctx.psi.coeffs[1:], "b")


def _potential(z, alpha, degrees, alpha0, degrees0, gprime) -> np.ndarray:
    """Phi = Re F at the points z, where F' = h of grad_phi_field (same
    arguments), so grad Phi = conj(h): sum_j d_j (log|z - a_j|
    + log|1 - conj(a_j) z|) - 2 sum_l d0_l log|1 - conj(a0_l) z| - Im G(z),
    with G' = P = gprime and G(0) = 0."""
    zz = np.asarray(z, dtype=complex)
    g = np.zeros_like(zz)
    for c in (gprime / np.arange(1, gprime.size + 1))[::-1]:  # Horner: g <- (g + c) z
        g += c
        g *= zz
    phi = -g.imag
    for a, d in zip(alpha, degrees):
        phi += d * (np.log(np.abs(zz - a)) + np.log(np.abs(1.0 - np.conj(a) * zz)))
    for a, d in zip(alpha0, degrees0):
        phi -= 2.0 * d * np.log(np.abs(1.0 - np.conj(a) * zz))
    return phi


def _trapezoid(integrand, m: int, sizes, where) -> np.ndarray:
    """Means over theta of the periodic f of integrand(rows, u) -> (f, q),
    each (rows.size, u.size), on the circles rows at the nodes
    u = e^{i theta}: f = Phi q, q = rho d_r Phi, and (1 + |Phi|) |q| is
    the scale. The circles come in consecutive groups of the given sizes,
    named where. From m nodes each group doubles, evaluating only the new
    odd nodes, until on each of its circles the mean of f and that of its
    even-indexed half (the m/2 rule) differ by at most TOL_TRAPEZOID times
    the mean scale; the groups still doubling share the kernel calls. An
    open group beyond MAX_NODES nodes, as one whose value is not finite,
    raises QuadratureNotConverged, the first such group named. A call
    holds at most max(sizes) MAX_NODES / 2 points, what one group evaluates
    in its last doubling, so that memory does not grow with the number of
    groups."""
    group = np.repeat(np.arange(len(sizes)), sizes)
    cap = max(sizes) * MAX_NODES // 2

    def sums(rows, u):
        # the row sums of f, of the scale, and of f on the even-indexed nodes
        step = max(1, cap // u.size)
        parts = []
        for i in range(0, rows.size, step):
            f, q = integrand(rows[i : i + step], u)
            parts.append((np.sum(f, axis=-1), np.sum(np.abs(f) + np.abs(q), axis=-1), np.sum(f[:, ::2], axis=-1)))
        return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))

    means = np.empty(group.size)
    rows = np.arange(group.size)
    total, scale, half = sums(rows, np.exp(2j * np.pi * np.arange(m) / m))
    while True:
        settled = np.abs(total / m - half / (m // 2)) <= TOL_TRAPEZOID * scale / m
        open_groups = np.zeros(len(sizes), dtype=bool)
        open_groups[group[rows[~settled]]] = True
        live = open_groups[group[rows]]
        means[rows[~live]] = total[~live] / m
        if not live.any():
            return means
        if 2 * m > MAX_NODES:
            raise QuadratureNotConverged(
                f"the trapezoid rule on {where[group[rows[live][0]]]} has not converged at {MAX_NODES} nodes"
            )
        rows, half = rows[live], total[live]
        new, new_scale, _ = sums(rows, np.exp(1j * np.pi * (2 * np.arange(m) + 1) / m))
        total, scale = half + new, scale[live] + new_scale
        m *= 2


def punctured_energy(ctx: DiscEnergyContext, cfg: VortexConfiguration, rho):
    """Half the Dirichlet integral of the phase gradient over the disc with
    the discs of radius rho about the vortices removed.

    rho is one radius (the result is a float) or a sequence of radii (the
    result is a tuple of floats, in the same order). One trapezoid rule
    runs on every circle of the call: the unit circle, as a circle about 0
    of radius 1 with no self term, and for each radius its k core circles,
    as one group. Each group doubles its nodes until it converges, and the
    circles of the groups still doubling share one kernel call per
    doubling. Each rule starts at M_START nodes, or at the first power of
    two above 4 deg G, so that its M/2 rule integrates the polynomial part
    of Phi d_r Phi exactly. A circle that needs more than MAX_NODES = 16384
    nodes (the unit circle, for one vortex beyond |a| of about 0.998)
    raises QuadratureNotConverged, naming the unit circle before any
    radius and the radii in order.

    Every radius must lie in (0, 1), below half of each vortex's clearance,
    and at or above max(RHO_FLOOR, 1024 ulps of max_j |a_j|): about
    1.4e-14 for a vortex at 0.1 and 1.1e-13 for one at 0.5 or beyond.
    At 1024 ulps the rounded nodes a_j + rho e^{i theta} keep their offsets
    z - a_j within 2^-11 of rho e^{i theta}, distinct and in order. The
    rule takes the self term d_j log|z - a_j| of Phi at the exact offset
    rho, and d_r Phi along the rounded one, so rounding moves only the
    smooth part of the integrand. RHO_FLOOR keeps d_j / rho and the
    offsets normal floats far from overflow. Any other radius raises
    InvalidRadius before any node is evaluated.
    """
    a, d = _checked(ctx, cfg)
    scalar = np.ndim(rho) == 0
    radii = (rho,) if scalar else tuple(rho)
    rho_min = max(RHO_FLOOR, 1024 * float(np.spacing(np.max(np.abs(a)))))
    diff = a[:, None] - a[None, :]
    # moduli by np.hypot, which rounds as abs of one complex scalar does;
    # np.abs over a complex array can differ from it in the last place
    gap = np.hypot(diff.real, diff.imag) + np.diag(np.full(cfg.k, np.inf))
    half_margin = 0.5 * np.min(np.minimum(1.0 - np.hypot(a.real, a.imag), np.min(gap, axis=1)))
    for r in radii:
        if not 0.0 < r < 1.0:
            raise InvalidRadius(f"rho = {r} outside (0, 1)")
        if r < rho_min:
            raise InvalidRadius(f"rho = {r} below {rho_min:.3g}, the smallest radius resolved here")
        if r >= half_margin:
            raise InvalidRadius(f"rho = {r} not below half the vortex separation margins")
    args = (a, d, ctx.base.points_array(), ctx.base.degrees_array(), _gprime_coeffs(ctx))
    m = max(M_START, 2 ** (4 * args[-1].size).bit_length())
    # the unit circle first, then the k core circles of each radius
    centre = np.concatenate(([0.0], np.tile(a, len(radii))))
    radius = np.concatenate(([1.0], np.repeat(radii, cfg.k)))
    weight = np.concatenate(([0.0], np.tile(d, len(radii))))

    def circles(rows, u):
        c, r = centre[rows, None], radius[rows, None]
        z = c + r * u
        w = z - c
        q = (grad_phi_field(z, *args) * np.conj(w)).real
        phi = _potential(z, *args) + weight[rows, None] * (np.log(r) - np.log(np.abs(w)))
        return phi * q, q

    where = ("the unit circle", *(f"the circles of radius {r}" for r in radii))
    means = _trapezoid(circles, m, (1,) + (cfg.k,) * len(radii), where)
    energies = np.pi * (means[0] - np.sum(means[1:].reshape(len(radii), cfg.k), axis=-1))
    return float(energies[0]) if scalar else tuple(energies.tolist())


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
    x = np.array(rho)
    y = np.array(energies) - coeff_log * np.log(1.0 / x)
    xc = x - np.mean(x)  # the least-squares line through (x, y), centred
    slope = np.sum(xc * (y - np.mean(y))) / np.sum(xc * xc)
    w_est = np.mean(y) - slope * np.mean(x)
    residuals = tuple(y - (w_est + slope * x))
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
