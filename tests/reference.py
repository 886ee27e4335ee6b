"""Reference formulas for the finite-difference tests of the phase field,
the map check that always builds the crossing table, the CLI's input
and output as the generic argparse and JSON paths give them, and the
derivative kernels of the transported energies as separate first- and
second-derivative functions; grad_phi, the package's field kernel at
given points, which those tests check; and area_punctured_energy, the
punctured energy by an area quadrature, the oracle of the boundary rule
that expansion.punctured_energy uses, that rule at twice its nodes, and
per_radius_punctured_energy, the rule run circle group by circle group,
the bit-for-bit oracle of its batched form; the crowded configurations
the rule is tested on; and per_trunc_du_matrix, the nd operator built one
truncation at a time, the bit-for-bit oracle of check_nd2; and
landscape_output, the landscape grid filled through np.meshgrid and
written by three concatenations, the byte oracle of the CLI's one-join
writer.

They are written from the definitions, term by term, and are not part of
the package.
"""
import math
import re

import numpy as np
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

from vortexw._calculus import assemble_hessian, grad_to_vec
from vortexw._kernels import grad_phi_field
from vortexw.core import (
    MAP_GRID,
    VortexConfiguration,
    _polygon_self_intersects,
    configuration_is_admissible,
)
from vortexw.disc_energy import (
    DiscEnergyContext,
    _checked,
    _composite_coeffs,
    _n_disc_alpha_jacobian,
    _pairs,
)
from vortexw import expansion
from vortexw.expansion import RHO_FLOOR, _gprime_coeffs, _potential
from vortexw.errors import BoundaryNotSimple, DegenerateDerivative, InvalidRadius, QuadratureNotConverged
from vortexw.harmonic import AnnulusQuadrature
from vortexw.ndcheck import _psi_columns
from vortexw.transport import _transport_hat_w, _transport_w_derivs


def hat_phi(cfg, z):
    """Singular potential sum_j d_j (log|z - a_j| - log|1 - conj(a_j) z|).

    Vanishes on the unit circle."""
    zz = np.asarray(z, dtype=complex)
    a = cfg.points_array()
    d = cfg.degrees_array()
    dist = np.abs(zz[..., None] - a)
    vals = d * (np.log(dist) - np.log(np.abs(1.0 - np.conj(a) * zz[..., None])))
    out = np.sum(vals, axis=-1)
    return out if out.ndim else float(out)


def phase_potential(ctx, cfg, z):
    """Total phase potential at a point z: hat_phi minus the harmonic
    extension 2 Re sum_n u_n z^n of the composite conjugate phase trace."""
    u = _composite_coeffs(ctx, cfg.points_array(), cfg.degrees_array())
    n = np.arange(1, u.size + 1)
    return hat_phi(cfg, z) - 2 * np.real(np.sum(u * z**n))


def grad_phi(ctx, cfg, z):
    """Phase gradient dx + i dy at z, the field punctured_energy integrates."""
    a0, d0, z = ctx.base.points_array(), ctx.base.degrees_array(), np.asarray(z, complex)
    return grad_phi_field(z, cfg.points_array(), cfg.degrees_array(), a0, d0, _gprime_coeffs(ctx))[()]


def alternating_polygon(k, radius=0.5):
    """The vertices of a regular k-gon about 0 and the degrees (1, -1, 1, ...)."""
    return radius * np.exp(2j * np.pi * np.arange(k) / k), tuple(int(d) for d in (-1) ** np.arange(k))


# Crowded and near-boundary configurations, (points, degrees, trunc) by
# name, that the area rule does not resolve: alternating k-gons, (1, -1)
# pairs centred at 0.2, and one vortex near the boundary, at a trunc where
# the closed form's own truncation error stays below about 1e-4.
CROWDED = {
    "16-gon": (*alternating_polygon(16), 64),
    "32-gon": (*alternating_polygon(32), 64),
    "pair-0.05": (np.array([0.175, 0.225]), (1, -1), 64),
    "pair-0.01": (np.array([0.195, 0.205]), (1, -1), 64),
    "boundary-0.95": (np.array([0.95]), (1,), 256),
    "boundary-0.98": (np.array([0.98]), (1,), 256),
}
# fractions of a configuration's margin at which the crowded cases are run
CROWDED_RADII = (0.02, 0.01, 0.005)


@st.composite
def crowded_configuration(draw):
    """Points, degrees, trunc and radii as fractions of the margin: an
    alternating k-gon, a (1, -1) pair a small distance apart, or one vortex
    near the boundary at trunc 256, where the closed form's truncation
    error stays below about 1e-4."""
    kind = draw(st.sampled_from(["polygon", "pair", "boundary"]))
    turn = np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
    if kind == "polygon":
        k = 2 * draw(st.integers(4, 16))
        points, degrees = alternating_polygon(k, draw(st.floats(0.3, 0.6)))
        points = points * turn
        trunc = 64
    elif kind == "pair":
        centre = draw(st.floats(0.0, 0.5)) * turn
        half = 0.5 * draw(st.floats(0.005, 0.05)) * np.exp(1j * draw(st.floats(0.0, np.pi)))
        points, degrees, trunc = np.array([centre - half, centre + half]), (1, -1), 64
    else:
        r = draw(st.floats(0.9, 0.98))
        points, degrees, trunc = np.array([r * turn]), (1,), 256
    top = draw(st.floats(0.005, 0.05))
    return points, degrees, trunc, (top, 0.5 * top, 0.25 * top)


def margin(points) -> float:
    """The smallest clearance of the points: to the unit circle and to the
    nearest other point."""
    a = np.asarray(points, dtype=complex)
    gap = np.abs(a[:, None] - a[None, :]) + np.diag(np.full(a.size, np.inf))
    return float(np.min(np.minimum(1.0 - np.abs(a), np.min(gap, axis=1))))


def energies_at_twice_the_nodes(monkeypatch, ctx, cfg, radii):
    """expansion.punctured_energy(ctx, cfg, radii) with the trapezoid rule
    replaced by one plain sum on each circle over twice the nodes the
    doubling rule chose for the circle's group."""
    chosen = expansion._trapezoid

    def doubled(integrand, m, sizes, where):
        nodes = np.zeros(sum(sizes), dtype=int)

        def recording(rows, u):
            nodes[rows] += u.size
            return integrand(rows, u)

        chosen(recording, m, sizes, where)
        means = np.empty(nodes.size)
        for row, count in enumerate(nodes):
            n = 2 * count
            f, _ = integrand(np.array([row]), np.exp(2j * np.pi * np.arange(n) / n))
            means[row] = np.sum(f) / n
        return means

    with monkeypatch.context() as mp:
        mp.setattr(expansion, "_trapezoid", doubled)
        return expansion.punctured_energy(ctx, cfg, radii)


def fourier_values(series, theta):
    """A FourierSeries at the angles theta, summed mode by mode:
    a_0 + sum_n 2 Re(a_n e^{i n theta})."""
    th = np.asarray(theta, dtype=float)
    c = series.coeffs
    return c[0].real + sum(2 * np.real(c[n] * np.exp(1j * n * th)) for n in range(1, c.size))


def fd_complex_gradient(fn, z0, h=1e-6):
    """Central-difference gradient dx + i dy of a real function at z0."""
    return (fn(z0 + h) - fn(z0 - h)) / (2 * h) + 1j * (
        fn(z0 + 1j * h) - fn(z0 - 1j * h)
    ) / (2 * h)


def validate_map_with_table(c):
    """core.validate_map as it was before the star-shaped check and the
    overflow bound, on the coefficients c of a map: every accepted boundary
    goes through the O(S^2) crossing table. The tests run on
    f / max_m |c_m|, c_0 included, so it agrees with validate_map on maps
    with c_0 = 0. It evaluates with numpy's polyval, not with the package's
    ConformalPolyMap, whose construction runs validate_map."""
    c = np.asarray(c, dtype=complex)
    if c[1] == 0.0:
        raise DegenerateDerivative("c_1 = 0")
    scale = float(np.max(np.abs(c)))
    g = c / scale
    dcoef = g[1:] * np.arange(1, g.size)
    if dcoef.size > 1:
        roots = np.polynomial.polynomial.polyroots(dcoef)
        inside = roots[np.abs(roots) <= 1.0 + 1e-12]
        if inside.size:
            raise DegenerateDerivative(
                f"f' vanishes at {inside[0]} inside the closed disc"
            )
    radii = np.linspace(0.0, 1.0, MAP_GRID)
    angles = np.linspace(0.0, 2 * np.pi, 4 * MAP_GRID, endpoint=False)
    grid = np.multiply.outer(radii, np.exp(1j * angles))
    min_abs_gprime = float(np.min(np.abs(polyval(grid, dcoef))))
    if min_abs_gprime <= 0.0:
        raise DegenerateDerivative("|f'| vanishes on the validation grid")

    n_samples = 512
    theta = np.linspace(0.0, 2 * np.pi, n_samples, endpoint=False)
    bdry = polyval(np.exp(1j * theta), g)
    rel = bdry - complex(polyval(0.0, g))
    if np.any(np.abs(rel) == 0.0):
        raise BoundaryNotSimple("boundary passes through f(0)")
    dtheta = np.angle(np.roll(rel, -1) / rel)
    winding = float(np.sum(dtheta) / (2 * np.pi))
    if abs(winding - 1.0) > 1e-6:
        raise BoundaryNotSimple(f"winding number {winding:.3f} != 1 about f(0)")
    if _polygon_self_intersects(bdry):
        raise BoundaryNotSimple("boundary curve self-intersects")
    return {
        "min_abs_fprime": scale * min_abs_gprime,
        "winding": winding,
        "samples": n_samples,
    }


def jsonable(x):
    """Plain JSON types; a value that is not a finite number becomes null.
    json.dumps(jsonable(p), indent=2, sort_keys=True) is the CLI output."""
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, complex):
        return {"re": jsonable(x.real), "im": jsonable(x.imag)}
    if isinstance(x, np.ndarray):
        return jsonable(x.tolist())
    if isinstance(x, (np.floating, np.integer)):
        x = x.item()
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


_SIGNED_VALUE = re.compile(r"-[0-9.]")


def glue_signed_values(argv, flags=("--vortex", "--base", "--map")):
    """argv with each value that starts like a negative number glued to the
    flag before it, if that flag is one of flags; cli.run parsed
    parse_args(glue_signed_values(argv)) with argparse alone."""
    out = []
    for tok in argv:
        if out and out[-1] in flags and _SIGNED_VALUE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


# The derivative kernels of hat_w, of the seminorm term, of the map
# correction and of the transported energies, one function per order, each
# computing its own intermediates. The package computes both orders in one
# pass; these give the same bits, operation for operation.


def hat_w_du(a, d):
    du = d**2 * np.conj(a) / (1.0 - np.abs(a) ** 2)
    if a.shape[-1] > 1:
        diff, q, w = _pairs(a, d)
        du = du + np.sum(w * (1.0 / diff + np.conj(a[..., None, :]) / q), axis=-1)
    return -np.pi * du


def hat_w_d2(a, d):
    omr2 = (1.0 - np.abs(a) ** 2) ** 2
    duv_diag = -(d**2) * np.conj(a) ** 2 / omr2
    duvbar_diag = -(d**2) / omr2
    if a.shape[-1] == 1:
        return np.pi * duv_diag[..., None], np.pi * duvbar_diag[..., None]
    diff, q, w = _pairs(a, d)
    duv = -w / diff**2
    duvbar = -w / q**2
    i = np.arange(a.shape[-1])
    duv[..., i, i] = duv_diag - np.sum(duv - duvbar * np.conj(a[..., None, :]) ** 2, axis=-1)
    duvbar[..., i, i] = duvbar_diag
    return np.pi * duv, np.pi * duvbar


def seminorm_du(a, d, u):
    n = np.arange(1, u.shape[-1] + 1)
    return 2.0 * np.pi * d * (a[..., :, None] ** (n - 1) @ (n * u)[..., None])[..., 0]


def seminorm_d2(a, d, u):
    n = np.arange(1, u.shape[-1] + 1)
    pw = a[..., :, None] ** (n - 1)
    pw2 = np.zeros_like(pw)
    pw2[..., 1:] = pw[..., :-1]
    duv = np.zeros(a.shape + a.shape[-1:], dtype=complex)
    i = np.arange(a.shape[-1])
    duv[..., i, i] = 2.0 * np.pi * d * (pw2 @ (n * (n - 1) * u)[..., None])[..., 0]
    dpw = d[:, None] * pw
    duvbar = 2.0 * np.pi * (n * dpw) @ np.swapaxes(dpw.conj(), -1, -2)
    return duv, duvbar


def w_disc_du(ctx, a, d):
    return hat_w_du(a, d) + seminorm_du(a, d, _composite_coeffs(ctx, a, d))


def w_disc_d2(ctx, a, d):
    duv_h, duvbar_h = hat_w_d2(a, d)
    duv_s, duvbar_s = seminorm_d2(a, d, _composite_coeffs(ctx, a, d))
    return duv_h + duv_s, duvbar_h + duvbar_s


def log_fprime_du(f, a, d):
    return 0.5 * np.pi * d**2 * (f.derivative(a, 2) / f.derivative(a))


def log_fprime_d2(f, a, d):
    fp = f.derivative(a)
    r2 = f.derivative(a, 2) / fp
    r3 = f.derivative(a, 3) / fp
    diag = 0.5 * np.pi * d**2 * (r3 - r2**2)
    out = np.zeros(diag.shape + diag.shape[-1:], dtype=complex)
    i = np.arange(diag.shape[-1])
    out[..., i, i] = diag
    return out


def transport_hat_w_du(f, a, d):
    return hat_w_du(a, d) + log_fprime_du(f, a, d)


def transport_hat_w_hess(f, a, d):
    duv, duvbar = hat_w_d2(a, d)
    return assemble_hessian(duv + log_fprime_d2(f, a, d), duvbar)


def transport_w_du(f, ctx, a, d):
    return w_disc_du(ctx, a, d) + log_fprime_du(f, a, d)


def transport_w_hess(f, ctx, a, d):
    duv, duvbar = w_disc_d2(ctx, a, d)
    return assemble_hessian(duv + log_fprime_d2(f, a, d), duvbar)


# The operator matrix of nd as the package assembled it one truncation at a
# time, each with its own configuration, psi-columns, alpha-Jacobian and
# Hessian through the fused kernels; check_nd2 now builds these once for
# both of its truncations, and must give the same bits.


def per_trunc_du_matrix(f, nd1, trunc):
    cfg = VortexConfiguration([nd1.alpha0], (1,))
    ctx = DiscEnergyContext(cfg, trunc=trunc)
    a, d = cfg.points_array(), cfg.degrees_array()
    dn_dpsi, dg_dpsi = _psi_columns(a, d, trunc)
    h = _transport_w_derivs(f, ctx, a, d, True)[1]
    dn_dalpha = _n_disc_alpha_jacobian(trunc, a, d).T
    return grad_to_vec(dn_dpsi - dn_dalpha @ np.linalg.solve(h, dg_dpsi))


def fused_transport_w_hess(f, ctx, cfg):
    """transport_w_hess through _transport_w_derivs, first derivatives
    included."""
    return _transport_w_derivs(f, ctx, *_checked(ctx, cfg), True)[1]


# The punctured energy by an area quadrature, as the package computed it
# before its boundary rule: a smooth partition of unity, with one
# log-radial polar patch around each vortex and the global disc rule
# (harmonic.AnnulusQuadrature) carrying the complementary weight, so every
# integrand seen by a rule is smooth on its domain. It shares no code with
# the boundary rule beyond the field kernel.

PATCH_RADIAL = 96
PATCH_ANGULAR = 256


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for t <= 0, 1 for t >= 1."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        lo = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        hi = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return lo / (lo + hi)


def _patch_radii(cfg, rho: float) -> np.ndarray:
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


def area_punctured_energy(ctx, cfg, rho):
    """expansion.punctured_energy by the area rule: one radius gives a
    float, a sequence of radii a tuple. The global term is computed once
    per distinct set of patch windows. Its error is about 5e-7 relative on
    vortices well apart and well inside the disc; it does not resolve
    crowded vortices or vortices near the boundary."""
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


def _per_radius_trapezoid(integrand, m: int, where: str) -> np.ndarray:
    """The trapezoid rule of per_radius_punctured_energy on one group of
    circles: integrand(u) -> (f, q), each (..., u.size), doubled from m
    nodes until every circle's m- and m/2-node means agree."""
    f, q = integrand(np.exp(2j * np.pi * np.arange(m) / m))
    total, half = np.sum(f, axis=-1), np.sum(f[..., ::2], axis=-1)
    scale = np.sum(np.abs(f) + np.abs(q), axis=-1)
    while not np.all(np.abs(total / m - half / (m // 2)) <= expansion.TOL_TRAPEZOID * scale / m):
        if 2 * m > expansion.MAX_NODES:
            raise QuadratureNotConverged(
                f"the trapezoid rule on {where} has not converged at {expansion.MAX_NODES} nodes"
            )
        f, q = integrand(np.exp(1j * np.pi * (2 * np.arange(m) + 1) / m))
        half = total
        total = total + np.sum(f, axis=-1)
        scale = scale + np.sum(np.abs(f) + np.abs(q), axis=-1)
        m *= 2
    return total / m


def per_radius_punctured_energy(ctx, cfg, rho):
    """expansion.punctured_energy with one trapezoid rule for the unit
    circle and one for the core circles of each radius, run one after the
    other, each in its own kernel calls. The batched rule must give the
    same floats to the bit, and raise the same QuadratureNotConverged."""
    a, d = _checked(ctx, cfg)
    scalar = np.ndim(rho) == 0
    radii = (rho,) if scalar else tuple(rho)
    rho_min = max(RHO_FLOOR, 1024 * float(np.spacing(np.max(np.abs(a)))))
    diff = a[:, None] - a[None, :]
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
    m = max(expansion.M_START, 2 ** (4 * args[-1].size).bit_length())

    def unit(u):
        q = (grad_phi_field(u, *args) * np.conj(u)).real
        return _potential(u, *args) * q, q

    outer = _per_radius_trapezoid(unit, m, "the unit circle")
    energies = []
    for r in radii:

        def cores(u, r=r):
            z = a[:, None] + r * u
            w = z - a[:, None]
            q = (grad_phi_field(z, *args) * np.conj(w)).real
            phi = _potential(z, *args) + d[:, None] * (np.log(r) - np.log(np.abs(w)))
            return phi * q, q

        inner = _per_radius_trapezoid(cores, m, f"the circles of radius {r}")
        energies.append(float(np.pi * (outer - np.sum(inner))))
    return energies[0] if scalar else tuple(energies)


# The landscape as the CLI wrote it before its one-join writer: the grid
# filled through np.meshgrid, and the text built by a join and two full-size
# concatenations.


def meshgrid_points(n: int) -> tuple:
    """The axis and the n^2 grid points, rows over y and x fastest."""
    xs = np.linspace(-0.95, 0.95, n)
    gx, gy = np.meshgrid(xs, xs)  # rows run over y, columns over x
    p = np.empty(gx.size, dtype=complex)
    p.real, p.imag = gx.ravel(), gy.ravel()
    return xs, p


def landscape_values(f, n: int, degree: int) -> tuple:
    """The axis and the n^2 values of landscape --grid n --degree degree on
    f: nan at the points outside the admissible disc."""
    xs, p = meshgrid_points(n)
    # every grid point is a configuration of one vortex
    configs = p[:, None]
    ok = configuration_is_admissible(configs)
    values = np.full(p.size, np.nan)
    values[ok] = _transport_hat_w(f, configs[ok], np.array([float(degree)]))
    return xs, values


def landscape_output(f, n: int, degree: int, csv: bool) -> str:
    xs, values = landscape_values(f, n, degree)
    return landscape_text(xs.tolist(), values, csv)


_ROW_HEAD = '    {\n      "hat_w": '
_ROW_X = ',\n      "x": '
_ROW_Y = ',\n      "y": '
_ROW_END = "\n    }"


def landscape_text(axis: list, values: np.ndarray, csv: bool) -> str:
    n = len(axis)
    if csv:
        ax = ["{:.6f}".format(t) for t in axis]
        xs, ys = ax * n, [t for t in ax for _ in range(n)]
        rows = map(",".join, zip(xs, ys, map(repr, values.tolist())))
        return "x,y,hat_w\n" + "\n".join(rows) + "\n"
    vs = list(map(repr, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        vs[i] = "null"
    # value, x part and y tail of each row in turn; a y tail closes its row
    # and opens the next
    ax = list(map(repr, axis))
    tails = [t + _ROW_END + ",\n" + _ROW_HEAD for t in ax]
    pieces = [""] * (3 * n * n)
    pieces[0::3] = vs
    pieces[1::3] = [_ROW_X + t + _ROW_Y for t in ax] * n
    pieces[2::3] = [t for t in tails for _ in range(n)]
    pieces[-1] = ax[-1] + _ROW_END
    return '{\n  "rows": [\n' + _ROW_HEAD + "".join(pieces) + "\n  ]\n}\n"
