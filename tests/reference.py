"""Reference formulas for the finite-difference tests of the phase field,
the map check that always builds the crossing table, the CLI's input
and output as the generic argparse and JSON paths give them, and the
derivative kernels of the transported energies as separate first- and
second-derivative functions; grad_phi, the package's field kernel at
given points, which those tests check; and area_punctured_energy, the
punctured energy by an area quadrature, the oracle of the boundary rule
that expansion.punctured_energy uses, and that rule at twice its nodes.

They are written from the definitions, term by term, and are not part of
the package.
"""
import math
import re

import numpy as np
from numpy.polynomial.polynomial import polyval

from vortexw._calculus import assemble_hessian
from vortexw._kernels import grad_phi_field
from vortexw.core import MAP_GRID, _polygon_self_intersects
from vortexw.disc_energy import _checked, _composite_coeffs, _pairs
from vortexw import expansion
from vortexw.expansion import RHO_FLOOR, _gprime_coeffs
from vortexw.errors import BoundaryNotSimple, DegenerateDerivative, InvalidRadius
from vortexw.harmonic import AnnulusQuadrature


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


def margin(points) -> float:
    """The smallest clearance of the points: to the unit circle and to the
    nearest other point."""
    a = np.asarray(points, dtype=complex)
    gap = np.abs(a[:, None] - a[None, :]) + np.diag(np.full(a.size, np.inf))
    return float(np.min(np.minimum(1.0 - np.abs(a), np.min(gap, axis=1))))


def energies_at_twice_the_nodes(monkeypatch, ctx, cfg, radii):
    """expansion.punctured_energy(ctx, cfg, radii) with every circle's
    trapezoid rule replaced by one plain sum over twice the nodes the
    doubling rule chose for it."""
    chosen = expansion._trapezoid

    def doubled(integrand, m, where):
        sizes = []

        def recording(u):
            sizes.append(u.size)
            return integrand(u)

        chosen(recording, m, where)
        n = 2 * sum(sizes)
        f, _ = integrand(np.exp(2j * np.pi * np.arange(n) / n))
        return np.sum(f, axis=-1) / n

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
