"""Reference formulas for the finite-difference tests of the phase field,
the map check that always builds the crossing table, the CLI's input
and output as the generic argparse and JSON paths give them, and the
derivative kernels of the transported energies as separate first- and
second-derivative functions; and grad_phi, the package's field kernel at
given points, which those tests check.

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
from vortexw.disc_energy import _composite_coeffs, _pairs
from vortexw.expansion import _gprime_coeffs
from vortexw.errors import BoundaryNotSimple, DegenerateDerivative


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
