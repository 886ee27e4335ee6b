"""Transport of the disc quantities onto Omega = f(D).

Every Omega-side quantity is represented by pullback to disc coordinates;
the energies pick up the exact correction pi sum_j d_j^2 log|f'(alpha_j)|.
"""
from __future__ import annotations

import numpy as np

from ._calculus import assemble_hessian, grad_to_vec
from .core import ConformalPolyMap, VortexConfiguration
from .disc_energy import (
    DiscEnergyContext,
    _checked,
    _hat_w,
    _hat_w_derivs,
    _w_disc,
    _w_disc_derivs,
)


def _log_fprime(f: ConformalPolyMap, a, d):
    """Map correction pi sum_j d_j^2 log|f'(alpha_j)| for configurations
    a (..., k) with degrees d (k,)."""
    return np.pi * np.sum(d**2 * np.log(np.abs(f.derivative(a))), axis=-1)


def _log_fprime_derivs(f: ConformalPolyMap, a, d, second=False):
    """Wirtinger derivatives of the map correction for configurations
    a (..., k): du = pi d_j^2 f''/(2 f') (..., k), and with second the
    second derivatives d^2/(d alpha_j d alpha_l), (..., k, k): diagonal,
    pi d_j^2 (f3/f1 - (f2/f1)^2) / 2 with f_m the m-th derivative of f at
    alpha_j (the mixed derivatives d^2/(d alpha_j d conj(alpha_l))
    vanish); otherwise None. f' and f''/f' are computed once for both."""
    fp = f.derivative(a)
    r2 = f.derivative(a, 2) / fp
    du = 0.5 * np.pi * d**2 * r2
    if not second:
        return du, None
    r3 = f.derivative(a, 3) / fp
    diag = 0.5 * np.pi * d**2 * (r3 - r2**2)
    out = np.zeros(diag.shape + diag.shape[-1:], dtype=complex)
    i = np.arange(diag.shape[-1])
    out[..., i, i] = diag
    return du, out


def _with_map(f, a, d, disc, m=None):
    """The derivatives on Omega of an energy whose disc Wirtinger
    derivatives at a are disc = (du, d2): its first Wirtinger derivatives
    (..., k), and its real Hessians (..., 2k, 2k) where d2 is given, else
    None. m, if given, is _log_fprime_derivs(f, a, d) of the same order,
    evaluated once for several energies."""
    du, d2 = disc
    du_m, d2_m = _log_fprime_derivs(f, a, d, d2 is not None) if m is None else m
    if d2 is None:
        return du + du_m, None
    duv, duvbar = d2
    return du + du_m, assemble_hessian(duv + d2_m, duvbar)


def _transport_hat_w(f: ConformalPolyMap, a, d):
    """hat_w on Omega for configurations a (..., k) with degrees d (k,)."""
    return _hat_w(a, d) + _log_fprime(f, a, d)


def _transport_hat_w_derivs(f: ConformalPolyMap, a, d, hessian=False):
    """First Wirtinger derivatives of hat_w on Omega for configurations
    a (..., k) with degrees d (k,), (..., k), and with hessian its real
    Hessians (..., 2k, 2k), else None: both from one pass over a."""
    return _with_map(f, a, d, _hat_w_derivs(a, d, hessian))


def _transport_w(f, ctx, a, d):
    """Full energy on Omega for configurations a (..., k) with degrees d (k,)."""
    return _w_disc(ctx, a, d) + _log_fprime(f, a, d)


def _transport_w_derivs(f, ctx, a, d, hessian=False):
    """First Wirtinger derivatives of the full energy on Omega, (..., k),
    and with hessian its real Hessians (..., 2k, 2k), else None."""
    return _with_map(f, a, d, _w_disc_derivs(ctx, a, d, hessian))


def _transport_w_hessians(f, ctxs, a, d):
    """The real Hessians (..., 2k, 2k) of the full energy on Omega at a
    (..., k) with the datum of each context of ctxs, one per context: the
    hat_w and map terms are evaluated once, and only the seminorm term per
    context, each summed as _transport_w_derivs sums it."""
    hat, m = _hat_w_derivs(a, d, True), _log_fprime_derivs(f, a, d, True)
    return [_with_map(f, a, d, _w_disc_derivs(ctx, a, d, True, hat), m)[1] for ctx in ctxs]


def transport_hat_w(f: ConformalPolyMap, cfg: VortexConfiguration) -> float:
    """hat_w on Omega = f(D), evaluated at a = f(alpha) in disc coordinates."""
    return float(_transport_hat_w(f, cfg.points_array(), cfg.degrees_array()))


def transport_hat_w_grad(f: ConformalPolyMap, cfg: VortexConfiguration) -> np.ndarray:
    """Analytic gradient of transport_hat_w as a real 2k-vector."""
    return grad_to_vec(_transport_hat_w_derivs(f, cfg.points_array(), cfg.degrees_array())[0])


def transport_w(f: ConformalPolyMap, ctx: DiscEnergyContext, cfg: VortexConfiguration) -> float:
    """Full energy on Omega in disc coordinates, with the datum of ctx."""
    return float(_transport_w(f, ctx, *_checked(ctx, cfg)))


def transport_w_grad(f, ctx, cfg) -> np.ndarray:
    """Analytic gradient of transport_w as a real 2k-vector."""
    return grad_to_vec(_transport_w_derivs(f, ctx, *_checked(ctx, cfg))[0])


def transport_w_hess(f, ctx, cfg) -> np.ndarray:
    """Analytic Hessian of transport_w, a symmetric 2k x 2k matrix."""
    return _transport_w_hessians(f, (ctx,), *_checked(ctx, cfg))[0]

