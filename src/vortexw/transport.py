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
    _hat_w_d2,
    _hat_w_du,
    _w_disc,
    _w_disc_d2,
    _w_disc_du,
)


def _log_fprime(f: ConformalPolyMap, a, d):
    """Map correction pi sum_j d_j^2 log|f'(alpha_j)| for configurations
    a (..., k) with degrees d (k,)."""
    return np.pi * np.sum(d**2 * np.log(np.abs(f.derivative(a))), axis=-1)


def _log_fprime_du(f: ConformalPolyMap, a, d) -> np.ndarray:
    """Wirtinger derivatives of the map correction: pi d_j^2 f''/(2 f')."""
    return 0.5 * np.pi * d**2 * (f.derivative(a, 2) / f.derivative(a))


def _log_fprime_d2(f: ConformalPolyMap, a, d) -> np.ndarray:
    """Second Wirtinger derivatives d^2/(d alpha_j d alpha_l) of the map
    correction for configurations a (..., k), (..., k, k): diagonal,
    pi d_j^2 (f3/f1 - (f2/f1)^2) / 2 with f_m the m-th derivative of f at
    alpha_j. The mixed derivatives d^2/(d alpha_j d conj(alpha_l)) vanish."""
    fp = f.derivative(a)
    r2 = f.derivative(a, 2) / fp
    r3 = f.derivative(a, 3) / fp
    diag = 0.5 * np.pi * d**2 * (r3 - r2**2)
    out = np.zeros(diag.shape + diag.shape[-1:], dtype=complex)
    i = np.arange(diag.shape[-1])
    out[..., i, i] = diag
    return out


def _transport_hat_w(f: ConformalPolyMap, a, d):
    """hat_w on Omega for configurations a (..., k) with degrees d (k,)."""
    return _hat_w(a, d) + _log_fprime(f, a, d)


def _transport_hat_w_du(f: ConformalPolyMap, a, d):
    """First Wirtinger derivatives of hat_w on Omega, (..., k)."""
    return _hat_w_du(a, d) + _log_fprime_du(f, a, d)


def _transport_hat_w_hess(f: ConformalPolyMap, a, d) -> np.ndarray:
    """Hessians of hat_w on Omega for configurations a (..., k), (..., 2k, 2k)."""
    duv, duvbar = _hat_w_d2(a, d)
    return assemble_hessian(duv + _log_fprime_d2(f, a, d), duvbar)


def _transport_w(f, ctx, a, d):
    """Full energy on Omega for configurations a (..., k) with degrees d (k,)."""
    return _w_disc(ctx, a, d) + _log_fprime(f, a, d)


def _transport_w_du(f, ctx, a, d) -> np.ndarray:
    """First Wirtinger derivatives of the full energy on Omega, (..., k)."""
    return _w_disc_du(ctx, a, d) + _log_fprime_du(f, a, d)


def _transport_w_hess(f, ctx, a, d) -> np.ndarray:
    """Hessians of the full energy on Omega, (..., 2k, 2k)."""
    duv, duvbar = _w_disc_d2(ctx, a, d)
    return assemble_hessian(duv + _log_fprime_d2(f, a, d), duvbar)


def transport_hat_w(f: ConformalPolyMap, cfg: VortexConfiguration) -> float:
    """hat_w on Omega = f(D), evaluated at a = f(alpha) in disc coordinates."""
    return float(_transport_hat_w(f, cfg.points_array(), cfg.degrees_array()))


def transport_hat_w_grad(f: ConformalPolyMap, cfg: VortexConfiguration) -> np.ndarray:
    """Analytic gradient of transport_hat_w as a real 2k-vector."""
    return grad_to_vec(_transport_hat_w_du(f, cfg.points_array(), cfg.degrees_array()))


def transport_w(f: ConformalPolyMap, ctx: DiscEnergyContext, cfg: VortexConfiguration) -> float:
    """Full energy on Omega in disc coordinates, with the datum of ctx."""
    return float(_transport_w(f, ctx, *_checked(ctx, cfg)))


def transport_w_grad(f, ctx, cfg) -> np.ndarray:
    """Analytic gradient of transport_w as a real 2k-vector."""
    return grad_to_vec(_transport_w_du(f, ctx, *_checked(ctx, cfg)))


def transport_w_hess(f, ctx, cfg) -> np.ndarray:
    """Analytic Hessian of transport_w, a symmetric 2k x 2k matrix."""
    return _transport_w_hess(f, ctx, *_checked(ctx, cfg))

