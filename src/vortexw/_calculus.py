"""Wirtinger-calculus helpers for real functions of complex points.

For a real-valued F of complex variables u = alpha_j, the real gradient
with respect to (Re u, Im u) is 2 conj(dF/du), and the 2x2 real Hessian
block coupling u and v is determined by the pair (F_uv, F_{u vbar}).
"""
from __future__ import annotations

import numpy as np


def grad_to_vec(wirtinger_du: np.ndarray) -> np.ndarray:
    """Pack complex Wirtinger derivatives (dF/du_j) into the real 2k-gradient,
    along axis 0 (so the columns of a (k, m) array become m gradients)."""
    g = 2.0 * np.conj(np.atleast_1d(wirtinger_du))
    out = np.empty((2 * g.shape[0],) + g.shape[1:])
    out[0::2] = g.real
    out[1::2] = g.imag
    return out


def assemble_hessian(f_uv, f_uvbar) -> np.ndarray:
    """Assemble the symmetric 2k x 2k real Hessians from (..., k, k) Wirtinger
    arrays f_uv[..., j, l] = d^2 F / (d alpha_j d alpha_l) and
    f_uvbar[..., j, l] = d^2 F / (d alpha_j d conj(alpha_l)), (..., 2k, 2k).

    The 2x2 block coupling alpha_j and alpha_l is
    2 [[Re(a + c), Im(c - a)], [-Im(a + c), Re(c - a)]] with a = f_uv[j, l],
    c = f_uvbar[j, l].
    """
    a, c = np.asarray(f_uv), np.asarray(f_uvbar)
    k = a.shape[-1]
    h = np.empty(a.shape[:-2] + (2 * k, 2 * k))
    h[..., 0::2, 0::2] = 2.0 * (a.real + c.real)
    h[..., 0::2, 1::2] = 2.0 * (c.imag - a.imag)
    h[..., 1::2, 0::2] = -2.0 * (a.imag + c.imag)
    h[..., 1::2, 1::2] = 2.0 * (c.real - a.real)
    return 0.5 * (h + np.swapaxes(h, -1, -2))
