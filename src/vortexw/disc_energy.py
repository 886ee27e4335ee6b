"""Explicit unit-disc quantities: the prescribed-degree energy and its
derivatives, the composite conjugate phase trace, the full energy W, and
the semi-stiff normal trace N.

Conventions. Configurations alpha live in the open unit disc. A
DiscEnergyContext is the boundary datum g = g^0(alpha^0) e^{i psi}: the
reference configuration alpha^0 fixes the canonical datum g^0, and the
boundary phase psi is measured against it. All boundary functions are
Fourier series on the circle, truncated at the context's trunc.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._calculus import assemble_hessian, grad_to_vec
from .core import DEFAULT_TRUNC, FourierSeries, VortexConfiguration
from .errors import DegreeMismatch


@dataclass(frozen=True)
class DiscEnergyContext:
    """The boundary datum g^0(alpha^0) e^{i psi}: the reference
    configuration alpha^0 (defining the canonical datum g^0), the series
    truncation used for all expansions, and the boundary phase psi (zero by
    default). psi is cut or zero-padded to trunc modes on construction, so
    every quantity reads the same modes of it. W and N are defined only for
    configurations of the base's total degree; the others raise
    DegreeMismatch."""

    base: VortexConfiguration
    trunc: int = DEFAULT_TRUNC
    psi: FourierSeries = FourierSeries.zeros(0)
    # sum_l d0_l conj(alpha0_l)^n (n = 1..trunc) of the base, derived once
    base_moments: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.trunc < 1:
            raise ValueError("trunc must be >= 1")
        c = np.zeros(self.trunc + 1, dtype=complex)
        kept = self.psi.coeffs[: self.trunc + 1]
        c[: kept.size] = kept
        object.__setattr__(self, "psi", FourierSeries(c))
        moments = _moments(self.base.points_array(), self.base.degrees_array(), self.trunc)
        moments.setflags(write=False)
        object.__setattr__(self, "base_moments", moments)


def _pairs(a, d):
    """Pair grid of configurations a (..., k) with degrees d (k,), k >= 2:
    the differences a_j - a_l with 1 on the diagonal (so that every
    expression below stays finite there), the products 1 - a_j conj(a_l),
    each (..., k, k), and the weights d_j d_l with the diagonal masked."""
    eye = np.eye(a.shape[-1])
    diff = a[..., :, None] - a[..., None, :] + eye
    q = 1.0 - a[..., :, None] * np.conj(a[..., None, :])
    return diff, q, d[:, None] * d * (1.0 - eye)


# One vortex has no pairs, so each kernel adds the pair sums only for k >= 2.


def _hat_w(a, d):
    """hat_w for configurations a (..., k) with degrees d (k,)."""
    total = np.sum(d**2 * np.log(1.0 - np.abs(a) ** 2), axis=-1)
    if a.shape[-1] > 1:
        diff, q, w = _pairs(a, d)
        total = total + np.sum(w * (np.log(np.abs(q)) - np.log(np.abs(diff))), axis=(-2, -1))
    return np.pi * total


def _hat_w_derivs(a, d, second=False):
    """Wirtinger derivatives of hat_w for configurations a (..., k) with
    degrees d (k,): (du, d2) with du[..., j] = d hat_w / d alpha_j. With
    second, d2 is the pair d^2/(d alpha_j d alpha_l) and
    d^2/(d alpha_j d conj(alpha_l)), (..., k, k) each; otherwise None.
    1 - |alpha|^2 and the pair grid are computed once for both orders."""
    d2w, ca = d**2, np.conj(a)
    omr = 1.0 - np.abs(a) ** 2
    du = d2w * ca / omr
    paired = a.shape[-1] > 1
    if paired:
        diff, q, w = _pairs(a, d)
        du = du + np.sum(w * (1.0 / diff + ca[..., None, :] / q), axis=-1)
    du = -np.pi * du
    if not second:
        return du, None
    omr2 = omr**2
    duv_diag = -d2w * ca**2 / omr2
    duvbar_diag = -d2w / omr2
    if not paired:
        return du, (np.pi * duv_diag[..., None], np.pi * duvbar_diag[..., None])
    duv = -w / diff**2
    duvbar = -w / q**2
    i = np.arange(a.shape[-1])
    duv[..., i, i] = duv_diag - np.sum(duv - duvbar * ca[..., None, :] ** 2, axis=-1)
    duvbar[..., i, i] = duvbar_diag
    return du, (np.pi * duv, np.pi * duvbar)


def hat_w(cfg: VortexConfiguration) -> float:
    """Renormalized energy of the canonical datum (prescribed-degree energy)."""
    return float(_hat_w(cfg.points_array(), cfg.degrees_array()))


def hat_w_grad(cfg: VortexConfiguration) -> np.ndarray:
    """Analytic gradient of hat_w as a real 2k-vector (x1, y1, x2, y2, ...)."""
    return grad_to_vec(_hat_w_derivs(cfg.points_array(), cfg.degrees_array())[0])


def hat_w_hess(cfg: VortexConfiguration) -> np.ndarray:
    """Analytic Hessian of hat_w, a symmetric 2k x 2k matrix."""
    return assemble_hessian(*_hat_w_derivs(cfg.points_array(), cfg.degrees_array(), True)[1])


def _checked(ctx: DiscEnergyContext, cfg: VortexConfiguration):
    """The point and degree arrays (a, d) of cfg. Raise DegreeMismatch
    unless cfg has the total degree of ctx.base: otherwise the phase
    between their canonical data keeps a multivalued log term and W is not
    defined."""
    if cfg.total_degree != ctx.base.total_degree:
        raise DegreeMismatch(
            f"configuration total degree {cfg.total_degree} differs from "
            f"the base's {ctx.base.total_degree}"
        )
    return cfg.points_array(), cfg.degrees_array()


def _moments(a, d, trunc: int) -> np.ndarray:
    """The moments sum_j d_j conj(alpha_j)^n (n = 1..trunc) of the
    configurations a (..., k) with degrees d (k,), (..., trunc)."""
    n = np.arange(1, trunc + 1)
    return np.sum(d[:, None] * np.conj(a[..., :, None]) ** n, axis=-2)


def _base_shift_coeffs(ctx: DiscEnergyContext, a, d) -> np.ndarray:
    """Coefficients b_n (n = 1..trunc) of the conjugate phase trace that
    relates the canonical data of the configurations a (..., k) with
    degrees d (k,) and of the reference configuration:
    b_n = (sum_j d_j conj(alpha_j)^n - sum_l d0_l conj(alpha0_l)^n) / n.
    The two configurations may differ in count and in degrees."""
    return (_moments(a, d, ctx.trunc) - ctx.base_moments) / np.arange(1, ctx.trunc + 1)


def _n_disc_alpha_jacobian(trunc: int, a, d) -> np.ndarray:
    """Mode-n coefficients (n = 1..trunc) of the derivatives of n_disc with
    respect to the real coordinates (x_1, y_1, x_2, y_2, ...), one row each.

    Only i n b_n depends on alpha, through db_n/dx_j = d_j conj(alpha_j)^(n-1)
    and db_n/dy_j = -i d_j conj(alpha_j)^(n-1)."""
    n = np.arange(1, trunc + 1)
    db_dx = d[:, None] * np.conj(a[:, None]) ** (n[None, :] - 1)
    db = np.empty((2 * a.size, trunc), dtype=complex)
    db[0::2] = db_dx
    db[1::2] = -1j * db_dx
    return 1j * n * db


def _composite_coeffs(ctx: DiscEnergyContext, a, d) -> np.ndarray:
    """Coefficients u_n = b_n + c_n (n = 1..trunc) of the composite
    conjugate phase trace, where c_n = -i a_n comes from the phase ctx.psi."""
    return _base_shift_coeffs(ctx, a, d) + -1j * ctx.psi.coeffs[1:]


def _seminorm(u):
    """S = 2 pi sum_n n |u_n|^2 of composite coefficients u_n (n = 1..N),
    (..., N): half the squared H^{1/2} seminorm of the composite phase."""
    n = np.arange(1, u.shape[-1] + 1)
    return 2.0 * np.pi * np.sum(n * np.abs(u) ** 2, axis=-1)


def _w_disc(ctx: DiscEnergyContext, a, d):
    """w_disc for configurations a (..., k) with degrees d (k,)."""
    return _hat_w(a, d) + _seminorm(_composite_coeffs(ctx, a, d))


def w_disc(ctx: DiscEnergyContext, cfg: VortexConfiguration) -> float:
    """Full renormalized energy W(alpha, g^0 e^{i psi}) on the disc, with
    the boundary datum of ctx: hat_w plus half the squared H^{1/2}
    seminorm of the composite phase, W = hat_w + 2 pi sum_n n |u_n|^2."""
    return float(_w_disc(ctx, *_checked(ctx, cfg)))


def _seminorm_derivs(a, d, u, second=False):
    """Wirtinger derivatives of S(alpha) = 2 pi sum n |b_n(alpha) + c_n|^2
    for configurations a (..., k) with degrees d (k,), given its composite
    coefficients u_n (n = 1..N), (..., N): b_n is antiholomorphic with
    d conj(b_n) / d alpha_j = d_j alpha_j^(n-1). Returns (du, d2) as
    _hat_w_derivs does: du (..., k); with second, d2 holds
    d^2 S/(d alpha_j d alpha_l), which is diagonal, and
    d^2 S/(d alpha_j d conj(alpha_l)), one product of the power tables.
    The table alpha_j^(n-1) is computed once for both orders."""
    n = np.arange(1, u.shape[-1] + 1)
    pw = a[..., :, None] ** (n - 1)
    du = 2.0 * np.pi * d * (pw @ (n * u)[..., None])[..., 0]
    if not second:
        return du, None
    pw2 = np.zeros_like(pw)
    pw2[..., 1:] = pw[..., :-1]
    duv = np.zeros(a.shape + a.shape[-1:], dtype=complex)
    i = np.arange(a.shape[-1])
    duv[..., i, i] = 2.0 * np.pi * d * (pw2 @ (n * (n - 1) * u)[..., None])[..., 0]
    dpw = d[:, None] * pw
    duvbar = 2.0 * np.pi * (n * dpw) @ np.swapaxes(dpw.conj(), -1, -2)
    return du, (duv, duvbar)


def _w_disc_derivs(ctx, a, d, second=False, hat=None):
    """Wirtinger derivatives of w_disc, (du, d2) as _hat_w_derivs returns
    them; the composite coefficients are computed once for both orders.
    hat, if given, is _hat_w_derivs(a, d, second), evaluated once for
    several data."""
    du_h, d2_h = _hat_w_derivs(a, d, second) if hat is None else hat
    du_s, d2_s = _seminorm_derivs(a, d, _composite_coeffs(ctx, a, d), second)
    du = du_h + du_s
    if not second:
        return du, None
    return du, (d2_h[0] + d2_s[0], d2_h[1] + d2_s[1])


def w_disc_hess(ctx: DiscEnergyContext, cfg: VortexConfiguration) -> np.ndarray:
    """Analytic alpha-Hessian of w_disc, symmetric 2k x 2k."""
    return assemble_hessian(*_w_disc_derivs(ctx, *_checked(ctx, cfg), True)[1])


def n_disc(ctx: DiscEnergyContext, cfg: VortexConfiguration) -> FourierSeries:
    """Semi-stiff trace N(alpha, g^0 e^{i psi}): the boundary function whose
    vanishing characterizes prescribed-degree critical points. Zero mean by
    construction; mode n coefficient i n u_n = n a_n + i n b_n."""
    u = _composite_coeffs(ctx, *_checked(ctx, cfg))
    return FourierSeries(np.concatenate(([0.0], 1j * np.arange(1, ctx.trunc + 1) * u)))
