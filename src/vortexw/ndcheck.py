"""Numerical certification of the two nondegeneracy conditions for a
domain Omega = f(D): (1) the best single-vortex configuration is a
nondegenerate critical point of both energies, and (2) the linearized
semi-stiff trace operator at that point is invertible on truncated
Fourier space.

The operator check is implemented for one vortex of degree one, where
the trace U(f, psi) is available in closed form through n_disc. The
operator is taken on the disc side: it maps psi to the disc trace N, not
to the Omega-side trace N / |f'|. The positive weight 1/|f'| does not
change invertibility, but it would change the truncated smallest singular
value that nd reports.

Operator matrices are (2N, 2N) arrays over the real Fourier modes in the
order (cos theta, sin theta, cos 2 theta, sin 2 theta, ..., cos N theta,
sin N theta); mode 0 is quotiented out.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._calculus import grad_to_vec
from .core import (
    ConformalPolyMap,
    VortexConfiguration,
    is_nondegenerate,
)
from .critpoint import find_max_hat_w
from .disc_energy import DiscEnergyContext, _n_disc_alpha_jacobian, _seminorm_derivs
from .errors import (
    DegenerateDerivative,
    LeftAdmissibleRegion,
    NewtonDiverged,
    NoCriticalPointFound,
)
from .transport import _transport_w_hessians, transport_w_hess

TOL_OP = 1e-3
STABILITY_REL = 1e-2


@dataclass(frozen=True)
class Nd1Report:
    alpha0: complex
    a0: complex
    hessian_hat: np.ndarray
    hessian_w: np.ndarray
    passed: bool


def check_nd1(f: ConformalPolyMap) -> Nd1Report:
    """Locate the maximizer of the transported hat_w for one vortex of
    degree one on f, a map checked when it was built, and test that it is
    a nondegenerate critical point of both energies.

    The map check bounds f', f'' and f''' on the closed disc but not f, so
    a0 = f(alpha0) can overflow: then DegenerateDerivative is raised, naming
    a0."""
    try:
        rep = find_max_hat_w(f)
    except (NewtonDiverged, LeftAdmissibleRegion) as exc:
        raise NoCriticalPointFound(str(exc)) from exc
    cfg = rep.location
    ctx = DiscEnergyContext(cfg)
    h_w = transport_w_hess(f, ctx, cfg)
    passed = rep.nondegenerate and is_nondegenerate(h_w)
    alpha0 = cfg.points[0]
    with np.errstate(over="ignore", invalid="ignore"):
        a0 = complex(f(alpha0))
    if not np.isfinite(a0):
        raise DegenerateDerivative(f"a0 = f(alpha0) overflows at alpha0 = {alpha0}")
    return Nd1Report(
        alpha0=alpha0,
        a0=a0,
        hessian_hat=rep.hessian,
        hessian_w=h_w,
        passed=passed,
    )


def du_star_matrix_analytic_disc(trunc: int) -> np.ndarray:
    """Exact matrix of the linearized trace operator on the disc with the
    vortex at the origin: diagonal (-1, -1, 2, 2, 3, 3, ..., N, N) over the
    real modes {cos n theta, sin n theta}.

    The mode-1 block picks up a rank-two correction from the motion of the
    critical vortex; every higher mode sees only the stiff part n.
    """
    if trunc < 2:
        raise ValueError("trunc must be >= 2")
    diag = np.repeat(np.arange(1, trunc + 1), 2).astype(float)
    diag[:2] = -1.0
    return np.diag(diag)


def _psi_columns(a, d, trunc: int):
    """Derivatives of N (mode-n coefficients, n = 1..trunc) and of
    grad_alpha W (real 2k-vector) along the real modes of psi in the
    standard index order, (trunc, 2 trunc) and (2k, 2 trunc), at the
    configuration a (k,) with degrees d (k,).

    Both are affine in psi. A real mode has complex coefficient
    E[n - 1, m]: 1/2 for cos n theta and -i/2 for sin n theta. N has mode
    coefficient n a_n, so dN/dpsi = n E; grad_alpha W depends on psi only
    through the seminorm term, linear in its coefficients c_n = -i a_n."""
    n = np.arange(1, trunc + 1)
    e = _mode_matrix(trunc)
    return n[:, None] * e, grad_to_vec(_seminorm_derivs(a, d, (-1j * e).T)[0].T)


def _mode_matrix(trunc: int) -> np.ndarray:
    """E of _psi_columns, (trunc, 2 trunc): the bytes of
    np.kron(np.eye(trunc), [0.5, -0.5j]), signed zeros included."""
    e = np.zeros((trunc, 2 * trunc), dtype=complex)
    e.imag[:, 1::2] = -0.0
    i = np.arange(trunc)
    e.real[i, 2 * i] = 0.5
    e.imag[i, 2 * i + 1] = -0.5
    return e


@dataclass(frozen=True)
class _OperatorTerms:
    """What the operator matrices of one nd1 share across truncations,
    built once at the largest truncation N: the W Hessians at alpha0 by
    truncation, and the psi-columns (N, 2N) and (2k, 2N) and the
    alpha-Jacobian (N, 2k) of N. A smaller truncation n takes their leading
    n rows and 2n columns, which are the arrays built at n."""

    hessians: dict
    dn_dpsi: np.ndarray
    dg_dpsi: np.ndarray
    dn_dalpha: np.ndarray


def _operator_terms(f: ConformalPolyMap, nd1: Nd1Report, truncs) -> _OperatorTerms:
    """The _OperatorTerms of the operator matrices at each truncation of
    truncs: one configuration, one evaluation of the hat_w and map terms of
    the Hessian at alpha0, and its seminorm term once per truncation."""
    if not nd1.passed:
        raise NoCriticalPointFound("no nondegenerate single-vortex critical point")
    cfg = VortexConfiguration([nd1.alpha0], (1,))
    a, d = cfg.points_array(), cfg.degrees_array()
    top = max(truncs)
    ctxs = [DiscEnergyContext(cfg, trunc=n) for n in truncs]
    hessians = dict(zip(truncs, _transport_w_hessians(f, ctxs, a, d)))
    return _OperatorTerms(hessians, *_psi_columns(a, d, top), _n_disc_alpha_jacobian(top, a, d).T)


def assemble_du_matrix(
    f: ConformalPolyMap, nd1: Nd1Report, trunc: int, terms: _OperatorTerms | None = None
) -> np.ndarray:
    """Matrix of the linearized trace operator psi -> N(alpha(psi), psi),
    where alpha(psi) is the critical point of the full energy W that
    continues nd1.alpha0, by the implicit function theorem:

        dN/dpsi = dN/dpsi|_alpha - dN/dalpha H^{-1} d(grad_alpha W)/dpsi,

    with H the alpha-Hessian of W at psi = 0 built at this truncation (its
    seminorm term depends on it). N and grad_alpha W are affine in psi, so
    their psi-derivatives are closed-form matrices (_psi_columns).
    Single vortex of degree one only.

    terms, if given, are the _OperatorTerms of f and nd1 for truncations
    that include trunc, which check_nd2 builds once for both of its own.
    """
    if terms is None:
        terms = _operator_terms(f, nd1, (trunc,))
    m = 2 * trunc
    dn_dpsi, dg_dpsi = terms.dn_dpsi[:trunc, :m], terms.dg_dpsi[:, :m]
    du = dn_dpsi - terms.dn_dalpha[:trunc] @ np.linalg.solve(terms.hessians[trunc], dg_dpsi)
    # mode coefficient c on cos n theta, sin n theta: (2 Re c, -2 Im c), the
    # packing of grad_to_vec
    return grad_to_vec(du)


@dataclass(frozen=True)
class Nd2Report:
    smallest_singular_value: float
    smallest_singular_value_refined: float
    stable: bool
    passed: bool


def check_nd2(f: ConformalPolyMap, nd1: Nd1Report, trunc: int = 16) -> Nd2Report:
    """Invertibility of the assembled operator: smallest singular value
    above tolerance and stable under doubling the truncation.

    The doubling test is a heuristic surrogate for the untruncated
    operator; smallest_singular_value_refined shows the observed change.
    """
    truncs = (trunc, 2 * trunc)
    terms = _operator_terms(f, nd1, truncs)
    sv, sv2 = (
        float(np.linalg.svd(assemble_du_matrix(f, nd1, n, terms), compute_uv=False)[-1])
        for n in truncs
    )
    rel = abs(sv2 - sv) / sv if sv > 0 else np.inf
    stable = rel < STABILITY_REL
    return Nd2Report(
        smallest_singular_value=sv,
        smallest_singular_value_refined=sv2,
        stable=stable,
        passed=bool(sv > TOL_OP and stable),
    )


def magic_determinant_check(w: complex) -> bool:
    """det(M_w - 2I) and det(M_w + 2I) agree, both equal to 4 - |w|^2,
    where M_w is the matrix of xi -> conj(w xi)."""
    w = complex(w)
    m = np.array([[w.real, -w.imag], [-w.imag, -w.real]])
    # det takes the log of each pivot, and a pivot can be exactly 0: at
    # |w| = 2 with a subnormal Im w, its square underflows
    with np.errstate(divide="ignore"):
        det_minus = float(np.linalg.det(m - 2.0 * np.eye(2)))
        det_plus = float(np.linalg.det(m + 2.0 * np.eye(2)))
    target = 4.0 - abs(w) ** 2
    scale = 1.0 + abs(target)
    return (
        abs(det_minus - det_plus) <= 1e-12 * scale
        and abs(det_minus - target) <= 1e-12 * scale
    )
