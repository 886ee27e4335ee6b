"""Newton search for critical points of the transported energies, and the
multistart maximizer of the prescribed-degree energy.

The residual is the analytic gradient; the Jacobian is the analytic
Hessian. Steps are damped by Armijo backtracking on the squared residual
norm and constrained to the admissible region (margins of core).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._calculus import grad_to_vec
from .core import (
    ConformalPolyMap,
    VortexConfiguration,
    configuration_is_admissible,
    is_nondegenerate,
    validate_configuration,
)
from .disc_energy import DiscEnergyContext, _checked
from .errors import LeftAdmissibleRegion, NewtonDiverged
from .transport import (
    _transport_hat_w,
    _transport_hat_w_du,
    _transport_hat_w_hess,
    _transport_w,
    _transport_w_du,
    _transport_w_hess,
)

TOL_NEWTON = 1e-12
MAX_ITER = 50
MULTISTART = 16


@dataclass(frozen=True)
class CriticalPointReport:
    location: VortexConfiguration
    residual_norm: float
    hessian: np.ndarray
    nondegenerate: bool
    iterations: int
    value: float


def _pack(points: np.ndarray) -> np.ndarray:
    x = np.empty(2 * points.size)
    x[0::2] = points.real
    x[1::2] = points.imag
    return x


def _unpack(x: np.ndarray) -> np.ndarray:
    return x[0::2] + 1j * x[1::2]


def _newton(x0, residual, jacobian):
    """Damped Newton on residual(x) = 0 with admissibility guard: at most
    MAX_ITER iterations, converged when |residual| <= TOL_NEWTON.

    Returns (x, |residual|, iterations). Raises NewtonDiverged or
    LeftAdmissibleRegion.
    """
    x = np.asarray(x0, dtype=float).copy()
    if not configuration_is_admissible(_unpack(x)):
        raise LeftAdmissibleRegion("initial point outside admissible region")
    r = residual(x)
    rn = np.linalg.norm(r)
    for it in range(1, MAX_ITER + 1):
        if rn <= TOL_NEWTON:
            return x, rn, it - 1
        j = jacobian(x)
        try:
            step = np.linalg.solve(j, -r)
        except np.linalg.LinAlgError as exc:
            raise NewtonDiverged(f"singular Jacobian at iteration {it}") from exc
        lam = 1.0
        while True:
            x_new = x + lam * step
            if configuration_is_admissible(_unpack(x_new)):
                r_new = residual(x_new)
                rn_new = np.linalg.norm(r_new)
                if rn_new <= (1.0 - 1e-4 * lam) * rn or rn_new <= TOL_NEWTON:
                    break
            lam *= 0.5
            if lam < 1e-12:
                if not configuration_is_admissible(_unpack(x + lam * step)):
                    raise LeftAdmissibleRegion("no admissible decreasing step found")
                raise NewtonDiverged(f"line search stalled at |F| = {rn:.3e}")
        x, r, rn = x_new, r_new, rn_new
    if rn <= TOL_NEWTON:
        return x, rn, MAX_ITER
    raise NewtonDiverged(f"|F| = {rn:.3e} after {MAX_ITER} iterations")


def _find_critical(init: VortexConfiguration, du, hess, value) -> CriticalPointReport:
    """Newton solve from init for a zero of the gradient whose Wirtinger
    derivatives du(a) are given, with Jacobian hess(a) and energy value(a),
    each a kernel on the points a (k,) of a configuration with the degrees
    of init. init is checked by the caller; _newton keeps every iterate
    admissible, so the kernels need no check."""
    x, rn, its = _newton(
        _pack(init.points_array()),
        lambda x: grad_to_vec(du(_unpack(x))),
        lambda x: hess(_unpack(x)),
    )
    a = _unpack(x)
    h = hess(a)
    return CriticalPointReport(
        location=VortexConfiguration(a, init.degrees),
        residual_norm=rn,
        hessian=h,
        nondegenerate=is_nondegenerate(h),
        iterations=its,
        value=float(value(a)),
    )


def find_critical_hat_w(f: ConformalPolyMap, init: VortexConfiguration) -> CriticalPointReport:
    """Newton solve for a zero of the gradient of hat_w + map correction."""
    validate_configuration(init)
    d = init.degrees_array()
    return _find_critical(
        init,
        lambda a: _transport_hat_w_du(f, a, d),
        lambda a: _transport_hat_w_hess(f, a, d),
        lambda a: _transport_hat_w(f, a, d),
    )


def find_critical_w(
    f: ConformalPolyMap, ctx: DiscEnergyContext, init: VortexConfiguration
) -> CriticalPointReport:
    """Newton solve for a zero of the gradient of the full energy W with the
    boundary datum of ctx."""
    _, d = _checked(ctx, init)
    return _find_critical(
        init,
        lambda a: _transport_w_du(f, ctx, a, d),
        lambda a: _transport_w_hess(f, ctx, a, d),
        lambda a: _transport_w(f, ctx, a, d),
    )


def _lattice_starts(multistart: int) -> np.ndarray:
    """Deterministic single-vortex starts, (starts, 1): the origin and a
    lattice of 4 radii up to 0.8 times max(1, (multistart - 1) // 4)
    angles, cut to the first max(multistart, 2). That is
    1 + 4 * ((multistart - 1) // 4) starts for multistart >= 5, multistart
    starts for 2 to 4 and 2 for multistart = 1."""
    n_r, n_t = 4, max(1, (multistart - 1) // 4)
    starts = [0.0] + [
        0.8 * i / n_r * np.exp(1j * (2 * np.pi * j / n_t + 0.3 * i))
        for i in range(1, n_r + 1)
        for j in range(n_t)
    ]
    return np.array(starts[: max(multistart, 2)], dtype=complex)[:, None]


def _ascend(f: ConformalPolyMap, starts: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Up to 40 damped gradient-ascent steps on the transported hat_w from
    every start at once, starts (starts, k) with degrees d (k,); pulls each
    start into the Newton basin of a maximizer.

    Each start keeps its own step size (0.05, halved on every rejected
    step). A step is taken along g / max(1, |g|), g the real gradient in
    complex form, and accepted when it stays admissible and raises hat_w.
    A start stops when |g| < 1e-3 or its step falls below 1e-6."""
    pts = starts.copy()
    val = _transport_hat_w(f, pts, d)
    step = np.full(len(pts), 0.05)
    active = np.ones(len(pts), dtype=bool)
    for _ in range(40):
        g = 2.0 * np.conj(_transport_hat_w_du(f, pts, d))
        # |g| summed as np.linalg.norm sums one start, so each start takes
        # the steps it would take alone
        gn = np.sqrt(np.vecdot(g.real, g.real) + np.vecdot(g.imag, g.imag))
        active &= gn >= 1e-3
        if not active.any():
            break
        cand = pts + step[:, None] * g / np.maximum(1.0, gn)[:, None]
        ok = active & configuration_is_admissible(cand)
        cand_val = _transport_hat_w(f, cand[ok], d)
        up = np.zeros_like(ok)
        up[ok] = cand_val > val[ok]
        pts[up] = cand[up]
        val[up] = cand_val[up[ok]]
        down = active & ~up
        step[down] *= 0.5
        active &= ~(down & (step < 1e-6))
    return pts


def find_max_hat_w(f: ConformalPolyMap) -> CriticalPointReport:
    """Interior maximizer of the transported hat_w for one vortex of degree
    one: the best critical point found by Newton polish
    (find_critical_hat_w) of a batched ascent from each of the 13 starts of
    _lattice_starts(MULTISTART). Starts whose polish fails are dropped."""
    results = []
    for pts in _ascend(f, _lattice_starts(MULTISTART), np.ones(1)):
        try:
            rep = find_critical_hat_w(f, VortexConfiguration(pts, (1,)))
        except (NewtonDiverged, LeftAdmissibleRegion):
            continue
        results.append(rep)
    if not results:
        raise NewtonDiverged("no start converged")
    # largest value wins; near-ties resolved by smallest |alpha|
    return min(results, key=lambda rep: (-rep.value, abs(rep.location.points[0])))

