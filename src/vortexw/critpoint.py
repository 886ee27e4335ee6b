"""Newton search and continuation for critical points of the transported
energies.

The residual is the analytic gradient; the Jacobian is the analytic
Hessian. Steps are damped by Armijo backtracking on the squared residual
norm and constrained to the admissible region (margins of core).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConformalPolyMap,
    FourierSeries,
    VortexConfiguration,
    configuration_is_admissible,
    is_nondegenerate,
    validate_configuration,
)
from .disc_energy import DiscEnergyContext
from .errors import LeftAdmissibleRegion, NewtonDiverged, NondegeneracyLost
from .transport import (
    transport_hat_w,
    transport_hat_w_grad,
    transport_hat_w_hess,
    transport_w,
    transport_w_grad,
    transport_w_hess,
)

TOL_NEWTON = 1e-12
MAX_ITER = 50


@dataclass(frozen=True)
class CriticalPointReport:
    location: VortexConfiguration
    residual_norm: float
    hessian: np.ndarray
    nondegenerate: bool
    iterations: int
    converged: bool
    value: float
    global_candidate: bool = False


def _pack(points: np.ndarray) -> np.ndarray:
    x = np.empty(2 * points.size)
    x[0::2] = points.real
    x[1::2] = points.imag
    return x


def _unpack(x: np.ndarray) -> np.ndarray:
    return x[0::2] + 1j * x[1::2]


def _newton(x0, residual, jacobian, tol=TOL_NEWTON, max_iter=MAX_ITER):
    """Damped Newton on residual(x) = 0 with admissibility guard.

    Returns (x, |residual|, iterations). Raises NewtonDiverged or
    LeftAdmissibleRegion.
    """
    x = np.asarray(x0, dtype=float).copy()
    if not configuration_is_admissible(_unpack(x)):
        raise LeftAdmissibleRegion("initial point outside admissible region")
    r = residual(x)
    rn = np.linalg.norm(r)
    for it in range(1, max_iter + 1):
        if rn <= tol:
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
                if rn_new <= (1.0 - 1e-4 * lam) * rn or rn_new <= tol:
                    break
            lam *= 0.5
            if lam < 1e-12:
                raise LeftAdmissibleRegion(
                    "no admissible decreasing step found"
                ) if not configuration_is_admissible(_unpack(x + lam * step)) else NewtonDiverged(
                    f"line search stalled at |F| = {rn:.3e}"
                )
        x, r, rn = x_new, r_new, rn_new
    if rn <= tol:
        return x, rn, max_iter
    raise NewtonDiverged(f"|F| = {rn:.3e} after {max_iter} iterations")


def find_critical_hat_w(
    f: ConformalPolyMap,
    init: VortexConfiguration,
    tol: float = TOL_NEWTON,
    max_iter: int = MAX_ITER,
) -> CriticalPointReport:
    """Newton solve for a zero of the gradient of hat_w + map correction."""
    validate_configuration(init)
    degrees = init.degrees

    def residual(x):
        return transport_hat_w_grad(f, VortexConfiguration(_unpack(x), degrees))

    def jacobian(x):
        return transport_hat_w_hess(f, VortexConfiguration(_unpack(x), degrees))

    x, rn, its = _newton(_pack(init.points_array()), residual, jacobian, tol, max_iter)
    loc = VortexConfiguration(_unpack(x), degrees)
    h = transport_hat_w_hess(f, loc)
    return CriticalPointReport(
        location=loc,
        residual_norm=rn,
        hessian=h,
        nondegenerate=is_nondegenerate(h),
        iterations=its,
        converged=True,
        value=transport_hat_w(f, loc),
    )


def find_critical_w(
    f: ConformalPolyMap,
    ctx: DiscEnergyContext,
    psi: FourierSeries,
    init: VortexConfiguration,
    tol: float = TOL_NEWTON,
    max_iter: int = MAX_ITER,
) -> CriticalPointReport:
    """Newton solve for a zero of the gradient of the full energy W."""
    validate_configuration(init)
    degrees = init.degrees

    def residual(x):
        return transport_w_grad(f, ctx, VortexConfiguration(_unpack(x), degrees), psi)

    def jacobian(x):
        return transport_w_hess(f, ctx, VortexConfiguration(_unpack(x), degrees), psi)

    x, rn, its = _newton(_pack(init.points_array()), residual, jacobian, tol, max_iter)
    loc = VortexConfiguration(_unpack(x), degrees)
    h = transport_w_hess(f, ctx, loc, psi)
    return CriticalPointReport(
        location=loc,
        residual_norm=rn,
        hessian=h,
        nondegenerate=is_nondegenerate(h),
        iterations=its,
        converged=True,
        value=transport_w(f, ctx, loc, psi),
    )


def _lattice_starts(multistart: int, k: int, degrees) -> list:
    """Deterministic start list: radial-angular lattice of radius 0.8 for a
    single vortex, seeded random draws for several."""
    starts = []
    if k == 1:
        starts.append(VortexConfiguration([0.0], degrees))
        n_r, n_t = 4, max(1, (multistart - 1) // 4)
        for i in range(1, n_r + 1):
            r = 0.8 * i / n_r
            for j in range(n_t):
                th = 2 * np.pi * j / n_t + 0.3 * i
                starts.append(VortexConfiguration([r * np.exp(1j * th)], degrees))
                if len(starts) >= multistart:
                    return starts
        return starts
    rng = np.random.default_rng(2357)
    while len(starts) < multistart:
        pts = 0.8 * np.sqrt(rng.uniform(0, 1, k)) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, k)
        )
        if configuration_is_admissible(pts):
            starts.append(VortexConfiguration(pts, degrees))
    return starts


def find_max_hat_w(
    f: ConformalPolyMap,
    multistart: int = 16,
    degrees=(1,),
) -> CriticalPointReport:
    """Multistart ascent + Newton polish for an interior maximizer of the
    transported hat_w; returns the best critical point found."""
    degrees = tuple(degrees)
    k = len(degrees)
    results = []
    for start in _lattice_starts(multistart, k, degrees):
        pts = start.points_array()
        # a few ascent steps pull the start into the Newton basin
        step = 0.05
        for _ in range(40):
            cfg = VortexConfiguration(pts, degrees)
            g = _unpack(transport_hat_w_grad(f, cfg))
            if np.linalg.norm(g) < 1e-3:
                break
            cand = pts + step * g / max(1.0, np.linalg.norm(g))
            if configuration_is_admissible(cand) and transport_hat_w(
                f, VortexConfiguration(cand, degrees)
            ) > transport_hat_w(f, cfg):
                pts = cand
            else:
                step *= 0.5
                if step < 1e-6:
                    break
        try:
            rep = find_critical_hat_w(f, VortexConfiguration(pts, degrees))
        except (NewtonDiverged, LeftAdmissibleRegion):
            continue
        results.append(rep)
    if not results:
        raise NewtonDiverged("no start converged")
    # largest value wins; near-ties resolved by smallest max |alpha|
    def key(rep):
        return (-rep.value, max(abs(p) for p in rep.location.points))

    results.sort(key=key)
    best = results[0]
    agree = all(
        np.allclose(
            np.sort_complex(r.location.points_array()),
            np.sort_complex(best.location.points_array()),
            atol=1e-8,
        )
        for r in results
    )
    return CriticalPointReport(
        location=best.location,
        residual_norm=best.residual_norm,
        hessian=best.hessian,
        nondegenerate=best.nondegenerate,
        iterations=best.iterations,
        converged=True,
        value=best.value,
        global_candidate=agree,
    )


def continue_critical(
    path,
    start: CriticalPointReport,
    ctx: DiscEnergyContext | None = None,
) -> list:
    """Warm-started Newton along a path of (f, psi) pairs.

    psi = None selects the prescribed-degree energy hat_w; otherwise the
    full energy (ctx required). Raises NondegeneracyLost as soon as a step
    produces a degenerate Hessian.
    """
    if not (start.converged and start.nondegenerate):
        raise NondegeneracyLost("continuation requires a nondegenerate start")
    reports = []
    current = start.location
    for f, psi in path:
        if psi is None:
            rep = find_critical_hat_w(f, current)
        else:
            if ctx is None:
                raise ValueError("ctx required for full-energy continuation")
            rep = find_critical_w(f, ctx, psi, current)
        if not rep.nondegenerate:
            raise NondegeneracyLost(
                f"degenerate Hessian at {rep.location.points}"
            )
        reports.append(rep)
        current = rep.location
    return reports
