"""Newton search for critical points of the transported energies, and the
single-vortex maximizer of the prescribed-degree energy (one batched Newton
solve from a fixed lattice of starts).

The residual is the analytic gradient; the Jacobian is the analytic
Hessian. Steps are damped by Armijo backtracking on the squared residual
norm and constrained to the admissible region (margins of core).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConformalPolyMap,
    VortexConfiguration,
    configuration_is_admissible,
    is_nondegenerate,
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


@dataclass(frozen=True)
class CriticalPointReport:
    location: VortexConfiguration
    residual_norm: float
    hessian: np.ndarray
    nondegenerate: bool
    iterations: int
    value: float


def _pack(points: np.ndarray) -> np.ndarray:
    """Real coordinates (x1, y1, x2, y2, ...) of points (..., k), (..., 2k)."""
    x = np.empty(points.shape[:-1] + (2 * points.shape[-1],))
    x[..., 0::2] = points.real
    x[..., 1::2] = points.imag
    return x


def _unpack(x: np.ndarray) -> np.ndarray:
    return x[..., 0::2] + 1j * x[..., 1::2]


def _norms(r: np.ndarray) -> np.ndarray:
    # summed as np.linalg.norm sums one row, so each row takes the steps it
    # would take alone
    return np.sqrt(np.vecdot(r, r))


def _newton(x0, residual, jacobian):
    """Damped Newton on residual(x) = 0 from every row of x0 (m, 2k) at once,
    with admissibility guard. residual maps rows (n, 2k) to (n, 2k) and
    jacobian maps them to (n, 2k, 2k); both see admissible rows only.

    Each row takes the iterates it would take alone: Armijo backtracking
    from its full Newton step, at most MAX_ITER iterations, converged when
    |residual| <= TOL_NEWTON. A row is dropped with NewtonDiverged
    (singular Jacobian, stalled line search, no convergence) or
    LeftAdmissibleRegion.

    Returns (x, |residual|, iterations, errors), one entry per row; errors
    holds None for a converged row and the exception for a dropped one.
    """
    x = np.array(x0, dtype=float)
    m = len(x)
    r = np.zeros_like(x)
    rn = np.full(m, np.inf)
    its = np.zeros(m, dtype=int)
    active = configuration_is_admissible(_unpack(x))
    errors = [
        None if ok else LeftAdmissibleRegion("initial point outside admissible region")
        for ok in active
    ]
    if active.any():
        r[active] = residual(x[active])
        rn[active] = _norms(r[active])
    for it in range(1, MAX_ITER + 2):
        done = active & (rn <= TOL_NEWTON)
        its[done] = it - 1
        active &= ~done
        rows = np.flatnonzero(active)
        if it > MAX_ITER:
            for i in rows:
                errors[i] = NewtonDiverged(f"|F| = {rn[i]:.3e} after {MAX_ITER} iterations")
            break
        if rows.size == 0:
            break
        j = jacobian(x[rows])
        step = np.zeros_like(x)
        try:
            step[rows] = np.linalg.solve(j, -r[rows][..., None])[..., 0]
        except np.linalg.LinAlgError:
            # one solve per row gives the same bits and names the singular ones
            for n, i in enumerate(rows):
                try:
                    step[i] = np.linalg.solve(j[n], -r[i])
                except np.linalg.LinAlgError:
                    errors[i] = NewtonDiverged(f"singular Jacobian at iteration {it}")
                    active[i] = False
            rows = rows[active[rows]]
        # every row starts its backtracking from the full step here, so the
        # rows still searching share one step size
        lam = 1.0
        while rows.size:
            cand = x[rows] + lam * step[rows]
            ok = configuration_is_admissible(_unpack(cand))
            took = np.zeros(rows.size, dtype=bool)
            if ok.any():
                r_new = residual(cand[ok])
                rn_new = _norms(r_new)
                took[ok] = (rn_new <= (1.0 - 1e-4 * lam) * rn[rows[ok]]) | (rn_new <= TOL_NEWTON)
                moved = rows[took]
                x[moved] = cand[took]
                r[moved] = r_new[took[ok]]
                rn[moved] = rn_new[took[ok]]
            rows = rows[~took]
            lam *= 0.5
            if lam < 1e-12:
                for i in rows:
                    if not configuration_is_admissible(_unpack(x[i] + lam * step[i])):
                        errors[i] = LeftAdmissibleRegion("no admissible decreasing step found")
                    else:
                        errors[i] = NewtonDiverged(f"line search stalled at |F| = {rn[i]:.3e}")
                    active[i] = False
                break
    return x, rn, its, errors


def _polish(starts: np.ndarray, degrees: tuple, du, hess, value) -> list:
    """Newton solves from every start (m, k) at once for zeros of the
    gradient whose Wirtinger derivatives du(a) are given, with Jacobian
    hess(a) and energy value(a): kernels on configurations a (n, k) with
    these degrees, returning (n, k), (n, 2k, 2k) and (n,). _newton drops
    an inadmissible start and keeps every iterate admissible, so the
    kernels need no check.

    Returns one entry per start: its CriticalPointReport, or the
    NewtonDiverged or LeftAdmissibleRegion that dropped it."""
    x, rn, its, out = _newton(
        _pack(starts),
        lambda x: _pack(2.0 * np.conj(du(_unpack(x)))),
        lambda x: hess(_unpack(x)),
    )
    kept = [i for i, error in enumerate(out) if error is None]
    if kept:
        a = _unpack(x[kept])
        h, v = hess(a), value(a)
        nondegenerate = is_nondegenerate(h)
        for n, i in enumerate(kept):
            out[i] = CriticalPointReport(
                location=VortexConfiguration(a[n], degrees),
                residual_norm=rn[i],
                hessian=h[n],
                nondegenerate=bool(nondegenerate[n]),
                iterations=int(its[i]),
                value=float(v[n]),
            )
    return out


def _find_critical(init: VortexConfiguration, du, hess, value) -> CriticalPointReport:
    """_polish from init alone; raises the error that drops it."""
    (rep,) = _polish(init.points_array()[None], init.degrees, du, hess, value)
    if not isinstance(rep, CriticalPointReport):
        raise rep
    return rep


def _hat_w_kernels(f: ConformalPolyMap, d: np.ndarray):
    """The kernels du, hess and value of _polish for the transported hat_w
    with degrees d (k,)."""
    return (
        lambda a: _transport_hat_w_du(f, a, d),
        lambda a: _transport_hat_w_hess(f, a, d),
        lambda a: _transport_hat_w(f, a, d),
    )


def _w_kernels(f: ConformalPolyMap, ctx: DiscEnergyContext, d: np.ndarray):
    """The kernels of _polish for the transported W with the datum of ctx."""
    return (
        lambda a: _transport_w_du(f, ctx, a, d),
        lambda a: _transport_w_hess(f, ctx, a, d),
        lambda a: _transport_w(f, ctx, a, d),
    )


def find_critical_hat_w(f: ConformalPolyMap, init: VortexConfiguration) -> CriticalPointReport:
    """Newton solve for a zero of the gradient of hat_w + map correction."""
    return _find_critical(init, *_hat_w_kernels(f, init.degrees_array()))


def find_critical_w(
    f: ConformalPolyMap, ctx: DiscEnergyContext, init: VortexConfiguration
) -> CriticalPointReport:
    """Newton solve for a zero of the gradient of the full energy W with the
    boundary datum of ctx."""
    _, d = _checked(ctx, init)
    return _find_critical(init, *_w_kernels(f, ctx, d))


def _lattice_starts() -> np.ndarray:
    """The 13 deterministic single-vortex starts, (13, 1): the origin and
    radii 0.2, 0.4, 0.6 and 0.8 at 3 angles each."""
    starts = [0.0] + [
        0.2 * i * np.exp(1j * (2 * np.pi * j / 3 + 0.3 * i))
        for i in range(1, 5)
        for j in range(3)
    ]
    return np.array(starts, dtype=complex)[:, None]


def find_max_hat_w(f: ConformalPolyMap) -> CriticalPointReport:
    """Interior maximizer of the transported hat_w for one vortex of degree
    one: the best critical point found by one batched Newton solve
    (_polish) from the 13 starts of _lattice_starts(). Starts whose solve
    fails are dropped."""
    d = np.ones(1)
    results = [
        rep
        for rep in _polish(_lattice_starts(), (1,), *_hat_w_kernels(f, d))
        if isinstance(rep, CriticalPointReport)
    ]
    if not results:
        raise NewtonDiverged("no start converged")
    # largest value wins; only an exact tie in value falls to the smaller |alpha|
    return min(results, key=lambda rep: (-rep.value, abs(rep.location.points[0])))
