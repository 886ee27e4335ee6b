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
    _transport_hat_w_derivs,
    _transport_w,
    _transport_w_derivs,
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


# Newton iterates are real rows (x1, y1, x2, y2, ...), (..., 2k): the
# float view of complex points (..., k), whose complex view the kernels
# read. A view keeps a -0.0 coordinate; _unpack, which builds the reported
# locations, makes a -0.0 imaginary part +0.0.


def _unpack(x: np.ndarray) -> np.ndarray:
    return x[..., 0::2] + 1j * x[..., 1::2]


def _norms(r: np.ndarray) -> np.ndarray:
    # summed as np.linalg.norm sums one row, so each row takes the steps it
    # would take alone
    return np.sqrt(np.vecdot(r, r))


def _newton(x0, derivs):
    """Damped Newton on F(x) = 0 from every row of x0 (m, 2k) at once, with
    admissibility guard. derivs maps rows (n, 2k) to the residuals F (n, 2k)
    and the Jacobians (n, 2k, 2k) there. It sees admissible rows only: the
    starts, then the candidates of each line-search trial, whose Jacobians
    are kept for the candidates accepted, for the next step.

    Each row takes the iterates it would take alone: Armijo backtracking
    from its full Newton step, at most MAX_ITER iterations, converged when
    |F| <= TOL_NEWTON. A row is dropped with NewtonDiverged (singular
    Jacobian, stalled line search, no convergence) or LeftAdmissibleRegion.

    Returns (x, |F|, iterations, jacobians, errors), one entry per row: the
    Jacobian is the one evaluated with the last accepted iterate, and errors
    holds None for a converged row and the exception for a dropped one.
    """
    x = np.array(x0, dtype=float)
    m, size = x.shape
    rn = np.full(m, np.inf)
    its = np.zeros(m, dtype=int)
    jac = np.zeros((m, size, size))
    live = configuration_is_admissible(x.view(complex))
    errors = [
        None if ok else LeftAdmissibleRegion("initial point outside admissible region")
        for ok in live
    ]
    # the live rows, compacted: indices, iterates, residuals, norms, Jacobians
    rows = np.flatnonzero(live)
    if rows.size == 0:
        return x, rn, its, jac, errors
    xs = x[rows]
    r, j = derivs(xs)
    rns = _norms(r)

    def retire(out):
        # write the live rows selected by out to the outputs, and drop them
        nonlocal rows, xs, r, rns, j
        gone = rows[out]
        x[gone], rn[gone], jac[gone] = xs[out], rns[out], j[out]
        keep = ~out
        rows, xs, r, rns, j = rows[keep], xs[keep], r[keep], rns[keep], j[keep]

    for it in range(1, MAX_ITER + 2):
        done = rns <= TOL_NEWTON
        if done.any():
            its[rows[done]] = it - 1
            retire(done)
        if rows.size == 0:
            break
        if it > MAX_ITER:
            for i, v in zip(rows, rns):
                errors[i] = NewtonDiverged(f"|F| = {v:.3e} after {MAX_ITER} iterations")
            retire(np.ones(rows.size, dtype=bool))
            break
        try:
            step = np.linalg.solve(j, -r[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # one solve per row gives the same bits and names the singular ones
            step = np.zeros_like(xs)
            singular = np.zeros(rows.size, dtype=bool)
            for n in range(rows.size):
                try:
                    step[n] = np.linalg.solve(j[n], -r[n])
                except np.linalg.LinAlgError:
                    errors[rows[n]] = NewtonDiverged(f"singular Jacobian at iteration {it}")
                    singular[n] = True
            retire(singular)
            step = step[~singular]
        # every row starts its backtracking from the full step here, so the
        # rows still searching share one step size; search indexes the live
        # rows that have not taken a step yet
        lam = 1.0
        search = np.arange(rows.size)
        while search.size:
            cand = xs[search] + lam * step[search]
            ok = configuration_is_admissible(cand.view(complex))
            every = ok.all()
            tried, cand = (search, cand) if every else (search[ok], cand[ok])
            if tried.size:
                r_new, j_new = derivs(cand)
                rn_new = _norms(r_new)
                took = (rn_new <= (1.0 - 1e-4 * lam) * rns[tried]) | (rn_new <= TOL_NEWTON)
                moved = tried[took]
                xs[moved], r[moved] = cand[took], r_new[took]
                rns[moved], j[moved] = rn_new[took], j_new[took]
                if every:
                    search = search[~took]
                else:
                    left = ~ok
                    left[ok] = ~took
                    search = search[left]
            lam *= 0.5
            if lam < 1e-12:
                for n in search:
                    if not configuration_is_admissible((xs[n] + lam * step[n]).view(complex)):
                        errors[rows[n]] = LeftAdmissibleRegion("no admissible decreasing step found")
                    else:
                        errors[rows[n]] = NewtonDiverged(f"line search stalled at |F| = {rns[n]:.3e}")
                retire(np.isin(np.arange(rows.size), search))
                break
    return x, rn, its, jac, errors


def _solve(starts: np.ndarray, derivs, value):
    """_newton from every start (m, k) at once on the gradient of an energy
    given by kernels on configurations a (n, k): derivs(a) gives its first
    Wirtinger derivatives (n, k) and Hessians (n, 2k, 2k), value(a) its
    values (n,). _newton keeps every iterate admissible, so the kernels
    need no check. Returns the errors of _newton, one per start, and for the
    converged starts in start order (points (n, k), |gradient| (n,),
    iterations (n,), Hessians at the last accepted iterates, values (n,))."""

    def residual_jacobian(x):
        du, h = derivs(x.view(complex))
        return (2.0 * np.conj(du)).view(float), h

    x, rn, its, h, errors = _newton(starts.view(float), residual_jacobian)
    kept = [i for i, error in enumerate(errors) if error is None]
    a = _unpack(x[kept])
    return errors, (a, rn[kept], its[kept], h[kept], value(a) if kept else np.zeros(0))


def _reports(degrees: tuple, a, rn, its, h, v) -> list:
    """One CriticalPointReport per converged start of _solve's arrays."""
    return [
        CriticalPointReport(VortexConfiguration(p, degrees), r, hn, bool(nd), int(i), float(val))
        for p, r, hn, nd, i, val in zip(a, rn, h, is_nondegenerate(h), its, v)
    ]


def _find_critical(init: VortexConfiguration, derivs, value) -> CriticalPointReport:
    """_solve from init alone; raises the error that drops it."""
    (error,), solved = _solve(init.points_array()[None], derivs, value)
    if error is not None:
        raise error
    (rep,) = _reports(init.degrees, *solved)
    return rep


def _hat_w_kernels(f: ConformalPolyMap, d: np.ndarray):
    """The kernels derivs and value of _solve for the transported hat_w
    with degrees d (k,)."""
    return (
        lambda a: _transport_hat_w_derivs(f, a, d, True),
        lambda a: _transport_hat_w(f, a, d),
    )


def _w_kernels(f: ConformalPolyMap, ctx: DiscEnergyContext, d: np.ndarray):
    """The kernels of _solve for the transported W with the datum of ctx."""
    return (
        lambda a: _transport_w_derivs(f, ctx, a, d, True),
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


# The 13 deterministic single-vortex starts of find_max_hat_w, (13, 1): the
# origin and radii 0.2, 0.4, 0.6 and 0.8 at 3 angles each.
_LATTICE_STARTS = np.array(
    [0.0]
    + [0.2 * i * np.exp(1j * (2 * np.pi * j / 3 + 0.3 * i)) for i in range(1, 5) for j in range(3)],
    dtype=complex,
).reshape(13, 1)
_LATTICE_STARTS.setflags(write=False)


def find_max_hat_w(f: ConformalPolyMap) -> CriticalPointReport:
    """Interior maximizer of the transported hat_w for one vortex of degree
    one: the best critical point found by one batched Newton solve
    (_solve) from the 13 starts of _LATTICE_STARTS. Starts whose solve
    fails are dropped. Only the winner gets a report: one configuration is
    built and one Hessian tested for nondegeneracy."""
    _, solved = _solve(_LATTICE_STARTS, *_hat_w_kernels(f, np.ones(1)))
    a, v = solved[0], solved[-1]
    if not len(a):
        raise NewtonDiverged("no start converged")
    # largest value wins; only an exact tie in value falls to the smaller |alpha|
    best = min(range(len(a)), key=lambda n: (-v[n], abs(a[n, 0])))
    (rep,) = _reports((1,), *(arr[best : best + 1] for arr in solved))
    return rep
