"""The four workloads: seeded command lines for ``vortexw.cli.run`` and the
check of each command's output against ``refs``.

A workload is a fixed list of operations (one pass). The seed moves the
continuous inputs (map coefficients, vortex positions and degrees, phases)
but never the make-up of a pass: which subcommands, how many vortices,
which grid sizes and truncations. So every pass of every seed does about
the same work, and the same share of operations hits a known fault.

A check returns "ok", returns "failed" when the output shows one of the
two known faults named in README.md, and raises CheckError for anything
else.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import refs

WORKLOADS = ("certify", "expand", "landscape", "manyvortex")

# cli defaults the references must mirror
TRUNC = 64
GRID_HALF_WIDTH = 0.95
BOUNDARY_MARGIN = 1e-3

# tolerances; README.md says where each comes from
TOL_VALUE = 1e-10
TOL_LANDSCAPE = 1e-12
TOL_GRAD = 1e-6
TOL_ALPHA = 1e-9
TOL_SIGMA = 1e-6
TOL_FIT = 1e-2
TOL_SLOPE = 0.05
TOL_POLYGON = 1e-8


class CheckError(Exception):
    """An output that disagrees with the references."""


@dataclass(frozen=True)
class Op:
    argv: tuple
    check: Callable  # (rc, stdout, stderr) -> "ok" | "failed"


# ----------------------------------------------------------- formatting


def _num(x) -> str:
    return repr(float(x))


def _cnum(c) -> str:
    c = complex(c)
    if c.imag == 0.0:
        return _num(c.real)
    sign = "-" if math.copysign(1.0, c.imag) < 0 else "+"
    return f"{_num(c.real)}{sign}{_num(abs(c.imag))}j"


def _map_flag(coeffs) -> str:
    if list(coeffs) == [0.0, 1.0]:
        return "--map=identity"
    return "--map=" + ",".join(_cnum(c) for c in coeffs)


def _points_flags(flag, points, degrees) -> list:
    return [f"--{flag}={_num(p.real)},{_num(p.imag)},{int(d)}" for p, d in zip(points, degrees)]


def _psi_flag(cos, sin) -> str:
    if not len(cos) and not len(sin):
        return "zero"
    return json.dumps({"cos": [float(v) for v in cos], "sin": [float(v) for v in sin]})


# ------------------------------------------------------------- sampling


def _unit(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


def _near_disc_map(rng, cubic: bool) -> list:
    """z + c z^2 with real c, or z + c2 z^2 + c3 z^3 with small complex
    coefficients; |f'| >= 1/2 on the closed disc."""
    if not cubic:
        return [0.0, 1.0, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 0.25))]
    return [0.0, 1.0, rng.uniform(0.02, 0.12) * _unit(rng), rng.uniform(0.005, 0.03) * _unit(rng)]


def _scattered_points(rng, k, radius, separation) -> np.ndarray:
    pts = []
    while len(pts) < k:
        p = radius * np.sqrt(rng.uniform()) * _unit(rng)
        if all(abs(p - q) >= separation for q in pts):
            pts.append(p)
    return np.array(pts)


def _mixed_degrees(rng, k) -> np.ndarray:
    return rng.choice([-2, -1, 1, 2], size=k)


# --------------------------------------------------------------- parsing


def _payload(rc, out, err):
    if rc != 0:
        raise CheckError(f"exit {rc!r}, stderr {err.strip()[:200]!r}")
    try:
        return json.loads(out, parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckError(f"stdout is not strict JSON: {exc}") from exc


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def _complex(obj) -> complex:
    return complex(obj["re"], obj["im"])


def _close(name, got, want, tol, scale=None):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckError(f"{name}: shape {got.shape} != {want.shape}")
    s = max(1.0, float(np.max(np.abs(want)))) if scale is None else scale
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err <= tol * s:
        raise CheckError(f"{name}: error {err:.3e} > {tol:.0e} x {s:.3g}")


# -------------------------------------------------------------- certify


def _check_nd(coeffs, trunc, closed_form):
    def check(rc, out, err):
        r = _payload(rc, out, err)
        if r["nd1"] != "pass" or r["nd2"] != "pass" or r["stable"] is not True:
            raise CheckError(f"verdicts nd1={r['nd1']} nd2={r['nd2']} stable={r['stable']}")
        alpha_ref = refs.single_vortex_maximizer(coeffs)
        if closed_form is not None and abs(alpha_ref - closed_form) > 1e-12:
            raise CheckError(f"reference Newton {alpha_ref} != closed form {closed_form}")
        # the maximizer must be global: no point of a polar grid beats it
        grid = np.linspace(0.0, 0.99, 100)[:, None] * np.exp(1j * np.linspace(0, 2 * np.pi, 128))
        top = refs.single_vortex_landscape(alpha_ref, 1, coeffs)
        if np.max(refs.single_vortex_landscape(grid, 1, coeffs)) > top + 1e-12:
            raise CheckError("reference critical point is not the maximizer")
        alpha0 = _complex(r["alpha0"])
        if abs(alpha0 - alpha_ref) > TOL_ALPHA:
            raise CheckError(f"alpha0 {alpha0} vs reference {alpha_ref}")
        a0 = complex(np.polynomial.polynomial.polyval(alpha0, np.asarray(coeffs, dtype=complex)))
        if abs(_complex(r["a0"]) - a0) > 1e-12:
            raise CheckError(f"a0 {r['a0']} != f(alpha0) = {a0}")
        sigma = refs.trace_operator_sigma_min(coeffs, alpha_ref, trunc)
        sigma2 = refs.trace_operator_sigma_min(coeffs, alpha_ref, 2 * trunc)
        _close("sigma_min", r["sigma_min"], sigma, TOL_SIGMA, scale=1.0)
        _close("sigma_min_refined", r["sigma_min_refined"], sigma2, TOL_SIGMA, scale=1.0)
        return "ok"

    return check


def certify_ops(rng) -> list:
    """nd on the identity and on two z + c z^2 and two cubic maps; four of
    the six at trunc 16, so the median operation is a trunc-16 one rather
    than a mean of the two clusters."""
    identity = ([0.0, 1.0], 0.0)
    maps = []
    for cubic in (False, True, False, True):
        coeffs = _near_disc_map(rng, cubic)
        maps.append((coeffs, None if cubic else refs.quadratic_maximizer(coeffs[2])))
    plan = [(identity, 8), (maps[0], 8), (maps[1], 16), (maps[2], 16), (maps[3], 16), (identity, 16)]
    ops = []
    for (coeffs, closed), trunc in plan:
        argv = ("nd", _map_flag(coeffs), "--trunc", str(trunc))
        ops.append(Op(argv, _check_nd(coeffs, trunc, closed)))
    return ops


# --------------------------------------------------------------- expand


def _check_expand(points, degrees, cos, sin, rho):
    base_pts, base_degs = (np.zeros(1), degrees) if len(points) == 1 else (points, degrees)

    def check(rc, out, err):
        r = _payload(rc, out, err)
        w = float(refs.w_disc(points, degrees, base_pts, base_degs, cos, sin, TRUNC))
        _close("rho", r["rho"], rho, 0.0)
        _close("w_formula", r["w_formula"], w, TOL_VALUE)
        _close("w_estimate", r["w_estimate"], w, TOL_FIT, scale=1.0)
        e = np.asarray(r["energies"], dtype=float)
        if e.shape != (len(rho),) or not np.all(np.isfinite(e)):
            raise CheckError(f"energies {r['energies']}")
        lr = np.log(1.0 / np.asarray(rho))
        slopes = -np.diff(e) / -np.diff(lr)
        want = np.pi * float(np.sum(np.asarray(degrees, dtype=float) ** 2))
        _close("log slope", slopes, np.full(slopes.shape, want), TOL_SLOPE, scale=want)
        return "ok"

    return check


# (degrees, psi modes, radii) per operation of a pass
_EXPAND_PASS = (
    ((1,), 0, (0.02, 0.01, 0.005)),
    ((-2,), 3, (0.02, 0.01, 0.005, 0.0025)),
    ((1, -1), 2, (0.01, 0.005, 0.0025)),
    ((2, -1, 1), 0, (0.01, 0.005, 0.0025, 0.00125)),
)


def expand_ops(rng) -> list:
    """expand on the identity: 1-3 vortices of mixed degree at |a| <= 0.55,
    at least 0.3 apart, so every radius is below half the clearance."""
    ops = []
    for degrees, modes, rho in _EXPAND_PASS:
        pts = _scattered_points(rng, len(degrees), 0.55, 0.3)
        cos = rng.uniform(-0.2, 0.2, modes)
        sin = rng.uniform(-0.2, 0.2, modes)
        argv = (
            "expand",
            "--map=identity",
            *_points_flags("vortex", pts, degrees),
            "--psi",
            _psi_flag(cos, sin),
            "--rho",
            ",".join(_num(x) for x in rho),
        )
        ops.append(Op(argv, _check_expand(pts, degrees, cos, sin, rho)))
    return ops


# ------------------------------------------------------------ landscape


def _check_landscape(coeffs, grid, degree, csv):
    xs = np.linspace(-GRID_HALF_WIDTH, GRID_HALF_WIDTH, grid)
    px, py = np.meshgrid(xs, xs)  # row-major: y outer, x inner
    p = (px + 1j * py).ravel()
    outside = np.hypot(p.real, p.imag) >= 1.0 - BOUNDARY_MARGIN

    def values_ok(x, y, v):
        if len(v) != grid * grid:
            raise CheckError(f"{len(v)} rows, want {grid * grid}")
        _close("x", x, p.real, 1e-6 if csv else 0.0, scale=1.0)
        _close("y", y, p.imag, 1e-6 if csv else 0.0, scale=1.0)
        v = np.asarray(v, dtype=float)
        if not np.array_equal(~np.isfinite(v), outside):
            raise CheckError("non-finite values not exactly outside |p| < 1 - 1e-3")
        want = refs.single_vortex_landscape(p[~outside], degree, coeffs)
        err = np.abs(v[~outside] - want) / np.maximum(1.0, np.abs(want))
        if not np.max(err) <= TOL_LANDSCAPE:
            raise CheckError(f"hat_w error {np.max(err):.3e} (relative)")

    def check(rc, out, err):
        if rc != 0:
            raise CheckError(f"exit {rc!r}, stderr {err.strip()[:200]!r}")
        if csv:
            lines = out.splitlines()
            if lines[0] != "x,y,hat_w":
                raise CheckError(f"csv header {lines[0]!r}")
            cols = np.array([ln.split(",") for ln in lines[1:]], dtype=float).T
            values_ok(*cols)
            return "ok"
        try:
            rows = json.loads(out, parse_constant=_reject_constant)["rows"]
            verdict = "ok"
        except ValueError:
            # known fault: NaN tokens (cli._emit dumps with allow_nan=True)
            rows = json.loads(out)["rows"]
            verdict = "failed"
        values_ok(*np.array([[r["x"], r["y"], r["hat_w"]] for r in rows]).T)
        return verdict

    return check


# (grid, degree, csv) per operation of a pass; five sizes so that the median
# operation sits inside one size, not between two
_LANDSCAPE_PASS = (
    (81, 1, True),
    (101, 2, False),
    (121, 2, True),
    (141, 1, False),
    (161, 1, True),
)


def landscape_ops(rng) -> list:
    ops = []
    for grid, degree, csv in _LANDSCAPE_PASS:
        coeffs = _near_disc_map(rng, cubic=bool(rng.integers(2)))
        argv = ("landscape", _map_flag(coeffs), "--grid", str(grid), "--degree", str(degree))
        argv += ("--csv",) if csv else ()
        ops.append(Op(argv, _check_landscape(coeffs, grid, degree, csv)))
    return ops


# ----------------------------------------------------------- manyvortex


def _check_energy(points, degrees, base_pts, cos, sin, coeffs):
    identity = list(coeffs) == [0.0, 1.0]

    def w_omega(z):
        return refs.w_omega(z, degrees, base_pts, degrees, cos, sin, TRUNC, coeffs)

    def w_disc(z):
        return refs.w_disc(z, degrees, base_pts, degrees, cos, sin, TRUNC)

    def hat_omega(z):
        return refs.hat_w_disc(z, degrees) + refs.map_correction(z, degrees, coeffs)

    def check(rc, out, err):
        r = _payload(rc, out, err)
        _close("hat_w", r["hat_w"], refs.hat_w_disc(points, degrees), TOL_VALUE)
        g = refs.fd_gradient(lambda z: refs.hat_w_disc(z, degrees), points)
        _close("hat_w_grad", r["hat_w_grad"], g, TOL_GRAD)
        _close("w", r["w"], w_omega(points), TOL_VALUE)
        _close("psi_seminorm_sq", r["psi_seminorm_sq"], refs.psi_dirichlet(cos, sin), TOL_VALUE)
        if not identity:
            _close("hat_w_domain", r["hat_w_domain"], hat_omega(points), TOL_VALUE)
            _close("hat_w_domain_grad", r["hat_w_domain_grad"], refs.fd_gradient(hat_omega, points), TOL_GRAD)
        try:
            _close("w_grad", r["w_grad"], refs.fd_gradient(w_omega, points), TOL_GRAD)
        except CheckError:
            if identity:
                raise
            # known fault: w_grad is the disc gradient, without the map term
            _close("w_grad (disc)", r["w_grad"], refs.fd_gradient(w_disc, points), TOL_GRAD)
            return "failed"
        return "ok"

    return check


def _check_polygon(k, base, r_star, phase):
    target = refs.regular_polygon(k, r_star, phase)

    def check(rc, out, err):
        r = _payload(rc, out, err)
        loc = np.array([_complex(p) for p in r["location"]])
        if loc.shape != (k,) or r["degrees"] != [1] * k:
            raise CheckError(f"location {r['location']} degrees {r['degrees']}")
        dist = np.abs(loc[:, None] - target[None, :])
        nearest = np.argmin(dist, axis=1)
        if len(set(nearest.tolist())) != k:
            raise CheckError("critical points do not form the polygon")
        _close("polygon", dist[np.arange(k), nearest], np.zeros(k), TOL_POLYGON, scale=1.0)
        w = refs.w_disc(loc, [1] * k, base, [1] * k, [], [], TRUNC)
        _close("value", r["value"], w, TOL_VALUE)
        return "ok"

    return check


def manyvortex_ops(rng) -> list:
    """energy at k = 16, 32, 64 on the identity and on a polynomial map, and
    crit from perturbed regular k-gons, k = 2..8."""
    ops = []
    for k in (16, 32, 64):
        for cubic in (None, True):
            coeffs = [0.0, 1.0] if cubic is None else _near_disc_map(rng, cubic)
            pts = _scattered_points(rng, k, 0.85, 0.5 / np.sqrt(k))
            degs = _mixed_degrees(rng, k)
            base = pts + 0.01 * np.sqrt(rng.uniform(size=k)) * np.array([_unit(rng) for _ in range(k)])
            cos, sin = rng.uniform(-0.2, 0.2, 3), rng.uniform(-0.2, 0.2, 3)
            argv = (
                "energy",
                _map_flag(coeffs),
                *_points_flags("vortex", pts, degs),
                *_points_flags("base", base, degs),
                "--psi",
                _psi_flag(cos, sin),
            )
            ops.append(Op(argv, _check_energy(pts, degs, base, cos, sin, coeffs)))
    for k in range(2, 9):
        r_base = rng.uniform(0.3, 0.7)
        phase = 2.0 * np.pi * rng.uniform()
        base = refs.regular_polygon(k, r_base, phase)
        r_star = refs.polygon_radius(k, r_base, TRUNC)
        start = refs.regular_polygon(k, r_star, phase)
        start = start + 0.005 * (1.0 - r_star) * np.array([_unit(rng) for _ in range(k)])
        argv = (
            "crit",
            "--map=identity",
            "--psi",
            "zero",
            *_points_flags("base", base, [1] * k),
            *_points_flags("vortex", start, [1] * k),
        )
        ops.append(Op(argv, _check_polygon(k, base, r_star, phase)))
    return ops


_PASS_MAKERS = {
    "certify": certify_ops,
    "expand": expand_ops,
    "landscape": landscape_ops,
    "manyvortex": manyvortex_ops,
}


def build(workload: str, seed: int) -> list:
    """One pass of the workload for this seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _PASS_MAKERS[workload](rng)
