"""Domain types: vortex configurations, circle Fourier series, polynomial
conformal maps, their admissibility checks, and the nondegeneracy verdict.

All types are immutable after construction and safe for concurrent reads.
Configurations and maps are checked once, when they are built, so every
one that exists is admissible and no function checks it again.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BoundaryNotSimple,
    DegenerateDerivative,
    EmptyConfiguration,
    VortexTooCloseToBoundary,
    VorticesCollide,
)

# The energy formulas are singular on the boundary circle and on the
# collision diagonal; these margins keep quadratures and Newton steps
# well-conditioned.
BOUNDARY_MARGIN = 1e-3
SEPARATION_MARGIN = 1e-8

# Nondegeneracy verdict threshold for 2k x 2k Hessians, anchored to the
# 2*pi eigenvalue scale of the radial configuration.
ND_TOL = 1e-8 * np.pi

DEFAULT_TRUNC = 64

# validate_map samples |f'| on this many radii times four times as many angles
MAP_GRID = 24
# and the boundary curve at this many points of the unit circle
MAP_SAMPLES = 512


def is_nondegenerate(hessian: np.ndarray):
    """Nondegeneracy verdict: smallest singular value above ND_TOL. Returns a
    bool for one matrix and a boolean array over the leading axes for a
    stack (..., 2k, 2k)."""
    ok = np.linalg.svd(hessian, compute_uv=False)[..., -1] > ND_TOL
    return bool(ok) if ok.ndim == 0 else ok


@dataclass(frozen=True)
class VortexConfiguration:
    """Distinct points alpha_j in the open unit disc with integer degrees
    d_j. Construction runs validate_configuration and raises its errors, so
    every instance is admissible. A degree that is not an integer (a float,
    a string or a bool) raises TypeError."""

    points: tuple
    degrees: tuple

    def __init__(self, points: Iterable[complex], degrees: Iterable[int]):
        degrees = tuple(degrees)
        # operator.index refuses floats and strings, which int() would truncate
        if any(isinstance(d, (bool, np.bool_)) for d in degrees):
            raise TypeError(f"vortex degrees must be integers, got {degrees!r}")
        object.__setattr__(self, "points", tuple(complex(p) for p in points))
        object.__setattr__(self, "degrees", tuple(map(operator.index, degrees)))
        validate_configuration(self)

    @property
    def k(self) -> int:
        return len(self.points)

    @property
    def total_degree(self) -> int:
        return sum(self.degrees)

    def points_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=complex)

    def degrees_array(self) -> np.ndarray:
        return np.asarray(self.degrees, dtype=float)


def validate_configuration(cfg: VortexConfiguration) -> VortexConfiguration:
    """Check the admissibility invariants; returns cfg unchanged on success.
    VortexConfiguration runs it once, on construction.

    Raises EmptyConfiguration, VortexTooCloseToBoundary or VorticesCollide.
    """
    if cfg.k == 0 or len(cfg.degrees) == 0:
        raise EmptyConfiguration("configuration has no vortices")
    if len(cfg.degrees) != cfg.k:
        raise EmptyConfiguration(
            f"{cfg.k} points but {len(cfg.degrees)} degrees"
        )
    pts = cfg.points_array()
    if configuration_is_admissible(pts):
        return cfg
    radii = np.abs(pts)
    if not np.all(radii < 1.0 - BOUNDARY_MARGIN):
        worst = pts[int(np.argmax(radii))]
        raise VortexTooCloseToBoundary(
            f"|{worst}| = {abs(worst):.6g} >= {1.0 - BOUNDARY_MARGIN}"
        )
    gap = np.abs(pts[:, None] - pts[None, :])
    i, j = np.argwhere(np.triu(gap < SEPARATION_MARGIN, 1))[0]
    raise VorticesCollide(f"vortices {i} and {j} separated by {gap[i, j]:.3e}")


def configuration_is_admissible(points):
    """Margin test on raw complex points (..., k): every point inside the
    boundary margin and every pair at least SEPARATION_MARGIN apart. A NaN
    point fails it. Returns a bool for one configuration (points of shape
    (k,)) and a boolean array over the leading axes for a batch."""
    pts = np.asarray(points, dtype=complex)
    # written so that a NaN point fails it too
    inside = np.abs(pts) < 1.0 - BOUNDARY_MARGIN
    ok = inside.all(axis=-1)
    k = pts.shape[-1]
    if k > 1:
        # a point outside already fails its configuration; zeroed, a huge or
        # infinite one cannot overflow the differences
        pts = np.where(inside, pts, 0.0)
        gap = np.abs(pts[..., :, None] - pts[..., None, :])
        apart = (gap >= SEPARATION_MARGIN) | np.eye(k, dtype=bool)
        ok &= apart.all(axis=(-2, -1))
    return bool(ok) if ok.ndim == 0 else ok


class FourierSeries:
    """Real-valued function on the unit circle stored as complex Fourier
    coefficients a_n for modes 0..trunc; a_{-n} = conj(a_n) is implied.

    The function represented is

        psi(theta) = a_0 + sum_{n>=1} (a_n e^{i n theta} + conj(a_n) e^{-i n theta}).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[complex]):
        c = np.asarray(coeffs, dtype=complex).copy()
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coeffs must be a nonempty 1-d sequence")
        if abs(c[0].imag) > 1e-13 * (1.0 + abs(c[0])):
            raise ValueError("mode-0 coefficient must be real")
        c[0] = c[0].real
        c.setflags(write=False)
        self._coeffs = c

    # -- constructors -------------------------------------------------
    @classmethod
    def zeros(cls, trunc: int) -> "FourierSeries":
        return cls(np.zeros(trunc + 1, dtype=complex))

    @classmethod
    def from_real(
        cls,
        a0: float = 0.0,
        cos: Sequence[float] = (),
        sin: Sequence[float] = (),
        trunc: int | None = None,
    ) -> "FourierSeries":
        """Build from a0 + sum p_n cos(n theta) + q_n sin(n theta)."""
        p = np.asarray(cos, dtype=float)
        q = np.asarray(sin, dtype=float)
        n = max(p.size, q.size)
        if trunc is None:
            trunc = max(n, 1)
        c = np.zeros(trunc + 1, dtype=complex)
        c[0] = a0
        for m in range(1, min(n, trunc) + 1):
            pm = p[m - 1] if m <= p.size else 0.0
            qm = q[m - 1] if m <= q.size else 0.0
            c[m] = 0.5 * (pm - 1j * qm)
        return cls(c)

    # -- accessors ----------------------------------------------------
    @property
    def trunc(self) -> int:
        return self._coeffs.size - 1

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficients for modes 0..trunc."""
        return self._coeffs

    @property
    def mean(self) -> float:
        return float(self._coeffs[0].real)

    def with_zero_mean(self) -> "FourierSeries":
        c = self._coeffs.copy()
        c[0] = 0.0
        return FourierSeries(c)

    def __repr__(self) -> str:
        return f"FourierSeries(trunc={self.trunc}, mean={self.mean:.3g})"


def _derivative_coeffs(c: np.ndarray, order: int) -> np.ndarray:
    """Coefficients (lowest degree first) of the order-th derivative of the
    polynomial with coefficients c; [0] once order exceeds the degree."""
    for _ in range(order):
        c = c[1:] * np.arange(1, c.size)
        if c.size == 0:
            return np.zeros(1, dtype=complex)
    return c


def _horner(c: np.ndarray, z):
    """The polynomial with coefficients c at z: the Horner recurrence of
    np.polynomial.polynomial.polyval, bit for bit, without its per-call
    argument handling."""
    z = np.asarray(z, dtype=complex)
    acc = c[-1] + z * 0
    for cm in c[-2::-1]:
        acc = cm + acc * z
    return acc


class ConformalPolyMap:
    """Polynomial conformal bijection f(z) = sum_m c_m z^m of the closed disc
    onto Omega = f(D). Construction refuses coefficients that are not finite
    (ValueError) and runs validate_map, so f' has no zero and f', f'', f'''
    are finite on the closed disc of every instance."""

    __slots__ = ("_coeffs", "_derivs")

    def __init__(self, coeffs: Sequence[complex]):
        c = np.asarray(coeffs, dtype=complex).copy()
        if c.ndim != 1 or c.size < 2:
            raise ValueError("need at least coefficients c_0, c_1")
        if not np.isfinite(c).all():
            raise ValueError("map coefficients must be finite")
        c.setflags(write=False)
        self._coeffs = c
        validate_map(self)
        # coefficients of f, f', f'' and f''', taken once since the map is immutable
        self._derivs = tuple(_derivative_coeffs(c, m) for m in range(4))

    @classmethod
    def identity(cls) -> "ConformalPolyMap":
        return cls([0.0, 1.0])

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    def is_identity(self) -> bool:
        return (
            self._coeffs.size == 2
            and self._coeffs[0] == 0.0
            and self._coeffs[1] == 1.0
        )

    def __call__(self, z):
        return _horner(self._coeffs, z)

    def derivative(self, z, order: int = 1):
        if order < len(self._derivs):
            return _horner(self._derivs[order], z)
        return _horner(_derivative_coeffs(self._coeffs, order), z)

    def __repr__(self) -> str:
        return f"ConformalPolyMap({list(self._coeffs)})"


def _star_shaped(p) -> bool:
    """Whether every edge of the closed polygon p[0], ..., p[S-1] turns
    counterclockwise about 0: p_i x p_{i+1} > 0, the orientation test of
    _polygon_self_intersects taken about the origin.

    If the polygon also winds once about 0, edge i lies in the angular
    sector from arg p_i to arg p_{i+1}. These sectors tile one full turn,
    so non-adjacent edges cannot meet and the polygon is simple.
    """
    x, y = p.real, p.imag
    return bool(np.all(x * np.roll(y, -1) - y * np.roll(x, -1) > 0.0))


def _polygon_self_intersects(p) -> bool:
    """Whether two non-adjacent edges of the closed polygon p[0], ..., p[S-1]
    properly cross (edge i runs from p[i] to p[i+1 mod S]).

    One S x S table of real cross products C[i, j] = e_i x (p_j - p_i),
    e_i = p[i+1] - p[i], holds every orientation test: edges i and j cross
    when p_j and p_{j+1} lie strictly on opposite sides of edge i (C[i, j]
    against C[i, j+1]) and p_i and p_{i+1} on opposite sides of edge j
    (the transposes). Scale p to O(1) first so that the products cannot
    overflow.
    """
    s = p.size
    x, y = p.real, p.imag
    ex, ey = np.roll(x, -1) - x, np.roll(y, -1) - y
    c = ex[:, None] * (y[None, :] - y[:, None]) - ey[:, None] * (x[None, :] - x[:, None])
    c_next = np.roll(c, -1, axis=1)
    cross = c * c_next < 0
    hit = cross & cross.T
    # pairs i < j - 1 only; the first and last edges are adjacent on the loop
    hit = np.triu(hit, 2)
    hit[0, s - 1] = False
    return bool(np.any(hit))


# The sample points of validate_map, built once: the MAP_GRID x 4 MAP_GRID
# polar grid of the closed disc where |f'| is sampled, and the MAP_SAMPLES
# points of the unit circle where the boundary curve is.
_MAP_GRID_POINTS = np.multiply.outer(
    np.linspace(0.0, 1.0, MAP_GRID),
    np.exp(1j * np.linspace(0.0, 2 * np.pi, 4 * MAP_GRID, endpoint=False)),
)
_MAP_CIRCLE = np.exp(1j * np.linspace(0.0, 2 * np.pi, MAP_SAMPLES, endpoint=False))
_MAP_GRID_POINTS.setflags(write=False)
_MAP_CIRCLE.setflags(write=False)


def validate_map(f: ConformalPolyMap) -> dict:
    """Numerical check that f is a conformal bijection of the closed disc.
    ConformalPolyMap runs it once, on construction.

    Verifies c_1 != 0, that f' has no zero in the closed disc (polynomial
    root test backed by a grid minimum), and that the boundary curve, sampled
    at 512 points, is a simple loop of winding number one. The loop is simple
    when it is star-shaped about f(0), which takes one pass over the samples;
    only a loop that is not is checked pair by pair for crossing edges.
    Last, it bounds f', f'' and f''' on the closed disc by sum_m m!/(m-j)!
    |c_m|, j = 1, 2, 3, so that the energy kernels cannot overflow there.
    An affine map c_0 + c_1 z passes all of these tests, so its report is
    given in closed form, without sampling: min |f'| = |c_1|, winding 1.

    The tests run on g = (f - c_0) / max_{m>=1} |c_m|, so neither the verdict
    nor the report depends on c_0: a translated domain is accepted exactly
    when the domain itself is.

    Returns a small report dict; raises DegenerateDerivative (also when
    every c_m, m >= 1, is subnormal, or a bound is past the float range)
    or BoundaryNotSimple.
    """
    c = f.coeffs
    if c[1] == 0.0:
        raise DegenerateDerivative("c_1 = 0")
    # g has the zeros of f' and the boundary curve of f up to translation and
    # scale, and g(0) = 0; its coefficients are at most 1 in modulus and the
    # curve is bounded by deg, so none of the tests below can overflow. A
    # subnormal scale would overflow the division itself.
    scale = float(np.max(np.abs(c[1:])))
    if scale < np.finfo(float).tiny:
        raise DegenerateDerivative(
            f"max |c_m| (m >= 1) = {scale:.3g} is below the smallest normal float"
        )
    if c.size == 2:
        # f = c_0 + c_1 z: f' = c_1 has no zero, the boundary is a circle
        # about f(0), and f'' = f''' = 0
        return {"min_abs_fprime": scale, "winding": 1.0, "samples": MAP_SAMPLES}
    g = np.concatenate(([0.0], c[1:] / scale))
    dcoef = _derivative_coeffs(g, 1)
    if dcoef.size > 1:
        roots = np.polynomial.polynomial.polyroots(dcoef)
        inside = roots[np.abs(roots) <= 1.0 + 1e-12]
        if inside.size:
            raise DegenerateDerivative(
                f"f' vanishes at {inside[0]} inside the closed disc"
            )
    min_abs_gprime = float(np.min(np.abs(_horner(dcoef, _MAP_GRID_POINTS))))
    if min_abs_gprime <= 0.0:
        raise DegenerateDerivative("|f'| vanishes on the validation grid")

    bdry = _horner(g, _MAP_CIRCLE)
    if np.any(np.abs(bdry) == 0.0):
        raise BoundaryNotSimple("boundary passes through f(0)")
    dtheta = np.angle(np.roll(bdry, -1) / bdry)
    winding = float(np.sum(dtheta) / (2 * np.pi))
    if abs(winding - 1.0) > 1e-6:
        raise BoundaryNotSimple(f"winding number {winding:.3f} != 1 about f(0)")
    if not _star_shaped(bdry) and _polygon_self_intersects(bdry):
        raise BoundaryNotSimple("boundary curve self-intersects")
    # in Python floats, where a product past the range is inf, not a warning
    for j in range(1, 4):
        if np.isinf(scale * float(np.abs(dcoef).sum())):
            raise DegenerateDerivative("f" + "'" * j + " can overflow on the closed disc")
        dcoef = _derivative_coeffs(dcoef, 1)
    return {
        "min_abs_fprime": scale * min_abs_gprime,
        "winding": winding,
        "samples": MAP_SAMPLES,
    }
