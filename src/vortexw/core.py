"""Domain types: vortex configurations, circle Fourier series, polynomial
conformal maps, their admissibility checks, and the nondegeneracy verdict.

All types are immutable after construction and safe for concurrent reads.
"""
from __future__ import annotations

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


def is_nondegenerate(hessian: np.ndarray) -> bool:
    """Nondegeneracy verdict: smallest singular value above ND_TOL."""
    return float(np.linalg.svd(hessian, compute_uv=False)[-1]) > ND_TOL


@dataclass(frozen=True)
class VortexConfiguration:
    """Points alpha_j in the open unit disc with integer degrees d_j."""

    points: tuple
    degrees: tuple

    def __init__(self, points: Iterable[complex], degrees: Iterable[int]):
        object.__setattr__(self, "points", tuple(complex(p) for p in points))
        object.__setattr__(self, "degrees", tuple(int(d) for d in degrees))

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

    def with_points(self, points: Iterable[complex]) -> "VortexConfiguration":
        return VortexConfiguration(points, self.degrees)


def validate_configuration(cfg: VortexConfiguration) -> VortexConfiguration:
    """Check the admissibility invariants; returns cfg unchanged on success.

    Raises EmptyConfiguration, VortexTooCloseToBoundary or VorticesCollide.
    Idempotent.
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
            f"|{worst}| = {abs(worst):.6f} >= {1.0 - BOUNDARY_MARGIN}"
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
    ok = np.all(inside, axis=-1)
    k = pts.shape[-1]
    if k > 1:
        # a point outside already fails its configuration; zeroed, a huge or
        # infinite one cannot overflow the differences
        pts = np.where(inside, pts, 0.0)
        gap = np.abs(pts[..., :, None] - pts[..., None, :])
        apart = (gap >= SEPARATION_MARGIN) | np.eye(k, dtype=bool)
        ok &= np.all(apart, axis=(-2, -1))
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

    def coeff(self, n: int) -> complex:
        if abs(n) > self.trunc:
            return 0.0 + 0.0j
        return complex(self._coeffs[n]) if n >= 0 else complex(np.conj(self._coeffs[-n]))

    @property
    def mean(self) -> float:
        return float(self._coeffs[0].real)

    def cos_coeffs(self) -> np.ndarray:
        return 2.0 * self._coeffs[1:].real

    def sin_coeffs(self) -> np.ndarray:
        return -2.0 * self._coeffs[1:].imag

    def evaluate(self, theta) -> np.ndarray:
        th = np.asarray(theta, dtype=float)
        n = np.arange(1, self.trunc + 1)
        phases = np.exp(1j * np.multiply.outer(th, n))
        vals = self.mean + 2.0 * (phases @ self._coeffs[1:]).real
        return vals

    # -- algebra ------------------------------------------------------
    def _aligned(self, other: "FourierSeries"):
        n = max(self.trunc, other.trunc)
        a = np.zeros(n + 1, dtype=complex)
        b = np.zeros(n + 1, dtype=complex)
        a[: self.trunc + 1] = self._coeffs
        b[: other.trunc + 1] = other._coeffs
        return a, b

    def __add__(self, other: "FourierSeries") -> "FourierSeries":
        a, b = self._aligned(other)
        return FourierSeries(a + b)

    def __sub__(self, other: "FourierSeries") -> "FourierSeries":
        a, b = self._aligned(other)
        return FourierSeries(a - b)

    def __mul__(self, scalar: float) -> "FourierSeries":
        return FourierSeries(self._coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "FourierSeries":
        return FourierSeries(-self._coeffs)

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
    """Polynomial holomorphic map f(z) = sum_m c_m z^m with f'(z) != 0 on
    the closed disc; represents the target domain Omega = f(D)."""

    __slots__ = ("_coeffs", "_derivs")

    def __init__(self, coeffs: Sequence[complex]):
        c = np.asarray(coeffs, dtype=complex).copy()
        if c.ndim != 1 or c.size < 2:
            raise ValueError("need at least coefficients c_0, c_1")
        c.setflags(write=False)
        self._coeffs = c
        # coefficients of f, f', f'' and f''', taken once since the map is
        # immutable. Near the top of the float range m c_m overflows to inf
        # (and its imaginary part to nan); validate_map tests f' on a scaled
        # copy, and a map whose f' coefficients overflow fails that test.
        with np.errstate(over="ignore", invalid="ignore"):
            self._derivs = tuple(_derivative_coeffs(c, m) for m in range(4))

    @classmethod
    def identity(cls) -> "ConformalPolyMap":
        return cls([0.0, 1.0])

    @classmethod
    def scaling(cls, r: complex) -> "ConformalPolyMap":
        return cls([0.0, r])

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def degree(self) -> int:
        return self._coeffs.size - 1

    def is_identity(self) -> bool:
        return (
            self._coeffs.size == 2
            and self._coeffs[0] == 0.0
            and self._coeffs[1] == 1.0
        )

    def __call__(self, z):
        return _horner(self._coeffs, z)

    def derivative(self, z, order: int = 1):
        top = len(self._derivs) - 1
        if order <= top:
            return _horner(self._derivs[order], z)
        return _horner(_derivative_coeffs(self._derivs[top], order - top), z)

    def __repr__(self) -> str:
        return f"ConformalPolyMap({list(self._coeffs)})"


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


def validate_map(f: ConformalPolyMap) -> dict:
    """Numerical check that f is a conformal bijection of the closed disc.

    Verifies c_1 != 0, that f' has no zero in the closed disc (polynomial
    root test backed by a grid minimum), and that the boundary curve is a
    simple loop of winding number one.

    Returns a small report dict; raises DegenerateDerivative or
    BoundaryNotSimple.
    """
    c = f.coeffs
    if c[1] == 0.0:
        raise DegenerateDerivative("c_1 = 0")
    # g = f / max|c_m| has the zeros of f' and the boundary curve of f up to
    # scale; its coefficients are at most 1 in modulus and the curve is
    # bounded by deg + 1, so none of the tests below can overflow
    scale = float(np.max(np.abs(c)))
    g = ConformalPolyMap(c / scale)
    dcoef = g._derivs[1]
    if dcoef.size > 1:
        roots = np.polynomial.polynomial.polyroots(dcoef)
        inside = roots[np.abs(roots) <= 1.0 + 1e-12]
        if inside.size:
            raise DegenerateDerivative(
                f"f' vanishes at {inside[0]} inside the closed disc"
            )
    radii = np.linspace(0.0, 1.0, MAP_GRID)
    angles = np.linspace(0.0, 2 * np.pi, 4 * MAP_GRID, endpoint=False)
    grid = np.multiply.outer(radii, np.exp(1j * angles))
    min_abs_gprime = float(np.min(np.abs(g.derivative(grid))))
    if min_abs_gprime <= 0.0:
        raise DegenerateDerivative("|f'| vanishes on the validation grid")

    n_samples = 512
    theta = np.linspace(0.0, 2 * np.pi, n_samples, endpoint=False)
    bdry = g(np.exp(1j * theta))
    rel = bdry - complex(g(0.0))
    if np.any(np.abs(rel) == 0.0):
        raise BoundaryNotSimple("boundary passes through f(0)")
    dtheta = np.angle(np.roll(rel, -1) / rel)
    winding = float(np.sum(dtheta) / (2 * np.pi))
    if abs(winding - 1.0) > 1e-6:
        raise BoundaryNotSimple(f"winding number {winding:.3f} != 1 about f(0)")
    if _polygon_self_intersects(bdry):
        raise BoundaryNotSimple("boundary curve self-intersects")
    return {
        "min_abs_fprime": scale * min_abs_gprime,
        "winding": winding,
        "samples": n_samples,
    }
