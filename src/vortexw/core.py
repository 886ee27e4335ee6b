"""Domain types: vortex configurations, circle Fourier series, polynomial
conformal maps, and the report containers shared by all modules.

All types are immutable after construction and safe for concurrent reads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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
    radii = np.abs(pts)
    # written so that a NaN point fails it too
    if not np.all(radii < 1.0 - BOUNDARY_MARGIN):
        worst = pts[int(np.argmax(radii))]
        raise VortexTooCloseToBoundary(
            f"|{worst}| = {abs(worst):.6f} >= {1.0 - BOUNDARY_MARGIN}"
        )
    for i in range(cfg.k):
        for j in range(i + 1, cfg.k):
            if abs(pts[i] - pts[j]) < SEPARATION_MARGIN:
                raise VorticesCollide(
                    f"vortices {i} and {j} separated by "
                    f"{abs(pts[i] - pts[j]):.3e}"
                )
    return cfg


def configuration_is_admissible(points: np.ndarray) -> bool:
    """Margin test on a raw complex point array (used inside Newton loops)."""
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    if not np.all(np.abs(pts) < 1.0 - BOUNDARY_MARGIN):
        return False
    k = pts.size
    for i in range(k):
        for j in range(i + 1, k):
            if abs(pts[i] - pts[j]) < SEPARATION_MARGIN:
                return False
    return True


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
    def from_modes(cls, modes: Mapping[int, complex], trunc: int) -> "FourierSeries":
        c = np.zeros(trunc + 1, dtype=complex)
        for n, a in modes.items():
            if n < 0:
                c[-n] = np.conj(a)
            else:
                c[n] = a
        return cls(c)

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

    def is_zero_mean(self, tol: float = 1e-13) -> bool:
        return abs(self.mean) <= tol

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


class ConformalPolyMap:
    """Polynomial holomorphic map f(z) = sum_m c_m z^m with f'(z) != 0 on
    the closed disc; represents the target domain Omega = f(D)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[complex]):
        c = np.asarray(coeffs, dtype=complex).copy()
        if c.ndim != 1 or c.size < 2:
            raise ValueError("need at least coefficients c_0, c_1")
        c.setflags(write=False)
        self._coeffs = c

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

    def _dcoeffs(self, order: int) -> np.ndarray:
        c = self._coeffs
        for _ in range(order):
            m = np.arange(1, c.size)
            c = c[1:] * m
            if c.size == 0:
                return np.zeros(1, dtype=complex)
        return c

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex), self._coeffs)

    def derivative(self, z, order: int = 1):
        return np.polynomial.polynomial.polyval(
            np.asarray(z, dtype=complex), self._dcoeffs(order)
        )

    def map_configuration(self, cfg: VortexConfiguration) -> VortexConfiguration:
        return VortexConfiguration(self(cfg.points_array()), cfg.degrees)

    def __repr__(self) -> str:
        return f"ConformalPolyMap({list(self._coeffs)})"


def _segments_intersect(p, q):
    """Vectorized proper-intersection test between all segment pairs.

    p, q: (S,) complex arrays of segment endpoints (segment i = p[i]->q[i]).
    Returns True if any two non-adjacent segments properly cross.
    """
    s = p.size

    def cross(o, a, b):
        return ((a - o).conjugate() * (b - o)).imag

    # O(S^2) sweep over pairs; adequate at S = 512.
    i_idx, j_idx = np.triu_indices(s, k=2)
    # drop the (0, S-1) pair: first and last segments are adjacent on the loop
    keep = ~((i_idx == 0) & (j_idx == s - 1))
    i_idx, j_idx = i_idx[keep], j_idx[keep]
    a, b = p[i_idx], q[i_idx]
    c, d = p[j_idx], q[j_idx]
    d1 = cross(a, b, c)
    d2 = cross(a, b, d)
    d3 = cross(c, d, a)
    d4 = cross(c, d, b)
    hit = (d1 * d2 < 0) & (d3 * d4 < 0)
    return bool(np.any(hit))


def validate_map(f: ConformalPolyMap, grid_density: int = 24) -> dict:
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
    dcoef = f._dcoeffs(1)
    if dcoef.size > 1:
        roots = np.polynomial.polynomial.polyroots(dcoef)
        inside = roots[np.abs(roots) <= 1.0 + 1e-12]
        if inside.size:
            raise DegenerateDerivative(
                f"f' vanishes at {inside[0]} inside the closed disc"
            )
    radii = np.linspace(0.0, 1.0, grid_density)
    angles = np.linspace(0.0, 2 * np.pi, 4 * grid_density, endpoint=False)
    grid = np.multiply.outer(radii, np.exp(1j * angles))
    min_abs_fprime = float(np.min(np.abs(f.derivative(grid))))
    if min_abs_fprime <= 0.0:
        raise DegenerateDerivative("|f'| vanishes on the validation grid")

    n_samples = 512
    theta = np.linspace(0.0, 2 * np.pi, n_samples, endpoint=False)
    bdry = f(np.exp(1j * theta))
    center = complex(f(0.0))
    rel = bdry - center
    if np.any(np.abs(rel) == 0.0):
        raise BoundaryNotSimple("boundary passes through f(0)")
    dtheta = np.angle(np.roll(rel, -1) / rel)
    winding = float(np.sum(dtheta) / (2 * np.pi))
    if abs(winding - 1.0) > 1e-6:
        raise BoundaryNotSimple(f"winding number {winding:.3f} != 1 about f(0)")
    if _segments_intersect(bdry, np.roll(bdry, -1)):
        raise BoundaryNotSimple("boundary curve self-intersects")
    return {
        "min_abs_fprime": min_abs_fprime,
        "winding": winding,
        "samples": n_samples,
    }


@dataclass(frozen=True)
class EnergyReport:
    """Value, gradient and Hessian of an energy at a configuration, with
    the nondegeneracy verdict (smallest singular value above ND_TOL)."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    nondegenerate: bool
    condition_number: float

    @classmethod
    def build(cls, value: float, gradient: np.ndarray, hessian: np.ndarray) -> "EnergyReport":
        hessian = np.asarray(hessian, dtype=float)
        sym_err = np.max(np.abs(hessian - hessian.T))
        scale = max(1.0, float(np.max(np.abs(hessian))))
        if sym_err > 1e-9 * scale:
            raise ValueError(f"hessian not symmetric: max asymmetry {sym_err:.3e}")
        svals = np.linalg.svd(hessian, compute_uv=False)
        smin, smax = float(svals[-1]), float(svals[0])
        cond = smax / smin if smin > 0 else np.inf
        return cls(
            value=float(value),
            gradient=np.asarray(gradient, dtype=float),
            hessian=hessian,
            nondegenerate=smin > ND_TOL,
            condition_number=cond,
        )


@dataclass(frozen=True)
class OperatorMatrix:
    """Truncated matrix of a boundary operator over the real Fourier modes
    {cos n theta, sin n theta}, 1 <= n <= trunc (mode 0 is quotiented out)."""

    matrix: np.ndarray
    mode_index: tuple
    trunc: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2 * self.trunc, 2 * self.trunc):
            raise ValueError("matrix size inconsistent with trunc")
        if len(self.mode_index) != 2 * self.trunc:
            raise ValueError("mode_index size inconsistent with matrix")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def standard_index(cls, trunc: int) -> tuple:
        idx = []
        for n in range(1, trunc + 1):
            idx.append((n, "cos"))
            idx.append((n, "sin"))
        return tuple(idx)

    def smallest_singular_value(self) -> float:
        return float(np.linalg.svd(self.matrix, compute_uv=False)[-1])
