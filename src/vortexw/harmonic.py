"""Fourier-side harmonic calculus on the unit circle and disc.

Everything acts mode-wise on truncated series: the harmonic extension of
a mode e^{i n theta} is r^{|n|} e^{i n theta}, which makes conjugation
and the H^{1/2} seminorm exact coefficient maps. The package builds no
disc rule: AnnulusQuadrature is the global grid of the area rule that
tests/reference.py keeps as an oracle for expansion.punctured_energy, and
vwbench's tracer counts its builds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FourierSeries

# nodes of the disc rule: Gauss-Legendre radially, uniform angularly
N_RADIAL = 128
N_ANGULAR = 512


def harmonic_conjugate(psi: FourierSeries) -> FourierSeries:
    """Conjugate trace psi*: coefficient map a_n -> -i sign(n) a_n, a_0 -> 0.

    The harmonic extensions then pair into a holomorphic psi + i psi*.
    """
    c = psi.coeffs.copy()
    c[0] = 0.0
    c[1:] *= -1j
    return FourierSeries(c)


def h_half_seminorm_sq(psi: FourierSeries) -> float:
    """Dirichlet energy of the harmonic extension: 2 pi sum |n| |a_n|^2."""
    n = np.arange(1, psi.trunc + 1)
    return float(4.0 * np.pi * np.sum(n * np.abs(psi.coeffs[1:]) ** 2))


@dataclass(frozen=True)
class AnnulusQuadrature:
    """Tensor rule on the unit disc 0 <= |z| <= 1: Gauss-Legendre radially,
    uniform (trapezoid) angularly."""

    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    angular_nodes: np.ndarray

    @classmethod
    def build(cls) -> "AnnulusQuadrature":
        x, w = np.polynomial.legendre.leggauss(N_RADIAL)
        theta = np.linspace(0.0, 2 * np.pi, N_ANGULAR, endpoint=False)
        return cls(radial_nodes=0.5 + 0.5 * x, radial_weights=0.5 * w, angular_nodes=theta)
