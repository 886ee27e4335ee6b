"""The phase-gradient field kernel.

It is evaluated on every quadrature node of the punctured-energy
integrals, so it is the hot path of the expansion check.
"""
from __future__ import annotations

import numpy as np


def grad_phi_field(
    z: np.ndarray,
    alpha: np.ndarray,
    degrees: np.ndarray,
    alpha0: np.ndarray,
    degrees0: np.ndarray,
    gprime: np.ndarray,
) -> np.ndarray:
    """Gradient (as a complex number dx + i dy) of the total phase potential.

    The gradient is conj(h(z)) for the holomorphic

        h = sum_j d_j / (z - a_j) - sum_j d_j conj(a_j) / (1 - conj(a_j) z)
            + 2 sum_j d0_j conj(a0_j) / (1 - conj(a0_j) z) + i P(z),

    with vortices (alpha, degrees), reference vortices (alpha0, degrees0)
    and the boundary-phase polynomial P = gprime (coefficients by
    ascending power). The result has the shape of z.
    """
    zz = np.asarray(z, dtype=complex)
    h = np.zeros_like(zz)
    for c in gprime[::-1]:  # Horner, in place: h <- h z + i c
        h *= zz
        h += 1j * c
    for a, d in zip(alpha, degrees):
        b = np.conj(a)
        h += d / (zz - a)
        h -= d * b / (1.0 - b * zz)
    for a, d in zip(alpha0, degrees0):
        b = np.conj(a)
        h += 2.0 * d * b / (1.0 - b * zz)
    return np.conjugate(h, out=h)
