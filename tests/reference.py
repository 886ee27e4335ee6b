"""Reference formulas for the finite-difference tests of the phase field.

They are written from the definitions, term by term, and are not part of
the package.
"""
import numpy as np

from vortexw.disc_energy import _composite_coeffs


def hat_phi(cfg, z):
    """Singular potential sum_j d_j (log|z - a_j| - log|1 - conj(a_j) z|).

    Vanishes on the unit circle."""
    zz = np.asarray(z, dtype=complex)
    a = cfg.points_array()
    d = cfg.degrees_array()
    dist = np.abs(zz[..., None] - a)
    vals = d * (np.log(dist) - np.log(np.abs(1.0 - np.conj(a) * zz[..., None])))
    out = np.sum(vals, axis=-1)
    return out if out.ndim else float(out)


def phase_potential(ctx, cfg, psi, z):
    """Total phase potential at a point z: hat_phi minus the harmonic
    extension 2 Re sum_n u_n z^n of the composite conjugate phase trace."""
    u = _composite_coeffs(ctx, cfg, psi)
    n = np.arange(1, u.size + 1)
    return hat_phi(cfg, z) - 2 * np.real(np.sum(u * z**n))


def fourier_values(series, theta):
    """A FourierSeries at the angles theta, summed mode by mode:
    a_0 + sum_n 2 Re(a_n e^{i n theta})."""
    th = np.asarray(theta, dtype=float)
    c = series.coeffs
    return c[0].real + sum(2 * np.real(c[n] * np.exp(1j * n * th)) for n in range(1, c.size))


def fd_complex_gradient(fn, z0, h=1e-6):
    """Central-difference gradient dx + i dy of a real function at z0."""
    return (fn(z0 + h) - fn(z0 - h)) / (2 * h) + 1j * (
        fn(z0 + 1j * h) - fn(z0 - 1j * h)
    ) / (2 * h)
