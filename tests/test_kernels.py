import numpy as np
import pytest

import vortexw
from vortexw._kernels import grad_phi_field


def grad_phi_field_direct(z, alpha, degrees, alpha0, degrees0, gprime):
    """Reference: the field term by term in real-vector form.

    Per vortex the singular part (z - a)/|z - a|^2 and the reflected part
    -a (1 - conj(a) z)/|1 - conj(a) z|^2, twice the reflected part of the
    reference vortices, minus i conj(P(z)) for P = gprime.
    """
    zz = np.asarray(z, dtype=complex)
    out = np.zeros_like(zz)
    for a, d in zip(alpha, degrees):
        dz = zz - a
        u = 1.0 - np.conj(a) * zz
        out += d * (dz / (dz.real**2 + dz.imag**2) - a * u / (u.real**2 + u.imag**2))
    for a, d in zip(alpha0, degrees0):
        u = 1.0 - np.conj(a) * zz
        out += 2.0 * d * a * u / (u.real**2 + u.imag**2)
    if gprime.size:
        out -= 1j * np.conj(np.polynomial.polynomial.polyval(zz, gprime))
    return out


def grad_phi_field_alloc(z, alpha, degrees, alpha0, degrees0, gprime):
    """Oracle to the bit: the kernel's terms as plain expressions, with a
    fresh temporary for every operation."""
    zz = np.asarray(z, dtype=complex)
    h = np.zeros_like(zz)
    for c in gprime[::-1]:
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


def random_inputs(seed, n=257, k=3, deg=16):
    rng = np.random.default_rng(seed)
    z = 0.95 * np.sqrt(rng.uniform(0, 1, n)) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    alpha = 0.6 * (rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k))
    degrees = rng.integers(1, 3, k).astype(float)
    alpha0 = 0.5 * (rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k))
    gprime = rng.normal(size=deg) + 1j * rng.normal(size=deg)
    return z, alpha, degrees, alpha0, degrees, gprime


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_backends_agree(seed):
    args = random_inputs(seed)
    np.testing.assert_allclose(
        grad_phi_field(*args), grad_phi_field_direct(*args), rtol=1e-12, atol=1e-12
    )


def test_empty_phase_polynomial():
    z, alpha, degrees, alpha0, degrees0, _ = random_inputs(7)
    gprime = np.zeros(0, dtype=complex)
    ref = grad_phi_field_direct(z, alpha, degrees, alpha0, degrees0, gprime)
    out = grad_phi_field(z, alpha, degrees, alpha0, degrees0, gprime)
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)


def test_scalar_and_shape_preservation():
    _, alpha, degrees, alpha0, degrees0, gprime = random_inputs(11)
    z2d = np.full((4, 5), 0.3 + 0.1j) + np.linspace(0, 0.1, 20).reshape(4, 5)
    out = grad_phi_field(z2d, alpha, degrees, alpha0, degrees0, gprime)
    assert out.shape == (4, 5)
    scalar = grad_phi_field(
        np.asarray(0.3 + 0.1j), alpha, degrees, alpha0, degrees0, gprime
    )
    assert scalar.ndim == 0
    np.testing.assert_allclose(complex(scalar), out[0, 0], rtol=1e-12)


def test_backend_reported():
    assert vortexw.BACKEND == "numpy"


def assert_same_bits(args):
    out, ref = grad_phi_field(*args), grad_phi_field_alloc(*args)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", range(8))
def test_scratch_kernel_is_bit_identical(seed):
    z, alpha, _, alpha0, _, gprime = random_inputs(seed, k=1 + seed % 4)
    # degrees that are not powers of two, so d / w and d * (1 / w) differ
    rng = np.random.default_rng(seed)
    degrees, degrees0 = (rng.choice([-3.0, -2.0, 3.0, 5.0], alpha.size) for _ in range(2))
    assert_same_bits((z, alpha, degrees, alpha0, degrees0, gprime))
    # 0-d and 2-D z
    assert_same_bits((np.asarray(z[0]), alpha, degrees, alpha0, degrees0, gprime))
    assert_same_bits((z[:256].reshape(16, 16), alpha, degrees, alpha0, degrees0, gprime))
    # no phase polynomial, and no reference vortices
    assert_same_bits((z, alpha, degrees, alpha0, degrees0, gprime[:0]))
    assert_same_bits((z, alpha, degrees, alpha0[:0], degrees0[:0], gprime))
