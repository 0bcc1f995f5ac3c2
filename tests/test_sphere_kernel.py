"""The modified Poisson kernel over boundary spheres (the quadrature's
kernel) at its route seams against the mpmath oracle, its overflow
refusals, and its rows against one-row calls."""
import math

import mpmath
import numpy as np
import pytest

import reference
from hpot.errors import DomainError
from hpot.geometry import squared_norms
from hpot.kernels import KernelConfig, _seam, modified_poisson_sphere, sphere_moments

SEAM_EPS = (1e-12, 1e-9, 1e-6, 1e-3)
SEAM_RTOL = 1e-11  # ceiling on the relative error; may only tighten


def _point(rng, n, ax):
    """A field point of radius ax at a height of at least 0.3 ax."""
    x = rng.normal(size=n)
    x[-1] = abs(x[-1]) + 0.6 * np.linalg.norm(x)
    return x * (ax / np.linalg.norm(x))


def _gaps(xs, rho, owner):
    """rho - |x'| with |x'| as the kernel forms it."""
    return rho - np.sqrt(squared_norms(xs[:, :-1]))[owner]


def _sphere(cfg, x, rho):
    xs, rho = x[None, :], np.atleast_1d(np.asarray(rho, dtype=float))
    owner = np.zeros(rho.size, dtype=int)
    return modified_poisson_sphere(cfg, xs, rho, owner, sphere_moments(cfg, xs), _gaps(xs, rho, owner))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sphere_seams_match_the_oracle(n):
    # the unit sphere and the tail seam c|x| of every order, probed at
    # (1 +- eps), each radius on both sides of its seam
    rng = np.random.default_rng(900 + n)
    for ax in (0.7, 1.6, 3.0):
        x = _point(rng, n, ax)
        for m in range(7):
            cfg = KernelConfig(n, m)
            rho = np.array([seam * (1.0 + sign * eps)
                            for seam in (1.0, _seam(m) * float(np.sqrt(np.dot(x, x))))
                            for eps in SEAM_EPS for sign in (-1.0, 1.0)])
            got = _sphere(cfg, x, rho)
            with mpmath.workdps(30):
                want = [reference.sphere_kernel(n, m, x, mpmath.mpf(r)) for r in rho]
            for r, g, w in zip(rho, got, want):
                err = abs((g - w) / w)
                assert err <= SEAM_RTOL, (m, x, r, float(err))


def test_sphere_rows_equal_one_row_calls():
    # rows of several points, on every route and in any order, are the
    # one-row calls bit for bit
    rng = np.random.default_rng(910)
    for n, m in ((3, 0), (3, 1), (4, 2), (5, 4)):
        cfg = KernelConfig(n, m)
        xs = np.array([_point(rng, n, ax) for ax in (0.4, 1.3, 2.5)])
        xs[1, :-1] = 0.0  # on the axis
        rho = np.geomspace(0.05, 40.0, 30)
        owner = rng.integers(0, len(xs), rho.size)
        moments = sphere_moments(cfg, xs)
        block = modified_poisson_sphere(cfg, xs, rho, owner, moments, _gaps(xs, rho, owner))
        for r in range(rho.size):
            p = owner[r]
            alone = _sphere(cfg, xs[p], rho[r])
            assert block[r].tobytes() == alone.tobytes(), (n, m, r)


def test_overflowing_sphere_kernel_is_a_domain_error():
    # every squared norm is finite, but a power of the kernel is not: one
    # domain error, raised before numpy warns
    far, x = np.array([1e110, 0.0, 1e110]), np.array([1e100, 0.0, 1e100])
    with np.errstate(over="raise", invalid="raise"):
        # (a + b)^(3/2) with a + b = 2e220
        with pytest.raises(DomainError, match=r"\|x - y\|\^n"):
            _sphere(KernelConfig(3, 3), far, 0.5)
        # a direct-route radius: the head's |x|^4 / rho^7 overflows while
        # (a + b)^(3/2) stays finite
        with pytest.raises(DomainError, match=r"\|x\|\^k"):
            _sphere(KernelConfig(3, 6), x, 1.5)
        assert np.isfinite(_sphere(KernelConfig(3, 3), x, [0.5, 3e100])).all()
        assert math.isfinite(_sphere(KernelConfig(3, 6), x, 3e100)[0])
