import numpy as np
import pytest

from hpot.errors import DomainError
from hpot.quadrature import _gauss_jacobi, halton_sequence, inverted_tail_rule


def loop_halton(count, dim, skip=0):
    """The one-index radical-inverse loop, as the reference."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    out = np.empty((count, dim))
    for j in range(dim):
        b = primes[j]
        for i in range(count):
            k = i + 1 + skip
            f = 1.0
            r = 0.0
            while k > 0:
                f /= b
                r += f * (k % b)
                k //= b
            out[i, j] = r
    return out


@pytest.mark.parametrize("dim", range(1, 13))
def test_halton_equals_the_index_loop(dim):
    for count, skip in ((0, 0), (1, 0), (4096, 0), (1, 7), (300, 12345), (50, 2**40)):
        got = halton_sequence(count, dim, skip)
        assert got.shape == (count, dim)
        assert np.array_equal(got, loop_halton(count, dim, skip))


def test_halton_prefixes_are_nested_and_bad_sizes_refused():
    full = halton_sequence(64, 3)
    assert np.array_equal(halton_sequence(16, 3), full[:16])
    assert np.array_equal(halton_sequence(16, 3, skip=48), full[48:])
    for count, dim, skip in ((4, 13, 0), (-1, 2, 0), (4, -1, 0), (4, 2, -1)):
        with pytest.raises(DomainError):
            halton_sequence(count, dim, skip)


@pytest.mark.parametrize("npts", [12, 16, 24, 32])
@pytest.mark.parametrize("beta", [-0.9, -0.5, 0.0, 0.5, 2.5, 5.5])
def test_gauss_jacobi_integrates_polynomials_exactly(beta, npts):
    # int_{-1}^{1} x^k (1+x)^beta dx for k < 2 npts, from t = 1 + x and the
    # binomial expansion at 60 digits; the tolerance is relative to
    # int |x|^k (1+x)^beta, which adds 2 B(k+1, beta+1) on [-1, 0] for odd k
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    b = mp.mpf(beta)
    x, w = _gauss_jacobi(npts, beta)
    for k in range(2 * npts):
        exact = mp.fsum(
            mp.binomial(k, j) * (-1) ** (k - j) * mp.mpf(2) ** (j + b + 1) / (j + b + 1)
            for j in range(k + 1)
        )
        absolute = exact + (mp.beta(k + 1, b + 1) * 2 if k % 2 else 0)
        assert abs(np.sum(w * x**k) - float(exact)) <= 1e-13 * float(absolute), k


@pytest.mark.parametrize("npts", [12, 32])
@pytest.mark.parametrize("beta", [-0.9, 0.0, 5.5])
def test_gauss_jacobi_matches_scipy(beta, npts):
    special = pytest.importorskip("scipy.special")
    x, w = _gauss_jacobi(npts, beta)
    xs, ws = special.roots_jacobi(npts, 0.0, beta)
    assert np.max(np.abs(x - xs)) <= 4e-15
    assert np.max(np.abs(w - ws) / ws) <= 1e-10


@pytest.mark.parametrize("r0", [4.0, 1e70])
@pytest.mark.parametrize("beta", [-0.9, 0.0, 5.5])
def test_inverted_tail_rule_integrates_power_tails(r0, beta):
    # rho^-(beta+2+j) is u^beta u^j in u = 1/rho: exact for j < 2 npts
    rho, w = inverted_tail_rule(r0, 12, beta)
    assert np.all(np.isfinite(w)) and np.all(rho > r0)
    for j in range(0, 24, 5):
        a = beta + 2.0 + j
        # int_{r0}^inf rho^-a drho = r0^(1-a) / (a-1), scaled by r0^(a-1)
        assert np.sum(w / r0 * (rho / r0) ** -a) == pytest.approx(1.0 / (a - 1.0), rel=1e-13)
