import numpy as np
import pytest

from hpot.errors import DomainError
from hpot.quadrature import halton_sequence


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
