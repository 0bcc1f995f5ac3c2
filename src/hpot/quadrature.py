"""Panel-based Gauss-Legendre quadrature helpers.

Improper integrals over [0, inf) are handled with dyadic panels plus
analytic tail bounds supplied by the caller; integrands peaked at interior
points get locally refined breakpoints.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError


@functools.lru_cache(maxsize=None)
def _leggauss(npts: int):
    x, w = np.polynomial.legendre.leggauss(npts)
    return x, w


def unit_sphere_area(d: int) -> float:
    """Surface area of the unit sphere S^{d-1} inside R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def panel_nodes(breakpoints, npts: int):
    """Gauss-Legendre nodes/weights tiled over consecutive panels."""
    bs = np.asarray(breakpoints, dtype=float)
    x, w = _leggauss(npts)
    lo = bs[:-1]
    half = 0.5 * (bs[1:] - lo)
    mid = lo + half
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def dyadic_breakpoints(lo: float, hi: float, scale: float) -> list[float]:
    """0-anchored ladder lo, lo+scale, lo+2*scale, lo+4*scale, ... up to hi."""
    if hi <= lo:
        return [lo, hi] if hi > lo else [lo]
    bs = [lo]
    step = scale
    v = lo + step
    while v < hi:
        bs.append(v)
        step *= 2.0
        v = lo + step
    bs.append(hi)
    return bs


def refined_breakpoints(lo, hi, base_scale, anchors=()):
    """Sorted panel breakpoints on [lo, hi].

    ``anchors`` is a sequence of (center, scale) pairs; breakpoints are
    accumulated geometrically away from each center down to its scale, so a
    sharply peaked factor is resolved without a dense global grid.
    """
    pts = set(dyadic_breakpoints(lo, hi, base_scale))
    for center, scale in anchors:
        if scale <= 0:
            continue
        step = scale
        while step < 2.0 * (hi - lo):
            for p in (center - step, center, center + step):
                if lo < p < hi:
                    pts.add(p)
            step *= 2.0
    out = sorted(pts)
    # drop near-duplicate breakpoints (relative gap below 1e-12)
    dedup = [out[0]]
    for p in out[1:]:
        if p - dedup[-1] > 1e-12 * max(1.0, abs(p)):
            dedup.append(p)
    if dedup[-1] != hi:
        dedup.append(hi)
    return dedup


def halton_sequence(count: int, dim: int, skip: int = 0) -> np.ndarray:
    """Points skip+1 .. skip+count of the Halton sequence in [0,1)^dim.

    Deterministic low-discrepancy stream; prefixes are nested, so doubling a
    node budget only adds points.  Coordinate j is the radical inverse of the
    index in the j-th prime base, expanded digit by digit over the whole
    index array at once with the scalar operation order (f /= b, then
    r += f * digit), so every value equals the one-index loop bit for bit:
    an exhausted index only adds +0.0.  The first 12 primes are the bases,
    so dim > 12 is a DomainError.
    """
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    if dim > len(primes) or min(count, dim, skip) < 0:
        raise DomainError(
            f"Halton sequences take 0 <= dim <= {len(primes)} and count, "
            f"skip >= 0, got count={count}, dim={dim}, skip={skip}"
        )
    out = np.empty((count, dim))
    for j, b in enumerate(primes[:dim]):
        k = np.arange(skip + 1, skip + count + 1, dtype=np.int64)
        f = 1.0
        r = np.zeros(count)
        while k.any():
            f /= b
            r += f * (k % b)
            k //= b
        out[:, j] = r
    return out
