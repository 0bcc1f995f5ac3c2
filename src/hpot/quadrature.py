"""Panel-based Gauss-Legendre quadrature helpers and an inverted tail rule.

Integrals over [0, inf) are split at a radius r0: dyadic Gauss-Legendre
panels cover [0, r0], refined locally where the integrand peaks, and
``inverted_tail_rule`` covers [r0, inf) in u = 1/rho, where the caller's
integrand is u^beta times a smooth function of u.  The endpoint power is
absorbed by a Gauss-Jacobi rule (Golub-Welsch), so no truncation radius
is needed.
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


@functools.lru_cache(maxsize=64)
def _gauss_jacobi(npts: int, beta: float):
    """Gauss rule for the weight (1+x)^beta on [-1, 1], beta > -1, from the
    Jacobi matrix of the polynomials P_k^(0, beta) (Golub-Welsch)."""
    k = np.arange(1.0, npts)
    s = 2.0 * k + beta
    diag = np.append(beta / (beta + 2.0), beta * beta / (s * (s + 2.0)))
    off = np.sqrt(4.0 * k**2 * (k + beta) ** 2 / (s * s * (s + 1.0) * (s - 1.0)))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 ** (beta + 1.0) / (beta + 1.0) * vec[0] ** 2
    x.flags.writeable = w.flags.writeable = False  # shared by every caller
    return x, w


def inverted_tail_rule(r0, npts: int, beta: float):
    """Nodes rho > r0 and weights w with sum w F(rho) = int_{r0}^inf F drho
    for F(1/u) u^-2 = u^beta g(u), g smooth: the Gauss-Jacobi rule mapped by
    u = (1+x) / (2 r0).  The weight of the substitution,
    (u0/2)^(beta+1) u^(-2-beta), is written scale-free as
    rho (1+x)^-(beta+1), so it stays finite for any r0 and beta.  An r0 of
    shape (P, 1) gives one rule per row, (P, npts), each that of its r0."""
    x, w = _gauss_jacobi(npts, float(beta))
    rho = 2.0 * r0 / (1.0 + x)
    return rho, w * rho * (1.0 + x) ** -(beta + 1.0)


def unit_sphere_area(d: int) -> float:
    """Surface area of the unit sphere S^{d-1} inside R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def panel_nodes(breakpoints, npts: int):
    """Gauss-Legendre nodes/weights tiled over consecutive panels."""
    bs = np.asarray(breakpoints, dtype=float)
    nodes, weights = tiled_panel_nodes(bs[:-1], bs[1:], npts)
    return nodes.ravel(), weights.ravel()


def tiled_panel_nodes(lo, hi, npts: int):
    """Gauss-Legendre nodes/weights on the panels [lo[i], hi[i]], one row
    of npts per panel: (K, npts) arrays for K panels."""
    x, w = _leggauss(npts)
    half = 0.5 * (hi - lo)
    mid = lo + half
    return mid[:, None] + half[:, None] * x[None, :], half[:, None] * w[None, :]


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
