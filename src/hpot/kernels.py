"""Fundamental solution, Green function, Poisson kernel, and their modified
variants for the upper half-space.

The modified kernels subtract the leading terms of the Gegenbauer expansion
of the classical kernels whenever the source lies outside the unit ball,
which is what lets them absorb boundary data and measures of faster growth.
Piecewise definitions (plain kernel for sources inside the unit ball) are
kept exactly; the jump across the unit sphere is measure zero and accepted.

Three evaluation routes are used internally and agree to machine precision
where they overlap:

* plain closed forms,
* closed form plus the finite correction sum (sources at moderate radius),
* the Gegenbauer tail series starting at the first surviving degree, used
  when the source radius is at least twice the field radius.  This route is
  free of the catastrophic cancellation the closed-form difference suffers
  deep in the tail.  Each element of a batch is truncated by its own ratio
  q = |x|/|y|, once the next term's envelope C_k(1) q^k falls below 1e-17
  of the leading term's, so a batch costs no more terms per element than
  that element needs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, SingularityError
from .gegenbauer import recurrence_ladder
from .geometry import as_coords

_SERIES_CAP = 400
_SERIES_RTOL = 1e-17


@dataclass(frozen=True)
class KernelConfig:
    """Dimension n >= 3 and modification order m >= 0, with the derived
    constants: omega_n is the surface area of the unit sphere in R^n and
    r_n = 1/((n-2) * omega_n) normalizes the fundamental solution."""

    n: int
    m: int = 0
    omega_n: float = field(init=False)
    r_n: float = field(init=False)

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise DomainError(f"dimension must be an integer >= 3, got {self.n}")
        if int(self.m) != self.m or self.m < 0:
            raise DomainError(f"modification order must be >= 0, got {self.m}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "m", int(self.m))
        omega = 2.0 * math.pi ** (self.n / 2.0) / math.gamma(self.n / 2.0)
        object.__setattr__(self, "omega_n", omega)
        object.__setattr__(self, "r_n", 1.0 / ((self.n - 2) * omega))


def _interior_coords(cfg, x, what="point"):
    c = as_coords(x, cfg.n)
    if c[-1] < 0.0:
        raise DomainError(f"{what} must lie in the closed half-space, height {c[-1]}")
    return c


def _boundary_coords(cfg, yp):
    c = as_coords(yp)
    if c.size != cfg.n - 1:
        raise DimensionError(
            f"boundary point needs {cfg.n - 1} coordinates, got {c.size}"
        )
    return c


def gegenbauer_tail_sum(lam, t, q, k_start, cap=_SERIES_CAP):
    """sum_{k >= k_start} C_k^lam(t) * q^k, elementwise over broadcast t, q.

    Intended for 0 <= q <= 0.5 (geometric decay).  Each element is truncated
    by its own q: degree k >= k_start + 2 is added only while the previous
    term's envelope C_{k-1}^lam(1) * q^(k-1-k_start) is at least 1e-17 of the
    leading scale C_{k_start}^lam(1); no degree above ``cap`` is used, and an
    element with q = 0 keeps only its leading term.

    The elements are sorted once by descending q, so those still active at
    a degree form a prefix that shrinks as the degree grows; the three-term
    recurrence runs on that prefix only, with the same arithmetic per
    element as a sum over all of them.
    """
    t, q = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(q, dtype=float))
    shape = t.shape
    order = np.argsort(q, axis=None)[::-1]
    qs = q.ravel()[order]
    ts = t.ravel()[order]
    size = qs.size

    # Active prefix length at degrees k_start+1 .. cap, from the least q
    # each degree needs.  Degree k_start+1 needs q > 0, so all-zero q stops
    # after the leading term.  Degree k needs C_{k-1}(1) q^(k-1-k_start) >=
    # rtol C_{k_start}(1), with C_k(1) from its ratio recurrence
    # C_k(1) = C_{k-1}(1) (k + 2 lam - 1) / k.
    ks = np.arange(k_start + 1, cap, dtype=float)
    growth = np.cumprod((ks + 2.0 * lam - 1.0) / ks)
    thresholds = np.append(
        np.nextafter(0.0, 1.0), (_SERIES_RTOL / growth) ** (1.0 / (ks - k_start))
    )
    counts = np.minimum.accumulate(size - np.searchsorted(qs[::-1], thresholds))
    counts = counts[: np.count_nonzero(counts)].tolist()
    last = k_start + len(counts)

    total = np.zeros(size, dtype=float)
    qk = np.ones(size, dtype=float)
    p = size
    tp, qp, qkp, totp = ts, qs, qk, total
    c_km1 = c_km2 = None
    for k in range(last + 1):
        if k > k_start and counts[k - k_start - 1] != p:
            p = counts[k - k_start - 1]
            tp, qp, qkp, totp = ts[:p], qs[:p], qk[:p], total[:p]
        if k == 0:
            c_k = np.ones(p)
        elif k == 1:
            c_k = 2.0 * lam * tp
        else:
            c_k = (
                2.0 * (k + lam - 1.0) * tp * c_km1[:p]
                - (k + 2.0 * lam - 2.0) * c_km2[:p]
            ) / k
        if k >= k_start:
            totp += c_k * qkp
        qkp *= qp
        c_km2, c_km1 = c_km1, c_k
    out = np.empty(size, dtype=float)
    out[order] = total
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# plain kernels
# ---------------------------------------------------------------------------


def fundamental(cfg: KernelConfig, x) -> float:
    """Fundamental solution -r_n |x|^(2-n); negative away from the origin."""
    c = as_coords(x, cfg.n)
    r2 = float(np.dot(c, c))
    if r2 == 0.0:
        raise SingularityError("fundamental solution evaluated at the origin")
    return -cfg.r_n * r2 ** (0.5 * (2 - cfg.n))


def green_values(cfg: KernelConfig, xs, ys) -> np.ndarray:
    """Green function on batches; xs, ys are (..., n) arrays.

    Uses expm1/log1p so the near-cancellation between the direct and
    reflected terms never loses relative accuracy; in particular the bounds
    of the classical Green-function estimates hold for the computed values
    with no floating-point violations.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    diff = xs - ys
    d2 = np.sum(diff * diff, axis=-1)
    if np.any(d2 == 0.0):
        raise SingularityError("Green function evaluated on its diagonal")
    tau_num = 4.0 * xs[..., -1] * ys[..., -1]
    dstar2 = d2 + tau_num
    tau = tau_num / dstar2
    nu = 0.5 * (cfg.n - 2)
    with np.errstate(divide="ignore"):
        factor = np.expm1(nu * np.log1p(-tau))
    return cfg.r_n * d2 ** (0.5 * (2 - cfg.n)) * factor


def green(cfg: KernelConfig, x, y) -> float:
    cx = _interior_coords(cfg, x)
    cy = _interior_coords(cfg, y)
    return float(green_values(cfg, cx, cy))


def poisson_values(cfg: KernelConfig, x, yps) -> np.ndarray:
    """Poisson kernel 2 x_n / (omega_n |x - (y',0)|^n) over a batch of
    boundary points yps with shape (..., n-1)."""
    cx = np.asarray(x, dtype=float)
    yps = np.asarray(yps, dtype=float)
    diff = cx[:-1] - yps
    d2 = np.sum(diff * diff, axis=-1) + cx[-1] ** 2
    if np.any(d2 == 0.0):
        raise SingularityError("Poisson kernel evaluated at its boundary source")
    return 2.0 * cx[-1] / (cfg.omega_n * d2 ** (0.5 * cfg.n))


def poisson(cfg: KernelConfig, x, yp) -> float:
    cx = _interior_coords(cfg, x)
    cyp = _boundary_coords(cfg, yp)
    return float(poisson_values(cfg, cx, cyp))


# ---------------------------------------------------------------------------
# modified kernels
# ---------------------------------------------------------------------------


def _cos_angle(dots, ax, ay):
    """x.y / (|x||y|), clipped into [-1,1]; zero by convention when |x| = 0."""
    denom = ax * ay
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(denom > 0.0, dots / np.where(denom > 0.0, denom, 1.0), 0.0)
    return np.clip(t, -1.0, 1.0)


def _promote_sources(arr, width):
    a = np.asarray(arr, dtype=float)
    if a.ndim == 1:
        if a.size != width:
            raise DimensionError(f"expected {width} coordinates, got {a.size}")
        return a[None, :], True
    if a.shape[-1] != width:
        raise DimensionError(f"expected trailing axis {width}, got {a.shape[-1]}")
    return a, False


def modified_fundamental_values(cfg: KernelConfig, x, ys) -> np.ndarray:
    """Modified fundamental solution at x against sources ys, shape (..., n)."""
    cx = as_coords(x, cfg.n)
    ys, single = _promote_sources(ys, cfg.n)
    m, n = cfg.m, cfg.n
    diff = cx - ys
    d2 = np.sum(diff * diff, axis=-1)
    if np.any(d2 == 0.0):
        raise SingularityError("modified fundamental solution evaluated at x = y")
    out = -cfg.r_n * d2 ** (0.5 * (2 - n))
    if m == 0:
        return out[0] if single else out
    ay = np.sqrt(np.sum(ys * ys, axis=-1))
    ax = float(np.sqrt(np.dot(cx, cx)))
    lam = 0.5 * (n - 2)
    t = _cos_angle(np.tensordot(ys, cx, axes=(-1, 0)), ax, ay)

    tail = (ay > 1.0) & (ay >= 2.0 * ax)
    if np.any(tail):
        q = ax / ay[tail]
        s = gegenbauer_tail_sum(lam, t[tail], q, m)
        out[tail] = -cfg.r_n * ay[tail] ** (2.0 - n) * s

    direct = (ay > 1.0) & ~tail
    if np.any(direct):
        ladder = recurrence_ladder(lam, m - 1, t[direct])
        corr = np.zeros(t[direct].shape, dtype=float)
        for k in range(m):
            corr += ax**k * ladder[k] / ay[direct] ** (n - 2.0 + k)
        out[direct] += cfg.r_n * corr
    return out[0] if single else out


def modified_fundamental(cfg: KernelConfig, x, y) -> float:
    cx = as_coords(x, cfg.n)
    cy = as_coords(y, cfg.n)
    return float(modified_fundamental_values(cfg, cx, cy))


def modified_green_values(cfg: KernelConfig, x, ys) -> np.ndarray:
    """Modified Green function: the modified fundamental solution of order
    m+1 applied to y and to its boundary reflection, differenced.

    Sources inside the closed unit ball reduce to the plain Green function
    (both correction sums cancel since |y*| = |y|), and the value vanishes
    identically for boundary sources."""
    cx = as_coords(x, cfg.n)
    ys, single = _promote_sources(ys, cfg.n)
    m, n = cfg.m, cfg.n
    out = green_values(cfg, cx, ys)
    ay = np.sqrt(np.sum(ys * ys, axis=-1))
    mask = ay > 1.0
    if not np.any(mask):
        return out[0] if single else out
    ax = float(np.sqrt(np.dot(cx, cx)))
    lam = 0.5 * (n - 2)
    ysm = ys[mask]
    aym = ay[mask]
    dots = np.tensordot(ysm, cx, axes=(-1, 0))
    dots_star = dots - 2.0 * ysm[..., -1] * cx[-1]
    t = _cos_angle(dots, ax, aym)
    t_star = _cos_angle(dots_star, ax, aym)

    tail = aym >= 2.0 * ax
    vals = out[mask]
    if np.any(tail):
        q = ax / aym[tail]
        s = gegenbauer_tail_sum(lam, t[tail], q, m + 1) - gegenbauer_tail_sum(
            lam, t_star[tail], q, m + 1
        )
        vals[tail] = -cfg.r_n * aym[tail] ** (2.0 - n) * s
    direct = ~tail
    if np.any(direct) and m >= 1:
        # degree-zero corrections cancel exactly between y and y*
        ladder = recurrence_ladder(lam, m, t[direct])
        ladder_star = recurrence_ladder(lam, m, t_star[direct])
        corr = np.zeros(t[direct].shape, dtype=float)
        for k in range(1, m + 1):
            corr += ax**k * (ladder[k] - ladder_star[k]) / aym[direct] ** (n - 2.0 + k)
        vals[direct] += cfg.r_n * corr
    out[mask] = vals
    return out[0] if single else out


def modified_green(cfg: KernelConfig, x, y) -> float:
    cx = _interior_coords(cfg, x)
    cy = _interior_coords(cfg, y, "source")
    return float(modified_green_values(cfg, cx, cy))


def modified_poisson_values(cfg: KernelConfig, x, yps) -> np.ndarray:
    """Modified Poisson kernel at x against boundary sources yps (..., n-1).

    May be negative outside the unit ball; reduces to the plain kernel for
    |y'| <= 1 or when the modification order is zero."""
    cx = as_coords(x, cfg.n)
    yps, single = _promote_sources(yps, cfg.n - 1)
    m, n = cfg.m, cfg.n
    out = poisson_values(cfg, cx, yps)
    if m == 0:
        return out[0] if single else out
    ayp = np.sqrt(np.sum(yps * yps, axis=-1))
    mask = ayp > 1.0
    if not np.any(mask):
        return out[0] if single else out
    ax = float(np.sqrt(np.dot(cx, cx)))
    lam = 0.5 * n
    ypm = yps[mask]
    aym = ayp[mask]
    t = _cos_angle(np.tensordot(ypm, cx[:-1], axes=(-1, 0)), ax, aym)

    tail = aym >= 2.0 * ax
    vals = out[mask]
    if np.any(tail):
        q = ax / aym[tail]
        s = gegenbauer_tail_sum(lam, t[tail], q, m)
        vals[tail] = 2.0 * cx[-1] / cfg.omega_n * aym[tail] ** (-float(n)) * s
    direct = ~tail
    if np.any(direct):
        ladder = recurrence_ladder(lam, m - 1, t[direct])
        corr = np.zeros(t[direct].shape, dtype=float)
        for k in range(m):
            corr += ax**k * ladder[k] / aym[direct] ** (n + float(k))
        vals[direct] -= 2.0 * cx[-1] / cfg.omega_n * corr
    out[mask] = vals
    return out[0] if single else out


def modified_poisson(cfg: KernelConfig, x, yp) -> float:
    cx = _interior_coords(cfg, x)
    cyp = _boundary_coords(cfg, yp)
    return float(modified_poisson_values(cfg, cx, cyp))


def modified_poisson_polar(cfg: KernelConfig, x, rho, cos_gamma) -> np.ndarray:
    """Modified Poisson kernel against boundary sources given in polar form:
    radius rho and cosine of the angle to the tangential part of x.

    Broadcasts rho against cos_gamma; used by the boundary quadrature, which
    integrates radial data and therefore never needs explicit boundary
    vectors."""
    cx = as_coords(x, cfg.n)
    rho = np.asarray(rho, dtype=float)
    cos_gamma = np.asarray(cos_gamma, dtype=float)
    rho, cos_gamma = np.broadcast_arrays(np.atleast_1d(rho), np.atleast_1d(cos_gamma))
    rho = rho.copy()
    m, n = cfg.m, cfg.n
    xn = cx[-1]
    ax2 = float(np.dot(cx, cx))
    ax = math.sqrt(ax2)
    x_tan = math.sqrt(max(ax2 - xn * xn, 0.0))

    d2 = ax2 - 2.0 * x_tan * rho * cos_gamma + rho * rho
    if np.any(d2 <= 0.0):
        raise SingularityError("Poisson kernel evaluated at its boundary source")
    out = 2.0 * xn / (cfg.omega_n * d2 ** (0.5 * n))
    if m == 0:
        return out
    lam = 0.5 * n
    t = np.clip(x_tan * cos_gamma / ax if ax > 0.0 else np.zeros_like(cos_gamma), -1, 1)
    t = np.broadcast_to(t, rho.shape)

    mask = rho > 1.0
    tail = mask & (rho >= 2.0 * ax)
    if np.any(tail):
        q = ax / rho[tail]
        s = gegenbauer_tail_sum(lam, t[tail], q, m)
        out[tail] = 2.0 * xn / cfg.omega_n * rho[tail] ** (-float(n)) * s
    direct = mask & ~tail
    if np.any(direct):
        ladder = recurrence_ladder(lam, m - 1, t[direct])
        corr = np.zeros(t[direct].shape, dtype=float)
        for k in range(m):
            corr += ax**k * ladder[k] / rho[direct] ** (n + float(k))
        out[direct] -= 2.0 * xn / cfg.omega_n * corr
    return out


# ---------------------------------------------------------------------------
# diagnostics: expansion partial sums, tail envelopes, Green bounds
# ---------------------------------------------------------------------------


def poisson_series_partial(cfg: KernelConfig, x, yp, kmax: int) -> float:
    """Partial sum of the Gegenbauer expansion of the plain Poisson kernel,
    (2 x_n/omega_n) sum_{k<=kmax} C_k^{n/2}(t) |x|^k / |y'|^{n+k}.

    Converges to the kernel for |x| < |y'|."""
    cx = _interior_coords(cfg, x)
    cyp = _boundary_coords(cfg, yp)
    ax = float(np.sqrt(np.dot(cx, cx)))
    ayp = float(np.sqrt(np.dot(cyp, cyp)))
    if ayp == 0.0:
        raise DomainError("expansion requires a nonzero boundary source")
    t = float(_cos_angle(np.dot(cyp, cx[:-1]), ax, ayp))
    ladder = recurrence_ladder(0.5 * cfg.n, kmax, np.asarray(t))
    ks = np.arange(kmax + 1)
    total = float(np.sum(ladder * (ax / ayp) ** ks)) * ayp ** (-float(cfg.n))
    return 2.0 * cx[-1] / cfg.omega_n * total


def poisson_tail_bound(cfg: KernelConfig, x, source_norm) -> float:
    """Envelope 2^(m+n+1) x_n |x|^m / (omega_n |y'|^(n+m)), valid whenever
    the source radius exceeds max(1, 2|x|)."""
    cx = np.asarray(x, dtype=float)
    ax = float(np.sqrt(np.dot(cx, cx)))
    return (
        2.0 ** (cfg.m + cfg.n + 1)
        * cx[-1]
        * ax**cfg.m
        / (cfg.omega_n * float(source_norm) ** (cfg.n + cfg.m))
    )


def fundamental_tail_bound(cfg: KernelConfig, x_norm, source_norm) -> float:
    """Envelope 2^(m+n-2) r_n |x|^m / |y|^(n-2+m) for |y| > max(1, 2|x|)."""
    return (
        2.0 ** (cfg.m + cfg.n - 2)
        * cfg.r_n
        * float(x_norm) ** cfg.m
        / float(source_norm) ** (cfg.n - 2 + cfg.m)
    )


def green_bound_report(cfg: KernelConfig, x, y) -> tuple[float, float, float]:
    """The two explicit Green-function envelopes and the normalized third
    ratio, for interior x != y:

        b1 = r_n / |x-y|^(n-2)
        b2 = 2 x_n y_n / (omega_n |x-y|^n)
        ratio3 = |G(x,y)| |x-y|^(n-2) |x-y*|^2 / (x_n y_n)

    |G| <= b1 and |G| <= b2 always; ratio3 is bounded by a dimensional
    constant whose value is certified empirically, not hard-coded."""
    cx = _interior_coords(cfg, x)
    cy = _interior_coords(cfg, y, "source")
    if not (cx[-1] > 0.0 and cy[-1] > 0.0):
        raise DomainError("Green bounds need interior points on both sides")
    g = float(green_values(cfg, cx, cy))
    diff = cx - cy
    d2 = float(np.sum(diff * diff))
    if d2 == 0.0:
        raise SingularityError("Green bounds evaluated on the diagonal")
    dstar2 = d2 + 4.0 * cx[-1] * cy[-1]
    b1 = cfg.r_n * d2 ** (-0.5 * (cfg.n - 2))
    b2 = 2.0 * cx[-1] * cy[-1] / (cfg.omega_n * d2 ** (0.5 * cfg.n))
    ratio3 = abs(g) * d2 ** (0.5 * (cfg.n - 2)) * dstar2 / (cx[-1] * cy[-1])
    return b1, b2, ratio3
