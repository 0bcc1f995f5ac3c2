"""Fundamental solution, Green function, Poisson kernel, and their modified
variants for the upper half-space.

The modified kernels subtract the leading terms of the Gegenbauer expansion
of the classical kernels whenever the source lies outside the unit ball,
which is what lets them absorb boundary data and measures of faster growth.
Piecewise definitions (plain kernel for sources inside the unit ball) are
kept exactly; the jump across the unit sphere is measure zero and accepted.

The Cartesian modified kernels (E_m, G_m and P_m) compute their plain
closed form, which at m = 0 is their value (G_0 drops only C_0, which
cancels between y and its reflection).  Above, they hand it to one route
helper, ``_modify``, which picks per element between three routes that
agree to near machine precision where they overlap:

* the plain closed form (sources inside the closed unit ball),
* closed form minus the finite head of the expansion (sources at moderate
  radius),
* the Gegenbauer tail series starting at the first surviving degree, used
  when the source radius is at least c times the field radius: c = 4 for
  kernels that drop at most 2 terms, 2 above (``_routes``; the comment
  there gives the accuracy measured at each c).  This route is free of the
  catastrophic cancellation the closed-form difference suffers deep in the
  tail.  Each element is truncated by its own ratio q = |x|/|y|, once the
  next term's envelope C_k(1) q^k falls below 1e-17 of the leading term's,
  so a batch costs no more terms per element than that element needs.

The polar P_m of the quadrature runs on a grid of source radii (rows, each
routed by ``_routes``) by cosines: one Gegenbauer ladder over the cosines
serves every row, contracted by an ``einsum`` (no BLAS) with q^k up to the
row's own tail degree, or with the radial factors of the head.

The Cartesian kernels take one field point x of shape (n,) or a block of
points (P, n), giving values of shape (N,) or (P, N) against N sources.
Distances and dot products are summed one coordinate at a time, never
through BLAS, so every value is computed by the same elementwise arithmetic
whatever the block: row i of a block call equals the call on x[i] bit for
bit.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, SingularityError
from .gegenbauer import recurrence_ladder
from .geometry import as_coords, as_rows, squared_norms

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


@functools.lru_cache(maxsize=None)
def _tail_thresholds(lam, k_start, cap=_SERIES_CAP):
    """Least q at which degrees k_start+1 .. cap of the tail series are
    added, made nondecreasing (shared, read-only): q stops at degree
    k_start + searchsorted(thresholds, q, "right").  Degree k_start+1 needs
    q > 0; degree k needs C_{k-1}(1) q^(k-1-k_start) >= rtol C_{k_start}(1)."""
    ks = np.arange(k_start + 1, cap, dtype=float)
    growth = np.cumprod((ks + 2.0 * lam - 1.0) / ks)
    least = (_SERIES_RTOL / growth) ** (1.0 / (ks - k_start))
    thresholds = np.maximum.accumulate(np.append(np.nextafter(0.0, 1.0), least))
    thresholds.flags.writeable = False
    return thresholds


def gegenbauer_tail_sum(lam, t, q, k_start):
    """sum_{k >= k_start} C_k^lam(t) * q^k, elementwise over broadcast t, q.

    Intended for 0 <= q <= 0.5 (geometric decay).  Each element is truncated
    by its own q: degree k >= k_start + 2 is added only while the previous
    term's envelope C_{k-1}^lam(1) * q^(k-1-k_start) is at least 1e-17 of the
    leading scale C_{k_start}^lam(1); no degree above ``_SERIES_CAP`` is used,
    and an element with q = 0 keeps only its leading term.

    The terms d_k = C_k(t) q^k follow the three-term recurrence with q
    folded in, k d_k = 2(k+lam-1) (tq) d_{k-1} - (k+2lam-2) q^2 d_{k-2}.
    Sorted once by descending q, the raveled elements still active at a
    degree form a prefix, shrinking with the degree and updated in place.
    """
    t, q = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(q, dtype=float))
    shape, q = t.shape, q.ravel()
    order = np.argsort(q)[::-1]
    qs = q[order]
    size = qs.size

    # active prefix length at degrees k_start+1 .. _SERIES_CAP
    counts = size - np.searchsorted(qs[::-1], _tail_thresholds(lam, k_start))
    counts = counts[: np.count_nonzero(counts)].tolist()
    last = k_start + len(counts)

    tq = t.ravel()[order]
    tq *= qs
    q2 = np.multiply(qs, qs, out=qs)
    total = np.full(size, 0.0 if k_start else 1.0)
    work = np.empty(size)
    # d_{k-2}, d_{k-1} and the other arrays, cut to the active prefix of p elements
    p, older, newer = size, np.ones(size), 2.0 * lam * tq
    tq_p, q2_p, total_p, work_p = tq, q2, total, work
    mul = np.multiply
    for k in range(1, last + 1):
        if k > k_start and counts[k - k_start - 1] != p:
            p = counts[k - k_start - 1]
            tq_p, q2_p, total_p, work_p = tq[:p], q2[:p], total[:p], work[:p]
            older, newer = older[:p], newer[:p]
        # ufunc calls with out=: cheaper per call than in-place operators
        if k >= 2:
            mul(older, q2_p, out=older)
            mul(older, -(k + 2.0 * lam - 2.0) / k, out=older)
            mul(tq_p, newer, out=work_p)
            mul(work_p, 2.0 * (k + lam - 1.0) / k, out=work_p)
            np.add(older, work_p, out=older)
            older, newer = newer, older
        if k >= k_start:
            np.add(total_p, newer, out=total_p)
    work[order] = total
    return work.reshape(shape)


# ---------------------------------------------------------------------------
# pair geometry, one coordinate at a time
# ---------------------------------------------------------------------------


def _pairs(x, sources, n, width):
    """Field points as rows xs (P, n), sources as rows ys (N, width), the
    output shape (x's leading axis, if any, then the sources'), and per pair
    d2 = |x' - y|^2 and dots = x'.y, x' being the first ``width``
    coordinates of x, with the norms ax (P, 1) and ay (N,)."""
    xs, single = as_rows(x, n)
    ys = np.asarray(sources, dtype=float)
    if ys.shape[-1:] != (width,):
        raise DimensionError(f"expected sources with {width} coordinates, got shape {ys.shape}")
    shape = xs.shape[: 0 if single else 1] + ys.shape[:-1]
    ys = ys.reshape(-1, width)
    ax = np.sqrt(squared_norms(xs))[:, None]
    ay = np.sqrt(squared_norms(ys, "source"))
    d2, dots, tmp = (np.zeros((len(xs), len(ys))) for _ in range(3))
    for j in range(width):
        xj, yj = xs[:, j, None], ys[:, j]
        np.subtract(xj, yj, out=tmp)
        tmp *= tmp
        d2 += tmp
        np.multiply(xj, yj, out=tmp)
        dots += tmp
    return xs, ys, shape, d2, dots, ax, ay


def _cos_angle(dots, ax, ay):
    """x.y / (|x||y|), clipped into [-1,1]; zero by convention when |x| = 0."""
    denom = ax * ay
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(denom > 0.0, dots / np.where(denom > 0.0, denom, 1.0), 0.0)
    return np.clip(t, -1.0, 1.0)


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


def _green_closed_form(cfg, d2, tau_num):
    """G from d2 = |x-y|^2 and tau_num = 4 x_n y_n.

    Uses expm1/log1p so the near-cancellation between the direct and
    reflected terms never loses relative accuracy; in particular the bounds
    of the classical Green-function estimates hold for the computed values
    with no floating-point violations."""
    if np.any(d2 == 0.0):
        raise SingularityError("Green function evaluated on its diagonal")
    tau = tau_num / (d2 + tau_num)
    with np.errstate(divide="ignore"):
        factor = np.expm1(0.5 * (cfg.n - 2) * np.log1p(-tau))
    return cfg.r_n * d2 ** (0.5 * (2 - cfg.n)) * factor


def green_values(cfg: KernelConfig, xs, ys) -> np.ndarray:
    """Green function on batches; xs, ys are (..., n) arrays paired
    elementwise."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    diff = xs - ys
    d2 = np.sum(diff * diff, axis=-1)
    return _green_closed_form(cfg, d2, 4.0 * xs[..., -1] * ys[..., -1])


def green(cfg: KernelConfig, x, y) -> float:
    cx = _interior_coords(cfg, x)
    cy = _interior_coords(cfg, y)
    return float(green_values(cfg, cx, cy))


def _finite_powers(base, exponent, what, where=True):
    """base ** exponent for nonnegative bases; a power that overflows where
    ``where`` holds is a DomainError, found by one reduction and raised
    before numpy can warn (elsewhere it may be inf)."""
    with np.errstate(over="ignore"):
        p = base**exponent
    if not np.isfinite(np.max(p, initial=0.0, where=where)):
        raise DomainError(f"kernel out of floating-point range: {what} overflows")
    return p


def _poisson_closed_form(cfg, xn, d2, where=True):
    """2 x_n / (omega_n d2^(n/2)) from d2 = |x - (y',0)|^2; only the elements
    where ``where`` holds are refused when d2^(n/2) overflows (the others
    read 0 and are meant to be overwritten)."""
    if np.any(d2 <= 0.0):
        raise SingularityError("Poisson kernel evaluated at its boundary source")
    return 2.0 * xn / (cfg.omega_n * _finite_powers(d2, 0.5 * cfg.n, "|x - y|^n", where))


def poisson(cfg: KernelConfig, x, yp) -> float:
    return modified_poisson(KernelConfig(cfg.n), x, yp)


# ---------------------------------------------------------------------------
# modified kernels
# ---------------------------------------------------------------------------


# Highest modification order (number of subtracted terms) whose tail seam
# sits at |y| = 4|x|; higher orders keep it at 2|x|.  At c = 4 the tail's
# q = |x|/|y| is at most 1/4, and the series stops by degree 34 instead of
# 68 (lam = 3/2, order 1).  The direct route's closed form minus head
# cancels about c^order of the value, and more where the first kept term
# nearly vanishes, so the wider seam costs accuracy; the rule is set by the
# worst case.  Against mpmath at 50 digits, n = 3-5, sources in
# 2|x| <= |y| < 4|x| whose cosine with x sits near a root of C_order (the
# first kept term): orders 1-2 read at most 5.9e-12 at c = 4 (9.4e-13 at
# c = 2), under the seam oracle's 1e-11; order 3 read 4.1e-11 for E_3 at
# c = 4 (2.3e-13 at c = 2).
_WIDE_SEAM_ORDERS = 2


def _routes(ax, ay, order):
    """Masks of the tail-series sources (|y| > 1, |y| >= c|x|) and of the
    direct ones (1 < |y| < c|x|) for a kernel that drops its first ``order``
    expansion terms, c = 4 up to order ``_WIDE_SEAM_ORDERS`` and 2 above;
    the rest keep the plain kernel, every source when ``order`` is 0."""
    c = 4.0 if order <= _WIDE_SEAM_ORDERS else 2.0
    outer, far = (ay > 1.0) & (order > 0), ay >= c * ax
    return outer & far, outer & ~far


def _modify(plain, lam, ax, ay, t, order, power, amp):
    """The modified kernel from the plain kernel values, for sources with
    |y| > 1 and order >= 1.

    The plain kernel expands as amp * sum_k C_k^lam(t) |x|^k / |y|^(power+k);
    the modified kernel drops its first ``order`` terms.  ``t`` stacks the
    cosines along a leading axis: one row, or two (y and its reflection y*)
    when the kernel is the difference of the two expansions.  ax, ay, amp
    and each row of t broadcast to plain's shape.  Tail sources (see
    ``_routes``) take the tail series amp |y|^-power sum_{k >= order} C_k(t) q^k;
    direct ones subtract the finite head from the closed form, where a power
    |x|^k or |y|^(power+k) that overflows is a DomainError."""
    shape = plain.shape
    out = plain.ravel()
    ax, ay, amp = (np.broadcast_to(a, shape).ravel() for a in (ax, ay, amp))
    tail, direct = (np.flatnonzero(r) for r in _routes(ax, ay, order))
    t = np.broadcast_to(t, t.shape[:1] + shape).reshape(len(t), -1)
    pair = len(t) == 2
    if tail.size:
        ayt = ay[tail]
        s = gegenbauer_tail_sum(lam, t[:, tail], ax[tail] / ayt, order)
        s = s[0] - s[1] if pair else s[0]
        out[tail] = amp[tail] * ayt ** (-float(power)) * s
    # C_0 = 1 cancels in a pair's difference, so its head starts at degree 1
    first = 1 if pair else 0
    if order > first and direct.size:
        axd, ayd = ax[direct], ay[direct]
        ladder = recurrence_ladder(lam, order - 1, t[:, direct])
        ladder = ladder[:, 0] - ladder[:, 1] if pair else ladder[:, 0]
        head = np.zeros(axd.shape)
        for k in range(first, order):
            xk = _finite_powers(axd, k, "|x|^k")
            head += xk * ladder[k] / _finite_powers(ayd, power + float(k), "|y|^(p+k)")
        out[direct] -= amp[direct] * head
    return out.reshape(shape)


def modified_fundamental_values(cfg: KernelConfig, x, ys) -> np.ndarray:
    """Modified fundamental solution at x, shape (n,) or (P, n), against
    sources ys of shape (..., n)."""
    _, _, shape, d2, dots, ax, ay = _pairs(x, ys, cfg.n, cfg.n)
    if np.any(d2 == 0.0):
        raise SingularityError("modified fundamental solution evaluated at x = y")
    out = -cfg.r_n * d2 ** (0.5 * (2 - cfg.n))
    if cfg.m:
        t = _cos_angle(dots, ax, ay)[None]
        out = _modify(out, 0.5 * (cfg.n - 2), ax, ay, t, cfg.m, cfg.n - 2, -cfg.r_n)
    return out.reshape(shape)[()]


def modified_fundamental(cfg: KernelConfig, x, y) -> float:
    cx = as_coords(x, cfg.n)
    cy = as_coords(y, cfg.n)
    return float(modified_fundamental_values(cfg, cx, cy))


def modified_green_values(cfg: KernelConfig, x, ys) -> np.ndarray:
    """Modified Green function at x, shape (n,) or (P, n), against sources
    ys of shape (..., n): the modified fundamental solution of order m+1
    applied to y and to its boundary reflection, differenced.

    Sources inside the closed unit ball reduce to the plain Green function
    (both correction sums cancel since |y*| = |y|), and the value vanishes
    identically for boundary sources.  At m = 0 the one dropped term, C_0,
    cancels between y and y*, so G_0 is the plain Green function for every
    source, exactly symmetric in x and y."""
    xs, ys, shape, d2, dots, ax, ay = _pairs(x, ys, cfg.n, cfg.n)
    xn, yn = xs[:, -1:], ys[:, -1]
    out = _green_closed_form(cfg, d2, 4.0 * xn * yn)
    if cfg.m:
        t = np.stack([_cos_angle(dots, ax, ay), _cos_angle(dots - 2.0 * yn * xn, ax, ay)])
        out = _modify(out, 0.5 * (cfg.n - 2), ax, ay, t, cfg.m + 1, cfg.n - 2, -cfg.r_n)
    return out.reshape(shape)[()]


def modified_green(cfg: KernelConfig, x, y) -> float:
    cx = _interior_coords(cfg, x)
    cy = _interior_coords(cfg, y, "source")
    return float(modified_green_values(cfg, cx, cy))


def modified_poisson_values(cfg: KernelConfig, x, yps) -> np.ndarray:
    """Modified Poisson kernel at x, shape (n,) or (P, n), against boundary
    sources yps of shape (..., n-1).

    May be negative outside the unit ball; reduces to the plain kernel for
    |y'| <= 1 or when the modification order is zero."""
    xs, _, shape, d2, dots, ax, ay = _pairs(x, yps, cfg.n, cfg.n - 1)
    xn = xs[:, -1:]
    if cfg.m == 0:
        return _poisson_closed_form(cfg, xn, d2 + xn * xn).reshape(shape)[()]
    tail, _ = _routes(ax, ay, cfg.m)
    # the closed form of a tail source is overwritten, so it may overflow
    out = _poisson_closed_form(cfg, xn, d2 + xn * xn, ~tail)
    t = _cos_angle(dots, ax, ay)[None]
    out = _modify(out, 0.5 * cfg.n, ax, ay, t, cfg.m, cfg.n, 2.0 * xn / cfg.omega_n)
    return out.reshape(shape)[()]


def modified_poisson(cfg: KernelConfig, x, yp) -> float:
    cx = _interior_coords(cfg, x)
    cyp = _boundary_coords(cfg, yp)
    return float(modified_poisson_values(cfg, cx, cyp))


def modified_poisson_polar(cfg: KernelConfig, x, rho, cos_gamma) -> np.ndarray:
    """Modified Poisson kernel on the polar grid of boundary sources: radii
    rho (raveled, R values) by cosines cos_gamma (raveled, G values) of the
    angle to the tangential part of x, as an (R, G) array; a scalar counts
    as one value.  A tail row stops at the degree ``gegenbauer_tail_sum``
    gives its q = |x|/rho, and row r equals the call on rho[r] bit for bit."""
    cx = as_coords(x, cfg.n)
    rho, cos_gamma = (np.ravel(np.asarray(a, dtype=float)) for a in (rho, cos_gamma))
    n, m = cfg.n, cfg.m
    xn = cx[-1]
    squared_norms(cx)  # an overflowing |x|^2 is refused before np.dot warns
    ax2 = float(np.dot(cx, cx))
    ax = math.sqrt(ax2)
    x_tan = math.sqrt(max(ax2 - xn * xn, 0.0))
    tail, direct = _routes(ax, rho, m)
    # the closed form only on plain and direct rows: tail rows may overflow it
    near = ~tail
    rn = rho[near, None]
    out = np.empty((rho.size, cos_gamma.size))
    d2 = ax2 - 2.0 * x_tan * rn * cos_gamma + squared_norms(rn, "source")[:, None]
    out[near] = _poisson_closed_form(cfg, xn, d2)
    if m == 0:
        return out
    lam, amp = 0.5 * n, 2.0 * xn / cfg.omega_n
    q = ax / rho[tail]
    degree = m + np.searchsorted(_tail_thresholds(lam, m), q, "right")
    top = max(m - 1, int(degree.max(initial=0)))
    t = np.clip(x_tan * cos_gamma / ax if ax > 0.0 else np.zeros_like(cos_gamma), -1, 1)
    ladder = recurrence_ladder(lam, top, t)
    ks = np.arange(top + 1)
    powers = q[:, None] ** ks
    powers[(ks < m) | (ks > degree[:, None])] = 0.0
    out[tail] = amp * rho[tail, None] ** -float(n) * np.einsum("rk,kg->rg", powers, ladder)
    ks, rd = ks[:m], rho[direct, None]
    head = _finite_powers(ax, ks, "|x|^k") / _finite_powers(rd, n + ks, "rho^(n+k)")
    out[direct] -= amp * np.einsum("rk,kg->rg", head, ladder[:m])
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
