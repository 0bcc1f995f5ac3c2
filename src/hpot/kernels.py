"""Fundamental solution, Green function, Poisson kernel, and their modified
variants for the upper half-space.

The modified kernels subtract the leading terms of the Gegenbauer expansion
of the classical kernels whenever the source lies outside the unit ball,
which is what lets them absorb boundary data and measures of faster growth.
Piecewise definitions (plain kernel for sources inside the unit ball) are
kept exactly; the jump across the unit sphere is measure zero and accepted.

The Cartesian modified kernels (E_m, G_m and P_m) are their plain closed
form at m = 0 (G_0 drops only C_0, which cancels between y and its
reflection).  Above, each pair takes one of three routes that agree to near
machine precision where they overlap:

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

Sorted by radius, the sources of each route are column ranges of a row,
and ``_range_values`` runs each step on its own columns, the rows that
share their ranges at once; sources given in another order are sorted and
the values put back.  This is the one evaluation of every block of order
above 0, one point or many.  It computes every closed form before any
power of the head, so a block that fails raises the error of the closed
form where it has one.

The quadrature integrates P_m over boundary spheres (``modified_poisson_sphere``,
a 2F1 and moments of each point); ``modified_poisson_polar`` gives P_m on a
grid of radii by cosines.

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
from .quadrature import unit_sphere_area

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


def _operands(x, sources, n, width):
    """Field points as rows xs (P, n), sources as rows ys (N, width), the
    output shape (x's leading axis, if any, then the sources'), and the
    norms ax (P, 1) and ay (N,)."""
    xs, single = as_rows(x, n)
    ys = np.asarray(sources, dtype=float)
    if ys.shape[-1:] != (width,):
        raise DimensionError(f"expected sources with {width} coordinates, got shape {ys.shape}")
    shape = xs.shape[: 0 if single else 1] + ys.shape[:-1]
    ys = ys.reshape(-1, width)
    ax = np.sqrt(squared_norms(xs))[:, None]
    ay = np.sqrt(squared_norms(ys, "source"))
    return xs, ys, shape, ax, ay


def _squared_distances(xs, ys):
    """|x' - y|^2 for every row x of xs and y of ys, x' being the first
    ys.shape[1] coordinates of x."""
    d2, tmp = np.zeros((len(xs), len(ys))), np.empty((len(xs), len(ys)))
    for j in range(ys.shape[1]):
        np.subtract(xs[:, j, None], ys[:, j], out=tmp)
        tmp *= tmp
        d2 += tmp
    return d2


def _dots(xs, ys):
    """x'.y for every row x of xs and y of ys, x' as in ``_squared_distances``."""
    dots, tmp = np.zeros((len(xs), len(ys))), np.empty((len(xs), len(ys)))
    for j in range(ys.shape[1]):
        np.multiply(xs[:, j, None], ys[:, j], out=tmp)
        dots += tmp
    return dots


def _cos_angle(dots, ax, ay):
    """x.y / (|x||y|), clipped into [-1,1]; zero by convention when |x| = 0."""
    denom = ax * ay
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(denom > 0.0, dots / np.where(denom > 0.0, denom, 1.0), 0.0)
    return np.clip(t, -1.0, 1.0)


def _cos_outside(dots, ax, ay):
    """``_cos_angle`` for sources outside the unit ball, computed in dots:
    there |y| > 1, so |x||y| vanishes only on rows with |x| = 0."""
    if not ax.all():
        return _cos_angle(dots, ax, ay)
    np.divide(dots, ax * ay, out=dots)
    return np.clip(dots, -1.0, 1.0, out=dots)


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


def _poisson_closed_form(cfg, xn, d2):
    """2 x_n / (omega_n d2^(n/2)) from d2 = |x - (y',0)|^2; an overflowing
    d2^(n/2) is refused."""
    if np.any(d2 <= 0.0):
        raise SingularityError("Poisson kernel evaluated at its boundary source")
    return 2.0 * xn / (cfg.omega_n * _finite_powers(d2, 0.5 * cfg.n, "|x - y|^n"))


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


def _seam(order):
    """The factor c of the tail seam |y| = c|x| of a kernel that drops its
    first ``order`` expansion terms."""
    return 4.0 if order <= _WIDE_SEAM_ORDERS else 2.0


def _routes(ax, ay, order):
    """Masks of the tail-series sources (|y| > 1, |y| >= c|x|) and of the
    direct ones (1 < |y| < c|x|) for a kernel that drops its first ``order``
    expansion terms, c = 4 up to order ``_WIDE_SEAM_ORDERS`` and 2 above;
    the rest keep the plain kernel, every source when ``order`` is 0."""
    outer, far = (ay > 1.0) & (order > 0), ay >= _seam(order) * ax
    return outer & far, outer & ~far


@dataclass(frozen=True)
class _Kernel:
    """A Cartesian modified kernel as the block evaluations see it.

    Its plain kernel expands as amp * sum_k C_k^lam(t) |x|^k / |y|^(power+k)
    against sources of ``width`` coordinates, and the modified kernel drops
    the first ``order`` terms for sources with |y| > 1; order 0 (m = 0)
    keeps the plain kernel everywhere.  G_m is the difference of the
    expansions at y and at its reflection y*, so it has two cosines, and
    C_0 = 1 cancels from its head, which starts at degree ``first`` = 1."""

    cfg: KernelConfig
    kind: str  # "fundamental", "green" or "poisson"
    width: int
    lam: float
    power: int
    order: int
    first: int

    def amp(self, xs):
        return 2.0 * xs[:, -1:] / self.cfg.omega_n if self.kind == "poisson" else -self.cfg.r_n

    def closed(self, xs, ys, d2):
        """The plain kernel from d2 = |x' - y|^2 on the pairs of rows xs and
        ys."""
        cfg = self.cfg
        if self.kind == "fundamental":
            if np.any(d2 == 0.0):
                raise SingularityError("modified fundamental solution evaluated at x = y")
            return -cfg.r_n * d2 ** (0.5 * (2 - cfg.n))
        if self.kind == "green":
            return _green_closed_form(cfg, d2, 4.0 * xs[:, -1:] * ys[:, -1])
        xn = xs[:, -1:]
        return _poisson_closed_form(cfg, xn, d2 + xn * xn)

    def cosines(self, dots, xn, yn, ax, ay, cos):
        """The cosines of pairs from their dots x'.y, heights x_n and y_n,
        and norms, by ``cos``: a list of one array, or for G_m of two, the
        second for the reflected sources."""
        if self.kind != "green":
            return [cos(dots, ax, ay)]
        star = dots - 2.0 * yn * xn
        return [cos(dots, ax, ay), cos(star, ax, ay)]


def _kernel(cfg, kind):
    n, m = cfg.n, cfg.m
    if kind == "poisson":
        return _Kernel(cfg, kind, n - 1, 0.5 * n, n, m, 0)
    green = kind == "green"
    return _Kernel(cfg, kind, n, 0.5 * (n - 2), n - 2, m + (green and m > 0), int(green))


def _values(cfg, kind, x, sources):
    """The modified kernel ``kind`` at x, (n,) or (P, n), against sources
    of shape (..., width): the closed form on every pair at order 0, else
    by column ranges (``_by_ranges``)."""
    k = _kernel(cfg, kind)
    xs, ys, shape, ax, ay = _operands(x, sources, cfg.n, k.width)
    if k.order:
        out = _by_ranges(k, xs, ys, ax, ay)
    else:
        out = k.closed(xs, ys, _squared_distances(xs, ys))
    return out.reshape(shape)[()]


def _by_ranges(k, xs, ys, ax, ay):
    """``_range_values`` on the sources sorted by radius (by a stable sort
    here, unless they come sorted), with the values put back in the
    sources' order."""
    perm = np.argsort(ay, kind="stable") if np.any(ay[1:] < ay[:-1]) else None
    if perm is not None:
        ys, ay = ys[perm], ay[perm]
    start = int(np.searchsorted(ay, 1.0, "right"))
    ends = np.maximum(np.searchsorted(ay, _seam(k.order) * ax.ravel()), start)
    splits = np.flatnonzero(np.bincount(ends - start)) + start
    vals = _range_values(k, xs, ys, ax, ay, start, ends, splits)
    if perm is None:
        return vals
    out = np.empty_like(vals)
    out[:, perm] = vals
    return out


def _range_values(k, xs, ys, ax, ay, start, ends, splits):
    """k on rows xs (P, n) against sources ys (N, width) sorted by their
    radii ay, nondecreasing: row r's plain, direct and tail sources are the
    columns [0, start), [start, ends[r]) and [ends[r], N), and ``splits``
    holds the distinct ends, ascending.

    The rows that share an end form one group.  Each step runs only on the
    columns that need it, in this order: the closed form on every group's
    plain and direct columns, group by group; the cosines beyond the unit
    sphere; the powers |x|^k and |y|^(power+k) of the head, each computed
    once; the head of every group on its direct columns; and one tail
    series call on every group's tail.  So a block that fails raises the
    error of the first failing step: a pair on the kernel's singularity or
    an overflowing |x - y|^n of P_m (a block holding both in different
    groups raises whichever comes first), else an overflowing power of the
    head, a DomainError.  A (P, N) array."""
    lam, order, power, first = k.lam, k.order, k.power, k.first
    n_src = len(ys)
    out = np.empty((len(xs), n_src))
    groups = []
    for end in splits.tolist():
        rows = np.flatnonzero(ends == end)
        if rows[-1] - rows[0] == len(rows) - 1:
            rows = slice(rows[0], rows[-1] + 1)
        if end:
            xr = xs[rows]
            out[rows, :end] = k.closed(xr, ys[:end], _squared_distances(xr, ys[:end]))
        groups.append((rows, end))
    amp = k.amp(xs)
    lo, hi = int(ends.min(initial=n_src)), int(ends.max(initial=start))
    outside = ys[start:]
    t = k.cosines(_dots(xs, outside), xs[:, -1:], outside[:, -1], ax, ay[start:], _cos_outside)
    # the powers of the head, each computed once: of the rows with direct
    # sources and of the direct source radii
    near = ends > start
    heads = [
        (_finite_powers(ax, j, "|x|^k", near[:, None]),
         _finite_powers(ay[start:hi], power + float(j), "|y|^(p+k)"))
        for j in range(first, order)
    ]
    scale = ay[lo:] ** (-float(power))
    tails = []
    for rows, end in groups:
        ampr = amp if np.ndim(amp) == 0 else amp[rows]
        if end > start:
            width = end - start
            ladder = recurrence_ladder(lam, order - 1, np.stack([tj[rows, :width] for tj in t]))
            ladder = ladder[:, 0] - ladder[:, 1] if len(t) == 2 else ladder[:, 0]
            head = np.zeros(ladder.shape[1:])
            for j, (xk, yk) in enumerate(heads, first):
                head += xk[rows] * ladder[j] / yk[:width]
            out[rows, start:end] -= ampr * head
        if end < n_src:
            tails.append((rows, end, ampr, ax[rows] / ay[end:]))
    if tails:
        tt = np.concatenate(
            [np.stack([tj[rows, end - start :] for tj in t]).reshape(len(t), -1)
             for rows, end, _, _ in tails],
            axis=1,
        )
        s = gegenbauer_tail_sum(lam, tt, np.concatenate([q.ravel() for *_, q in tails]), order)
        s = s[0] - s[1] if len(t) == 2 else s[0]
        at = 0
        for rows, end, ampr, q in tails:
            out[rows, end:] = ampr * scale[end - lo :] * s[at : at + q.size].reshape(q.shape)
            at += q.size
    return out


def modified_fundamental_values(cfg: KernelConfig, x, ys) -> np.ndarray:
    """Modified fundamental solution at x, shape (n,) or (P, n), against
    sources ys of shape (..., n)."""
    return _values(cfg, "fundamental", x, ys)


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
    return _values(cfg, "green", x, ys)


def modified_green(cfg: KernelConfig, x, y) -> float:
    cx = _interior_coords(cfg, x)
    cy = _interior_coords(cfg, y, "source")
    return float(modified_green_values(cfg, cx, cy))


def modified_poisson_values(cfg: KernelConfig, x, yps) -> np.ndarray:
    """Modified Poisson kernel at x, shape (n,) or (P, n), against boundary
    sources yps of shape (..., n-1).

    May be negative outside the unit ball; reduces to the plain kernel for
    |y'| <= 1 or when the modification order is zero."""
    return _values(cfg, "poisson", x, yps)


def modified_poisson(cfg: KernelConfig, x, yp) -> float:
    cx = _interior_coords(cfg, x)
    cyp = _boundary_coords(cfg, yp)
    return float(modified_poisson_values(cfg, cx, cyp))


def modified_poisson_polar(cfg: KernelConfig, x, rho, cos_gamma) -> np.ndarray:
    """Modified Poisson kernel on the polar grid of boundary sources: radii
    rho (raveled, R values) by cosines cos_gamma (raveled, G values) of the
    angle to the tangential part of x, as an (R, G) array; a scalar counts
    as one value.  Each row takes its route (``_routes``), and every step
    is elementwise, so row r equals the call on rho[r] bit for bit."""
    n, m = cfg.n, cfg.m
    cx = as_coords(x, n)
    rho, cosg = (np.ravel(np.asarray(a, dtype=float)) for a in (rho, cos_gamma))
    squared_norms(cx[None, :])  # an overflowing |x|^2 is refused before np.dot warns
    ax2, xn = float(np.dot(cx, cx)), cx[-1]
    ax, x_tan = math.sqrt(ax2), math.sqrt(max(ax2 - xn * xn, 0.0))
    tail, direct = _routes(ax, rho, m)
    out = np.empty((rho.size, cosg.size))
    # the closed form only on plain and direct rows: tail rows may overflow it
    rn = rho[~tail, None]
    d2 = ax2 - (2.0 * x_tan) * rn * cosg + squared_norms(rn, "source")[:, None]
    out[~tail] = _poisson_closed_form(cfg, xn, d2)
    if m:
        lam, amp = 0.5 * n, 2.0 * xn / cfg.omega_n
        t = np.clip(x_tan * cosg / ax, -1, 1) if ax else np.zeros(cosg.size)
        rt = rho[tail, None]
        out[tail] = amp * rt ** -float(n) * gegenbauer_tail_sum(lam, t, ax / rt, m)
        ks = np.arange(m)
        head = _finite_powers(ax, ks, "|x|^k")
        head = head / _finite_powers(rho[direct, None], n + ks, "rho^(n+k)")
        out[direct] -= amp * np.einsum("rk,kg->rg", head, recurrence_ladder(lam, m - 1, t))
    return out


# ---------------------------------------------------------------------------
# the modified Poisson kernel over boundary spheres
# ---------------------------------------------------------------------------


_U_SPLIT = (math.sqrt(2.0) - 1.0) ** 2  # both series of _sphere_series converge like 0.17^k there


@functools.lru_cache(maxsize=None)
def _sphere_series(n):
    """The series of the angular integral of the plain kernel,

        S(a, b) = int_0^pi (a - b cos g)^(-n/2) sin^(n-3) g dg
                = B (a+b)^(-n/2) 2F1(n/2, n/2 - 1; n - 2; w),  w = 2b/(a+b),

    B = B((n-2)/2, 1/2), in u = 1 - w = (a-b)/(a+b), as (gauss, c1, logs).
    For u >= ``_U_SPLIT``, B 2F1 = ((1 + sqrt u)/2)^-n sum gauss_k z^k,
    z = ((1 - sqrt u)/(1 + sqrt u))^2 (the quadratic transformation of
    2F1(a, b; 2b; w), DLMF 15.8.13); below, c1/u + ln(u) sum logs_k0 u^k +
    sum logs_k1 u^k (Abramowitz & Stegun 15.3.12, c = a + b - 1; at n = 4
    logs is empty and c1/u exact).  Each runs until its terms at the split
    fall below 2^-57 of the value, so its length grows with n.  Against
    mpmath: 8.3e-16 for n <= 6, 1.8e-14 at n = 9 and 10."""
    al, be, ga = 0.5 * n, 0.5 * n - 1.0, n - 2.0
    b = math.sqrt(math.pi) * math.gamma(be) / math.gamma(0.5 * (n - 1))
    z = ((1.0 - math.sqrt(_U_SPLIT)) / (1.0 + math.sqrt(_U_SPLIT))) ** 2
    gauss, k = [b], 0
    while k < n or gauss[-1] * z**k >= 2.0**-57 * b:
        gauss.append(gauss[-1] * (al + k) * (1.5 + k) / ((0.5 * (n - 1) + k) * (k + 1.0)))
        k += 1
    c1 = b * math.gamma(ga) / (math.gamma(al) * math.gamma(be))
    h = 0.0 if n == 4 else b * math.gamma(ga) / (math.gamma(al - 1.0) * math.gamma(be - 1.0))
    # e = psi(al) + psi(be) - psi(1) - psi(2) = 2 (psi(be) - psi(1)) + 1/be - 1, with
    # psi(be) - psi(1) summed up from 1, or from psi(1/2) - psi(1) = -2 ln 2
    shift = sum(1.0 / t for t in np.arange(be % 1 or 1.0, be))
    shift -= 2.0 * math.log(2.0) if be % 1 else 0.0
    e, k, logs = 2.0 * shift + 1.0 / be - 1.0, 0, []
    while h and (k < n or abs(h) * (2.0 + abs(e)) * _U_SPLIT**k >= 2.0**-57 * c1 / _U_SPLIT):
        logs.append((h, h * e))
        e += 1.0 / (al + k) + 1.0 / (be + k) - 1.0 / (k + 1.0) - 1.0 / (k + 2.0)
        h *= (al + k) * (be + k) / ((k + 1.0) * (k + 2.0))
        k += 1
    return gauss, c1, np.array(logs).reshape(-1, 2)


def _sphere_plain(cfg, xt, xn, rho, gap):
    """S(a, b) of ``_sphere_series`` for tangential norms xt, heights xn,
    radii rho and gaps rho - xt, elementwise: a -+ b = gap^2 + x_n^2 and
    (rho + xt)^2 + x_n^2.  An overflowing (a+b)^(n/2) is a DomainError."""
    gauss, c1, logs = _sphere_series(cfg.n)
    with np.errstate(over="ignore"):
        dm, dp = gap * gap + xn * xn, (rho + xt) ** 2 + xn * xn
    if np.any(dm <= 0.0):
        raise SingularityError("Poisson kernel evaluated at its boundary source")
    power = _finite_powers(dp, 0.5 * cfg.n, "|x - y|^n")
    u = dm / dp
    out = np.empty(u.shape)
    low = (u >= _U_SPLIT) & bool(logs.size)
    polyval = np.polynomial.polynomial.polyval  # Horner's rule, elementwise
    root = 1.0 + np.sqrt(u[low])  # 1 - sqrt(u) = w / (1 + sqrt(u)), w = 4 rho |x'| / dp
    z = (4.0 * rho[low] * xt[low] / (dp[low] * root * root)) ** 2
    out[low] = polyval(z, gauss) * (0.5 * root) ** -float(cfg.n)
    u = u[~low]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        both = polyval(u, logs) if logs.size else np.zeros((2, u.size))
        out[~low] = c1 / u + (np.log(u) * both[0] + both[1])
        return out / power


@functools.lru_cache(maxsize=None)
def _moment_rule(n, top):
    """Nodes c = cos(t) > 0 and weights w, exact for int_{-1}^{1} g(c)
    (1 - c^2)^((n-4)/2) dc, g even of degree <= top: the midpoint rule in t
    for odd n, Fejer's first rule times the weight for even n, folded onto
    c > 0.  Gauss weights from eigenvectors (Golub-Welsch, or numpy's
    ``leggauss``) were off by up to 1.5e-14."""
    half = (top + n) // (4 if n % 2 else 2) + 1
    t = (np.arange(half) + 0.5) * (0.5 * math.pi / half)
    if n % 2:
        w = math.pi / half * np.sin(t) ** (n - 3)
    else:
        k = np.arange(1, half + 1)
        fejer = 1.0 - 2.0 * (np.cos(2.0 * np.outer(t, k)) / (4.0 * k * k - 1.0)).sum(axis=1)
        w = 2.0 / half * fejer * np.sin(t) ** (n - 4)
    c = np.cos(t)
    c.flags.writeable = w.flags.writeable = False  # shared by every caller
    return c, w


def _sphere_geometry(xs):
    """|x|, |x'| and x_n of each row of xs (P, n), |x|^2 = |x'|^2 + x_n^2."""
    xt2, xn = squared_norms(xs[:, :-1]), xs[:, -1]
    return np.sqrt(xt2 + xn * xn), np.sqrt(xt2), xn


def sphere_moments(cfg: KernelConfig, xs) -> np.ndarray:
    """M_k(s) = int_0^pi C_k^(n/2)(s cos g) sin^(n-3) g dg, s = |x'|/|x|
    (0 at the origin), for each row of xs (P, n) and k up to the tail
    route's top degree (q <= 1/c), at least m - 1: a (P, K+1) array (empty
    at m = 0), odd degrees 0.  ``_moment_rule`` is exact for them and fixed
    by n and m, so a row is the one-row call's bit for bit."""
    n, m, lam = cfg.n, cfg.m, 0.5 * cfg.n
    if not m:
        return np.zeros((len(xs), 0))
    top = max(m - 1, m + int(np.searchsorted(_tail_thresholds(lam, m), 1.0 / _seam(m), "right")))
    c, w = _moment_rule(n, top)
    ax, xt, _ = _sphere_geometry(xs)
    t = np.divide(xt, ax, out=np.zeros(len(xs)), where=ax > 0.0)[:, None] * c
    out = np.zeros((len(xs), top + 1))
    older, newer = np.ones(t.shape), 2.0 * lam * t
    out[:, 0] = np.sum(older * w, axis=1)
    for k in range(2, top + 1):
        older *= -(k + 2.0 * lam - 2.0) / k
        older += 2.0 * (k + lam - 1.0) / k * t * newer
        older, newer = newer, older
        if k % 2 == 0:
            out[:, k] = np.sum(newer * w, axis=1)
    return out


def modified_poisson_sphere(cfg: KernelConfig, xs, rho, owner, moments, gap) -> np.ndarray:
    """int_{S^(n-2)} P_m(x, rho w) dw, the modified Poisson kernel over the
    boundary sphere of radius rho, for each row r: rho[r], the point
    xs[owner[r]] with ``sphere_moments`` moments[owner[r]], and gap[r] =
    rho[r] - |x'|, formed by the caller.  With q = |x|/rho, the
    routes (``_routes``) give 2 x_n area(S^(n-3)) / omega_n times: plain,
    S(a, b) of ``_sphere_series`` (a = |x|^2 + rho^2, b = 2 rho |x'|);
    direct, S(a, b) - rho^-n sum_{k<m} M_k q^k; tail, rho^-n
    sum_{k=m}^{K} M_k q^k, K the degree of ``gegenbauer_tail_sum`` at q.
    The sums run by Horner's rule in q^2, a tail row's from its own degree
    (rows sorted by degree, those still summing a prefix): every row's
    arithmetic is its own, the one-row call's bit for bit.  An overflowing
    (a+b)^(n/2) or head is a DomainError; tail rows skip the closed form."""
    n, m = cfg.n, cfg.m
    ax, xt, xn = _sphere_geometry(xs)
    amp = 2.0 * xn * unit_sphere_area(n - 2) / cfg.omega_n
    tail, direct = _routes(ax[owner], rho, m)
    out = np.empty(rho.size)
    near = owner[~tail]
    out[~tail] = _sphere_plain(cfg, xt[near], xn[near], rho[~tail], gap[~tail]) * amp[near]
    if m:
        d, t = np.flatnonzero(direct), np.flatnonzero(tail)
        degree = m + np.searchsorted(_tail_thresholds(0.5 * n, m), ax[owner[t]] / rho[t], "right")
        t, degree = t[np.argsort(-degree, kind="stable")], np.sort(degree)[::-1]
        o, od, top = owner[t], owner[d], max(m - 1, int(degree.max(initial=0)))
        q2, qd2 = (ax[o] / rho[t]) ** 2, (ax[od] / rho[d]) ** 2
        counts = np.searchsorted(-degree, -np.arange(top + 1), "right").tolist()
        acc, head = np.zeros(t.size), np.zeros(d.size)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(top // 2 * 2, -1, -2):
                p = counts[k]
                acc[:p] *= q2[:p]
                if k >= m:
                    acc[:p] += moments[o[:p], k]
                else:
                    head *= qd2
                    head += moments[od, k]
            head *= amp[od] * rho[d] ** -float(n)
        if not np.isfinite(head).all():
            raise DomainError("kernel out of floating-point range: |x|^k overflows")
        out[d] -= head
        out[t] = acc * (amp[o] * rho[t] ** -float(n))
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
