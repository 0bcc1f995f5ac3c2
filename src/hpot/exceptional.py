"""Maximal functions, the exceptional-set covering construction, and growth
ratio scans.

For a finite atomic measure the fractional maximal function
M(x) = sup_r mu(closed ball(x, r)) / r^beta is attained at an atom distance,
so membership in the exceptional set

    E(lambda) = { |x| >= 2 : M(x) > lambda / |x|^beta }

is exactly decidable.  The covering construction walks dyadic shells,
samples candidate centers on a lattice, picks the smallest witnessing
radius per member, greedily extracts a disjoint subfamily in decreasing
radius order, and inflates the survivors five-fold: every sampled member is
then covered, and the weighted radius sum carries the certified bound
3 * mass * 5^beta / lambda.

Reach bound.  A closed ball holds at most the total mass M, so an atom at
distance d witnesses x only if lambda (d/|x|)^beta < M, that is
d < rho |x| with rho = (M/lambda)^(1/beta) (rho <= 1/5 under the covering
precondition lambda >= 5^beta M; rho = inf for beta = 0).  The bound is
widened past the rounding of the cumulative masses, the powers and the
distances, so no row the full sort accepts is pruned.

Witness search.  Only atoms of the shell's annulus, | |y| - |x| | <= rho |x|,
can be within reach of a row.  They are grouped into boxes: cubes of side
the largest reach, keyed by the first min(n, 3) coordinates, each with the
bounding box of its atoms over all n.  A row is paired with a box only when
the box lies within its reach widened by 1 + 1e-9, and then with each atom
of that box, and a row is kept when one of those atoms is within reach.
This is exact: an atom within reach lies in a box within reach, since the
box's gap to the row is, coordinate by coordinate, no larger than the
rounded difference to the atom.  A kept row is then sorted against the
annulus atoms only, which gives the full sort's radius bit for bit: every
atom within reach is in the annulus, so up to the reach the sorted
distances and cumulative masses agree term for term (atoms at equal
distance keep their order in the measure in both), and past the reach
neither sort can accept an atom.  The
row-box, row-atom and sorted pairs each go through in blocks of at most
_BLOCK_ELEMENTS, so the working memory is set by that budget, not by
rows x atoms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import Ball, Point, as_coords, as_rows, squared_norms, stable_norm
from .measures import AtomicMeasure

INFLATION = 5.0

# Pairs held at once by each stage of the witness search (row-box gaps,
# row-atom distances, and the distance sort of kept rows) and point-ball
# pairs by CoveringResult.contains.  The sort is the largest per pair, about
# 64 bytes (n = 3), so a block peaks near 4 MB.  Blocks of 2^16 pairs ran
# the benchmark's covering faster than 2^18 or 2^20 (they stay in cache).
_BLOCK_ELEMENTS = 1 << 16
# Points of the bounding cube of one shell lattice, (2 ceil(2/delta) + 1)^n.
_MAX_LATTICE_POINTS = 1 << 24
# Cubes per axis in _boxes: a key of three 17-bit cube indices is exact in
# float64 (a float sort touches less of numpy than an int64 one; a cube
# count only sets how many boxes there are, not which rows are kept).
_CUBES_PER_AXIS = 1 << 17


@dataclass(frozen=True)
class MaximalQuery:
    """Order beta >= 0 and threshold lambda > 0 for exceptional-set tests."""

    beta: float
    lam: float

    def __post_init__(self):
        if not (self.beta >= 0.0 and np.isfinite(self.beta)):
            raise DomainError(f"maximal order must be >= 0, got {self.beta}")
        if not (self.lam > 0.0 and np.isfinite(self.lam)):
            raise DomainError(f"threshold must be positive, got {self.lam}")

    def admits_covering(self, mu: AtomicMeasure) -> bool:
        return self.lam >= INFLATION**self.beta * mu.total_mass


@dataclass(frozen=True)
class CoveringResult:
    balls: tuple
    weighted_sum: float
    bound: float

    def contains(self, point):
        """Whether one point lies in an open ball of the covering (a bool),
        or that test for each row of a (P, n) array (a (P,) bool array).

        Each ball is tested as in ``Ball.contains``, ``stable_norm(x - c) <
        radius``, so a point on a sphere is outside.  Rows go through in
        blocks of at most _BLOCK_ELEMENTS point-ball pairs."""
        if not self.balls:
            return False if np.ndim(point) < 2 else np.zeros(len(point), dtype=bool)
        centers = np.array([b.center.coords for b in self.balls])
        radii = np.array([b.radius for b in self.balls])
        pts, single = as_rows(point, centers.shape[1])
        inside = np.zeros(len(pts), dtype=bool)
        step = _block_rows(len(radii))
        for lo in range(0, len(pts), step):
            diff = pts[lo : lo + step, None, :] - centers[None, :, :]
            inside[lo : lo + step] = np.any(stable_norm(diff) < radii, axis=1)
        return bool(inside[0]) if single else inside

    def to_json_dict(self):
        return {
            "balls": [
                {"center": list(map(float, b.center.coords)), "radius": b.radius}
                for b in self.balls
            ],
            "weighted_sum": self.weighted_sum,
            "bound": self.bound,
        }


@dataclass(frozen=True)
class GrowthParams:
    """Growth exponent alpha > 0 and modification order m for ratio scans."""

    alpha: float
    m: int

    def __post_init__(self):
        if not (self.alpha > 0.0 and np.isfinite(self.alpha)):
            raise DomainError(f"growth exponent must be positive, got {self.alpha}")
        if int(self.m) != self.m or self.m < 0:
            raise DomainError(f"modification order must be >= 0, got {self.m}")


def _distance_profile(mu: AtomicMeasure, xs: np.ndarray):
    """Per row of xs: sorted atom distances and cumulative masses.  Atoms at
    equal distance keep their order in mu, as in a stable sort; the faster
    default sort is redone stably only on rows with such a tie."""
    diff = xs[:, None, :] - mu.points[None, :, :]
    d = np.sqrt(np.sum(diff * diff, axis=-1))
    order = np.argsort(d, axis=1)
    d_sorted = np.take_along_axis(d, order, axis=1)
    tied = np.any(d_sorted[:, 1:] == d_sorted[:, :-1], axis=1)
    if np.any(tied):
        order[tied] = np.argsort(d[tied], axis=1, kind="stable")
    cum = np.cumsum(mu.masses[order], axis=1)
    return d_sorted, cum


def maximal_function(mu: AtomicMeasure, beta: float, x) -> float:
    """sup over r of mu(closed ball(x,r)) / r^beta.

    With closed balls the supremum is attained at an atom distance; if an
    atom sits at x and beta > 0 the value is +inf (flagged, not an error).
    For beta = 0 the value is the total mass.
    """
    if not (beta >= 0.0):
        raise DomainError(f"maximal order must be >= 0, got {beta}")
    if len(mu) == 0:
        return 0.0
    if beta == 0.0:
        return mu.total_mass
    cx = as_coords(x, mu.dimension)
    d, cum = _distance_profile(mu, cx[None, :])
    d, cum = d[0], cum[0]
    if d[0] == 0.0:
        return math.inf
    return float(np.max(cum / d**beta))


def exceptional_membership(mu: AtomicMeasure, query: MaximalQuery, x) -> bool:
    """x belongs to E(lambda): |x| >= 2 and M(x) > lambda / |x|^beta."""
    cx = as_coords(x, mu.dimension)
    r = float(np.sqrt(np.dot(cx, cx)))
    if r < 2.0:
        return False
    return maximal_function(mu, query.beta, cx) > query.lam / r**query.beta


def shell_lattice(k: int, grid_delta: float, dim: int) -> np.ndarray:
    """Lattice of spacing grid_delta * 2^k restricted to the dyadic shell
    2^k <= |x| < 2^(k+1); the per-shell point count is scale-free."""
    if k < 1:
        raise DomainError(f"shell index must be >= 1, got {k}")
    if not 0.0 < grid_delta < math.inf:
        raise DomainError(f"grid spacing must be finite and positive, got {grid_delta}")
    try:
        lo, hi = 2.0**k, 2.0 ** (k + 1)
    except OverflowError:
        hi = math.inf
    if not hi * hi < math.inf:  # then no point of the shell has a finite |x|^2
        raise DomainError(f"shell {k} lies past the floating-point range")
    h = grid_delta * lo
    if not h < math.inf:
        raise DomainError(f"grid spacing {grid_delta} at shell {k} lies past the floating-point range")
    half = hi / h  # 2 / grid_delta up to rounding
    count = (2 * math.ceil(half) + 1) ** dim if half < math.inf else math.inf
    if count > _MAX_LATTICE_POINTS:
        size = f"{count:.4g}" if count < 1e300 else "more than 1e300"
        raise DomainError(
            f"grid spacing {grid_delta} needs a lattice of {size} points per shell, "
            f"more than 2^24 = {_MAX_LATTICE_POINTS}"
        )
    j = np.arange(-math.ceil(half), math.ceil(half) + 1)
    axes = [j * h] * dim
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    with np.errstate(over="ignore"):  # an overflow puts a point past the shell
        r = np.sqrt(np.sum(grid * grid, axis=-1))
    return grid[(r >= lo) & (r < hi)]


def _reach(mu: AtomicMeasure, query: MaximalQuery) -> float:
    """rho such that only atoms closer than rho |x| can witness a row x."""
    if query.beta == 0.0:
        return math.inf
    # Widened so that no row the witness test accepts is pruned: the factor
    # 1 + 4 N eps covers the sequential cumsum (up to N ulps above M) and the
    # pow and product in that test; the 1e-9 covers the rounding of d, |x|
    # and rho itself; the floor at the smallest normal covers an underflow
    # of (d/|x|)^beta.
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    ratio = max(mu.total_mass * (1.0 + 4 * len(mu) * eps) / query.lam, tiny)
    with np.errstate(over="ignore"):
        rho = np.float64(ratio) ** (1.0 / np.float64(query.beta))
    return float(rho) * (1.0 + 1e-9)


def _block_rows(n_atoms: int) -> int:
    return max(1, _BLOCK_ELEMENTS // max(1, n_atoms))


def _boxes(points: np.ndarray, side: float):
    """The points sorted by cube of the given side over their first
    min(n, 3) coordinates, with each occupied cube's first index and atom
    count in that order and its bounding box (lo, hi) over all coordinates."""
    cols = points[:, : min(points.shape[1], 3)]
    with np.errstate(over="ignore"):
        cell = np.floor((cols - cols.min(axis=0)) / side)
    cell = np.minimum(cell, _CUBES_PER_AXIS - 1)
    key = cell[:, 0]
    for c in range(1, cell.shape[1]):
        key = key * _CUBES_PER_AXIS + cell[:, c]
    order = np.argsort(key)
    starts = np.flatnonzero(np.diff(key[order], prepend=-1.0))
    pts = points[order]
    lo = np.minimum.reduceat(pts, starts, axis=0)
    hi = np.maximum.reduceat(pts, starts, axis=0)
    return pts, starts, np.diff(starts, append=len(pts)), lo, hi


def _within_reach(points: np.ndarray, xs: np.ndarray, reach: np.ndarray):
    """Per row of xs: whether some point lies within that row's reach.

    The points are grouped into boxes (see _boxes); a row is tested exactly
    only against the points of boxes within its widened reach, and row-box
    and row-point pairs both go through in blocks of at most _BLOCK_ELEMENTS."""
    hit = np.zeros(len(xs), dtype=bool)
    if len(points) == 0 or len(xs) == 0:
        return hit
    # a reach that underflowed to 0 keeps only atoms that coincide with a row
    pts, starts, counts, lo, hi = _boxes(points, max(float(reach.max()), np.finfo(float).tiny))
    reach2 = reach * reach
    wide2 = reach2 * (1.0 + 1e-9) ** 2
    step = _block_rows(len(starts))
    for a in range(0, len(xs), step):
        block = xs[a : a + step]
        g2 = np.zeros((len(block), len(starts)))
        for c in range(xs.shape[1]):
            gap = np.maximum(lo[:, c] - block[:, c, None], block[:, c, None] - hi[:, c])
            np.maximum(gap, 0.0, out=gap)
            gap *= gap
            g2 += gap
        rows, boxes = np.nonzero(g2 <= wide2[a : a + step, None])
        del g2
        cnt = counts[boxes]
        ends = np.cumsum(cnt)
        total = int(ends[-1]) if len(ends) else 0
        for e0 in range(0, total, _BLOCK_ELEMENTS):
            # row-box pairs p0..p1-1 expand to the row-atom pairs e0..e1-1;
            # the first and the last of them may be cut
            e1 = min(e0 + _BLOCK_ELEMENTS, total)
            p0 = int(np.searchsorted(ends, e0, side="right"))
            p1 = int(np.searchsorted(ends, e1 - 1, side="right")) + 1
            take = cnt[p0:p1].copy()
            first = starts[boxes[p0:p1]]
            skip = e0 - int(ends[p0] - cnt[p0])
            take[0] -= skip
            first[0] += skip
            take[-1] -= int(ends[p1 - 1]) - e1
            r = np.repeat(rows[p0:p1], take)
            atom = np.arange(e1 - e0) + np.repeat(first - (np.cumsum(take) - take), take)
            d2 = np.zeros(len(r))
            for c in range(xs.shape[1]):
                diff = block[r, c] - pts[atom, c]
                diff *= diff
                d2 += diff
            hit[a + r[d2 <= reach2[a + r]]] = True
    return hit


def _exact_radii(mu, query, xs, r):
    """Witness radii of rows with |x| >= 2 from their full distance sort."""
    d, cum = _distance_profile(mu, xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = cum > query.lam * (d / r[:, None]) ** query.beta
    at_atom = ok[:, 0] & (d[:, 0] == 0.0) & (query.beta > 0)
    ok &= d > 0.0
    has = ok.any(axis=1)
    first = np.where(has, ok.argmax(axis=1), 0)
    radii = np.where(has, d[np.arange(len(xs)), first], np.nan)
    if np.any(at_atom):
        crossing = r * (cum[:, 0] / query.lam) ** (1.0 / max(query.beta, 1e-300))
        radii[at_atom] = np.fmin(
            np.where(np.isnan(radii), np.inf, radii), 0.5 * crossing
        )[at_atom]
        if np.any(radii[at_atom] == 0.0):
            raise DomainError(
                f"beta = {query.beta:g} is too small: the crossing radius "
                "|x| (mass/lambda)^(1/beta) of a lattice point on an atom underflows to 0"
            )
    return radii


def _witness_radii(mu: AtomicMeasure, query: MaximalQuery, xs: np.ndarray):
    """Smallest atom distance r with mu(closed ball) > lam (r/|x|)^beta per
    row, or nan when the row is not in E(lambda).

    A row coinciding with an atom is always a member (for beta > 0 any
    radius below the threshold-crossing one witnesses); half the crossing
    radius of the coincident mass is used there so the ball stays
    nondegenerate.  Only rows with an atom within the reach bound are
    sorted, and only against the annulus atoms; see the module docstring."""
    r = np.sqrt(np.sum(xs * xs, axis=-1))
    radii = np.full(len(xs), np.nan)
    rows = np.flatnonzero(r >= 2.0)
    reach = _reach(mu, query)
    if math.isfinite(reach) and len(rows):
        # |y| is within (1 +- rho)|x| of any witness; the 1e-9 covers rounding
        rr = r[rows]
        grow = (1.0 + reach) * (1.0 + 1e-9)
        norms = np.sqrt(np.sum(mu.points * mu.points, axis=-1))
        near = (norms >= rr.min() * (2.0 - grow)) & (norms <= rr.max() * grow)
        mu = AtomicMeasure(mu.dimension, mu.points[near], mu.masses[near])
        rows = rows[_within_reach(mu.points, xs[rows], reach * rr)]
    step = _block_rows(len(mu))
    for lo in range(0, len(rows), step):
        block = rows[lo : lo + step]
        radii[block] = _exact_radii(mu, query, xs[block], r[block])
    return radii


def exceptional_candidates(mu, query, k, grid_delta):
    """Sampled members of E(lambda) in shell k with their witness radii."""
    grid = shell_lattice(k, grid_delta, mu.dimension)
    if len(mu) == 0 or len(grid) == 0:
        return grid[:0], np.zeros(0)
    radii = _witness_radii(mu, query, grid)
    keep = ~np.isnan(radii)
    return grid[keep], radii[keep]


def vitali_covering(
    mu: AtomicMeasure, query: MaximalQuery, shells, grid_delta: float
) -> CoveringResult:
    """Constructive covering of the sampled exceptional set.

    Requires lambda >= 5^beta * mass.  Processes each dyadic shell
    independently: greedy disjoint selection in decreasing witness-radius
    order, then five-fold inflation.  The output covers every sampled
    member, and the weighted sum of (radius/|center|)^beta obeys the bound.
    """
    if not query.admits_covering(mu):
        raise DomainError(
            "threshold below the covering precondition "
            f"(lambda={query.lam} < 5^beta * mass={INFLATION**query.beta * mu.total_mass})"
        )
    balls = []
    weighted = 0.0
    for k in shells:
        centers, radii = exceptional_candidates(mu, query, k, grid_delta)
        if len(centers) == 0:
            continue
        order = np.argsort(-radii, kind="stable")
        chosen_c: list[np.ndarray] = []
        chosen_r: list[float] = []
        for idx in order:
            c, r = centers[idx], radii[idx]
            disjoint = all(
                float(np.linalg.norm(c - cc)) >= r + rr
                for cc, rr in zip(chosen_c, chosen_r)
            )
            if disjoint:
                chosen_c.append(c)
                chosen_r.append(float(r))
        for c, r in zip(chosen_c, chosen_r):
            rho = INFLATION * r
            balls.append(Ball(Point(c), rho))
            weighted += (rho / float(np.linalg.norm(c))) ** query.beta
    bound = 3.0 * mu.total_mass * INFLATION**query.beta / query.lam
    return CoveringResult(tuple(balls), weighted, bound)


# ---------------------------------------------------------------------------
# growth-ratio diagnostics
# ---------------------------------------------------------------------------


def _ratios(values, xs, params: GrowthParams) -> np.ndarray:
    """|u| / (x_n^(1-alpha) |x|^(m+alpha)) for each row of xs."""
    r = np.sqrt(squared_norms(xs))
    with np.errstate(over="ignore"):
        denom = xs[:, -1] ** (1.0 - params.alpha) * r ** (params.m + params.alpha)
    if not np.isfinite(denom).all():
        raise DomainError(
            "growth ratio out of floating-point range: x_n^(1-alpha) |x|^(m+alpha) overflows"
        )
    return np.abs(values) / denom


def growth_ratio(u_eval, x, params: GrowthParams) -> float:
    """|u(x)| / (x_n^(1-alpha) |x|^(m+alpha)); x must be interior."""
    cx = np.asarray(as_coords(x), dtype=float)
    if not cx[-1] > 0.0:
        raise DomainError("growth ratios are defined for interior points")
    return float(_ratios(float(u_eval(cx)), cx[None, :], params)[0])


@dataclass(frozen=True)
class ScanRow:
    ray_index: int
    radius: float
    ratio: float
    in_exceptional: bool


def growth_scan(
    u_eval,
    rays,
    radii,
    params: GrowthParams,
    covering: CoveringResult | None = None,
    *,
    dim: int,
    subharmonic: bool = False,
) -> list[ScanRow]:
    """Ratio table over rays x radii; points inside the covering are flagged
    so decay assertions can skip them.

    ``u_eval`` takes a (P, n) array of points and returns their (P,) values;
    it is called once, on every scan point in ray-major order (all radii of
    ray 0, then ray 1, ...).  The ratios use the formula of ``growth_ratio``.

    The exponent range is the one under which the corresponding decay
    statement holds: alpha <= n for harmonic scans, alpha < 2 once a Green
    potential participates (the half-space estimate degenerates at 2).
    """
    if subharmonic:
        if not params.alpha < 2.0:
            raise DomainError("subharmonic scans need alpha < 2")
    elif not params.alpha <= dim:
        raise DomainError(f"harmonic scans need alpha <= {dim}")
    radii = list(radii)
    if any(b >= a for a, b in zip(radii[1:], radii)):
        raise DomainError("radii must be strictly increasing")
    dirs = []
    for i, ray in enumerate(rays):
        d = as_coords(ray, dim)
        if abs(float(np.linalg.norm(d)) - 1.0) > 1e-9:
            raise DomainError(f"ray {i} is not a unit vector")
        if not d[-1] > 0.0:
            raise DomainError(f"ray {i} does not point into the half-space")
        dirs.append(d)
    rho = np.array(radii, dtype=float)
    xs = (rho[None, :, None] * np.reshape(dirs, (-1, 1, dim))).reshape(-1, dim)
    if not np.all(xs[:, -1] > 0.0):
        raise DomainError("growth ratios are defined for interior points")
    ratios = _ratios(np.asarray(u_eval(xs), dtype=float), xs, params)
    if covering is not None:
        flagged = covering.contains(xs)
    else:
        flagged = np.zeros(len(xs), dtype=bool)
    return [
        ScanRow(j // len(rho), float(rho[j % len(rho)]), float(q), bool(f))
        for j, (q, f) in enumerate(zip(ratios, flagged))
    ]


def scan_csv(rows: list[ScanRow]) -> str:
    from .potentials import format_float

    lines = ["ray_index,radius,ratio,in_G"]
    for r in rows:
        lines.append(
            f"{r.ray_index},{format_float(r.radius)},{format_float(r.ratio)},"
            f"{int(r.in_exceptional)}"
        )
    return "\n".join(lines) + "\n"
