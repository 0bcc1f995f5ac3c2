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
precondition lambda >= 5^beta M; rho = inf for beta = 0).  The witness
search therefore sorts atom distances only for the lattice rows that have
an atom within rho |x|.  The pruning is exact: the bound is widened past
the rounding of the cumulative masses, the powers and the distances, so a
pruned row is one the full sort would also reject, and every kept row runs
the full sort against all atoms and gets the same radius bit for bit.
Rows go through in blocks of at most _BLOCK_ELEMENTS row-atom pairs, so the
working memory is set by that budget, not by rows x atoms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import Ball, Point, as_coords, as_rows, squared_norms, stable_norm
from .measures import AtomicMeasure

INFLATION = 5.0

# Row-atom pairs held at once by the witness search (and point-ball pairs by
# CoveringResult.contains); each pair costs about 64 bytes at the peak of
# _distance_profile.  Blocks of 2^16 pairs ran the benchmark's covering
# faster than 2^18 or 2^20 (they stay in cache).
_BLOCK_ELEMENTS = 1 << 16


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
    """Per row of xs: sorted atom distances and cumulative masses."""
    diff = xs[:, None, :] - mu.points[None, :, :]
    d = np.sqrt(np.sum(diff * diff, axis=-1))
    order = np.argsort(d, axis=1)
    d_sorted = np.take_along_axis(d, order, axis=1)
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
    if not grid_delta > 0.0:
        raise DomainError(f"grid spacing must be positive, got {grid_delta}")
    lo, hi = 2.0**k, 2.0 ** (k + 1)
    h = grid_delta * 2.0**k
    j = np.arange(-math.ceil(hi / h), math.ceil(hi / h) + 1)
    axes = [j * h] * dim
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
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


def _within_reach(points: np.ndarray, xs: np.ndarray, reach: np.ndarray):
    """Per row of xs: whether some point lies within that row's reach."""
    hit = np.zeros(len(xs), dtype=bool)
    if len(points) == 0:
        return hit
    step = _block_rows(len(points))
    reach2 = reach * reach
    for lo in range(0, len(xs), step):
        block = xs[lo : lo + step]
        d2 = np.zeros((len(block), len(points)))
        for c in range(xs.shape[1]):
            diff = np.subtract.outer(block[:, c], points[:, c])
            diff *= diff
            d2 += diff
        hit[lo : lo + step] = np.any(d2 <= reach2[lo : lo + step, None], axis=1)
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
    return radii


def _witness_radii(mu: AtomicMeasure, query: MaximalQuery, xs: np.ndarray):
    """Smallest atom distance r with mu(closed ball) > lam (r/|x|)^beta per
    row, or nan when the row is not in E(lambda).

    A row coinciding with an atom is always a member (for beta > 0 any
    radius below the threshold-crossing one witnesses); half the crossing
    radius of the coincident mass is used there so the ball stays
    nondegenerate.  Only rows with an atom within the reach bound are
    sorted; see the module docstring."""
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
        rows = rows[_within_reach(mu.points[near], xs[rows], reach * rr)]
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
