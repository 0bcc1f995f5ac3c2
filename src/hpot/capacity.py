"""Discretized capacities and the dyadic thinness / rarefiedness series.

The continuum capacity is the infimum of the total weight of nonnegative
functions g supported on a window F whose kernel smoothing dominates one on
a set E.  Discretized on quadrature nodes it becomes the linear program

    minimize    c . g        (c = node weights)
    subject to  A g >= 1     (A[j, i] = weight_i * K(x_j, node_i))
                g >= 0

with the boundary kernel K(x, y') = 1/|x-(y',0)|^n for the minimal-thinness
capacity and the half-space kernel K(x, y) = 1/|x-y|^(n-1) for the
rarefiedness capacity.

The LP solver is a dense reference implementation: because c >= 0 the dual
``max 1.y  s.t.  A^T y <= c, y >= 0`` starts feasible at y = 0, so a plain
tableau simplex needs no phase one; the primal minimizer is read off the
optimal slack reduced costs.  The slack block of the tableau is the basis
inverse (product form, Dantzig & Orchard-Hays 1954): slack column i stays
the unit vector e_i, with reduced cost 0, until row i is a pivot row, since
every other pivot subtracts multiples of a row whose entry there is 0.  So
the tableau stores [A^T | c] and appends a row's slack column only when that
row first pivots; the pivots, and every stored value, are those of the full
tableau bit for bit.  Sizes here are desk-scale, and tests pit the solver
against exhaustive vertex enumeration and the full tableau.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleError, NumericalError
from .kernels import KernelConfig
from .quadrature import halton_sequence

BOUNDARY = "boundary"
HALFSPACE = "halfspace"
# tableau elements per row block of the simplex elimination: on a 400 x 1024
# LP one unblocked update ran 30% slower and raised the tracemalloc peak
# from 20 to 24 MB
_BLOCK_ELEMENTS = 2**16
# slack columns stored before the tableau first grows (it doubles).  Growing
# by one column per newly pivoted row instead copies the whole tableau each
# time: on exceptional_pipeline (2 cores, 6 pairs each at seeds 5 and 11)
# that raised peak_rss_mb from 50.7-51.1 to 56.8-57.5 MB, while wall_s read
# 3-7% lower, within the spread of the runs
_SLACK_ROOM = 32
# a column enters the dual basis while its reduced cost exceeds 1e-3 of this
_LP_TOL = 1e-9


@dataclass(frozen=True)
class LPInstance:
    """min c.g  s.t.  A g >= 1, g >= 0, with finite nonnegative data."""

    c: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or c.ndim != 1 or A.shape[1] != c.size:
            raise DomainError(
                f"inconsistent LP shapes: A {A.shape}, c {c.shape}"
            )
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(c))):
            raise DomainError("LP data must be finite")
        if np.any(A < 0.0) or np.any(c < 0.0):
            raise DomainError("LP data must be nonnegative")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)


@dataclass(frozen=True)
class LPSolution:
    g: np.ndarray
    value: float
    dual: np.ndarray


def _eliminate(T, r, j, scratch):
    """Clear column j outside the pivot row r, whose pivot is already 1:
    T[i] -= T[i, j] * T[r] for every i != r, as one multiply into
    ``scratch`` and one subtraction per block of its rows.  Each entry gets
    the same multiply and subtract as in a row-by-row update, and rows with
    T[i, j] = 0 subtract zeros, which keeps their values."""
    f = T[:, j].copy()
    f[r] = 0.0
    rows = len(scratch)
    for i in range(0, len(T), rows):
        blk = slice(i, i + rows)
        s = scratch[: len(f[blk])]
        np.multiply(f[blk, None], T[r], out=s)
        T[blk] -= s


def lp_solve(lp: LPInstance) -> LPSolution:
    """Solve the covering LP; raises InfeasibleError when a constraint row
    has no positive entry (no g can satisfy it)."""
    A, c = lp.A, lp.c
    m, k = A.shape
    if m == 0:
        return LPSolution(np.zeros(k), 0.0, np.zeros(0))
    row_max = A.max(axis=1) if k else np.zeros(m)
    if np.any(row_max <= 0.0):
        bad = int(np.argmax(row_max <= 0.0))
        raise InfeasibleError(f"constraint row {bad} has no positive entry")

    # dual tableau: rows = k constraints A^T y + s = c.  Columns 0..m-1 of
    # the full tableau [A^T | I_k | c] hold y and m..m+k-1 the slacks; slack
    # m+i stays e_i until row i pivots, so only [A^T | c] is stored, and a
    # row's slack column is appended the first time it pivots
    room = min(k, _SLACK_ROOM)
    T = np.zeros((k, m + 1 + room))
    T[:, :m] = A.T
    T[:, m] = c
    width = m + 1  # stored columns: y | rhs | slacks of pivoted rows
    slot = {}  # stored column of slack m+i by row i, in stored order
    red = np.zeros(m + k)
    red[:m] = 1.0  # reduced costs of a maximization, start at obj - 0
    value = 0.0
    basis = list(range(m, m + k))

    buf = np.empty(max(_BLOCK_ELEMENTS, m + 1 + k))
    piv_tol = 1e-11
    stall = 0
    for it in range(200 * (m + k + 10)):
        use_bland = stall > 2 * (m + k)
        enterable = np.where(red > _LP_TOL * 1e-3)[0]
        if enterable.size == 0:
            break
        if use_bland:
            j = int(enterable[0])
        else:
            j = int(enterable[np.argmax(red[enterable])])
        # an unstored slack has reduced cost 0 and never enters
        jc = j if j < m else slot[j - m]
        col = T[:, jc]
        pos = col > piv_tol
        if not np.any(pos):
            raise NumericalError("dual unbounded despite feasibility pre-check")
        ratios = np.full(k, np.inf)
        ratios[pos] = T[pos, m] / col[pos]
        rmin = ratios.min()
        ties = np.where(ratios <= rmin * (1 + 1e-12) + 1e-300)[0]
        r = int(min(ties, key=lambda i: basis[i])) if use_bland else int(ties[0])
        if r not in slot:
            if width == T.shape[1]:
                room = min(k, 2 * room)
                T = np.concatenate([T, np.zeros((k, m + 1 + room - width))], axis=1)
            T[r, width] = 1.0
            slot[r] = width
            width += 1
        S = T[:, :width]
        scratch_rows = max(1, _BLOCK_ELEMENTS // width)
        scratch = buf[: scratch_rows * width].reshape(scratch_rows, width)
        piv = S[r, jc]
        S[r] /= piv
        _eliminate(S, r, jc, scratch)
        red_j = red[j]
        gain = red_j * S[r, m]
        value += gain
        red[:m] -= red_j * S[r, :m]
        red[m + np.fromiter(slot, int, len(slot))] -= red_j * S[r, m + 1 :]
        basis[r] = j
        stall = 0 if gain > 1e-13 * (1.0 + abs(value)) else stall + 1
    else:
        raise NumericalError("simplex iteration cap exceeded")

    y = np.zeros(m)
    for i, b in enumerate(basis):
        if b < m:
            y[b] = T[i, m]
    g = np.maximum(-red[m : m + k], 0.0)

    # defensive consistency: primal feasibility and matching objectives
    Ag = A @ g
    if np.any(Ag < 1.0 - 1e-7 * max(1.0, float(np.abs(Ag).max()))):
        raise NumericalError("recovered primal point violates constraints")
    if abs(float(c @ g) - value) > 1e-7 * max(1.0, abs(value)):
        raise NumericalError("primal/dual objective mismatch")
    return LPSolution(g, float(value), y)


def enumerate_vertices_value(lp: LPInstance) -> float:
    """Exhaustive vertex-enumeration oracle for small instances: the optimum
    of a feasible bounded covering LP is attained at a vertex, i.e. at some
    choice of k active constraints among {rows of A g = 1} U {g_i = 0}."""
    from itertools import combinations

    A, c = lp.A, lp.c
    m, k = A.shape
    rows = [(A[i], 1.0) for i in range(m)] + [
        (np.eye(k)[i], 0.0) for i in range(k)
    ]
    best = math.inf
    for subset in combinations(range(m + k), k):
        M = np.array([rows[i][0] for i in subset])
        b = np.array([rows[i][1] for i in subset])
        try:
            g = np.linalg.solve(M, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(g < -1e-9):
            continue
        if m and np.any(A @ g < 1.0 - 1e-9):
            continue
        best = min(best, float(c @ g))
    if not np.isfinite(best):
        raise InfeasibleError("no feasible vertex")
    return best


# ---------------------------------------------------------------------------
# capacity problems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapacityProblem:
    """Constraint points in the half-space against weighted window nodes.

    kind selects the kernel and where the nodes live: ``boundary`` nodes are
    points of R^{n-1} with the n-th power kernel; ``halfspace`` nodes live in
    H with the (n-1)-st power kernel and volume-style weights."""

    kind: str
    e_points: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    cfg: KernelConfig

    def __post_init__(self):
        if self.kind not in (BOUNDARY, HALFSPACE):
            raise DomainError(f"unknown capacity kind {self.kind!r}")
        n = self.cfg.n
        node_dim = n - 1 if self.kind == BOUNDARY else n
        e = np.asarray(self.e_points, dtype=float).reshape(-1, n)
        nd = np.asarray(self.nodes, dtype=float).reshape(-1, node_dim)
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.size != nd.shape[0]:
            raise DomainError("node and weight counts differ")
        if np.any(w <= 0.0):
            raise DomainError("node weights must be positive")
        if e.shape[0] == 0 or nd.shape[0] == 0:
            raise DomainError("capacity needs nonempty points and nodes")
        if np.any(e[:, -1] <= 0.0):
            raise DomainError("constraint points must be interior")
        object.__setattr__(self, "e_points", e)
        object.__setattr__(self, "nodes", nd)
        object.__setattr__(self, "weights", w)

    def kernel_matrix(self) -> np.ndarray:
        """K(x_j, node_i) as a (points, nodes) array.  The squared distances
        are summed one coordinate at a time into one buffer, in the order of
        a sum over the coordinate axis, so no (points, nodes, n) array is
        formed."""
        n = self.cfg.n
        e, nodes = self.e_points, self.nodes
        d2, tmp = (np.zeros((len(e), len(nodes))) for _ in range(2))
        for j in range(nodes.shape[1]):
            np.subtract(e[:, j, None], nodes[:, j], out=tmp)
            tmp *= tmp
            d2 += tmp
        if self.kind == BOUNDARY:
            d2 += e[:, -1, None] ** 2
            power = n
        else:
            power = n - 1
        if np.any(d2 == 0.0):
            raise DomainError("a constraint point coincides with a window node")
        d2 **= -0.5 * power
        return d2

    def lp_instance(self) -> LPInstance:
        kern = self.kernel_matrix()
        return LPInstance(c=self.weights.copy(), A=kern * self.weights[None, :])


def capacity(problem: CapacityProblem) -> float:
    return lp_solve(problem.lp_instance()).value


# ---------------------------------------------------------------------------
# dyadic thinness / rarefiedness series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThinnessTerm:
    i: int
    capacity: float
    weight: float
    product: float


@dataclass(frozen=True)
class ThinnessReport:
    terms: tuple
    partial_sum: float
    i_max: int
    resolution: dict

    def to_json_dict(self):
        return {
            "terms": [
                {
                    "i": t.i,
                    "capacity": t.capacity,
                    "weight": t.weight,
                    "product": t.product,
                }
                for t in self.terms
            ],
            "partial_sum": self.partial_sum,
            "i_max": self.i_max,
            "resolution": dict(self.resolution),
        }


@functools.lru_cache(maxsize=32)
def _unit_pattern(count: int, dim: int) -> np.ndarray:
    """``halton_sequence(count, dim)``, drawn once per size and shared
    read-only: every shell of a series dilates the same unit pattern."""
    raw = halton_sequence(count, dim)
    raw.flags.writeable = False
    return raw


def shell_samples(membership, i: int, cfg: KernelConfig, count: int) -> np.ndarray:
    """Deterministic low-discrepancy samples of the set inside the dyadic
    shell 2^i <= |x| < 2^(i+1) of the half-space."""
    n = cfg.n
    lo, hi = 2.0**i, 2.0 ** (i + 1)
    raw = _unit_pattern(count * 8, n)
    box = np.empty_like(raw)
    box[:, :-1] = (2.0 * raw[:, :-1] - 1.0) * hi
    box[:, -1] = raw[:, -1] * hi
    r = np.sqrt(np.sum(box * box, axis=-1))
    keep = (r >= lo) & (r < hi) & (box[:, -1] > 0.0)
    pts = box[keep]
    flags = np.broadcast_to(np.asarray(membership(pts), dtype=bool), (len(pts),))
    return pts[flags][:count]


def window_nodes(kind: str, i: int, cfg: KernelConfig, count: int):
    """Quasi-Monte-Carlo discretization of the window 2^i < |x| < 2^(i+3):
    nodes on the boundary plane or in the half-space, with equal weights
    summing to the window volume estimate.

    Node patterns are scale-similar across shells (the same unit pattern
    dilated), so capacity terms inherit the exact dyadic scaling of the
    continuum quantities up to the common discretization error."""
    n = cfg.n
    d = n - 1 if kind == BOUNDARY else n
    try:
        lo, hi = 2.0**i, 2.0 ** (i + 3)
        box_vol = (2.0 * hi) ** d if kind == BOUNDARY else (2.0 * hi) ** (d - 1) * hi
    except OverflowError:
        box_vol = math.inf
    if not math.isfinite(box_vol):
        raise DomainError(f"window {i} has a volume past the floating-point range")
    raw = _unit_pattern(count * 4, d)
    box = np.empty_like(raw)
    if kind == BOUNDARY:
        box[:] = (2.0 * raw - 1.0) * hi
    else:
        box[:, :-1] = (2.0 * raw[:, :-1] - 1.0) * hi
        box[:, -1] = raw[:, -1] * hi
    r = np.sqrt(np.sum(box * box, axis=-1))
    keep = (r > lo) & (r < hi)
    if kind == HALFSPACE:
        keep &= box[:, -1] > 0.0
    nodes = box[keep][:count]
    if nodes.shape[0] == 0:
        raise NumericalError(f"window discretization produced no nodes at shell {i}")
    weights = np.full(nodes.shape[0], box_vol / (count * 4))
    return nodes, weights


def thinness_series(
    membership,
    kind: str,
    i_max: int,
    cfg: KernelConfig,
    e_samples: int = 48,
    f_nodes: int = 160,
) -> ThinnessReport:
    """Partial sums of the dyadic capacity series that defines minimal
    thinness (boundary kind, weight 2^(-i n)) and rarefiedness (halfspace
    kind, weight 2^(-i (n-1))) at infinity.

    ``membership`` takes a (P, n) array of points and returns a (P,) bool
    array, or one bool for all of them (``lambda x: True``); it is called
    once per shell, on all sample candidates of that shell.

    Empty shells contribute zero.  The series is truncated at i_max; only
    growth trends are reported, never a convergence verdict."""
    if kind not in (BOUNDARY, HALFSPACE):
        raise DomainError(f"unknown capacity kind {kind!r}")
    if not (1 <= i_max <= 20):
        raise DomainError("i_max must lie in 1..20 to keep LPs desk-scale")
    terms = []
    partial = 0.0
    exponent = cfg.n if kind == BOUNDARY else cfg.n - 1
    for i in range(1, i_max + 1):
        pts = shell_samples(membership, i, cfg, e_samples)
        weight = 2.0 ** (-i * exponent)
        if pts.shape[0] == 0:
            terms.append(ThinnessTerm(i, 0.0, weight, 0.0))
            continue
        nodes, w = window_nodes(kind, i, cfg, f_nodes)
        cap = capacity(CapacityProblem(kind, pts, nodes, w, cfg))
        partial += weight * cap
        terms.append(ThinnessTerm(i, cap, weight, weight * cap))
    return ThinnessReport(
        tuple(terms),
        partial,
        i_max,
        {"e_samples": e_samples, "f_nodes": f_nodes},
    )


def membership_from_spec(spec: dict, n: int | None = None):
    """Membership predicate over the half-space from a JSON set description,
    taking one point or a (P, n) array of points (see thinness_series).

    Shapes: {"shape": "empty"}, {"shape": "all"},
    {"shape": "ball", "center": [...], "radius": r},
    {"shape": "cone", "aperture": a}  (points with x_n >= a |x|).
    A ball's center must hold n finite numbers (when n is given) and its
    radius must be finite and positive."""
    from .errors import SchemaError
    from .measures import _expect_number, _expect_vector

    if not isinstance(spec, dict) or "shape" not in spec:
        raise SchemaError("expected an object with a 'shape' field", "set")
    shape = spec["shape"]
    if shape == "empty":
        return lambda x: False
    if shape == "all":
        return lambda x: True
    if shape == "ball":
        if n is None and isinstance(spec.get("center"), list):
            n = len(spec["center"])
        center = np.array(_expect_vector(spec, "center", n, "set"))
        radius = _expect_number(spec, "radius", "set")
        if not np.all(np.isfinite(center)):
            raise SchemaError("ball needs a finite center", "set.center")
        if not 0 < radius < math.inf:
            raise SchemaError("ball needs a finite positive radius", "set.radius")
        return lambda x: np.linalg.norm(np.asarray(x) - center, axis=-1) < radius
    if shape == "cone":
        a = spec.get("aperture")
        if not isinstance(a, (int, float)) or not 0 < a < 1:
            raise SchemaError("cone needs aperture in (0,1)", "set")
        return lambda x: np.asarray(x)[..., -1] >= a * np.linalg.norm(x, axis=-1)
    raise SchemaError(f"unknown shape {shape!r}", "set.shape")
