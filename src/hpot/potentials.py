"""Dirichlet (Poisson-integral) and Green potentials, and their sum.

Atomic sources are evaluated exactly as kernel sums.  A radial boundary
family is the radial integral of f(rho) rho^(n-2) A(x, rho), A the kernel
over the boundary sphere of radius rho, its angular integral in closed form
(``kernels.modified_poisson_sphere``): panelized Gauss-Legendre on [0, R0],
refined near the kernel peak at |x'| and cut at the unit sphere, plus one
Gauss-Jacobi panel in u = 1/rho beyond R0.  R0 is the support of finite
data, else at least 4|x|, so every far source is on the kernel's tail
route; there the integrand is u^beta times a smooth function of u, beta =
``BoundaryData.far_exponent(m)`` > -1, which that rule integrates whole.

The value is the order-16 pass, checked against the order-12 pass; orders
24 and 32 run only for the points whose rung differs from the one below by
more than the target.  Each point's panels and moments are built once, and
each rung runs once for the points still on it, in blocks of up to
``_QUAD_BLOCK_NODES`` radii.  Every node's arithmetic is elementwise and a
point's terms are added in order, so its value, estimate and flag are
those of the point alone, bit for bit; a block that raises is run again
point by point, so the error is the one of the first failing row.

A block of points large enough to pay for a fork is cut into contiguous
slices, one per core of the process's affinity, each computed by a process
pinned to its core.  Slices hold whole kernel blocks (atom sums) or whole
points (families, with their error estimates and flags), so the values, and
the first error in row order, are those of a one-process run.
"""
from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, HpotError, IntegrabilityError, SchemaError
from .kernels import (
    KernelConfig,
    modified_green_values,
    modified_poisson_sphere,
    modified_poisson_values,
    sphere_moments,
)
from .geometry import as_coords, as_rows, squared_norms
from .measures import (
    AtomicMeasure,
    BoundaryData,
    check_boundary_condition,
    check_measure_condition,
)
from .quadrature import _leggauss, inverted_tail_rule, refined_breakpoints, tiled_panel_nodes

_QUAD_TARGET = 1e-8
# Point-source pairs per kernel block: large enough to spread the per-call
# cost of the tail series.  With freed heap kept between blocks (the CLI's
# memory policy) and the column-range kernels, one-core CPU of the
# superposition benchmark's two sums (seed 19) read 0.56 / 0.41 / 0.34 /
# 0.35 s at 2^13 / 2^14 / 2^15 / 2^16 (medians of 10 alternating rounds;
# 2^15 and 2^16 were lower than 2^14 in 10 and 9 of them), but 2^15 raised
# the benchmark's peak resident set from 44.3-45.4 to 47.2-47.4 MB (3 runs
# each), so the blocks stay at 2^14.
_BLOCK_ELEMENTS = 2**14
# Least work, in point-source pairs, for each process of a forked block
# evaluation.  On 2 cores, with the memory policy and the column-range
# kernels, a fork of 5000-atom sums (medians of 15 alternating runs) lost
# at 30k to 60k pairs in all, and paid from 120k pairs of a Green sum
# (30.7 -> 24.3 ms, 14 of 15 runs) but only from 300k of a Poisson sum
# (39.1 -> 29.3 ms, 15 of 15; at 240k it was lower in 6 of 15).  2^17 pairs
# per process would lose the Green sums of 131k-262k pairs, so a fork
# needs 2^16 pairs per process.
_FORK_MIN_WORK = 2**16
# Work of one family point, in pairs of a Green sum: family blocks fork from
# 2 _FORK_MIN_WORK / 2^8 = 512 points.  A point of the Dirichlet benchmark
# costs about 0.1 ms on one core.  On 2 cores (medians of 15 alternating
# runs, the CLI's memory policy) a fork of gaussian_bump points was lower in
# 0 of 15 at 48 and 96 points, 1 at 192, 9 at 256 and 384, 12 at 512 (43.4
# -> 37.0 ms) and 13 at 768; of indicator_ball points in 0 to 3 of 15 up to
# 512 (22.6 vs 23.5 ms) and 13 at 768; at 48 points 6.1 and 4.6 ms against
# 12.6 and 13.0 ms forked.
_QUAD_POINT_WORK = 2**8
# Radial nodes per block of a quadrature pass (the benchmark's sets hold
# 0.9k-6k).  One-core CPU per benchmark sequence (seed 7) and of 480
# gaussian_bump points (medians of 30 alternating rounds): 16.6 / 16.5 / 16.5
# and 55.8 / 52.4 / 50.4 ms at 2^13 / 2^14 / 2^15, within the host's noise;
# traced peaks 1.2 / 2.2 / 4.1 MB.
_QUAD_BLOCK_NODES = 2**14
_in_child = False  # set in a forked child, which never forks again


@dataclass(frozen=True)
class PotentialField:
    """A potential with its source data; construction runs the matching
    integrability gate and refuses data that fails it."""

    cfg: KernelConfig
    source: object
    kind: str
    report: object = field(init=False)

    def __post_init__(self):
        if self.kind == "dirichlet":
            if not isinstance(self.source, BoundaryData):
                raise DomainError("dirichlet fields take BoundaryData sources")
            rep = check_boundary_condition(self.source, self.cfg)
        elif self.kind == "green":
            if not isinstance(self.source, AtomicMeasure):
                raise DomainError("green fields take AtomicMeasure sources")
            rep = check_measure_condition(self.source, self.cfg)
        else:
            raise DomainError(f"unknown potential kind {self.kind!r}")
        if not rep.satisfied:
            raise IntegrabilityError(
                f"source fails the {rep.condition} gate", report=rep
            )
        object.__setattr__(self, "report", rep)


def dirichlet_field(cfg: KernelConfig, data: BoundaryData) -> PotentialField:
    return PotentialField(cfg, data, "dirichlet")


def green_field(cfg: KernelConfig, mu: AtomicMeasure) -> PotentialField:
    return PotentialField(cfg, mu, "green")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _usable_cores():
    """The cores this process may run on, sorted; none in a forked child
    and where the platform has no fork or does not report the affinity."""
    if _in_child or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def _pin(cores):
    """Run the calling thread on ``cores`` only, where the system allows it.
    Each process of a forked evaluation is pinned to a core of its own:
    left to the scheduler, a child was seen to share its parent's core for
    the whole evaluation while the other core stayed idle."""
    try:
        os.sched_setaffinity(0, cores)
    except OSError:
        pass


def _fork_slice(fn, rows, core):
    """(pid, read end) of a forked child that writes fn(rows), computed on
    ``core``, as raw float64 bytes, or None when no pipe or no process could
    be had.  A child that raises writes nothing.  It leaves through
    os._exit, so nothing of the parent's (buffers, exit handlers) runs
    twice."""
    global _in_child
    try:
        rfd, wfd = os.pipe()
    except OSError:
        return None
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns of a fork while threads (here the BLAS pool)
            # run; the child only evaluates its slice and leaves by os._exit
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return None
    if pid == 0:
        try:
            _in_child = True
            os.close(rfd)
            _pin({core})
            values = np.asarray(fn(rows), dtype=float).tobytes()
            with os.fdopen(wfd, "wb") as fh:
                fh.write(values)
        finally:
            os._exit(0)
    os.close(wfd)
    return pid, rfd


def _receive_slice(pid, rfd, shape):
    """The values one child sent, as an array of ``shape``, or None unless
    it sent exactly that many float64 values (it raised, died or was cut
    short); the child is reaped either way."""
    try:
        with os.fdopen(rfd, "rb") as fh:
            data = fh.read()
    finally:
        os.waitpid(pid, 0)
    return np.frombuffer(data).reshape(shape) if len(data) == 8 * math.prod(shape) else None


def _forked_rows(fn, pts, step, work):
    """fn(pts) for a function whose float64 result, (P,) or (P, k), is
    computed row by row, with the rows spread over the usable cores.

    pts is cut into W contiguous slices at multiples of ``step`` rows, W =
    min(usable cores, blocks of ``step`` rows, work // _FORK_MIN_WORK).
    This process computes the first slice; each other slice runs in a
    forked child that returns its values through a pipe.  A slice whose
    child sent no values (it raised or died, or could not be forked) is
    computed here.  Each slice is evaluated as in the one call fn(pts),
    block for block when ``step`` is fn's block size, so the values are the
    same bytes, and the first error in row order is the one that call
    raises, here.  Every child is reaped, and this process's affinity
    restored, before this returns or raises.
    """
    cores = _usable_cores()
    blocks = -(-len(pts) // step)
    w = min(len(cores), blocks, work // _FORK_MIN_WORK)
    if w < 2:
        return fn(pts)
    size = -(-blocks // w) * step
    slices = [pts[lo : lo + size] for lo in range(0, len(pts), size)]
    children = []  # (pid, read end) per slice after the first, or None
    try:
        for core, rows in zip(cores[1:], slices[1:]):
            children.append(_fork_slice(fn, rows, core))
        _pin({cores[0]})
        parts = [fn(slices[0])]
        for i, (child, rows) in enumerate(zip(children, slices[1:])):
            part = None
            if child is not None:
                children[i] = None
                part = _receive_slice(*child, (len(rows),) + parts[0].shape[1:])
            parts.append(fn(rows) if part is None else part)
    finally:
        _pin(set(cores))
        # after an error, the children still running hold only later rows
        left = [child for child in children if child is not None]
        if left:
            import signal  # only on this path: it is not imported at start-up

            for pid, rfd in left:
                os.kill(pid, signal.SIGKILL)
                os.close(rfd)
                os.waitpid(pid, 0)
    return np.concatenate(parts)


def _atom_sum(cfg, x, kernel_values, sources, weights):
    """sum_j w_j K(x, s_j) for one point (a float) or for each row of a
    (P, n) array, evaluated in row blocks of at most _BLOCK_ELEMENTS
    point-source pairs; a large array is spread over the usable cores.

    The kernels run on the sources sorted once by radius (a stable sort),
    and each block's values are put back in the given source order before
    the weights are applied, so the sums are those of the unsorted call."""
    pts, single = _eval_points(cfg, x)
    if not len(weights):
        return 0.0 if single else np.zeros(len(pts))
    step = max(1, _BLOCK_ELEMENTS // len(weights))
    # a source whose squared norm overflows is the kernels' own DomainError
    perm = np.argsort(np.sqrt(squared_norms(sources, "source")), kind="stable")
    sources, inv = sources[perm], np.argsort(perm)

    def block_sums(rows):
        out = np.empty(len(rows))
        for i in range(0, len(rows), step):
            vals = kernel_values(cfg, rows[i : i + step], sources)
            out[i : i + step] = np.take(vals, inv, axis=1) @ weights
        return out

    # Work in pairs of a Green sum.  A Poisson pair (boundary sources, n-1
    # coordinates) costs about half a Green pair, and a fork of it paid only
    # from about twice the pairs: on 2 cores, 5000-atom sums (medians of 15
    # alternating runs, repeated) forked lower in 1 to 3 of 15 runs at 120k
    # to 135k Poisson pairs, swung between 0 and 14 of 15 at 165k to 240k,
    # and was lower in 12 to 13 of 15 at 260k to 300k, while a Green sum
    # forked lower in 14 of 15 from 120k.  So a Poisson sum forks from 2^18
    # pairs.
    work = len(pts) * len(weights)
    if sources.shape[1] == cfg.n - 1:
        work //= 2
    out = _forked_rows(block_sums, pts, step, work)
    return float(out[0]) if single else out


def _eval_points(cfg, x):
    """x as rows (P, n) and whether it was one point; every point must lie
    in the closed half-space and have a finite squared norm."""
    pts, single = as_rows(x, cfg.n)
    if np.any(pts[:, -1] < 0.0):
        raise DomainError("evaluation point lies below the boundary")
    squared_norms(pts)
    return pts, single


def _expect(fieldobj: PotentialField, kind: str):
    if fieldobj.kind != kind:
        raise DomainError(f"expected a {kind} field")
    return fieldobj.source


def eval_dirichlet(fieldobj: PotentialField, x, *, require_converged=False):
    """Poisson integral at one point (a float) or at each row of a (P, n)
    array (a (P,) array).  Atomic data is a block kernel sum; family data
    runs each quadrature rung over blocks of points.  With
    ``require_converged``, a family point whose quadrature misses its error
    target is a DomainError naming the first such row and its estimate."""
    data = _expect(fieldobj, "dirichlet")
    if data.kind == "atoms":
        return _atom_sum(
            fieldobj.cfg, x, modified_poisson_values, data.points, data.weights
        )
    cfg = fieldobj.cfg
    pts, single = _eval_points(cfg, x)

    def detailed_rows(rows):
        values, meta = _radial_family_quadrature(cfg, rows, data)
        return np.column_stack((values, meta["rel_err_estimate"], meta["converged"]))

    out = _forked_rows(detailed_rows, pts, 1, len(pts) * _QUAD_POINT_WORK)
    if require_converged:
        missed = np.flatnonzero(out[:, 2] == 0.0)
        if missed.size:
            i = int(missed[0])
            where = "(" + ", ".join(format_float(c) for c in pts[i]) + ")"
            raise DomainError(
                f"quadrature did not converge at row {i} (x = {where}): "
                f"rel_err_estimate {format_float(out[i, 1])} exceeds the target {_QUAD_TARGET:g}"
            )
    return float(out[0, 0]) if single else out[:, 0].copy()


def eval_dirichlet_detailed(fieldobj: PotentialField, x):
    """Value of the Poisson integral at one point x and its metadata: the
    quadrature's {rel_err_estimate, converged} for family data, {} for
    atoms."""
    data = _expect(fieldobj, "dirichlet")
    cfg = fieldobj.cfg
    pts, _ = _eval_points(cfg, as_coords(x, cfg.n))
    if data.kind == "atoms":
        return _atom_sum(cfg, pts[0], modified_poisson_values, data.points, data.weights), {}
    values, meta = _radial_family_quadrature(cfg, pts, data)
    return float(values[0]), {
        "rel_err_estimate": float(meta["rel_err_estimate"][0]),
        "converged": bool(meta["converged"][0]),
    }


def eval_green_potential(fieldobj: PotentialField, x):
    """Green potential of an atomic measure, an exact kernel sum, at one
    point (a float) or at each row of a (P, n) array (a (P,) array)."""
    mu = _expect(fieldobj, "green")
    return _atom_sum(fieldobj.cfg, x, modified_green_values, mu.points, mu.masses)


def eval_superposition(vf: PotentialField, hf: PotentialField, x, *, require_converged=False):
    """v(x) + h(x) at one point or at each row of a (P, n) array; both
    fields must share the kernel configuration.  ``require_converged`` is
    passed on to ``eval_dirichlet``."""
    if vf.cfg != hf.cfg:
        raise DomainError("superposition requires matching kernel configs")
    v = eval_dirichlet(vf, x, require_converged=require_converged)
    return v + eval_green_potential(hf, x)


def boundary_limit_probe(fieldobj: PotentialField, xp, heights):
    """Vertical-approach samples: [(t, v((xp, t))) for t in heights],
    evaluated as one block of points once every height is checked.

    Only meaningful for continuous family data, where the boundary value is
    a plain function value."""
    if fieldobj.kind != "dirichlet" or fieldobj.source.kind != "family":
        raise DomainError("boundary probes need a dirichlet field with family data")
    cxp = as_coords(xp, fieldobj.cfg.n - 1)
    ts = []
    for t in heights:
        if not t > 0.0:
            raise DomainError(f"probe heights must be positive, got {t}")
        ts.append(float(t))
    pts = np.column_stack((np.tile(cxp, (len(ts), 1)), ts))
    return list(zip(ts, eval_dirichlet(fieldobj, pts).tolist()))


# ---------------------------------------------------------------------------
# radial-family quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Panels:
    """The quadrature panels of a block of points, the same at every order:
    r_count panels [r_lo, r_hi] per point ascending on [0, R0], then a far
    panel beyond r0 unless the support is finite; |x'| and moments per point."""

    r_lo: np.ndarray
    r_hi: np.ndarray
    r_count: np.ndarray
    r0: np.ndarray | None
    x_tan: np.ndarray
    moments: np.ndarray

    def sizes(self, order):
        """The radii of each point at a rule order."""
        return (self.r_count + (self.r0 is not None)) * order

    def take(self, keep):
        """The panels of the points where the mask ``keep`` holds."""
        r = np.repeat(keep, self.r_count)
        return _Panels(
            self.r_lo[r], self.r_hi[r], self.r_count[keep],
            None if self.r0 is None else self.r0[keep], self.x_tan[keep], self.moments[keep],
        )


def _rule_panels(cfg, pts, data) -> _Panels:
    """The panels of each row of pts (P, n): panels on [0, R0], refined
    near the kernel peak and with the unit sphere, where the kernel
    switches branch, as an edge; R0 is the support of finite data, else
    max(4, 4|x|, 6 scale, 8 x_n), so every source beyond it is on the
    kernel's tail route."""
    support, scale = data.radial_support(), data.radial_scale()
    radial, r0s = [], []
    for cx in pts:
        xn = cx[-1]
        ax = float(np.sqrt(np.dot(cx, cx)))
        x_tan = math.sqrt(max(ax * ax - xn * xn, 0.0))
        r0 = support if support is not None else max(4.0, 4.0 * ax, 6.0 * scale, 8.0 * xn)
        anchors = []
        if x_tan > 2.0 * xn:
            anchors.append((x_tan, max(xn, 1e-9 * x_tan)))
        base = max(min(xn if xn > 0 else scale, scale), 1e-9)
        breaks = refined_breakpoints(0.0, r0, base_scale=base, anchors=anchors)
        if 0.0 < 1.0 < r0:
            breaks = sorted(set(breaks) | {1.0})
        radial.append(np.asarray(breaks, dtype=float))
        r0s.append(r0)
    return _Panels(
        np.concatenate([b[:-1] for b in radial]),
        np.concatenate([b[1:] for b in radial]),
        np.array([b.size - 1 for b in radial]),
        np.array(r0s, dtype=float) if support is None else None,
        np.sqrt(squared_norms(pts[:, :-1])),
        sphere_moments(cfg, pts),
    )


def _pass_rules(cfg, data, panels, order):
    """The radii rho, weights wr and gaps rho - |x'| of one rule order for
    the points of ``panels``, in one array pass, each point's run of them
    contiguous (``panels.sizes(order)`` long): its panels' ascending, then
    its far panel's.  The gap of a node lo + h (1 + t) is (lo - |x'|) +
    h (1 + t), rounded to a part of h, not of the radius."""
    rho, wr = tiled_panel_nodes(panels.r_lo, panels.r_hi, order)
    lo, x_tan = panels.r_lo[:, None], np.repeat(panels.x_tan, panels.r_count)[:, None]
    gap = (lo - x_tan) + 0.5 * (panels.r_hi[:, None] - lo) * (1.0 + _leggauss(order)[0])
    if panels.r0 is not None:
        far_rho, far_w = inverted_tail_rule(panels.r0[:, None], order, data.far_exponent(cfg.m))
        at, far_gap = np.cumsum(panels.r_count), far_rho - panels.x_tan[:, None]
        rho, wr, gap = (np.insert(a, at, b, axis=0)
                        for a, b in ((rho, far_rho), (wr, far_w), (gap, far_gap)))
    return rho.ravel(), wr.ravel(), gap.ravel()


def _quad_pass(cfg, pts, data, radial, order, *, panels, l1=False):
    """Quadrature values at one rule order at each row of a (P, n) block, a
    (P,) array; with ``l1``, (values, L1 masses).  ``panels`` are the rows'
    ``_rule_panels``.

    The points run in blocks holding up to _QUAD_BLOCK_NODES radii (a point
    with more is a block of its own), each with one call of
    ``_weighted_sums``."""
    values, masses = np.empty(len(pts)), np.zeros(len(pts))
    first = nodes = 0
    for i, k in enumerate(panels.sizes(order).tolist()):
        nodes += k
        if nodes < _QUAD_BLOCK_NODES and i < len(pts) - 1:
            continue
        block = slice(first, i + 1)
        in_block = np.zeros(len(pts), dtype=bool)
        in_block[block] = True
        values[block], masses[block] = _weighted_sums(
            cfg, pts[block], data, radial, panels.take(in_block), order, l1
        )
        first, nodes = i + 1, 0
    if not (np.isfinite(values).all() and np.isfinite(masses).all()):
        raise DomainError("quadrature out of floating-point range: the weighted sum overflows")
    return (values, masses) if l1 else values


def _weighted_sums(cfg, pts, data, radial, panels, order, l1):
    """sum_r w_r f(rho_r) rho_r^(n-2) A(x, rho_r) per point of a block (A by
    one ``modified_poisson_sphere`` call), and of the absolute terms when
    ``l1`` (else 0); each point's terms are added in order (``np.bincount``),
    so its sums do not depend on the block."""
    rho, wr, gap = _pass_rules(cfg, data, panels, order)
    owner = np.repeat(np.arange(len(pts)), panels.sizes(order))
    kern = modified_poisson_sphere(cfg, pts, rho, owner, panels.moments, gap)
    # an overflow anywhere leaves a sum that is not finite, refused by the caller
    with np.errstate(over="ignore", invalid="ignore"):
        terms = wr * radial(rho) * rho ** (cfg.n - 2) * kern
        values = np.bincount(owner, terms, len(pts))
        masses = np.bincount(owner, np.abs(terms), len(pts)) if l1 else np.zeros(len(pts))
    return values, masses


def _radial_family_quadrature(cfg, pts, data: BoundaryData):
    """(values, {rel_err_estimate, converged}) at each row of a (P, n)
    block, as (P,) arrays.

    Each order is checked against the rung below and a point leaves the
    ladder at the first that passes; the order-12 L1 mass sets the error
    scale.  Every rung runs once for all the points still on it.  A block
    that raises is run again point by point, so the error is the one of the
    first failing row, as in a loop over the points."""
    try:
        values, err, scale, converged = _quadrature_ladder(cfg, pts, data)
    except HpotError:
        if len(pts) > 1:
            for row in pts:
                _quadrature_ladder(cfg, row[None, :], data)
        raise
    return values, {"rel_err_estimate": err / scale, "converged": converged}


def _quadrature_ladder(cfg, pts, data):
    """Values, error estimates, error scales and convergence flags of the
    rows of pts (see ``_radial_family_quadrature``).  Each point's panels
    are built once, for every rung.  The error scale is max(|value|, 1e-3 L1),
    L1 the order-12 sum_r |w_r f(rho_r) rho_r^(n-2) A(x, rho_r)|."""
    if not len(pts):
        return np.zeros(0), np.zeros(0), np.ones(0), np.zeros(0, dtype=bool)
    radial, panels = data.radial(), _rule_panels(cfg, pts, data)
    values, l1 = _quad_pass(cfg, pts, data, radial, 12, l1=True, panels=panels)
    err, scale = np.zeros(len(pts)), np.ones(len(pts))
    converged = np.zeros(len(pts), dtype=bool)
    active = np.arange(len(pts))
    for order in (16, 24, 32):
        below = values[active]
        values[active] = _quad_pass(cfg, pts[active], data, radial, order, panels=panels)
        err[active] = np.abs(values[active] - below)
        scale[active] = np.maximum(np.maximum(np.abs(values[active]), l1[active] * 1e-3), 1e-300)
        converged[active] = err[active] <= _QUAD_TARGET * scale[active]
        passed = converged[active]
        active = active[~passed]
        if not active.size:
            break
        panels = panels.take(~passed)
    return values, err, scale, converged


# ---------------------------------------------------------------------------
# batch evaluation and the CSV contract
# ---------------------------------------------------------------------------


def batch_evaluate(fn: Callable, points: np.ndarray) -> np.ndarray:
    """Apply ``fn`` to each row of ``points``, in input order."""
    return np.array([fn(p) for p in np.asarray(points, dtype=float)], dtype=float)


def read_points_csv(text: str, n: int) -> np.ndarray:
    """Parse evaluation points from CSV with header x_1,...,x_n (an optional
    trailing value column is ignored)."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise SchemaError("empty points file", "points")
    header = [h.strip() for h in lines[0].split(",")]
    expected = [f"x_{i}" for i in range(1, n + 1)]
    if header[: len(expected)] != expected:
        raise SchemaError(
            f"expected header starting {','.join(expected)}", "points.header"
        )
    rows = []
    for i, ln in enumerate(lines[1:]):
        cells = ln.split(",")
        if len(cells) < n:
            raise SchemaError(f"expected {n} columns", f"points.row[{i}]")
        try:
            row = [float(c) for c in cells[:n]]
        except ValueError as exc:
            raise SchemaError(str(exc), f"points.row[{i}]") from exc
        if not all(math.isfinite(v) for v in row):
            raise SchemaError("non-finite coordinate", f"points.row[{i}]")
        rows.append(row)
    return np.asarray(rows, dtype=float).reshape(-1, n)


def format_float(v: float) -> str:
    if v == 0.0:
        v = 0.0  # collapse negative zero
    return f"{v:.17g}"


def values_csv(points: np.ndarray, values) -> str:
    """CSV text with header x_1,...,x_n,value and LF line endings."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[1]
    lines = [",".join([f"x_{i}" for i in range(1, n + 1)] + ["value"])]
    for p, v in zip(pts, np.asarray(values, dtype=float)):
        lines.append(",".join([format_float(c) for c in p] + [format_float(v)]))
    return "\n".join(lines) + "\n"
