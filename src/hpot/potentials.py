"""Dirichlet (Poisson-integral) and Green potentials, and their sum.

Atomic sources are evaluated exactly as kernel sums.  Radial boundary
families are integrated in polar form: a panelized Gauss-Legendre rule in
the boundary radius on [0, R0] (refined near the kernel peak and cut at the
unit-ball branch point) plus one Gauss-Jacobi panel in u = 1/rho for the
far field beyond R0, tensored with a rule in the polar angle.  R0 is the
support of finite data, else at least 4|x|, so every far source is on the
kernel's tail route; there the integrand is u^beta times a smooth function
of u, beta = ``BoundaryData.far_exponent(m)`` > -1, and the Gauss-Jacobi
rule for that weight integrates the whole tail without truncation.

The value is the order-16 pass, checked against the order-12 pass; orders
24 and 32 run only while a rung differs from the one below by more than
the target.

A block of points large enough to pay for a fork is cut into contiguous
slices, one per core of the process's affinity, each computed by a process
pinned to its core.  Slices hold whole kernel blocks (atom sums) or whole
points (families), so the values, and the first error in row order, are
those of a one-process run.
"""
from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, IntegrabilityError, SchemaError
from .kernels import (
    KernelConfig,
    modified_green_values,
    modified_poisson_polar,
    modified_poisson_values,
)
from .geometry import as_coords, as_rows, squared_norms
from .measures import (
    AtomicMeasure,
    BoundaryData,
    check_boundary_condition,
    check_measure_condition,
)
from .quadrature import inverted_tail_rule, panel_nodes, refined_breakpoints, unit_sphere_area

_QUAD_TARGET = 1e-8
# point-source pairs per kernel block: large enough to spread the per-call
# cost of the tail series; on the superposition benchmark 2^16 ran no faster
# and raised the peak resident set from 44 to 52 MB
_BLOCK_ELEMENTS = 2**14
# Least work, in point-source pairs, for each process of a forked block
# evaluation.  On 2 cores a fork of the benchmark's blocks paid from about
# 60k pairs of Green or Poisson sums (15 ms in one process) and gained a
# quarter at 120k; a family point counts as 2^13 pairs, the cost of a
# median point of the Dirichlet benchmark (0.9 to 5 ms by family).
_FORK_MIN_WORK = 2**16
_QUAD_POINT_WORK = 2**13
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


def _receive_slice(pid, rfd, rows):
    """The values one child sent for ``rows``, or None unless it sent
    exactly one float64 per row (it raised, died or was cut short); the
    child is reaped either way."""
    try:
        with os.fdopen(rfd, "rb") as fh:
            data = fh.read()
    finally:
        os.waitpid(pid, 0)
    return np.frombuffer(data) if len(data) == 8 * len(rows) else None


def _forked_rows(fn, pts, step, work):
    """fn(pts) for a function whose (P,) result is computed row by row, with
    the rows spread over the usable cores.

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
                part = _receive_slice(*child, rows)
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
    point-source pairs; a large array is spread over the usable cores."""
    pts, single = _eval_points(cfg, x)
    if not len(weights):
        return 0.0 if single else np.zeros(len(pts))
    step = max(1, _BLOCK_ELEMENTS // len(weights))

    def block_sums(rows):
        out = np.empty(len(rows))
        for i in range(0, len(rows), step):
            out[i : i + step] = kernel_values(cfg, rows[i : i + step], sources) @ weights
        return out

    out = _forked_rows(block_sums, pts, step, len(pts) * len(weights))
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


def eval_dirichlet(fieldobj: PotentialField, x):
    """Poisson integral at one point (a float) or at each row of a (P, n)
    array (a (P,) array).  Atomic data is a block kernel sum; family data
    runs the quadrature point by point."""
    data = _expect(fieldobj, "dirichlet")
    if data.kind == "atoms":
        return _atom_sum(
            fieldobj.cfg, x, modified_poisson_values, data.points, data.weights
        )
    pts, single = _eval_points(fieldobj.cfg, x)

    def point_values(rows):
        return batch_evaluate(lambda p: eval_dirichlet_detailed(fieldobj, p)[0], rows)

    out = _forked_rows(point_values, pts, 1, len(pts) * _QUAD_POINT_WORK)
    return float(out[0]) if single else out


def eval_dirichlet_detailed(fieldobj: PotentialField, x):
    """Value of the Poisson integral at one point x and its metadata: the
    quadrature's {rel_err_estimate, converged} for family data, {} for
    atoms."""
    data = _expect(fieldobj, "dirichlet")
    cfg = fieldobj.cfg
    pts, _ = _eval_points(cfg, as_coords(x, cfg.n))
    if data.kind == "atoms":
        return _atom_sum(cfg, pts[0], modified_poisson_values, data.points, data.weights), {}
    return _radial_family_quadrature(cfg, pts[0], data)


def eval_green_potential(fieldobj: PotentialField, x):
    """Green potential of an atomic measure, an exact kernel sum, at one
    point (a float) or at each row of a (P, n) array (a (P,) array)."""
    mu = _expect(fieldobj, "green")
    return _atom_sum(fieldobj.cfg, x, modified_green_values, mu.points, mu.masses)


def eval_superposition(vf: PotentialField, hf: PotentialField, x):
    """v(x) + h(x) at one point or at each row of a (P, n) array; both
    fields must share the kernel configuration."""
    if vf.cfg != hf.cfg:
        raise DomainError("superposition requires matching kernel configs")
    return eval_dirichlet(vf, x) + eval_green_potential(hf, x)


def boundary_limit_probe(fieldobj: PotentialField, xp, heights):
    """Vertical-approach samples: [(t, v((xp, t))) for t in heights].

    Only meaningful for continuous family data, where the boundary value is
    a plain function value."""
    if fieldobj.kind != "dirichlet" or fieldobj.source.kind != "family":
        raise DomainError("boundary probes need a dirichlet field with family data")
    cxp = as_coords(xp, fieldobj.cfg.n - 1)
    out = []
    for t in heights:
        if not t > 0.0:
            raise DomainError(f"probe heights must be positive, got {t}")
        out.append((float(t), eval_dirichlet(fieldobj, np.append(cxp, float(t)))))
    return out


# ---------------------------------------------------------------------------
# radial-family quadrature
# ---------------------------------------------------------------------------


def _gamma_rule(cfg: KernelConfig, x_tan: float, xn: float, order: int):
    """Nodes/weights for the collapsed angular integral
    int_{S^{n-2}} g(omega . x'/|x'|) domega
      = area(S^{n-3}) int_0^pi g(cos gamma) sin^{n-3}(gamma) dgamma,
    refined toward gamma = 0 where the kernel peaks for off-axis x."""
    if x_tan > 0.0:
        g0 = min(max(xn / (x_tan + xn), 1e-4), math.pi / 4)
        breaks = refined_breakpoints(0.0, math.pi, base_scale=g0)
    else:
        breaks = [0.0, math.pi]
    gam, w = panel_nodes(breaks, order)
    w = w * np.sin(gam) ** (cfg.n - 3) * unit_sphere_area(cfg.n - 2)
    return np.cos(gam), w


def _radial_rule(cfg, cx, data, order):
    """Panels on [0, R0] plus the inverted far-field rule on [R0, inf); R0
    is the support of finite data, else max(4, 4|x|, 6 scale, 8 x_n), so
    every source beyond it is on the kernel's tail route."""
    xn = cx[-1]
    ax = float(np.sqrt(np.dot(cx, cx)))
    x_tan = math.sqrt(max(ax * ax - xn * xn, 0.0))
    support = data.radial_support()
    scale = data.radial_scale()
    r0 = support if support is not None else max(4.0, 4.0 * ax, 6.0 * scale, 8.0 * xn)
    anchors = []
    if x_tan > 2.0 * xn:
        anchors.append((x_tan, max(xn, 1e-9 * x_tan)))
    base = max(min(xn if xn > 0 else scale, scale), 1e-9)
    breaks = refined_breakpoints(0.0, r0, base_scale=base, anchors=anchors)
    # the kernel switches branch at the unit sphere: keep it a panel edge
    if 0.0 < 1.0 < r0:
        breaks = sorted(set(breaks) | {1.0})
    rho, w = panel_nodes(breaks, order)
    if support is None:
        far_rho, far_w = inverted_tail_rule(r0, order, data.far_exponent(cfg.m))
        rho, w = np.concatenate((rho, far_rho)), np.concatenate((w, far_w))
    return rho, w


def _quad_pass(cfg, cx, data, radial, order, *, l1=False):
    """Quadrature value at one rule order; with ``l1``, (value, L1 mass)."""
    rho, wr = _radial_rule(cfg, cx, data, order)
    cosg, wg = _gamma_rule(
        cfg, math.sqrt(max(np.dot(cx, cx) - cx[-1] ** 2, 0.0)), cx[-1], order
    )
    # rho as an (R, 1) column: perfbench's route counter broadcasts it to the grid
    kern = modified_poisson_polar(cfg, cx, rho[:, None], cosg)
    # an overflow anywhere leaves a sum that is not finite, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        radial_weight = wr * radial(rho) * rho ** (cfg.n - 2)
        value = float(radial_weight @ kern @ wg)
        mass = float(np.abs(radial_weight) @ np.abs(kern) @ wg) if l1 else 0.0
    if not (math.isfinite(value) and math.isfinite(mass)):
        raise DomainError("quadrature out of floating-point range: the weighted sum overflows")
    return (value, mass) if l1 else value


def _radial_family_quadrature(cfg, cx, data: BoundaryData):
    # each order is checked against the rung below and the ladder stops at
    # the first that passes; the order-12 L1 mass sets the error scale
    radial = data.radial()
    value, l1 = _quad_pass(cfg, cx, data, radial, 12, l1=True)
    for order in (16, 24, 32):
        below, value = value, _quad_pass(cfg, cx, data, radial, order)
        err = abs(value - below)
        scale_ref = max(abs(value), l1 * 1e-3, 1e-300)
        converged = err <= _QUAD_TARGET * scale_ref
        if converged:
            break
    return value, {"rel_err_estimate": err / scale_ref, "converged": bool(converged)}


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
