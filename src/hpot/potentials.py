"""Dirichlet (Poisson-integral) and Green potentials, and their sum.

Atomic sources are evaluated exactly as kernel sums.  Radial boundary
families are integrated in polar form: a panelized Gauss-Legendre rule in
the boundary radius (refined near the kernel peak and cut at the unit-ball
branch point) tensored with a rule in the polar angle; the improper radial
integral is truncated where the kernel tail envelope times the family's own
tail bound drops below 1e-9 of the absolute mass inside the initial radius.
That radius is doubled until the bound holds, which takes no quadrature
pass beyond the order-12 probe that measured the mass.

The value is the order-16 pass at the final radius.  Its lower rung is the
order-12 pass there: the probe itself when the radius did not grow, else
one fresh order-12 pass (the first pass for finite support).  Orders 24
and 32 run only while a rung differs from the one below by more than the
target.
"""
from __future__ import annotations

import math
import os
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
from .quadrature import panel_nodes, refined_breakpoints, unit_sphere_area

_QUAD_TARGET = 1e-8
_NEAR_BOUNDARY = 1e-6
# point-source pairs per kernel block: large enough to spread the per-call
# cost of the tail series; on the superposition benchmark 2^16 ran no faster
# and raised the peak resident set from 44 to 52 MB
_BLOCK_ELEMENTS = 2**14


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


def _atom_sum(cfg, x, kernel_values, sources, weights):
    """sum_j w_j K(x, s_j) for one point (a float) or for each row of a
    (P, n) array, evaluated in row blocks of at most _BLOCK_ELEMENTS
    point-source pairs."""
    pts, single = _eval_points(cfg, x)
    out = np.zeros(len(pts))
    if len(weights):
        rows = max(1, _BLOCK_ELEMENTS // len(weights))
        for i in range(0, len(pts), rows):
            out[i : i + rows] = kernel_values(cfg, pts[i : i + rows], sources) @ weights
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
    if np.ndim(x) < 2:
        return eval_dirichlet_detailed(fieldobj, x)[0]
    pts, _ = _eval_points(fieldobj.cfg, x)
    return batch_evaluate(lambda p: eval_dirichlet_detailed(fieldobj, p)[0], pts)


def eval_dirichlet_detailed(fieldobj: PotentialField, x):
    """Value of the Poisson integral at one point x plus quadrature metadata."""
    data = _expect(fieldobj, "dirichlet")
    cfg = fieldobj.cfg
    pts, _ = _eval_points(cfg, as_coords(x, cfg.n))
    cx = pts[0]
    meta = {"near_boundary": bool(cx[-1] < _NEAR_BOUNDARY)}
    if data.kind == "atoms":
        value = _atom_sum(cfg, cx, modified_poisson_values, data.points, data.weights)
        return value, meta
    value, quad_meta = _radial_family_quadrature(cfg, cx, data)
    meta.update(quad_meta)
    return value, meta


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


def _radial_rule(cfg, cx, data, rmax, order):
    xn = cx[-1]
    ax = float(np.sqrt(np.dot(cx, cx)))
    x_tan = math.sqrt(max(ax * ax - xn * xn, 0.0))
    anchors = []
    if x_tan > 2.0 * xn:
        anchors.append((x_tan, max(xn, 1e-9 * x_tan)))
    base = max(min(xn if xn > 0 else data.radial_scale(), data.radial_scale()), 1e-9)
    breaks = refined_breakpoints(0.0, rmax, base_scale=base, anchors=anchors)
    # the kernel switches branch at the unit sphere: keep it a panel edge
    if 0.0 < 1.0 < rmax:
        breaks = sorted(set(breaks) | {1.0})
    rho, w = panel_nodes(breaks, order)
    return rho, w


def _quad_pass(cfg, cx, data, radial, rmax, order, *, l1=False):
    """Quadrature value at one rule order; with ``l1``, (value, L1 mass)."""
    rho, wr = _radial_rule(cfg, cx, data, rmax, order)
    cosg, wg = _gamma_rule(
        cfg, math.sqrt(max(np.dot(cx, cx) - cx[-1] ** 2, 0.0)), cx[-1], order
    )
    # rho as an (R, 1) column: perfbench's route counter broadcasts it to the grid
    kern = modified_poisson_polar(cfg, cx, rho[:, None], cosg)
    radial_weight = wr * radial(rho) * rho ** (cfg.n - 2)
    value = float(radial_weight @ kern @ wg)
    return (value, float(np.abs(radial_weight) @ np.abs(kern) @ wg)) if l1 else value


def _radial_family_quadrature(cfg, cx, data: BoundaryData):
    xn = cx[-1]
    ax = float(np.sqrt(np.dot(cx, cx)))
    radial = data.radial()
    support = data.radial_support()
    scale = data.radial_scale()

    if support is not None:
        rmax, lower = support, None
    else:
        rmax = max(4.0, 4.0 * ax, 6.0 * scale, 8.0 * xn)
        # grow the truncation radius until the analytic tail is negligible
        kern_env = (
            unit_sphere_area(cfg.n - 1)
            * 2.0 ** (cfg.m + cfg.n + 1)
            * xn
            * ax**cfg.m
            / cfg.omega_n
        )
        # the L1 mass inside the first radius is the reference: the mass
        # only grows with rmax, so this stop test is the strictest of them
        lower = _quad_pass(cfg, cx, data, radial, rmax, 12, l1=True)
        probe_l1 = lower[1]
        for _ in range(64):
            tail = kern_env * data.tail_integral_bound(rmax, float(-cfg.m - 2))
            if tail <= 1e-9 * max(probe_l1, 1e-300):
                break
            rmax *= 2.0
            lower = None

    # the order-12 pass at the final radius is the lower rung: the probe
    # itself when the radius did not grow; each higher order is checked
    # against the rung below and the ladder stops at the first that passes
    value, l1 = lower or _quad_pass(cfg, cx, data, radial, rmax, 12, l1=True)
    for order in (16, 24, 32):
        below, value = value, _quad_pass(cfg, cx, data, radial, rmax, order)
        err = abs(value - below)
        scale_ref = max(abs(value), l1 * 1e-3, 1e-300)
        converged = err <= _QUAD_TARGET * scale_ref
        if converged:
            break
    return value, {"rel_err_estimate": err / scale_ref, "converged": bool(converged)}


# ---------------------------------------------------------------------------
# batch evaluation and the CSV contract
# ---------------------------------------------------------------------------


def check_thread_env():
    """HPOT_THREADS, when set, must be a positive integer.  Evaluation runs
    in one thread whatever its value, so output never depends on it."""
    raw = os.environ.get("HPOT_THREADS")
    if raw is None:
        return
    try:
        v = int(raw)
    except ValueError:
        v = 0
    if v < 1:
        raise DomainError(f"HPOT_THREADS must be a positive integer, got {raw!r}")


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
