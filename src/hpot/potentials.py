"""Dirichlet (Poisson-integral) and Green potentials, and their sum.

Atomic sources are evaluated exactly as kernel sums.  Radial boundary
families are integrated in polar form: a panelized Gauss-Legendre rule in
the boundary radius (refined near the kernel peak and cut at the unit-ball
branch point) tensored with a rule in the polar angle; the improper radial
integral is truncated where the kernel tail envelope times the family's own
tail bound drops below 1e-9 of the absolute mass inside the initial radius.
That radius is doubled until the bound holds, which takes no quadrature
pass beyond the one that measured the mass.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
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
from .geometry import as_coords
from .measures import (
    AtomicMeasure,
    BoundaryData,
    check_boundary_condition,
    check_measure_condition,
)
from .quadrature import panel_nodes, refined_breakpoints, unit_sphere_area

_QUAD_TARGET = 1e-8
_NEAR_BOUNDARY = 1e-6


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


def eval_dirichlet(fieldobj: PotentialField, x) -> float:
    value, _ = eval_dirichlet_detailed(fieldobj, x)
    return value


def eval_dirichlet_detailed(fieldobj: PotentialField, x):
    """Value of the Poisson integral at x plus quadrature metadata."""
    if fieldobj.kind != "dirichlet":
        raise DomainError("expected a dirichlet field")
    cfg = fieldobj.cfg
    cx = as_coords(x, cfg.n)
    if cx[-1] < 0.0:
        raise DomainError("evaluation point lies below the boundary")
    data = fieldobj.source
    meta = {"near_boundary": bool(cx[-1] < _NEAR_BOUNDARY)}
    if data.kind == "atoms":
        if len(data.weights) == 0:
            return 0.0, meta
        vals = modified_poisson_values(cfg, cx, data.points)
        return float(np.dot(np.atleast_1d(vals), data.weights)), meta
    value, quad_meta = _radial_family_quadrature(cfg, cx, data)
    meta.update(quad_meta)
    return value, meta


def eval_green_potential(fieldobj: PotentialField, x) -> float:
    """Green potential of an atomic measure: an exact kernel sum."""
    if fieldobj.kind != "green":
        raise DomainError("expected a green field")
    cfg = fieldobj.cfg
    cx = as_coords(x, cfg.n)
    mu = fieldobj.source
    if len(mu) == 0:
        return 0.0
    vals = modified_green_values(cfg, cx, mu.points)
    return float(np.dot(np.atleast_1d(vals), mu.masses))


def eval_superposition(vf: PotentialField, hf: PotentialField, x) -> float:
    """v(x) + h(x); both fields must share the kernel configuration."""
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


def _quad_pass(cfg, cx, data, radial, rmax, order):
    rho, wr = _radial_rule(cfg, cx, data, rmax, order)
    cosg, wg = _gamma_rule(
        cfg, math.sqrt(max(np.dot(cx, cx) - cx[-1] ** 2, 0.0)), cx[-1], order
    )
    kern = modified_poisson_polar(cfg, cx, rho[:, None], cosg[None, :])
    radial_weight = wr * radial(rho) * rho ** (cfg.n - 2)
    value = float(radial_weight @ kern @ wg)
    l1 = float(np.abs(radial_weight) @ np.abs(kern) @ wg)
    return value, l1


def _radial_family_quadrature(cfg, cx, data: BoundaryData):
    xn = cx[-1]
    ax = float(np.sqrt(np.dot(cx, cx)))
    radial = data.radial()
    support = data.radial_support()
    scale = data.radial_scale()

    if support is not None:
        rmax = support
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
        _, probe_l1 = _quad_pass(cfg, cx, data, radial, rmax, 12)
        for _ in range(64):
            tail = kern_env * data.tail_integral_bound(rmax, float(-cfg.m - 2))
            if tail <= 1e-9 * max(probe_l1, 1e-300):
                break
            rmax *= 2.0

    v16, _ = _quad_pass(cfg, cx, data, radial, rmax, 16)
    v24, l24 = _quad_pass(cfg, cx, data, radial, rmax, 24)
    err = abs(v24 - v16)
    scale_ref = max(abs(v24), l24 * 1e-3, 1e-300)
    converged = err <= _QUAD_TARGET * scale_ref
    if not converged:
        v32, _ = _quad_pass(cfg, cx, data, radial, rmax, 32)
        err = abs(v32 - v24)
        converged = err <= _QUAD_TARGET * max(abs(v32), l24 * 1e-3, 1e-300)
        v24 = v32
    return v24, {"rel_err_estimate": err / scale_ref, "converged": bool(converged)}


# ---------------------------------------------------------------------------
# batch evaluation and the CSV contract
# ---------------------------------------------------------------------------


def max_threads() -> int:
    raw = os.environ.get("HPOT_THREADS")
    if raw is None:
        return 1
    try:
        v = int(raw)
    except ValueError:
        v = 0
    if v < 1:
        raise DomainError(f"HPOT_THREADS must be a positive integer, got {raw!r}")
    return v


def batch_evaluate(fn: Callable, points: np.ndarray, threads: int | None = None):
    """Apply ``fn`` to each row of ``points``; output order matches input
    regardless of the worker count."""
    pts = np.asarray(points, dtype=float)
    if threads is None:
        threads = max_threads()
    if threads <= 1 or pts.shape[0] < 2:
        return np.array([fn(p) for p in pts])
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return np.array(list(pool.map(fn, pts)))


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
