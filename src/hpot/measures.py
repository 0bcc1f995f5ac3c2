"""Boundary data and atomic measures, with their integrability gates.

Boundary data is either a finite atom list on R^{n-1} or one of three
radial closed-form families:

* ``power_growth(s)``      f(y') = (1 + |y'|^2)^(s/2)
* ``gaussian_bump(c, sigma)``  f(y') = c * exp(-|y'|^2 / (2 sigma^2))
* ``indicator_ball(R)``    f(y') = 1 for |y'| <= R, else 0

Measures on the half-space are finite atomic.  The two gates checked here
are the weighted-mass conditions that the Dirichlet and Green potentials
require before evaluation is allowed.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainError, SchemaError
from .kernels import KernelConfig
from .quadrature import inverted_tail_rule, panel_nodes, refined_breakpoints, unit_sphere_area

BOUNDARY_CONDITION = "boundary_integrability"
MEASURE_CONDITION = "measure_integrability"

_FAMILY_PARAMS = {
    "power_growth": ("s",),
    "gaussian_bump": ("c", "sigma"),
    "indicator_ball": ("R",),
}


@dataclass(frozen=True)
class ConditionReport:
    value: float
    condition: str
    satisfied: bool

    def to_json_dict(self):
        return {
            "condition": self.condition,
            "satisfied": self.satisfied,
            "value": None if math.isinf(self.value) else self.value,
        }


class AtomicMeasure:
    """Finite positive atomic measure: points (N, dimension) and masses (N,)."""

    def __init__(self, dimension: int, points, masses):
        if int(dimension) != dimension or dimension < 1:
            raise DomainError(f"bad measure dimension {dimension}")
        self.dimension = int(dimension)
        pts = np.asarray(points, dtype=float).reshape(-1, self.dimension)
        ms = np.atleast_1d(np.asarray(masses, dtype=float))
        if pts.shape[0] != ms.size:
            raise DomainError("measure points and masses differ in length")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(ms))):
            raise DomainError("measure entries must be finite")
        if np.any(ms <= 0.0):
            raise DomainError("measure masses must be positive")
        self.points = pts
        self.masses = ms
        self.points.flags.writeable = False
        self.masses.flags.writeable = False

    def __len__(self):
        return self.masses.size

    @cached_property
    def total_mass(self) -> float:
        """Correctly rounded sum of the masses, so threshold tests such as
        lambda >= 5^beta * mu(H) carry no summation error.  Computed once:
        the masses are read-only.  A sum past the float range is inf, the
        correctly rounded value, since the masses are positive."""
        try:
            return math.fsum(self.masses.tolist())
        except OverflowError:
            return math.inf

    @classmethod
    def empty(cls, dimension: int) -> "AtomicMeasure":
        return cls(dimension, np.zeros((0, dimension)), np.zeros(0))

    @classmethod
    def from_json_dict(cls, obj) -> "AtomicMeasure":
        dim = _expect_int(obj, "dimension")
        pts, ms = _parse_atoms(_expect_list(obj, "atoms"), dim, positive=True)
        return cls(dim, pts, ms)

    def to_json_dict(self):
        return {
            "dimension": self.dimension,
            "atoms": [
                {"point": list(map(float, p)), "mass": float(m)}
                for p, m in zip(self.points, self.masses)
            ],
        }


class BoundaryData:
    """Boundary data on R^{dimension}: signed atoms or a radial family."""

    def __init__(self, dimension, kind, points=None, weights=None, family=None):
        if int(dimension) != dimension or dimension < 2:
            raise DomainError(f"bad boundary dimension {dimension}")
        self.dimension = int(dimension)
        self.kind = kind
        if kind == "atoms":
            pts = np.asarray(
                points if points is not None else np.zeros((0, self.dimension)),
                dtype=float,
            ).reshape(-1, self.dimension)
            ws = np.atleast_1d(
                np.asarray(weights if weights is not None else np.zeros(0), float)
            )
            if pts.shape[0] != ws.size:
                raise DomainError("boundary atoms and weights differ in length")
            if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(ws))):
                raise DomainError("boundary atoms must be finite")
            self.points, self.weights = pts, ws
            self.family_id, self.params = None, None
        elif kind == "family":
            fid, params = family
            if fid not in _FAMILY_PARAMS:
                raise DomainError(f"unknown boundary family {fid!r}")
            for key in _FAMILY_PARAMS[fid]:
                v = params.get(key)
                try:
                    finite = (
                        isinstance(v, (int, float))
                        and not isinstance(v, bool)
                        and math.isfinite(v)
                    )
                except OverflowError:  # an int beyond the float range
                    finite = False
                if not finite:
                    raise DomainError(f"{fid} needs a finite number {key}, got {v!r}")
            if fid == "gaussian_bump" and not params.get("sigma", 0) > 0:
                raise DomainError("gaussian_bump needs sigma > 0")
            if fid == "indicator_ball" and not params.get("R", 0) > 0:
                raise DomainError("indicator_ball needs R > 0")
            self.family_id = fid
            self.params = dict(params)
            self.points = np.zeros((0, self.dimension))
            self.weights = np.zeros(0)
        else:
            raise DomainError(f"unknown boundary data kind {kind!r}")

    # -- radial family helpers -------------------------------------------

    @classmethod
    def atoms(cls, dimension, points, weights) -> "BoundaryData":
        return cls(dimension, "atoms", points=points, weights=weights)

    @classmethod
    def power_growth(cls, dimension, s) -> "BoundaryData":
        return cls(dimension, "family", family=("power_growth", {"s": float(s)}))

    @classmethod
    def gaussian_bump(cls, dimension, c, sigma) -> "BoundaryData":
        return cls(
            dimension,
            "family",
            family=("gaussian_bump", {"c": float(c), "sigma": float(sigma)}),
        )

    @classmethod
    def indicator_ball(cls, dimension, radius) -> "BoundaryData":
        return cls(
            dimension, "family", family=("indicator_ball", {"R": float(radius)})
        )

    def radial(self) -> Callable[[np.ndarray], np.ndarray]:
        """|f| as a function of the boundary radius (families are radial)."""
        if self.kind != "family":
            raise DomainError("only family data has a radial profile")
        fid, p = self.family_id, self.params
        if fid == "power_growth":
            s = p["s"]
            return lambda r: (1.0 + np.asarray(r) ** 2) ** (0.5 * s)
        if fid == "gaussian_bump":
            c, sig = p["c"], p["sigma"]
            return lambda r: c * np.exp(-0.5 * (np.asarray(r) / sig) ** 2)
        radius = p["R"]
        return lambda r: np.where(np.asarray(r) <= radius, 1.0, 0.0)

    def radial_support(self):
        """Finite support radius, or None."""
        if self.kind == "family" and self.family_id == "indicator_ball":
            return self.params["R"]
        return None

    def radial_scale(self) -> float:
        if self.kind != "family":
            return 1.0
        if self.family_id == "gaussian_bump":
            return self.params["sigma"]
        if self.family_id == "indicator_ball":
            return self.params["R"]
        return 1.0

    def far_exponent(self, m: int) -> float:
        """The power beta of the far field in u = 1/rho: for rho > 1 the
        polar integrand |f(rho)| rho^(-m-2) drho is u^beta du times a smooth
        function of u; m - s for power_growth (beta > -1 is the gate), 0 for
        the other families."""
        if self.kind != "family":
            raise DomainError("far-field exponents are defined for family data")
        if self.family_id == "power_growth":
            return float(m) - self.params["s"]
        return 0.0

    @classmethod
    def from_json_dict(cls, obj) -> "BoundaryData":
        dim = _expect_int(obj, "dimension")
        kind = _expect_str(obj, "kind")
        if kind == "atoms":
            pts, ws = _parse_atoms(_expect_list(obj, "atoms"), dim, positive=False)
            return cls.atoms(dim, pts, ws)
        if kind == "family":
            fam = obj.get("family")
            if not isinstance(fam, dict):
                raise SchemaError("missing object field", "family")
            fid = _expect_str(fam, "id", "family")
            params = fam.get("params")
            if not isinstance(params, dict):
                raise SchemaError("missing object field", "family.params")
            if fid not in _FAMILY_PARAMS:
                raise SchemaError(f"unknown family id {fid!r}", "family.id")
            try:
                return cls(dim, "family", family=(fid, params))
            except DomainError as exc:
                raise SchemaError(str(exc), "family.params") from exc
        raise SchemaError(f"kind must be 'atoms' or 'family', got {kind!r}", "kind")

    def to_json_dict(self):
        out = {"dimension": self.dimension, "kind": self.kind}
        if self.kind == "atoms":
            out["atoms"] = [
                {"point": list(map(float, p)), "mass": float(w)}
                for p, w in zip(self.points, self.weights)
            ]
        else:
            out["family"] = {"id": self.family_id, "params": dict(self.params)}
        return out


# ---------------------------------------------------------------------------
# JSON field helpers (structured errors carry the offending path)
# ---------------------------------------------------------------------------


def _expect_int(obj, key, prefix=""):
    path = f"{prefix}.{key}" if prefix else key
    v = obj.get(key) if isinstance(obj, dict) else None
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError("expected an integer", path)
    return v


def _as_float(v, path):
    """A JSON number as a float; a bool, a non-number, or an integer
    beyond the float range is a SchemaError at ``path``."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError("expected a number", path)
    try:
        return float(v)
    except OverflowError:
        raise SchemaError("number out of floating-point range", path) from None


def _expect_number(obj, key, prefix=""):
    path = f"{prefix}.{key}" if prefix else key
    return _as_float(obj.get(key) if isinstance(obj, dict) else None, path)


def _expect_str(obj, key, prefix=""):
    path = f"{prefix}.{key}" if prefix else key
    v = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(v, str):
        raise SchemaError("expected a string", path)
    return v


def _expect_list(obj, key, prefix=""):
    path = f"{prefix}.{key}" if prefix else key
    v = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(v, list):
        raise SchemaError("expected a list", path)
    return v


def _expect_vector(obj, key, length, prefix=""):
    path = f"{prefix}.{key}" if prefix else key
    v = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(v, list) or len(v) != length:
        raise SchemaError(f"expected a list of {length} numbers", path)
    for j, entry in enumerate(v):
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise SchemaError("expected a number", f"{path}[{j}]")
    try:
        return [float(e) for e in v]
    except OverflowError:
        return [_as_float(e, f"{path}[{j}]") for j, e in enumerate(v)]


def _parse_atoms(atoms, dim, positive):
    """Points and masses (N,) of a JSON atom list
    ``[{"point": [...], "mass": m}, ...]``; ``positive`` requires masses > 0.

    A list of plain objects, lists and numbers (the types JSON gives) is
    checked in bulk and converted by numpy.  Any other list takes one pass
    in atom order, where the first fault raises a SchemaError at its path,
    which is formed only then.  The points come back as an array of N lists
    of dim floats (1-d when N = 0), which the constructors reshape once the
    dimension has passed their own check."""
    parsed = _parse_plain_atoms(atoms, dim, positive)
    if parsed is not None:
        return parsed
    pts, ms = [], []
    for i, atom in enumerate(atoms):
        if not isinstance(atom, dict):
            raise SchemaError("expected an object", f"atoms[{i}]")
        p = atom.get("point")
        if not isinstance(p, list) or len(p) != dim:
            raise SchemaError(f"expected a list of {dim} numbers", f"atoms[{i}].point")
        for j, e in enumerate(p):
            if isinstance(e, bool) or not isinstance(e, (int, float)):
                raise SchemaError("expected a number", f"atoms[{i}].point[{j}]")
        try:
            pts.append([float(e) for e in p])
        except OverflowError:  # raised below at the first oversized integer
            for j, e in enumerate(p):
                _as_float(e, f"atoms[{i}].point[{j}]")
        m = atom.get("mass")
        if isinstance(m, bool) or not isinstance(m, (int, float)):
            raise SchemaError("expected a number", f"atoms[{i}].mass")
        try:
            m = float(m)
        except OverflowError:
            raise SchemaError(
                "number out of floating-point range", f"atoms[{i}].mass"
            ) from None
        if positive and m <= 0:
            raise SchemaError("mass must be positive", f"atoms[{i}].mass")
        ms.append(m)
    return np.array(pts), np.array(ms)


_NUMBERS = {int, float}


def _parse_plain_atoms(atoms, dim, positive):
    """``_parse_atoms``' result for a list without faults whose objects,
    points and numbers are exactly dict, list, int and float, else None.
    Bools and number subclasses are other types; an integer beyond the
    float range stops the conversion."""
    if not set(map(type, atoms)) <= {dict}:
        return None
    pts = [atom.get("point") for atom in atoms]
    ms = [atom.get("mass") for atom in atoms]
    if not (set(map(type, pts)) <= {list} and set(map(len, pts)) <= {dim}):
        return None
    if not (set(map(type, itertools.chain.from_iterable(pts))) <= _NUMBERS
            and set(map(type, ms)) <= _NUMBERS):
        return None
    try:
        pts, ms = np.array(pts, dtype=float), np.array(ms, dtype=float)
    except OverflowError:
        return None
    if positive and np.any(ms <= 0):
        return None
    return pts, ms


# ---------------------------------------------------------------------------
# integrability gates
# ---------------------------------------------------------------------------


def _radial_gate_integral(data: BoundaryData, cfg: KernelConfig) -> float:
    """A * int_0^inf |f(rho)| rho^(n-2) / (1 + rho^(n+m)) drho  in polar form:
    panels up to r0 = max(2, 4 scale) (or the support) and the inverted
    Gauss-Jacobi rule beyond."""
    n, m = cfg.n, cfg.m
    area = unit_sphere_area(n - 1)
    radial = data.radial()
    scale = data.radial_scale()
    support = data.radial_support()

    def integrand(nodes):
        # rho^(n-2) / (1 + rho^(n+m)) with the power rho^(2-n) divided out,
        # so a power past the float range gives the limit 0, not inf / inf
        with np.errstate(over="ignore"):
            return np.abs(radial(nodes)) / (nodes ** (2.0 - n) + nodes ** (m + 2.0))

    r0 = support if support is not None else max(2.0, 4.0 * scale)
    nodes, w = panel_nodes(refined_breakpoints(0.0, r0, base_scale=min(0.5, scale)), 24)
    acc = float(np.dot(w, integrand(nodes)))
    if support is None:
        nodes, w = inverted_tail_rule(r0, 24, data.far_exponent(m))
        acc += float(np.dot(w, integrand(nodes)))
    return area * acc


def check_boundary_condition(data: BoundaryData, cfg: KernelConfig) -> ConditionReport:
    """Gate for Dirichlet data:  int |f(y')| / (1 + |y'|^(n+m)) dy' < inf.

    Atom lists always pass (finite sums); power growth passes exactly when
    the exponent s stays below m + 1 (the polar integrand decays like
    rho^(s-m-2) and needs decay faster than 1/rho)."""
    if data.dimension != cfg.n - 1:
        raise DomainError(
            f"boundary data dimension {data.dimension} does not match n-1={cfg.n - 1}"
        )
    if data.kind == "atoms":
        # a power past the float range is inf, and 1/(1 + inf) = 0 its limit
        with np.errstate(over="ignore"):
            r = np.sqrt(np.sum(data.points**2, axis=-1))
            value = float(np.sum(np.abs(data.weights) / (1.0 + r ** (cfg.n + cfg.m))))
        return ConditionReport(value, BOUNDARY_CONDITION, True)
    if data.family_id == "power_growth" and data.params["s"] >= cfg.m + 1:
        return ConditionReport(math.inf, BOUNDARY_CONDITION, False)
    return ConditionReport(_radial_gate_integral(data, cfg), BOUNDARY_CONDITION, True)


def check_measure_condition(mu: AtomicMeasure, cfg: KernelConfig) -> ConditionReport:
    """Gate for Green-potential measures:
    int_H y_n / (1 + |y|^(n+m)) dmu(y) < inf (always finite for atoms)."""
    if mu.dimension != cfg.n:
        raise DomainError(
            f"measure dimension {mu.dimension} does not match n={cfg.n}"
        )
    if len(mu) and np.any(mu.points[:, -1] < 0.0):
        raise DomainError("measure atoms must lie in the closed half-space")
    if len(mu) == 0:
        return ConditionReport(0.0, MEASURE_CONDITION, True)
    with np.errstate(over="ignore"):  # as in check_boundary_condition
        r = np.sqrt(np.sum(mu.points**2, axis=-1))
        value = float(
            np.sum(mu.masses * mu.points[:, -1] / (1.0 + r ** (cfg.n + cfg.m)))
        )
    return ConditionReport(value, MEASURE_CONDITION, True)
