"""Seeded inputs and the fixed CLI call sequence of each workload.

A workload is built from its seed alone: ``build(name, seed, workdir)``
writes the JSON and CSV files the CLI reads into ``workdir`` and returns a
``Plan`` holding the argv of every call, the number of operations each call
attempts, and the in-memory copies of the inputs that the reference checks
need.  The program under test sees only the files.

Sampling is stratified (one point per cell of a grid in log-radius and
elevation, jittered inside the cell), so every seed gives a different input
set of the same shape and roughly the same cost.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Radial families of ``dirichlet_radial``: (label, family id, params, n, m,
# points).  The two power_growth sets carry most of the quadrature cost;
# indicator_ball has finite support and skips the truncation-radius loop.
DIRICHLET_SETS = (
    ("power_growth_0.5", "power_growth", {"s": 0.5}, 3, 1, 16),
    ("power_growth_1.5", "power_growth", {"s": 1.5}, 4, 2, 8),
    ("gaussian_bump", "gaussian_bump", {"c": 1.0, "sigma": 1.0}, 3, 1, 48),
    ("indicator_ball", "indicator_ball", {"R": 2.0}, 3, 2, 48),
)
DIRICHLET_RADII = (0.1, 30.0)
# Lowest x_n / |x| of a quadrature point.  Below about 0.45 the quadrature
# adds panels around the kernel peak and a point costs twice as much, which
# would make the workload's cost swing with the seed.
MIN_ELEVATION = 0.5

SUPERPOSITION = {
    "n": 3, "m": 2, "boundary_atoms": 5000, "measure_atoms": 5000,
    "atom_radii": (0.3, 300.0), "points": 300, "point_radii": (0.2, 60.0),
}

EXCEPTIONAL = {
    "n": 3, "atoms": 2000, "clusters": 3, "cluster_radii": (5.0, 100.0),
    "cluster_spread": 0.02, "beta": 2.0, "lambda_factor": 1.2,
    "shells": (1, 7), "grid_delta": 0.25,
    "growth_atoms": 16, "rays": 16, "radii": (2.0, 512.0, 32), "growth_m": 1,
    "alpha": 1.0, "imax": 10, "e_samples": 64, "f_nodes": 256,
    "capacity_points": 400, "capacity_nodes": 1024, "capacity_window": 2,
}

WORKLOADS = ("dirichlet_radial", "superposition_atoms", "exceptional_pipeline")


@dataclass
class Call:
    """One CLI invocation: ``argv`` for ``hpot.cli.main``.  ``out`` names
    the file the call writes, or is None when the result goes to stdout."""

    label: str
    command: str
    argv: list
    out: Path | None
    ops: int


@dataclass
class Plan:
    workload: str
    seed: int
    calls: list
    inputs: dict = field(default_factory=dict)
    props: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(c.ops for c in self.calls)


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _write_points_csv(path: Path, pts: np.ndarray):
    n = pts.shape[1]
    lines = [",".join(f"x_{i}" for i in range(1, n + 1))]
    lines += [",".join(_fmt(c) for c in p) for p in pts]
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj))


def _unit_vectors(rng, count, dim):
    v = rng.normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _stratified(rng, count, lo, hi):
    """One value per equal-width stratum of [lo, hi] on a log scale,
    jittered inside the stratum and returned in shuffled order."""
    u = (rng.permutation(count) + rng.random(count)) / count
    return lo * (hi / lo) ** u


ELEVATION_CELLS = 4


def half_space_points(rng, count, n, r_lo, r_hi, min_elevation):
    """Points of the upper half-space on a jittered grid of log-radius and
    elevation c = x_n/|x| in [min_elevation, 1]; the tangential direction
    is uniform."""
    rows = -(-count // ELEVATION_CELLS)
    i, j = np.divmod(np.arange(count), ELEVATION_CELLS)
    r = r_lo * (r_hi / r_lo) ** ((i + rng.random(count)) / rows)
    c = 1.0 - (1.0 - min_elevation) * (j + rng.random(count)) / ELEVATION_CELLS
    tan = _unit_vectors(rng, count, n - 1)
    pts = np.empty((count, n))
    pts[:, :-1] = tan * (np.sqrt(1.0 - c * c) * r)[:, None]
    pts[:, -1] = c * r
    return pts[rng.permutation(count)]


def _boundary_atoms(rng, count, n, r_lo, r_hi):
    r = _stratified(rng, count, r_lo, r_hi)
    pts = _unit_vectors(rng, count, n - 1) * r[:, None]
    weights = rng.uniform(-1.0, 1.0, count)
    return pts, weights


def _measure_atoms(rng, count, n, r_lo, r_hi):
    r = _stratified(rng, count, r_lo, r_hi)
    d = _unit_vectors(rng, count, n)
    d[:, -1] = np.abs(d[:, -1])
    masses = rng.uniform(0.05, 1.0, count)
    return d * r[:, None], masses


def _boundary_json(pts, weights):
    return {
        "dimension": pts.shape[1], "kind": "atoms",
        "atoms": [{"point": p.tolist(), "mass": float(w)} for p, w in zip(pts, weights)],
    }


def _measure_json(pts, masses):
    return {
        "dimension": pts.shape[1],
        "atoms": [{"point": p.tolist(), "mass": float(w)} for p, w in zip(pts, masses)],
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _dirichlet(seed, work: Path) -> Plan:
    rng = np.random.default_rng([seed, 1])
    calls, sets = [], []
    for label, fid, params, n, m, count in DIRICHLET_SETS:
        pts = half_space_points(rng, count, n, *DIRICHLET_RADII, MIN_ELEVATION)
        data = {"dimension": n - 1, "kind": "family", "family": {"id": fid, "params": params}}
        data_path, pts_path = work / f"{label}.json", work / f"{label}.csv"
        out = work / f"{label}.out.csv"
        _write_json(data_path, data)
        _write_points_csv(pts_path, pts)
        argv = ["potential", "--kind", "dirichlet", "--data", str(data_path),
                "--points", str(pts_path), "--n", str(n), "--m", str(m), "--out", str(out)]
        calls.append(Call(label, "potential", argv, out, count))
        sets.append({"label": label, "family": fid, "params": params, "n": n, "m": m, "points": pts})
    props = {"points_per_family": {s["label"]: len(s["points"]) for s in sets}}
    return Plan("dirichlet_radial", seed, calls, {"sets": sets}, props)


def _superposition(seed, work: Path) -> Plan:
    cfg = SUPERPOSITION
    n, m = cfg["n"], cfg["m"]
    rng = np.random.default_rng([seed, 2])
    bpts, bw = _boundary_atoms(rng, cfg["boundary_atoms"], n, *cfg["atom_radii"])
    mpts, mm = _measure_atoms(rng, cfg["measure_atoms"], n, *cfg["atom_radii"])
    pts = half_space_points(rng, cfg["points"], n, *cfg["point_radii"], 0.1)
    data_path, mu_path, pts_path = work / "boundary.json", work / "measure.json", work / "points.csv"
    out = work / "values.csv"
    _write_json(data_path, _boundary_json(bpts, bw))
    _write_json(mu_path, _measure_json(mpts, mm))
    _write_points_csv(pts_path, pts)
    argv = ["potential", "--kind", "superposition", "--data", str(data_path),
            "--measure", str(mu_path), "--points", str(pts_path),
            "--n", str(n), "--m", str(m), "--out", str(out)]
    inputs = {"n": n, "m": m, "boundary": (bpts, bw), "measure": (mpts, mm), "points": pts}
    props = {"boundary_atoms": len(bw), "measure_atoms": len(mm), "points": len(pts)}
    return Plan("superposition_atoms", seed, [Call("superposition", "potential", argv, out, len(pts))],
                inputs, props)


def _clustered_measure(rng, cfg):
    n, count, k = cfg["n"], cfg["atoms"], cfg["clusters"]
    centre_r = _stratified(rng, k, *cfg["cluster_radii"])
    centres = _unit_vectors(rng, k, n)
    centres[:, -1] = np.abs(centres[:, -1])
    centres *= centre_r[:, None]
    which = np.arange(count) % k
    offsets = rng.normal(size=(count, n)) * (cfg["cluster_spread"] * centre_r[which])[:, None]
    pts = centres[which] + offsets
    pts[:, -1] = np.abs(pts[:, -1])
    masses = rng.uniform(0.5, 1.5, count)
    return pts, masses / masses.sum()


def _exceptional(seed, work: Path) -> Plan:
    cfg = EXCEPTIONAL
    n = cfg["n"]
    rng = np.random.default_rng([seed, 3])
    mpts, mm = _clustered_measure(rng, cfg)
    lam = cfg["lambda_factor"] * 5.0 ** cfg["beta"] * math.fsum(mm)
    bpts, bw = _boundary_atoms(rng, cfg["growth_atoms"], n, 0.5, 20.0)
    aperture = float(rng.uniform(0.4, 0.6))
    cap_pts = half_space_points(rng, cfg["capacity_points"], n, 4.5, 7.5, 0.2)

    mu_path, data_path = work / "measure.json", work / "boundary.json"
    set_path, cap_path = work / "cone.json", work / "capacity.csv"
    cover, scan = work / "covering.json", work / "scan.csv"
    thin_b, thin_h = work / "thin_boundary.json", work / "thin_halfspace.json"
    _write_json(mu_path, _measure_json(mpts, mm))
    _write_json(data_path, _boundary_json(bpts, bw))
    _write_json(set_path, {"shape": "cone", "aperture": aperture})
    _write_points_csv(cap_path, cap_pts)

    lo, hi = cfg["shells"]
    r_lo, r_hi, r_count = cfg["radii"]
    growth_seed = int(rng.integers(0, 2**31))
    calls = [
        Call("covering", "exceptional",
             ["exceptional", "--measure", str(mu_path), "--beta", _fmt(cfg["beta"]),
              "--lambda", _fmt(lam), "--shells", f"{lo}..{hi}",
              "--grid-delta", _fmt(cfg["grid_delta"]), "--out", str(cover)], cover, 1),
        Call("growth", "growth",
             ["growth", "--data", str(data_path), "--measure", str(mu_path), "--n", str(n),
              "--m", str(cfg["growth_m"]), "--alpha", _fmt(cfg["alpha"]),
              "--rays", str(cfg["rays"]), "--radii", f"{_fmt(r_lo)}:{_fmt(r_hi)}:{r_count}",
              "--seed", str(growth_seed), "--covering", str(cover), "--out", str(scan)],
             scan, cfg["rays"] * r_count),
    ]
    for kind, out in (("boundary", thin_b), ("halfspace", thin_h)):
        calls.append(Call(f"thinness_{kind}", "thinness",
                          ["thinness", "--set", str(set_path), "--kind", kind, "--n", str(n),
                           "--imax", str(cfg["imax"]), "--e-samples", str(cfg["e_samples"]),
                           "--f-nodes", str(cfg["f_nodes"]), "--out", str(out)],
                          out, cfg["imax"]))
    calls.append(Call("capacity", "capacity",
                      ["capacity", "--kind", "boundary", "--n", str(n), "--points", str(cap_path),
                       "--window", str(cfg["capacity_window"]), "--nodes", str(cfg["capacity_nodes"])],
                      None, 1))
    inputs = {
        "n": n, "measure": (mpts, mm), "boundary": (bpts, bw), "beta": cfg["beta"], "lam": lam,
        "shells": range(lo, hi + 1), "grid_delta": cfg["grid_delta"], "aperture": aperture,
        "growth_seed": growth_seed, "growth_m": cfg["growth_m"], "alpha": cfg["alpha"],
        "rays": cfg["rays"], "radii": np.geomspace(r_lo, r_hi, r_count),
        "imax": cfg["imax"], "e_samples": cfg["e_samples"], "f_nodes": cfg["f_nodes"],
        "capacity_points": cap_pts, "capacity_nodes": cfg["capacity_nodes"],
        "capacity_window": cfg["capacity_window"],
    }
    return Plan("exceptional_pipeline", seed, calls, inputs, {"cone_aperture": aperture})


_BUILDERS = {
    "dirichlet_radial": _dirichlet,
    "superposition_atoms": _superposition,
    "exceptional_pipeline": _exceptional,
}


def build(name: str, seed: int, work: Path) -> Plan:
    return _BUILDERS[name](seed, work)
