"""Command-line front end.

Subcommands: kernel, potential, exceptional, growth, capacity, thinness.
Exit codes: 0 success, 2 math-domain error, 3 integrability refusal,
64 usage, 65 input schema, 73 output file that cannot be written.  Errors
go to stderr as one JSON object with a stable ``code`` field; all
floating-point output uses 17 significant digits, so identical invocations
(and seeds) produce byte-identical files.

Memory policy: the first call of ``main`` in a process, where the C
library is glibc, sets two malloc parameters through ``ctypes``.
M_MMAP_THRESHOLD becomes 1 MiB, so the temporaries of a kernel block (a
few hundred KB each) come from the heap, and M_TRIM_THRESHOLD 128 MiB, so
the heap memory one block frees is kept for the next instead of being
given back to the system and faulted in again.  Forked children inherit
the setting, and it stays for the rest of the process.  It changes no
arithmetic and so no output; if any step fails, nothing is set.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .capacity import (
    BOUNDARY,
    HALFSPACE,
    CapacityProblem,
    capacity,
    membership_from_spec,
    thinness_series,
    window_nodes,
)
from .errors import HpotError, IntegrabilityError, SchemaError
from .exceptional import (
    CoveringResult,
    GrowthParams,
    MaximalQuery,
    growth_scan,
    scan_csv,
    vitali_covering,
)
from .geometry import Ball, Point
from .kernels import (
    KernelConfig,
    fundamental,
    green,
    modified_fundamental,
    modified_green,
    modified_poisson,
    poisson,
)
from .measures import AtomicMeasure, BoundaryData
from .potentials import (
    PotentialField,
    eval_dirichlet,
    eval_green_potential,
    eval_superposition,
    format_float,
    read_points_csv,
    values_csv,
)

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_CONDITION = 3
EXIT_USAGE = 64
EXIT_SCHEMA = 65
EXIT_CANTCREAT = 73  # sysexits.h EX_CANTCREAT

# mallopt parameter numbers from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_heap_kept = False  # set once main has set the memory policy


def _keep_freed_heap():
    """Set the memory policy of the module docstring, once per process.

    Left at glibc's defaults, a block's freed temporaries at the top of the
    heap go back to the system, and the next block faults the same pages
    in again: about 42 000 minor faults per superposition benchmark
    sequence in each process, against about 3 000 with this policy."""
    global _heap_kept
    if _heap_kept:
        return
    _heap_kept = True
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        import ctypes  # here, so that ``import hpot.cli`` imports nothing new

        mallopt = ctypes.CDLL(None).mallopt
        mallopt(_M_MMAP_THRESHOLD, 1 << 20)
        mallopt(_M_TRIM_THRESHOLD, 128 << 20)
    except (AttributeError, ImportError, OSError, TypeError, ValueError):
        pass  # no confstr, ctypes, C library or mallopt here: keep the defaults


class _UsageError(Exception):
    pass


class _OutputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def render_json(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats and insertion
    key order."""
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(k)}:{render_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(render_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return format_float(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    return json.dumps(obj)


def _emit(args, text: str):
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise _OutputError(f"cannot write --out {args.out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


def _read_text_file(path, what):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SchemaError(str(exc), what)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}", what)


def _load_json_file(path, what):
    text = _read_text_file(path, what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", what)


def _parse_vector(text):
    try:
        vec = np.array([float(c) for c in text.split(",")], dtype=float)
    except ValueError:
        raise _UsageError(f"bad vector literal {text!r}")
    if not np.all(np.isfinite(vec)):
        raise _UsageError(f"vector literal {text!r} has a non-finite entry")
    return vec


def _parse_shells(text):
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise _UsageError(f"bad shell range {text!r}, expected like 1..6")
    if hi < lo:
        raise _UsageError("empty shell range")
    return range(lo, hi + 1)


def _int_from(least, what):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"expected {what} integer, got {text!r}")
        return value

    return parse


_positive_int = _int_from(1, "a positive")
_seed = _int_from(0, "a non-negative")


def _parse_radii(text):
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise _UsageError(f"bad radii spec {text!r}, expected lo:hi:count")
    if not (0 < lo < hi < math.inf and count >= 2):
        raise _UsageError("radii spec must have 0 < lo < hi < inf and count >= 2")
    return np.geomspace(lo, hi, count)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_kernel(args) -> int:
    cfg = KernelConfig(args.n, args.m)
    x = _parse_vector(args.x)
    kind = args.kind
    if kind in ("G", "Em", "Gm") and args.y is None:
        raise _UsageError(f"--kind {kind} requires --y")
    if kind in ("P", "Pm") and args.yp is None:
        raise _UsageError(f"--kind {kind} requires --yp")
    if kind == "E":
        value = fundamental(cfg, x)
    elif kind == "G":
        value = green(cfg, x, _parse_vector(args.y))
    elif kind == "P":
        value = poisson(cfg, x, _parse_vector(args.yp))
    elif kind == "Em":
        value = modified_fundamental(cfg, x, _parse_vector(args.y))
    elif kind == "Gm":
        value = modified_green(cfg, x, _parse_vector(args.y))
    else:
        value = modified_poisson(cfg, x, _parse_vector(args.yp))
    sys.stdout.write(render_json({"value": float(value)}) + "\n")
    return EXIT_OK


def _load_fields(args, data_path, measure_path):
    """(cfg, Dirichlet field, Green field) with each input file parsed once;
    --n may be omitted, since every valid input file fixes the dimension."""
    data = mu = None
    if data_path:
        data = BoundaryData.from_json_dict(_load_json_file(data_path, "data"))
    if measure_path:
        mu = AtomicMeasure.from_json_dict(_load_json_file(measure_path, "measure"))
    n = args.n
    if n is None:
        n = mu.dimension if mu is not None else data.dimension + 1
    cfg = KernelConfig(n, args.m)
    vf = PotentialField(cfg, data, "dirichlet") if data is not None else None
    hf = PotentialField(cfg, mu, "green") if mu is not None else None
    return cfg, vf, hf


def cmd_potential(args) -> int:
    if args.kind in ("dirichlet", "superposition") and not args.data:
        raise _UsageError(f"--kind {args.kind} requires --data")
    if args.kind in ("green", "superposition") and not args.measure:
        raise _UsageError(f"--kind {args.kind} requires --measure")
    data_path = args.data if args.kind != "green" else None
    measure_path = args.measure if args.kind != "dirichlet" else None
    cfg, vf, hf = _load_fields(args, data_path, measure_path)
    pts = read_points_csv(_read_text_file(args.points, "points"), cfg.n)
    if args.kind == "dirichlet":
        values = eval_dirichlet(vf, pts, require_converged=True)
    elif args.kind == "green":
        values = eval_green_potential(hf, pts)
    else:
        values = eval_superposition(vf, hf, pts, require_converged=True)
    _emit(args, values_csv(pts, values))
    return EXIT_OK


def cmd_exceptional(args) -> int:
    mu = AtomicMeasure.from_json_dict(_load_json_file(args.measure, "measure"))
    query = MaximalQuery(args.beta, getattr(args, "lam"))
    cover = vitali_covering(mu, query, _parse_shells(args.shells), args.grid_delta)
    _emit(args, render_json(cover.to_json_dict()) + "\n")
    return EXIT_OK


def _covering_from_json(obj) -> CoveringResult:
    try:
        balls = tuple(
            Ball(Point(np.asarray(b["center"], dtype=float)), float(b["radius"]))
            for b in obj["balls"]
        )
        return CoveringResult(balls, float(obj["weighted_sum"]), float(obj["bound"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad covering JSON: {exc}", "covering")


def cmd_growth(args) -> int:
    if not (args.data or args.measure):
        raise _UsageError("growth scans need --data and/or --measure")
    cfg, vf, hf = _load_fields(args, args.data, args.measure)
    subharmonic = hf is not None

    def u_eval(x):
        total = 0.0
        if vf is not None:
            total += eval_dirichlet(vf, x, require_converged=True)
        if hf is not None:
            total += eval_green_potential(hf, x)
        return total

    rng = np.random.default_rng(args.seed)
    rays = []
    while len(rays) < args.rays:
        d = rng.normal(size=cfg.n)
        d[-1] = abs(d[-1])
        norm = float(np.linalg.norm(d))
        if norm == 0.0 or d[-1] / norm < 0.05:
            continue
        rays.append(d / norm)
    covering = None
    if args.covering:
        covering = _covering_from_json(_load_json_file(args.covering, "covering"))
    rows = growth_scan(
        u_eval,
        rays,
        _parse_radii(args.radii),
        GrowthParams(args.alpha, cfg.m),
        covering,
        dim=cfg.n,
        subharmonic=subharmonic,
    )
    _emit(args, scan_csv(rows))
    return EXIT_OK


def cmd_capacity(args) -> int:
    text = _read_text_file(args.points, "points")
    n = args.n
    if n is None:
        header = text.strip().splitlines()[0] if text.strip() else ""
        n = len([h for h in header.split(",") if h.strip().startswith("x_")])
    cfg = KernelConfig(n)
    pts = read_points_csv(text, cfg.n)
    nodes, weights = window_nodes(args.kind, args.window, cfg, args.nodes)
    prob = CapacityProblem(args.kind, pts, nodes, weights, cfg)
    value = capacity(prob)
    sys.stdout.write(
        render_json(
            {"value": value, "n_constraints": pts.shape[0], "n_nodes": len(weights)}
        )
        + "\n"
    )
    return EXIT_OK


def cmd_thinness(args) -> int:
    spec = _load_json_file(args.set, "set")
    membership = membership_from_spec(spec, args.n)
    cfg = KernelConfig(args.n)
    report = thinness_series(
        membership, args.kind, args.imax, cfg, args.e_samples, args.f_nodes
    )
    _emit(args, render_json(report.to_json_dict()) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


@functools.cache  # built once per process; each parse_args call fills a new namespace
def _build_parser() -> _Parser:
    p = _Parser(prog="hpot", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="evaluate one kernel at one point")
    k.add_argument("--kind", required=True, choices=["E", "G", "P", "Em", "Gm", "Pm"])
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--m", type=int, default=0)
    k.add_argument("--x", required=True)
    k.add_argument("--y")
    k.add_argument("--yp")
    k.set_defaults(func=cmd_kernel)

    def add_common(sp):
        sp.add_argument("--n", type=int, help="ambient dimension; inferred from input files when omitted")
        sp.add_argument("--m", type=int, default=0)
        sp.add_argument("--out")

    pot = sub.add_parser("potential", help="batch-evaluate a potential over CSV points")
    pot.add_argument("--kind", required=True, choices=["dirichlet", "green", "superposition"])
    pot.add_argument("--data")
    pot.add_argument("--measure")
    pot.add_argument("--points", required=True)
    add_common(pot)
    pot.set_defaults(func=cmd_potential)

    exc = sub.add_parser("exceptional", help="construct an exceptional-set covering")
    exc.add_argument("--measure", required=True)
    exc.add_argument("--beta", type=float, required=True)
    exc.add_argument("--lambda", dest="lam", type=float, required=True)
    exc.add_argument("--shells", default="1..6")
    exc.add_argument("--grid-delta", type=float, default=0.25)
    exc.add_argument("--out")
    exc.set_defaults(func=cmd_exceptional)

    gr = sub.add_parser("growth", help="growth-ratio scan along random rays")
    gr.add_argument("--data")
    gr.add_argument("--measure")
    gr.add_argument("--alpha", type=float, required=True)
    gr.add_argument("--rays", type=_positive_int, default=8)
    gr.add_argument("--radii", default="8:1024:16")
    gr.add_argument("--covering")
    gr.add_argument("--seed", type=_seed, default=0)
    add_common(gr)
    gr.set_defaults(func=cmd_growth)

    cap = sub.add_parser("capacity", help="capacity of CSV points against a dyadic window")
    cap.add_argument("--kind", required=True, choices=[BOUNDARY, HALFSPACE])
    cap.add_argument("--n", type=int, help="inferred from the points header when omitted")
    cap.add_argument("--points", required=True)
    cap.add_argument("--window", type=int, default=1, help="dyadic window index i")
    cap.add_argument("--nodes", type=_positive_int, default=160)
    cap.set_defaults(func=cmd_capacity)

    th = sub.add_parser("thinness", help="dyadic capacity series of a set")
    th.add_argument("--set", required=True)
    th.add_argument("--kind", required=True, choices=[BOUNDARY, HALFSPACE])
    th.add_argument("--n", type=int, default=3)
    th.add_argument("--imax", type=int, default=8)
    th.add_argument("--e-samples", type=_positive_int, default=48)
    th.add_argument("--f-nodes", type=_positive_int, default=160)
    th.add_argument("--out")
    th.set_defaults(func=cmd_thinness)
    return p


def _error_json(code, message) -> str:
    return render_json({"code": code, "message": str(message)}) + "\n"


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(_error_json("usage", exc))
        return EXIT_USAGE
    except _OutputError as exc:
        sys.stderr.write(_error_json("output", exc))
        return EXIT_CANTCREAT
    except SchemaError as exc:
        sys.stderr.write(_error_json(exc.code, exc))
        return EXIT_SCHEMA
    except IntegrabilityError as exc:
        payload = {"code": exc.code, "message": str(exc)}
        if exc.report is not None:
            payload["report"] = exc.report.to_json_dict()
        sys.stderr.write(render_json(payload) + "\n")
        return EXIT_CONDITION
    except HpotError as exc:
        sys.stderr.write(_error_json(exc.code, exc))
        return EXIT_DOMAIN


def entrypoint():  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
