"""Span tracing by rebinding hpot's public functions from outside.

``Tracer.install()`` replaces each target function in every ``hpot``
module that holds a reference to it with a wrapper that records a span
(name, start, end, parent) and updates counters; ``uninstall()`` puts the
originals back.  The program itself is not edited.

A span stores three clock readings: start, end of the wrapped call, and end
of the wrapper's own bookkeeping.  A parent's self time subtracts its
children up to the third reading, so counter updates are charged to the
tracing overhead, not to any layer.
"""
from __future__ import annotations

import functools
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np

# ---------------------------------------------------------------------------
# counters (run after the wrapped call, outside every layer's self time)
# ---------------------------------------------------------------------------


def _add_routes(counts, ax, ay, m, boundary):
    ay = np.asarray(ay, dtype=float)
    total = ay.size
    if boundary and m == 0:
        counts["route.plain"] += total
        return
    outer = ay > 1.0
    tail = int(np.count_nonzero(outer & (ay >= 2.0 * ax)))
    direct = int(np.count_nonzero(outer)) - tail
    counts["route.tail"] += tail
    counts["route.direct"] += direct
    counts["route.plain"] += total - tail - direct


def _count_tail(counts, args, kwargs, result):
    counts["kernels.tail_sum.calls"] += 1
    counts["kernels.tail_sum.elements"] += np.size(result)


def _count_ladder(counts, args, kwargs, result):
    counts["gegenbauer.ladder.elements"] += np.size(args[2])


def _source_radii(ys):
    ys = np.asarray(ys, dtype=float)
    return np.sqrt(np.sum(ys * ys, axis=-1)).ravel()


def _count_green(counts, args, kwargs, result):
    cfg, x, ys = args[:3]
    counts["kernels.green.calls"] += 1
    counts["kernels.green.pairs"] += np.size(result)
    _add_routes(counts, float(np.linalg.norm(x)), _source_radii(ys), cfg.m, False)


def _count_poisson(counts, args, kwargs, result):
    cfg, x, yps = args[:3]
    counts["kernels.poisson.calls"] += 1
    counts["kernels.poisson.pairs"] += np.size(result)
    _add_routes(counts, float(np.linalg.norm(x)), _source_radii(yps), cfg.m, True)


def _count_polar(counts, args, kwargs, result):
    cfg, x, rho = args[:3]
    counts["kernels.poisson_polar.calls"] += 1
    counts["kernels.poisson_polar.nodes"] += np.size(result)
    rho = np.broadcast_to(np.asarray(rho, dtype=float), np.shape(result))
    _add_routes(counts, float(np.linalg.norm(x)), rho, cfg.m, True)


def _count_dirichlet(counts, args, kwargs, result):
    if args[0].source.kind == "family":
        counts["quadrature.points"] += 1


def _count_contains(counts, args, kwargs, result):
    counts["exceptional.contains.calls"] += 1


def _count_lp(counts, args, kwargs, result):
    counts["capacity.lp_solve.calls"] += 1
    counts["capacity.lp_cells"] += args[0].A.size


# (module, attribute, span name, counter); "Class.method" wraps a method.
TARGETS = (
    ("hpot.kernels", "gegenbauer_tail_sum", "kernels.tail_sum", _count_tail),
    ("hpot.gegenbauer", "recurrence_ladder", "gegenbauer.ladder", _count_ladder),
    ("hpot.kernels", "modified_green_values", "kernels.green", _count_green),
    ("hpot.kernels", "modified_poisson_values", "kernels.poisson", _count_poisson),
    ("hpot.kernels", "modified_fundamental_values", "kernels.fundamental", None),
    ("hpot.kernels", "modified_poisson_polar", "kernels.poisson_polar", _count_polar),
    ("hpot.quadrature", "panel_nodes", "quadrature.panel_nodes", None),
    ("hpot.quadrature", "halton_sequence", "quadrature.halton", None),
    ("hpot.potentials", "eval_dirichlet", "potentials.eval_dirichlet", _count_dirichlet),
    ("hpot.potentials", "eval_dirichlet_detailed", "potentials.eval_dirichlet", _count_dirichlet),
    ("hpot.potentials", "eval_green_potential", "potentials.eval_green", None),
    ("hpot.potentials", "eval_superposition", "potentials.eval_superposition", None),
    ("hpot.potentials", "batch_evaluate", "potentials.batch_evaluate", None),
    ("hpot.measures", "check_boundary_condition", "measures.gate", None),
    ("hpot.measures", "check_measure_condition", "measures.gate", None),
    ("hpot.measures", "AtomicMeasure.from_json_dict", "measures.parse", None),
    ("hpot.measures", "BoundaryData.from_json_dict", "measures.parse", None),
    ("hpot.exceptional", "exceptional_candidates", "exceptional.candidates", None),
    ("hpot.exceptional", "vitali_covering", "exceptional.covering", None),
    ("hpot.exceptional", "growth_scan", "exceptional.growth_scan", None),
    ("hpot.exceptional", "CoveringResult.contains", "exceptional.contains", _count_contains),
    ("hpot.capacity", "lp_solve", "capacity.lp_solve", _count_lp),
    ("hpot.capacity", "CapacityProblem.kernel_matrix", "capacity.kernel_matrix", None),
    ("hpot.capacity", "shell_samples", "capacity.shell_samples", None),
    ("hpot.cli", "_load_json_file", "cli.io", None),
    ("hpot.cli", "render_json", "cli.io", None),
    ("hpot.cli", "_emit", "cli.io", None),
    ("hpot.potentials", "read_points_csv", "cli.io", None),
    ("hpot.potentials", "values_csv", "cli.io", None),
    ("hpot.exceptional", "scan_csv", "cli.io", None),
)

# span names whose peak traced allocation is recorded when memory tracing is on
MEMORY_SPANS = ("exceptional.covering",)


class Tracer:
    """Collects spans as lists [name, start, end, end_of_bookkeeping, parent]."""

    def __init__(self, memory: bool = False):
        self.spans = []
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)
        self.memory = memory
        self._stack = []
        self._restore = []

    def reset(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)

    def wrap(self, name, fn, count=None):
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            # re-entry into the same layer (recursion, or a public function
            # calling its detailed twin) stays inside the outer span
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            watch = tracer.memory and name in MEMORY_SPANS
            if watch:
                tracemalloc.start()
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if watch:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peaks[name] = max(tracer.peaks[name], peak / 2**20)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            span[3] = perf_counter()
            return result

        return wrapper

    def install(self):
        for module_name, attr, name, count in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, count))
                else:
                    new = self.wrap(name, raw, count)
                setattr(cls, meth, new)
                self._restore.append((cls, meth, raw))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "hpot" or mod_name.startswith("hpot.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans) -> dict:
    """Total self time per span name: each span's duration minus the time
    its direct children covered, bookkeeping included."""
    covered = [0.0] * len(spans)
    for name, t0, t1, t2, parent in spans:
        if parent >= 0:
            covered[parent] += t2 - t0
    out = defaultdict(float)
    for (name, t0, t1, t2, parent), kids in zip(spans, covered):
        out[name] += (t1 - t0) - kids
    return out


def inclusive_times(spans) -> dict:
    """Total duration per span name (a name never nests inside itself)."""
    out = defaultdict(float)
    for name, t0, t1, t2, parent in spans:
        out[name] += t1 - t0
    return out
