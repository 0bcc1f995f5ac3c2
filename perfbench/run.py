#!/usr/bin/env python3
"""Benchmark of the hpot CLI: seeded workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are generated from the seed and written as the JSON
and CSV files the CLI reads.  The fixed sequence of CLI calls then runs
in-process through ``hpot.cli.main(argv)``, once untimed as a warm-up whose
output is checked against references, and repeatedly for ``--seconds``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median time for a
fresh interpreter to import hpot and hpot.cli), ``wall_s`` (median time of
one sequence), ``peak_rss_mb`` (peak resident set of this process) and
``ok_frac`` (share of operations that passed every check; ``fail_frac`` is
its complement and is printed alongside).

``--trace 1`` alternates untraced and traced sequences and prints the
per-layer metrics of ``BENCHMARK.json`` plus the tracing overhead; spans go
to ``.perfbench_out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import checks, tracing, workloads  # noqa: E402

SETUP_SAMPLES = 9  # at least; one more is taken after every timed sequence
MIN_REPEATS = 3
CLI_COMMANDS = ("potential", "exceptional", "growth", "thinness", "capacity")


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def measure_setup(samples=SETUP_SAMPLES):
    """Wall times of fresh interpreters that import hpot and hpot.cli."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import hpot, hpot.cli"
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"importing hpot failed:\n{proc.stderr}")
    return times


def run_call(main, call):
    """(exit code, output text, seconds) of one CLI call."""
    if call.out is not None:
        call.out.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = main(call.argv)
        except Exception as exc:  # a traceback is a failed call, not a crash
            code = -1
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = perf_counter() - t0
    if code != 0:
        return code, err.getvalue(), seconds
    text = call.out.read_text() if call.out is not None else out.getvalue()
    return code, text, seconds


def run_sequence(plan, main):
    """Outputs {label: (code, text)}, seconds per CLI command, and the
    sequence's total time."""
    outputs, per_command = {}, dict.fromkeys(CLI_COMMANDS, 0.0)
    for call in plan.calls:
        code, text, seconds = run_call(main, call)
        outputs[call.label] = (code, text)
        per_command[call.command] += seconds
    return outputs, per_command, sum(per_command.values())


def _median(values):
    return statistics.median(values) if values else 0.0


def timed_loop(plan, main, seconds, tracer=None, setup=None):
    """Untraced sequences until ``seconds`` pass (at least MIN_REPEATS).

    With a tracer, each untraced sequence is followed by a traced one.  With
    a ``setup`` list, one fresh-import sample is appended after each
    sequence, so set-up samples spread over the same stretch of time as the
    sequences."""
    runs, walls, per_command = [], [], []
    traced = []  # (wall, spans, counts) per traced sequence
    deadline = perf_counter() + seconds
    while len(walls) < MIN_REPEATS or perf_counter() < deadline:
        outputs, cmd, wall = run_sequence(plan, main)
        runs.append(outputs)
        walls.append(wall)
        per_command.append(cmd)
        if setup is not None:
            setup += measure_setup(1)
        if tracer is not None:
            tracer.reset()
            with tracer:
                outputs, _, wall = run_sequence(plan, tracer.wrap("cli.main", main))
            runs.append(outputs)
            traced.append((wall, tracer.spans, dict(tracer.counts)))
    return runs, walls, per_command, traced


def layer_metrics(walls, per_command, traced, peaks, props):
    """Every per-layer metric from the traced sequences."""
    selfs = [tracing.self_times(spans) for _, spans, _ in traced]
    incls = [tracing.inclusive_times(spans) for _, spans, _ in traced]
    counts = traced[0][2]
    c = lambda key: float(counts.get(key, 0.0))
    self_s = lambda name: _median([s.get(name, 0.0) for s in selfs])
    incl_s = lambda name: _median([s.get(name, 0.0) for s in incls])

    m = {}
    for name in ("kernels.tail_sum", "gegenbauer.ladder", "kernels.green", "kernels.poisson",
                 "kernels.poisson_polar", "quadrature.panel_nodes", "quadrature.halton",
                 "potentials.eval_dirichlet", "potentials.eval_green", "potentials.batch_evaluate",
                 "measures.gate", "measures.parse", "exceptional.candidates",
                 "exceptional.covering", "exceptional.growth_scan", "exceptional.contains",
                 "capacity.lp_solve", "capacity.kernel_matrix", "capacity.shell_samples",
                 "cli.io", "cli.main"):
        m[f"{name}.self_s"] = self_s(name)
    for key in ("kernels.tail_sum.calls", "kernels.tail_sum.elements", "gegenbauer.ladder.elements",
                "kernels.green.calls", "kernels.green.pairs", "kernels.poisson.calls",
                "kernels.poisson.pairs", "kernels.poisson_polar.calls", "kernels.poisson_polar.nodes",
                "exceptional.contains.calls", "capacity.lp_solve.calls", "capacity.lp_cells"):
        m[key] = c(key)
    pairs = c("kernels.green.pairs") + c("kernels.poisson.pairs")
    kernel_s = incl_s("kernels.green") + incl_s("kernels.poisson")
    m["kernels.ns_per_pair"] = 1e9 * kernel_s / pairs if pairs else 0.0
    routes = {k: c(f"route.{k}") for k in ("plain", "direct", "tail")}
    total = sum(routes.values())
    for k, v in routes.items():
        m[f"kernels.route.{k}_share"] = v / total if total else 0.0
    points = c("quadrature.points")
    m["quadrature.passes_per_point"] = c("kernels.poisson_polar.calls") / points if points else 0.0
    m["quadrature.nodes_per_point"] = c("kernels.poisson_polar.nodes") / points if points else 0.0
    m["potentials.unconverged"] = float(props.get("unconverged", 0))
    lattice = float(props.get("lattice_points", 0))
    m["exceptional.lattice_points"] = lattice
    m["exceptional.members"] = float(props.get("members", 0))
    m["exceptional.member_share"] = m["exceptional.members"] / lattice if lattice else 0.0
    m["exceptional.covering.peak_mb"] = peaks.get("exceptional.covering", 0.0)
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = _median([p[cmd] for p in per_command])
    traced_wall = _median([w for w, _, _ in traced])
    m["trace.untraced_wall_s"] = _median(walls)
    m["trace.traced_wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - _median(walls)
    m["trace.self_sum_s"] = _median([sum(s.values()) for s in selfs])
    if any(t[2] != counts for t in traced[1:]):
        print("warning: layer counts differ between traced sequences", file=sys.stderr)
    return m


def write_spans(plan, traced, props):
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans_{plan.workload}_seed{plan.seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"workload": plan.workload, "seed": plan.seed, "input": props}) + "\n")
        for rep, (_, spans, _) in enumerate(traced):
            t_ref = spans[0][1] if spans else 0.0
            for name, t0, t1, _, parent in spans:
                fh.write(json.dumps({"repeat": rep, "name": name, "start": t0 - t_ref,
                                     "end": t1 - t_ref, "parent": parent}) + "\n")
    return path


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_cli():
    if not (SRC / "hpot" / "cli.py").is_file():
        raise RuntimeError(f"no hpot sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hpot
    import hpot.cli

    if SRC.resolve() not in Path(hpot.__file__).resolve().parents:
        raise RuntimeError(f"imported hpot from {hpot.__file__}, not from {SRC}")
    return hpot.cli.main


def main(argv=None):
    args = parse_args(argv)
    os.environ.pop("HPOT_THREADS", None)
    try:
        spec = load_spec()
        cli_main = import_cli()
    except (OSError, RuntimeError, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        plan = workloads.build(args.workload, args.seed, work)
        warm, _, _ = run_sequence(plan, cli_main)
        tracer = tracing.Tracer() if args.trace else None
        setup = None if args.trace else []
        runs, walls, per_command, traced = timed_loop(plan, cli_main, args.seconds, tracer, setup)
        if setup is not None and len(setup) < SETUP_SAMPLES:
            setup += measure_setup(SETUP_SAMPLES - len(setup))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        peaks = {}
        if args.trace and any(c.command == "exceptional" for c in plan.calls):
            with tracing.Tracer(memory=True) as mem:
                runs.append(run_sequence(plan, cli_main)[0])
            peaks = dict(mem.peaks)
        failed, notes, check_props = checks.score(plan, [warm] + runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = plan.attempted
    props = {**plan.props, **check_props}
    print(f"workload {plan.workload} seed {plan.seed} trace {args.trace}")
    for note in notes:
        print(f"  FAIL {note}")
    print(f"  input properties: {json.dumps(props, default=str)}")
    print(f"  fail_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(f"  wall_s median {_median(walls):.4f} s of {len(walls)} sequences "
          f"(min {min(walls):.4f}, max {max(walls):.4f})")
    if args.trace:
        values = layer_metrics(walls, per_command, traced, peaks, props)
        declared = spec["per_layer"]
        span_path = write_spans(plan, traced, props)
        print(f"  spans written to {span_path.relative_to(ROOT)}")
    else:
        values = {
            "setup_s": _median(setup),
            "wall_s": _median(walls),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - failed / attempted,
        }
        declared = spec["end_to_end"]
        print(f"  setup_s median {values['setup_s']:.4f} s of {len(setup)} fresh imports")
    metrics = {}
    for entry in declared:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print(f"  {entry['name']:34s} {values[entry['name']]:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
