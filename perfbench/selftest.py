#!/usr/bin/env python3
"""Self-tests of the benchmark's checks and tracing.

Run from the root of a checkout:  python3 perfbench/selftest.py

Shows that a corrupted output value, a nonzero exit and an output that
changes between repeats each raise the failure count above zero, that the
clean output passes, and that per-layer self times of a traced sequence sum
to no more than its wall time.  Exits nonzero when any test fails.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checks, tracing, workloads  # noqa: E402
from perfbench.run import ROOT, import_cli, run_sequence  # noqa: E402

SEED = 7


def _scale_csv_value(text, row, factor):
    """Multiply the value column of data row ``row`` by ``factor``."""
    lines = text.splitlines(keepends=True)
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[-1] = repr(float(cells[-1]) * factor)
    lines[row + 1] = ",".join(cells) + "\n"
    return "".join(lines)


def main():
    cli_main = import_cli()
    results = []

    def expect(name, ok, detail=""):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())

    work = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT))
    try:
        plan = workloads.build("dirichlet_radial", SEED, work)
        clean, _, _ = run_sequence(plan, cli_main)
        failed, notes, _ = checks.score(plan, [clean, clean])
        expect("clean dirichlet output passes", failed == 0, "; ".join(notes))

        label = plan.calls[-1].label
        code, text = clean[label]
        bad = dict(clean, **{label: (code, _scale_csv_value(text, 3, 1 + 1e-6))})
        failed, _, _ = checks.score(plan, [bad])
        expect("corrupted dirichlet value fails", failed >= 1, f"failed={failed}")

        first = plan.calls[0]
        failed, _, _ = checks.score(plan, [dict(clean, **{first.label: (2, "")})])
        expect("nonzero exit fails exactly that call's operations", failed == first.ops,
               f"failed={failed} of {first.ops}")

        drift = dict(clean, **{label: (code, text.replace("\n", "\r\n", 1))})
        failed, _, _ = checks.score(plan, [clean, drift])
        expect("output changing between repeats fails", failed == plan.calls[-1].ops, f"failed={failed}")

        tracer = tracing.Tracer()
        with tracer:
            _, _, wall = run_sequence(plan, tracer.wrap("cli.main", cli_main))
        selfs = tracing.self_times(tracer.spans)
        total = sum(selfs.values())
        expect("self times sum to at most the traced wall time", 0 < total <= wall,
               f"sum={total:.4f}s wall={wall:.4f}s")
        expect("no layer has negative self time", min(selfs.values()) >= 0.0)
        expect("tracing is removed after the run",
               sys.modules["hpot.kernels"].gegenbauer_tail_sum.__module__ == "hpot.kernels"
               and not hasattr(sys.modules["hpot.kernels"].gegenbauer_tail_sum, "__wrapped__"))

        plan = workloads.build("exceptional_pipeline", SEED, work)
        clean, _, _ = run_sequence(plan, cli_main)
        failed, notes, _ = checks.score(plan, [clean])
        expect("clean exceptional output passes", failed == 0, "; ".join(notes))

        code, text = clean["capacity"]
        out = json.loads(text)
        out["value"] *= 1 + 1e-4
        failed, _, _ = checks.score(plan, [dict(clean, capacity=(code, json.dumps(out)))])
        expect("corrupted LP optimum fails", failed >= 1, f"failed={failed}")

        code, text = clean["covering"]
        cover = json.loads(text)
        cover["weighted_sum"] = cover["bound"] * 2.0
        failed, _, _ = checks.score(plan, [dict(clean, covering=(code, json.dumps(cover)))])
        expect("covering over its bound fails", failed >= 1, f"failed={failed}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{sum(results)} of {len(results)} self-tests passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
