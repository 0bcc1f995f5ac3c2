"""The CLI's memory policy: freed heap memory stays in the process.

``hpot.cli.main`` sets glibc's mmap and trim thresholds on its first call,
so an atom sum's kernel blocks reuse one another's freed temporaries
instead of faulting fresh pages in for every block.
"""
import ctypes
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hpot import cli


def _glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def _write_superposition_inputs(tmp_path, points, atoms, seed=5):
    """Boundary atoms, half-space atoms and points of the superposition
    benchmark's shape (n = 3; radii log-uniform, atoms 0.3-300, points
    0.2-60 at elevation at least 0.1)."""
    rng = np.random.default_rng(seed)

    def directions(count, dim):
        v = rng.normal(size=(count, dim))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    def radii(count, lo, hi):
        return lo * (hi / lo) ** rng.random(count)

    b = directions(atoms, 2) * radii(atoms, 0.3, 300.0)[:, None]
    h = directions(atoms, 3) * radii(atoms, 0.3, 300.0)[:, None]
    h[:, -1] = np.abs(h[:, -1])
    c = rng.uniform(0.1, 1.0, points)
    p = np.empty((points, 3))
    p[:, :2] = directions(points, 2) * np.sqrt(1.0 - c * c)[:, None]
    p[:, 2] = c
    p *= radii(points, 0.2, 60.0)[:, None]
    data, mu, pts = tmp_path / "data.json", tmp_path / "mu.json", tmp_path / "pts.csv"
    data.write_text(json.dumps({"dimension": 2, "kind": "atoms", "atoms": [
        {"point": q.tolist(), "mass": float(w)} for q, w in zip(b, rng.uniform(-1, 1, atoms))
    ]}))
    mu.write_text(json.dumps({"dimension": 3, "atoms": [
        {"point": q.tolist(), "mass": float(w)} for q, w in zip(h, rng.uniform(0.05, 1, atoms))
    ]}))
    pts.write_text("x_1,x_2,x_3\n" + "".join(",".join(map(repr, q.tolist())) + "\n" for q in p))
    return ["potential", "--kind", "superposition", "--data", str(data), "--measure",
            str(mu), "--points", str(pts), "--n", "3", "--m", "2"]


# Runs main once in a fresh interpreter on one core (so no slice is forked)
# and prints its exit code and the minor page faults taken inside it.
_COUNT_FAULTS = """
import json, os, resource, sys
from hpot.cli import main
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
code = main(sys.argv[1:])
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({"code": code, "faults": after - before}))
"""


@pytest.mark.skipif(not _glibc(), reason="the memory policy acts on glibc only")
def test_atom_sum_blocks_reuse_freed_heap(tmp_path):
    # 90 points against 5000 + 5000 atoms run 60 kernel blocks of 2^14
    # pairs.  With glibc's default trimming each block faulted its ~1.7 MB
    # of temporaries in again: about 23 000 faults in this call, against
    # about 1 450 with the policy.
    argv = _write_superposition_inputs(tmp_path, 90, 5000)
    argv += ["--out", str(tmp_path / "out.csv")]
    run = subprocess.run(
        [sys.executable, "-c", _COUNT_FAULTS, *argv], capture_output=True, text=True, cwd=tmp_path
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["code"] == 0
    assert result["faults"] <= 4000, result


def _refuse(*args, **kwargs):
    raise OSError("no C library here")


class _NoMallopt:
    def __init__(self, *args, **kwargs):
        pass


@pytest.mark.parametrize(
    "target, replacement",
    [
        (ctypes, ("CDLL", _refuse)),
        (ctypes, ("CDLL", _NoMallopt)),
        (os, ("confstr", lambda name: None)),
        (os, ("confstr", _refuse)),
    ],
    ids=["cdll_raises", "no_mallopt", "not_glibc", "confstr_raises"],
)
def test_failed_heap_policy_changes_no_output(tmp_path, capsys, monkeypatch, target, replacement):
    argv = _write_superposition_inputs(tmp_path, 12, 40)
    assert cli.main(argv) == 0
    expected = capsys.readouterr()
    assert expected.out and not expected.err

    attempts = []
    name, stand_in = replacement

    def tried(*args, **kwargs):
        attempts.append(args)
        return stand_in(*args, **kwargs)

    monkeypatch.setattr(target, name, tried)
    monkeypatch.setattr(cli, "_heap_kept", False)
    for _ in range(2):
        assert cli.main(argv) == 0
        got = capsys.readouterr()
        assert (got.out, got.err) == (expected.out, expected.err)
    assert len(attempts) == 1  # tried on the first call of the process only
