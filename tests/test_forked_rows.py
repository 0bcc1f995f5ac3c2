"""Blocks spread over forked processes give the bytes of one process.

Each test fixes the cores the evaluation sees through os.sched_getaffinity:
one core gives the one-process path, two cores fork one child for a block
of at least 2 * _FORK_MIN_WORK pairs, whatever the machine has.
"""
import json
import os

import numpy as np
import pytest

from hpot import potentials
from hpot.cli import main

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="forked evaluation needs os.fork and os.sched_getaffinity",
)


@pytest.fixture
def cores(monkeypatch):
    """set(k) makes evaluation see k usable cores; .forks counts os.fork
    calls made in this process."""

    class Cores:
        forks = 0

        def set(self, k):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))

    state = Cores()
    real_fork, real_cores = os.fork, os.sched_getaffinity(0)

    def counting_fork():
        state.forks += 1
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    yield state
    # the evaluation restores the affinity it read, which here was set(range(k))
    monkeypatch.undo()
    os.sched_setaffinity(0, real_cores)


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _write_points(path, pts):
    lines = [",".join(f"x_{i}" for i in range(1, pts.shape[1] + 1))]
    lines += [",".join(repr(float(c)) for c in p) for p in pts]
    path.write_text("\n".join(lines) + "\n")


def _atoms(rng, count, width, boundary):
    pts = rng.normal(size=(count, width)) * rng.uniform(0.2, 40.0, (count, 1))
    if not boundary:
        pts[:, -1] = np.abs(pts[:, -1])
    mass = rng.uniform(-1.0, 1.0, count) if boundary else rng.uniform(0.1, 1.0, count)
    return [{"point": p.tolist(), "mass": float(w)} for p, w in zip(pts, mass)]


def _half_space_points(rng, count, n):
    pts = rng.normal(size=(count, n)) * rng.uniform(0.2, 30.0, (count, 1))
    pts[:, -1] = np.abs(pts[:, -1]) + 0.05
    return pts


def _superposition_argv(tmp_path, rng):
    atoms = 500
    rows = 2 * potentials._FORK_MIN_WORK // atoms + 13  # not a multiple of the block
    data, mu, pts = tmp_path / "data.json", tmp_path / "mu.json", tmp_path / "p.csv"
    data.write_text(json.dumps({"dimension": 2, "kind": "atoms",
                                "atoms": _atoms(rng, atoms, 2, True)}))
    mu.write_text(json.dumps({"dimension": 3, "atoms": _atoms(rng, atoms, 3, False)}))
    _write_points(pts, _half_space_points(rng, rows, 3))
    return ["potential", "--kind", "superposition", "--data", str(data), "--measure", str(mu),
            "--points", str(pts), "--n", "3", "--m", "2"]


def _family_argv(tmp_path, rng):
    rows = 515  # family blocks once forked from 512 points
    data, pts = tmp_path / "data.json", tmp_path / "p.csv"
    data.write_text(json.dumps({"dimension": 2, "kind": "family",
                                "family": {"id": "indicator_ball", "params": {"R": 2.0}}}))
    _write_points(pts, _half_space_points(rng, rows, 3))
    return ["potential", "--kind", "dirichlet", "--data", str(data), "--points", str(pts),
            "--n", "3", "--m", "2"]


def _growth_argv(tmp_path, rng):
    atoms, rays = 300, 24
    radii = 2 * potentials._FORK_MIN_WORK // (atoms * rays) + 2
    data, mu = tmp_path / "data.json", tmp_path / "mu.json"
    data.write_text(json.dumps({"dimension": 2, "kind": "atoms",
                                "atoms": _atoms(rng, 16, 2, True)}))
    mu.write_text(json.dumps({"dimension": 3, "atoms": _atoms(rng, atoms, 3, False)}))
    return ["growth", "--data", str(data), "--measure", str(mu), "--n", "3", "--m", "1",
            "--alpha", "1.0", "--rays", str(rays), "--radii", f"2:500:{radii}", "--seed", "7"]


@pytest.mark.parametrize("build", [_superposition_argv, _growth_argv],
                         ids=["superposition", "growth"])
def test_two_processes_print_the_bytes_of_one(tmp_path, capsys, cores, build):
    argv = build(tmp_path, np.random.default_rng(41))
    outputs = []
    for k in (1, 2):
        cores.set(k)
        forks_before = cores.forks
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == "" and out
        outputs.append(out)
        assert (cores.forks > forks_before) == (k == 2)
    assert outputs[0] == outputs[1]
    assert _no_children_left()


def test_block_below_the_threshold_never_forks(tmp_path, capsys, cores, monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called below the threshold")

    monkeypatch.setattr(os, "fork", no_fork)
    cores.set(2)
    rng = np.random.default_rng(42)
    # green: rows * atoms = 2 * _FORK_MIN_WORK - 300 pairs, one slice's worth
    atoms = 300
    mu, pts = tmp_path / "mu.json", tmp_path / "p.csv"
    mu.write_text(json.dumps({"dimension": 3, "atoms": _atoms(rng, atoms, 3, False)}))
    _write_points(pts, _half_space_points(rng, 2 * potentials._FORK_MIN_WORK // atoms - 1, 3))
    assert main(["potential", "--kind", "green", "--measure", str(mu), "--points", str(pts),
                 "--n", "3", "--m", "1"]) == 0
    assert capsys.readouterr().err == ""
    # family points run in one process however many there are
    argv = _family_argv(tmp_path, rng)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out
    cores.set(1)
    assert main(argv) == 0
    assert capsys.readouterr().out == out


def _error_argv(tmp_path, rng, first, last):
    """Green potential on a block that forks, with the row ``first`` at the
    start (the parent's slice) and ``last`` at the end (the child's)."""
    atoms = _atoms(rng, 300, 3, False)
    atoms[0]["point"] = [0.5, 0.5, 1.0]  # a point on it is singular
    atoms[1]["point"] = [1.2e100, 0.0, 1e90]  # a direct head power overflows
    special = {"singular": [0.5, 0.5, 1.0], "overflow": [1e100, 0.0, 1e100]}
    pts = _half_space_points(rng, 2 * potentials._FORK_MIN_WORK // len(atoms) + 40, 3)
    for row, kind in ((0, first), (-1, last)):
        if kind:
            pts[row] = special[kind]
    mu, path = tmp_path / "mu.json", tmp_path / "p.csv"
    mu.write_text(json.dumps({"dimension": 3, "atoms": atoms}))
    _write_points(path, pts)
    return ["potential", "--kind", "green", "--measure", str(mu), "--points", str(path),
            "--n", "3", "--m", "3"]


@pytest.mark.parametrize("first, last, code", [
    (None, "overflow", "domain"),
    (None, "singular", "singularity"),
    ("singular", "overflow", "singularity"),
    ("overflow", "singular", "domain"),
])
def test_an_error_in_either_slice_is_the_one_process_error(tmp_path, capsys, cores,
                                                           first, last, code):
    argv = _error_argv(tmp_path, np.random.default_rng(43), first, last)
    results = []
    for k in (1, 2):
        cores.set(k)
        exit_code = main(argv)
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        results.append((exit_code, err))
    assert cores.forks == 1
    assert results[0] == results[1]
    assert results[0][0] == 2 and json.loads(results[0][1])["code"] == code
    assert _no_children_left()


def test_slices_are_cut_at_whole_blocks_and_lost_children_recomputed(cores):
    cores.set(2)
    parent = os.getpid()
    pts = np.zeros((23, 3))

    def slice_lengths(rows):
        return np.full(len(rows), float(len(rows)))

    got = potentials._forked_rows(slice_lengths, pts, 5, 2 * potentials._FORK_MIN_WORK)
    assert got.tolist() == [15.0] * 15 + [8.0] * 8  # 3 blocks of 5 rows, then the rest

    def cores_seen(rows):
        return np.full(len(rows), float(len(potentials._usable_cores())))

    # a child sees no cores to fork onto
    got = potentials._forked_rows(cores_seen, pts, 5, 2 * potentials._FORK_MIN_WORK)
    assert got.tolist() == [2.0] * 15 + [0.0] * 8

    def dies_in_child(rows):
        if os.getpid() != parent:
            os._exit(1)
        return rows[:, 0] + 1.0

    got = potentials._forked_rows(dies_in_child, pts, 5, 2 * potentials._FORK_MIN_WORK)
    assert got.tolist() == [1.0] * 23
    assert cores.forks == 3
    assert _no_children_left()


def test_a_slice_whose_child_raises_is_computed_here(cores):
    cores.set(2)
    parent = os.getpid()
    pts = np.arange(69.0).reshape(23, 3)

    def raises_in_child(rows):
        if os.getpid() != parent:
            raise ValueError("raised in the child only")
        return rows[:, 0] * 0.5 + rows[:, 2]

    got = potentials._forked_rows(raises_in_child, pts, 5, 2 * potentials._FORK_MIN_WORK)
    assert cores.forks == 1
    assert np.array_equal(got, raises_in_child(pts))
    assert _no_children_left()


def test_a_poisson_pair_counts_half_a_green_pair(cores):
    # 40 x 5000 = 200k pairs: past two processes' worth of Green pairs, but
    # short of it for Poisson pairs, which count half
    from hpot.kernels import KernelConfig
    from hpot.measures import AtomicMeasure, BoundaryData

    rng = np.random.default_rng(44)
    cfg, atoms = KernelConfig(3, 2), 5000
    pts = _half_space_points(rng, 40, 3)
    assert 2 * potentials._FORK_MIN_WORK <= len(pts) * atoms
    assert len(pts) * atoms // 2 < 2 * potentials._FORK_MIN_WORK
    boundary = rng.normal(size=(atoms, 2)) * rng.uniform(0.3, 300.0, (atoms, 1))
    inner = rng.normal(size=(atoms, 3)) * rng.uniform(0.3, 300.0, (atoms, 1))
    inner[:, -1] = np.abs(inner[:, -1])
    vf = potentials.dirichlet_field(cfg, BoundaryData.atoms(2, boundary, rng.uniform(-1, 1, atoms)))
    hf = potentials.green_field(cfg, AtomicMeasure(3, inner, rng.uniform(0.1, 1.0, atoms)))
    for evaluate, field, forks in ((potentials.eval_dirichlet, vf, 0),
                                   (potentials.eval_green_potential, hf, 1)):
        results = []
        for k in (1, 2):
            cores.set(k)
            forks_before = cores.forks
            results.append(evaluate(field, pts))
            assert cores.forks - forks_before == (forks if k == 2 else 0), evaluate.__name__
        assert results[0].tobytes() == results[1].tobytes()
    assert _no_children_left()


def test_poisson_pairs_count_half_for_the_fork(cores):
    # a Poisson pair counts as half a Green pair: 40 x 5000 = 200k Poisson
    # pairs stay in one process on two cores
    from hpot.kernels import KernelConfig
    from hpot.measures import BoundaryData

    rng = np.random.default_rng(45)
    cfg, atoms = KernelConfig(3, 2), 5000
    pts = _half_space_points(rng, 40, 3)
    assert 2 * potentials._FORK_MIN_WORK <= len(pts) * atoms
    boundary = rng.normal(size=(atoms, 2)) * rng.uniform(0.3, 300.0, (atoms, 1))
    vf = potentials.dirichlet_field(cfg, BoundaryData.atoms(2, boundary, rng.uniform(-1, 1, atoms)))
    cores.set(1)
    want = potentials.eval_dirichlet(vf, pts)
    cores.set(2)
    got = potentials.eval_dirichlet(vf, pts)
    assert cores.forks == 0
    assert got.tobytes() == want.tobytes()
    assert _no_children_left()


@pytest.mark.parametrize("kind", ["green", "poisson"])
def test_a_points_atom_sum_does_not_depend_on_its_batch(cores, kind):
    # each point alone gives the bytes of its row in batches of 1 to 9
    # points, and in a forked run whose rows end in a part block; Poisson
    # sums also against 9000 sources, past the 8192 columns from which an
    # einsum contraction of a row depends on the block's other rows
    from hpot.kernels import KernelConfig

    rng = np.random.default_rng(46)
    cfg = KernelConfig(3, 2)
    width, pair = (3, 1.0) if kind == "green" else (2, 0.5)
    cores.set(1)
    for count in (24, 5000) + ((9000,) if kind == "poisson" else ()):
        src = rng.normal(size=(count, width)) * rng.uniform(0.3, 300.0, (count, 1))
        src[:, -1] = np.abs(src[:, -1]) if kind == "green" else src[:, -1]
        w = rng.uniform(-1.0, 1.0, count)
        step = max(1, int(potentials._BLOCK_ELEMENTS // (pair * count)))
        rows = 12
        if count > 24:
            rows = -(-2 * potentials._FORK_MIN_WORK // int(pair * count))
            rows += rows % step == 0
        pts = _half_space_points(rng, rows, 3)
        alone = np.array([potentials._atom_sum(cfg, p, kind, src, w) for p in pts])
        for size in range(1, 10):
            got = np.concatenate([potentials._atom_sum(cfg, pts[lo : lo + size], kind, src, w)
                                  for lo in range(0, 12, size)])
            assert got.tobytes() == alone[: len(got)].tobytes(), (count, size)
        if count > 24:
            cores.set(2)
            forks_before = cores.forks
            got = potentials._atom_sum(cfg, pts, kind, src, w)
            assert cores.forks > forks_before and rows % step
            assert got.tobytes() == alone.tobytes(), count
            cores.set(1)
    assert _no_children_left()
