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


def _family_argv(tmp_path, rng, extra=3):
    rows = 2 * potentials._FORK_MIN_WORK // potentials._QUAD_POINT_WORK + extra
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


@pytest.mark.parametrize("build", [_superposition_argv, _family_argv, _growth_argv],
                         ids=["superposition", "family", "growth"])
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
    # family points: one point short of two slices
    assert main(_family_argv(tmp_path, rng, extra=-1)) == 0
    assert capsys.readouterr().err == ""


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


def test_forked_family_rows_carry_the_estimates(cores, monkeypatch):
    # each row comes back from a child with its value, error estimate and
    # convergence flag: the unconverged last row lies in the child's slice
    from hpot.kernels import KernelConfig
    from hpot.measures import BoundaryData

    monkeypatch.setattr(potentials, "_FORK_MIN_WORK", potentials._QUAD_POINT_WORK)
    parent, real_quadrature = os.getpid(), potentials._radial_family_quadrature
    rows_here = []  # rows evaluated in this process

    def counting_quadrature(cfg, rows, data):
        if os.getpid() == parent:
            rows_here.append(len(rows))
        return real_quadrature(cfg, rows, data)

    monkeypatch.setattr(potentials, "_radial_family_quadrature", counting_quadrature)
    vf = potentials.dirichlet_field(KernelConfig(3, 1), BoundaryData.power_growth(2, 0.5))
    pts = np.array([[0.3, 0.2, 1.0], [2.0, -1.0, 0.5], [1.0, 0.0, 3e-5],
                    [0.0, 0.0, 3.0], [5.0, 1.0, 4.0], [1.0, 0.0, 1.5e-11]])
    results = []
    for k in (1, 2):
        cores.set(k)
        forks_before = cores.forks
        rows_here.clear()
        values = potentials.eval_dirichlet(vf, pts)
        with pytest.raises(potentials.DomainError) as refused:
            potentials.eval_dirichlet(vf, pts, require_converged=True)
        assert (cores.forks > forks_before) == (k == 2)
        # with a child, its slice is not computed again here
        assert rows_here == [6 // k, 6 // k]
        results.append((values.tobytes(), str(refused.value)))
    assert results[0] == results[1]
    assert results[0][1].startswith("quadrature did not converge at row 5 ")
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


def test_a_wrapped_poisson_kernel_still_counts_half(cores, monkeypatch):
    # the pair weight is read from the sources, so a wrapper around the
    # kernel (as a span tracer installs one) does not change the fork:
    # 40 x 5000 = 200k Poisson pairs stay in one process on two cores
    import functools

    from hpot.kernels import KernelConfig
    from hpot.measures import BoundaryData

    real_kernel = potentials.modified_poisson_values
    calls = []

    @functools.wraps(real_kernel)
    def wrapped(*args, **kwargs):
        calls.append(1)
        return real_kernel(*args, **kwargs)

    rng = np.random.default_rng(45)
    cfg, atoms = KernelConfig(3, 2), 5000
    pts = _half_space_points(rng, 40, 3)
    assert 2 * potentials._FORK_MIN_WORK <= len(pts) * atoms
    boundary = rng.normal(size=(atoms, 2)) * rng.uniform(0.3, 300.0, (atoms, 1))
    vf = potentials.dirichlet_field(cfg, BoundaryData.atoms(2, boundary, rng.uniform(-1, 1, atoms)))
    cores.set(1)
    want = potentials.eval_dirichlet(vf, pts)
    monkeypatch.setattr(potentials, "modified_poisson_values", wrapped)
    cores.set(2)
    got = potentials.eval_dirichlet(vf, pts)
    assert calls and cores.forks == 0
    assert got.tobytes() == want.tobytes()
    assert _no_children_left()
