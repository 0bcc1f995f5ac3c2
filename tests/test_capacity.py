import importlib
import json
import sys
import tracemalloc

import numpy as np
import pytest

from hpot.capacity import (
    BOUNDARY,
    HALFSPACE,
    CapacityProblem,
    LPInstance,
    capacity,
    enumerate_vertices_value,
    lp_solve,
    membership_from_spec,
    shell_samples,
    thinness_series,
    window_nodes,
)
from hpot.errors import DomainError, InfeasibleError, SchemaError
from hpot.kernels import KernelConfig

CFG3 = KernelConfig(3)
# the module itself: the package exports a function of the same name
capacity_module = importlib.import_module("hpot.capacity")


def test_single_constraint_closed_form():
    lp = LPInstance(c=np.array([2.0, 3.0, 1.0]), A=np.array([[1.0, 6.0, 0.5]]))
    sol = lp_solve(lp)
    assert sol.value == pytest.approx(0.5, rel=1e-12)
    assert np.all(lp.A @ sol.g >= 1 - 1e-9)


def test_identity_instance():
    sol = lp_solve(LPInstance(c=np.ones(5), A=np.eye(5)))
    assert sol.value == pytest.approx(5.0, rel=1e-12)
    assert np.allclose(sol.g, 1.0)


def test_matches_vertex_enumeration():
    rng = np.random.default_rng(40)
    checked = 0
    while checked < 120:
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, 7))
        A = rng.uniform(0, 2, (m, k))
        A[A < 0.3] = 0.0
        if np.any(A.max(axis=1) <= 0):
            continue
        c = rng.uniform(0, 3, k)
        lp = LPInstance(c=c, A=A)
        sol = lp_solve(lp)
        oracle = enumerate_vertices_value(lp)
        assert sol.value == pytest.approx(oracle, rel=1e-8, abs=1e-10)
        checked += 1


def test_dual_certificate_closes_the_gap():
    rng = np.random.default_rng(41)
    for _ in range(50):
        m, k = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        A = rng.uniform(0.1, 2, (m, k))
        c = rng.uniform(0.1, 3, k)
        sol = lp_solve(LPInstance(c=c, A=A))
        y = sol.dual
        assert np.all(y >= -1e-12)
        assert np.all(A.T @ y <= c + 1e-9 * (1 + np.abs(c)))
        assert float(y.sum()) == pytest.approx(sol.value, rel=1e-9)


def _klee_minty_lp(d):
    """A d x d LP whose dual max 1.y s.t. A^T y <= c is the cube
    y_i + 2 sum_{j<i} 2^(i-j) y_j <= 5^i, scaled by 1e-30: Dantzig's rule
    walks many of its vertices, each pivot gains less than the stall
    threshold, and the simplex switches to Bland's rule."""
    i, j = np.indices((d, d))
    M = np.where(j < i, 2.0 * 2.0 ** (i - j), 0.0) + np.eye(d)
    return LPInstance(c=5.0 ** np.arange(d) * 1e-30, A=M.T.copy())


def test_klee_minty_lp_reaches_blands_rule(monkeypatch):
    # Bland's rule is the only caller of min() in lp_solve
    bland_pivots = []

    def recording_min(*args, **kwargs):
        bland_pivots.append(args)
        return min(*args, **kwargs)

    monkeypatch.setattr(capacity_module, "min", recording_min, raising=False)
    lp = _klee_minty_lp(5)
    sol = lp_solve(lp)
    assert bland_pivots
    assert sol.value == pytest.approx(enumerate_vertices_value(lp), rel=1e-9)


def _eliminate(T, r, j, scratch):
    """Clear column j outside the pivot row r, whose pivot is already 1:
    T[i] -= T[i, j] * T[r] for every i != r, as one multiply into
    ``scratch`` and one subtraction per block of its rows."""
    f = T[:, j].copy()
    f[r] = 0.0
    rows = len(scratch)
    for i in range(0, len(T), rows):
        blk = slice(i, i + rows)
        s = scratch[: len(f[blk])]
        np.multiply(f[blk, None], T[r], out=s)
        T[blk] -= s


def _full_tableau_lp_solve(lp):
    """The simplex on the full dual tableau [A^T | I_k | c], clearing every
    column on each pivot: the reference for lp_solve, which stores only
    its pivots."""
    A, c = lp.A, lp.c
    m, k = A.shape
    T = np.zeros((k, m + k + 1))
    T[:, :m] = A.T
    T[:, m : m + k] = np.eye(k)
    T[:, -1] = c
    red = np.zeros(m + k)
    red[:m] = 1.0
    value = 0.0
    basis = list(range(m, m + k))
    scratch = np.empty((max(1, 2**16 // T.shape[1]), T.shape[1]))
    stall = 0
    while True:
        use_bland = stall > 2 * (m + k)
        enterable = np.where(red > capacity_module._LP_TOL * 1e-3)[0]
        if enterable.size == 0:
            break
        if use_bland:
            j = int(enterable[0])
        else:
            j = int(enterable[np.argmax(red[enterable])])
        col = T[:, j]
        pos = col > 1e-11
        ratios = np.full(k, np.inf)
        ratios[pos] = T[pos, -1] / col[pos]
        rmin = ratios.min()
        ties = np.where(ratios <= rmin * (1 + 1e-12) + 1e-300)[0]
        r = int(min(ties, key=lambda i: basis[i])) if use_bland else int(ties[0])
        T[r] /= T[r, j]
        _eliminate(T, r, j, scratch)
        gain = red[j] * T[r, -1]
        value += gain
        red = red - red[j] * T[r, :-1]
        basis[r] = j
        stall = 0 if gain > 1e-13 * (1.0 + abs(value)) else stall + 1
    y = np.zeros(m)
    for i, b in enumerate(basis):
        if b < m:
            y[b] = T[i, -1]
    return capacity_module.LPSolution(np.maximum(-red[m:], 0.0), float(value), y)


def _assert_same_solution(got, want):
    assert got.value == want.value
    assert got.g.tobytes() == want.g.tobytes()
    assert got.dual.tobytes() == want.dual.tobytes()


@pytest.fixture
def stored_pivots():
    """The pivot list of each lp_solve call, read as the call returns."""
    lists = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is capacity_module.lp_solve.__code__:
            lists.append(frame.f_locals["pivots"])

    sys.setprofile(profile)
    yield lists
    sys.setprofile(None)


@pytest.fixture
def traced_memory():
    tracemalloc.start()
    yield tracemalloc
    tracemalloc.stop()


def test_compact_tableau_matches_full_tableau():
    rng = np.random.default_rng(45)
    lps = [_klee_minty_lp(5), _klee_minty_lp(7)]
    for _ in range(40):
        m, k = int(rng.integers(1, 60)), int(rng.integers(1, 120))
        A = rng.uniform(0, 2, (m, k))
        A[A < rng.uniform(0.2, 1.5)] = 0.0  # zeros in the pivot columns
        A[np.arange(m), rng.integers(0, k, m)] = 1.0
        lps.append(LPInstance(c=rng.uniform(0, 3, k), A=A))
    rng = np.random.default_rng(42)
    for m, k in [(3, 4), (12, 9), (30, 70), (64, 256)]:
        A = rng.uniform(0, 2, (m, k))
        A[A < 0.6] = 0.0  # zeros in the pivot columns
        A[np.arange(m), rng.integers(0, k, m)] = 1.0
        lps.append(LPInstance(c=rng.uniform(0, 3, k), A=A))
    cone = membership_from_spec({"shape": "cone", "aperture": 0.5})
    for kind in (BOUNDARY, HALFSPACE):
        for i in (1, 4, 8):
            pts = shell_samples(cone, i, CFG3, 64)
            nodes, w = window_nodes(kind, i, CFG3, 256)
            lps.append(CapacityProblem(kind, pts, nodes, w, CFG3).lp_instance())
    for lp in lps:
        _assert_same_solution(lp_solve(lp), _full_tableau_lp_solve(lp))


def test_compact_tableau_on_the_benchmark_sized_capacity_lp(traced_memory):
    rng = np.random.default_rng(46)
    pts = np.column_stack([rng.uniform(-4, 4, (400, 2)), rng.uniform(0.5, 4, 400)])
    nodes, w = window_nodes(BOUNDARY, 1, CFG3, 1024)
    lp = CapacityProblem(BOUNDARY, pts, nodes, w, CFG3).lp_instance()
    want = _full_tableau_lp_solve(lp)
    traced_memory.reset_peak()
    held = traced_memory.get_traced_memory()[0]
    _assert_same_solution(lp_solve(lp), want)
    # the pivots, not a tableau: a 1024 x 410 tableau alone is 3.4 MB
    assert traced_memory.get_traced_memory()[1] - held <= 1e6


def test_compact_tableau_grows_past_its_initial_room(stored_pivots):
    # a near-diagonal LP pivots on every row, so more pivots are stored
    # than 2 x 32, the slack room a stored tableau started with
    rng = np.random.default_rng(47)
    k = 96
    A = np.eye(k) + rng.uniform(0, 0.05, (k, k)) * (rng.random((k, k)) < 0.3)
    lp = LPInstance(c=rng.uniform(0.5, 2, k), A=A)
    want = _full_tableau_lp_solve(lp)
    _assert_same_solution(lp_solve(lp), want)
    assert len(stored_pivots[-1]) > 2 * 32


def test_negative_zeros_in_pivot_rows_match_full_tableau():
    # -0.0 passes the LP's sign check.  A pivot row's -0.0 becomes +0.0 only
    # through the 0 x R that its own update subtracts (-0.0 - -0.0 = +0.0),
    # which shows in the dual.  Each LP fits one block of the reference's
    # row update, so every row there subtracts the same multiples of R.
    rng = np.random.default_rng(49)
    for m, k in [(6, 8), (12, 20), (20, 40)] * 3:
        A = rng.uniform(0, 2, (m, k))
        A[A < 0.8] = -0.0
        A[np.arange(m), rng.integers(0, k, m)] = 1.0
        c = rng.uniform(0, 3, k)
        c[rng.random(k) < 0.2] = -0.0
        lp = LPInstance(c=c, A=A)
        assert np.signbit(lp.A).any() and np.signbit(lp.c).any()
        _assert_same_solution(lp_solve(lp), _full_tableau_lp_solve(lp))


def test_lp_of_many_pivots_matches_full_tableau(stored_pivots):
    # each step replays every pivot before it
    lp = _klee_minty_lp(10)
    _assert_same_solution(lp_solve(lp), _full_tableau_lp_solve(lp))
    assert len(stored_pivots[-1]) > 200


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", [BOUNDARY, HALFSPACE])
def test_kernel_matrix_matches_broadcast_formula(kind, n):
    rng = np.random.default_rng(48 + n)
    cfg = KernelConfig(n)
    pts = np.column_stack([rng.uniform(-5, 5, (30, n - 1)), rng.uniform(0.1, 5, 30)])
    if kind == BOUNDARY:
        nodes = rng.uniform(-9, 9, (70, n - 1))
        diff = pts[:, None, :-1] - nodes[None, :, :]
        d2 = np.sum(diff * diff, axis=-1) + pts[:, None, -1] ** 2
        want = d2 ** (-0.5 * n)
    else:
        nodes = np.column_stack([rng.uniform(-9, 9, (70, n - 1)), rng.uniform(0.1, 9, 70)])
        diff = pts[:, None, :] - nodes[None, :, :]
        want = np.sum(diff * diff, axis=-1) ** (-0.5 * (n - 1))
    got = CapacityProblem(kind, pts, nodes, np.ones(70), cfg).kernel_matrix()
    assert got.tobytes() == want.tobytes()


def test_shell_without_samples_gives_no_points():
    # at n = 6 no Halton point of the first shells lands in the cone
    pts = shell_samples(
        membership_from_spec({"shape": "cone", "aperture": 0.5}), 1, KernelConfig(6), 1
    )
    assert pts.shape == (0, 6)


@pytest.mark.parametrize("i", [509, 1021])
@pytest.mark.parametrize("kind", [BOUNDARY, HALFSPACE])
def test_window_past_float_range_is_domain_error(kind, i):
    with pytest.raises(DomainError, match="floating-point range"):
        window_nodes(kind, i, CFG3, 8)


def test_infeasible_zero_row():
    with pytest.raises(InfeasibleError):
        lp_solve(LPInstance(c=np.ones(2), A=np.array([[1.0, 1.0], [0.0, 0.0]])))


def test_capacity_single_point_golden():
    prob = CapacityProblem(
        BOUNDARY, [[0, 0, 1.0]], [[0.0, 0.0], [2.0, 0.0], [0.5, 0.5]], [1.0, 1.0, 1.0], CFG3
    )
    # single constraint: the best node is the closest, value = |x0 - node|^n
    assert capacity(prob) == pytest.approx(1.0, rel=1e-12)


def test_capacity_weight_invariance():
    rng = np.random.default_rng(42)
    pts = np.column_stack([rng.uniform(-2, 2, (3, 2)), rng.uniform(0.5, 2, 3)])
    nodes = rng.uniform(-3, 3, (12, 2))
    w = rng.uniform(0.5, 2.0, 12)
    a = capacity(CapacityProblem(BOUNDARY, pts, nodes, w, CFG3))
    b = capacity(CapacityProblem(BOUNDARY, pts, nodes, 2.0 * w, CFG3))
    assert a == pytest.approx(b, rel=1e-10)


def test_capacity_monotone_in_constraint_points():
    rng = np.random.default_rng(43)
    nodes = rng.uniform(-4, 4, (20, 2))
    w = np.full(20, 0.5)
    pts = np.column_stack([rng.uniform(-2, 2, (4, 2)), rng.uniform(0.5, 2, 4)])
    small = capacity(CapacityProblem(BOUNDARY, pts[:2], nodes, w, CFG3))
    big = capacity(CapacityProblem(BOUNDARY, pts, nodes, w, CFG3))
    assert small <= big + 1e-9


def test_capacity_subadditive():
    rng = np.random.default_rng(44)
    nodes = rng.uniform(-4, 4, (16, 2))
    w = np.full(16, 1.0)
    e1 = np.column_stack([rng.uniform(-2, 2, (3, 2)), rng.uniform(0.5, 2, 3)])
    e2 = np.column_stack([rng.uniform(-2, 2, (3, 2)), rng.uniform(0.5, 2, 3)])
    c1 = capacity(CapacityProblem(BOUNDARY, e1, nodes, w, CFG3))
    c2 = capacity(CapacityProblem(BOUNDARY, e2, nodes, w, CFG3))
    cu = capacity(CapacityProblem(BOUNDARY, np.vstack([e1, e2]), nodes, w, CFG3))
    assert cu <= c1 + c2 + 1e-9


def test_halfspace_kind_kernel_power():
    # one point, one node: value = |x - y|^(n-1) directly
    prob = CapacityProblem(HALFSPACE, [[0, 0, 1.0]], [[0, 0, 3.0]], [1.0], CFG3)
    assert capacity(prob) == pytest.approx(2.0 ** (CFG3.n - 1), rel=1e-12)


def test_discretization_stability_under_node_doubling():
    # boundary-kind capacities of finite samples have a positive continuum
    # limit (the kernel stays bounded on the boundary window), so node
    # refinement settles; 512 -> 1024 sits inside the converged regime
    memb = membership_from_spec({"shape": "cone", "aperture": 0.5})
    cfg = CFG3
    from hpot.capacity import shell_samples

    for i in (1, 2):
        pts = shell_samples(memb, i, cfg, 32)
        nodes1, w1 = window_nodes(BOUNDARY, i, cfg, 512)
        nodes2, w2 = window_nodes(BOUNDARY, i, cfg, 1024)
        c1 = capacity(CapacityProblem(BOUNDARY, pts, nodes1, w1, cfg))
        c2 = capacity(CapacityProblem(BOUNDARY, pts, nodes2, w2, cfg))
        assert abs(c2 - c1) <= 0.05 * max(c1, c2)


def test_thinness_bounded_set_terminates():
    memb = membership_from_spec({"shape": "ball", "center": [0, 0, 3.0], "radius": 1.0})
    rep = thinness_series(memb, BOUNDARY, 8, CFG3, e_samples=24, f_nodes=96)
    caps = [t.capacity for t in rep.terms]
    assert all(c == 0.0 for c in caps[2:])  # nothing beyond the ball's shells
    assert any(c > 0.0 for c in caps[:2])
    assert rep.partial_sum >= 0.0


def test_thinness_empty_set():
    rep = thinness_series(lambda x: False, HALFSPACE, 5, CFG3, e_samples=16, f_nodes=64)
    assert all(t.capacity == 0.0 for t in rep.terms)
    assert rep.partial_sum == 0.0


def test_thinness_partial_sums_monotone_and_full_space_grows():
    rep = thinness_series(lambda x: True, HALFSPACE, 6, CFG3, e_samples=24, f_nodes=96)
    partials = np.cumsum([t.product for t in rep.terms])
    assert np.all(np.diff(partials) >= 0)
    increments = [t.product for t in rep.terms]
    # scale-similar sampling: no flattening of the increments
    assert min(increments) >= 0.25 * max(increments)
    assert rep.partial_sum == pytest.approx(partials[-1])


def test_thinness_report_json_fields():
    rep = thinness_series(lambda x: False, BOUNDARY, 3, CFG3, e_samples=8, f_nodes=32)
    d = rep.to_json_dict()
    assert set(d) == {"terms", "partial_sum", "i_max", "resolution"}
    assert all(set(t) == {"i", "capacity", "weight", "product"} for t in d["terms"])
    assert d["i_max"] == 3


def test_thinness_imax_cap():
    with pytest.raises(DomainError):
        thinness_series(lambda x: True, BOUNDARY, 21, CFG3)


def test_membership_specs():
    assert membership_from_spec({"shape": "empty"})([1, 2, 3]) is False
    assert membership_from_spec({"shape": "all"})([1, 2, 3]) is True
    ball = membership_from_spec({"shape": "ball", "center": [0, 0, 3], "radius": 1.0})
    assert ball([0, 0, 2.5]) and not ball([0, 0, 4.5])
    cone = membership_from_spec({"shape": "cone", "aperture": 0.5})
    assert cone([0, 0, 5]) and not cone([5, 0, 0.1])
    with pytest.raises(SchemaError):
        membership_from_spec({"shape": "tetrahedron"})
    with pytest.raises(SchemaError):
        membership_from_spec({})


def test_membership_rows_match_single_points():
    # shell_samples calls a predicate once on all candidates of a shell
    from hpot.quadrature import halton_sequence

    raw = halton_sequence(4096, 3)
    specs = [{"shape": "cone", "aperture": a} for a in (0.3, 0.45, 0.6)]
    specs += [{"shape": "ball", "center": [0, 0, 6.0], "radius": 2.0},
              {"shape": "ball", "center": [4.0, -4.0, 4.0], "radius": 4.0}]
    for spec in specs:
        memb = membership_from_spec(spec)
        for i in (1, 2, 5):
            pts = (2.0 * raw - 1.0) * 2.0 ** (i + 1)
            pts[:, -1] = np.abs(pts[:, -1])
            rows = memb(pts)
            assert rows.shape == (len(pts),) and rows.dtype == bool
            assert np.array_equal(rows, [bool(memb(p)) for p in pts])
            if i == 2:
                assert 0 < np.count_nonzero(rows) < len(pts)
    samples = shell_samples(lambda x: True, 2, CFG3, 16)
    assert samples.shape == (16, 3)
    assert shell_samples(lambda x: False, 2, CFG3, 16).shape == (0, 3)


def test_capacity_validation():
    with pytest.raises(DomainError):
        CapacityProblem(BOUNDARY, np.zeros((0, 3)), [[0.0, 0.0]], [1.0], CFG3)
    with pytest.raises(DomainError):
        CapacityProblem(BOUNDARY, [[0, 0, 0.0]], [[0.0, 0.0]], [1.0], CFG3)
    with pytest.raises(DomainError):
        CapacityProblem(BOUNDARY, [[0, 0, 1.0]], [[0.0, 0.0]], [-1.0], CFG3)
    with pytest.raises(DomainError):
        LPInstance(c=np.array([1.0]), A=np.array([[np.inf]]))
    with pytest.raises(DomainError):
        LPInstance(c=np.array([-1.0]), A=np.array([[1.0]]))


def test_unit_patterns_are_drawn_once_and_read_only(tmp_path, capsys, monkeypatch):
    # the thinness and capacity JSON are the bytes of a fresh Halton draw on
    # every shell, with the pattern cache cold, warm, or bypassed
    from hpot.cli import main
    from hpot.quadrature import halton_sequence

    (tmp_path / "set.json").write_text(json.dumps({"shape": "cone", "aperture": 0.5}))
    (tmp_path / "p.csv").write_text("x_1,x_2,x_3\n0.5,0.2,1\n1,-0.5,2\n")
    argvs = [["thinness", "--set", str(tmp_path / "set.json"), "--kind", kind, "--n", "3",
              "--imax", "4", "--e-samples", "16", "--f-nodes", "64"]
             for kind in (BOUNDARY, HALFSPACE)]
    argvs.append(["capacity", "--kind", BOUNDARY, "--n", "3", "--points", str(tmp_path / "p.csv"),
                  "--window", "2", "--nodes", "64"])

    def outputs():
        runs = []
        for argv in argvs:
            assert main(argv) == 0
            runs.append(capsys.readouterr().out)
        return runs

    capacity_module._unit_pattern.cache_clear()
    cold = outputs()
    assert capacity_module._unit_pattern.cache_info().hits > 0
    warm = outputs()
    raw = capacity_module._unit_pattern(64 * 4, 2)
    assert np.array_equal(raw, halton_sequence(64 * 4, 2))
    with pytest.raises(ValueError):
        raw[0, 0] = 0.5
    monkeypatch.setattr(capacity_module, "_unit_pattern", halton_sequence)
    assert cold == warm == outputs()
    assert all(run.startswith("{") for run in cold)
