import math

import numpy as np
import pytest

import hpot.potentials as potentials
from hpot.diagnostics import laplacian_residual
from hpot.errors import DomainError, IntegrabilityError, SchemaError, SingularityError
from hpot.kernels import KernelConfig, modified_green_values, modified_poisson_values
from hpot.measures import AtomicMeasure, BoundaryData
from hpot.potentials import (
    batch_evaluate,
    boundary_limit_probe,
    dirichlet_field,
    eval_dirichlet,
    eval_dirichlet_detailed,
    eval_green_potential,
    eval_superposition,
    green_field,
    read_points_csv,
    values_csv,
)

C30 = KernelConfig(3, 0)
C31 = KernelConfig(3, 1)


def test_single_atom_golden():
    vf = dirichlet_field(C30, BoundaryData.atoms(2, [[0.0, 0.0]], [1.0]))
    assert eval_dirichlet(vf, [0, 0, 2]) == pytest.approx(1 / (8 * math.pi), rel=1e-12)


def test_zero_data_gives_zero():
    vf = dirichlet_field(C30, BoundaryData.atoms(2, np.zeros((0, 2)), []))
    assert eval_dirichlet(vf, [1, 1, 1]) == 0.0
    hf = green_field(C30, AtomicMeasure.empty(3))
    assert eval_green_potential(hf, [1, 1, 1]) == 0.0


def test_green_potential_golden():
    hf = green_field(C30, AtomicMeasure(3, [[0, 0, 2.0]], [1.0]))
    assert eval_green_potential(hf, [0, 0, 1]) == pytest.approx(
        -1 / (6 * math.pi), rel=1e-12
    )
    # boundary atoms contribute nothing
    hf2 = green_field(C30, AtomicMeasure(3, [[0, 0, 2.0], [4.0, 0, 0.0]], [1.0, 9.0]))
    assert eval_green_potential(hf2, [0, 0, 1]) == pytest.approx(
        -1 / (6 * math.pi), rel=1e-12
    )


def test_superposition_golden_and_mismatch():
    vf = dirichlet_field(C30, BoundaryData.atoms(2, [[0.0, 0.0]], [1.0]))
    hf = green_field(C30, AtomicMeasure(3, [[0, 0, 2.0]], [1.0]))
    assert eval_superposition(vf, hf, [0, 0, 1]) == pytest.approx(
        1 / (3 * math.pi), rel=1e-12
    )
    empty_v = dirichlet_field(C30, BoundaryData.atoms(2, np.zeros((0, 2)), []))
    assert eval_superposition(empty_v, hf, [0, 0, 1]) == eval_green_potential(hf, [0, 0, 1])
    empty_h = green_field(C30, AtomicMeasure.empty(3))
    assert eval_superposition(vf, empty_h, [0, 0, 1]) == eval_dirichlet(vf, [0, 0, 1])
    with pytest.raises(DomainError):
        eval_superposition(dirichlet_field(C31, BoundaryData.atoms(2, [[0.0, 0.0]], [1.0])), hf, [0, 0, 1])


def test_linearity_in_atoms():
    rng = np.random.default_rng(21)
    pts = rng.normal(size=(5, 2)) * 2
    w1 = rng.uniform(0.1, 1, 5)
    w2 = rng.uniform(0.1, 1, 5)
    x = [0.3, -0.2, 1.4]
    va = eval_dirichlet(dirichlet_field(C31, BoundaryData.atoms(2, pts, w1)), x)
    vb = eval_dirichlet(dirichlet_field(C31, BoundaryData.atoms(2, pts, w2)), x)
    vsum = eval_dirichlet(dirichlet_field(C31, BoundaryData.atoms(2, pts, w1 + w2)), x)
    assert vsum == pytest.approx(va + vb, rel=1e-13)
    vscaled = eval_dirichlet(dirichlet_field(C31, BoundaryData.atoms(2, pts, 3.5 * w1)), x)
    assert vscaled == pytest.approx(3.5 * va, rel=1e-13)


def test_positive_inside_unit_disk_support():
    rng = np.random.default_rng(22)
    pts = rng.uniform(-0.6, 0.6, (6, 2))
    w = rng.uniform(0.1, 1.0, 6)
    for m in range(4):
        vf = dirichlet_field(KernelConfig(3, m), BoundaryData.atoms(2, pts, w))
        for _ in range(20):
            x = np.append(rng.uniform(-4, 4, 2), rng.uniform(0.1, 4))
            assert eval_dirichlet(vf, x) > 0.0


def test_unit_poisson_integral():
    # order zero with constant data reproduces the kernel's unit integral
    for n, xs in [
        (3, [[0, 0, 1], [0.5, -0.3, 0.8], [2.0, 1.0, 0.25]]),
        (4, [[0, 0, 0, 1], [0.5, -0.3, 0.2, 0.8]]),
    ]:
        cfg = KernelConfig(n, 0)
        vf = dirichlet_field(cfg, BoundaryData.power_growth(n - 1, 0.0))
        for x in xs:
            assert eval_dirichlet(vf, x) == pytest.approx(1.0, abs=5e-8)


def test_power_growth_point_takes_at_most_four_passes(monkeypatch):
    # the far field is one inverted panel, so no pass picks a radius: the
    # order-12 pass checks the order-16 value, which meets the target here
    # (orders 24 and 32 would follow only if that check failed)
    passes = []
    real_pass = potentials._quad_pass

    def counting_pass(*args, **kwargs):
        passes.append(args[-1])
        return real_pass(*args, **kwargs)

    monkeypatch.setattr(potentials, "_quad_pass", counting_pass)
    cases = [
        (KernelConfig(3, 1), 0.5, [0.3, 0.2, 1.0]),
        (KernelConfig(3, 1), 0.5, [30.0, 20.0, 30.0]),
        (KernelConfig(4, 2), 1.5, [2.0, -1.0, 0.5, 3.0]),
    ]
    for cfg, s, x in cases:
        vf = dirichlet_field(cfg, BoundaryData.power_growth(cfg.n - 1, s))
        passes.clear()
        _, meta = eval_dirichlet_detailed(vf, x)
        assert meta["converged"]
        assert passes == [12, 16]


def test_unreachable_target_is_reported_unconverged(monkeypatch):
    # no rule order can meet a zero error target: the order-32 pass runs and
    # the point is reported unconverged with its error estimate
    passes = []
    real_pass = potentials._quad_pass

    def counting_pass(*args, **kwargs):
        passes.append(args[-1])
        return real_pass(*args, **kwargs)

    monkeypatch.setattr(potentials, "_quad_pass", counting_pass)
    monkeypatch.setattr(potentials, "_QUAD_TARGET", 0.0)
    vf = dirichlet_field(C31, BoundaryData.power_growth(2, 0.5))
    _, meta = eval_dirichlet_detailed(vf, [0.3, 0.2, 1.0])
    assert meta["converged"] is False
    assert meta["rel_err_estimate"] > potentials._QUAD_TARGET
    assert passes[-1] == 32


@pytest.fixture
def quad_passes(monkeypatch):
    """The order of each quadrature pass, in the order they run."""
    log = []
    real_pass = potentials._quad_pass

    def recording_pass(*args, **kwargs):
        log.append(args[-1])
        return real_pass(*args, **kwargs)

    monkeypatch.setattr(potentials, "_quad_pass", recording_pass)
    return log


@pytest.mark.parametrize(
    "data",
    [
        BoundaryData.gaussian_bump(2, 1.0, 1.0),
        BoundaryData.indicator_ball(2, 2.0),
        BoundaryData.power_growth(2, 0.5),
    ],
    ids=["gaussian_bump", "indicator_ball", "power_growth"],
)
def test_pass_orders(quad_passes, data):
    # the order-12 pass is the lower rung of the order-16 value
    _, meta = eval_dirichlet_detailed(dirichlet_field(C31, data), [0.3, 0.2, 1.0])
    assert meta["converged"]
    assert quad_passes == [12, 16]


@pytest.mark.parametrize(
    "cfg, data",
    [
        (C31, BoundaryData.power_growth(2, 0.5)),
        (KernelConfig(4, 2), BoundaryData.power_growth(3, 1.5)),
        (C31, BoundaryData.gaussian_bump(2, 1.0, 1.0)),
        (KernelConfig(3, 2), BoundaryData.indicator_ball(2, 2.0)),
    ],
    ids=["power_growth_0.5", "power_growth_1.5", "gaussian_bump", "indicator_ball"],
)
def test_order_16_value_matches_order_32(quad_passes, cfg, data):
    for x in ([2.0, 0.01], [2.0, 0.1], [30.0, 1.0], [0.3, 1.0], [1.0, 1.0]):
        cx = np.array([x[0]] + [0.0] * (cfg.n - 2) + [x[1]])
        quad_passes.clear()
        value, meta = eval_dirichlet_detailed(dirichlet_field(cfg, data), cx)
        assert meta["converged"] and quad_passes[-1] == 16
        panels = potentials._rule_panels(cfg, cx[None], data)
        (v32,), (l1,) = potentials._quad_pass(
            cfg, cx[None], data, data.radial(), 32, l1=True, panels=panels
        )
        assert abs(value - v32) <= 1e-12 * max(abs(v32), 1e-3 * l1, 1e-300), x


def test_far_field_near_the_gate_edge_is_not_truncated():
    # n=4, m=2, s=2.8: the polar integrand decays like rho^(s-m-2) = rho^-1.2,
    # so the tail beyond a radius R is of order R^-0.2 and a truncation
    # radius would need R ~ 1e40 for 1e-8; the reference integrates the same
    # polar form independently,
    # with the Cartesian kernel, Gauss-Legendre panels on [0, 8] and, on
    # [8, inf), u = 1/rho = v^(1/(beta+1)) / 8 with beta = m - s, which
    # turns u^beta du into a multiple of dv
    cfg, s = KernelConfig(4, 2), 2.8
    x = np.array([1.0, 0.0, 0.0, 2.0])
    t, wt = np.polynomial.legendre.leggauss(48)

    def radial_integrand(rho):
        # rho^2 f(rho) times the kernel over the sphere |y'| = rho; with x'
        # along e_1 that is 2 pi int_{-1}^{1} P dc, c the cosine to e_1
        yps = rho[:, None, None] * np.stack([t, np.sqrt(1 - t * t), 0 * t], axis=-1)
        kern = np.array([modified_poisson_values(cfg, x, y) for y in yps])
        return 2 * math.pi * (kern @ wt) * rho**2 * (1 + rho**2) ** (s / 2)

    near = sum(
        (b - a) / 2 * wt @ radial_integrand((a + b) / 2 + (b - a) / 2 * t)
        for a, b in [(0, 1), (1, 2), (2, 4), (4, 8)]
    )
    p, u0, v = 1 / (cfg.m - s + 1), 1 / 8, (1 + t) / 2
    u = u0 * v**p
    far = (wt / 2) @ (radial_integrand(1 / u) * u**-2 * u0 * p * v ** (p - 1))
    value, meta = eval_dirichlet_detailed(
        dirichlet_field(cfg, BoundaryData.power_growth(3, s)), x
    )
    assert meta["converged"]
    assert value == pytest.approx(near + far, rel=1e-10)


def test_gate_refusal():
    with pytest.raises(IntegrabilityError):
        dirichlet_field(C31, BoundaryData.power_growth(2, 2.0))


def test_eval_on_boundary_atom_is_singular():
    vf = dirichlet_field(C30, BoundaryData.atoms(2, [[1.0, 1.0]], [1.0]))
    with pytest.raises(SingularityError):
        eval_dirichlet(vf, [1.0, 1.0, 0.0])


def test_green_singular_at_atom():
    hf = green_field(C30, AtomicMeasure(3, [[0, 0, 2.0]], [1.0]))
    with pytest.raises(SingularityError):
        eval_green_potential(hf, [0, 0, 2.0])


def test_boundary_limit_probe():
    vg = dirichlet_field(C31, BoundaryData.gaussian_bump(2, 1.0, 1.0))
    probe = boundary_limit_probe(vg, [0.0, 0.0], [1.0, 1e-1, 1e-3])
    heights = [t for t, _ in probe]
    assert heights == [1.0, 1e-1, 1e-3]
    assert probe[0][1] == eval_dirichlet(vg, [0.0, 0.0, 1.0])
    errs = [abs(v - 1.0) for _, v in probe]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] <= 0.01
    with pytest.raises(DomainError):
        boundary_limit_probe(vg, [0.0, 0.0], [0.0])
    atoms_field = dirichlet_field(C30, BoundaryData.atoms(2, [[0.0, 0.0]], [1.0]))
    with pytest.raises(DomainError):
        boundary_limit_probe(atoms_field, [0.0, 0.0], [1.0])


def test_zero_family_probe():
    vz = dirichlet_field(C31, BoundaryData.gaussian_bump(2, 0.0, 1.0))
    assert all(v == 0.0 for _, v in boundary_limit_probe(vz, [0.3, 0.1], [1.0, 0.1]))


def test_family_harmonicity():
    vf = dirichlet_field(C31, BoundaryData.gaussian_bump(2, 1.0, 1.0))
    for x in ([0.4, -0.2, 0.9], [1.2, 0.3, 1.5]):
        x = np.asarray(x)
        h = 2.5e-3 * min(np.linalg.norm(x), 1.0)
        assert laplacian_residual(lambda z: eval_dirichlet(vf, z), x, h) <= 1e-6


def test_csv_contract_roundtrip():
    pts = np.array([[0.0, 0.0, 1.0], [0.25, -1.5, 2.0]])
    text = values_csv(pts, [1.5, -2.25])
    lines = text.splitlines()
    assert lines[0] == "x_1,x_2,x_3,value"
    parsed = read_points_csv(text, 3)
    assert np.array_equal(parsed, pts)
    with pytest.raises(SchemaError):
        read_points_csv("a,b,c\n1,2,3\n", 3)
    with pytest.raises(SchemaError):
        read_points_csv("x_1,x_2,x_3\n1,2\n", 3)


def _atom_fields(cfg, rng, count):
    bpts = rng.normal(size=(count, cfg.n - 1)) * rng.uniform(0.2, 20, (count, 1))
    mpts = rng.normal(size=(count, cfg.n)) * rng.uniform(0.2, 20, (count, 1))
    mpts[:, -1] = np.abs(mpts[:, -1])
    mpts[:3, -1] = 0.0  # boundary atoms
    vf = dirichlet_field(cfg, BoundaryData.atoms(cfg.n - 1, bpts, rng.uniform(0.1, 1, count)))
    hf = green_field(cfg, AtomicMeasure(cfg.n, mpts, rng.uniform(0.1, 1, count)))
    return vf, hf


def _sum_tolerances(cfg, vf, hf, pts):
    """Bounds on the summation-order difference of the atom sums, for v and
    for h: the kernel values agree bit for bit, so only the order of the N
    additions may differ, each order within N * eps * sum_j |w_j K_j| of the
    exact sum."""
    eps = np.finfo(float).eps
    vdata, mu = vf.source, hf.source
    pk = np.abs(modified_poisson_values(cfg, pts, vdata.points)) @ np.abs(vdata.weights)
    gk = np.abs(modified_green_values(cfg, pts, mu.points)) @ mu.masses
    return 2 * eps * len(vdata.weights) * pk, 2 * eps * len(mu.masses) * gk


@pytest.mark.parametrize("budget", [potentials._BLOCK_ELEMENTS, 7], ids=["default_budget", "budget_7"])
def test_block_sums_match_points_in_input_order(monkeypatch, budget):
    monkeypatch.setattr(potentials, "_BLOCK_ELEMENTS", budget)
    rng = np.random.default_rng(23)
    for n, m, count in ((3, 2, 300), (4, 1, 3), (5, 0, 40)):
        cfg = KernelConfig(n, m)
        vf, hf = _atom_fields(cfg, rng, count)
        pts = rng.normal(size=(17, n)) * rng.uniform(0.1, 6, (17, 1))
        pts[:, -1] = np.abs(pts[:, -1]) + 0.05
        pts[0, -1] = 0.0  # on the boundary
        tol_v, tol_h = _sum_tolerances(cfg, vf, hf, pts)
        for fn, args, tol in (
            (eval_dirichlet, (vf,), tol_v),
            (eval_green_potential, (hf,), tol_h),
            (eval_superposition, (vf, hf), tol_v + tol_h),
        ):
            block = fn(*args, pts)
            assert block.shape == (len(pts),)
            single = np.array([fn(*args, p) for p in pts])
            assert np.all(np.abs(block - single) <= tol), fn.__name__
            perm = rng.permutation(len(pts))
            assert np.all(np.abs(fn(*args, pts[perm]) - single[perm]) <= tol[perm])


def test_block_evaluation_of_empty_inputs():
    rng = np.random.default_rng(24)
    vf, hf = _atom_fields(C31, rng, 5)
    none = read_points_csv("x_1,x_2,x_3\n", 3)
    assert none.shape == (0, 3)
    for value in (eval_dirichlet(vf, none), eval_green_potential(hf, none),
                  eval_superposition(vf, hf, none)):
        assert value.shape == (0,)
    empty_h = green_field(C31, AtomicMeasure.empty(3))
    empty_v = dirichlet_field(C31, BoundaryData.atoms(2, np.zeros((0, 2)), []))
    pts = np.array([[0.0, 0.0, 1.0], [2.0, -1.0, 0.5]])
    assert np.array_equal(eval_green_potential(empty_h, pts), [0.0, 0.0])
    assert np.array_equal(eval_dirichlet(empty_v, pts), [0.0, 0.0])
    assert np.array_equal(eval_superposition(vf, empty_h, pts), eval_dirichlet(vf, pts))


def test_family_block_is_the_per_point_loop():
    vf = dirichlet_field(C31, BoundaryData.indicator_ball(2, 1.5))
    pts = np.array([[0.3, 0.2, 1.0], [2.0, -1.0, 0.5], [0.0, 0.0, 3.0]])
    assert np.array_equal(eval_dirichlet(vf, pts), [eval_dirichlet(vf, p) for p in pts])
    assert np.array_equal(batch_evaluate(lambda p: p[-1], pts[::-1]), pts[::-1, -1])


BENCHMARK_FAMILIES = [
    (C31, BoundaryData.power_growth(2, 0.5)),
    (KernelConfig(4, 2), BoundaryData.power_growth(3, 1.5)),
    (C31, BoundaryData.gaussian_bump(2, 1.0, 1.0)),
    (KernelConfig(3, 2), BoundaryData.indicator_ball(2, 2.0)),
]


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize(
    "budget", [None, 1, 20000], ids=["default_budget", "point_blocks", "budget_20000"]
)
@pytest.mark.parametrize(
    "cfg, data", BENCHMARK_FAMILIES,
    ids=["power_growth_0.5", "power_growth_1.5", "gaussian_bump", "indicator_ball"],
)
def test_family_blocks_equal_the_per_point_values(monkeypatch, cfg, data, budget):
    # a block of 10 points holds about 5e4 nodes per rung, more than one
    # node budget at the default; every value, estimate and flag is the
    # per-point one bit for bit
    if budget is not None:
        monkeypatch.setattr(potentials, "_QUAD_BLOCK_NODES", budget)
    rng = np.random.default_rng(cfg.n * 10 + cfg.m)
    pts = rng.normal(size=(10, cfg.n)) * rng.uniform(0.1, 30.0, (10, 1))
    pts[:, -1] = np.abs(pts[:, -1]) + 0.05
    pts[0, :-1] = 0.0  # on the axis
    vf = dirichlet_field(cfg, data)
    per_point = [eval_dirichlet_detailed(vf, p) for p in pts]
    assert _bits(eval_dirichlet(vf, pts)) == _bits([v for v, _ in per_point])
    values, meta = potentials._radial_family_quadrature(cfg, pts, data)
    assert _bits(values) == _bits([v for v, _ in per_point])
    assert _bits(meta["rel_err_estimate"]) == _bits([m["rel_err_estimate"] for _, m in per_point])
    assert meta["converged"].tolist() == [m["converged"] for _, m in per_point]


def test_points_on_different_rungs_share_a_block(quad_passes):
    # below the radial anchor's 1e-9 |x'| floor the kernel peak is resolved
    # only as the order grows: (1, 0, 2e-10) stops at order 24 (estimates
    # 1.5e-7, then 1.7e-9) and (1, 0, 1.5e-11) runs to order 32 unconverged
    # (7e-4); each rung runs once, for the points still on it
    data = BoundaryData.power_growth(2, 0.5)
    vf = dirichlet_field(C31, data)
    pts = np.array([[0.3, 0.2, 1.0], [1.0, 0.0, 2e-10], [2.0, -1.0, 0.5], [1.0, 0.0, 1.5e-11]])
    per_point = []
    for p in pts:
        quad_passes.clear()
        per_point.append((*eval_dirichlet_detailed(vf, p), list(quad_passes)))
    assert [passes for _, _, passes in per_point] == [
        [12, 16], [12, 16, 24], [12, 16], [12, 16, 24, 32]
    ]
    assert [m["converged"] for _, m, _ in per_point] == [True, True, True, False]
    quad_passes.clear()
    values, meta = potentials._radial_family_quadrature(C31, pts, data)
    assert quad_passes == [12, 16, 24, 32]
    assert _bits(values) == _bits([v for v, _, _ in per_point])
    estimates = [m["rel_err_estimate"] for _, m, _ in per_point]
    assert _bits(meta["rel_err_estimate"]) == _bits(estimates)
    assert _bits(eval_dirichlet(vf, pts)) == _bits(values)
    with pytest.raises(DomainError, match=r"did not converge at row 3 \(x = \(1, 0, 1"):
        eval_dirichlet(vf, pts, require_converged=True)


def test_a_failing_block_raises_the_first_failing_row():
    # alone, the first point's weighted sum overflows and the second point's
    # |x - y|^3 does; run as one block, the kernel meets the second first
    vf = dirichlet_field(KernelConfig(3, 3), BoundaryData.power_growth(2, 3.5))
    sums, powers = [0.6e60, 0.0, 0.8e60], [1e110, 0.0, 1e110]
    for pts, words in (([sums, powers], "weighted sum"), ([powers, sums], r"\|x - y\|\^n")):
        with pytest.raises(DomainError, match=words):
            eval_dirichlet(vf, np.array(pts))


def test_points_below_boundary_are_refused():
    rng = np.random.default_rng(25)
    vf, hf = _atom_fields(C31, rng, 5)
    family = dirichlet_field(C31, BoundaryData.gaussian_bump(2, 1.0, 1.0))
    below = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    for fn, args in (
        (eval_dirichlet, (vf,)),
        (eval_dirichlet, (family,)),
        (eval_green_potential, (hf,)),
        (eval_superposition, (vf, hf)),
    ):
        for x in (below, below[1]):
            with pytest.raises(DomainError, match="below the boundary"):
                fn(*args, x)
