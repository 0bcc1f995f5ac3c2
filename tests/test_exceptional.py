import math
import tracemalloc
import warnings

import numpy as np
import pytest

import hpot.exceptional as exceptional
from hpot.errors import DomainError
from hpot.exceptional import (
    CoveringResult,
    GrowthParams,
    MaximalQuery,
    _distance_profile,
    _witness_radii,
    _within_reach,
    exceptional_candidates,
    exceptional_membership,
    growth_ratio,
    growth_scan,
    maximal_function,
    scan_csv,
    shell_lattice,
    vitali_covering,
)
from hpot.geometry import Ball, Point
from hpot.kernels import KernelConfig, modified_green_values, modified_poisson_values
from hpot.measures import AtomicMeasure, BoundaryData
from hpot.potentials import (
    dirichlet_field,
    eval_dirichlet,
    eval_green_potential,
    green_field,
)


def brute_maximal(mu, beta, x, radii):
    """Independent oracle: scan an explicit radius grid."""
    x = np.asarray(x, float)
    d = np.linalg.norm(mu.points - x, axis=1)
    out = 0.0
    for r in radii:
        out = max(out, mu.masses[d <= r].sum() / r**beta)
    return out


def test_maximal_golden():
    mu = AtomicMeasure(3, [[0, 0, 0]], [1.0])
    assert maximal_function(mu, 2.0, [0, 0, 4]) == pytest.approx(1 / 16, rel=1e-14)
    assert maximal_function(mu, 0.0, [5, 5, 5]) == 1.0
    assert maximal_function(mu, 1.0, [0, 0, 0]) == math.inf


def test_maximal_matches_radius_scan():
    rng = np.random.default_rng(30)
    mu = AtomicMeasure(3, rng.normal(size=(8, 3)) * 3, rng.uniform(0.1, 2, 8))
    radii = np.linspace(1e-3, 30, 30000)
    for _ in range(10):
        x = rng.normal(size=3) * 4
        beta = float(rng.choice([0.5, 1.0, 2.0]))
        exact = maximal_function(mu, beta, x)
        approx = brute_maximal(mu, beta, x, radii)
        assert approx <= exact * (1 + 1e-9)
        assert exact <= approx * (1 + 1e-2)


def test_maximal_monotone_in_atoms_and_scaling():
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(6, 3)) * 2
    ms = rng.uniform(0.1, 1.0, 6)
    mu = AtomicMeasure(3, pts, ms)
    bigger = AtomicMeasure(3, np.vstack([pts, [[5, 0, 1]]]), np.append(ms, 0.7))
    scaled = AtomicMeasure(3, pts, 3.0 * ms)
    for _ in range(50):
        x = rng.normal(size=3) * 3
        beta = float(rng.choice([0.0, 0.5, 2.0]))
        base = maximal_function(mu, beta, x)
        assert maximal_function(bigger, beta, x) >= base
        assert maximal_function(scaled, beta, x) == pytest.approx(3.0 * base, rel=1e-13)


def test_membership_examples():
    mu = AtomicMeasure(3, [[0, 0, 0]], [1.0])
    for beta in (0.5, 1.0, 2.0):
        q = MaximalQuery(beta, 5.0**beta)
        # atom at the origin: |x|^beta > 5^beta |x|^beta is impossible
        for x in ([0, 0, 4], [3, 3, 3], [-8, 1, 2]):
            assert not exceptional_membership(mu, q, x)
    q = MaximalQuery(2.0, 25.0)
    assert not exceptional_membership(mu, q, [1.5, 0, 0])  # |x| < 2 clause
    assert not exceptional_membership(
        AtomicMeasure(3, [[0, 0, 4.0]], [1.0]), MaximalQuery(2.0, 1e9), [0, 0, 4.1]
    )


def test_apollonius_instance_covering():
    mu = AtomicMeasure(3, [[0, 0, 4.0]], [1.0])
    q = MaximalQuery(2.0, 25.0)
    cov = vitali_covering(mu, q, range(1, 4), 0.25)
    assert len(cov.balls) >= 1
    assert cov.bound == pytest.approx(3.0)
    assert cov.weighted_sum <= cov.bound
    total = 0
    for k in range(1, 4):
        centers, radii = exceptional_candidates(mu, q, k, 0.25)
        total += len(centers)
        for c in centers:
            assert cov.contains(c)
        # candidates agree with the membership predicate on the lattice
        grid = shell_lattice(k, 0.25, 3)
        member = np.array([exceptional_membership(mu, q, g) for g in grid])
        assert member.sum() == len(centers)
    assert total >= 2


def test_covering_contract_random_measures():
    rng = np.random.default_rng(32)
    nonempty = 0
    for trial in range(12):
        npts = int(rng.integers(2, 7))
        pts = rng.normal(size=(npts, 3)) * rng.uniform(1, 6)
        mu = AtomicMeasure(3, pts, rng.uniform(0.2, 2.0, npts))
        beta = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        lam = 5.0**beta * mu.total_mass * float(rng.uniform(1.0, 2.0))
        q = MaximalQuery(beta, lam)
        cov = vitali_covering(mu, q, range(1, 6), 0.5)
        assert cov.weighted_sum <= cov.bound + 1e-12
        nonempty += bool(cov.balls)
        for k in range(1, 6):
            centers, _ = exceptional_candidates(mu, q, k, 0.5)
            assert all(cov.contains(c) for c in centers)
    assert nonempty >= 3


def test_covering_precondition():
    mu = AtomicMeasure(3, [[0, 0, 4.0]], [1.0])
    with pytest.raises(DomainError):
        vitali_covering(mu, MaximalQuery(2.0, 24.9), range(1, 3), 0.5)


def test_empty_exceptional_set():
    mu = AtomicMeasure(3, [[0, 0, 0]], [1.0])
    cov = vitali_covering(mu, MaximalQuery(2.0, 25.0), range(1, 5), 0.5)
    assert cov.balls == ()
    assert cov.weighted_sum == 0.0


def test_growth_ratio_golden():
    cfg = KernelConfig(3, 1)
    vf = dirichlet_field(cfg, BoundaryData.atoms(2, [[0.0, 0.0]], [1.0]))
    params = GrowthParams(1.0, 1)
    u = lambda x: eval_dirichlet(vf, x)
    assert growth_ratio(u, [0, 0, 2], params) == pytest.approx(
        1 / (32 * math.pi), rel=1e-12
    )
    # doubling |x| on the vertical ray divides the ratio by 2^(n+m)
    r1 = growth_ratio(u, [0, 0, 2], params)
    r2 = growth_ratio(u, [0, 0, 4], params)
    assert r1 / r2 == pytest.approx(2.0 ** (3 + 1), rel=1e-12)
    assert growth_ratio(lambda x: 0.0, [0, 0, 2], params) == 0.0
    with pytest.raises(DomainError):
        growth_ratio(u, [0, 0, -1], params)


def test_growth_scan_includes_flags_and_validation():
    cfg = KernelConfig(3, 0)
    vf = dirichlet_field(cfg, BoundaryData.atoms(2, [[0.0, 0.0]], [1.0]))
    u = lambda x: eval_dirichlet(vf, x)
    rays = [np.array([0, 0, 1.0]), np.array([0.6, 0, 0.8])]
    radii = [4.0, 8.0, 16.0]
    rows = growth_scan(u, rays, radii, GrowthParams(1.0, 0), dim=3)
    assert len(rows) == 6
    assert all(not r.in_exceptional for r in rows)
    # with a covering ball around one sample point, that point gets flagged
    from hpot.geometry import Ball, Point

    cov = CoveringResult((Ball(Point([0, 0, 8.0]), 0.5),), 0.1, 1.0)
    rows = growth_scan(u, rays, radii, GrowthParams(1.0, 0), cov, dim=3)
    flagged = [r for r in rows if r.in_exceptional]
    assert len(flagged) == 1 and flagged[0].radius == 8.0 and flagged[0].ray_index == 0
    with pytest.raises(DomainError):
        growth_scan(u, rays, radii, GrowthParams(3.5, 0), dim=3)
    with pytest.raises(DomainError):
        growth_scan(u, rays, radii, GrowthParams(2.0, 0), dim=3, subharmonic=True)
    with pytest.raises(DomainError):
        growth_scan(u, rays, [4.0, 4.0], GrowthParams(1.0, 0), dim=3)
    with pytest.raises(DomainError):
        growth_scan(u, [np.array([0, 0, 2.0])], radii, GrowthParams(1.0, 0), dim=3)


def _unit_rays(rng, count, n):
    d = rng.normal(size=(count, n))
    d[:, -1] = np.abs(d[:, -1]) + 0.2
    return list(d / np.linalg.norm(d, axis=1, keepdims=True))


def test_growth_scan_is_one_block_call_matching_growth_ratio():
    rng = np.random.default_rng(44)
    cfg = KernelConfig(3, 1)
    bpts, mpts = rng.normal(size=(300, 2)) * 3, rng.normal(size=(300, 3)) * 3
    mpts[:, -1] = np.abs(mpts[:, -1]) + 0.1
    bw, mm = rng.uniform(0.1, 1.0, 300), rng.uniform(0.1, 1.0, 300) / 300
    vf = dirichlet_field(cfg, BoundaryData.atoms(2, bpts, bw))
    hf = green_field(cfg, AtomicMeasure(3, mpts, mm))
    u = lambda x: eval_dirichlet(vf, x) + eval_green_potential(hf, x)
    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return u(x)

    rays, radii = _unit_rays(rng, 5, 3), np.geomspace(0.5, 300.0, 9)
    params = GrowthParams(1.0, 1)
    rows = growth_scan(counted, rays, radii, params, dim=3, subharmonic=True)
    assert calls == [(45, 3)]
    assert [(r.ray_index, r.radius) for r in rows] == [
        (i, float(rho)) for i in range(5) for rho in radii
    ]
    xs = np.array([rho * d for d in rays for rho in radii])
    # summation order only, as in the potentials' block-sum test, plus one
    # rounding of each ratio's division
    eps = np.finfo(float).eps
    pk = np.abs(modified_poisson_values(cfg, xs, bpts)) @ bw
    gk = np.abs(modified_green_values(cfg, xs, mpts)) @ mm
    tol = 2 * eps * 300 * (pk + gk)
    denom = np.linalg.norm(xs, axis=1) ** 2  # x_n^(1-alpha) |x|^(m+alpha)
    single = np.array([growth_ratio(u, x, params) for x in xs])
    got = np.array([r.ratio for r in rows])
    assert np.all(np.abs(got - single) <= tol / denom + 2 * eps * single)


def test_covering_contains_blocks_match_balls(monkeypatch):
    rng = np.random.default_rng(45)
    balls = [Ball(Point(c), float(r)) for c, r in
             zip(rng.normal(size=(40, 3)) * 6, rng.uniform(0.5, 3.0, 40))]
    balls.append(Ball(Point([1.0, 1.0, 10.0]), 5.0))
    cov = CoveringResult(tuple(balls), 0.0, 1.0)
    on_sphere = np.array([4.0, 5.0, 10.0])  # |x - c| is exactly 5
    pts = np.vstack([on_sphere, rng.normal(size=(300, 3)) * 6])
    expected = np.array([any(b.contains(p) for b in balls) for p in pts])
    assert not expected[0] and 20 < expected.sum() < 290
    for budget in (exceptional._BLOCK_ELEMENTS, 100):  # 100 pairs: 2 rows a block
        monkeypatch.setattr(exceptional, "_BLOCK_ELEMENTS", budget)
        got = cov.contains(pts)
        assert got.dtype == bool and np.array_equal(got, expected)
    assert cov.contains(on_sphere) is False
    assert cov.contains(Point(pts[int(np.argmax(expected))])) is True
    empty = CoveringResult((), 0.0, 1.0)
    assert empty.contains(on_sphere) is False
    assert np.array_equal(empty.contains(pts), np.zeros(len(pts), dtype=bool))


def test_scan_csv_header():
    cfg = KernelConfig(3, 0)
    vf = dirichlet_field(cfg, BoundaryData.atoms(2, [[0.0, 0.0]], [1.0]))
    rows = growth_scan(
        lambda x: eval_dirichlet(vf, x),
        [np.array([0, 0, 1.0])],
        [4.0],
        GrowthParams(1.0, 0),
        dim=3,
    )
    text = scan_csv(rows)
    assert text.splitlines()[0] == "ray_index,radius,ratio,in_G"
    assert text.endswith("\n")


def test_covering_precondition_at_exact_threshold():
    # six atoms of mass 0.01 sum to 0.060000000000000005 in plain float
    # addition; lambda = 1.5 is exactly 5^2 * 0.06 and must be admitted
    pts = [[float(i), 0.0, 3.0] for i in range(6)]
    mu = AtomicMeasure(3, pts, [0.01] * 6)
    assert mu.total_mass == 0.06
    assert MaximalQuery(2.0, 1.5).admits_covering(mu)
    assert not MaximalQuery(2.0, 1.49).admits_covering(mu)


def dense_witness_radii(mu, query, xs):
    """Reference: the full distance sort of every row against every atom."""
    r = np.sqrt(np.sum(xs * xs, axis=-1))
    d, cum = _distance_profile(mu, xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = cum > query.lam * (d / r[:, None]) ** query.beta
    at_atom = ok[:, 0] & (d[:, 0] == 0.0) & (query.beta > 0)
    ok &= d > 0.0
    has = ok.any(axis=1)
    first = np.where(has, ok.argmax(axis=1), 0)
    radii = np.where(has, d[np.arange(len(xs)), first], np.nan)
    if np.any(at_atom):
        crossing = r * (cum[:, 0] / query.lam) ** (1.0 / max(query.beta, 1e-300))
        radii[at_atom] = np.fmin(
            np.where(np.isnan(radii), np.inf, radii), 0.5 * crossing
        )[at_atom]
    radii[r < 2.0] = np.nan
    return radii


def _witness_atom_sets():
    rng = np.random.default_rng(40)
    grid = shell_lattice(2, 0.25, 3)
    on_grid = grid[rng.choice(len(grid), 6, replace=False)]
    near_grid = on_grid + rng.normal(size=(6, 3)) * 0.3
    inner = rng.uniform(-1.0, 1.0, size=(5, 3))
    far = rng.normal(size=(8, 3))
    far *= 40.0 / np.linalg.norm(far, axis=1)[:, None]
    return {
        "on_lattice": np.vstack([on_grid, near_grid]),
        "inner_and_lattice": np.vstack([inner, on_grid[:2]]),
        "empty_annulus": far,
    }


_ATOM_SETS = _witness_atom_sets()


@pytest.mark.parametrize("atoms", sorted(_ATOM_SETS))
@pytest.mark.parametrize("beta", [0.0, 0.5, 2.0, 3.0])
@pytest.mark.parametrize("lam_factor", [1.0, 1.5, 0.2])
def test_witness_radii_match_dense_sort(atoms, beta, lam_factor):
    # rows of shell 2 plus rows with |x| < 2; lam_factor < 1 is below the
    # covering precondition, where the reach bound exceeds 1/5
    pts = _ATOM_SETS[atoms]
    rng = np.random.default_rng(41)
    mu = AtomicMeasure(3, pts, rng.uniform(0.2, 2.0, len(pts)))
    xs = np.vstack([shell_lattice(2, 0.25, 3), rng.uniform(-1.0, 1.0, size=(20, 3))])
    q = MaximalQuery(beta, lam_factor * 5.0**beta * mu.total_mass)
    expected = dense_witness_radii(mu, q, xs)
    assert np.array_equal(_witness_radii(mu, q, xs), expected, equal_nan=True)
    if atoms == "on_lattice" and beta > 0 and lam_factor == 1.0:
        assert np.count_nonzero(~np.isnan(expected)) >= 6  # at_atom rows


def test_witness_radii_blocks_match_dense_sort(monkeypatch):
    # a budget smaller than one row of atoms gives one row per block
    rng = np.random.default_rng(42)
    grid = shell_lattice(1, 0.25, 3)
    pts = np.vstack([grid[rng.choice(len(grid), 40, replace=False)], rng.normal(size=(60, 3)) * 3])
    mu = AtomicMeasure(3, pts, rng.uniform(0.2, 2.0, len(pts)))
    for beta, factor in ((2.0, 1.0), (1.0, 0.05)):
        q = MaximalQuery(beta, factor * 5.0**beta * mu.total_mass)
        expected = dense_witness_radii(mu, q, grid)
        assert np.count_nonzero(~np.isnan(expected)) >= 40
        for budget in (7, 250, 1 << 18):
            monkeypatch.setattr(exceptional, "_BLOCK_ELEMENTS", budget)
            got = _witness_radii(mu, q, grid)
            assert np.array_equal(got, expected, equal_nan=True)


def test_empty_annulus_sorts_nothing(monkeypatch):
    mu = AtomicMeasure(3, _ATOM_SETS["empty_annulus"], np.ones(8))
    q = MaximalQuery(2.0, 25.0 * mu.total_mass)

    def no_sort(*args):
        raise AssertionError("no row is within reach of an atom")

    monkeypatch.setattr(exceptional, "_distance_profile", no_sort)
    centers, radii = exceptional_candidates(mu, q, 2, 0.25)
    assert len(centers) == 0 and len(radii) == 0


def test_candidates_memory_bounded():
    # 2000 atoms in three clusters across the shells; the dense search
    # held a rows x atoms distance profile (about 226 MB per shell)
    rng = np.random.default_rng(43)
    centres = np.array([[4.0, 1.0, 3.0], [-12.0, 9.0, 14.0], [30.0, -50.0, 60.0]])
    which = np.arange(2000) % 3
    spread = 0.05 * np.linalg.norm(centres, axis=1)
    pts = centres[which] + rng.normal(size=(2000, 3)) * spread[which, None]
    mu = AtomicMeasure(3, pts, rng.uniform(0.5, 1.5, 2000) / 2000)
    q = MaximalQuery(2.0, 1.2 * 25.0 * mu.total_mass)
    tracemalloc.start()
    try:
        members = sum(len(exceptional_candidates(mu, q, k, 0.25)[0]) for k in range(1, 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert members >= 1


def brute_within_reach(points, xs, reach):
    """Reference: every row against every point, d2 summed one coordinate at
    a time."""
    d2 = np.zeros((len(xs), len(points)))
    for c in range(xs.shape[1]):
        d2 += np.subtract.outer(xs[:, c], points[:, c]) ** 2
    return np.any(d2 <= (reach * reach)[:, None], axis=1)


def _reach_cases():
    rng = np.random.default_rng(44)
    cases = {}
    # 3-4-5 triangles: d2 == reach2 exactly, and one ulp short of it
    rows = np.array([[3.0, 0.0, 0.0], [0.0, 3.0, 1.0], [10.0, 10.0, 10.0]])
    atoms = np.array([[6.0, 4.0, 0.0], [0.0, 7.0, 4.0], [10.0, 10.0, 15.0]])
    reach = np.array([5.0, 5.0, np.nextafter(5.0, 0.0)])
    cases["exact_reach"] = (atoms, rows, reach)
    # the cube side is the largest reach, 1.0: atoms and rows on cube faces
    faces = np.array(np.meshgrid(*[np.arange(-2.0, 3.0)] * 3, indexing="ij")).reshape(3, -1).T
    half = faces[::3] + 0.5
    cases["cube_faces"] = (faces[::2], np.vstack([faces[1::2], half]),
                           rng.choice([0.5, 1.0, np.nextafter(1.0, 0.0)], len(faces[1::2]) + len(half)))
    clump = rng.uniform(0.0, 0.9, size=(50, 3))
    cases["one_cube"] = (clump, rng.uniform(-1.5, 2.5, size=(60, 3)), rng.uniform(0.1, 1.0, 60))
    line = np.arange(40.0)[:, None] * [3.0, 2.5, 0.0]
    rows = line[rng.integers(0, 40, 60)] + rng.uniform(-0.8, 0.8, size=(60, 3))
    cases["cube_per_atom"] = (line, rows, rng.uniform(0.1, 1.0, 60))
    cases["reach_past_span"] = (clump, rng.uniform(-3.0, 3.0, size=(60, 3)), np.full(60, 100.0))
    # cube indices saturate: spans near 1e150 over a reach of 1e-10 or less
    big = rng.uniform(-1e150, 1e150, size=(40, 3))
    far_rows = np.vstack([big[:10], np.nextafter(big[10:20], np.inf), rng.uniform(-1e150, 1e150, size=(10, 3))])
    cases["saturated_cubes"] = (big, far_rows, rng.choice([1e-10, 1e-300], len(far_rows)))
    cases["zero_reach"] = (clump, np.vstack([clump[:5], clump[5:10] + 1e-9]), np.zeros(10))
    for n in (2, 4, 5):
        centres = rng.uniform(-20.0, 20.0, size=(4, n))
        atoms = centres[np.arange(200) % 4] + rng.normal(size=(200, n))
        rows = centres[np.arange(300) % 4] + rng.normal(size=(300, n)) * 2.0
        cases[f"dimension_{n}"] = (atoms, rows, rng.uniform(0.05, 2.0, 300))
    return cases


_REACH_CASES = _reach_cases()


@pytest.mark.parametrize("case", sorted(_REACH_CASES))
@pytest.mark.parametrize("budget", [7, 250, 1 << 16])
def test_within_reach_matches_brute_force(monkeypatch, case, budget):
    atoms, rows, reach = _REACH_CASES[case]
    monkeypatch.setattr(exceptional, "_BLOCK_ELEMENTS", budget)
    expected = brute_within_reach(atoms, rows, reach)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. a cube side of 0 or an overflow
        got = _within_reach(atoms, rows, reach)
    assert np.array_equal(got, expected)
    if case == "exact_reach":
        assert expected.tolist() == [True, True, False]
    if case != "reach_past_span":
        assert 0 < np.count_nonzero(expected) < len(rows)


def test_witness_radii_ties_match_dense_sort():
    # atoms tied in distance from lattice rows: copies of one point with
    # different masses (some on a row) and pairs mirrored about a row; far
    # atoms outside the annulus make the full sort differ from the annulus one
    rng = np.random.default_rng(45)
    grid = shell_lattice(2, 0.25, 3)
    rows = grid[rng.choice(len(grid), 4, replace=False)]
    offsets = np.vstack([np.eye(3), 0.5 * np.eye(3), [[0.25, 0.25, 0.0]]])
    mirrored = np.vstack([r + s * offsets for r in rows for s in (1.0, -1.0)])
    copies = np.repeat(np.vstack([rows[:2], rows[2:] + 0.25]), 5, axis=0)
    far = rng.normal(size=(200, 3))
    far *= 60.0 / np.linalg.norm(far, axis=1)[:, None]
    pts = np.vstack([far[:100], copies, mirrored, far[100:]])
    masses = rng.choice([0.1, 0.2, 0.3, 1.0 / 3.0, 0.7], len(pts))
    mu = AtomicMeasure(3, pts, masses)
    for beta in (0.5, 1.0, 2.0):
        for factor in (1.0, 0.3, 0.05):
            q = MaximalQuery(beta, factor * 5.0**beta * mu.total_mass)
            expected = dense_witness_radii(mu, q, grid)
            assert np.count_nonzero(~np.isnan(expected)) >= 4
            assert np.array_equal(_witness_radii(mu, q, grid), expected, equal_nan=True)


def test_clustered_covering_memory_bounded():
    # 2e4 atoms in three clusters; the witness search holds at most
    # _BLOCK_ELEMENTS pairs at a time (about 4 MB here)
    rng = np.random.default_rng(46)
    centres = np.array([[4.0, 1.0, 3.0], [-12.0, 9.0, 14.0], [30.0, -50.0, 60.0]])
    which = np.arange(20000) % 3
    spread = 0.02 * np.linalg.norm(centres, axis=1)
    pts = centres[which] + rng.normal(size=(20000, 3)) * spread[which, None]
    pts[:, -1] = np.abs(pts[:, -1])
    mu = AtomicMeasure(3, pts, rng.uniform(0.5, 1.5, 20000) / 20000)
    q = MaximalQuery(2.0, 1.2 * 25.0 * mu.total_mass)
    tracemalloc.start()
    try:
        cover = vitali_covering(mu, q, range(1, 8), 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert len(cover.balls) >= 1


def test_shell_lattice_refuses_what_it_cannot_hold():
    # shell 510 is the last whose |x|^2 stays finite; a spacing past the
    # float range at shell 1 leaves only the origin, outside the shell
    assert len(shell_lattice(510, 0.5, 3)) > 0
    assert len(shell_lattice(1, 1e300, 3)) == 0
    # (1, 2/128.5) needs 259^3 > 2^24 lattice points
    for k, delta in ((511, 0.5), (1100, 0.5), (1, 2.0 / 128.5), (2, -0.5),
                     (2, math.nan), (2, math.inf), (30, 1e300)):
        with pytest.raises(DomainError):
            shell_lattice(k, delta, 3)
