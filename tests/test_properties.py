"""Property-based checks of the kernels and atom potentials (hypothesis)."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from hpot.kernels import (  # noqa: E402
    KernelConfig,
    green,
    modified_green,
    modified_green_values,
    modified_poisson_values,
)
from hpot.measures import AtomicMeasure, BoundaryData  # noqa: E402
from hpot.potentials import (  # noqa: E402
    dirichlet_field,
    eval_dirichlet,
    eval_green_potential,
    eval_superposition,
    green_field,
)

EPS = np.finfo(float).eps
# derandomized: the same examples on every run
PROPERTY = settings(max_examples=40, deadline=None, database=None, derandomize=True)

configs = st.builds(KernelConfig, st.integers(3, 5), st.integers(0, 6))


def _coords(shape, lo=-20.0, hi=20.0):
    return hnp.arrays(float, shape, elements=st.floats(lo, hi))


@st.composite
def atom_problems(draw):
    """A kernel configuration, boundary atoms (points, signed weights),
    measure atoms (points in the closed half-space, positive masses) and
    field points above the boundary, none on a measure atom."""
    cfg = draw(configs)
    n = cfg.n
    count = draw(st.integers(1, 12))
    bpts = draw(_coords((count, n - 1)))
    weights = draw(_coords(count, -5.0, 5.0))
    mpts = np.abs(draw(_coords((count, n))))
    mpts[: draw(st.integers(0, count)), -1] = 0.0  # boundary atoms
    masses = draw(_coords(count, 1e-3, 5.0))
    pts = draw(_coords((draw(st.integers(1, 8)), n)))
    pts[:, -1] = np.abs(pts[:, -1]) + draw(st.floats(1e-3, 2.0))
    d2 = ((pts[:, None, :] - mpts[None, :, :]) ** 2).sum(axis=-1)
    assume(np.all(d2 > 1e-6))
    return cfg, bpts, weights, mpts, masses, pts


def _abs_kernel_sums(cfg, pts, bpts, weights, mpts, masses):
    """sum_j |w_j K(x, s_j)| per point, for the Poisson and Green sums."""
    pk = np.abs(modified_poisson_values(cfg, pts, bpts)) @ np.abs(weights)
    gk = np.abs(modified_green_values(cfg, pts, mpts)) @ masses
    return pk, gk


@PROPERTY
@given(atom_problems(), st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.data())
def test_atom_potentials_are_linear_in_the_weights(problem, a, b, data):
    cfg, bpts, w1, mpts, m1, pts = problem
    w2 = data.draw(_coords(len(w1), -5.0, 5.0))
    m2 = data.draw(_coords(len(m1), 1e-3, 5.0))

    def potential(w, m):
        vf = dirichlet_field(cfg, BoundaryData.atoms(cfg.n - 1, bpts, w))
        hf = green_field(cfg, AtomicMeasure(cfg.n, mpts, m))
        return eval_dirichlet(vf, pts), eval_green_potential(hf, pts)

    (v1, h1), (v2, h2) = potential(w1, m1), potential(w2, m2)
    v, h = potential(a * w1 + b * w2, a * m1 + b * m2)
    # the three sums are each within N eps sum |w K| of their exact values;
    # forming a w1 + b w2 and a v1 + b v2 rounds once more each
    pk, gk = _abs_kernel_sums(cfg, pts, bpts, a * np.abs(w1) + b * np.abs(w2), mpts, a * m1 + b * m2)
    scale = 2 * (len(w1) + 2) * EPS
    assert np.all(np.abs(v - (a * v1 + b * v2)) <= scale * pk + 1e-300)
    assert np.all(np.abs(h - (a * h1 + b * h2)) <= scale * gk + 1e-300)


@PROPERTY
@given(configs, st.data())
def test_green_vanishes_for_boundary_sources(cfg, data):
    n = cfg.n
    x = data.draw(_coords(n, -50.0, 50.0))
    x[-1] = abs(x[-1]) + 1e-3
    ys = data.draw(_coords((data.draw(st.integers(1, 10)), n), -50.0, 50.0))
    ys[:, -1] = 0.0
    assert np.all(modified_green_values(cfg, x, ys) == 0.0)
    assert np.all(modified_green_values(cfg, x[None], ys) == 0.0)


@PROPERTY
@given(atom_problems(), st.randoms(use_true_random=False))
def test_block_sums_are_invariant_under_a_permutation_of_the_points(problem, random):
    cfg, bpts, weights, mpts, masses, pts = problem
    vf = dirichlet_field(cfg, BoundaryData.atoms(cfg.n - 1, bpts, weights))
    hf = green_field(cfg, AtomicMeasure(cfg.n, mpts, masses))
    perm = list(range(len(pts)))
    random.shuffle(perm)
    # the bound of test_block_sums_match_points_in_input_order: only the
    # order of the N additions may differ, each within N eps sum |w K|
    pk, gk = _abs_kernel_sums(cfg, pts, bpts, weights, mpts, masses)
    tol = 2 * EPS * len(weights) * (pk + gk)
    values = eval_superposition(vf, hf, pts)
    assert np.all(np.abs(eval_superposition(vf, hf, pts[perm]) - values[perm]) <= tol[perm])


@st.composite
def half_space_points(draw, n):
    """A point of the upper half-space with |x| = 10^a, a in [-2, 2], and
    height x_n/|x| = 10^b, b in [-6, 0]."""
    u = draw(_coords(n - 1, -1.0, 1.0))
    assume(np.linalg.norm(u) > 0.1)
    radius = 10.0 ** draw(st.floats(-2.0, 2.0))
    height = 10.0 ** draw(st.floats(-6.0, 0.0))
    tangential = u / np.linalg.norm(u) * (radius * np.sqrt(1.0 - height * height))
    return np.append(tangential, radius * height)


@PROPERTY
@given(st.integers(3, 5), st.data())
def test_order_zero_green_is_symmetric_and_plain(n, data):
    cfg = KernelConfig(n, 0)
    x, y = data.draw(half_space_points(n)), data.draw(half_space_points(n))
    assume(not np.array_equal(x, y))
    g = modified_green(cfg, x, y)
    assert g == modified_green(cfg, y, x)
    # green sums |x - y|^2 in another order: a few eps apart
    assert abs(g - green(cfg, x, y)) <= 4 * EPS * abs(g)
