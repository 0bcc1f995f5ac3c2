import math

import numpy as np
import pytest
from scipy.special import gamma as sp_gamma

from hpot import kernels
from hpot.diagnostics import laplacian_residual
from hpot.errors import DomainError, SingularityError
from hpot.gegenbauer import gegenbauer_at_one, recurrence_ladder
from hpot.kernels import (
    KernelConfig,
    fundamental,
    fundamental_tail_bound,
    gegenbauer_tail_sum,
    green,
    green_bound_report,
    green_values,
    modified_fundamental,
    modified_fundamental_values,
    modified_green,
    modified_green_values,
    modified_poisson,
    modified_poisson_polar,
    modified_poisson_values,
    poisson,
    poisson_series_partial,
    poisson_tail_bound,
)

C30 = KernelConfig(3, 0)
C31 = KernelConfig(3, 1)
C40 = KernelConfig(4, 0)


# ---------------------------------------------------------------------------
# naive textbook references, kept independent of the library's branch logic
# ---------------------------------------------------------------------------


def naive_modified_poisson(cfg, x, yp):
    n, m = cfg.n, cfg.m
    x, yp = np.asarray(x, float), np.asarray(yp, float)
    P = 2 * x[-1] / (cfg.omega_n * np.linalg.norm(x - np.append(yp, 0.0)) ** n)
    ayp, ax = np.linalg.norm(yp), np.linalg.norm(x)
    if ayp <= 1 or m == 0:
        return P
    t = float(np.dot(x[:-1], yp) / (ax * ayp)) if ax > 0 else 0.0
    lad = recurrence_ladder(n / 2, m - 1, np.asarray(t))
    corr = sum(ax**k * float(lad[k]) / ayp ** (n + k) for k in range(m))
    return P - 2 * x[-1] / cfg.omega_n * corr


def naive_modified_fundamental(cfg, x, y):
    n, m = cfg.n, cfg.m
    x, y = np.asarray(x, float), np.asarray(y, float)
    E = -cfg.r_n * np.linalg.norm(x - y) ** (2 - n)
    ay, ax = np.linalg.norm(y), np.linalg.norm(x)
    if ay <= 1 or m == 0:
        return E
    t = float(np.dot(x, y) / (ax * ay)) if ax > 0 else 0.0
    lad = recurrence_ladder((n - 2) / 2, m - 1, np.asarray(t))
    corr = sum(ax**k * float(lad[k]) / ay ** (n - 2 + k) for k in range(m))
    return E + cfg.r_n * corr


def naive_modified_green(cfg, x, y):
    up = KernelConfig(cfg.n, cfg.m + 1)
    ystar = np.asarray(y, float).copy()
    ystar[-1] = -ystar[-1]
    return naive_modified_fundamental(up, x, y) - naive_modified_fundamental(up, x, ystar)


# ---------------------------------------------------------------------------
# configuration constants
# ---------------------------------------------------------------------------


def test_config_constants():
    for n in (3, 4, 5, 6):
        cfg = KernelConfig(n)
        omega = 2 * math.pi ** (n / 2) / sp_gamma(n / 2)
        assert cfg.omega_n == pytest.approx(omega, rel=1e-12)
        assert cfg.r_n == pytest.approx(1.0 / ((n - 2) * omega), rel=1e-12)
    with pytest.raises(DomainError):
        KernelConfig(2)
    with pytest.raises(DomainError):
        KernelConfig(3, -1)


# ---------------------------------------------------------------------------
# golden values
# ---------------------------------------------------------------------------


def test_fundamental_golden():
    assert fundamental(C30, [0, 0, 2]) == pytest.approx(-1 / (8 * math.pi), rel=1e-12)
    assert fundamental(C30, [0, 0, 1]) == pytest.approx(-1 / (4 * math.pi), rel=1e-12)
    assert fundamental(C40, [0, 0, 0, 1]) == pytest.approx(
        -1 / (4 * math.pi**2), rel=1e-12
    )
    with pytest.raises(SingularityError):
        fundamental(C30, [0, 0, 0])


def test_green_golden():
    assert green(C30, [0, 0, 1], [0, 0, 2]) == pytest.approx(-1 / (6 * math.pi), rel=1e-12)
    assert green(C30, [0, 0, 1], [5, 0, 0]) == 0.0
    with pytest.raises(SingularityError):
        green(C30, [0, 0, 1], [0, 0, 1])


def test_green_symmetry():
    rng = np.random.default_rng(4)
    xs = rng.uniform(-2, 2, (1000, 3))
    xs[:, -1] = np.abs(xs[:, -1]) + 1e-6
    ys = rng.uniform(-2, 2, (1000, 3))
    ys[:, -1] = np.abs(ys[:, -1]) + 1e-6
    cfg = C30
    assert np.allclose(green_values(cfg, xs, ys), green_values(cfg, ys, xs), rtol=1e-12)


def test_green_nonpositive_in_halfspace():
    rng = np.random.default_rng(5)
    xs = rng.uniform(-3, 3, (2000, 4))
    xs[:, -1] = np.abs(xs[:, -1])
    ys = rng.uniform(-3, 3, (2000, 4))
    ys[:, -1] = np.abs(ys[:, -1])
    assert np.all(green_values(C40, xs, ys) <= 0.0)


def test_poisson_golden_and_derivative_oracle():
    assert poisson(C30, [0, 0, 1], [0, 0]) == pytest.approx(1 / (2 * math.pi), rel=1e-12)
    # the kernel is the inward normal derivative of -G at the boundary;
    # one-sided second-order stencil, since G lives on the closed half-space
    x = np.array([0.7, -0.4, 1.3])
    yp = np.array([1.1, 0.5])
    h = 1e-6
    g1 = green(C30, x, np.append(yp, h))
    g2 = green(C30, x, np.append(yp, 2 * h))
    fd = -(4 * g1 - g2) / (2 * h)
    assert poisson(C30, x, yp) == pytest.approx(fd, rel=1e-6)


def test_poisson_vertical_scaling():
    # closed form is homogeneous: doubling the height on the axis divides by 2^(n-1)
    for cfg in (C30, C40):
        n = cfg.n
        top = poisson(cfg, [0.0] * (n - 1) + [2.0], [0.0] * (n - 1))
        bottom = poisson(cfg, [0.0] * (n - 1) + [1.0], [0.0] * (n - 1))
        assert top == pytest.approx(bottom / 2 ** (n - 1), rel=1e-12)


def test_modified_fundamental_golden():
    val = modified_fundamental(C31, [0, 0, 1], [0, 0, 4])
    assert val == pytest.approx(-1 / (48 * math.pi), rel=1e-12)
    # inside the unit ball the modification is the identity
    assert modified_fundamental(KernelConfig(3, 4), [0, 0, 2], [0.3, 0.2, 0.5]) == (
        pytest.approx(fundamental(C30, [-0.3, -0.2, 1.5]), rel=1e-14)
    )
    # order zero keeps the plain kernel everywhere
    assert modified_fundamental(C30, [0, 0, 2], [3, 0, 0]) == pytest.approx(
        fundamental(C30, [-3, 0, 2]), rel=1e-14
    )


def test_modified_green_golden():
    assert modified_green(C30, [0, 0, 1], [0, 0, 4]) == pytest.approx(
        -1 / (30 * math.pi), rel=1e-12
    )
    # unit-ball sources reduce to the plain Green function for every order
    for m in range(4):
        cfg = KernelConfig(3, m)
        assert modified_green(cfg, [0, 0, 2], [0.3, -0.1, 0.4]) == pytest.approx(
            green(C30, [0, 0, 2], [0.3, -0.1, 0.4]), rel=1e-13
        )
    # boundary sources vanish identically, also outside the unit ball
    assert modified_green(KernelConfig(3, 2), [0, 0, 1], [5, 0, 0]) == 0.0


def test_modified_poisson_golden():
    target = 1 / (2 * math.pi * 5**1.5) - 1 / (16 * math.pi)
    assert modified_poisson(C31, [0, 0, 1], [2, 0]) == pytest.approx(target, rel=1e-12)
    assert target < 0  # the modified kernel may go negative
    # inside the unit disk and order zero: plain kernel
    assert modified_poisson(C31, [0, 0, 1], [0.5, 0.5]) == poisson(C30, [0, 0, 1], [0.5, 0.5])
    assert modified_poisson(C30, [0, 0, 1], [2, 0]) == poisson(C30, [0, 0, 1], [2, 0])


# ---------------------------------------------------------------------------
# cross-route and batch consistency
# ---------------------------------------------------------------------------


def test_library_matches_naive_references():
    rng = np.random.default_rng(6)
    for n in (3, 4):
        for m in range(4):
            cfg = KernelConfig(n, m)
            for _ in range(100):
                x = np.append(rng.uniform(-3, 3, n - 1), rng.uniform(0.05, 3))
                yp = rng.normal(size=n - 1)
                yp *= rng.uniform(0.2, 8) / np.linalg.norm(yp)
                y = np.append(rng.uniform(-1, 1, n - 1), rng.uniform(0.05, 1))
                y *= rng.uniform(0.2, 8) / np.linalg.norm(y)
                y[-1] = abs(y[-1])
                assert modified_poisson(cfg, x, yp) == pytest.approx(
                    naive_modified_poisson(cfg, x, yp), rel=1e-10, abs=1e-300
                )
                assert modified_fundamental(cfg, x, y) == pytest.approx(
                    naive_modified_fundamental(cfg, x, y), rel=1e-10, abs=1e-300
                )
                assert modified_green(cfg, x, y) == pytest.approx(
                    naive_modified_green(cfg, x, y), rel=1e-8, abs=1e-14
                )


def test_batch_matches_scalar():
    rng = np.random.default_rng(7)
    cfg = KernelConfig(3, 2)
    x = np.array([0.4, -0.3, 0.8])
    yps = rng.normal(size=(64, 2)) * 3
    ys = rng.normal(size=(64, 3)) * 3
    ys[:, -1] = np.abs(ys[:, -1])
    assert np.allclose(
        modified_poisson_values(cfg, x, yps),
        [modified_poisson(cfg, x, yp) for yp in yps],
        rtol=1e-13,
    )
    assert np.allclose(
        modified_green_values(cfg, x, ys),
        [modified_green(cfg, x, y) for y in ys],
        rtol=1e-13,
    )
    assert np.allclose(
        modified_fundamental_values(cfg, x, ys),
        [modified_fundamental(cfg, x, y) for y in ys],
        rtol=1e-13,
    )


def test_polar_form_matches_cartesian():
    cfg = KernelConfig(3, 2)
    x = np.array([1.2, -0.5, 0.7])
    x_tan = np.linalg.norm(x[:-1])
    e = x[:-1] / x_tan
    perp = np.array([-e[1], e[0]])
    rng = np.random.default_rng(8)
    for _ in range(50):
        rho = rng.uniform(0.1, 6)
        gam = rng.uniform(0, math.pi)
        yp = rho * (math.cos(gam) * e + math.sin(gam) * perp)
        polar = modified_poisson_polar(cfg, x, rho, math.cos(gam)).item()
        assert polar == pytest.approx(modified_poisson(cfg, x, yp), rel=1e-12)


# ---------------------------------------------------------------------------
# series expansion and tail envelopes
# ---------------------------------------------------------------------------


def test_poisson_expansion_converges():
    x = np.array([0.3, 0.2, 0.5])
    yp = np.array([1.5, -1.0])
    target = poisson(C30, x, yp)
    errs = [abs(poisson_series_partial(C30, x, yp, K) - target) for K in (5, 15, 40)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-12 * abs(target)


def test_tail_envelopes_random():
    rng = np.random.default_rng(9)
    for _ in range(2000):
        n = int(rng.choice([3, 4, 5]))
        m = int(rng.integers(0, 4))
        cfg = KernelConfig(n, m)
        x = rng.normal(size=n)
        x[-1] = abs(x[-1]) + 1e-3
        x *= 10 ** rng.uniform(-1.5, 1.5) / np.linalg.norm(x)
        ry = max(1.0, 2 * np.linalg.norm(x)) * (1 + 10 ** rng.uniform(-3, 4))
        dyp = rng.normal(size=n - 1)
        yp = ry * dyp / np.linalg.norm(dyp)
        dy = rng.normal(size=n)
        dy[-1] = abs(dy[-1])
        y = ry * dy / np.linalg.norm(dy)
        assert abs(float(modified_poisson_values(cfg, x, yp))) <= poisson_tail_bound(
            cfg, x, ry
        )
        assert abs(
            float(modified_fundamental_values(cfg, x, y))
        ) <= fundamental_tail_bound(cfg, np.linalg.norm(x), ry)


# ---------------------------------------------------------------------------
# Green estimates
# ---------------------------------------------------------------------------


def test_green_bound_report_golden():
    b1, b2, ratio3 = green_bound_report(C30, [0, 0, 1], [0, 0, 2])
    g = abs(green(C30, [0, 0, 1], [0, 0, 2]))
    assert b1 == pytest.approx(1 / (4 * math.pi), rel=1e-12)
    assert b2 == pytest.approx(1 / math.pi, rel=1e-12)
    assert ratio3 == pytest.approx(3 / (4 * math.pi), rel=1e-12)
    assert g <= b1 and g <= b2


def test_green_bounds_hold_randomly():
    rng = np.random.default_rng(10)
    for n in (3, 4, 5):
        cfg = KernelConfig(n)
        xs = rng.normal(size=(2000, n))
        xs[:, -1] = np.abs(xs[:, -1]) + 1e-9
        ys = rng.normal(size=(2000, n))
        ys[:, -1] = np.abs(ys[:, -1]) + 1e-9
        g = np.abs(green_values(cfg, xs, ys))
        d2 = np.sum((xs - ys) ** 2, axis=1)
        b1 = cfg.r_n * d2 ** (-0.5 * (n - 2))
        b2 = 2 * xs[:, -1] * ys[:, -1] / (cfg.omega_n * d2 ** (0.5 * n))
        assert np.all(g <= b1)
        assert np.all(g <= b2)


def test_modified_kernels_harmonic():
    rng = np.random.default_rng(11)
    for n in (3, 4):
        for m in (0, 2):
            cfg = KernelConfig(n, m)
            yp = np.zeros(n - 1)
            yp[0] = 2.0
            y = np.zeros(n)
            y[0], y[-1] = 1.5, 0.8
            for _ in range(10):
                x = np.append(rng.uniform(-3, 3, n - 1), rng.uniform(0.5, 3.0))
                ax = np.linalg.norm(x)
                dist = np.linalg.norm(x - np.append(yp, 0.0))
                if dist < 0.75:
                    continue
                h = 2.5e-3 * min(dist, ax, 1.0)
                assert laplacian_residual(
                    lambda z: modified_poisson(cfg, z, yp), x, h
                ) <= 1e-6
                ystar = y.copy()
                ystar[-1] *= -1
                dist = min(np.linalg.norm(x - y), np.linalg.norm(x - ystar))
                if dist < 0.75:
                    continue
                h = 2.5e-3 * min(dist, ax, 1.0)
                assert laplacian_residual(
                    lambda z: modified_green(cfg, z, y), x, h
                ) <= 1e-6


# ---------------------------------------------------------------------------
# Gegenbauer tail series
# ---------------------------------------------------------------------------


def mp_tail_sum(mpmath, lam, t, q, k_start):
    """sum_{k >= k_start} C_k^lam(t) q^k as the generating function minus
    its head, in mpmath arithmetic."""
    t, q = mpmath.mpf(float(t)), mpmath.mpf(float(q))
    head = [mpmath.mpf(1), 2 * lam * t]
    for k in range(2, k_start):
        head.append((2 * (k + lam - 1) * t * head[-1] - (k + 2 * lam - 2) * head[-2]) / k)
    closed = (1 - 2 * t * q + q * q) ** (-lam)
    return closed - sum(head[k] * q**k for k in range(k_start))


def test_tail_sum_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(12)
    q = np.append(np.geomspace(1e-8, 0.5, 25), 0.0)
    for lam in (0.5, 1.0, 1.5, 2.0, 2.5):
        for k_start in range(6):
            t = rng.uniform(-1.0, 1.0, q.size)
            t[:3] = (1.0, -1.0, 0.0)
            got = gegenbauer_tail_sum(lam, t, q, k_start)
            assert got.shape == q.shape
            for ti, qi, g in zip(t, q, got):
                with mpmath.workdps(80):
                    ref = float(mp_tail_sum(mpmath, lam, ti, qi, k_start))
                scale = gegenbauer_at_one(lam, k_start) * qi**k_start
                assert abs(g - ref) <= 1e-14 * scale, (lam, k_start, ti, qi)


def _reference_tail_sum(lam, t, q, k_start, cap=400):
    """gegenbauer_tail_sum as it was with one 2-D row per leading index of
    t, kept as the reference for the interleaved layout."""
    from hpot.kernels import _tail_thresholds

    t = np.asarray(t, dtype=float)
    q = np.asarray(q, dtype=float)
    shape = np.broadcast_shapes(t.shape, q.shape)
    while q.ndim and q.shape[0] == 1:
        q = q[0]
    lead = shape[: len(shape) - q.ndim]
    q_all = np.broadcast_to(q, shape[len(lead):]).ravel()
    order = np.argsort(q_all)[::-1]
    qs = q_all[order]
    size = qs.size
    counts = size - np.searchsorted(qs[::-1], _tail_thresholds(lam, k_start, cap))
    counts = counts[: np.count_nonzero(counts)].tolist()
    last = k_start + len(counts)
    rows = math.prod(lead)
    tq = np.broadcast_to(t, shape).reshape(rows, size)[:, order]
    tq *= qs
    q2 = np.multiply(qs, qs, out=qs)
    total = np.full((rows, size), 0.0 if k_start else 1.0)
    work = np.empty((rows, size))
    p, older, newer = size, np.ones((rows, size)), 2.0 * lam * tq
    tq_p, q2_p, total_p, work_p = tq, q2, total, work
    mul = np.multiply
    for k in range(1, last + 1):
        if k > k_start and counts[k - k_start - 1] != p:
            p = counts[k - k_start - 1]
            tq_p, q2_p, total_p, work_p = tq[:, :p], q2[:p], total[:, :p], work[:, :p]
            older, newer = older[:, :p], newer[:, :p]
        if k >= 2:
            mul(older, q2_p, out=older)
            mul(older, -(k + 2.0 * lam - 2.0) / k, out=older)
            mul(tq_p, newer, out=work_p)
            mul(work_p, 2.0 * (k + lam - 1.0) / k, out=work_p)
            np.add(older, work_p, out=older)
            older, newer = newer, older
        if k >= k_start:
            np.add(total_p, newer, out=total_p)
    work[:, order] = total
    return work.reshape(shape)


def test_tail_sum_interleaved_rows_match_reference():
    # one and two rows (the pair t, t* of the Green function), q = 0 and a
    # scalar call: the same bits as the row-per-index layout
    rng = np.random.default_rng(31)
    for case in range(300):
        lam, k_start = rng.uniform(0.5, 3.0), int(rng.integers(0, 6))
        size = int(rng.integers(0, 30))
        q = rng.uniform(0.0, 0.5, size)
        q[rng.random(size) < 0.2] = 0.0
        t = rng.uniform(-1.0, 1.0, (2, size) if case % 2 else size)
        got = gegenbauer_tail_sum(lam, t, q, k_start)
        ref = _reference_tail_sum(lam, t, q, k_start)
        assert got.shape == ref.shape and np.array_equal(got, ref), (lam, k_start)
    for args in ((1.5, 0.3, 0.2, 1), (2.5, -0.4, 0.0, 0), (1.0, [[0.1], [0.2]], [0.3, 0.0], 2)):
        got, ref = gegenbauer_tail_sum(*args), _reference_tail_sum(*args)
        assert got.shape == ref.shape and np.array_equal(got, ref)


def test_tail_sum_shapes_and_elementwise_truncation():
    empty = gegenbauer_tail_sum(1.5, np.zeros(0), np.zeros(0), 1)
    assert empty.shape == (0,)
    scalar = gegenbauer_tail_sum(1.5, 0.3, 0.2, 1)
    assert scalar.shape == ()
    assert float(scalar) == pytest.approx((1 - 0.12 + 0.04) ** -1.5 - 1.0, rel=1e-14)
    assert np.array_equal(gegenbauer_tail_sum(1.5, [0.2, -0.7], 0.0, 0), [1.0, 1.0])
    assert np.array_equal(gegenbauer_tail_sum(1.5, [0.2, -0.7], 0.0, 2), [0.0, 0.0])
    # each element stops by its own q, so a broadcast batch equals its
    # elements evaluated one at a time, bit for bit
    t = np.linspace(-1.0, 1.0, 4)[:, None]
    q = np.array([[0.0, 1e-6, 0.01, 0.3, 0.5]])
    batch = gegenbauer_tail_sum(2.0, t, q, 3)
    assert batch.shape == (4, 5)
    single = [[gegenbauer_tail_sum(2.0, ti, qj, 3) for qj in q[0]] for ti in t[:, 0]]
    assert np.array_equal(batch, np.array(single))


# ---------------------------------------------------------------------------
# block evaluation
# ---------------------------------------------------------------------------


def _route_sources(rng, n, width, count, ax_max):
    """Sources whose radii cover every route for field radii up to ax_max:
    inside the unit ball, between 1 and c|x| (direct), beyond c|x| (tail),
    for both tail seams c = 2 and c = 4, with sources on each seam."""
    d = rng.normal(size=(count, width))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    if width == n:
        d[:, -1] = np.abs(d[:, -1])
        d[:4, -1] = 0.0  # boundary sources
        d[:4] /= np.linalg.norm(d[:4], axis=1, keepdims=True)
    radii = np.geomspace(0.2, 8 * ax_max, count)
    radii[-3:] = (1.0, 2.0 * ax_max, 4.0 * ax_max)
    return d * rng.permutation(radii)[:, None]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_block_rows_equal_single_point_calls(n):
    rng = np.random.default_rng(100 + n)
    xs = rng.normal(size=(9, n))
    xs[:, -1] = np.abs(xs[:, -1])
    xs *= np.geomspace(0.3, 4.0, 9)[:, None] / np.linalg.norm(xs, axis=1, keepdims=True)
    ys = _route_sources(rng, n, n, 160, 4.0)
    yps = _route_sources(rng, n, n - 1, 160, 4.0)
    ay = np.linalg.norm(ys, axis=1)
    ax = np.linalg.norm(xs, axis=1)[:, None]
    routes = [ay <= 1, (ay > 1) & (ay < 2 * ax), (ay > 1) & (ay >= 2 * ax)]
    assert all(np.any(r) for r in routes)
    # both sides of the seam |y| = 4|x| of orders 1-2
    assert all(np.any(r) for r in ((ay > 2 * ax) & (ay < 4 * ax), ay >= 4 * ax))
    for m in range(4):
        cfg = KernelConfig(n, m)
        for fn, src in (
            (modified_fundamental_values, ys),
            (modified_green_values, ys),
            (modified_poisson_values, yps),
        ):
            block = fn(cfg, xs, src)
            assert block.shape == (len(xs), len(src))
            for i, x in enumerate(xs):
                assert np.array_equal(block[i], fn(cfg, x, src)), (fn.__name__, m, i)
            assert np.array_equal(fn(cfg, xs[2:5], src), block[2:5])
            assert np.array_equal(fn(cfg, xs, src[7]), block[:, 7])
        assert np.all(modified_green_values(cfg, xs, ys[:4]) == 0.0)


# ---------------------------------------------------------------------------
# high-precision oracle at the route seams
# ---------------------------------------------------------------------------

SEAM_RTOL = 1e-11  # ceiling on the relative error; may only tighten


def mp_modified_kernel(mpmath, n, order, x, y, power):
    """amp-free plain kernel minus the first ``order`` expansion terms, with
    |x - y|^(-power) for the plain part; y may be a boundary point (n-1
    coordinates, embedded at height 0)."""
    x = [mpmath.mpf(float(v)) for v in x]
    y = [mpmath.mpf(float(v)) for v in y] + [mpmath.mpf(0)] * (len(x) - len(y))
    lam = mpmath.mpf(power) / 2
    d = mpmath.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))
    ax = mpmath.sqrt(sum(a * a for a in x))
    ay = mpmath.sqrt(sum(b * b for b in y))
    value = d ** (-power)
    if ay > 1 and order > 0:
        t = sum(a * b for a, b in zip(x, y)) / (ax * ay)
        head = [mpmath.mpf(1), 2 * lam * t]
        for k in range(2, order):
            head.append((2 * (k + lam - 1) * t * head[-1] - (k + 2 * lam - 2) * head[-2]) / k)
        value -= sum(head[k] * ax**k / ay ** (power + k) for k in range(order))
    return value


def mp_modified_poisson(mpmath, cfg, x, yp):
    omega = 2 * mpmath.pi ** (mpmath.mpf(cfg.n) / 2) / mpmath.gamma(mpmath.mpf(cfg.n) / 2)
    amp = 2 * mpmath.mpf(float(x[-1])) / omega
    return amp * mp_modified_kernel(mpmath, cfg.n, cfg.m, x, yp, cfg.n)


def mp_modified_green(mpmath, cfg, x, y):
    omega = 2 * mpmath.pi ** (mpmath.mpf(cfg.n) / 2) / mpmath.gamma(mpmath.mpf(cfg.n) / 2)
    r_n = 1 / ((cfg.n - 2) * omega)
    ystar = np.array(y, dtype=float)
    ystar[-1] = -ystar[-1]
    p = cfg.n - 2
    return -r_n * (
        mp_modified_kernel(mpmath, cfg.n, cfg.m + 1, x, y, p)
        - mp_modified_kernel(mpmath, cfg.n, cfg.m + 1, x, ystar, p)
    )


def mp_modified_fundamental(mpmath, cfg, x, y):
    omega = 2 * mpmath.pi ** (mpmath.mpf(cfg.n) / 2) / mpmath.gamma(mpmath.mpf(cfg.n) / 2)
    r_n = 1 / ((cfg.n - 2) * omega)
    return -r_n * mp_modified_kernel(mpmath, cfg.n, cfg.m, x, y, cfg.n - 2)


SEAM_EPS = (1e-12, 1e-9, 1e-6, 1e-3)


def _seam_radii(ax):
    """The unit sphere and both tail seams |y| = c|x| (c = 4 up to order 2,
    c = 2 above), probed at (1 +- eps) for every order."""
    return 1.0, 2.0 * ax, 4.0 * ax


# Sources in 2|x| < |y| < 4|x| where the modified value nearly cancels (its
# first kept term C_order(t) almost vanishes), by (kernel, n, m).  Routed
# direct (c = 4 at order 3), these read 4.1e-11 (E_3), 1.5e-12 (P_3) and
# 1.1e-11 (G_2, order 3) against mpmath; the tail route, under 4e-12.
CANCELLING_CASES = {
    (modified_fundamental_values, 5, 3): [(
        (0.1159367363324499, -0.00975323119773504, 0.3551120552919446,
         0.1433745338469135, 0.5742845278085545),
        (-0.22385856400916898, 0.8118957745545613, 0.45875313326539646,
         0.1323235874680523, 1.0132475440379645),
    )],
    (modified_poisson_values, 5, 3): [(
        (1.484911907827047, -0.5645001825253508, 0.8163011170561453,
         -0.3931996927322506, 3.170781481589223),
        (-3.045849902877212, 2.1888919659765103, 12.287631349354026, 2.433713984000723),
    )],
    (modified_green_values, 4, 2): [(
        (0.09319930023481399, -0.014168351046385693, 0.08639361008423033, 2.2307866160659566),
        (0.9712288300288104, 0.32378368869460555, -4.797345157265502, 5.221832313385776),
    )],
}


def _seam_cases(rng, n, width):
    """(x, source) pairs with |source| at 1 +- eps, 2|x| +- eps and
    4|x| +- eps; x and interior sources keep a height of at least 0.3 of
    their radius, so the Green difference of y and y* does not cancel."""
    cases = []
    for ax in (0.7, 1.6, 3.0):
        x = rng.normal(size=n)
        x[-1] = abs(x[-1]) + 0.6 * np.linalg.norm(x)
        x *= ax / np.linalg.norm(x)
        for seam in _seam_radii(ax):
            for eps in SEAM_EPS:
                for sign in (-1.0, 1.0):
                    d = rng.normal(size=width)
                    if width == n:
                        d[-1] = abs(d[-1]) + 0.6 * np.linalg.norm(d)
                    cases.append((x, d * seam * (1.0 + sign * eps) / np.linalg.norm(d)))
    return cases


@pytest.mark.parametrize("n", [3, 4, 5])
def test_route_seams_match_mpmath(n):
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(200 + n)
    for m in range(7):
        cfg = KernelConfig(n, m)
        for fn, ref, width in (
            (modified_poisson_values, mp_modified_poisson, n - 1),
            (modified_green_values, mp_modified_green, n),
            (modified_fundamental_values, mp_modified_fundamental, n),
        ):
            fixed = CANCELLING_CASES.get((fn, n, m), [])
            cases = _seam_cases(rng, n, width) + [tuple(map(np.array, c)) for c in fixed]
            xs = np.array([x for x, _ in cases])
            srcs = np.array([s for _, s in cases])
            block = fn(cfg, xs, srcs)
            for i, (x, s) in enumerate(cases):
                with mpmath.workdps(50):
                    exact = ref(mpmath, cfg, x, s)
                    for got in (float(fn(cfg, x, s)), block[i, i]):
                        err = abs((got - exact) / exact)
                        assert err <= SEAM_RTOL, (fn.__name__, m, x, s, float(err))


def test_tail_seam_moves_with_the_order():
    # |y| = 4|x| up to order 2, 2|x| above; the unit sphere stays, and at
    # order 0 every source keeps the plain kernel
    for order in range(9):
        c = 4.0 if order <= 2 else 2.0
        for ax in (0.7, 3.0):
            ay = np.array([1.0, 1.0 + 1e-12, c * ax * (1 - 1e-12), c * ax])
            tail, direct = kernels._routes(ax, ay, order)
            on = order > 0
            assert tail.tolist() == [False, False, False, on], (order, ax)
            assert direct.tolist() == [False, on, on, False], (order, ax)


# ---------------------------------------------------------------------------
# the polar grid of the boundary quadrature
# ---------------------------------------------------------------------------


def _polar_point(rng, n, ax):
    """A field point of radius ax at a height of at least 0.3 ax, with unit
    boundary vectors e along its tangential part and perp orthogonal to it."""
    x = rng.normal(size=n)
    x[-1] = abs(x[-1]) + 0.6 * np.linalg.norm(x)
    x *= ax / np.linalg.norm(x)
    e = x[:-1] / np.linalg.norm(x[:-1])
    perp = rng.normal(size=n - 1)
    perp -= np.dot(perp, e) * e
    return x, e, perp / np.linalg.norm(perp)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_polar_seams_match_mpmath(n):
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(300 + n)
    for ax in (0.7, 1.6, 3.0):
        x, e, perp = _polar_point(rng, n, ax)
        for seam in _seam_radii(ax):
            for eps in SEAM_EPS:
                for sign in (-1.0, 1.0):
                    for gam in (0.0, math.pi / 3, math.pi):
                        yp = seam * (1.0 + sign * eps) * (math.cos(gam) * e + math.sin(gam) * perp)
                        with mpmath.workdps(50):
                            # the polar coordinates of the float source, rounded once
                            mx, my = [mpmath.mpf(v) for v in x[:-1]], [mpmath.mpf(v) for v in yp]
                            rho = mpmath.sqrt(sum(v * v for v in my))
                            cos_g = sum(a * b for a, b in zip(mx, my))
                            cos_g /= rho * mpmath.sqrt(sum(v * v for v in mx))
                            for m in range(7):
                                cfg = KernelConfig(n, m)
                                exact = mp_modified_poisson(mpmath, cfg, x, yp)
                                got = modified_poisson_polar(cfg, x, float(rho), float(cos_g))
                                err = abs((got.item() - exact) / exact)
                                assert err <= SEAM_RTOL, (m, x, yp, float(err))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_polar_grid_matches_cartesian(n):
    rng = np.random.default_rng(310 + n)
    gam = np.linspace(0.0, math.pi, 9)
    for ax in (0.7, 1.5, 3.0):
        x, e, perp = _polar_point(rng, n, ax)
        # off the seams, where the Cartesian radius may round across them
        rho = np.geomspace(0.2, 8.0 * ax, 23)
        routes = [rho <= 1, (rho > 1) & (rho < 2 * ax), rho >= 2 * ax]
        assert all(np.any(r) for r in routes)
        yps = rho[:, None, None] * (np.cos(gam)[:, None] * e + np.sin(gam)[:, None] * perp)
        for m in range(4):
            cfg = KernelConfig(n, m)
            grid = modified_poisson_polar(cfg, x, rho, np.cos(gam))
            assert grid.shape == (len(rho), len(gam))
            assert grid == pytest.approx(modified_poisson_values(cfg, x, yps), rel=1e-12)


def test_polar_grid_rows_equal_one_row_calls():
    rng = np.random.default_rng(320)
    cosg = np.cos(rng.uniform(0.0, math.pi, 33))
    offset = np.empty(len(cosg) + 1)[1:]  # starts one float into its buffer
    offset[:] = cosg
    for n in (3, 4, 5):
        ax = 2.5
        x, _, _ = _polar_point(rng, n, ax)
        rho = rng.permutation(np.append(np.geomspace(0.2, 8.0 * ax, 40), [1.0, 2.0 * ax, 4.0 * ax]))
        for m in range(4):
            cfg = KernelConfig(n, m)
            grid = modified_poisson_polar(cfg, x, rho, cosg)
            assert np.array_equal(modified_poisson_polar(cfg, x, rho[:, None], cosg), grid)
            for r in range(len(rho)):
                assert np.array_equal(modified_poisson_polar(cfg, x, rho[r], cosg)[0], grid[r])
                assert np.array_equal(modified_poisson_polar(cfg, x, rho[r], offset)[0], grid[r])


def test_overflowing_kernel_powers_are_domain_errors():
    # every squared norm is finite, but a power of the kernel is not: one
    # domain error, raised before numpy warns
    cfg = KernelConfig(3, 3)
    far, x = np.array([1e110, 0.0, 1e110]), np.array([1e100, 0.0, 1e100])
    with np.errstate(over="raise", invalid="raise"):
        # |x - y|^3 with |x - y|^2 = 2e220
        with pytest.raises(DomainError, match=r"\|x - y\|\^n"):
            modified_poisson_values(cfg, far, [0.0, 0.0])
        with pytest.raises(DomainError, match=r"\|x - y\|\^n"):
            modified_poisson_polar(cfg, far, 0.5, 1.0)
        # a direct-route source radius: rho^(n+m-1) = rho^5 overflows while
        # |x - y|^3 stays finite
        with pytest.raises(DomainError, match=r"rho\^\(n\+k\)"):
            modified_poisson_polar(cfg, x, 1.5e100, 1.0)
        assert np.isfinite(modified_poisson_polar(cfg, x, [0.5, 3e100], 1.0)).all()
        # the Cartesian direct head: |y'|^(n+k) overflows for k = 1 while
        # |x - y|^3 stays finite
        with pytest.raises(DomainError, match=r"\|y\|\^\(p\+k\)"):
            modified_poisson_values(KernelConfig(3, 2), x, [1.2e100, 0.0])
        with pytest.raises(DomainError, match=r"\|y\|\^\(p\+k\)"):
            modified_green_values(cfg, x, [1.2e100, 0.0, 1e90])
