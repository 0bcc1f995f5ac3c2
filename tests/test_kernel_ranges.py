"""The column-range evaluation of the Cartesian kernels against the mask
evaluation it replaced, kept here as the reference (as the tail series keeps
``_reference_tail_sum``): every block, and every atom sum, must be the same
bytes, and a block that raises must raise the same error."""
import numpy as np
import pytest

from hpot import kernels, potentials
from hpot.errors import DomainError, SingularityError
from hpot.geometry import as_rows, squared_norms
from hpot.kernels import (
    KernelConfig,
    _finite_powers,
    _green_closed_form,
    _poisson_closed_form,
    gegenbauer_tail_sum,
    modified_fundamental_values,
    modified_green_values,
    modified_poisson_values,
)
from hpot.gegenbauer import recurrence_ladder

# ---------------------------------------------------------------------------
# the reference: the kernels evaluated by masks over every pair of a block
# ---------------------------------------------------------------------------


def _ref_pairs(x, sources, n, width):
    xs, single = as_rows(x, n)
    ys = np.asarray(sources, dtype=float)
    shape = xs.shape[: 0 if single else 1] + ys.shape[:-1]
    ys = ys.reshape(-1, width)
    ax = np.sqrt(squared_norms(xs))[:, None]
    ay = np.sqrt(squared_norms(ys, "source"))
    d2, dots, tmp = (np.zeros((len(xs), len(ys))) for _ in range(3))
    for j in range(width):
        xj, yj = xs[:, j, None], ys[:, j]
        np.subtract(xj, yj, out=tmp)
        tmp *= tmp
        d2 += tmp
        np.multiply(xj, yj, out=tmp)
        dots += tmp
    return xs, ys, shape, d2, dots, ax, ay


def _ref_cos(dots, ax, ay):
    denom = ax * ay
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(denom > 0.0, dots / np.where(denom > 0.0, denom, 1.0), 0.0)
    return np.clip(t, -1.0, 1.0)


def _ref_routes(ax, ay, order):
    c = 4.0 if order <= 2 else 2.0
    outer, far = (ay > 1.0) & (order > 0), ay >= c * ax
    return outer & far, outer & ~far


def _ref_modify(plain, lam, ax, ay, t, order, power, amp):
    shape = plain.shape
    out = plain.ravel()
    ax, ay, amp = (np.broadcast_to(a, shape).ravel() for a in (ax, ay, amp))
    tail, direct = (np.flatnonzero(r) for r in _ref_routes(ax, ay, order))
    t = np.broadcast_to(t, t.shape[:1] + shape).reshape(len(t), -1)
    pair = len(t) == 2
    if tail.size:
        ayt = ay[tail]
        s = gegenbauer_tail_sum(lam, t[:, tail], ax[tail] / ayt, order)
        s = s[0] - s[1] if pair else s[0]
        out[tail] = amp[tail] * ayt ** (-float(power)) * s
    first = 1 if pair else 0
    if order > first and direct.size:
        axd, ayd = ax[direct], ay[direct]
        ladder = recurrence_ladder(lam, order - 1, t[:, direct])
        ladder = ladder[:, 0] - ladder[:, 1] if pair else ladder[:, 0]
        head = np.zeros(axd.shape)
        for k in range(first, order):
            xk = _finite_powers(axd, k, "|x|^k")
            head += xk * ladder[k] / _finite_powers(ayd, power + float(k), "|y|^(p+k)")
        out[direct] -= amp[direct] * head
    return out.reshape(shape)


def ref_fundamental(cfg, x, ys):
    _, _, shape, d2, dots, ax, ay = _ref_pairs(x, ys, cfg.n, cfg.n)
    if np.any(d2 == 0.0):
        raise SingularityError("modified fundamental solution evaluated at x = y")
    out = -cfg.r_n * d2 ** (0.5 * (2 - cfg.n))
    if cfg.m:
        t = _ref_cos(dots, ax, ay)[None]
        out = _ref_modify(out, 0.5 * (cfg.n - 2), ax, ay, t, cfg.m, cfg.n - 2, -cfg.r_n)
    return out.reshape(shape)[()]


def ref_green(cfg, x, ys):
    xs, ys, shape, d2, dots, ax, ay = _ref_pairs(x, ys, cfg.n, cfg.n)
    xn, yn = xs[:, -1:], ys[:, -1]
    out = _green_closed_form(cfg, d2, 4.0 * xn * yn)
    if cfg.m:
        t = np.stack([_ref_cos(dots, ax, ay), _ref_cos(dots - 2.0 * yn * xn, ax, ay)])
        out = _ref_modify(out, 0.5 * (cfg.n - 2), ax, ay, t, cfg.m + 1, cfg.n - 2, -cfg.r_n)
    return out.reshape(shape)[()]


def ref_poisson(cfg, x, yps):
    xs, _, shape, d2, dots, ax, ay = _ref_pairs(x, yps, cfg.n, cfg.n - 1)
    xn = xs[:, -1:]
    if cfg.m == 0:
        return _poisson_closed_form(cfg, xn, d2 + xn * xn).reshape(shape)[()]
    tail, _ = _ref_routes(ax, ay, cfg.m)
    # the closed form of a tail pair is overwritten, so it may overflow
    r2 = d2 + xn * xn
    if np.any(r2 <= 0.0):
        raise SingularityError("Poisson kernel evaluated at its boundary source")
    out = 2.0 * xn / (cfg.omega_n * _finite_powers(r2, 0.5 * cfg.n, "|x - y|^n", ~tail))
    t = _ref_cos(dots, ax, ay)[None]
    out = _ref_modify(out, 0.5 * cfg.n, ax, ay, t, cfg.m, cfg.n, 2.0 * xn / cfg.omega_n)
    return out.reshape(shape)[()]


KERNELS = (
    (modified_fundamental_values, ref_fundamental, 0),
    (modified_green_values, ref_green, 0),
    (modified_poisson_values, ref_poisson, 1),
)

# ---------------------------------------------------------------------------
# the built set
# ---------------------------------------------------------------------------


def _field_points(n):
    """Rows with exact norms: the origin, points on the boundary plane, and
    interior points; |x| = 0.75, 1.25 and 5 * 2^-3 keep 2|x| and 4|x| exact."""
    rows = np.zeros((6, n))
    rows[1, -1] = 0.75
    rows[2, 0], rows[2, 1] = 0.375, 0.5  # on the boundary plane, |x| = 0.625
    rows[3, 0], rows[3, -1] = 0.75, 1.0  # |x| = 1.25
    rows[4, 1] = 3.0  # on the boundary plane
    rows[5, -1] = 20.0
    return rows


def _sources(rng, n, width, count):
    """Shuffled sources in every route with tied radii, and sources at
    exactly |y| = 1 and |y| = c|x| (c = 2, 4) for the field points above."""
    d = rng.normal(size=(count, width))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    if width == n:
        d[:, -1] = np.abs(d[:, -1])
    ys = d * np.geomspace(0.2, 200.0, count)[:, None]
    quarter = count // 4
    ys[-quarter:] = ys[quarter : 2 * quarter]  # tied radii
    exact = [1.0, 1.5, 3.0, 1.25, 2.5, 5.0, 6.0, 12.0, 40.0, 80.0]
    for i, r in enumerate(exact):
        ys[i] = 0.0
        ys[i, i % width] = r  # axis-aligned: the norm is r exactly
        ys[len(exact) + i] = -ys[i] if width < n else ys[i]
    return ys[rng.permutation(count)]


def _paths(monkeypatch):
    """Count the column-range block evaluations."""
    counts = {"range": 0}
    inner = kernels._range_values

    def counted(*args):
        counts["range"] += 1
        return inner(*args)

    monkeypatch.setattr(kernels, "_range_values", counted)
    return counts


def _same(got, ref):
    return np.shape(got) == np.shape(ref) and np.asarray(got).tobytes() == np.asarray(ref).tobytes()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_blocks_equal_the_mask_reference(n, monkeypatch):
    rng = np.random.default_rng(700 + n)
    counts = _paths(monkeypatch)
    xs = _field_points(n)
    for m in range(7):
        cfg = KernelConfig(n, m)
        for fn, ref, drop in KERNELS:
            width = n - drop
            # few rows against many sources: large groups
            wide = _sources(rng, n, width, 3000)
            # many rows against few sources: small groups
            many = np.repeat(xs, 200, axis=0) * rng.uniform(0.5, 2.0, (1200, 1))
            few = _sources(rng, n, width, 24)
            cases = [(xs[:3], wide), (xs[3:], wide), (many, few), (xs, wide[:1]), (xs[2], wide)]
            for rows, src in cases:
                got, want = fn(cfg, rows, src), ref(cfg, rows, src)
                assert _same(got, want), (fn.__name__, n, m, rows.shape, src.shape)
    assert counts["range"] > 0


def test_forced_paths_equal_the_reference():
    # random shapes
    rng = np.random.default_rng(710)
    for case in range(60):
        n, m = int(rng.integers(3, 6)), int(rng.integers(0, 7))
        cfg = KernelConfig(n, m)
        rows = rng.normal(size=(int(rng.integers(1, 9)), n))
        rows[:, -1] = np.abs(rows[:, -1])
        rows *= np.exp(rng.uniform(-2.0, 3.0, (len(rows), 1)))
        for fn, ref, drop in KERNELS:
            src = _sources(rng, n, n - drop, int(rng.integers(24, 90)))
            if case % 2:
                src = src[np.argsort(np.linalg.norm(src, axis=1), kind="stable")]
            assert _same(fn(cfg, rows, src), ref(cfg, rows, src)), (fn.__name__, n, m)


def test_atom_sums_equal_row_sums_in_radius_order(monkeypatch):
    # each point's sum is its kernel row against the sources sorted by
    # radius (a stable sort), times the weights in that order, summed alone
    counts = _paths(monkeypatch)
    rng = np.random.default_rng(720)
    cfg = KernelConfig(3, 2)
    pts = np.abs(rng.normal(size=(40, 3))) * rng.uniform(0.2, 30.0, (40, 1))
    for (fn, ref, drop), kind in zip(KERNELS[1:], ("green", "poisson")):
        for count in (5000, 24):
            src = _sources(rng, 3, 3 - drop, count)
            w = rng.uniform(-1.0, 1.0, count)
            perm = np.argsort(np.sqrt(squared_norms(src, "source")), kind="stable")
            got = potentials._atom_sum(cfg, pts, kind, src, w)
            for kernel in (fn, ref):
                want = [np.sum(kernel(cfg, p, src[perm]) * w[perm]) for p in pts]
                assert _same(got, np.array(want)), (kernel.__name__, count)
    assert counts["range"] > 0


def test_failing_block_raises_the_reference_error(monkeypatch):
    # row 0 has a direct source whose |y'|^(n+k) overflows; row 1 sits on a
    # boundary source.  The reference checks the closed form on every pair
    # first, so the singular pair is the error, whichever path starts.
    counts = _paths(monkeypatch)
    cfg = KernelConfig(3, 2)
    rows = np.array([[1e100, 0.0, 1e100], [0.5, 0.0, 0.0]])
    src = np.random.default_rng(730).uniform(-3.0, 3.0, (4000, 2))
    src[17], src[2500] = (1.2e100, 0.0), (0.5, 0.0)
    with pytest.raises(SingularityError) as want:
        ref_poisson(cfg, rows, src)
    with pytest.raises(SingularityError) as got:
        modified_poisson_values(cfg, rows, src)
    assert str(got.value) == str(want.value)
    assert counts["range"] == 1
    # without the singular row, the overflow is the error on both paths
    with pytest.raises(DomainError, match=r"\|y\|\^\(p\+k\)"):
        modified_poisson_values(cfg, rows[:1], src)
    with pytest.raises(DomainError, match=r"\|y\|\^\(p\+k\)"):
        ref_poisson(cfg, rows[:1], src)
