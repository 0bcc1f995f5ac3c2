"""The quadrature's block rules and the polar kernel's route order.

``ref_radial_rule`` is the per-point rule builder the block rules replaced,
kept here as a frozen reference (with the panel and far-field helpers it
called).  Every point's radii and weights of a block pass must be its
bytes.
"""
import math

import numpy as np
import pytest

import hpot.potentials as potentials
from hpot.kernels import KernelConfig, _seam, modified_poisson_polar
from hpot.measures import BoundaryData
from hpot.quadrature import _gauss_jacobi, _leggauss, refined_breakpoints


def ref_panel_nodes(breakpoints, npts):
    bs = np.asarray(breakpoints, dtype=float)
    x, w = _leggauss(npts)
    lo = bs[:-1]
    half = 0.5 * (bs[1:] - lo)
    mid = lo + half
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def ref_inverted_tail_rule(r0, npts, beta):
    x, w = _gauss_jacobi(npts, float(beta))
    rho = 2.0 * r0 / (1.0 + x)
    return rho, w * rho * (1.0 + x) ** -(beta + 1.0)


def ref_radial_rule(cfg, cx, data, order):
    xn = cx[-1]
    ax = float(np.sqrt(np.dot(cx, cx)))
    x_tan = math.sqrt(max(ax * ax - xn * xn, 0.0))
    support = data.radial_support()
    scale = data.radial_scale()
    r0 = support if support is not None else max(4.0, 4.0 * ax, 6.0 * scale, 8.0 * xn)
    anchors = []
    if x_tan > 2.0 * xn:
        anchors.append((x_tan, max(xn, 1e-9 * x_tan)))
    base = max(min(xn if xn > 0 else scale, scale), 1e-9)
    breaks = refined_breakpoints(0.0, r0, base_scale=base, anchors=anchors)
    if 0.0 < 1.0 < r0:
        breaks = sorted(set(breaks) | {1.0})
    rho, w = ref_panel_nodes(breaks, order)
    if support is None:
        far_rho, far_w = ref_inverted_tail_rule(r0, order, data.far_exponent(cfg.m))
        rho, w = np.concatenate((rho, far_rho)), np.concatenate((w, far_w))
    return rho, w


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def built_points(n, rng):
    """On the axis, far off it (x_tan > 2 x_n, anchored panels), near the
    boundary, inside and outside the unit ball, and random points."""
    def at(tan, xn):
        x = np.zeros(n)
        x[0], x[-1] = tan, xn
        return x

    pts = [at(0.0, 0.4), at(0.0, 3.0), at(2.0, 0.5), at(25.0, 0.01), at(0.3, 1e-4),
           at(0.5, 0.3), at(5.0, 7.0)]
    rand = rng.normal(size=(24, n)) * rng.uniform(0.05, 40.0, (24, 1))
    rand[:, -1] = np.abs(rand[:, -1]) * rng.uniform(0.01, 1.0, 24) + 1e-3
    return np.vstack([np.array(pts), rand])


DATA = {
    "power_growth": lambda n, m: BoundaryData.power_growth(n - 1, m + 0.5),
    "gaussian_bump": lambda n, m: BoundaryData.gaussian_bump(n - 1, 1.0, 0.6),
    "indicator_ball_0.6": lambda n, m: BoundaryData.indicator_ball(n - 1, 0.6),
    "indicator_ball_2": lambda n, m: BoundaryData.indicator_ball(n - 1, 2.0),
}


@pytest.mark.parametrize("family", sorted(DATA))
@pytest.mark.parametrize("n", [3, 4, 5])
def test_block_rules_are_the_per_point_rules(n, family):
    rng = np.random.default_rng(700 + n)
    pts = built_points(n, rng)
    for m in range(4):
        cfg, data = KernelConfig(n, m), DATA[family](n, m)
        panels = potentials._rule_panels(cfg, pts, data)
        # R0 lies on each side of the unit sphere across the families
        assert (panels.r0 is None) == (data.radial_support() is not None)
        for order in (12, 16, 24, 32):
            rho, wr, _ = potentials._pass_rules(cfg, data, panels, order)
            sizes = panels.sizes(order)
            assert rho.size == sizes.sum()
            r_at = np.append(0, np.cumsum(sizes))
            for p, cx in enumerate(pts):
                want = ref_radial_rule(cfg, cx, data, order)
                got = (rho[r_at[p] : r_at[p + 1]], wr[r_at[p] : r_at[p + 1]])
                for g, w in zip(got, want):
                    assert _bits(g) == _bits(w), (m, order, cx)
        # the panels of a subset of the points are those points' panels
        keep = rng.random(len(pts)) < 0.5
        sub = potentials._pass_rules(cfg, data, panels.take(keep), 16)
        alone = potentials._rule_panels(cfg, pts[keep], data)
        alone = potentials._pass_rules(cfg, data, alone, 16)
        assert all(_bits(a) == _bits(b) for a, b in zip(sub, alone))


def test_quadrature_rows_come_in_route_order():
    # each point's radii ascend on [0, R0] and its far panel lies on the
    # tail route
    rng = np.random.default_rng(704)
    for n, m in ((3, 1), (4, 2), (5, 3)):
        cfg = KernelConfig(n, m)
        pts = built_points(n, rng)
        for data in (BoundaryData.power_growth(n - 1, 0.5),
                     BoundaryData.indicator_ball(n - 1, 2.0)):
            panels = potentials._rule_panels(cfg, pts, data)
            rho = potentials._pass_rules(cfg, data, panels, 12)[0]
            sizes = panels.sizes(12)
            ax = np.repeat(np.sqrt([np.dot(cx, cx) for cx in pts]), sizes)
            route = (rho > 1.0).astype(int) + ((rho > 1.0) & (rho >= _seam(m) * ax))
            owner = np.repeat(np.arange(len(pts)), sizes)
            key = 3 * owner + route
            assert np.all(key[1:] >= key[:-1])


@pytest.mark.parametrize("m", range(5))
def test_polar_rows_out_of_route_order(m):
    # rows shuffled across the routes, with rho exactly 1, exactly c|x| and
    # a far row, give the route-ordered call's rows, byte for byte
    rng = np.random.default_rng(710 + m)
    cosg = np.cos(rng.uniform(0.0, math.pi, 29))
    for n in (3, 4, 5):
        cfg = KernelConfig(n, m)
        x = rng.normal(size=n)
        x[-1] = abs(x[-1]) + 0.5
        x *= 1.7 / np.linalg.norm(x)
        ax = float(np.sqrt(np.dot(x, x)))
        c = _seam(m)
        rho = np.concatenate((np.geomspace(0.05, 6.0 * c * ax, 37), [1.0, c * ax, 1e4 * ax]))
        ordered = np.sort(rho)
        want = modified_poisson_polar(cfg, x, ordered, cosg)
        for _ in range(3):
            perm = rng.permutation(len(rho))
            got = modified_poisson_polar(cfg, x, ordered[perm], cosg)
            assert _bits(got) == _bits(want[perm]), (n, m)
