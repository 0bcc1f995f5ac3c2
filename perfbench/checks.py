"""Reference checks that decide which operations failed.

They run outside the timed region on the output of the first (warm-up)
sequence; later sequences must reproduce that output byte for byte.  The
references use only the generated inputs and independent code:

* kernel sums against mpmath at 30 digits, tolerance 1e-10 of sum |w K|;
* Dirichlet points: ``converged`` on every point, and a nested
  ``scipy.integrate.quad`` of the Poisson integral on a few points per family;
* coverings against their own certificate: weighted sum within the bound,
  every sampled member of the exceptional set inside a ball, and the
  pre-inflation balls of a shell pairwise disjoint;
* LP optima against ``scipy.optimize.linprog`` (HiGHS).

Each ``check_*`` returns ``(failed, notes, props)``: failed operations per
call label, human-readable reasons, and input properties for the report.
"""
from __future__ import annotations

import json
import math
import warnings

import numpy as np

KERNEL_RTOL = 1e-10  # of sum |w K|
REFERENCE_POINTS = 2  # per Dirichlet family or superposition; twice that per growth scan
LP_RTOL = 1e-6


def parse_values_csv(text, n):
    """(points, values) from ``x_1..x_n,value`` CSV text."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    if header != [f"x_{i}" for i in range(1, n + 1)] + ["value"]:
        raise ValueError(f"unexpected header {lines[0]!r}")
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]]).reshape(-1, n + 1)
    return rows[:, :n], rows[:, n]


# ---------------------------------------------------------------------------
# independent kernels
# ---------------------------------------------------------------------------


def sphere_area(d):
    """Surface area of the unit sphere S^(d-1) in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _gegenbauer(lam, kmax, t):
    """C_0..C_kmax of order lam at t by the three-term recurrence."""
    out = [t * 0 + 1]
    if kmax >= 1:
        out.append(2 * lam * t)
    for k in range(2, kmax + 1):
        out.append((2 * (k + lam - 1) * t * out[k - 1] - (k + 2 * lam - 2) * out[k - 2]) / k)
    return out


class MpKernels:
    """P_m and G_m from their definitions, in mpmath at 30 digits.

    P_m(x, y') = P(x, y') - (2 x_n / omega_n) sum_{k<m} C_k^{n/2}(t) |x|^k / |y'|^(n+k)
    G_m(x, y)  = G(x, y) + r_n sum_{k<=m} (C_k(t) - C_k(t*)) |x|^k / |y|^(n-2+k),
    both corrections applied only for sources outside the unit ball, with
    G(x, y) = r_n (|x - y*|^(2-n) - |x - y|^(2-n)) and C_k of order (n-2)/2.
    """

    def __init__(self, n, m):
        import mpmath

        self.mp = mpmath.mp
        self.mp.dps = 30
        self.n, self.m = n, m
        mpf = self.mp.mpf
        self.omega = 2 * self.mp.pi ** (mpf(n) / 2) / self.mp.gamma(mpf(n) / 2)
        self.r_n = 1 / ((n - 2) * self.omega)

    def vec(self, v):
        return [self.mp.mpf(float(c)) for c in v]

    def half_power(self, v, twice):
        """v ** (twice / 2) by an integer power and at most one square root."""
        out = v ** (abs(twice) // 2)
        if twice % 2:
            out *= self.mp.sqrt(v)
        return out if twice >= 0 else 1 / out

    def poisson(self, x, yp):
        mp, n, m = self.mp, self.n, self.m
        xn = x[-1]
        d2 = sum((a - b) ** 2 for a, b in zip(x[:-1], yp)) + xn * xn
        val = 2 * xn / (self.omega * self.half_power(d2, n))
        ay = mp.sqrt(sum(c * c for c in yp))
        if m == 0 or ay <= 1:
            return val
        ax = mp.sqrt(sum(c * c for c in x))
        t = sum(a * b for a, b in zip(x[:-1], yp)) / (ax * ay)
        ck = _gegenbauer(mp.mpf(n) / 2, m - 1, t)
        corr = sum(ck[k] * ax**k / ay ** (n + k) for k in range(m))
        return val - 2 * xn / self.omega * corr

    def green(self, x, y):
        mp, n, m = self.mp, self.n, self.m
        ystar = y[:-1] + [-y[-1]]
        d2 = sum((a - b) ** 2 for a, b in zip(x, y))
        ds2 = sum((a - b) ** 2 for a, b in zip(x, ystar))
        val = self.r_n * (self.half_power(ds2, 2 - n) - self.half_power(d2, 2 - n))
        ay = mp.sqrt(sum(c * c for c in y))
        if ay <= 1:
            return val
        ax = mp.sqrt(sum(c * c for c in x))
        t = sum(a * b for a, b in zip(x, y)) / (ax * ay)
        ts = sum(a * b for a, b in zip(x, ystar)) / (ax * ay)
        lam = mp.mpf(n - 2) / 2
        ck, cs = _gegenbauer(lam, m, t), _gegenbauer(lam, m, ts)
        corr = sum((ck[k] - cs[k]) * ax**k / ay ** (n - 2 + k) for k in range(1, m + 1))
        return val + self.r_n * corr

    def potential(self, x, boundary=None, measure=None):
        """(value, sum |w K|) at x for boundary atoms and/or measure atoms,
        each given as (mp point list, mp weight list)."""
        xs = self.vec(x)
        total, scale = self.mp.mpf(0), self.mp.mpf(0)
        for sources, kernel in ((boundary, self.poisson), (measure, self.green)):
            if sources is None:
                continue
            for y, w in zip(*sources):
                term = w * kernel(xs, y)
                total += term
                scale += abs(term)
        return float(total), float(scale)


# ---------------------------------------------------------------------------
# Dirichlet: convergence on every point, nested quad on a sample
# ---------------------------------------------------------------------------


def _radial_profile(family, params):
    if family == "power_growth":
        return lambda r: (1.0 + r * r) ** (0.5 * params["s"])
    if family == "gaussian_bump":
        return lambda r: params["c"] * math.exp(-0.5 * (r / params["sigma"]) ** 2)
    return lambda r: 1.0 if r <= params["R"] else 0.0


def poisson_integral_quad(family, params, n, m, x):
    """(value, L1 mass) of the Poisson integral of a radial family at x by
    nested adaptive quadrature in the boundary radius and polar angle."""
    from scipy.integrate import IntegrationWarning, quad

    f = _radial_profile(family, params)
    xn = float(x[-1])
    ax = float(np.linalg.norm(x))
    x_tan = math.sqrt(max(ax * ax - xn * xn, 0.0))
    omega = sphere_area(n)
    ang_area = sphere_area(n - 2)
    lam = 0.5 * n

    def kernel(rho, gam):
        cg = math.cos(gam)
        d2 = ax * ax - 2.0 * x_tan * rho * cg + rho * rho
        val = 2.0 * xn / (omega * d2 ** (0.5 * n))
        if m and rho > 1.0:
            ck = _gegenbauer(lam, m - 1, x_tan * cg / ax)
            val -= 2.0 * xn / omega * sum(ck[k] * ax**k / rho ** (n + k) for k in range(m))
        return val * math.sin(gam) ** (n - 3)

    def integral(absolute, rtol):
        def inner(rho):
            g = (lambda gam: abs(kernel(rho, gam))) if absolute else (lambda gam: kernel(rho, gam))
            v = quad(g, 0.0, math.pi, epsabs=0.0, epsrel=0.1 * rtol, limit=200)[0]
            weight = abs(f(rho)) if absolute else f(rho)
            return weight * rho ** (n - 2) * ang_area * v

        if family == "indicator_ball":
            ends = [params["R"]]
        else:
            ends = [max(4.0 * ax, 8.0), math.inf]
        cuts = sorted({0.0, 1.0, x_tan, 2.0 * ax} | set(ends))
        cuts = [c for c in cuts if c <= ends[-1]]
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            if b > a:
                total += quad(inner, a, b, epsabs=0.0, epsrel=rtol, limit=400)[0]
        return total

    # the L1 mass only sets the tolerance scale, so it needs few digits
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return integral(False, 1e-9), integral(True, 1e-4)


def check_dirichlet(plan, texts):
    from hpot.kernels import KernelConfig
    from hpot.measures import BoundaryData
    from hpot.potentials import PotentialField, eval_dirichlet_detailed

    failed, notes = {}, []
    unconverged = 0
    worst = 0.0
    for s in plan.inputs["sets"]:
        label, n, m, pts = s["label"], s["n"], s["m"], s["points"]
        if label not in texts:
            continue
        got_pts, vals = parse_values_csv(texts[label], n)
        if got_pts.shape != pts.shape or not np.array_equal(got_pts, pts):
            failed[label] = len(pts)
            notes.append(f"{label}: output rows do not echo the input points")
            continue
        bad = ~np.isfinite(vals)
        data = BoundaryData.from_json_dict(
            {"dimension": n - 1, "kind": "family", "family": {"id": s["family"], "params": s["params"]}}
        )
        field = PotentialField(KernelConfig(n, m), data, "dirichlet")
        for i, x in enumerate(pts):
            v, meta = eval_dirichlet_detailed(field, x)
            if not meta.get("converged", False):
                unconverged += 1
                bad[i] = True
            if v != vals[i]:
                bad[i] = True
                notes.append(f"{label}[{i}]: detailed value {v!r} differs from CLI {vals[i]!r}")
        for i in range(min(REFERENCE_POINTS, len(pts))):
            ref, l1 = poisson_integral_quad(s["family"], s["params"], n, m, pts[i])
            # documented targets: 1e-8 of max(|v|, 1e-3 L1) plus 1e-9 L1 of tail
            tol = 10.0 * (1e-8 * max(abs(ref), 1e-3 * l1) + 1e-9 * l1)
            err = abs(vals[i] - ref)
            worst = max(worst, err / tol)
            if not err <= tol:
                bad[i] = True
                notes.append(f"{label}[{i}]: {vals[i]!r} vs quad {ref!r} (tol {tol:.3g})")
        failed[label] = int(bad.sum())
    props = {"unconverged": unconverged, "quad_worst_err_over_tol": worst}
    return failed, notes, props


# ---------------------------------------------------------------------------
# superposition: mpmath kernel sums on a sample of points
# ---------------------------------------------------------------------------


def check_superposition(plan, texts):
    inp = plan.inputs
    pts = inp["points"]
    label = plan.calls[0].label
    if label not in texts:
        return {}, [], {}
    got_pts, vals = parse_values_csv(texts[label], inp["n"])
    if got_pts.shape != pts.shape or not np.array_equal(got_pts, pts):
        return {label: len(pts)}, [f"{label}: output rows do not echo the input points"], {}
    bad = ~np.isfinite(vals)
    mk = MpKernels(inp["n"], inp["m"])
    boundary = ([mk.vec(p) for p in inp["boundary"][0]], mk.vec(inp["boundary"][1]))
    measure = ([mk.vec(p) for p in inp["measure"][0]], mk.vec(inp["measure"][1]))
    notes, worst = [], 0.0
    for i in range(min(REFERENCE_POINTS, len(pts))):
        ref, scale = mk.potential(pts[i], boundary, measure)
        err = abs(vals[i] - ref)
        worst = max(worst, err / (KERNEL_RTOL * scale))
        if not err <= KERNEL_RTOL * scale:
            bad[i] = True
            notes.append(f"{label}[{i}]: {vals[i]!r} vs mpmath {ref!r}")
    return {label: int(bad.sum())}, notes, {"mpmath_worst_err_over_tol": worst}


# ---------------------------------------------------------------------------
# exceptional pipeline: covering certificate, growth rows, LP optima
# ---------------------------------------------------------------------------


def shell_lattice(k, delta, dim):
    lo, hi = 2.0**k, 2.0 ** (k + 1)
    h = delta * 2.0**k
    j = np.arange(-math.ceil(hi / h), math.ceil(hi / h) + 1) * h
    grid = np.stack(np.meshgrid(*([j] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    r = np.linalg.norm(grid, axis=1)
    return grid[(r >= lo) & (r < hi)]


def exceptional_members(points, masses, beta, lam, xs, chunk=256):
    """Rows of xs (all with |x| >= 2) at which the fractional maximal
    function sup_r mu(B(x, r)) / r^beta exceeds lam / |x|^beta."""
    out = np.zeros(len(xs), dtype=bool)
    for a in range(0, len(xs), chunk):
        x = xs[a:a + chunk]
        d = np.linalg.norm(x[:, None, :] - points[None, :, :], axis=-1)
        order = np.argsort(d, axis=1)
        d = np.take_along_axis(d, order, axis=1)
        cum = np.cumsum(masses[order], axis=1)
        r = np.linalg.norm(x, axis=1)[:, None]
        with np.errstate(divide="ignore"):
            hit = (cum > lam * (d / r) ** beta) & (d > 0.0)
        out[a:a + chunk] = hit.any(axis=1) | ((d[:, 0] == 0.0) & (beta > 0))
    return out


def _check_covering(inp, text):
    obj = json.loads(text)
    centers = np.array([b["center"] for b in obj["balls"]], dtype=float).reshape(-1, inp["n"])
    radii = np.array([b["radius"] for b in obj["balls"]], dtype=float)
    pts, masses = inp["measure"]
    beta, lam = inp["beta"], inp["lam"]
    notes = []
    bound = 3.0 * math.fsum(masses) * 5.0**beta / lam
    if not math.isclose(obj["bound"], bound, rel_tol=1e-12):
        notes.append(f"covering bound {obj['bound']!r} != {bound!r}")
    cnorm = np.linalg.norm(centers, axis=1)
    weighted = math.fsum((radii / cnorm) ** beta)
    if not math.isclose(obj["weighted_sum"], weighted, rel_tol=1e-9, abs_tol=1e-300):
        notes.append(f"weighted sum {obj['weighted_sum']!r} != recomputed {weighted!r}")
    if not obj["weighted_sum"] <= obj["bound"]:
        notes.append("weighted sum exceeds the certified bound")
    lattice_total, member_total, per_shell = 0, 0, {}
    for k in inp["shells"]:
        grid = shell_lattice(k, inp["grid_delta"], inp["n"])
        grid = grid[np.linalg.norm(grid, axis=1) >= 2.0]
        members = grid[exceptional_members(pts, masses, beta, lam, grid)]
        lattice_total += len(grid)
        member_total += len(members)
        in_shell = (cnorm >= 2.0**k) & (cnorm < 2.0 ** (k + 1))
        per_shell[k] = {"lattice": len(grid), "members": len(members), "balls": int(in_shell.sum())}
        for a in range(0, len(members), 512):
            d = np.linalg.norm(members[a:a + 512, None, :] - centers[None, :, :], axis=-1)
            if len(centers) == 0 or not np.all((d < radii[None, :]).any(axis=1)):
                notes.append(f"shell {k}: a sampled member lies outside every ball")
                break
        c, r = centers[in_shell], radii[in_shell] / 5.0
        if len(c) > 1:
            gap = np.linalg.norm(c[:, None, :] - c[None, :, :], axis=-1) - (r[:, None] + r[None, :])
            np.fill_diagonal(gap, 0.0)
            if gap.min() < -1e-12 * float(np.max(cnorm)):
                notes.append(f"shell {k}: pre-inflation balls overlap")
    props = {"lattice_points": lattice_total, "members": member_total,
             "balls": len(radii), "per_shell": per_shell}
    return notes, props, (centers, radii)


def _growth_rays(seed, count, n):
    """The ray directions ``hpot growth --seed`` draws (same rejection rule)."""
    rng = np.random.default_rng(seed)
    rays = []
    while len(rays) < count:
        d = rng.normal(size=n)
        d[-1] = abs(d[-1])
        norm = float(np.linalg.norm(d))
        if norm == 0.0 or d[-1] / norm < 0.05:
            continue
        rays.append(d / norm)
    return rays


def _check_growth(inp, text, balls):
    n, m, alpha = inp["n"], inp["growth_m"], inp["alpha"]
    lines = text.strip().splitlines()
    expected = [(i, float(rho), rho * d) for i, d in enumerate(_growth_rays(inp["growth_seed"], inp["rays"], n))
                for rho in inp["radii"]]
    if lines[0] != "ray_index,radius,ratio,in_G" or len(lines) - 1 != len(expected):
        return len(expected), ["growth scan: wrong header or row count"]
    centers, radii = balls
    bad = np.zeros(len(expected), dtype=bool)
    ratios = np.empty(len(expected))
    for j, (ln, (i, rho, x)) in enumerate(zip(lines[1:], expected)):
        cells = ln.split(",")
        ratios[j] = float(cells[2])
        inside = bool(len(radii)) and bool((np.linalg.norm(centers - x, axis=1) < radii).any())
        if int(cells[0]) != i or float(cells[1]) != rho or not math.isfinite(ratios[j]) \
                or int(cells[3]) != int(inside):
            bad[j] = True
    notes = []
    mk = MpKernels(n, m)
    boundary = ([mk.vec(p) for p in inp["boundary"][0]], mk.vec(inp["boundary"][1]))
    measure = ([mk.vec(p) for p in inp["measure"][0]], mk.vec(inp["measure"][1]))
    sample = np.linspace(0, len(expected) - 1, 2 * REFERENCE_POINTS).astype(int)
    for j in sample:
        x = expected[j][2]
        ref, scale = mk.potential(x, boundary, measure)
        denom = x[-1] ** (1.0 - alpha) * np.linalg.norm(x) ** (m + alpha)
        if not abs(ratios[j] - abs(ref) / denom) <= KERNEL_RTOL * scale / denom:
            bad[j] = True
            notes.append(f"growth row {j}: ratio {ratios[j]!r} vs mpmath {abs(ref) / denom!r}")
    if bad.any():
        notes.append(f"growth scan: {int(bad.sum())} rows fail their checks")
    return int(bad.sum()), notes


def lp_reference(A, c):
    from scipy.optimize import linprog

    res = linprog(c, A_ub=-A, b_ub=-np.ones(A.shape[0]), bounds=(0, None), method="highs")
    if res.status != 0:
        raise ValueError(f"linprog failed: {res.message}")
    return float(res.fun)


def boundary_lp(e_points, nodes, weights):
    n = e_points.shape[1]
    diff = e_points[:, None, :-1] - nodes[None, :, :]
    d2 = np.sum(diff * diff, axis=-1) + e_points[:, None, -1] ** 2
    return d2 ** (-0.5 * n) * weights[None, :]


def halfspace_lp(e_points, nodes, weights):
    n = e_points.shape[1]
    d = np.linalg.norm(e_points[:, None, :] - nodes[None, :, :], axis=-1)
    return d ** (1.0 - n) * weights[None, :]


def _lp_close(value, ref):
    return abs(value - ref) <= LP_RTOL * max(abs(ref), 1e-300)


def _check_thinness(inp, kind, text, lp_sizes):
    from hpot.capacity import membership_from_spec, shell_samples, window_nodes
    from hpot.kernels import KernelConfig

    cfg = KernelConfig(inp["n"])
    report = json.loads(text)
    member = membership_from_spec({"shape": "cone", "aperture": inp["aperture"]})
    exponent = cfg.n if kind == "boundary" else cfg.n - 1
    build = boundary_lp if kind == "boundary" else halfspace_lp
    terms = report["terms"]
    if [t["i"] for t in terms] != list(range(1, inp["imax"] + 1)):
        return inp["imax"], [f"thinness {kind}: wrong terms"]
    failed, notes = 0, []
    for t in terms:
        i = t["i"]
        pts = shell_samples(member, i, cfg, inp["e_samples"])
        ok = t["weight"] == 2.0 ** (-i * exponent) and t["product"] == t["weight"] * t["capacity"]
        if len(pts) == 0:
            ok = ok and t["capacity"] == 0.0
        else:
            nodes, w = window_nodes(kind, i, cfg, inp["f_nodes"])
            A = build(pts, nodes, w)
            lp_sizes.append(list(A.shape))
            ref = lp_reference(A, w)
            if not _lp_close(t["capacity"], ref):
                ok = False
                notes.append(f"thinness {kind} i={i}: {t['capacity']!r} vs HiGHS {ref!r}")
        failed += not ok
    if not math.isclose(report["partial_sum"], math.fsum(t["product"] for t in terms), rel_tol=1e-12):
        failed = max(failed, 1)
        notes.append(f"thinness {kind}: partial sum disagrees with its terms")
    return failed, notes


def _check_capacity(inp, text, lp_sizes):
    from hpot.capacity import window_nodes
    from hpot.kernels import KernelConfig

    out = json.loads(text)
    cfg = KernelConfig(inp["n"])
    pts = inp["capacity_points"]
    nodes, w = window_nodes("boundary", inp["capacity_window"], cfg, inp["capacity_nodes"])
    A = boundary_lp(pts, nodes, w)
    lp_sizes.append(list(A.shape))
    ref = lp_reference(A, w)
    if out["n_constraints"] != len(pts) or out["n_nodes"] != len(w) or not _lp_close(out["value"], ref):
        return 1, [f"capacity: {out!r} vs HiGHS {ref!r}"]
    return 0, []


def check_exceptional(plan, texts):
    inp = plan.inputs
    failed, notes, props = {}, [], {}
    if "covering" in texts:
        extra, props, balls = _check_covering(inp, texts["covering"])
        failed["covering"] = int(bool(extra))
        notes += extra
        if "growth" in texts:
            failed["growth"], extra = _check_growth(inp, texts["growth"], balls)
            notes += extra
    lp_sizes = []
    for kind in ("boundary", "halfspace"):
        label = f"thinness_{kind}"
        if label in texts:
            failed[label], extra = _check_thinness(inp, kind, texts[label], lp_sizes)
            notes += extra
    if "capacity" in texts:
        failed["capacity"], extra = _check_capacity(inp, texts["capacity"], lp_sizes)
        notes += extra
    props["lp_sizes"] = lp_sizes
    return failed, notes, props


CHECKS = {
    "dirichlet_radial": check_dirichlet,
    "superposition_atoms": check_superposition,
    "exceptional_pipeline": check_exceptional,
}


def score(plan, runs):
    """Failed operations of a workload from its sequence results.

    ``runs`` is a list of per-sequence dicts label -> (exit code, output
    text); the first is checked against the references, every later one
    must equal it byte for byte.  A call that exits nonzero, or whose output
    changes between runs, fails all its operations.
    """
    first = runs[0]
    notes, broken = [], set()
    for call in plan.calls:
        codes = {r[call.label][0] for r in runs}
        if codes != {0}:
            broken.add(call.label)
            notes.append(f"{call.label}: exit codes {sorted(codes)}")
        elif any(r[call.label][1] != first[call.label][1] for r in runs[1:]):
            broken.add(call.label)
            notes.append(f"{call.label}: output differs between repeats")
    props = {}
    texts = {label: text for label, (code, text) in first.items() if label not in broken}
    try:
        checked, extra, props = CHECKS[plan.workload](plan, texts)
        notes += extra
    except Exception as exc:  # a malformed output fails every operation
        checked = {c.label: c.ops for c in plan.calls}
        notes.append(f"reference check raised {type(exc).__name__}: {exc}")
    failed = sum(c.ops if c.label in broken else min(c.ops, checked.get(c.label, 0))
                 for c in plan.calls)
    return failed, notes, props
