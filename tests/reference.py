"""High-precision references for the Poisson integral of the radial boundary
families, in mpmath.  Test-only: nothing in ``hpot`` imports it.

``sphere_kernel(n, m, x, rho)`` is A(x, rho) = int_{S^(n-2)} P_m(x, rho w) dw,
the modified Poisson kernel integrated over the boundary sphere of radius
rho.  Its plain part is

    int_{S^(n-2)} P(x, rho w) dw = amp B((n-2)/2, 1/2) (a+b)^(-n/2)
                                   2F1(n/2, n/2 - 1; n - 2; 2b/(a+b)),

a = |x|^2 + rho^2, b = 2 rho |x'|, amp = 2 x_n area(S^(n-3)) / omega_n, from
``mp.hyp2f1``; the head subtracted beyond the unit sphere is amp rho^-n
sum_{k<m} M_k (|x|/rho)^k, with the moments
M_k = int_0^pi C_k^(n/2)(s cos g) sin^(n-3) g dg, s = |x'|/|x|, by
``mp.quad``.  Far out (|x| < rho/8) the difference cancels, so A is the tail
series rho^-n sum_{k>=m} M_k (|x|/rho)^k there.

``family_integral`` is the Poisson integral of a family at x as the 1-D
radial integral int_0^inf f(rho) rho^(n-2) A(x, rho) drho, split at 1, the
support edge, 8|x| and |x'| +- x_n 2^j, with mpmath's tanh-sinh rule on each
piece and the last one in u = 1/rho.  ``family_integral_2d`` is the same
integral for n = 3 and m = 0 with the angle integrated by ``mp.quad`` as
well, an independent check of the closed form.  At the gaussian_bump(1, 1)
points (1, 0, 1e-2) and (1, 0, 1e-4) the two agreed to 2.2e-16 and
1.1e-16 at 15 digits; the 2-D integral took 52 s and 122 s there, so no
tier-1 test runs it.

``FROZEN`` holds values this module computed at 20 digits (with the L1
mass int |f rho^(n-2) A| drho to a few digits), for the families of
``FAMILIES`` at x = (1, 0, ..., 0, h); ``write_frozen`` recomputes it.
"""
import functools

import mpmath as mp

FAMILIES = {
    "gaussian_bump": {"c": 1.0, "sigma": 1.0},
    "power_growth": None,  # s = m + 1/2, within the gate s < m + 1
    "indicator_ball": {"R": 2.0},
}
HEIGHTS = (1e-2, 1e-4, 1e-6, 1e-8)


def family_params(family, m):
    return {"s": m + 0.5} if family == "power_growth" else FAMILIES[family]


def profile(family, params):
    """f(rho) and the support radius (None when unbounded)."""
    if family == "power_growth":
        return (lambda r: (1 + r * r) ** (mp.mpf(params["s"]) / 2)), None
    if family == "gaussian_bump":
        c, sig = mp.mpf(params["c"]), mp.mpf(params["sigma"])
        return (lambda r: c * mp.exp(-r * r / (2 * sig * sig))), None
    return (lambda r: mp.mpf(1)), mp.mpf(params["R"])


def _area(d):
    """Area of the unit sphere S^(d-1) in R^d."""
    return 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)


class _Point:
    """The geometry of a field point, in mpmath, with its moments cached."""

    def __init__(self, n, x):
        self.n = n
        x = [mp.mpf(float(v)) for v in x]
        self.xn = x[-1]
        self.xt = mp.sqrt(sum(v * v for v in x[:-1]))
        self.ax = mp.sqrt(self.xt**2 + self.xn**2)
        self.s = self.xt / self.ax if self.ax else mp.mpf(0)
        self.amp = 2 * self.xn * _area(n - 2) / _area(n)
        self._moments = {}

    def moment(self, k):
        if k % 2:
            return mp.mpf(0)
        if k not in self._moments:
            lam, s, p = mp.mpf(self.n) / 2, self.s, self.n - 3
            self._moments[k] = mp.quad(
                lambda g: mp.gegenbauer(k, lam, s * mp.cos(g)) * mp.sin(g) ** p, [0, mp.pi / 2, mp.pi]
            )
        return self._moments[k]

    def plain(self, rho):
        n = self.n
        dm = (rho - self.xt) ** 2 + self.xn**2
        dp = (rho + self.xt) ** 2 + self.xn**2
        # 2F1 takes w = 1 - dm/dp: carry the digits that dm/dp would lose
        with mp.extradps(max(0, int(-mp.log10(dm / dp))) + 10):
            w = 1 - dm / dp
            beta = mp.beta(mp.mpf(n - 2) / 2, mp.mpf(1) / 2)
            return beta * dp ** (-mp.mpf(n) / 2) * mp.hyp2f1(mp.mpf(n) / 2, mp.mpf(n) / 2 - 1, n - 2, w)

    def sphere(self, m, rho):
        """A(x, rho) / amp."""
        rho = mp.mpf(rho)
        if m == 0 or rho <= 1:
            return self.plain(rho)
        q = self.ax / rho
        if 8 * q >= 1:
            # the head cancels about q^-m of S: carry that many more digits
            with mp.extradps(max(0, int(m * -mp.log10(q))) + 5):
                head = sum(self.moment(k) * q**k for k in range(m))
                return self.plain(rho) - head * rho ** -self.n
        total, k = mp.mpf(0), m + m % 2  # the odd moments vanish
        while True:
            term = self.moment(k) * q**k
            total += term
            if abs(term) <= mp.eps * abs(total):
                return total * rho ** -self.n
            k += 2


@functools.lru_cache(maxsize=None)
def _point(n, x, dps):
    return _Point(n, x)


def sphere_kernel(n, m, x, rho):
    """A(x, rho) = int_{S^(n-2)} P_m(x, rho w) dw for a point x of R^n (a
    sequence of floats) and a boundary radius rho, at the working
    precision; each point's moments are computed once."""
    pt = _point(n, tuple(float(v) for v in x), mp.mp.dps)
    return pt.amp * pt.sphere(m, rho)


def _breakpoints(pt, support):
    """Radial breakpoints of the integrand, ascending, and the end of the
    last finite piece (the support, or where the far piece in 1/rho starts)."""
    end = support if support is not None else max(mp.mpf(8), 8 * pt.ax)
    cuts = {mp.mpf(0), end}
    if 1 < end:
        cuts.add(mp.mpf(1))
    if 8 * pt.ax < end:
        cuts.add(8 * pt.ax)
    step = pt.xn
    while step < 2 * end:
        for c in (pt.xt - step, pt.xt + step):
            if 0 < c < end:
                cuts.add(c)
        step *= 2
    if 0 < pt.xt < end:
        cuts.add(pt.xt)
    return sorted(cuts), end


def family_integral(family, params, n, m, x, dps=20, absolute=False):
    """The Poisson integral P_m[f](x) of a radial family by the 1-D radial
    integral, at ``dps`` digits; with ``absolute``, the L1 mass
    int |f(rho) rho^(n-2) A(x, rho)| drho instead."""
    with mp.workdps(dps):
        pt = _Point(n, x)
        f, support = profile(family, params)
        cuts, end = _breakpoints(pt, support)

        def integrand(rho):
            v = f(rho) * rho ** (n - 2) * pt.amp * pt.sphere(m, rho)
            return abs(v) if absolute else v

        total = sum(mp.quad(integrand, [a, b]) for a, b in zip(cuts[:-1], cuts[1:]))
        if support is None:
            total += mp.quad(lambda u: integrand(1 / u) / (u * u), [0, 1 / end])
        return total


def family_integral_2d(family, params, x, dps=20):
    """The Poisson integral at a point x of R^3 with m = 0 by a 2-D mpmath
    integral over the boundary radius and angle, the radial breakpoints as
    in ``family_integral`` and the angle split at x_n / |x'| 2^j."""
    with mp.workdps(dps):
        pt = _Point(3, x)
        f, support = profile(family, params)
        cuts, end = _breakpoints(pt, support)
        angles, g = [mp.mpf(0), mp.pi], pt.xn / pt.xt if pt.xt else mp.pi
        while g < mp.pi:
            angles.insert(-1, g)
            g *= 2

        def integrand(rho):
            # |x - y|^2 = (rho - |x'|)^2 + x_n^2 + 4 rho |x'| sin^2(a/2), no cancellation
            def kernel(a):
                d2 = (rho - pt.xt) ** 2 + pt.xn**2 + 4 * rho * pt.xt * mp.sin(a / 2) ** 2
                return 2 * pt.xn / d2**1.5

            return f(rho) * rho * 2 * mp.quad(kernel, angles) / (4 * mp.pi)

        total = sum(mp.quad(integrand, [a, b]) for a, b in zip(cuts[:-1], cuts[1:]))
        if support is None:
            total += mp.quad(lambda u: integrand(1 / u) / (u * u), [0, 1 / end])
        return total


def frozen_point(n, h):
    return (1.0,) + (0.0,) * (n - 2) + (h,)


def write_frozen(path=None):
    """Recompute ``FROZEN`` (about 10 s a row) and print it, or write it to
    ``path``: python -c "import reference; reference.write_frozen()" from
    the tests directory."""
    lines = ["FROZEN = {"]
    for family in FAMILIES:
        for n in (3, 4):
            for m in range(4):
                params = family_params(family, m)
                for h in HEIGHTS:
                    x = frozen_point(n, h)
                    value = family_integral(family, params, n, m, x)
                    l1 = family_integral(family, params, n, m, x, dps=15, absolute=True)
                    lines.append(
                        f"    ({family!r}, {n}, {m}, {h!r}): ({mp.nstr(value, 20)!r}, {float(l1):.6g}),"
                    )
                    print(lines[-1], flush=True)
    lines.append("}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


# (family, n, m, h): (value at 20 digits, L1 mass), at x = (1, 0, ..., 0, h)
FROZEN = {
    ('gaussian_bump', 3, 0, 0.01): ('0.6009890784571543289', 0.600989),
    ('gaussian_bump', 3, 0, 0.0001): ('0.60647494479833514234', 0.606475),
    ('gaussian_bump', 3, 0, 1e-06): ('0.60653010253346830657', 0.60653),
    ('gaussian_bump', 3, 0, 1e-08): ('0.60653065414083877011', 0.606531),
    ('gaussian_bump', 3, 1, 0.01): ('0.5989006693142615091', 0.598901),
    ('gaussian_bump', 3, 1, 0.0001): ('0.60645406070690621414', 0.606454),
    ('gaussian_bump', 3, 1, 1e-06): ('0.60652989369255401729', 0.60653),
    ('gaussian_bump', 3, 1, 1e-08): ('0.60653065205242962721', 0.606531),
    ('gaussian_bump', 3, 2, 0.01): ('0.5989006693142615091', 0.598901),
    ('gaussian_bump', 3, 2, 0.0001): ('0.60645406070690621414', 0.606454),
    ('gaussian_bump', 3, 2, 1e-06): ('0.60652989369255401729', 0.60653),
    ('gaussian_bump', 3, 2, 1e-08): ('0.60653065205242962721', 0.606531),
    ('gaussian_bump', 3, 3, 0.01): ('0.59591819506845908485', 0.595918),
    ('gaussian_bump', 3, 3, 0.0001): ('0.60642423397619830765', 0.606424),
    ('gaussian_bump', 3, 3, 1e-06): ('0.60652959542524494997', 0.60653),
    ('gaussian_bump', 3, 3, 1e-08): ('0.60653064906975653654', 0.606531),
    ('gaussian_bump', 4, 0, 0.01): ('0.59861212952147222283', 0.598612),
    ('gaussian_bump', 4, 0, 0.0001): ('0.60645087732152058949', 0.606451),
    ('gaussian_bump', 4, 0, 1e-06): ('0.60652986182867915106', 0.60653),
    ('gaussian_bump', 4, 0, 1e-08): ('0.60653065173378787623', 0.606531),
    ('gaussian_bump', 4, 1, 0.01): ('0.59595308441515461763', 0.595953),
    ('gaussian_bump', 4, 1, 0.0001): ('0.60642428687045741344', 0.606424),
    ('gaussian_bump', 4, 1, 1e-06): ('0.6065295959241685193', 0.60653),
    ('gaussian_bump', 4, 1, 1e-08): ('0.60653064907474276991', 0.606531),
    ('gaussian_bump', 4, 2, 0.01): ('0.59595308441515461763', 0.595953),
    ('gaussian_bump', 4, 2, 0.0001): ('0.60642428687045741344', 0.606424),
    ('gaussian_bump', 4, 2, 1e-06): ('0.6065295959241685193', 0.60653),
    ('gaussian_bump', 4, 2, 1e-08): ('0.60653064907474276991', 0.606531),
    ('gaussian_bump', 4, 3, 0.01): ('0.59257772658197041837', 0.592578),
    ('gaussian_bump', 4, 3, 0.0001): ('0.60639052991676773826', 0.606391),
    ('gaussian_bump', 4, 3, 1e-06): ('0.60652925835462824719', 0.606529),
    ('gaussian_bump', 4, 3, 1e-08): ('0.60653064569904736719', 0.606531),
    ('power_growth', 3, 0, 0.01): ('1.1994562929467216137', 1.19946),
    ('power_growth', 3, 0, 0.0001): ('1.1893097904478482417', 1.18931),
    ('power_growth', 3, 0, 1e-06): ('1.1892081417755675973', 1.18921),
    ('power_growth', 3, 0, 1e-08): ('1.1892071252704513716', 1.18921),
    ('power_growth', 3, 1, 0.01): ('1.6741163292098385011', 1.67412),
    ('power_growth', 3, 1, 0.0001): ('1.6817171567867665565', 1.68172),
    ('power_growth', 3, 1, 1e-06): ('1.6817920738794850902', 1.68179),
    ('power_growth', 3, 1, 1e-08): ('1.6817928229411605725', 1.68179),
    ('power_growth', 3, 2, 0.01): ('2.4029479488412292603', 2.40295),
    ('power_growth', 3, 2, 0.0001): ('2.3786628897945718464', 2.37866),
    ('power_growth', 3, 2, 1e-06): ('2.378416716934464699', 2.37842),
    ('power_growth', 3, 2, 1e-08): ('2.3784142548747654711', 2.37841),
    ('power_growth', 3, 3, 0.01): ('3.3340231495722027035', 3.33402),
    ('power_growth', 3, 3, 0.0001): ('3.3632980142229626817', 3.3633),
    ('power_growth', 3, 3, 1e-06): ('3.3635827853481741346', 3.36358),
    ('power_growth', 3, 3, 1e-08): ('3.3635856322582714586', 3.36359),
    ('power_growth', 4, 0, 0.01): ('1.2025813294090660463', 1.20258),
    ('power_growth', 4, 0, 0.0001): ('1.1893411872113716104', 1.18934),
    ('power_growth', 4, 0, 1e-06): ('1.1892084557579185004', 1.18921),
    ('power_growth', 4, 0, 1e-08): ('1.1892071284102763523', 1.18921),
    ('power_growth', 4, 1, 0.01): ('1.672598554285924932', 1.6726),
    ('power_growth', 4, 1, 0.0001): ('1.6817026017626959186', 1.6817),
    ('power_growth', 4, 1, 1e-06): ('1.6817919283916792964', 1.68179),
    ('power_growth', 4, 1, 1e-08): ('1.6817928214862887582', 1.68179),
    ('power_growth', 4, 2, 0.01): ('2.406595629394530003', 2.4066),
    ('power_growth', 4, 2, 0.0001): ('2.3787008474767956178', 2.3787),
    ('power_growth', 4, 2, 1e-06): ('2.3784170966584605669', 2.37842),
    ('power_growth', 4, 2, 1e-08): ('2.3784142586720201462', 2.37841),
    ('power_growth', 4, 3, 0.01): ('3.331539771887198975', 3.33154),
    ('power_growth', 4, 3, 0.0001): ('3.3632760738263098066', 3.36328),
    ('power_growth', 4, 3, 1e-06): ('3.363582566235558006', 3.36358),
    ('power_growth', 4, 3, 1e-08): ('3.3635856300671744344', 3.36359),
    ('indicator_ball', 3, 0, 0.01): ('0.99377207242137323632', 0.993772),
    ('indicator_ball', 3, 0, 0.0001): ('0.99993771896966430266', 0.999938),
    ('indicator_ball', 3, 0, 1e-06): ('0.99999937718969488838', 0.999999),
    ('indicator_ball', 3, 0, 1e-08): ('0.99999999377189694888', 1),
    ('indicator_ball', 3, 1, 0.01): ('0.98877207242137323621', 0.988772),
    ('indicator_ball', 3, 1, 0.0001): ('0.99988771896966430266', 0.999888),
    ('indicator_ball', 3, 1, 1e-06): ('0.99999887718969488838', 0.999999),
    ('indicator_ball', 3, 1, 1e-08): ('0.99999998877189694888', 1),
    ('indicator_ball', 3, 2, 0.01): ('0.98877207242137323621', 0.988772),
    ('indicator_ball', 3, 2, 0.0001): ('0.99988771896966430266', 0.999888),
    ('indicator_ball', 3, 2, 1e-06): ('0.99999887718969488838', 0.999999),
    ('indicator_ball', 3, 2, 1e-08): ('0.99999998877189694888', 1),
    ('indicator_ball', 3, 3, 0.01): ('0.98221000992137323608', 0.98221),
    ('indicator_ball', 3, 3, 0.0001): ('0.99982209397010180266', 0.999822),
    ('indicator_ball', 3, 3, 1e-06): ('0.99999822093969488882', 0.999998),
    ('indicator_ball', 3, 3, 1e-08): ('0.99999998220939694888', 1),
    ('indicator_ball', 4, 0, 0.01): ('0.99225912814841221367', 0.992259),
    ('indicator_ball', 4, 0, 0.0001): ('0.99992258876683705937', 0.999923),
    ('indicator_ball', 4, 0, 1e-06): ('0.9999992258876658558', 0.999999),
    ('indicator_ball', 4, 0, 1e-08): ('0.99999999225887665856', 1),
    ('indicator_ball', 4, 1, 0.01): ('0.9858929304247364001', 0.985893),
    ('indicator_ball', 4, 1, 0.0001): ('0.99985892678960030123', 0.999859),
    ('indicator_ball', 4, 1, 1e-06): ('0.99999858926789348822', 0.999999),
    ('indicator_ball', 4, 1, 1e-08): ('0.99999998589267893488', 1),
    ('indicator_ball', 4, 2, 0.01): ('0.9858929304247364001', 0.985893),
    ('indicator_ball', 4, 2, 0.0001): ('0.99985892678960030123', 0.999859),
    ('indicator_ball', 4, 2, 1e-06): ('0.99999858926789348822', 0.999999),
    ('indicator_ball', 4, 2, 1e-08): ('0.99999998589267893488', 1),
    ('indicator_ball', 4, 3, 0.01): ('0.97846644247018237979', 0.978466),
    ('indicator_ball', 4, 3, 0.0001): ('0.99978465448356680647', 0.999785),
    ('indicator_ball', 4, 3, 1e-06): ('0.99999784654482572679', 0.999998),
    ('indicator_ball', 4, 3, 1e-08): ('0.99999997846544825726', 1),
}
