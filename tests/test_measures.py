import json
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from hpot.errors import DomainError, SchemaError
from hpot.kernels import KernelConfig
from hpot.measures import (
    AtomicMeasure,
    BoundaryData,
    check_boundary_condition,
    check_measure_condition,
)

C31 = KernelConfig(3, 1)


def test_power_growth_gate_matches_exponent_rule():
    # integrable iff s < m + 1 (radial integrand ~ rho^(s-m-2))
    for n in (3, 4):
        for m in range(4):
            cfg = KernelConfig(n, m)
            for s in range(-2, m + 3):
                rep = check_boundary_condition(
                    BoundaryData.power_growth(n - 1, float(s)), cfg
                )
                assert rep.satisfied == (s < m + 1)
                assert rep.satisfied == math.isfinite(rep.value)


def test_power_growth_closed_form_value():
    rep = check_boundary_condition(BoundaryData.power_growth(2, 0.0), C31)
    assert rep.value == pytest.approx(math.pi**2 / 2, rel=1e-8)


@pytest.mark.parametrize("n, m, s", [(3, 1, 1.9), (4, 2, 2.8), (3, 0, 0.95)])
def test_power_growth_gate_value_near_the_edge(n, m, s):
    # s close to m + 1: the integrand decays like rho^(s-m-2), too slowly for
    # a truncation radius; the reference takes [8, inf) at 30 digits in v,
    # with 1/rho = v^(1/(beta+1)) / 8 and beta = m - s, which turns the
    # endpoint power u^beta du into a multiple of dv
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    p = 1 / (m - mp.mpf(s) + 1)

    def f(r):
        return (1 + r * r) ** (mp.mpf(s) / 2) * r ** (n - 2) / (1 + r ** (n + m))

    tail = mp.quad(lambda v: f(8 / v**p) * (v**p / 8) ** -2 * p * v ** (p - 1) / 8, [0, 1])
    area = 2 * mp.pi ** (mp.mpf(n - 1) / 2) / mp.gamma(mp.mpf(n - 1) / 2)
    ref = float(area * (mp.quad(f, [0, 1, 2, 4, 8]) + tail))
    rep = check_boundary_condition(BoundaryData.power_growth(n - 1, s), KernelConfig(n, m))
    assert rep.satisfied
    assert rep.value == pytest.approx(ref, rel=1e-12)


def test_atoms_always_satisfy_gate():
    f = BoundaryData.atoms(2, [[0.0, 0.0], [3.0, 4.0]], [1.0, 2.0])
    rep = check_boundary_condition(f, C31)
    assert rep.satisfied
    assert rep.value == pytest.approx(1.0 + 2.0 / (1 + 5**4), rel=1e-14)


def test_gaussian_value_matches_reference_quadrature():
    for n, m, c, sig in [(3, 1, 1.0, 1.0), (3, 0, 2.5, 0.7), (4, 2, 1.0, 2.0)]:
        cfg = KernelConfig(n, m)
        rep = check_boundary_condition(BoundaryData.gaussian_bump(n - 1, c, sig), cfg)
        area = 2 * math.pi ** ((n - 1) / 2) / math.gamma((n - 1) / 2)
        ref = area * quad(
            lambda r: abs(c)
            * math.exp(-0.5 * (r / sig) ** 2)
            * r ** (n - 2)
            / (1 + r ** (n + m)),
            0,
            60,
            limit=300,
        )[0]
        assert rep.value == pytest.approx(ref, rel=1e-8)


def test_wide_gaussian_gate_takes_the_limit_of_overflowing_powers():
    # sigma = 1e80 puts panel nodes near 4e80, where rho^(n+m) overflows;
    # f is 1 wherever the integrand is not negligible, so the value is the
    # one of constant data, pi^2 / 2 for n = 3, m = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_boundary_condition(BoundaryData.gaussian_bump(2, 1.0, 1e80), C31)
    assert rep.value == pytest.approx(math.pi**2 / 2, rel=1e-10)


def test_indicator_gate_value():
    rep = check_boundary_condition(BoundaryData.indicator_ball(2, 2.0), C31)
    ref = 2 * math.pi * quad(lambda r: r / (1 + r**4), 0, 2.0)[0]
    assert rep.satisfied
    assert rep.value == pytest.approx(ref, rel=1e-10)


def test_measure_gate_values():
    rep = check_measure_condition(AtomicMeasure(3, [[0, 0, 1.0]], [1.0]), C31)
    assert rep.satisfied and rep.value == pytest.approx(0.5, rel=1e-14)
    # boundary atoms contribute nothing
    rep0 = check_measure_condition(
        AtomicMeasure(3, [[2.0, 1.0, 0.0], [0, 0, 1.0]], [5.0, 1.0]), C31
    )
    assert rep0.value == pytest.approx(0.5, rel=1e-14)
    # empty measure
    assert check_measure_condition(AtomicMeasure.empty(3), C31).value == 0.0


def test_gates_take_the_limit_of_overflowing_powers():
    # |y|^(n+m) past the float range is inf, and 1/(1 + inf) = 0 is the exact
    # limit: no numpy warning, and the atom adds nothing
    cfg = KernelConfig(3, 2)
    with np.errstate(over="raise", invalid="raise"):
        far = BoundaryData.atoms(2, [[1.2e100, 0.0], [0.0, 0.0]], [1.0, 1.0])
        assert check_boundary_condition(far, cfg).value == 1.0
        mu = AtomicMeasure(3, [[0.0, 0.0, 1e200], [0.0, 0.0, 1.0]], [1.0, 1.0])
        assert check_measure_condition(mu, cfg).value == 0.5


def test_measure_gate_rejects_lower_halfspace():
    with pytest.raises(DomainError):
        check_measure_condition(AtomicMeasure(3, [[0, 0, -1.0]], [1.0]), C31)


def test_total_mass_past_float_range_is_inf():
    mu = AtomicMeasure(3, [[0, 0, 2.0], [1.0, 0, 3.0]], [1e308, 1e308])
    assert mu.total_mass == math.inf
    assert AtomicMeasure(3, [[0, 0, 2.0]], [1e308]).total_mass == 1e308


def test_condition_invariant_under_reordering():
    pts = [[0.5, 0.2, 1.0], [3.0, -1.0, 0.2], [0.1, 0.1, 2.5]]
    ms = [1.0, 2.0, 0.5]
    a = check_measure_condition(AtomicMeasure(3, pts, ms), C31).value
    b = check_measure_condition(
        AtomicMeasure(3, pts[::-1], ms[::-1]), C31
    ).value
    assert a == pytest.approx(b, rel=1e-15)


def test_dimension_mismatch_rejected():
    with pytest.raises(DomainError):
        check_boundary_condition(BoundaryData.power_growth(3, 0.0), C31)
    with pytest.raises(DomainError):
        check_measure_condition(AtomicMeasure(4, [[0, 0, 0, 1.0]], [1.0]), C31)


# ---------------------------------------------------------------------------
# JSON schemas
# ---------------------------------------------------------------------------


def test_measure_json_roundtrip():
    src = {"dimension": 3, "atoms": [{"point": [0.0, 1.0, 2.0], "mass": 0.5}]}
    mu = AtomicMeasure.from_json_dict(src)
    assert mu.to_json_dict() == src
    assert json.dumps(mu.to_json_dict())  # serializable


def test_boundary_json_roundtrip():
    fam = {
        "dimension": 2,
        "kind": "family",
        "family": {"id": "gaussian_bump", "params": {"c": 1.0, "sigma": 2.0}},
    }
    f = BoundaryData.from_json_dict(fam)
    assert f.to_json_dict() == fam
    atoms = {
        "dimension": 2,
        "kind": "atoms",
        "atoms": [{"point": [1.0, -1.0], "mass": -2.0}],
    }
    g = BoundaryData.from_json_dict(atoms)
    assert g.to_json_dict() == atoms


@pytest.mark.parametrize(
    "payload, path",
    [
        ({"atoms": []}, "dimension"),
        ({"dimension": 3, "atoms": "nope"}, "atoms"),
        ({"dimension": 3, "atoms": [{"point": [1, 2], "mass": 1}]}, "atoms[0].point"),
        ({"dimension": 3, "atoms": [{"point": [1, 2, 3], "mass": "x"}]}, "atoms[0].mass"),
        ({"dimension": 3, "atoms": [{"point": [1, 2, 3], "mass": -1}]}, "atoms[0].mass"),
        ({"dimension": 3, "atoms": [{"point": [1, "a", 3], "mass": 1}]}, "atoms[0].point[1]"),
        # integers beyond the float range
        ({"dimension": 3, "atoms": [{"point": [1, 2, 10**400], "mass": 1}]}, "atoms[0].point[2]"),
        ({"dimension": 3, "atoms": [{"point": [1, 2, 3], "mass": 10**400}]}, "atoms[0].mass"),
    ],
)
def test_measure_schema_errors_carry_paths(payload, path):
    with pytest.raises(SchemaError) as err:
        AtomicMeasure.from_json_dict(payload)
    assert err.value.path == path


@pytest.mark.parametrize(
    "payload, path",
    [
        ({"dimension": 2, "kind": "blob"}, "kind"),
        ({"dimension": 2, "kind": "family"}, "family"),
        ({"dimension": 2, "kind": "family", "family": {"id": "mystery", "params": {}}}, "family.id"),
        (
            {"dimension": 2, "kind": "family", "family": {"id": "gaussian_bump", "params": {"c": 1.0, "sigma": -1.0}}},
            "family.params",
        ),
        ({"dimension": 2, "kind": "atoms", "atoms": [{"point": [-(10**400), 0], "mass": 1}]},
         "atoms[0].point[0]"),
        (
            {"dimension": 2, "kind": "family", "family": {"id": "power_growth", "params": {"s": 10**400}}},
            "family.params",
        ),
    ],
)
def test_boundary_schema_errors_carry_paths(payload, path):
    with pytest.raises(SchemaError) as err:
        BoundaryData.from_json_dict(payload)
    assert err.value.path == path


def test_first_fault_in_atom_order_wins():
    # an integer past the float range in atom 0 comes before a string in
    # atom 1, and a point fault before a mass fault in the same atom
    atoms = [
        {"point": [1, 2, 10**400], "mass": 1},
        {"point": [1, "a", 3], "mass": 1},
    ]
    with pytest.raises(SchemaError) as err:
        AtomicMeasure.from_json_dict({"dimension": 3, "atoms": atoms})
    assert err.value.path == "atoms[0].point[2]"
    atoms = [{"point": [1, 2, 3], "mass": 1}, {"point": [1, 2], "mass": -1}]
    with pytest.raises(SchemaError) as err:
        AtomicMeasure.from_json_dict({"dimension": 3, "atoms": atoms})
    assert err.value.path == "atoms[1].point"
    atoms = [{"point": [1, 2, 3], "mass": 1}, [1, 2, 3]]
    with pytest.raises(SchemaError) as err:
        BoundaryData.from_json_dict({"dimension": 3, "kind": "atoms", "atoms": atoms})
    assert err.value.path == "atoms[1]"


def test_atom_lists_of_number_subclasses_parse_alike():
    # numpy floats (a float subclass) and bare ints give the same arrays as
    # plain JSON numbers
    plain = [{"point": [0.1, 2, 3.5], "mass": 0.7}, {"point": [1e300, -4, 0.25], "mass": 3}]
    mixed = [
        {"point": [np.float64(0.1), 2, 3.5], "mass": 0.7},
        {"point": [1e300, -4, 0.25], "mass": np.float64(3.0)},
    ]
    a = AtomicMeasure.from_json_dict({"dimension": 3, "atoms": plain})
    b = AtomicMeasure.from_json_dict({"dimension": 3, "atoms": mixed})
    assert a.points.tobytes() == b.points.tobytes()
    assert a.masses.tobytes() == b.masses.tobytes()
    assert a.points.shape == (2, 3)
    empty = BoundaryData.from_json_dict({"dimension": 2, "kind": "atoms", "atoms": []})
    assert empty.points.shape == (0, 2) and empty.weights.shape == (0,)


@pytest.mark.parametrize(
    "last, path",
    [
        ({"point": [1.0, True, 3.0], "mass": 1.0}, "atoms[4999].point[1]"),
        ({"point": [1.0, 2.0, 10**400], "mass": 1.0}, "atoms[4999].point[2]"),
        ({"point": [1.0, 2.0], "mass": 1.0}, "atoms[4999].point"),
        ({"point": [1.0, 2.0, 3.0], "mass": 0}, "atoms[4999].mass"),
        ({"point": [1.0, 2.0, 3.0], "mass": "1"}, "atoms[4999].mass"),
        ({"point": [1.0, 2.0, 3.0]}, "atoms[4999].mass"),
        ([1.0, 2.0, 3.0], "atoms[4999]"),
    ],
)
def test_fault_in_the_last_of_many_atoms(last, path):
    # the bulk check of a long list still names the one fault at its end
    rng = np.random.default_rng(5)
    atoms = [{"point": p.tolist(), "mass": float(w)}
             for p, w in zip(rng.normal(size=(4999, 3)), rng.uniform(0.1, 1.0, 4999))]
    good = AtomicMeasure.from_json_dict({"dimension": 3, "atoms": atoms})
    assert good.points.shape == (4999, 3)
    with pytest.raises(SchemaError) as err:
        AtomicMeasure.from_json_dict({"dimension": 3, "atoms": atoms + [last]})
    assert err.value.path == path


@pytest.mark.parametrize("dim", [0, -1])
def test_non_positive_dimension_is_domain_error(dim):
    with pytest.raises(DomainError):
        AtomicMeasure.from_json_dict({"dimension": dim, "atoms": []})
    with pytest.raises(DomainError):
        BoundaryData.from_json_dict({"dimension": dim, "kind": "atoms", "atoms": []})


def test_unknown_family_rejected():
    with pytest.raises(DomainError):
        BoundaryData(2, "family", family=("lorentzian", {}))
