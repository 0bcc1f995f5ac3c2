import json
import math

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


def test_unknown_family_rejected():
    with pytest.raises(DomainError):
        BoundaryData(2, "family", family=("lorentzian", {}))
