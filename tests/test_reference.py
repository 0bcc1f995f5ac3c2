"""Dirichlet points of the radial families against the mpmath oracle of
``reference.py``, down to heights of 1e-8 above the boundary, and the
oracle's frozen table against the oracle itself."""
import mpmath
import numpy as np
import pytest

import reference
from hpot.kernels import KernelConfig
from hpot.measures import BoundaryData
from hpot.potentials import dirichlet_field, eval_dirichlet_detailed


def _field(family, params, n, m):
    data = BoundaryData.from_json_dict(
        {"dimension": n - 1, "kind": "family", "family": {"id": family, "params": params}}
    )
    return dirichlet_field(KernelConfig(n, m), data)


@pytest.mark.parametrize(
    "key", [("indicator_ball", 4, 2, 1e-6), ("gaussian_bump", 4, 1, 1e-2)], ids=str
)
def test_frozen_rows_are_the_oracle(key):
    family, n, m, h = key
    value, _ = reference.FROZEN[key]
    live = reference.family_integral(
        family, reference.family_params(family, m), n, m, reference.frozen_point(n, h)
    )
    with mpmath.workdps(20):
        assert abs(live - mpmath.mpf(value)) <= mpmath.mpf(10) ** -18 * abs(live)


@pytest.mark.parametrize("family", sorted(reference.FAMILIES))
@pytest.mark.parametrize("n", [3, 4])
def test_points_near_the_boundary_meet_the_oracle(family, n):
    # x = (1, 0, ..., 0, h), h = 1e-2 .. 1e-8, m = 0-3: every point
    # converges within 1e-8 of the oracle, and its error estimate bounds
    # its true error (or the true error is below 1e-12)
    for m in range(4):
        vf = _field(family, reference.family_params(family, m), n, m)
        for h in reference.HEIGHTS:
            ref, l1 = reference.FROZEN[(family, n, m, h)]
            value, meta = eval_dirichlet_detailed(vf, reference.frozen_point(n, h))
            err = abs(value - float(ref)) / max(abs(float(ref)), 1e-3 * l1)
            assert meta["converged"], (m, h)
            assert err <= 1e-8, (m, h, err)
            assert err <= max(meta["rel_err_estimate"], 1e-12), (m, h, err, meta)


def test_gaussian_bump_at_the_baseline_point():
    # before the angular integral was taken in closed form this point
    # returned 0.6064749354602842 with converged true, 1.5e-8 off
    vf = _field("gaussian_bump", {"c": 1.0, "sigma": 1.0}, 3, 0)
    value, meta = eval_dirichlet_detailed(vf, [1.0, 0.0, 1e-4])
    assert meta["converged"]
    assert value == pytest.approx(0.606474944798335, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("h", [1e-5, 1e-6, 1e-7, 1e-8])
def test_power_growth_approaches_its_boundary_value(h):
    # P_1[f](x', h) = f(x') + O(h): (1 + |x'|^2)^(1/4) = 2^(1/4) at x' = (1, 0)
    vf = _field("power_growth", {"s": 0.5}, 3, 1)
    value, meta = eval_dirichlet_detailed(vf, np.array([1.0, 0.0, h]))
    assert meta["converged"]
    assert abs(value - 2.0**0.25) <= 2.0 * h
