import numpy as np
import pytest

from hpot.errors import DimensionError, DomainError
from hpot.geometry import (
    Ball,
    BoundaryPoint,
    Point,
    as_coords,
    kelvin_distances,
    reflect,
    stable_norm,
)


def test_reflect_flips_last_coordinate():
    p = reflect(Point([1.0, 2.0, 3.0]))
    assert np.allclose(p.coords, [1.0, 2.0, -3.0])


def test_reflect_fixes_boundary():
    p = reflect(Point([1.0, 2.0, 0.0]))
    assert np.allclose(p.coords, [1.0, 2.0, 0.0])


def test_reflect_is_involution():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = rng.integers(3, 6)
        p = Point(rng.normal(size=n))
        assert np.array_equal(reflect(reflect(p)).coords, p.coords)


def test_reflect_is_isometry():
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = Point(rng.normal(size=4))
        y = Point(rng.normal(size=4))
        d = np.linalg.norm(x.coords - y.coords)
        dr = np.linalg.norm(reflect(x).coords - reflect(y).coords)
        assert d == pytest.approx(dr, rel=1e-14)


def test_kelvin_distances_collinear():
    d, ds = kelvin_distances(Point([0, 0, 1]), Point([0, 0, 2]))
    assert d == pytest.approx(1.0)
    assert ds == pytest.approx(3.0)


def test_kelvin_distances_coincident():
    d, ds = kelvin_distances(Point([0.5, -1, 2]), Point([0.5, -1, 2]))
    assert d == 0.0
    assert ds == pytest.approx(4.0)


def test_kelvin_identity_random_pairs():
    # |x-y*|^2 - |x-y|^2 = 4 x_n y_n on upper half-space pairs
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n = int(rng.integers(3, 6))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        x[-1], y[-1] = abs(x[-1]), abs(y[-1])
        d, ds = kelvin_distances(x, y)
        assert ds >= d
        lhs = ds**2 - d**2
        rhs = 4 * x[-1] * y[-1]
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionError):
        kelvin_distances(Point([0, 0, 1]), Point([0, 0, 0, 1]))


def test_point_needs_three_coordinates():
    with pytest.raises(DimensionError):
        Point([1.0, 2.0])
    assert BoundaryPoint([1.0, 2.0]).n == 3


def test_norms_survive_huge_coordinates():
    big = Point([1e150, -1e150, 3e149])
    assert np.isfinite(big.norm())
    d, ds = kelvin_distances(big, Point([0, 0, 1e150]))
    assert np.isfinite(d) and np.isfinite(ds)
    assert stable_norm([3e200, 4e200]) == pytest.approx(5e200, rel=1e-12)


def test_ball_contains_is_strict():
    b = Ball(Point([0, 0, 1]), 2.0)
    assert b.contains([0, 0, 2.5])
    assert not b.contains([0, 0, 3.0])
    with pytest.raises(DomainError):
        Ball(Point([0, 0, 1]), 0.0)


def test_point_coords_frozen():
    p = Point([1, 2, 3])
    with pytest.raises(ValueError):
        p.coords[0] = 5.0


def test_as_coords_rejects_non_finite():
    for bad in ([0.0, 0.0, np.nan], [np.inf, 0.0, 1.0], [0.0, -np.inf]):
        with pytest.raises(DomainError):
            as_coords(bad)
    assert as_coords([1, 2, 3], 3).tolist() == [1.0, 2.0, 3.0]
