"""Points of the upper half-space, boundary points, balls, and reflection.

The upper half-space is H = {x in R^n : x_n > 0}; its boundary is identified
with R^{n-1} by dropping the last coordinate.  Everything here is immutable
and pure.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError


def stable_norm(v, axis=-1):
    """Euclidean norm with max-rescaling so coordinates up to ~1e150 cannot
    overflow when squared and summed."""
    a = np.asarray(v, dtype=float)
    m = np.max(np.abs(a), axis=axis, keepdims=True)
    scale = np.where(m > 0.0, m, 1.0)
    out = np.sqrt(np.sum((a / scale) ** 2, axis=axis)) * np.squeeze(scale, axis=axis)
    if out.ndim == 0:
        return float(out)
    return out


def squared_norms(a, what="point"):
    """Sums of squares over the last axis, added one coordinate at a time.
    A sum that is not finite is a DomainError, raised before numpy can
    warn about the overflow."""
    with np.errstate(over="ignore"):
        s = sum(a[..., j] * a[..., j] for j in range(a.shape[-1]))
    if not np.isfinite(s).all():
        raise DomainError(f"{what} too large: its squared norm overflows")
    return s


def _frozen_coords(raw, minimum, what):
    c = np.atleast_1d(np.asarray(raw, dtype=float))
    if c.ndim != 1 or c.size < minimum:
        raise DimensionError(
            f"{what} needs at least {minimum} coordinates, got shape {c.shape}"
        )
    if not np.all(np.isfinite(c)):
        raise DomainError(f"{what} coordinates must be finite")
    c = c.copy()
    c.flags.writeable = False
    return c


@dataclass(frozen=True)
class Point:
    """A point of R^n, n >= 3; the last coordinate is the height above the
    boundary plane."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _frozen_coords(self.coords, 3, "Point"))

    @property
    def n(self) -> int:
        return self.coords.size

    @property
    def height(self) -> float:
        return float(self.coords[-1])

    @property
    def tangential(self) -> np.ndarray:
        return self.coords[:-1]

    def norm(self) -> float:
        return float(stable_norm(self.coords))


@dataclass(frozen=True)
class BoundaryPoint:
    """A point of the boundary plane, coordinates in R^{n-1}."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "coords", _frozen_coords(self.coords, 2, "BoundaryPoint")
        )

    @property
    def n(self) -> int:
        """Ambient dimension (one above the stored coordinate count)."""
        return self.coords.size + 1

    def norm(self) -> float:
        return float(stable_norm(self.coords))


@dataclass(frozen=True)
class Ball:
    center: Point
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0 and np.isfinite(self.radius)):
            raise DomainError(f"ball radius must be positive, got {self.radius}")

    def contains(self, point) -> bool:
        c = as_coords(point, self.center.n)
        return float(stable_norm(c - self.center.coords)) < self.radius


def as_coords(point, n=None) -> np.ndarray:
    """Coerce a Point / BoundaryPoint / sequence to a float vector, checking
    the dimension when one is expected and that every coordinate is finite."""
    if isinstance(point, (Point, BoundaryPoint)):
        c = point.coords
    else:
        c = np.atleast_1d(np.asarray(point, dtype=float))
        if not np.isfinite(c).all():
            raise DomainError("coordinates must be finite")
    if n is not None and c.size != n:
        raise DimensionError(f"expected {n} coordinates, got {c.size}")
    return c


def as_rows(x, n) -> tuple[np.ndarray, bool]:
    """One point or a (P, n) array of points as rows of shape (P, n), and
    whether it was one point; coordinates are checked as in ``as_coords``."""
    if np.ndim(x) < 2:
        return as_coords(x, n)[None, :], True
    rows = np.asarray(x, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise DimensionError(f"expected points of shape (P, {n}), got {rows.shape}")
    if not np.isfinite(rows).all():
        raise DomainError("coordinates must be finite")
    return rows, False


def reflect(p: Point) -> Point:
    """Reflection in the boundary plane: the last coordinate changes sign."""
    c = np.array(p.coords)
    c[-1] = -c[-1]
    return Point(c)


def kelvin_distances(x, y) -> tuple[float, float]:
    """Distances (|x-y|, |x-y*|) where y* is y reflected in the boundary.

    For x, y in the closed half-space the two satisfy
    |x-y*|^2 - |x-y|^2 = 4 x_n y_n exactly.
    """
    cx = as_coords(x)
    cy = as_coords(y, cx.size)
    d = float(stable_norm(cx - cy))
    cy_star = np.array(cy)
    cy_star[-1] = -cy_star[-1]
    d_star = float(stable_norm(cx - cy_star))
    return d, d_star
