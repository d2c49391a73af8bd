"""2-D plan-view geometry of the indoor drone environments.

The drone flies at a fixed altitude, so the world is modelled as a 2-D floor
plan: an outer rectangular boundary plus axis-aligned rectangular obstacles
(columns, furniture, wall stubs).  The camera ray-casts against this geometry
to produce depth images, and the environment checks the drone's clearance
against it for collision detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = ["Rect", "CorridorWorld", "indoor_long", "indoor_vanleer", "wrap_angle"]

#: Direction components smaller than this are treated as axis-parallel in the
#: slab intersection and the boundary distance.
_DIR_EPS = 1e-12


#: Radial ray fans by ray count.  The clearance check runs every simulation
#: step, so the fan angles are built once per ``num_rays`` instead of calling
#: ``np.linspace`` per query.  ``endpoint=False`` keeps 0 and 2π from both
#: appearing, so no ray is duplicated.
_FAN_CACHE: dict = {}


def _radial_fan(num_rays: int) -> np.ndarray:
    angles = _FAN_CACHE.get(num_rays)
    if angles is None:
        angles = np.linspace(0.0, 2.0 * np.pi, num_rays, endpoint=False)
        _FAN_CACHE[num_rays] = angles
    return angles


def wrap_angle(angle):
    """Wrap an angle (radians) into ``(-pi, pi]``.

    Works elementwise on scalars and arrays.  Angles already inside the
    interval are returned bit-unchanged, so wrapping only perturbs headings
    that have actually wound past ±π (where the perturbation is the point).
    """
    angle = np.asarray(angle, dtype=np.float64)
    two_pi = 2.0 * np.pi
    wrapped = np.pi - np.remainder(np.pi - angle, two_pi)
    return np.where((angle > np.pi) | (angle <= -np.pi), wrapped, angle)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle ``[x0, x1] x [y0, y1]`` (an obstacle footprint)."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError(f"degenerate rectangle {self}")

    def contains(self, x: float, y: float, margin: float = 0.0) -> bool:
        """Whether the point lies inside the rectangle grown by ``margin``."""
        return (
            self.x0 - margin <= x <= self.x1 + margin
            and self.y0 - margin <= y <= self.y1 + margin
        )


class CorridorWorld:
    """An indoor floor plan: outer boundary plus rectangular obstacles."""

    def __init__(
        self,
        length: float,
        width: float,
        obstacles: List[Rect],
        start_pose: Tuple[float, float, float],
        name: str = "corridor",
    ) -> None:
        if length <= 0 or width <= 0:
            raise ValueError("world length and width must be positive")
        self.length = length
        self.width = width
        self.obstacles = list(obstacles)
        self.start_pose = start_pose
        self.name = name
        # Rect bounds as (R,) arrays so the batched queries can broadcast over
        # all obstacles at once instead of looping Rect objects per ray.
        self._rect_x0 = np.array([r.x0 for r in self.obstacles], dtype=np.float64)
        self._rect_y0 = np.array([r.y0 for r in self.obstacles], dtype=np.float64)
        self._rect_x1 = np.array([r.x1 for r in self.obstacles], dtype=np.float64)
        self._rect_y1 = np.array([r.y1 for r in self.obstacles], dtype=np.float64)
        sx, sy, _ = start_pose
        if not self.is_free(sx, sy, margin=0.0):
            raise ValueError(f"start pose {start_pose} is inside an obstacle or wall")

    # ------------------------------------------------------------------ #
    # Occupancy queries
    # ------------------------------------------------------------------ #
    def in_bounds(self, x: float, y: float, margin: float = 0.0) -> bool:
        """Whether a point is inside the outer boundary (shrunk by ``margin``)."""
        return margin <= x <= self.length - margin and margin <= y <= self.width - margin

    def is_free(self, x: float, y: float, margin: float = 0.0) -> bool:
        """Whether a point (with clearance ``margin``) is collision-free."""
        if not self.in_bounds(x, y, margin):
            return False
        return not any(rect.contains(x, y, margin) for rect in self.obstacles)

    def free_mask(self, xs: np.ndarray, ys: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Vectorized :meth:`is_free`: a boolean array over point arrays."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        free = (
            (margin <= xs)
            & (xs <= self.length - margin)
            & (margin <= ys)
            & (ys <= self.width - margin)
        )
        if self.obstacles:
            px, py = xs[..., None], ys[..., None]
            inside = (
                (self._rect_x0 - margin <= px)
                & (px <= self._rect_x1 + margin)
                & (self._rect_y0 - margin <= py)
                & (py <= self._rect_y1 + margin)
            )
            free &= ~inside.any(axis=-1)
        return free

    def clearance(self, x: float, y: float, num_rays: int = 16, max_range: float = 10.0) -> float:
        """Approximate distance to the nearest surface, by radial ray casting.

        A single-point :meth:`clearances`, kept for scalar callers.
        """
        return float(self.clearances(x, y, num_rays, max_range))

    def clearances(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        num_rays: int = 16,
        max_range: float = 10.0,
    ) -> np.ndarray:
        """Minimum over a radial fan of ``num_rays`` rays, per point."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        angles = _radial_fan(num_rays)
        distances = self.ray_distances(xs[..., None], ys[..., None], angles, max_range)
        return np.min(distances, axis=-1)

    # ------------------------------------------------------------------ #
    # Ray casting
    # ------------------------------------------------------------------ #
    def ray_distance(self, x: float, y: float, angle: float, max_range: float = 30.0) -> float:
        """Distance from (x, y) along ``angle`` to the first surface.

        A single-ray :meth:`ray_distances`, kept for scalar callers.
        """
        return float(self.ray_distances(x, y, angle, max_range))

    def ray_distances(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        angles: np.ndarray,
        max_range: float = 30.0,
    ) -> np.ndarray:
        """Distance to the first surface for arrays of origins and angles.

        Inputs broadcast against each other; the result has the broadcast
        shape.  One numpy pass handles every ray against every obstacle slab
        and the boundary planes.  The per-element arithmetic (subtract,
        divide, min, max, compare) is the per-rectangle slab method's, in the
        same order, so the result is bit-identical to casting each ray
        against each rectangle in turn (``tests/test_envs.py`` keeps that
        loop as the reference).
        """
        xs, ys, angles = np.broadcast_arrays(
            np.asarray(xs, dtype=np.float64),
            np.asarray(ys, dtype=np.float64),
            np.asarray(angles, dtype=np.float64),
        )
        dx = np.cos(angles)
        dy = np.sin(angles)
        best = self._boundary_distances(xs, ys, dx, dy)
        if self.obstacles:
            ox, oy = xs[..., None], ys[..., None]
            rdx, rdy = dx[..., None], dy[..., None]
            # Slab method with masks.  Divisions run for every lane (the
            # degenerate ones produce inf/nan under errstate) and np.where
            # then substitutes the open slab (-inf, +inf) for axis-parallel
            # rays, exactly as the per-rectangle slab method skips those axes.
            with np.errstate(divide="ignore", invalid="ignore"):
                t1x = (self._rect_x0 - ox) / rdx
                t2x = (self._rect_x1 - ox) / rdx
                t1y = (self._rect_y0 - oy) / rdy
                t2y = (self._rect_y1 - oy) / rdy
            deg_x = np.abs(rdx) < _DIR_EPS
            deg_y = np.abs(rdy) < _DIR_EPS
            lo_x = np.where(deg_x, -np.inf, np.minimum(t1x, t2x))
            hi_x = np.where(deg_x, np.inf, np.maximum(t1x, t2x))
            lo_y = np.where(deg_y, -np.inf, np.minimum(t1y, t2y))
            hi_y = np.where(deg_y, np.inf, np.maximum(t1y, t2y))
            t_min = np.maximum(lo_x, lo_y)
            t_max = np.minimum(hi_x, hi_y)
            miss = (
                (deg_x & ((ox < self._rect_x0) | (ox > self._rect_x1)))
                | (deg_y & ((oy < self._rect_y0) | (oy > self._rect_y1)))
                | (t_min > t_max)
                | (t_max < 0)
            )
            hits = np.where(miss, np.inf, np.maximum(t_min, 0.0))
            best = np.minimum(best, np.min(hits, axis=-1))
        return np.minimum(best, max_range)

    def _boundary_distances(
        self, xs: np.ndarray, ys: np.ndarray, dx: np.ndarray, dy: np.ndarray
    ) -> np.ndarray:
        """Distance to the outer walls along rays starting inside the world."""
        with np.errstate(divide="ignore", invalid="ignore"):
            cx = np.where(
                dx > _DIR_EPS,
                (self.length - xs) / dx,
                np.where(dx < -_DIR_EPS, -xs / dx, np.inf),
            )
            cy = np.where(
                dy > _DIR_EPS,
                (self.width - ys) / dy,
                np.where(dy < -_DIR_EPS, -ys / dy, np.inf),
            )
        # Negative candidates (walls behind the ray) are dropped; inf stands
        # in for "no candidate", so the minimum is min(positive) exactly.
        cx = np.where(cx >= 0, cx, np.inf)
        cy = np.where(cy >= 0, cy, np.inf)
        return np.minimum(cx, cy)


def indoor_long(name: str = "indoor-long") -> CorridorWorld:
    """A long straight corridor with sparse columns (the easier map).

    Analogue of PEDRA's ``indoor-long``: the fault-free policy can fly far,
    so there is headroom for faults to reduce the safe flight distance.
    """
    obstacles = [
        Rect(12.0, 0.0, 13.0, 2.2),
        Rect(20.0, 3.8, 21.0, 6.0),
        Rect(30.0, 0.0, 31.0, 2.5),
        Rect(38.0, 3.5, 39.0, 6.0),
        Rect(48.0, 0.0, 49.0, 2.2),
        Rect(56.0, 3.8, 57.0, 6.0),
        Rect(66.0, 0.0, 67.0, 2.5),
        Rect(74.0, 3.5, 75.0, 6.0),
        Rect(84.0, 0.0, 85.0, 2.2),
        Rect(92.0, 3.8, 93.0, 6.0),
    ]
    return CorridorWorld(
        length=100.0,
        width=6.0,
        obstacles=obstacles,
        start_pose=(2.0, 3.0, 0.0),
        name=name,
    )


def indoor_vanleer(name: str = "indoor-vanleer") -> CorridorWorld:
    """A shorter, more cluttered corridor with staggered obstacles (the harder map).

    Obstacles alternate between the bottom and top halves of the corridor
    every seven metres, so the drone has to weave continuously instead of
    flying a straight line — the map is denser than ``indoor-long`` but every
    gap is wide enough for a competent policy to thread.
    """
    obstacles = [
        Rect(9.0, 0.0, 10.0, 2.6),
        Rect(16.0, 3.4, 17.0, 6.0),
        Rect(23.0, 0.0, 24.0, 2.6),
        Rect(30.0, 3.4, 31.0, 6.0),
        Rect(37.0, 0.0, 38.0, 2.6),
        Rect(44.0, 3.4, 45.0, 6.0),
        Rect(51.0, 0.0, 52.0, 2.6),
        Rect(58.0, 3.4, 59.0, 6.0),
        Rect(65.0, 0.0, 66.0, 2.6),
    ]
    return CorridorWorld(
        length=70.0,
        width=6.0,
        obstacles=obstacles,
        start_pose=(2.0, 3.0, 0.0),
        name=name,
    )
