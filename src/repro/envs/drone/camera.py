"""Synthetic monocular camera.

PEDRA feeds the policy a front-facing monocular image.  Here the camera
ray-casts against the 2-D floor plan across its horizontal field of view to
obtain a depth profile, then expands it into an (1, H, W) intensity image:
nearby surfaces appear bright and tall (filling more vertical extent), far
surfaces dim and short, with a floor/ceiling gradient.  The result is an
image-shaped tensor whose structure a small CNN can exploit for obstacle
avoidance — the same role the photorealistic render plays in the paper.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.envs.drone.world import CorridorWorld

__all__ = ["DepthCamera"]


class DepthCamera:
    """Ray-casting depth camera producing (1, height, width) images."""

    def __init__(
        self,
        width: int = 32,
        height: int = 32,
        fov_degrees: float = 90.0,
        max_range: float = 20.0,
    ) -> None:
        if width <= 1 or height <= 1:
            raise ValueError("camera width and height must be greater than 1")
        if not 0.0 < fov_degrees < 180.0:
            raise ValueError(f"fov_degrees must be in (0, 180), got {fov_degrees}")
        if max_range <= 0:
            raise ValueError(f"max_range must be positive, got {max_range}")
        self.width = width
        self.height = height
        self.fov = np.deg2rad(fov_degrees)
        self.max_range = max_range
        # Pose-independent geometry, cached once: the batched renderer runs
        # every simulation step, so rebuilding these tiny arrays there would
        # dominate its cost at small image sizes.
        self._offsets = np.linspace(self.fov / 2.0, -self.fov / 2.0, self.width)
        rows = np.arange(self.height, dtype=np.float64)
        centre = (self.height - 1) / 2.0
        self._vertical = np.abs(rows - centre) / max(centre, 1.0)  # (H,)
        self._background = 0.1 * (1.0 - self._vertical)  # (H,)

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        """Shape of rendered images: (channels, height, width)."""
        return (1, self.height, self.width)

    def depth_profile(
        self, world: CorridorWorld, x: float, y: float, heading: float
    ) -> np.ndarray:
        """Per-column distance to the nearest surface, left-to-right."""
        return self.depth_profiles(world, [x], [y], [heading])[0]

    def render(
        self, world: CorridorWorld, x: float, y: float, heading: float
    ) -> np.ndarray:
        """Render the (1, H, W) intensity image for a drone pose.

        Intensity encodes inverse depth (closer = brighter).  Each column is
        filled from the vertical centre outward proportionally to the
        apparent height of the surface, so near obstacles occupy most of the
        column while distant walls leave visible floor/ceiling bands.
        """
        return self.render_batch(world, [x], [y], [heading])[0]

    def depth_profiles(
        self,
        world: CorridorWorld,
        xs: np.ndarray,
        ys: np.ndarray,
        headings: np.ndarray,
    ) -> np.ndarray:
        """Per-column surface distances for B poses: a (B, width) array."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        headings = np.asarray(headings, dtype=np.float64)
        angles = headings[:, None] + self._offsets
        return world.ray_distances(xs[:, None], ys[:, None], angles, self.max_range)

    def render_batch(
        self,
        world: CorridorWorld,
        xs: np.ndarray,
        ys: np.ndarray,
        headings: np.ndarray,
    ) -> np.ndarray:
        """Render B poses at once: a (B, 1, H, W) image stack (see :meth:`render`)."""
        return self.images_from_depths(self.depth_profiles(world, xs, ys, headings))

    def images_from_depths(self, depths: np.ndarray) -> np.ndarray:
        """Expand precomputed (B, width) depth profiles into (B, 1, H, W) images.

        Split out of :meth:`render_batch` so callers that already cast the
        camera rays (the batched environment fuses them with its clearance
        rays) can reuse the profile without a second ray-casting pass.
        """
        inverse = 1.0 - np.minimum(np.maximum(depths / self.max_range, 0.0), 1.0)
        vertical = self._vertical  # (H,)
        apparent = 0.15 + 0.85 * inverse  # (B, W)
        filled = vertical[None, :, None] <= apparent[:, None, :]  # (B, H, W)
        # Outside the surface's extent a floor/ceiling gradient gives the
        # network a weak horizon cue, like a rendered corridor image.
        images = np.where(
            filled, inverse[:, None, :], self._background[None, :, None]
        )
        return images[:, None, :, :]
