"""Simulated pinhole camera rigidly mounted at the robot flange.

The optical axis looks along the world -z direction when the flange is at
identity orientation (mount is a 180 degree turn about x), so a tool hanging
over the table sees the parts below it.  The flange-to-camera transform is
exact; hand-eye calibration is not modeled.  ``project`` takes the camera
pose, so a visual-servoing tick composes it once for projection and twist.
"""

from __future__ import annotations

import numpy as np

from .geometry import Pose

# mount: camera +z (optical axis) = world -z at identity flange orientation
CAM_MOUNT = Pose(np.zeros(3), np.array([0.0, 1.0, 0.0, 0.0]))

FOCAL_PX = 525.0
CX, CY = 320.0, 240.0  # principal point: centre of a 640 x 480 image


def camera_pose(tcp: Pose) -> Pose:
    return tcp.compose(CAM_MOUNT)


def project(points_world: np.ndarray, cam: Pose) -> tuple[np.ndarray, np.ndarray]:
    """Pixel coordinates and depths of world points seen from camera pose ``cam``.

    Returns (pixels, depths) with pixels flattened [u1, v1, u2, v2, ...].
    Depths may be non-positive if a point lies behind the camera; callers
    decide whether that is an error.
    """
    pts = cam.inverse().apply(np.asarray(points_world, dtype=float))
    z = pts[:, 2]
    safe_z = np.where(np.abs(z) < 1e-9, 1e-9, z)
    u = FOCAL_PX * pts[:, 0] / safe_z + CX
    v = FOCAL_PX * pts[:, 1] / safe_z + CY
    return np.column_stack([u, v]).reshape(-1), z.copy()
