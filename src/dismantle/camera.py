"""Simulated pinhole camera rigidly mounted at the robot flange.

The optical axis looks along the world -z direction when the flange is at
identity orientation (mount is a 180 degree turn about x), so a tool hanging
over the table sees the parts below it.  The mount has no offset, so the
camera sits at the flange position; hand-eye calibration is not modeled.
"""

from __future__ import annotations

from .geometry import quat_multiply_f, rotate_f, unit_orientation_f

CAM_MOUNT_Q = (0.0, 1.0, 0.0, 0.0)

FOCAL_PX = 525.0
CX, CY = 320.0, 240.0  # principal point: centre of a 640 x 480 image


def camera_orientation(p, q) -> tuple:
    """Unit quaternion of the camera on a flange at ``p`` with orientation ``q``."""
    return unit_orientation_f(p, quat_multiply_f(q, CAM_MOUNT_Q))


def project(points, p, q_cam) -> tuple[list, list]:
    """Pixels [u1, v1, u2, v2, ...] and depths, as lists of floats, of world
    points (float triples) seen by the camera at ``p`` with orientation
    ``q_cam``.  A point behind the camera has a non-positive depth."""
    to_cam = (q_cam[0], -q_cam[1], -q_cam[2], -q_cam[3])
    pixels, depths = [], []
    for a, b, c in points:
        cx, cy, cz = rotate_f(to_cam, (a - p[0], b - p[1], c - p[2]))
        safe_z = 1e-9 if abs(cz) < 1e-9 else cz
        pixels += (FOCAL_PX * cx / safe_z + CX, FOCAL_PX * cy / safe_z + CY)
        depths.append(cz)
    return pixels, depths
