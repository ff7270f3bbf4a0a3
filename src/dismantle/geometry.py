"""Rigid poses with unit-quaternion orientations ([w, x, y, z] order).

The quaternion functions follow the Hamilton convention of Solà,
"Quaternion kinematics for the error-state Kalman filter" (arXiv:1711.02508):
``quat_multiply(a, b)`` rotates by ``b`` first, then by ``a``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SMALL_ANGLE = 1e-3  # below this, rotvec <-> quaternion use Taylor series
_CONJUGATE_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def _as_vec(v, n, name):
    arr = np.array(v, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    return arr


def normalize(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / nrm


# ------------------------------------------------------------- quaternions

def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b."""
    aw, ax, ay, az = a.tolist()
    bw, bx, by, bz = b.tolist()
    return np.array([aw * bw - ax * bx - ay * by - az * bz,
                     aw * bx + bw * ax + (ay * bz - az * by),
                     aw * by + bw * ay + (az * bx - ax * bz),
                     aw * bz + bw * az + (ax * by - ay * bx)])


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    """Inverse of a unit quaternion."""
    return q * _CONJUGATE_SIGNS


def quat_from_rotvec(rotvec) -> np.ndarray:
    """Unit quaternion of the axis-angle vector ``rotvec``."""
    x, y, z = np.asarray(rotvec, dtype=float).tolist()
    angle = math.sqrt(x * x + y * y + z * z)
    if angle <= SMALL_ANGLE:
        angle2 = angle * angle
        scale = 0.5 - angle2 / 48 + angle2 * angle2 / 3840
    else:
        scale = math.sin(angle / 2) / angle
    return np.array([math.cos(angle / 2), scale * x, scale * y, scale * z])


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    """Axis-angle vector of a unit quaternion, with angle in [0, pi]."""
    w, x, y, z = q.tolist()
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    angle = 2.0 * math.atan2(math.sqrt(x * x + y * y + z * z), w)
    if angle <= SMALL_ANGLE:
        angle2 = angle * angle
        scale = 2 + angle2 / 12 + 7 * angle2 * angle2 / 2880
    else:
        scale = angle / math.sin(angle / 2)
    return np.array([scale * x, scale * y, scale * z])


def quat_matrix(q: np.ndarray) -> np.ndarray:
    """3x3 rotation matrix of a unit quaternion."""
    w, x, y, z = q.tolist()
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.array([[x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
                     [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
                     [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2]])


def quat_apply(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate a 3-vector or each row of an (n, 3) array.

    An (n, 3) result is column-major (the transpose of M @ v.T): row norms
    and per-column arithmetic that follow run faster on it.
    """
    return (quat_matrix(q) @ np.asarray(v, dtype=float).T).T


class Rotation:
    """A rotation held as a unit quaternion, for callers of ``Pose.rotation``
    and ``random_rotation``: apply, inv, composition by ``*`` and as_rotvec."""

    __slots__ = ("quat",)

    def __init__(self, quat: np.ndarray):
        self.quat = quat

    def apply(self, v: np.ndarray) -> np.ndarray:
        return quat_apply(self.quat, v)

    def inv(self) -> "Rotation":
        return Rotation(quat_conjugate(self.quat))

    def __mul__(self, other: "Rotation") -> "Rotation":
        return Rotation(quat_multiply(self.quat, other.quat))

    def as_rotvec(self) -> np.ndarray:
        return quat_to_rotvec(self.quat)


# ------------------------------------------------------------- poses

@dataclass(frozen=True)
class Pose:
    """Position in meters plus unit quaternion [w, x, y, z]."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    orientation: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))

    def __post_init__(self):
        p = _as_vec(self.position, 3, "position")
        q = _as_vec(self.orientation, 4, "orientation")
        if not (np.isfinite(p).all() and np.isfinite(q).all()):
            raise ValueError(f"pose entries must be finite: position {p.tolist()}, "
                             f"orientation {q.tolist()}")
        if abs(np.linalg.norm(q) - 1.0) > 1e-6:
            raise ValueError(f"orientation quaternion not unit norm: {q}")
        q = q / np.linalg.norm(q)
        if q[0] < 0.0:
            q = -q
        p.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "orientation", q)

    @property
    def rotation(self) -> Rotation:
        return Rotation(self.orientation)

    def rotate(self, v: np.ndarray) -> np.ndarray:
        return quat_apply(self.orientation, v)

    def apply(self, points: np.ndarray) -> np.ndarray:
        return quat_apply(self.orientation, points) + self.position

    def compose(self, other: "Pose") -> "Pose":
        """self * other: other expressed in self's frame, result in the parent frame."""
        return Pose(self.apply(other.position),
                    quat_multiply(self.orientation, other.orientation))

    def inverse(self) -> "Pose":
        q_inv = quat_conjugate(self.orientation)
        return Pose(-quat_apply(q_inv, self.position), q_inv)

    def rotvec(self) -> np.ndarray:
        return quat_to_rotvec(self.orientation)

    def translation_to(self, other: "Pose") -> np.ndarray:
        return other.position - self.position

    def rotation_to(self, other: "Pose") -> np.ndarray:
        """Axis-angle vector taking self's orientation to other's."""
        return quat_to_rotvec(quat_multiply(other.orientation,
                                            quat_conjugate(self.orientation)))

    def distance(self, other: "Pose") -> tuple[float, float]:
        """(translational, angular) distance."""
        return (
            float(np.linalg.norm(self.translation_to(other))),
            float(np.linalg.norm(self.rotation_to(other))),
        )

    def approx_equal(self, other: "Pose", tol: float = 1e-9) -> bool:
        d, a = self.distance(other)
        return d <= tol and a <= tol

    def translated(self, offset: np.ndarray) -> "Pose":
        return Pose(self.position + np.asarray(offset, dtype=float), self.orientation)

    def as_vector(self) -> np.ndarray:
        """6-vector [x, y, z, rx, ry, rz] with axis-angle orientation."""
        return np.concatenate([self.position, self.rotvec()])

    def to_json(self) -> dict:
        return {
            "position": [float(x) for x in self.position],
            "orientation": [float(x) for x in self.orientation],
        }

    @staticmethod
    def from_json(obj: dict) -> "Pose":
        return Pose(obj["position"], obj["orientation"])

    @staticmethod
    def from_rotvec(position, rotvec) -> "Pose":
        return Pose(position, quat_from_rotvec(rotvec))


IDENTITY = Pose()


def pose_step(pose: Pose, linear: np.ndarray, angular: np.ndarray, dt: float) -> Pose:
    """Integrate a world-frame twist over dt (rotation composed on the left)."""
    dq = quat_from_rotvec(np.asarray(angular, dtype=float) * dt)
    return Pose(pose.position + np.asarray(linear, dtype=float) * dt,
                quat_multiply(dq, pose.orientation))


def random_rotation(rng: np.random.Generator) -> Rotation:
    """Uniform random rotation from four normal deviates (deterministic per rng state)."""
    q = rng.normal(size=4)
    return Rotation(q / np.linalg.norm(q))
