"""Rigid poses with unit-quaternion orientations ([w, x, y, z] order).

The quaternion functions follow the Hamilton convention of Solà,
"Quaternion kinematics for the error-state Kalman filter" (arXiv:1711.02508):
``quat_multiply_f(a, b)`` rotates by ``b`` first, then by ``a``.

Two layers.  Each formula exists once, as a float core on sequences of Python
floats that returns floats or tuples: ``quat_multiply_f``, ``rotate_f``,
``quat_from_rotvec_f``, ``quat_to_rotvec_f``, ``unit_orientation_f``,
``integrate_twist``, ``rotation_offset``/``pose_offset`` (the translation and
rotation from one pose to another) and ``pose_error`` (their scalar
weighting).  ``Pose``, ``Rotation`` and ``pose_step`` call the cores on
``tolist()`` floats (``Pose`` rotates by ``quat_apply``'s matrix); the skill
loop and ``camera`` call them on float tick state.  Elementwise ``+ - * /``,
``math.sqrt`` and negation round the same on Python floats as on numpy arrays,
and the short dot products (``vec_norm``, ``vec_dot``, ``rotate_f``) are plain
left-to-right float sums: no BLAS kernel changes their rounding.

Every value type of the package stores each array a caller gives it as a
``frozen_copy``: a read-only copy, with its shape checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SMALL_ANGLE = 1e-3  # below this, rotvec <-> quaternion use Taylor series
ANGLE_WEIGHT_M = 0.1  # meters of pose error per radian of rotation


def frozen_copy(v, shape: tuple | None = None, name: str = "array",
                dtype=float) -> np.ndarray:
    """A read-only ``dtype`` copy of ``v``, so neither the caller nor the
    holder can change the other's values.  Raises ValueError, naming the
    field ``name``, if ``shape`` is given and the copy has another shape."""
    arr = np.array(v, dtype=dtype)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    arr.flags.writeable = False
    return arr


def normalize(v: np.ndarray) -> np.ndarray:
    """``v`` over its norm; ValueError if that norm is zero, overflows or is
    not finite."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        nrm = np.linalg.norm(v)
    if not 0.0 < nrm < math.inf:  # also false for NaN
        raise ValueError(f"cannot normalize a zero or non-finite vector, "
                         f"or one whose norm overflows: {v}")
    return v / nrm


def vec_dot(v, w) -> float:
    """v . w for two triples of floats, summed left to right."""
    x, y, z = v
    a, b, c = w
    return x * a + y * b + z * c


def vec_norm(v) -> float:
    """Euclidean norm of 3 or 4 floats, the squares summed left to right."""
    if len(v) == 3:
        x, y, z = v
        return math.sqrt(x * x + y * y + z * z)
    w, x, y, z = v
    return math.sqrt(w * w + x * x + y * y + z * z)


def unit_orientation_f(position, orientation) -> tuple:
    """A pose's orientation as ``Pose`` stores it: q / |q|, negated if w < 0.

    Takes 3 and 4 floats and returns 4.  Raises ValueError unless every entry
    of ``position`` and ``orientation`` is finite and |q| is within 1e-6 of 1.
    The skill loop calls it on every tick, so a tick checks and rounds exactly
    as a ``Pose`` would.
    """
    x, y, z = position
    w, qx, qy, qz = orientation
    # a finite sum has finite terms; only an overflowing one needs the full check
    if (not math.isfinite(x + y + z + w + qx + qy + qz)
            and not all(map(math.isfinite, (x, y, z, w, qx, qy, qz)))):
        raise ValueError(f"pose entries must be finite: position {list(position)}, "
                         f"orientation {list(orientation)}")
    nrm = vec_norm(orientation)
    if abs(nrm - 1.0) > 1e-6:
        raise ValueError("orientation quaternion not unit norm: "
                         f"{np.array(orientation)}")
    q = (w / nrm, qx / nrm, qy / nrm, qz / nrm)
    if q[0] < 0.0:
        q = (-q[0], -q[1], -q[2], -q[3])
    return q


# ------------------------------------------------------------- quaternions

def quat_multiply_f(a, b) -> tuple:
    """Hamilton product a * b of two 4-sequences of floats."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + bw * ax + (ay * bz - az * by),
            aw * by + bw * ay + (az * bx - ax * bz),
            aw * bz + bw * az + (ax * by - ay * bx))


def rotate_f(q, v) -> tuple:
    """3 floats ``v`` rotated by the unit quaternion ``q``: the vector of q v q*."""
    w, x, y, z = q
    return quat_multiply_f(quat_multiply_f(q, (0.0, *v)), (w, -x, -y, -z))[1:]


def quat_from_rotvec_f(rotvec) -> tuple:
    """Unit quaternion of the axis-angle vector ``rotvec`` (3 floats)."""
    x, y, z = rotvec
    angle = math.sqrt(x * x + y * y + z * z)
    if angle <= SMALL_ANGLE:
        angle2 = angle * angle
        scale = 0.5 - angle2 / 48 + angle2 * angle2 / 3840
    else:
        scale = math.sin(angle / 2) / angle
    return (math.cos(angle / 2), scale * x, scale * y, scale * z)


def quat_to_rotvec_f(q) -> tuple:
    """Axis-angle vector of a unit quaternion (4 floats), with angle in [0, pi]."""
    w, x, y, z = q
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    angle = 2.0 * math.atan2(math.sqrt(x * x + y * y + z * z), w)
    if angle <= SMALL_ANGLE:
        angle2 = angle * angle
        scale = 2 + angle2 / 12 + 7 * angle2 * angle2 / 2880
    else:
        scale = angle / math.sin(angle / 2)
    return (scale * x, scale * y, scale * z)


def rotation_offset(goal_q, q) -> tuple[tuple, float]:
    """Axis-angle rotation from orientation ``q`` to ``goal_q`` (4 floats
    each), with its norm."""
    w, x, y, z = q
    dr = quat_to_rotvec_f(quat_multiply_f(goal_q, (w, -x, -y, -z)))
    return dr, vec_norm(dr)


def pose_offset(goal_p, goal_q, p, q) -> tuple[tuple, float, tuple, float]:
    """Translation and axis-angle rotation from pose (p, q) to the goal, as
    floats, each with its norm; the norms are ``Pose.distance``."""
    gx, gy, gz = goal_p
    x, y, z = p
    dp = (gx - x, gy - y, gz - z)
    return (dp, vec_norm(dp), *rotation_offset(goal_q, q))


def pose_error(dist: float, ang: float) -> float:
    """Scalar pose error of a ``Pose.distance``: the larger of the distance in
    meters and ``ANGLE_WEIGHT_M`` per radian of rotation."""
    return max(dist, ANGLE_WEIGHT_M * ang)


def quat_matrix(q: np.ndarray) -> np.ndarray:
    """3x3 rotation matrix of a unit quaternion."""
    w, x, y, z = q.tolist()
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.array([[x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
                     [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
                     [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2]])


def quat_apply(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate a 3-vector or each row of an (n, 3) array, as (M @ v.T).T."""
    return (quat_matrix(q) @ np.asarray(v, dtype=float).T).T


class Rotation:
    """A rotation held as a unit quaternion, as ``Pose.rotation`` returns it:
    composition by ``*`` and as_rotvec."""

    __slots__ = ("quat",)

    def __init__(self, quat: np.ndarray):
        self.quat = quat

    def __mul__(self, other: "Rotation") -> "Rotation":
        return Rotation(np.array(quat_multiply_f(self.quat.tolist(),
                                                 other.quat.tolist())))

    def as_rotvec(self) -> np.ndarray:
        return np.array(quat_to_rotvec_f(self.quat.tolist()))


# ------------------------------------------------------------- poses

@dataclass(frozen=True)
class Pose:
    """Position in meters plus unit quaternion [w, x, y, z]."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    orientation: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))

    def __post_init__(self):
        p = frozen_copy(self.position, (3,), "position")
        q = np.array(self.orientation, dtype=float)  # scratch: not kept
        if q.shape != (4,):
            raise ValueError(f"orientation must have shape (4,), got {q.shape}")
        q = q.tolist()
        # a finite entry above 2 already rules out a unit norm, so it is
        # rejected as such at once, also beside a NaN entry that the
        # finiteness check would name.  A NaN or infinite maximum is left to
        # that check, which runs before the norm.
        if 2.0 < max(map(abs, q)) < math.inf:
            raise ValueError(f"orientation quaternion not unit norm: {np.array(q)}")
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "orientation",
                           frozen_copy(unit_orientation_f(p.tolist(), q)))

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
                    quat_multiply_f(self.orientation.tolist(),
                                    other.orientation.tolist()))

    def inverse(self) -> "Pose":
        w, x, y, z = self.orientation.tolist()
        q_inv = np.array((w, -x, -y, -z))
        return Pose(-quat_apply(q_inv, self.position), q_inv)

    def rotvec(self) -> np.ndarray:
        return np.array(quat_to_rotvec_f(self.orientation.tolist()))

    def distance(self, other: "Pose") -> tuple[float, float]:
        """(translational, angular) distance: the norms of the translation and
        of the axis-angle rotation taking self to other."""
        _, dist, _, ang = pose_offset(*other.as_floats(), *self.as_floats())
        return dist, ang

    def approx_equal(self, other: "Pose", tol: float = 1e-9) -> bool:
        d, a = self.distance(other)
        return d <= tol and a <= tol

    def translated(self, offset: np.ndarray) -> "Pose":
        return Pose(self.position + np.asarray(offset, dtype=float), self.orientation)

    def as_floats(self) -> tuple[list, list]:
        """Position and orientation as lists of Python floats."""
        return self.position.tolist(), self.orientation.tolist()

    def as_vector(self) -> np.ndarray:
        """6-vector [x, y, z, rx, ry, rz] with axis-angle orientation."""
        return np.concatenate([self.position, self.rotvec()])

    def to_json(self) -> dict:
        return {
            "position": [float(x) for x in self.position],
            "orientation": [float(x) for x in self.orientation],
        }

    @staticmethod
    def from_rotvec(position, rotvec) -> "Pose":
        return Pose(position,
                    quat_from_rotvec_f(np.asarray(rotvec, dtype=float).tolist()))


IDENTITY = Pose()


def integrate_twist(position, orientation, linear, angular,
                    dt: float) -> tuple[tuple, tuple]:
    """Position and un-normalised quaternion, as float tuples, after a
    world-frame twist over dt (rotation composed on the left); takes
    sequences of floats, and ``unit_orientation_f`` normalises the result."""
    x, y, z = position
    vx, vy, vz = linear
    wx, wy, wz = angular
    dq = quat_from_rotvec_f((wx * dt, wy * dt, wz * dt))
    return (x + vx * dt, y + vy * dt, z + vz * dt), quat_multiply_f(dq, orientation)


def pose_step(pose: Pose, linear: np.ndarray, angular: np.ndarray, dt: float) -> Pose:
    """Integrate a world-frame twist over dt (rotation composed on the left)."""
    return Pose(*integrate_twist(*pose.as_floats(),
                                 np.asarray(linear, dtype=float).tolist(),
                                 np.asarray(angular, dtype=float).tolist(), dt))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Unit quaternion of a uniform random rotation from four normal deviates
    (deterministic per rng state)."""
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)
