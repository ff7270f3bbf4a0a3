import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dismantle.control import ContactPlane, Retention, Wrench
from dismantle.dspace import DirectionSet, Mobility, MobilityLabel
from dismantle.geometry import (IDENTITY, Pose, normalize, pose_step, quat_apply,
                                quat_from_rotvec_f, quat_matrix, quat_multiply_f,
                                quat_to_rotvec_f)
from dismantle.model import (Component, FeatureGeometry, GeometryKind, RelationKind,
                             Semantic, SpatialRelation)
from dismantle.skills import (ControlMode, HybridMove, StopCondition, StopKind,
                              TaskFrame)

SRC = Path(__file__).resolve().parent.parent / "src"


def _conjugate(q):
    """Inverse of a unit quaternion, as an array."""
    w, x, y, z = q
    return np.array((w, -x, -y, -z))


def test_pose_compose_inverse_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        a = Pose(rng.uniform(-1, 1, 3), q)
        q2 = rng.normal(size=4)
        q2 /= np.linalg.norm(q2)
        b = Pose(rng.uniform(-1, 1, 3), q2)
        ab = a.compose(b)
        back = a.inverse().compose(ab)
        assert back.approx_equal(b, tol=1e-9)


def test_pose_apply_matches_compose():
    s = np.sqrt(0.5)
    p = Pose(np.array([1.0, 0.0, 0.0]), np.array([s, 0.0, 0.0, s]))  # 90 deg z
    pt = p.apply(np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(pt, [1.0, 1.0, 0.0], atol=1e-9)


def test_non_unit_quaternion_rejected():
    with pytest.raises(ValueError):
        Pose(np.zeros(3), np.array([1.0, 1.0, 0.0, 0.0]))


def test_rotvec_vector_round_trip():
    v = np.array([0.1, -0.2, 0.3])
    p = Pose.from_rotvec(np.array([0.5, 0.6, 0.7]), v)
    np.testing.assert_allclose(p.rotvec(), v, atol=1e-12)
    np.testing.assert_allclose(p.as_vector(), [0.5, 0.6, 0.7, 0.1, -0.2, 0.3],
                               atol=1e-12)


def test_pose_step_integrates_linear_and_angular():
    p = pose_step(IDENTITY, np.array([1.0, 0, 0]), np.array([0, 0, np.pi]), 0.5)
    np.testing.assert_allclose(p.position, [0.5, 0, 0], atol=1e-12)
    assert abs(np.linalg.norm(p.rotvec()) - np.pi / 2) < 1e-9


def test_normalize_rejects_zero():
    with pytest.raises(ValueError):
        normalize(np.zeros(3))


@pytest.mark.parametrize("v", [[1e200, 1e200, 0.0], [0.0, -1e300, 0.0, 1e300]],
                         ids=["3", "4"])
def test_normalize_rejects_overflowing_norm_without_warning(v):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="cannot normalize"):
            normalize(v)


@pytest.mark.parametrize("v", [[0.3, -0.5, 0.8], [1e150, -3e150, 2e150],
                               [1e-150, 0.0, 4e-151], [0.1, 0.2, -0.3, 0.4]])
def test_normalize_divides_by_the_numpy_norm(v):
    a = np.array(v)
    assert normalize(v).tobytes() == (a / np.linalg.norm(a)).tobytes()


def test_distance_components():
    a = Pose(np.zeros(3))
    b = Pose.from_rotvec(np.array([0.3, 0.4, 0.0]), np.array([0.0, 0.0, 0.2]))
    d, ang = a.distance(b)
    assert d == pytest.approx(0.5)
    assert ang == pytest.approx(0.2)


def test_read_only_arrays_accepted_and_left_unchanged():
    q = np.array([0.9, 0.1, -0.3, 0.2])
    pose = Pose(np.array([0.4, -0.5, 0.6]), q / np.linalg.norm(q))
    assert not pose.position.flags.writeable
    assert not pose.orientation.flags.writeable

    v = np.array([1.0, -2.0, 0.5])
    pts = np.arange(12, dtype=float).reshape(4, 3)
    v.flags.writeable = False
    pts.flags.writeable = False
    v_before, pts_before = v.copy(), pts.copy()

    q = pose.orientation
    np.testing.assert_array_equal(pose.rotate(v), quat_apply(q, v.copy()))
    np.testing.assert_array_equal(pose.apply(v), quat_apply(q, v.copy()) + pose.position)
    np.testing.assert_array_equal(pose.apply(pts), quat_apply(q, pts.copy()) + pose.position)
    inv = pose.inverse()
    np.testing.assert_array_equal(inv.position,
                                  -quat_apply(_conjugate(q), pose.position.copy()))
    assert inv.compose(pose).approx_equal(IDENTITY, tol=1e-12)

    np.testing.assert_array_equal(v, v_before)
    np.testing.assert_array_equal(pts, pts_before)


# ------------------------------------------------------------- quaternion core

def test_quarter_turn_about_z_maps_x_to_y():
    q = np.array(quat_from_rotvec_f((0.0, 0.0, np.pi / 2)))
    np.testing.assert_allclose(q, [np.sqrt(0.5), 0.0, 0.0, np.sqrt(0.5)], atol=1e-15)
    np.testing.assert_allclose(quat_apply(q, np.array([1.0, 0.0, 0.0])), [0.0, 1.0, 0.0],
                               atol=1e-15)
    np.testing.assert_allclose(quat_matrix(q), [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
                               atol=1e-15)


@pytest.mark.parametrize("angle", [
    0.0, 1e-4, np.nextafter(1e-3, 0.0), 1e-3, np.nextafter(1e-3, 1.0), 1.0, np.pi - 1e-6])
@pytest.mark.parametrize("axis", [np.array([0.0, 0.0, 1.0]),
                                  normalize(np.array([0.3, -0.5, 0.8]))])
def test_rotvec_quaternion_round_trip(angle, axis):
    rotvec = angle * axis
    q = np.array(quat_from_rotvec_f(rotvec.tolist()))
    expected = np.concatenate([[np.cos(angle / 2)], np.sin(angle / 2) * axis])
    np.testing.assert_allclose(q, expected, rtol=0.0, atol=1e-16)
    np.testing.assert_allclose(quat_to_rotvec_f(q.tolist()), rotvec, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(quat_to_rotvec_f((-q).tolist()), rotvec, rtol=1e-15,
                               atol=0.0)


def test_product_with_inverse_is_identity_and_matches_matrices():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = (normalize(rng.normal(size=4)) for _ in range(2))
        np.testing.assert_allclose(quat_multiply_f(a, _conjugate(a)), [1, 0, 0, 0],
                                   atol=1e-15)
        np.testing.assert_allclose(quat_matrix(np.array(quat_multiply_f(a, b))),
                                   quat_matrix(a) @ quat_matrix(b), atol=1e-15)
        pa = Pose(rng.uniform(-1, 1, 3), a)
        pb = Pose(rng.uniform(-1, 1, 3), b)
        ab = pa.compose(pb)
        np.testing.assert_allclose(ab.position, pa.apply(pb.position), atol=1e-15)
        np.testing.assert_allclose(ab.rotvec(), (pa.rotation * pb.rotation).as_rotvec(),
                                   atol=1e-15)
        assert pa.compose(pa.inverse()).approx_equal(IDENTITY, tol=1e-15)
        np.testing.assert_allclose(pa.inverse().rotvec(), -pa.rotvec(), atol=1e-15)
        np.testing.assert_allclose(pa.inverse().rotvec(),
                                   quat_to_rotvec_f(_conjugate(pa.orientation)),
                                   atol=1e-15)


def test_apply_to_rows_matches_per_row_and_is_column_major():
    rng = np.random.default_rng(6)
    q = normalize(rng.normal(size=4))
    pts = rng.normal(size=(50, 3))
    out = quat_apply(q, pts)
    assert out.shape == (50, 3)
    assert out.flags.f_contiguous
    for row, got in zip(pts, out):
        np.testing.assert_allclose(got, quat_apply(q, row), rtol=0.0, atol=1e-15)


def test_import_cli_loads_no_scipy():
    code = ("import sys, dismantle.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# ------------------------------------------------------------- input checks

@pytest.mark.parametrize("position, orientation", [
    ([np.nan, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
    ([0.0, np.inf, 0.0], [1.0, 0.0, 0.0, 0.0]),
    ([0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0]),
    ([0.0, 0.0, 0.0], [1.0, 0.0, -np.inf, 0.0]),
])
def test_non_finite_pose_rejected(position, orientation):
    with pytest.raises(ValueError, match="finite"):
        Pose(np.array(position), np.array(orientation))


@pytest.mark.parametrize("orientation, message", [
    ([1e300, 1e300, 0.0, 0.0], "not unit norm"),
    ([0.0, 0.0, -1e200, 0.0], "not unit norm"),
    ([1.0, 0.0, 0.0, 2.5], "not unit norm"),
    ([1e300, np.nan, 0.0, 0.0], "not unit norm"),
    ([np.nan, 1e300, 0.0, 0.0], "finite"),
    ([1e300, np.inf, 0.0, 0.0], "finite"),
])
def test_large_orientation_entry_rejected_without_warning(orientation, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            Pose(np.zeros(3), orientation)


def _with_mask(arr):
    return DirectionSet(np.eye(3), np.ones(3, dtype=bool)).with_mask(arr).mask


def _direction_set(arr):
    return DirectionSet(arr, np.ones(len(arr), dtype=bool)).directions


def _hybrid_move(arr):
    return HybridMove(TaskFrame.WORLD, (ControlMode.POS,) * 6, arr).setpoint


def _contact_axis(arr):
    return HybridMove(TaskFrame.TCP, (ControlMode.FTC,) * 3 + (ControlMode.POS,) * 3,
                      np.zeros(6), contact_axis=arr).contact_axis


def _stop_condition(arr):
    return StopCondition(StopKind.POSE_REACHED, arr, 1e-3).target


def _spatial_relation(arr):
    return SpatialRelation(RelationKind.PLANE_CONTACT, ("a", "b"),
                           FeatureGeometry(GeometryKind.PLANE), arr).direction


@pytest.mark.parametrize("build, arr", [
    (lambda a: Pose(a).position, np.array([0.1, 0.2, 0.3])),
    (lambda a: Pose(np.zeros(3), a).orientation, np.array([1.0, 0.0, 0.0, 0.0])),
    (_with_mask, np.array([True, False, True])),
    (_direction_set, np.eye(3)),
    (_hybrid_move, np.array([0.1, 0.2, 0.3, 0.0, 0.0, 0.1])),
    (_contact_axis, np.array([0.0, 0.0, -1.0])),
    (_stop_condition, np.array([0.1, 0.2, 0.3, 0.0, 0.0, 0.1])),
    (lambda a: Wrench(a).force, np.array([1.0, 2.0, 3.0])),
    (lambda a: ContactPlane(a, np.array([0.0, 0.0, 1.0])).point,
     np.array([0.1, 0.2, 0.3])),
    (lambda a: ContactPlane(np.zeros(3), a).normal, np.array([0.0, 0.6, 0.8])),
    (lambda a: Retention(a, np.array([0.0, 0.0, 1.0])).anchor, np.array([0.1, 0.2, 0.3])),
    (lambda a: Retention(np.zeros(3), a).axis, np.array([0.0, 0.6, 0.8])),
    (lambda a: MobilityLabel(Mobility.LIN, axis=a).axis, np.array([0.0, 0.0, 1.0])),
    (lambda a: FeatureGeometry(GeometryKind.LINE, direction=a).direction,
     np.array([0.0, 0.6, 0.8])),
    (_spatial_relation, np.array([0.0, 0.0, 1.0])),
    (lambda a: Component(id="c", semantic=Semantic.GENERIC_GRASPABLE,
                         visual_features=a).visual_features,
     np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0], [0.0, 0.01, 0.0]])),
], ids=["pose.position", "pose.orientation", "with_mask", "direction_set",
        "hybrid_move", "hybrid_move.contact_axis", "stop_condition", "wrench",
        "contact_plane.point", "contact_plane.normal", "retention.anchor",
        "retention.axis", "mobility_label", "feature_geometry", "spatial_relation",
        "component.visual_features"])
def test_constructors_leave_caller_arrays_writeable(build, arr):
    before = arr.copy()
    stored = build(arr)
    assert arr.flags.writeable
    np.testing.assert_array_equal(arr, before)
    # the value keeps a read-only copy of its own
    assert not stored.flags.writeable
    assert stored is not arr and not np.shares_memory(stored, arr)
    np.testing.assert_array_equal(stored, before)
