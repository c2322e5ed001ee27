"""Core types and 4D transform algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajcal.model import (
    Trajectory,
    TrajectoryDatabase,
    Transform4D,
    blend_transforms,
    matrix_to_quat,
    quat_canonical,
    quat_multiply,
    transform_database,
)

from conftest import make_position, make_trajectory, random_position, random_transform


def apply(tf, p):
    """``p`` mapped through ``tf``: its point by ``apply_points``, its time by
    the clock offset, as ``(x, y, z, t)``."""
    x, y, z = tf.apply_points(p.xyz[None])[0].tolist()
    return x, y, z, p.t + tf.time_offset


def quat_sandwich(q, v):
    """Independent rotation route: p' = q * (0, v) * conj(q)."""
    qv = np.concatenate(([0.0], v))
    conj = np.array([q[0], -q[1], -q[2], -q[3]])
    return quat_multiply(quat_multiply(q, qv), conj)[1:]


class TestApply:
    def test_identity(self):
        p = make_position(1.0, 2.0, 3.0, 5.0)
        assert apply(Transform4D.identity(), p) == (1.0, 2.0, 3.0, 5.0)

    def test_quarter_turn(self):
        tf = Transform4D.from_yaw_deg(90.0)
        x, y, z, t = apply(tf, make_position(1.0, 0.0, 0.0, 0.0))
        assert x == pytest.approx(0.0, abs=1e-12)
        assert y == pytest.approx(1.0, abs=1e-12)
        assert z == pytest.approx(0.0, abs=1e-12)
        assert t == 0.0

    def test_yaw30_dual_formulation_oracle(self):
        # oracle 1: hand-rolled rotation matrix multiply
        c, s = math.cos(math.radians(30.0)), math.sin(math.radians(30.0))
        expected = np.array(
            [c * 2.0 + 10.0, s * 2.0 - 5.0, 2.0]
        )
        tf = Transform4D.from_yaw_deg(30.0, translation=(10.0, -5.0, 2.0), time_offset=0.5)
        # oracle 2: quaternion sandwich product, written independently here
        sandwich = quat_sandwich(tf.rotation, np.array([2.0, 0.0, 0.0])) + np.array(
            [10.0, -5.0, 2.0]
        )
        np.testing.assert_allclose(sandwich, expected, atol=1e-12)
        *xyz, t = apply(tf, make_position(2.0, 0.0, 0.0, 1.0))
        np.testing.assert_allclose(xyz, expected, atol=1e-12)
        assert t == pytest.approx(1.5, abs=1e-12)

    def test_metadata_unchanged(self):
        traj = make_trajectory([[1.0, 2.0, 3.0], [2.0, 2.0, 3.0]], track="abc",
                               bbox=(4.0, 2.0, 1.5))
        db = TrajectoryDatabase("S", (traj,), 0.1, 50.0)
        (out,) = transform_database(Transform4D.from_yaw_deg(13.0, (1, 2, 3), 4.0), db).trajectories
        np.testing.assert_array_equal(out.frames, traj.frames)
        np.testing.assert_array_equal(out.bbox, traj.bbox)
        assert out.class_label == traj.class_label
        assert out.track_id == "abc"


class TestComposeInvert:
    def test_compose_identity(self, rng):
        b = random_transform(rng)
        out = Transform4D.identity().compose(b)
        assert out.approx_equal(b, tol=1e-12)

    def test_compose_with_inverse_is_identity(self, rng):
        a = random_transform(rng)
        assert a.compose(a.inverse()).approx_equal(Transform4D.identity(), tol=1e-9)

    def test_compose_matches_pointwise_application(self, rng):
        a, b = random_transform(rng), random_transform(rng)
        ab = a.compose(b)
        for k in range(100):
            p = random_position(rng, frame=k)
            x, y, z, t = apply(b, p)
            np.testing.assert_allclose(
                apply(ab, p), apply(a, make_position(x, y, z, t)), atol=1e-9
            )

    def test_invert_identity(self):
        assert Transform4D.identity().inverse().approx_equal(Transform4D.identity(), tol=0.0)

    def test_invert_pure_translation(self):
        tf = Transform4D(np.array([1.0, 0, 0, 0]), np.array([1.0, 2.0, 3.0]), 4.0)
        inv = tf.inverse()
        np.testing.assert_allclose(inv.translation, [-1.0, -2.0, -3.0], atol=1e-12)
        assert inv.time_offset == -4.0
        np.testing.assert_allclose(inv.matrix, np.eye(3), atol=1e-12)

    def test_invert_round_trip_on_random_positions(self, rng):
        tf = Transform4D.from_yaw_deg(73.0, (5.0, 1.0, 0.0), 1.2)
        inv = tf.inverse()
        for k in range(100):
            p = random_position(rng, frame=k)
            back = apply(inv, make_position(*apply(tf, p)))
            np.testing.assert_allclose(back, [p.x, p.y, p.z, p.t], atol=1e-9)


transforms_st = st.builds(
    lambda seed: random_transform(np.random.default_rng(seed)),
    st.integers(min_value=0, max_value=2**31 - 1),
)


class TestProperties:
    @given(transforms_st, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_apply_invert_recovers(self, tf, seed):
        p = random_position(np.random.default_rng(seed))
        back = apply(tf.inverse(), make_position(*apply(tf, p)))
        np.testing.assert_allclose(back, [p.x, p.y, p.z, p.t], atol=1e-9)

    @given(transforms_st, transforms_st, transforms_st)
    @settings(max_examples=40, deadline=None)
    def test_compose_associative(self, a, b, c):
        lhs = a.compose(b).compose(c)
        rhs = a.compose(b.compose(c))
        assert lhs.approx_equal(rhs, tol=1e-9)

    @given(transforms_st, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rigidity(self, tf, seed):
        rng = np.random.default_rng(seed)
        a, b = random_position(rng), random_position(rng)
        d_before = np.linalg.norm(a.xyz - b.xyz)
        d_after = np.linalg.norm(np.subtract(apply(tf, a)[:3], apply(tf, b)[:3]))
        assert d_after == pytest.approx(d_before, abs=1e-9)

    @given(transforms_st)
    @settings(max_examples=60, deadline=None)
    def test_rotation_invariants(self, tf):
        q = tf.rotation
        assert abs(np.linalg.norm(q) - 1.0) <= 1e-9
        assert q[0] >= 0.0
        m = tf.matrix
        np.testing.assert_allclose(m.T @ m, np.eye(3), atol=1e-9)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-9)

    @given(transforms_st)
    @settings(max_examples=40, deadline=None)
    def test_matrix_quaternion_round_trip(self, tf):
        q2 = matrix_to_quat(tf.matrix)
        np.testing.assert_allclose(q2, tf.rotation, atol=1e-9)

    @given(transforms_st)
    @settings(max_examples=30, deadline=None)
    def test_quaternion_matches_scipy(self, tf):
        from scipy.spatial.transform import Rotation

        w, x, y, z = tf.rotation
        expected = Rotation.from_quat([x, y, z, w]).as_matrix()
        np.testing.assert_allclose(tf.matrix, expected, atol=1e-12)


class TestBlend:
    def test_equal_weight_midpoint_translation(self):
        a = Transform4D(np.array([1.0, 0, 0, 0]), np.array([1.0, 0, 0]), 0.0)
        b = Transform4D(np.array([1.0, 0, 0, 0]), np.array([3.0, 0, 0]), 2.0)
        out = blend_transforms(a, b, 0.5, 0.5)
        np.testing.assert_allclose(out.translation, [2.0, 0, 0], atol=1e-12)
        assert out.time_offset == pytest.approx(1.0)

    def test_full_weight_returns_input(self, rng):
        a, b = random_transform(rng), random_transform(rng)
        assert blend_transforms(a, b, 1.0, 0.0).approx_equal(a, tol=1e-12)
        assert blend_transforms(a, b, 0.0, 1.0).approx_equal(b, tol=1e-12)

    def test_hemisphere_alignment(self, rng):
        a = random_transform(rng)
        flipped = Transform4D(-a.rotation, a.translation, a.time_offset)
        # canonicalization already restores the sign; blending equal rotations
        # through the opposite hemisphere must not cancel to zero
        out = blend_transforms(a, flipped, 0.5, 0.5)
        assert out.approx_equal(a, tol=1e-9)

    def test_small_rotation_blend_is_between(self):
        a = Transform4D.from_yaw_deg(10.0)
        b = Transform4D.from_yaw_deg(20.0)
        out = blend_transforms(a, b, 0.5, 0.5)
        yaw = math.degrees(math.atan2(out.matrix[1, 0], out.matrix[0, 0]))
        assert yaw == pytest.approx(15.0, abs=0.1)


class TestValidation:
    def test_position_rejects_bad_bbox(self):
        with pytest.raises(ValueError, match="bbox"):
            make_position(0, 0, 0, 0, bbox=(0.0, 1.0, 1.0))

    def test_position_rejects_nonfinite_time(self):
        with pytest.raises(ValueError):
            make_position(0, 0, 0, math.nan)

    def test_position_rejects_unknown_class(self):
        with pytest.raises(ValueError, match="class"):
            make_position(0, 0, 0, 0, label="boat")

    def test_trajectory_requires_increasing_time(self):
        p0 = make_position(0, 0, 0, 1.0, frame=0)
        p1 = make_position(1, 0, 0, 1.0, frame=1)
        with pytest.raises(ValueError, match="strictly increase"):
            Trajectory("t0", (p0, p1))

    def test_trajectory_rejects_foreign_track(self):
        p0 = make_position(0, 0, 0, 0.0, track="t0")
        p1 = make_position(1, 0, 0, 0.1, frame=1, track="other")
        with pytest.raises(ValueError, match="track_id"):
            Trajectory("t0", (p0, p1))

    def test_database_rejects_duplicate_ids(self):
        t = make_trajectory([[0, 0, 0], [1, 0, 0]])
        with pytest.raises(ValueError, match="duplicate"):
            TrajectoryDatabase("S", (t, t), 0.1, 50.0)

    def test_database_rejects_bad_params(self):
        t = make_trajectory([[0, 0, 0], [1, 0, 0]])
        with pytest.raises(ValueError):
            TrajectoryDatabase("S", (t,), 0.0, 50.0)
        with pytest.raises(ValueError):
            TrajectoryDatabase("S", (t,), 0.1, -1.0)

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            Transform4D(np.zeros(4), np.zeros(3), 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_quaternion_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            quat_canonical(np.array([bad, 0.0, 0.0, 0.0]))

    def test_canonical_sign(self):
        q = quat_canonical(np.array([-1.0, 0.2, 0.1, -0.3]))
        assert q[0] > 0


def _rows():
    """Three valid observations as columns."""
    return {
        "xyz": np.array([[0.0, 0.0, 1.0], [1.0, 0.5, 1.0], [2.0, 1.0, 1.0]]),
        "times": np.array([0.0, 0.1, 0.2]),
        "frames": np.array([3, 4, 6]),
        "bbox": np.array([[4.5, 1.8, 1.5], [4.5, 1.8, 1.5], [4.4, 1.8, 1.5]]),
        "label": "car",
    }


def _break_row(column, row, value):
    def edit(rows):
        rows[column][row] = value
    return edit


def _drop_rows(rows):
    for key in ("xyz", "times", "frames", "bbox"):
        rows[key] = rows[key][:0]


def _relabel(rows):
    rows["label"] = "boat"


# each check a trajectory's observations pass, as (edit to the valid rows,
# the message it raises)
CONSTRUCTION_CHECKS = {
    "nan coordinate": (_break_row("xyz", 1, [np.nan, 0.0, 1.0]), "finite"),
    "infinite time": (_break_row("times", 1, np.inf), "finite"),
    "non-positive box": (_break_row("bbox", 2, [4.4, 0.0, 1.5]), "bbox"),
    "non-finite box": (_break_row("bbox", 0, [np.inf, 1.8, 1.5]), "bbox"),
    "unknown class": (_relabel, "class"),
    "negative frame": (_break_row("frames", 0, -1), "non-negative"),
    "repeated time": (_break_row("times", 1, 0.0), "strictly increase"),
    "repeated frame": (_break_row("frames", 2, 4), "strictly increase"),
    "no rows": (_drop_rows, "at least one"),
}


class TestColumns:
    def test_from_columns_equals_positions(self):
        rows = _rows()
        by_hand = Trajectory("t0", [
            make_position(*xyz, t, frame=f, bbox=tuple(box), label=rows["label"], track="t0")
            for xyz, t, f, box in zip(rows["xyz"].tolist(), rows["times"].tolist(),
                                      rows["frames"].tolist(), rows["bbox"].tolist())
        ])
        columns = Trajectory.from_columns("t0", "car", rows["xyz"], rows["times"],
                                          rows["frames"], rows["bbox"])
        assert columns == by_hand
        assert len(columns) == 3 and columns.class_label == "car"
        moved = Trajectory.from_columns("t0", "car", rows["xyz"] + 1e-12, rows["times"],
                                        rows["frames"], rows["bbox"])
        assert moved != by_hand

    def test_columns_are_read_only_copies(self):
        rows = _rows()
        traj = Trajectory.from_columns("t0", "car", rows["xyz"], rows["times"], rows["frames"],
                                       rows["bbox"])
        rows["xyz"][0, 0] = 99.0
        assert traj.xyz[0, 0] == 0.0
        for column in (traj.xyz, traj.times, traj.frames, traj.bbox):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        assert traj.frames.dtype == np.int64 and traj.xyz.flags.c_contiguous

    @pytest.mark.parametrize("case", sorted(CONSTRUCTION_CHECKS))
    def test_each_check_raises_on_both_paths(self, case):
        edit, message = CONSTRUCTION_CHECKS[case]
        rows = _rows()
        edit(rows)
        with pytest.raises(ValueError, match=message):
            Trajectory("t0", [
                make_position(*xyz, t, frame=f, bbox=tuple(box), label=rows["label"])
                for xyz, t, f, box in zip(rows["xyz"].tolist(), rows["times"].tolist(),
                                          rows["frames"].tolist(), rows["bbox"].tolist())
            ])
        with pytest.raises(ValueError, match=message):
            Trajectory.from_columns("t0", rows["label"], rows["xyz"], rows["times"],
                                    rows["frames"], rows["bbox"])

    def test_columns_must_agree_in_length(self):
        rows = _rows()
        with pytest.raises(ValueError, match="disagree in shape"):
            Trajectory.from_columns("t0", "car", rows["xyz"], rows["times"], rows["frames"],
                                    rows["bbox"][:2])

    def test_transform_database_is_apply_per_position(self, rng):
        # each point as ``matrix @ xyz + translation`` rounds it
        trajs = [make_trajectory(rng.uniform(-80, 80, size=(25, 3)), track=f"t{k}")
                 for k in range(3)]
        db = TrajectoryDatabase("S", trajs, 0.1, 50.0)
        for _ in range(20):
            tf = random_transform(rng)
            out = transform_database(tf, db)
            for before, after in zip(db.trajectories, out.trajectories):
                for i, (xyz, t) in enumerate(zip(before.xyz.tolist(), before.times.tolist())):
                    assert after.xyz[i].tolist() == (tf.matrix @ xyz + tf.translation).tolist()
                    assert after.times[i] == t + tf.time_offset
                np.testing.assert_array_equal(after.frames, before.frames)
                np.testing.assert_array_equal(after.bbox, before.bbox)


class TestSerialization:
    def test_transform_json_round_trip(self, rng):
        tf = random_transform(rng)
        again = Transform4D.from_dict(tf.to_dict())
        assert again.approx_equal(tf, tol=1e-15)

    def test_from_dict_missing_key(self):
        with pytest.raises(ValueError, match="missing key"):
            Transform4D.from_dict({"qw": 1.0})

    @pytest.mark.parametrize("field", ["qx", "tx", "dt"])
    def test_from_dict_number_out_of_range_is_named(self, field):
        record = dict(Transform4D.identity().to_dict(), **{field: 10**400})
        with pytest.raises(ValueError, match=f"^{field}: "):
            Transform4D.from_dict(record)

    def test_transform_database_preserves_meta(self, rng):
        traj = make_trajectory([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        db = TrajectoryDatabase("S", (traj,), 0.1, 50.0)
        out = transform_database(random_transform(rng), db)
        assert out.sensor_id == "S"
        assert out.frame_period == db.frame_period
        assert out.sensing_range == db.sensing_range
        assert [t.track_id for t in out] == ["t0"]
