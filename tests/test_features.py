"""Motion features: segment speeds, windowed velocity stats, curvature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajcal.errors import DegenerateTimestep, EmptyTrajectory
from trajcal.features import extract_features, segment_velocities
from trajcal.model import Trajectory, transform_database

from conftest import (
    DegenerateSegment,
    arc_trajectory,
    curvature,
    make_database,
    make_position,
    make_trajectory,
    random_transform,
    straight_trajectory,
    world_samples,
    velocity_stats,
)


class TestSegmentVelocities:
    def test_uniform_motion(self):
        v = segment_velocities(straight_trajectory(speed=10.0, n=11))
        np.testing.assert_allclose(v, 10.0, atol=1e-9)
        assert len(v) == 10

    def test_stationary(self):
        traj = make_trajectory(np.zeros((5, 3)) + [3.0, 4.0, 1.0])
        np.testing.assert_allclose(segment_velocities(traj), 0.0, atol=0.0)

    def test_circular_arc_chord_oracle(self):
        # chord of an arc of radius r swept at rate w for dt seconds
        r, w, dt = 20.0, 0.5, 0.1
        chord = 2.0 * r * math.sin(w * dt / 2.0)
        v = segment_velocities(arc_trajectory(radius=r, angular_rate=w, n=40, dt=dt))
        np.testing.assert_allclose(v, chord / dt, rtol=1e-12)

    def test_too_short(self):
        with pytest.raises(EmptyTrajectory):
            segment_velocities(make_trajectory([[0, 0, 0]]))

    def test_degenerate_timestep(self):
        p0 = make_position(0, 0, 0, 0.0, frame=0)
        p1 = make_position(1, 0, 0, 0.1, frame=1)
        traj = Trajectory("t0", (p0, p1))
        object.__setattr__(traj, "times", np.array([0.0, 0.0]))  # corrupt past validation
        with pytest.raises(DegenerateTimestep):
            segment_velocities(traj)


class TestVelocityStats:
    def test_constant_velocity(self):
        v = np.full(20, 10.0)
        for i in (0, 5, 19):
            mean, var = velocity_stats(v, i, 3)
            assert mean == pytest.approx(10.0)
            assert var == pytest.approx(0.0, abs=1e-12)

    def test_two_term_hand_computation(self):
        mean, var = velocity_stats(np.array([8.0, 12.0]), 1, 1)
        assert mean == pytest.approx(10.0)
        assert var == pytest.approx(4.0)

    def test_accelerating_direct_summation_oracle(self):
        v = 5.0 + 0.3 * np.arange(25)  # uniform acceleration
        m = 3
        for i in range(25):
            # independent direct summation over the same clipped index range
            window = [v[j] for j in range(i - m, i + m) if 0 <= j < len(v)]
            mean_o = sum(window) / len(window)
            var_o = sum((x - mean_o) ** 2 for x in window) / len(window)
            mean, var = velocity_stats(v, i, m)
            assert mean == pytest.approx(mean_o, rel=1e-12)
            assert var == pytest.approx(var_o, rel=1e-9, abs=1e-12)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            velocity_stats(np.array([]), 0, 3)


class TestCurvature:
    def test_collinear_gives_minus_one(self):
        traj = straight_trajectory(speed=8.0, n=5)
        assert curvature(traj, 2) == pytest.approx(-1.0)

    def test_right_angle_gives_zero(self):
        traj = make_trajectory([[0, 0, 0], [1, 0, 0], [1, 1, 0]])
        assert curvature(traj, 1) == pytest.approx(0.0, abs=1e-12)

    def test_arc_inscribed_angle_oracle(self):
        # at 5 m/s on a radius-20 arc sampled at 10 Hz, each segment subtends
        # gamma = v*dt/r radians; the angle between the two chords at the
        # middle point is pi - gamma, so cos(theta) = -cos(gamma)
        r, v, dt = 20.0, 5.0, 0.1
        gamma = v * dt / r
        traj = arc_trajectory(radius=r, angular_rate=v / r, n=9, dt=dt)
        assert curvature(traj, 4) == pytest.approx(-math.cos(gamma), abs=1e-12)

    def test_stationary_segment_raises(self):
        traj = make_trajectory([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
        with pytest.raises(DegenerateSegment):
            curvature(traj, 1)

    def test_boundary_index_rejected(self):
        traj = straight_trajectory(n=5)
        with pytest.raises(ValueError):
            curvature(traj, 0)
        with pytest.raises(ValueError):
            curvature(traj, 4)


class TestExtractFeatures:
    def test_invariance_under_transform(self, rng):
        db = make_database(
            [straight_trajectory(track="a"), arc_trajectory(track="b"),
             straight_trajectory(speed=3.0, track="c", direction=(0, 1, 0))]
        )
        base = extract_features(db, 3)
        for _ in range(5):
            tf = random_transform(rng)
            moved = extract_features(transform_database(tf, db), 3)
            for f0, f1 in zip(base.per_trajectory, moved.per_trajectory):
                np.testing.assert_array_equal(f0.valid, f1.valid)
                np.testing.assert_allclose(f0.curvature, f1.curvature, atol=1e-9)
                np.testing.assert_allclose(f0.velocity_mean, f1.velocity_mean, atol=1e-9)
                np.testing.assert_allclose(f0.velocity_variance, f1.velocity_variance, atol=1e-9)

    def test_single_position_trajectories_all_invalid(self):
        db = make_database([make_trajectory([[1, 2, 0]], track="solo")])
        fdb = extract_features(db, 3)
        assert not fdb.per_trajectory[0].valid.any()
        assert len(fdb.flat[0]) == 0

    def test_endpoints_invalid(self):
        fdb = extract_features(make_database([straight_trajectory(n=10)]), 3)
        valid = fdb.per_trajectory[0].valid
        assert not valid[0] and not valid[-1]
        assert valid[1:-1].all()

    def test_stationary_positions_flagged_not_fatal(self):
        pts = [[0, 0, 0], [1, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]]
        fdb = extract_features(make_database([make_trajectory(pts)]), 2)
        valid = fdb.per_trajectory[0].valid
        assert not valid[1] and not valid[2]  # segments around the stall
        assert valid[3]

    def test_recomputation_oracle_on_synthetic_scene(self, rng):
        from trajcal import simulator

        cfg = simulator.default_scenario(n_vehicles=50, duration=20.0, seed=4)
        trajectories = world_samples(cfg)
        db = make_database(trajectories[:50])
        m = 3
        fdb = extract_features(db, m)
        # independent per-position recomputation, scalar ops only
        for traj, feats in zip(db.trajectories, fdb.per_trajectory):
            n = len(traj)
            xyz = traj.xyz
            times = traj.times
            v = [
                float(np.linalg.norm(xyz[i + 1] - xyz[i]) / (times[i + 1] - times[i]))
                for i in range(n - 1)
            ]
            for i in range(n):
                window = [v[j] for j in range(max(0, i - m), min(len(v), i + m))]
                if window:
                    mean = sum(window) / len(window)
                    var = sum((x - mean) ** 2 for x in window) / len(window)
                    assert feats.velocity_mean[i] == pytest.approx(mean, rel=1e-9)
                    assert feats.velocity_variance[i] == pytest.approx(var, rel=1e-6, abs=1e-10)
                if 1 <= i <= n - 2:
                    a = xyz[i - 1] - xyz[i]
                    b = xyz[i + 1] - xyz[i]
                    na, nb = np.linalg.norm(a), np.linalg.norm(b)
                    if na > 1e-9 and nb > 1e-9:
                        assert feats.valid[i]
                        expected = float(np.dot(a, b) / (na * nb))
                        assert feats.curvature[i] == pytest.approx(expected, abs=1e-9)

    def test_permutation_invariance(self):
        t1 = straight_trajectory(track="a")
        t2 = arc_trajectory(track="b")
        f_ab = extract_features(make_database([t1, t2]), 3)
        f_ba = extract_features(make_database([t2, t1]), 3)
        np.testing.assert_allclose(
            f_ab.per_trajectory[0].velocity_mean, f_ba.per_trajectory[1].velocity_mean
        )
        np.testing.assert_allclose(
            f_ab.per_trajectory[1].curvature, f_ba.per_trajectory[0].curvature
        )

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invariance_property(self, seed):
        rng = np.random.default_rng(seed)
        db = make_database([arc_trajectory(radius=float(rng.uniform(8, 30)), track="x"),
                            straight_trajectory(speed=float(rng.uniform(1, 20)), track="y")])
        tf = random_transform(rng)
        a = extract_features(db, 3)
        b = extract_features(transform_database(tf, db), 3)
        for fa, fb in zip(a.per_trajectory, b.per_trajectory):
            np.testing.assert_array_equal(fa.valid, fb.valid)
            np.testing.assert_allclose(fa.curvature, fb.curvature, atol=1e-9)
            np.testing.assert_allclose(fa.velocity_mean, fb.velocity_mean, atol=1e-9)

    def test_bounds_always_hold(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            pts = np.cumsum(r.normal(0, 0.5, size=(40, 3)), axis=0)
            fdb = extract_features(make_database([make_trajectory(pts, track="w")]), 3)
            feats = fdb.per_trajectory[0]
            assert np.all(feats.curvature >= -1.0) and np.all(feats.curvature <= 1.0)
            assert np.all(feats.velocity_mean >= 0.0)
            assert np.all(feats.velocity_variance >= 0.0)

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            extract_features(make_database([straight_trajectory()]), 0)
