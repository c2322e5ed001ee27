"""Synthetic scenario generator and the sensor observation model."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from trajcal.model import Transform4D
from trajcal.simulator import (
    LAYOUTS,
    ScenarioConfig,
    default_scenario,
    generate_world_tracks,
    make_nonoverlapping_pair,
    make_pair,
    observe,
    sensor_pose,
)

from conftest import curvature, world_samples


class TestWorldGeneration:
    def test_deterministic_under_seed(self):
        cfg = default_scenario(n_vehicles=10, duration=30.0, seed=42)
        a = world_samples(cfg)
        b = world_samples(cfg)
        assert a == b  # value objects compare exactly

    def test_different_seeds_differ(self):
        a = world_samples(default_scenario(n_vehicles=10, seed=1))
        b = world_samples(default_scenario(n_vehicles=10, seed=2))
        assert a != b

    def test_straight_pass_is_collinear_constant_speed(self):
        # a scenario whose draws happen to include straight passes; verify by
        # construction instead: one-vehicle scenes until a straight one shows
        for seed in range(20):
            cfg = default_scenario(n_vehicles=1, duration=40.0, seed=seed)
            (track,) = generate_world_tracks(cfg)
            if len(track.segments) == 1:  # straight route
                trajs = world_samples(cfg)
                if not trajs or len(trajs[0]) < 5:
                    continue
                traj = trajs[0]
                assert curvature(traj, len(traj) // 2) == pytest.approx(-1.0, abs=1e-9)
                speeds = np.linalg.norm(np.diff(traj.xyz, axis=0), axis=1) / np.diff(traj.times)
                np.testing.assert_allclose(speeds, track.speed, rtol=1e-9)
                return
        pytest.fail("no straight route drawn in 20 seeds")

    def test_turn_curvature_matches_arc_formula(self):
        for seed in range(30):
            cfg = default_scenario(n_vehicles=1, duration=60.0, seed=seed)
            (track,) = generate_world_tracks(cfg)
            if len(track.segments) == 3:  # entry line, fillet arc, exit line
                arc = track.segments[1]
                trajs = world_samples(cfg)
                if not trajs:
                    continue
                traj = trajs[0]
                # find samples well inside the arc by arc-length bookkeeping
                s = track.speed * (traj.times - track.start_time)
                lo = track.segments[0].length
                hi = lo + arc.length
                inside = np.nonzero((s > lo + 2 * track.speed * 0.1) & (s < hi - 2 * track.speed * 0.1))[0]
                if len(inside) < 3:
                    continue
                i = int(inside[len(inside) // 2])
                gamma = track.speed * 0.1 / arc.radius
                assert curvature(traj, i) == pytest.approx(-math.cos(gamma), abs=1e-9)
                return
        pytest.fail("no turning route drawn in 30 seeds")

    def test_speeds_within_spec_range(self):
        cfg = default_scenario(n_vehicles=40, duration=30.0, seed=3)
        for track in generate_world_tracks(cfg):
            assert 3.0 <= track.speed <= 15.0

    def test_sidewalk_classes(self):
        cfg = default_scenario("sidewalk", n_vehicles=30, duration=30.0, seed=5)
        labels = {t.class_label for t in generate_world_tracks(cfg)}
        assert labels <= {"pedestrian", "bicycle"}
        for track in generate_world_tracks(cfg):
            if track.class_label == "pedestrian":
                assert 0.5 <= track.speed <= 2.0


class TestObserve:
    def test_identity_pose_reproduces_world_samples(self):
        # every track with two or more world frames (k * frame_period) inside
        # its span and the recording, sampled exactly there
        cfg = default_scenario(n_vehicles=6, duration=30.0, seed=7)
        tracks = generate_world_tracks(cfg)
        db = observe(
            tracks,
            Transform4D.identity(),
            sensing_range=1e9,
            frame_period=cfg.frame_period,
            duration=cfg.duration,
            sensor_id="W",
        )
        by_id = {t.track_id: t for t in db.trajectories}
        for track in tracks:
            k0 = math.ceil(max(0.0, track.start_time) / cfg.frame_period - 1e-9)
            k1 = math.floor(min(cfg.duration, track.end_time) / cfg.frame_period + 1e-9)
            if k1 < k0 + 1:
                assert track.track_id not in by_id
                continue
            got = by_id[track.track_id]
            np.testing.assert_array_equal(got.frames, np.arange(k0, k1 + 1))
            np.testing.assert_array_equal(got.times, got.frames * cfg.frame_period)
            np.testing.assert_array_equal(got.xyz, track.sample(got.times))

    def test_range_clipping(self):
        cfg = default_scenario(n_vehicles=10, duration=30.0, seed=9)
        tracks = generate_world_tracks(cfg)
        db = observe(
            tracks,
            Transform4D.identity(),
            sensing_range=50.0,
            frame_period=0.1,
            duration=30.0,
            sensor_id="S",
        )
        for traj in db.trajectories:
            assert np.all(np.linalg.norm(traj.xyz, axis=1) <= 50.0 + 1e-9)

    def test_noise_statistics(self):
        cfg = default_scenario(n_vehicles=40, duration=60.0, seed=1)
        tracks = generate_world_tracks(cfg)
        clean = observe(
            tracks, Transform4D.identity(), 1e9, frame_period=0.1, duration=60.0, sensor_id="A"
        )
        noisy = observe(
            tracks, Transform4D.identity(), 1e9, frame_period=0.1, duration=60.0,
            noise_sigma=0.2, seed=123, sensor_id="B",
        )
        diffs = np.vstack(
            [noisy.trajectories[i].xyz - clean.trajectories[i].xyz for i in range(len(clean))]
        )
        assert diffs.shape[0] > 10_000
        for axis in range(3):
            assert np.std(diffs[:, axis]) == pytest.approx(0.2, rel=0.10)
            assert abs(np.mean(diffs[:, axis])) < 0.02

    def test_dropout_splits_tracks(self):
        cfg = default_scenario(n_vehicles=10, duration=40.0, seed=3)
        tracks = generate_world_tracks(cfg)
        thin = observe(
            tracks, Transform4D.identity(), 1e9, frame_period=0.1, duration=40.0,
            dropout_rate=0.4, seed=5, sensor_id="S",
        )
        full = observe(
            tracks, Transform4D.identity(), 1e9, frame_period=0.1, duration=40.0, sensor_id="S"
        )
        assert thin.n_positions < full.n_positions
        assert len(thin) > len(full)  # heavy dropout fragments tracks
        ids = [t.track_id for t in thin.trajectories]
        assert len(set(ids)) == len(ids)

    def test_observe_accepts_any_sampled_motion(self):
        # world motion is anything with a track id, class, box, time span and
        # sample(times); here a straight walk from 1 s to 9 s
        walker = SimpleNamespace(
            track_id="w", class_label="pedestrian", bbox=(0.6, 0.6, 1.7),
            start_time=1.0, end_time=9.0,
            sample=lambda t: np.column_stack([1.5 * t, np.zeros(len(t)), np.full(len(t), 0.85)]),
        )
        db = observe(
            [walker], Transform4D.identity(), 1e9, frame_period=0.1, duration=20.0, sensor_id="S"
        )
        (traj,) = db.trajectories
        np.testing.assert_array_equal(traj.frames, np.arange(10, 91))
        np.testing.assert_allclose(traj.xyz[:, 0], 1.5 * traj.times)

    def test_sensor_clock_offsets_sampling_grid(self):
        cfg = default_scenario(n_vehicles=4, duration=20.0, seed=11)
        tracks = generate_world_tracks(cfg)
        pose = sensor_pose((0.0, 0.0, 0.0), 0.0, clock_offset=0.537)
        db = observe(tracks, pose, 1e9, frame_period=0.1, duration=20.0, sensor_id="S")
        for traj in db.trajectories:
            # timestamps live on the sensor's own 0.1 s grid
            np.testing.assert_allclose(
                np.round(traj.times / 0.1) * 0.1, traj.times, atol=1e-9
            )


class TestMakePair:
    def test_identical_poses_give_identity_truth(self):
        pose = sensor_pose((3.0, 4.0, 2.0), 30.0, 0.0)
        cfg = ScenarioConfig(
            layout="four_way", n_vehicles=5, duration=20.0, frame_period=0.1,
            sensing_range_p=50.0, sensing_range_q=50.0, pose_p=pose, pose_q=pose,
            noise_sigma=0.0, dropout_rate=0.0, seed=0,
        )
        _, _, truth = make_pair(cfg)
        assert truth.approx_equal(Transform4D.identity(), tol=1e-12)

    def test_diagonal_deployment_distance(self):
        cfg = default_scenario(sensor_distance=28.8, seed=0, n_vehicles=2, duration=10.0)
        _, _, truth = make_pair(cfg)
        assert np.linalg.norm(truth.translation) == pytest.approx(28.8, abs=1e-9)

    def test_truth_rotation_is_requested_yaw(self):
        cfg = default_scenario(rotation_deg=60.0, seed=0, n_vehicles=2, duration=10.0)
        _, _, truth = make_pair(cfg)
        yaw = math.degrees(math.atan2(truth.matrix[1, 0], truth.matrix[0, 0]))
        assert yaw == pytest.approx(60.0, abs=1e-9)

    def test_truth_time_offset(self):
        cfg = default_scenario(time_offset=7.3, seed=0, n_vehicles=2, duration=10.0)
        _, _, truth = make_pair(cfg)
        assert truth.time_offset == pytest.approx(7.3, abs=1e-12)

    def test_truth_maps_noiseless_q_onto_p(self):
        # same world instants (offset on the frame grid): the ground truth
        # must map Q observations exactly onto P observations of the object
        cfg = default_scenario(n_vehicles=6, duration=30.0, seed=2, time_offset=0.5)
        db_p, db_q, truth = make_pair(cfg)
        p_by_id = {t.track_id: t for t in db_p.trajectories}
        checked = 0
        for traj_q in db_q.trajectories:
            traj_p = p_by_id.get(traj_q.track_id)
            if traj_p is None:
                continue
            q_mapped = truth.apply_points(traj_q.xyz)
            q_times = traj_q.times + truth.time_offset
            common_p = np.isin(np.round(traj_p.times / 0.1), np.round(q_times / 0.1))
            common_q = np.isin(np.round(q_times / 0.1), np.round(traj_p.times / 0.1))
            if common_p.sum() == 0:
                continue
            np.testing.assert_allclose(
                traj_p.xyz[common_p], q_mapped[common_q], atol=1e-9
            )
            checked += 1
        assert checked >= 3

    def test_pair_deterministic(self):
        cfg = default_scenario(n_vehicles=8, duration=20.0, noise_sigma=0.2, seed=13)
        a = make_pair(cfg)
        b = make_pair(cfg)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_offset_sweep_grid(self):
        for offset in (0.0, 5.0, 10.0, 20.0):
            cfg = default_scenario(time_offset=offset, n_vehicles=2, duration=10.0, seed=0)
            _, _, truth = make_pair(cfg)
            assert truth.time_offset == pytest.approx(offset)

    def test_nonoverlapping_pair_shares_no_objects(self):
        cfg = default_scenario(n_vehicles=10, duration=20.0, seed=4)
        db_p, db_q = make_nonoverlapping_pair(cfg)
        assert db_p.n_positions > 0 and db_q.n_positions > 0


class TestScenarioConfig:
    def test_layout_validation(self):
        with pytest.raises(ValueError, match="layout"):
            default_scenario("roundabout")

    def test_param_validation(self):
        with pytest.raises(ValueError):
            default_scenario(n_vehicles=-1)
        with pytest.raises(ValueError):
            default_scenario(duration=0.0)
        with pytest.raises(ValueError):
            default_scenario(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            default_scenario(dropout_rate=1.0)

    @pytest.mark.parametrize("field", ["duration", "frame_period", "sensing_range_p",
                                       "sensing_range_q", "noise_sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, field, value):
        # nan slips through a plain sign test (nan <= 0 is False)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            replace(default_scenario(), **{field: value})

    def test_all_layouts_generate(self):
        for layout in LAYOUTS:
            cfg = default_scenario(layout, n_vehicles=5, duration=20.0, seed=1)
            db_p, db_q, _ = make_pair(cfg)
            assert db_p.n_positions > 0
            assert db_q.n_positions > 0

    def test_zero_vehicles_gives_empty_databases(self):
        cfg = default_scenario(n_vehicles=0, duration=10.0, seed=0)
        db_p, db_q, truth = make_pair(cfg)
        assert len(db_p) == 0 and len(db_q) == 0
        assert truth is not None
