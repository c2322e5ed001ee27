"""The blocked window join and what runs on it: the neighbour-count tables,
the neighbour filters and the nearest-in-time association, each against the
per-frame, per-match or per-pair oracle in ``conftest.py``, bitwise."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trajcal import join
from trajcal import pipeline as pl
from trajcal.features import extract_features
from trajcal.matching import (
    MatchWeights,
    PositionMatch,
    apply_semantic_filters,
    filter_bbox,
    filter_mutual_nn,
    filter_neighbor_count,
    filter_neighborhood_distribution,
    motion_match,
)
from trajcal.model import Trajectory, Transform4D
from trajcal.simulator import default_scenario, make_pair

from conftest import (
    assert_same_association,
    make_database,
    make_position,
    neighbor_count_table,
    oracle_filter_bbox,
    oracle_filter_mutual_nn,
    oracle_filter_neighbor_count,
    oracle_filter_neighborhood_distribution,
    oracle_motion_match,
    oracle_neighbor_count_table,
    oracle_reassociate,
)


def brute_join(keys, sorted_keys, reach):
    return [(i, j) for i in range(len(keys)) for j in range(len(sorted_keys))
            if keys[i] - reach <= sorted_keys[j] <= keys[i] + reach]


def joined(keys, sorted_keys, reach):
    blocks = list(join.window_join(np.asarray(keys), np.asarray(sorted_keys), reach))
    pairs = [(int(i), int(j)) for owner, idx in blocks for i, j in zip(owner, idx)]
    return blocks, pairs


def tracked(frames, track, y=0.0, label="car"):
    """A track observed at the given (strictly increasing) frames: tracker
    gaps where frames are skipped."""
    return Trajectory(track, tuple(
        make_position(0.5 * f, y, 1.0, 0.1 * f, frame=f, label=label, track=track)
        for f in frames))


def all_matches(db_p, db_q):
    return [PositionMatch((ti, pi), (tj, pj), 0.0)
            for ti, tp in enumerate(db_p.trajectories) for pi in range(len(tp))
            for tj, tq in enumerate(db_q.trajectories) for pj in range(len(tq))]


@pytest.fixture(scope="module")
def scene():
    cfg = default_scenario(n_vehicles=25, duration=45.0, noise_sigma=0.2,
                           time_offset=0.537, seed=7)
    db_p, db_q, truth = make_pair(cfg)
    fp, fq = extract_features(db_p), extract_features(db_q)
    return db_p, db_q, truth, fp, fq, motion_match(fp, fq, MatchWeights())


class TestWindowJoin:
    @pytest.mark.parametrize("block", [1, 3, 7, 4096])
    @pytest.mark.parametrize("reach", [0.0, 0.05, 0.3])
    def test_every_pair_in_order_and_blocks_bounded(self, monkeypatch, rng, block, reach):
        monkeypatch.setattr(join, "JOIN_BLOCK", block)
        keys = np.round(rng.uniform(0, 2, 40), 1)  # ties, and keys equal to sorted keys
        sorted_keys = np.sort(np.round(rng.uniform(0, 2, 30), 1))
        blocks, pairs = joined(keys, sorted_keys, reach)
        assert pairs == brute_join(keys, sorted_keys, reach)
        owners = [set(owner.tolist()) for owner, _ in blocks]
        for a, b in zip(owners, owners[1:]):
            assert not a & b  # a block never splits one key's window
        for owner, _ in blocks:
            assert len(owner) <= block or len(set(owner.tolist())) == 1

    def test_zero_width_on_integers(self):
        frames = np.array([0, 0, 1, 3, 3, 3, 4])
        _, pairs = joined(frames, frames, 0)
        assert pairs == brute_join(frames, frames, 0)

    def test_empty_sides(self):
        assert joined(np.empty(0), np.arange(3.0), 1.0) == ([], [])
        blocks, pairs = joined(np.arange(3.0), np.empty(0), 1.0)
        assert pairs == [] and all(len(owner) == 0 for owner, _ in blocks)


class TestNeighbourTables:
    def test_seeded_scene(self, scene):
        db_p, db_q = scene[:2]
        for db in (db_p, db_q):
            for radius in (15.0, 4.0):
                got = neighbor_count_table(db, radius)
                want = oracle_neighbor_count_table(db, radius)
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype
                    np.testing.assert_array_equal(g, w)

    def test_single_object_frames_and_empty_database(self):
        db = make_database([tracked([0, 1, 2], "a"), tracked([2, 5], "b", y=3.0),
                            tracked([7], "c", y=1.0)])
        got = neighbor_count_table(db, 15.0)
        for g, w in zip(got, oracle_neighbor_count_table(db, 15.0)):
            np.testing.assert_array_equal(g, w)
        assert got[2].tolist() == [0] and got[0].tolist() == [0, 0, 1]
        assert neighbor_count_table(make_database([]), 15.0) == []

    def test_block_split_invariance(self, scene, monkeypatch):
        # each copy computes its own table: a database keeps the one it made
        db_p = scene[0]
        want = neighbor_count_table(replace(db_p), 15.0)
        monkeypatch.setattr(join, "JOIN_BLOCK", 5)
        for g, w in zip(neighbor_count_table(replace(db_p), 15.0), want):
            np.testing.assert_array_equal(g, w)


def gappy_databases():
    """Tracker gaps and track ends inside a few frames of most positions."""
    db_p = make_database([
        tracked([0, 1, 2, 3, 6, 7, 9, 10, 11], "a"),
        tracked([1, 2, 3, 4, 5, 6], "b", y=3.0),
        tracked([2, 4, 6, 8, 10], "c", y=6.0),
        tracked([5], "d", y=2.0),
    ], sensor_id="P")
    db_q = make_database([
        tracked([0, 1, 2, 3, 4, 5, 6, 7, 8], "x", y=1.0),
        tracked([3, 4, 7, 8, 9], "y", y=4.0),
        tracked([6, 7], "z", y=30.0),
    ], sensor_id="Q")
    return db_p, db_q


class TestFilterParity:
    def test_seeded_scene(self, scene):
        db_p, db_q, _, fp, fq, raw = scene
        w = MatchWeights()
        assert filter_mutual_nn(raw, fp, fq, w) == oracle_filter_mutual_nn(raw, fp, fq, w)
        for tol in (0.0, 0.1, 0.5, 2.0):
            got = filter_bbox(raw, db_p, db_q, tol)
            assert got == oracle_filter_bbox(raw, db_p, db_q, tol)
        assert 0 < len(got) < len(raw)
        for tol in (0, 1, 3):
            assert filter_neighbor_count(raw, db_p, db_q, 15.0, tol) == \
                oracle_filter_neighbor_count(raw, db_p, db_q, 15.0, tol)
        for k, tol in ((5, 4), (0, 0), (2, 1), (5, 12)):
            got = filter_neighborhood_distribution(raw, db_p, db_q, 15.0, k, tol)
            assert got == oracle_filter_neighborhood_distribution(raw, db_p, db_q, 15.0, k, tol)
            assert 0 < len(got) < len(raw)

    @pytest.mark.parametrize("d_th", [0.05, 0.5, 2.5, 50.0])
    def test_motion_match(self, scene, d_th):
        _, _, _, fp, fq, _ = scene
        w = MatchWeights(lambda_sigma=0.3, d_th=d_th)
        got = motion_match(fp, fq, w)
        want = oracle_motion_match(fp, fq, w)
        assert got == want and len(got) > 0
        assert all(type(v) is int for m in got for v in m.ref + m.cand)
        assert all(type(m.feature_distance) is float for m in got)

    def test_cascade(self, scene):
        db_p, db_q, _, fp, fq, raw = scene
        want = oracle_filter_mutual_nn(raw, fp, fq, MatchWeights())
        want = oracle_filter_bbox(want, db_p, db_q, 0.5)
        want = oracle_filter_neighbor_count(want, db_p, db_q, 15.0, 1)
        want = oracle_filter_neighborhood_distribution(want, db_p, db_q, 15.0, 5, 4)
        assert apply_semantic_filters(raw, fp, fq, db_p, db_q) == want

    @pytest.mark.parametrize("k_frames", [0, 1, 2, 3, 5])
    def test_gaps_and_track_ends_inside_the_window(self, k_frames):
        db_p, db_q = gappy_databases()
        matches = all_matches(db_p, db_q)
        for tol in (0, 1, 2):
            got = filter_neighborhood_distribution(matches, db_p, db_q, 5.0, k_frames, tol)
            assert got == oracle_filter_neighborhood_distribution(
                matches, db_p, db_q, 5.0, k_frames, tol)
            assert filter_neighbor_count(matches, db_p, db_q, 5.0, tol) == \
                oracle_filter_neighbor_count(matches, db_p, db_q, 5.0, tol)

    def test_no_matches(self, scene):
        db_p, db_q, _, fp, fq, _ = scene
        assert filter_mutual_nn([], fp, fq) == []
        assert filter_neighbor_count([], db_p, db_q) == []
        assert filter_neighborhood_distribution([], db_p, db_q) == []

    def test_negative_history_width_rejected(self, scene):
        db_p, db_q, *_, raw = scene
        with pytest.raises(ValueError, match="k_frames"):
            filter_neighborhood_distribution(raw, db_p, db_q, 15.0, -1, 4)


def timed(times, track, y=0.0, label="car"):
    """A track sampled at the given times (exact binary fractions)."""
    return Trajectory(track, tuple(
        make_position(2.0 * t, y, 1.0, t, frame=k, label=label, track=track)
        for k, t in enumerate(times)))


class TestAssociationParity:
    def test_seeded_scene_class_and_voted_pairs(self, scene, rng):
        db_p, db_q, truth = scene[:3]
        class_pairs = pl._class_pairs(db_p, db_q)
        voted = [class_pairs[k] for k in rng.permutation(len(class_pairs))[:40]]
        assert voted != sorted(voted)
        off = Transform4D(truth.rotation, truth.translation + 0.3, truth.time_offset - 0.04)
        for tf in (truth, off):
            for pairs in (class_pairs, voted):
                for gate, time_gate in ((2.0, 0.06), (1.0, 0.05 + 1e-9), (1e9, 0.3)):
                    assert_same_association(db_p, db_q, pairs, tf, gate, time_gate)

    def test_block_split_invariance(self, scene, monkeypatch):
        db_p, db_q, truth = scene[:3]
        pairs = pl._class_pairs(db_p, db_q)
        monkeypatch.setattr(join, "JOIN_BLOCK", 3)
        rows = assert_same_association(db_p, db_q, pairs, truth, 2.0, 0.06)
        assert len(rows) > 50

    def test_edge_cases(self):
        q_times = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
        db_p = make_database([
            timed([0.25, 0.75, 1.25], "mid"),  # exactly mid-gap: a tie
            timed([0.5, 1.0, 3.0], "on"),  # equal to Q times
            timed([1.75], "one"),  # a 1-sample P track
            timed([-1.0, 2.5, 3.25, 3.5, 9.0], "ends"),  # before the first Q sample, past the last
            timed([0.0, 0.5], "truck", label="truck"),
        ], sensor_id="P")
        db_q = make_database([
            timed(q_times, "q"),
            timed([1.25], "q1"),  # a 1-sample Q track
            timed([0.0, 0.5], "qt", label="truck"),
        ], sensor_id="Q")
        tf = Transform4D.identity()
        pairs = pl._class_pairs(db_p, db_q)
        for time_gate in (0.25, np.nextafter(0.25, 0.0), 0.5, 1.0, 0.0):
            rows = assert_same_association(db_p, db_q, pairs, tf, 1e9, time_gate)
            mid = rows[(rows[:, 0] == 0) & (rows[:, 2] == 0)]
            if time_gate >= 0.25:
                assert mid[:, 3].tolist() == [0, 1, 2]  # the earlier sample of a tie
            else:
                assert len(mid) == 0  # |dt| exactly 0.25 is out just below the gate
        # the same under a clock offset and a rotation, voted order
        tf = Transform4D.from_yaw_deg(90.0, (1.0, -2.0, 0.0), 0.25)
        voted = [(3, 0), (0, 1), (2, 0), (1, 0), (4, 2), (0, 0)]
        for gate in (1e9, 3.0):
            assert_same_association(db_p, db_q, voted, tf, gate, 0.25)

    def test_empty_pairs_and_databases(self, scene):
        db_p, db_q, truth = scene[:3]
        assert assert_same_association(db_p, db_q, [], truth, 1.0, 0.06).shape == (0, 4)
        far = Transform4D(truth.rotation, truth.translation, truth.time_offset + 1e4)
        assert len(assert_same_association(db_p, db_q, pl._class_pairs(db_p, db_q), far,
                                           1.0, 0.06)) == 0
        empty = make_database([], sensor_id="E")
        for a, b in ((empty, empty), (db_p, empty), (empty, db_q)):
            corr, rows = pl._reassociate(a, b, pl._class_pairs(a, b), truth, 1.0, 0.06)
            assert rows.shape == (0, 4) and len(corr) == 0

    def test_derive_position_pairs(self, scene):
        db_p, db_q, truth = scene[:3]
        corr = pl.derive_position_pairs(db_p, db_q, truth)
        (p_xyz, q_xyz, p_t, q_t), rows = oracle_reassociate(
            db_p, db_q, pl._class_pairs(db_p, db_q), truth, 1.0, 0.5 * db_p.frame_period + 1e-9)
        assert len(rows) > 100
        for got, want in zip((corr.p_xyz, corr.q_xyz, corr.p_times, corr.q_times),
                             (p_xyz, q_xyz, p_t, q_t)):
            np.testing.assert_array_equal(got, want)

    def test_peak_memory_is_bounded_on_a_long_scene(self):
        # the class-pair association of a 50-vehicle, 120 s scene; stacking
        # every pair's whole P track at once took 11 MB
        cfg = default_scenario(n_vehicles=50, duration=120.0, noise_sigma=0.2,
                               time_offset=0.537, rotation_deg=180.0, sensor_distance=28.8,
                               seed=1)
        db_p, db_q, truth = make_pair(cfg)
        pairs = pl._class_pairs(db_p, db_q)
        pl._reassociate(db_p, db_q, pairs, truth, 2.0, 0.06)  # fill the tracks' caches
        tracemalloc.start()
        try:
            _, rows = pl._reassociate(db_p, db_q, pairs, truth, 2.0, 0.06)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) > 1000
        assert peak < 2.5 * 2**20


@st.composite
def databases(draw, sensor_id):
    n_tracks = draw(st.integers(0, 4))
    trajs = []
    for k in range(n_tracks):
        steps = draw(st.lists(st.integers(1, 3), min_size=0, max_size=7))
        frames = np.cumsum([draw(st.integers(0, 4))] + steps)
        xy = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                           min_size=len(frames), max_size=len(frames)))
        label = draw(st.sampled_from(["car", "truck"]))
        trajs.append(Trajectory(f"{sensor_id}{k}", tuple(
            make_position(float(x), float(y), 1.0, 0.05 * int(f), frame=int(f), label=label,
                          track=f"{sensor_id}{k}")
            for f, (x, y) in zip(frames, xy))))
    return make_database(trajs, sensor_id=sensor_id)


class TestRandomDatabases:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(db_p=databases("P"), db_q=databases("Q"),
           radius=st.sampled_from([0.0, 1.5, 3.0, 100.0]),
           k_frames=st.integers(0, 3), tol=st.integers(0, 3),
           offset=st.sampled_from([0.0, 0.05, -0.1, 0.125]),
           time_gate=st.sampled_from([0.0, 0.025, 0.05, 0.06, 1.0]),
           gate=st.sampled_from([0.5, 2.0, 1e9]),
           seed=st.integers(0, 2**16))
    def test_same_as_the_oracles(self, db_p, db_q, radius, k_frames, tol, offset, time_gate,
                                 gate, seed):
        for db in (db_p, db_q):
            for g, w in zip(neighbor_count_table(db, radius),
                            oracle_neighbor_count_table(db, radius)):
                np.testing.assert_array_equal(g, w)
        matches = all_matches(db_p, db_q)
        assert filter_neighbor_count(matches, db_p, db_q, radius, tol) == \
            oracle_filter_neighbor_count(matches, db_p, db_q, radius, tol)
        assert filter_neighborhood_distribution(matches, db_p, db_q, radius, k_frames, tol) == \
            oracle_filter_neighborhood_distribution(matches, db_p, db_q, radius, k_frames, tol)
        pairs = pl._class_pairs(db_p, db_q)
        pairs = [pairs[k] for k in np.random.default_rng(seed).permutation(len(pairs))]
        tf = Transform4D.from_yaw_deg(30.0, (0.5, 0.0, 0.0), offset)
        assert_same_association(db_p, db_q, pairs, tf, gate, time_gate)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(db_p=databases("P"), db_q=databases("Q"),
           radius=st.sampled_from([0.0, 1.5, 3.0, 100.0]), tol=st.integers(0, 3))
    def test_count_filter_is_the_history_filter_over_the_matched_frame(self, db_p, db_q,
                                                                       radius, tol):
        matches = all_matches(db_p, db_q)
        assert filter_neighbor_count(matches, db_p, db_q, radius, tol) == \
            filter_neighborhood_distribution(matches, db_p, db_q, radius, 0, tol)
