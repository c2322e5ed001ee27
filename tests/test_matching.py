"""Feature-space matching and the semantic filter cascade."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from trajcal.features import extract_features
from trajcal.matching import (
    MatchWeights,
    apply_semantic_filters,
    filter_bbox,
    filter_mutual_nn,
    filter_neighbor_count,
    filter_neighborhood_distribution,
    motion_match,
)
from trajcal.model import transform_database

from conftest import (
    InvalidFeature,
    accelerating_trajectory,
    feature_distance,
    make_database,
    make_trajectory,
    neighbor_count_table,
    random_transform,
    straight_trajectory,
)


def feat(c=0.0, alpha=10.0, var=0.0, valid=True):
    return SimpleNamespace(curvature=c, velocity_mean=alpha, velocity_variance=var, valid=valid)


class TestFeatureDistance:
    def test_identical_is_zero(self):
        assert feature_distance(feat(), feat(), MatchWeights()) == 0.0

    def test_hand_sum(self):
        a = feat(c=0.0, alpha=10.0, var=1.0)  # sigma 1.0
        b = feat(c=0.2, alpha=11.0, var=2.25)  # sigma 1.5
        w = MatchWeights(lambda_c=1.0, lambda_alpha=1.0, lambda_sigma=1.0)
        assert feature_distance(a, b, w) == pytest.approx(0.2 + 1.0 + 0.5)

    def test_zero_sigma_weight_ignores_sigma(self):
        a = feat(var=0.0)
        b = feat(var=25.0)
        w = MatchWeights(lambda_sigma=0.0)
        assert feature_distance(a, b, w) == 0.0

    def test_invalid_feature_rejected(self):
        with pytest.raises(InvalidFeature):
            feature_distance(feat(valid=False), feat(), MatchWeights())

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            MatchWeights(lambda_c=-1.0)
        with pytest.raises(ValueError):
            MatchWeights(lambda_c=0.0, lambda_alpha=0.0, lambda_sigma=0.0)
        with pytest.raises(ValueError):
            MatchWeights(d_th=0.0)

    @pytest.mark.parametrize("field", ["lambda_c", "lambda_alpha", "lambda_sigma", "d_th"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weights_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            MatchWeights(**{field: value})


def two_speed_dbs(speeds_p, speeds_q):
    dbs = []
    for name, speeds in (("P", speeds_p), ("Q", speeds_q)):
        trajs = [
            straight_trajectory(speed=s, n=20, track=f"{name.lower()}{i}")
            for i, s in enumerate(speeds)
        ]
        dbs.append(make_database(trajs, sensor_id=name))
    return dbs


class TestMotionMatch:
    def test_self_match_at_zero_distance(self):
        db_p, db_q = two_speed_dbs([5.0, 9.0, 13.0], [5.0, 9.0, 13.0])
        fp = extract_features(db_p, 3)
        fq = extract_features(db_q, 3)
        matches = motion_match(fp, fq, MatchWeights())
        assert len(matches) == np.count_nonzero(fp.valid)
        for m in matches:
            assert m.feature_distance == pytest.approx(0.0, abs=1e-12)
            assert m.ref[0] == m.cand[0]  # same speed bucket

    def test_disjoint_speed_regimes_empty(self):
        db_p, db_q = two_speed_dbs([5.0], [25.0])
        fp = extract_features(db_p, 3)
        fq = extract_features(db_q, 3)
        w = MatchWeights(lambda_alpha=1.0, d_th=1.0)
        assert motion_match(fp, fq, w) == []

    def test_invariance_under_transform(self, rng):
        # accelerating tracks: distinct features, so nearest neighbors are
        # unique and must survive any rigid motion of either database
        db_p = make_database(
            [accelerating_trajectory(v0=4.0, track="p0"),
             accelerating_trajectory(v0=9.0, track="p1")], sensor_id="P"
        )
        db_q = make_database(
            [accelerating_trajectory(v0=9.0, track="q0"),
             accelerating_trajectory(v0=4.0, track="q1")], sensor_id="Q"
        )
        fp = extract_features(db_p, 3)
        before = motion_match(fp, extract_features(db_q, 3), MatchWeights())
        moved = transform_database(random_transform(rng), db_q)
        after = motion_match(fp, extract_features(moved, 3), MatchWeights())
        assert [(m.ref, m.cand) for m in before] == [(m.ref, m.cand) for m in after]


class TestMutualNN:
    def test_identical_databases_keep_everything(self):
        # distinct per-position features make the self-match the unique
        # nearest neighbor in both directions
        trajs = [accelerating_trajectory(v0=5.0, track="a"),
                 accelerating_trajectory(v0=9.0, track="b")]
        db_p = make_database(trajs, sensor_id="P")
        db_q = make_database(
            [make_trajectory(t.xyz, track=t.track_id, dt=0.1) for t in trajs], sensor_id="Q"
        )
        fp, fq = extract_features(db_p, 3), extract_features(db_q, 3)
        matches = motion_match(fp, fq, MatchWeights())
        kept = filter_mutual_nn(matches, fp, fq, MatchWeights())
        assert kept == matches
        assert all(m.ref == m.cand for m in kept)

    def test_asymmetric_nearest_removed(self):
        # p0 at speed 10 matches q0 (speed 10.4); but q0's nearest is p1 (10.5)
        db_p, db_q = two_speed_dbs([10.0, 10.5], [10.4])
        fp, fq = extract_features(db_p, 3), extract_features(db_q, 3)
        matches = motion_match(fp, fq, MatchWeights())
        kept = filter_mutual_nn(matches, fp, fq, MatchWeights())
        assert all(m.ref[0] == 1 for m in kept)  # only the p1 side survives

    def test_matches_brute_force_oracle(self, rng):
        # random feature sets, checked against the full distance matrix
        n = 200
        feats_p = np.column_stack(
            [rng.uniform(-1, 1, n), rng.uniform(0, 20, n), rng.uniform(0, 3, n)]
        )
        feats_q = np.column_stack(
            [rng.uniform(-1, 1, n), rng.uniform(0, 20, n), rng.uniform(0, 3, n)]
        )
        # stand-ins: one 3-position trajectory per feature row, valid only
        # at its middle position, which carries the row
        from trajcal.features import FeatureDatabase

        db = make_database([straight_trajectory(n=3, track=f"t{k}") for k in range(n)])

        def fake_db(feats):
            def column(middle):
                out = np.zeros((n, 3))
                out[:, 1] = middle
                return out.ravel()

            return FeatureDatabase("X", 3, db.stack(), column(feats[:, 0]), column(feats[:, 1]),
                                   column(feats[:, 2] * feats[:, 2]), column(1.0).astype(bool))

        fp, fq = fake_db(feats_p), fake_db(feats_q)
        w = MatchWeights(lambda_c=1.0, lambda_alpha=1.0, lambda_sigma=0.5, d_th=1e9)
        matches = motion_match(fp, fq, w)
        kept = filter_mutual_nn(matches, fp, fq, w)
        scale = np.array([1.0, 1.0, 0.5])
        dmat = np.abs(feats_p[:, None, :] - feats_q[None, :, :]) @ scale
        nn_q_of_p = dmat.argmin(axis=1)
        nn_p_of_q = dmat.argmin(axis=0)
        expected = {
            (int(i), int(nn_q_of_p[i]))
            for i in range(n)
            if nn_p_of_q[nn_q_of_p[i]] == i
        }
        got = {(m.ref[0], m.cand[0]) for m in kept}
        assert got == expected


def neighbors_scene():
    """P and Q views of a platoon plus a lone far object."""
    trajs = [
        straight_trajectory(speed=10.0, n=20, track="a", origin=(0, 0, 1)),
        straight_trajectory(speed=10.0, n=20, track="b", origin=(0, 5, 1)),
        straight_trajectory(speed=10.0, n=20, track="c", origin=(0, 10, 1)),
        straight_trajectory(speed=10.0, n=20, track="lone", origin=(0, 500, 1)),
    ]
    return make_database(trajs, sensor_id="P"), make_database(
        [make_trajectory(t.xyz, track=t.track_id, dt=0.1) for t in trajs], sensor_id="Q"
    )


class TestNeighborCount:
    def test_table_matches_quadratic_scan(self):
        db, _ = neighbors_scene()
        radius = 15.0
        table = neighbor_count_table(db, radius)
        # independent O(n^2) scan over all position pairs
        flat = [
            (ti, pi, db.trajectories[ti].frames[pi], db.trajectories[ti].xyz[pi])
            for ti in range(len(db.trajectories))
            for pi in range(len(db.trajectories[ti]))
        ]
        for ti, pi, frame, xyz in flat:
            expected = sum(
                1
                for tj, pj, f2, xyz2 in flat
                if tj != ti and f2 == frame and np.linalg.norm(xyz2 - xyz) <= radius
            )
            assert table[ti][pi] == expected

    def test_lone_object_kept(self):
        db_p, db_q = neighbors_scene()
        fp, fq = extract_features(db_p, 3), extract_features(db_q, 3)
        matches = motion_match(fp, fq, MatchWeights())
        kept = filter_neighbor_count(matches, db_p, db_q, radius=15.0, count_tolerance=1)
        lone_matches = [m for m in kept if db_p.trajectories[m.ref[0]].track_id == "lone"]
        assert lone_matches  # counts (0, 0) agree

    def test_count_mismatch_removed(self):
        db_p, _ = neighbors_scene()
        # Q sees only one member of the platoon: its counts drop to zero
        db_q = make_database(
            [straight_trajectory(speed=10.0, n=20, track="a", origin=(0, 0, 1))],
            sensor_id="Q",
        )
        fp, fq = extract_features(db_p, 3), extract_features(db_q, 3)
        matches = motion_match(fp, fq, MatchWeights())
        kept = filter_neighbor_count(matches, db_p, db_q, radius=15.0, count_tolerance=1)
        # platoon members with 2 neighbors cannot match the lone Q track (0)
        for m in kept:
            p_track = db_p.trajectories[m.ref[0]].track_id
            assert p_track in ("lone", "a", "b", "c")
            if p_track in ("b",):  # middle of platoon has 2 neighbors: gap 2 > 1
                pytest.fail("middle platoon member should have been filtered")


class TestNeighborhoodDistribution:
    def test_identical_static_neighborhood_kept(self):
        db_p, db_q = neighbors_scene()
        fp, fq = extract_features(db_p, 3), extract_features(db_q, 3)
        matches = motion_match(fp, fq, MatchWeights())
        kept = filter_neighborhood_distribution(matches, db_p, db_q, 15.0, 5, 0)
        assert kept  # L1 distance is exactly zero for identical content

    def test_diverging_history_removed(self):
        db_p, _ = neighbors_scene()
        db_q = make_database(
            [
                straight_trajectory(speed=10.0, n=20, track="a", origin=(0, 0, 1)),
                # neighbor exists only in the second half of the window
                make_trajectory(
                    [[10.0 + i, 5.0, 1.0] for i in range(10)], track="late", t0=1.0, dt=0.1
                ),
            ],
            sensor_id="Q",
        )
        fp, fq = extract_features(db_p, 3), extract_features(db_q, 3)
        matches = motion_match(fp, fq, MatchWeights())
        kept = filter_neighborhood_distribution(matches, db_p, db_q, 15.0, 5, 0)
        assert len(kept) < len(matches)  # something was actually pruned


class TestBBoxFilter:
    def test_identical_boxes_kept(self):
        db_p, db_q = neighbors_scene()
        fp, fq = extract_features(db_p, 3), extract_features(db_q, 3)
        matches = motion_match(fp, fq, MatchWeights())
        assert len(filter_bbox(matches, db_p, db_q, 0.5)) == len(matches)

    def test_class_mismatch_removed(self):
        car = straight_trajectory(speed=10.0, n=20, track="car", label="car")
        truck = straight_trajectory(
            speed=10.0, n=20, track="truck", label="truck", bbox=(8.0, 2.4, 3.0)
        )
        db_p = make_database([car], sensor_id="P")
        db_q = make_database([truck], sensor_id="Q")
        fp, fq = extract_features(db_p, 3), extract_features(db_q, 3)
        matches = motion_match(fp, fq, MatchWeights())
        assert matches  # identical motion matches in feature space
        assert filter_bbox(matches, db_p, db_q, 1e9) == []

    def test_hand_summed_threshold(self):
        a = straight_trajectory(speed=10.0, n=20, track="a", bbox=(4.5, 1.8, 1.5))
        b = straight_trajectory(speed=10.0, n=20, track="a", bbox=(4.6, 1.9, 1.55))
        db_p = make_database([a], sensor_id="P")
        db_q = make_database([b], sensor_id="Q")
        fp, fq = extract_features(db_p, 3), extract_features(db_q, 3)
        matches = motion_match(fp, fq, MatchWeights())
        # size gap sums to 0.25
        assert len(filter_bbox(matches, db_p, db_q, 0.5)) == len(matches)
        assert filter_bbox(matches, db_p, db_q, 0.2) == []


class TestCascadeProperties:
    def test_filters_are_subset_and_order_stable(self, rng):
        from trajcal import simulator

        cfg = simulator.default_scenario(n_vehicles=10, duration=20.0, noise_sigma=0.1, seed=9)
        db_p, db_q, _ = simulator.make_pair(cfg)
        fp, fq = extract_features(db_p, 3), extract_features(db_q, 3)
        matches = motion_match(fp, fq, MatchWeights())
        keys = [(m.ref, m.cand) for m in matches]
        for filt in (
            lambda ms: filter_mutual_nn(ms, fp, fq, MatchWeights()),
            lambda ms: filter_bbox(ms, db_p, db_q, 0.5),
            lambda ms: filter_neighbor_count(ms, db_p, db_q, 15.0, 1),
            lambda ms: filter_neighborhood_distribution(ms, db_p, db_q, 15.0, 5, 4),
        ):
            out = filt(matches)
            out_keys = [(m.ref, m.cand) for m in out]
            assert set(out_keys) <= set(keys)
            positions = [keys.index(k) for k in out_keys]
            assert positions == sorted(positions)  # order preserved

    def test_pair_local_filters_commute(self):
        from trajcal import simulator

        cfg = simulator.default_scenario(n_vehicles=8, duration=15.0, noise_sigma=0.1, seed=3)
        db_p, db_q, _ = simulator.make_pair(cfg)
        fp, fq = extract_features(db_p, 3), extract_features(db_q, 3)
        base = filter_mutual_nn(motion_match(fp, fq, MatchWeights()), fp, fq, MatchWeights())
        filters = {
            "bbox": lambda ms: filter_bbox(ms, db_p, db_q, 0.5),
            "count": lambda ms: filter_neighbor_count(ms, db_p, db_q, 15.0, 1),
            "hist": lambda ms: filter_neighborhood_distribution(ms, db_p, db_q, 15.0, 5, 4),
        }
        results = set()
        for order in itertools.permutations(filters):
            ms = base
            for name in order:
                ms = filters[name](ms)
            results.add(frozenset((m.ref, m.cand) for m in ms))
        assert len(results) == 1

    def test_cascade_keeps_what_every_solo_filter_keeps(self):
        # each filter judges a match on its own, so the cascade's survivors
        # are the raw matches that every filter, run alone, keeps
        from trajcal import simulator

        cfg = simulator.default_scenario(n_vehicles=8, duration=15.0, noise_sigma=0.1, seed=3)
        db_p, db_q, _ = simulator.make_pair(cfg)
        fp, fq = extract_features(db_p, 3), extract_features(db_q, 3)
        matches = motion_match(fp, fq, MatchWeights())
        solo = [
            filter_mutual_nn(matches, fp, fq, MatchWeights()),
            filter_bbox(matches, db_p, db_q, 0.5),
            filter_neighbor_count(matches, db_p, db_q, 15.0, 1),
            filter_neighborhood_distribution(matches, db_p, db_q, 15.0, 5, 4),
        ]
        kept = apply_semantic_filters(matches, fp, fq, db_p, db_q)
        assert kept == [m for m in matches if all(m in out for out in solo)]
        assert 0 < len(kept) < len(matches)


@pytest.fixture
def table_builds(monkeypatch):
    """The size of each neighbour-count table computed from here on: each
    one is a zero-width join of a database's frames."""
    from trajcal import model

    builds, join = [], model.window_join

    def spy(keys, sorted_keys, reach):
        builds.append(len(keys))
        return join(keys, sorted_keys, reach)

    monkeypatch.setattr(model, "window_join", spy)
    return builds


def reference_pair():
    from trajcal import simulator

    cfg = simulator.default_scenario(n_vehicles=25, duration=45.0, noise_sigma=0.2,
                                     time_offset=0.5, seed=1001)
    return simulator.make_pair(cfg)[:2]


class TestOneTablePerDatabase:
    def test_cold_session(self, table_builds):
        from trajcal.pipeline import calibrate

        db_p, db_q = reference_pair()
        calibrate(db_p, db_q)
        assert table_builds == [db_p.n_positions, db_q.n_positions]

    def test_relaxed_retry(self, table_builds, monkeypatch):
        # criterion 6's first pass on seed 10: the loose vote finds too few
        # candidates, so the cascade runs again with relaxed tolerances
        from trajcal import pipeline, simulator

        cascades, cascade = [], pipeline.apply_semantic_filters

        def spy(*args, **kwargs):
            cascades.append(kwargs)
            return cascade(*args, **kwargs)

        monkeypatch.setattr(pipeline, "apply_semantic_filters", spy)
        cfg = simulator.default_scenario(n_vehicles=8, duration=15.0, noise_sigma=0.25,
                                         time_offset=0.5, seed=10 * 1000 + 77)
        db_p, db_q, _ = simulator.make_pair(cfg)
        pipeline.calibrate(db_p, db_q)
        assert len(cascades) == 2 and "count_tolerance" in cascades[1]
        assert table_builds == [db_p.n_positions, db_q.n_positions]

    def test_cli_dump_matches_then_session(self, table_builds, tmp_path):
        from click.testing import CliRunner

        from trajcal import io
        from trajcal.cli import main

        db_p, db_q = reference_pair()
        io.write_database_jsonl(db_p, tmp_path / "dbP.jsonl")
        io.write_database_jsonl(db_q, tmp_path / "dbQ.jsonl")
        result = CliRunner().invoke(main, [
            "calibrate", "--input-p", str(tmp_path / "dbP.jsonl"),
            "--input-q", str(tmp_path / "dbQ.jsonl"), "--dump-matches", str(tmp_path / "m.csv")])
        assert result.exit_code == 0, result.output
        assert table_builds == [db_p.n_positions, db_q.n_positions]
