"""The calibration loop, scoring, continuous fusion, and the session store."""

import hashlib
import json
import math
import multiprocessing
import os
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajcal.errors import NoCandidateMatches, NoViableHypothesis
from trajcal.estimator import PairedTracks
from trajcal.evaluation import make_report
from trajcal.model import Transform4D, blend_transforms, transform_database
from trajcal.pipeline import (
    CalibrationSession,
    PipelineConfig,
    SessionStore,
    calibrate,
    derive_position_pairs,
    fuse_sessions,
    score_session,
)
from trajcal.simulator import default_scenario, make_nonoverlapping_pair, make_pair

from conftest import (
    assert_same_transforms,
    count_parsed_lines,
    make_database,
    oracle_offset_hypotheses,
    record_stacks,
    straight_trajectory,
)


# the store's lock is fcntl.flock, so these tests run where fork does
_FORK = multiprocessing.get_context("fork")


def _record_sessions(directory, n, writer_id):
    rng = np.random.default_rng(writer_id)
    store = SessionStore(directory)
    for i in range(n):
        tf = Transform4D.from_yaw_deg(rng.uniform(-5, 5), rng.normal(size=3), rng.normal())
        session = session_with(rng.uniform(0.3, 1.0), tf)
        store.record(replace(session, created_at=float(100 * writer_id + i)))


def session_with(score, tf=None, n_pp=10, n_po=20):
    return CalibrationSession(
        transform=tf or Transform4D.identity(),
        score=score,
        n_pp=n_pp,
        n_po=n_po,
        iterations_used=1,
        converged=True,
        created_at=0.0,
    )


class TestCalibrate:
    def test_identical_content_noiseless(self):
        # dbQ is an exact transformed copy of dbP: recovery must be exact and
        # fast, with a near-perfect score
        cfg = default_scenario(n_vehicles=8, duration=30.0, seed=21)
        db_p, _, _ = make_pair(cfg)
        truth = Transform4D.from_yaw_deg(118.0, (25.0, -10.0, 1.0), 3.7)
        db_q = transform_database(truth.inverse(), db_p)
        session = calibrate(db_p, db_q)
        report = make_report(session.transform, truth)
        assert session.converged
        assert session.iterations_used <= 2
        assert report.rte_m < 1e-6
        assert report.rre_deg < 1e-6
        assert report.toe_s < 1e-4
        assert session.score > 0.95

    def test_phase_offset_noiseless_recovery(self):
        cfg = default_scenario(n_vehicles=12, duration=40.0, seed=5, time_offset=2.7)
        db_p, db_q, truth = make_pair(cfg)
        session = calibrate(db_p, db_q)
        report = make_report(session.transform, truth)
        assert report.rte_m < 1e-6
        assert report.rre_deg < 1e-6
        assert report.toe_s < 1e-4

    def test_paper_noise_regime_single_seed(self):
        cfg = default_scenario(n_vehicles=25, duration=45.0, noise_sigma=0.2, seed=1)
        db_p, db_q, truth = make_pair(cfg)
        session = calibrate(db_p, db_q)
        report = make_report(session.transform, truth)
        assert report.success
        assert report.rte_m < 0.10
        assert report.toe_s < 0.010
        assert session.score > 0.8

    def test_zero_overlap_flagged(self):
        cfg = default_scenario(n_vehicles=20, duration=40.0, noise_sigma=0.2, seed=2)
        db_p, db_q = make_nonoverlapping_pair(cfg)
        try:
            session = calibrate(db_p, db_q)
        except (NoCandidateMatches, NoViableHypothesis):
            return  # legal outcomes per the contract: both are quality failures
        assert session.score < 0.2

    def test_too_few_matches_raises(self):
        lone = make_database([straight_trajectory(n=4, track="a")], sensor_id="P")
        other = make_database(
            [straight_trajectory(n=4, speed=22.0, track="b")], sensor_id="Q"
        )
        with pytest.raises(NoCandidateMatches) as info:
            calibrate(lone, other)
        assert info.value.filtered_count < 3

    def test_deterministic(self):
        cfg = default_scenario(n_vehicles=10, duration=25.0, noise_sigma=0.15, seed=8)
        db_p, db_q, _ = make_pair(cfg)
        a = calibrate(db_p, db_q)
        b = calibrate(db_p, db_q)
        assert a.transform.approx_equal(b.transform, tol=0.0)
        assert a.score == b.score
        assert a.iterations_used == b.iterations_used

    def test_asymmetric_sensing_ranges(self):
        # short-range and long-range sensor paired; the score normalization
        # must absorb the coverage asymmetry
        cfg = default_scenario(n_vehicles=20, duration=40.0, noise_sigma=0.2, seed=4)
        cfg = replace(cfg, sensing_range_p=50.0, sensing_range_q=150.0)
        db_p, db_q, truth = make_pair(cfg)
        assert db_q.n_positions > 1.5 * db_p.n_positions
        session = calibrate(db_p, db_q)
        report = make_report(session.transform, truth)
        assert report.success
        assert 0.0 <= session.score <= 1.0
        assert session.score > 0.8

    def test_dense_traffic(self):
        # heavy flow starves the neighborhood filters; the relaxed-filter
        # retry must keep initialization alive
        cfg = default_scenario(n_vehicles=50, duration=45.0, noise_sigma=0.2, seed=0)
        db_p, db_q, truth = make_pair(cfg)
        session = calibrate(db_p, db_q)
        report = make_report(session.transform, truth)
        assert report.success
        assert report.rte_m < 0.10
        assert session.score > 0.8

    def test_empty_offset_scan_raises_no_viable_hypothesis(self):
        # dense traffic where the loose vote finds a few candidate pairs but
        # no clock offset that two of them agree on: with no prior there is
        # nothing to start the loop from, which is a quality failure
        cfg = default_scenario(
            "four_way", n_vehicles=100, duration=45.0, frame_period=0.1, noise_sigma=0.2,
            time_offset=0.537, rotation_deg=180.0, sensor_distance=28.8, seed=201007,
        )
        db_p, db_q, _ = make_pair(cfg)
        with pytest.raises(NoViableHypothesis) as info:
            calibrate(db_p, db_q)
        assert info.value.hypotheses_tried == 0
        assert "no clock offset that two trajectory pairs agree on" in str(info.value)

    def test_stalled_loop_does_not_repeat_its_solve(self, monkeypatch):
        # a loop whose re-association returns the last iteration's pairs
        # stops before solving them again
        from trajcal import pipeline as pl

        solve, calls = pl._trimmed_solve, []

        def spy(corr, *args, **kwargs):
            calls.append(corr)
            return solve(corr, *args, **kwargs)

        def same(a, b):
            return all(np.array_equal(getattr(a, f), getattr(b, f))
                       for f in ("p_xyz", "q_xyz", "p_times", "q_times"))

        monkeypatch.setattr(pl, "_trimmed_solve", spy)
        cfg = default_scenario(n_vehicles=8, duration=15.0, noise_sigma=0.25,
                               time_offset=0.5, seed=77)
        db_p, db_q, _ = make_pair(cfg)
        session = calibrate(db_p, db_q)
        assert session.iterations_used == 2
        assert calls
        assert not any(same(a, b) for a, b in zip(calls, calls[1:]))

    def test_prior_shortcuts_to_solution(self):
        cfg = default_scenario(n_vehicles=10, duration=25.0, noise_sigma=0.2, seed=3)
        db_p, db_q, truth = make_pair(cfg)
        session = calibrate(db_p, db_q, prior=truth)
        report = make_report(session.transform, truth)
        assert report.success
        assert session.score > 0.8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(max_iterations=0)

    def test_cascade_runs_with_its_public_defaults(self, monkeypatch):
        # what calibrate() keeps is what a library user gets from
        # apply_semantic_filters with nothing but the weights
        from trajcal import pipeline as pl
        from trajcal.matching import apply_semantic_filters

        calls = []

        def spy(*args, **kwargs):
            kept = apply_semantic_filters(*args, **kwargs)
            calls.append((args, kept))
            return kept

        monkeypatch.setattr(pl, "apply_semantic_filters", spy)
        cfg = default_scenario(n_vehicles=25, duration=45.0, noise_sigma=0.2,
                               time_offset=0.537, seed=1)
        db_p, db_q, _ = make_pair(cfg)
        calibrate(db_p, db_q)
        (raw, fp, fq, spied_p, spied_q), kept = calls[0]
        assert spied_p is db_p and spied_q is db_q
        defaults = apply_semantic_filters(
            raw, fp, fq, db_p, db_q, weights=PipelineConfig().match_weights
        )
        assert kept == defaults, f"calibrate kept {len(kept)}, defaults keep {len(defaults)}"


def _counting(monkeypatch, name):
    """Wrap ``pipeline.<name>`` to append one entry per call to the returned list."""
    from trajcal import pipeline as pl

    calls, original = [], getattr(pl, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pl, name, spy)
    return calls


def _fields(session):
    d = session.to_dict()
    del d["created_at"]
    return d


def _far(truth):
    """A prior far enough off that its hypothesis does not hold."""
    return Transform4D.from_yaw_deg(90.0, (40.0, -30.0, 0.0), truth.time_offset + 7.0)


class TestHypothesisStream:
    @pytest.fixture(scope="class")
    def scene(self):
        cfg = default_scenario(n_vehicles=10, duration=25.0, noise_sigma=0.2, seed=3)
        db_p, db_q, truth = make_pair(cfg)
        return db_p, db_q, truth, calibrate(db_p, db_q)

    def test_warm_pass_whose_prior_holds_skips_the_scan(self, scene, monkeypatch):
        db_p, db_q, truth, cold = scene
        scans = _counting(monkeypatch, "_offset_hypotheses")
        warm = calibrate(db_p, db_q, prior=cold)
        assert scans == []
        assert warm.score >= 0.5 and make_report(warm.transform, truth).success

    def test_far_off_prior_still_reaches_the_scan(self, scene, monkeypatch):
        db_p, db_q, truth, cold = scene
        scans = _counting(monkeypatch, "_offset_hypotheses")
        session = calibrate(db_p, db_q, prior=_far(truth))
        assert len(scans) == 1
        assert _fields(session) == _fields(cold)

    def test_warm_pass_whose_prior_holds_does_no_cold_work(self, scene, monkeypatch):
        db_p, db_q, truth, cold = scene
        cold_work = ("extract_features", "motion_match", "apply_semantic_filters",
                     "_offset_hypotheses")
        calls = {name: _counting(monkeypatch, name) for name in cold_work}
        calibrate(db_p, db_q)
        on_cold = {name: len(seen) for name, seen in calls.items()}
        assert on_cold["extract_features"] == 2 and on_cold["_offset_hypotheses"] == 1
        for seen in calls.values():
            seen.clear()
        calibrate(db_p, db_q, prior=cold)
        assert {name: len(seen) for name, seen in calls.items()} == dict.fromkeys(cold_work, 0)
        calibrate(db_p, db_q, prior=_far(truth))
        assert {name: len(seen) for name, seen in calls.items()} == on_cold

    def test_prior_that_holds_needs_no_candidate_matches(self, scene):
        # d_th 1e-3 leaves no raw match: the prior alone calibrates the scene
        db_p, db_q, truth, _ = scene
        cfg = PipelineConfig(match_weights=replace(PipelineConfig().match_weights, d_th=1e-3))
        with pytest.raises(NoCandidateMatches) as info:
            calibrate(db_p, db_q, cfg)
        assert (info.value.raw_count, info.value.filtered_count) == (0, 0)
        session = calibrate(db_p, db_q, cfg, prior=truth)
        assert session.score >= 0.5 and make_report(session.transform, truth).success
        with pytest.raises(NoCandidateMatches) as info:
            calibrate(db_p, db_q, cfg, prior=_far(truth))
        assert (info.value.raw_count, info.value.filtered_count) == (0, 0)

    def test_collapsing_prior_and_empty_scan_count_one_hypothesis(self, scene, monkeypatch):
        from trajcal import pipeline as pl

        db_p, db_q, truth, _ = scene
        monkeypatch.setattr(pl, "_offset_hypotheses", lambda *a, **k: [])
        gone = Transform4D(truth.rotation, truth.translation, truth.time_offset + 1e4)
        with pytest.raises(NoViableHypothesis) as info:
            calibrate(db_p, db_q, prior=gone)
        assert info.value.hypotheses_tried == 1
        assert "all 1 initial hypotheses collapsed" in str(info.value)

    def test_stalled_loop_associates_once_per_step(self, monkeypatch):
        # sigma 0.25 sits at the convergence test's noise floor: the loop
        # stops on a repeated association, which the polish then reuses
        from trajcal import pipeline as pl

        associations = _counting(monkeypatch, "_reassociate")
        sessions = []
        run = pl._run_hypothesis

        def per_hypothesis(*args, **kwargs):
            before = len(associations)
            session = run(*args, **kwargs)
            sessions.append((session, len(associations) - before))
            return session

        monkeypatch.setattr(pl, "_run_hypothesis", per_hypothesis)
        cfg = default_scenario(n_vehicles=24, duration=45.0, noise_sigma=0.25,
                               time_offset=0.5, seed=0)
        db_p, db_q, _ = make_pair(cfg)
        calibrate(db_p, db_q)
        [(session, n_associations)] = sessions
        assert not session.converged
        assert session.iterations_used < PipelineConfig().max_iterations
        assert n_associations == session.iterations_used

    def test_one_stack_per_completed_step(self, monkeypatch):
        # a completed S1-S3 step stacks its voted pairs once; its offset
        # refinement and its alignment test map that stack, and the polish
        # takes the last step's stack
        from trajcal import estimator
        from trajcal import pipeline as pl

        stacks = record_stacks(monkeypatch)
        aligned, polished, runs = [], [], []

        def builds_no_stack(owner, name, seen=None, arg=0):
            fn = getattr(owner, name)

            def spy(*a, **k):
                before = len(stacks)
                out = fn(*a, **k)
                assert len(stacks) == before, f"{name} stacked the pairs again"
                if seen is not None:
                    seen.append(a[arg])
                return out

            monkeypatch.setattr(owner, name, spy)

        builds_no_stack(estimator, "refine_time_offset")
        builds_no_stack(pl, "_pooled_alignment", aligned, 0)
        builds_no_stack(estimator, "solve", polished, 1)
        run = pl._run_hypothesis

        def per_hypothesis(*args, **kwargs):
            marks = len(stacks), len(aligned), len(polished)
            session = run(*args, **kwargs)
            runs.append([seen[mark:] for seen, mark in zip((stacks, aligned, polished), marks)])
            return session

        monkeypatch.setattr(pl, "_run_hypothesis", per_hypothesis)
        cfg = default_scenario(n_vehicles=25, duration=45.0, noise_sigma=0.2, time_offset=0.537,
                               seed=1001)
        db_p, db_q, _ = make_pair(cfg)
        calibrate(db_p, db_q)
        assert runs
        for built, steps, polish in runs:
            # one alignment test per completed step, each on its step's stack
            assert built and [id(t) for t in steps] == [id(t) for t in built]
            assert [id(t) for t in polish] == [id(built[-1])]


class TestScoreSession:
    def test_perfect_calibration_scores_one(self):
        cfg = default_scenario(n_vehicles=10, duration=30.0, seed=4)
        db_p, db_q, truth = make_pair(cfg)
        score, n_pp, n_po = score_session(truth, db_p, db_q)
        assert score > 0.95
        assert n_po > 0
        assert 2 * n_pp <= n_po + 1

    def test_garbage_transform_scores_zero_pairs(self):
        cfg = default_scenario(n_vehicles=10, duration=30.0, seed=4)
        db_p, db_q, truth = make_pair(cfg)
        garbage = Transform4D.from_yaw_deg(90.0, truth.translation + 500.0, truth.time_offset)
        score, n_pp, _ = score_session(garbage, db_p, db_q)
        assert n_pp == 0
        assert score == 0.0

    def test_empty_databases_score_zero(self):
        empty = make_database([], sensor_id="E")
        score, n_pp, n_po = score_session(Transform4D.identity(), empty, empty)
        assert (score, n_pp, n_po) == (0.0, 0, 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_empty_side_counts_only_the_other(self):
        # empty position stacks go through numpy and the window join as they are
        cfg = default_scenario(n_vehicles=10, duration=25.0, noise_sigma=0.2, seed=3)
        db_p, db_q, truth = make_pair(cfg)
        empty_p, empty_q = (replace(db, trajectories=()) for db in (db_p, db_q))
        assert score_session(truth, empty_p, db_q) == (0.0, 0, 439)
        assert score_session(truth, db_p, empty_q) == (0.0, 0, 437)
        assert score_session(truth, empty_p, empty_q) == (0.0, 0, 0)

    def test_score_in_unit_interval(self):
        cfg = default_scenario(n_vehicles=8, duration=20.0, noise_sigma=0.3, seed=6)
        db_p, db_q, truth = make_pair(cfg)
        score, _, _ = score_session(truth, db_p, db_q)
        assert 0.0 <= score <= 1.0


class TestDerivePositionPairs:
    def test_truth_pairs_everything_in_overlap(self):
        cfg = default_scenario(n_vehicles=8, duration=25.0, seed=12)
        db_p, db_q, truth = make_pair(cfg)
        pairs = derive_position_pairs(db_p, db_q, truth)
        assert len(pairs) > 100
        # coarse offset from those pairs lands within half a frame
        from trajcal.estimator import estimate_time_offset_coarse

        assert abs(estimate_time_offset_coarse(pairs) - truth.time_offset) <= 0.05


class TestTwoSessionFold:
    """``fuse_sessions``'s rule for one stored state and one new session."""

    def test_zero_score_contributes_nothing(self):
        prev = session_with(0.0, Transform4D.from_yaw_deg(45.0))
        new = session_with(0.8)
        assert fuse_sessions([prev, new], min_score=0.0) is new
        assert fuse_sessions([new, prev], min_score=0.0) is new

    def test_equal_scores_midpoint(self):
        a = session_with(0.5, Transform4D(np.array([1.0, 0, 0, 0]), np.array([1.0, 0, 0]), 0.0))
        b = session_with(0.5, Transform4D(np.array([1.0, 0, 0, 0]), np.array([3.0, 0, 0]), 1.0))
        out = fuse_sessions([a, b], min_score=0.0)
        np.testing.assert_allclose(out.transform.translation, [2.0, 0, 0], atol=1e-12)
        assert out.transform.time_offset == pytest.approx(0.5)
        assert out.score == 0.5

    def test_weights_follow_eq_scores(self):
        a = session_with(0.9, Transform4D(np.array([1.0, 0, 0, 0]), np.array([0.0, 0, 0]), 0.0))
        b = session_with(0.3, Transform4D(np.array([1.0, 0, 0, 0]), np.array([4.0, 0, 0]), 0.0))
        out = fuse_sessions([a, b], min_score=0.0)
        # weight of b is 0.3/1.2 = 0.25
        np.testing.assert_allclose(out.transform.translation, [1.0, 0, 0], atol=1e-12)
        assert out.score == pytest.approx(0.9)

    def test_idempotent_on_identical_transform(self, rng):
        from conftest import random_transform

        tf = random_transform(rng)
        a = session_with(0.7, tf)
        b = session_with(0.9, tf)
        out = fuse_sessions([a, b], min_score=0.0)
        assert out.transform.approx_equal(tf, tol=1e-9)

    def test_two_zero_score_sessions_fold_to_the_first(self):
        first, second = session_with(0.0), session_with(0.0, Transform4D.from_yaw_deg(90.0))
        assert fuse_sessions([first, second], min_score=0.0) is first

    def test_fused_score_is_max(self):
        out = fuse_sessions([session_with(0.6), session_with(0.9)], min_score=0.0)
        assert out.score == 0.9

    def test_metadata_from_the_higher_scorer_and_the_later_time(self):
        better = replace(session_with(0.9, n_pp=7, n_po=9), created_at=1.0)
        later = replace(session_with(0.6, n_pp=3, n_po=4), created_at=2.0)
        for pair in ([better, later], [later, better]):
            out = fuse_sessions(pair, min_score=0.0)
            assert (out.n_pp, out.n_po, out.score, out.created_at) == (7, 9, 0.9, 2.0)


class TestFuseSessions:
    def test_low_score_never_drags_good_state(self):
        good = session_with(0.9, Transform4D.identity())
        bad = session_with(0.3, Transform4D.from_yaw_deg(90.0, (100.0, 0, 0)))
        out = fuse_sessions([good, bad], min_score=0.5)
        assert out.transform.approx_equal(good.transform, tol=1e-12)

    def test_low_score_can_seed_empty_state(self):
        bad = session_with(0.3, Transform4D.from_yaw_deg(90.0))
        assert fuse_sessions([bad]) is bad

    def test_fold_order(self):
        s1 = session_with(0.8, Transform4D(np.array([1.0, 0, 0, 0]), np.array([0.0, 0, 0]), 0.0))
        s2 = session_with(0.8, Transform4D(np.array([1.0, 0, 0, 0]), np.array([2.0, 0, 0]), 0.0))
        s3 = session_with(0.8, Transform4D(np.array([1.0, 0, 0, 0]), np.array([4.0, 0, 0]), 0.0))
        out = fuse_sessions([s1, s2, s3])
        # sequential halving: ((0 + 2)/2 + 4)/2
        np.testing.assert_allclose(out.transform.translation, [2.5, 0, 0], atol=1e-12)

    def test_empty_returns_none(self):
        assert fuse_sessions([]) is None

    @given(st.lists(st.sampled_from([0.0, 0.0, 0.3, 0.5, 0.7, 1.0]), max_size=8),
           st.integers(0, 2**31 - 1), st.sampled_from([0.0, 0.5]))
    @settings(max_examples=200, deadline=None)
    def test_zero_score_sessions_fold_as_before(self, scores, seed, min_score):
        # the fold as it was written when a zero-score pair raised BothZeroScore
        class BothZeroScore(Exception):
            pass

        def update_continuous(prev, new):
            s_prev, s_new = prev.score, new.score
            if s_prev + s_new <= 0:
                raise BothZeroScore("cannot fuse two sessions that both scored zero")
            if s_prev == 0:
                return new
            if s_new == 0:
                return prev
            fused_tf = blend_transforms(
                prev.transform, new.transform, s_prev / (s_prev + s_new), s_new / (s_prev + s_new)
            )
            base = prev if s_prev >= s_new else new
            return replace(
                base,
                transform=fused_tf,
                score=max(s_prev, s_new),
                created_at=max(prev.created_at, new.created_at),
            )

        def caught_fold(sessions):
            fused = None
            for session in sessions:
                if fused is None:
                    fused = session
                    continue
                if session.score < min_score and fused.score >= session.score:
                    continue
                try:
                    fused = update_continuous(fused, session)
                except BothZeroScore:
                    continue
            return fused

        from conftest import random_transform

        rng = np.random.default_rng(seed)
        sessions = [session_with(score, random_transform(rng)) for score in scores]
        got, want = fuse_sessions(sessions, min_score), caught_fold(sessions)
        assert (got is None) == (want is None)
        assert got is None or json.dumps(got.to_dict()) == json.dumps(want.to_dict())


class TestSessionStore:
    def test_round_trip(self, tmp_path, rng):
        from conftest import random_transform

        store = SessionStore(tmp_path / "store")
        s1 = session_with(0.8, random_transform(rng))
        s2 = session_with(0.9, random_transform(rng))
        fused1 = store.record(s1)
        assert fused1.transform.approx_equal(s1.transform, tol=1e-12)
        fused2 = store.record(s2)
        stored = store.sessions()
        assert len(stored) == 2
        assert stored[0].transform.approx_equal(s1.transform, tol=1e-12)
        loaded = store.load_fused()
        assert loaded.transform.approx_equal(fused2.transform, tol=1e-12)

    def test_low_score_session_logged_but_not_fused(self, tmp_path):
        store = SessionStore(tmp_path / "store")
        good = session_with(0.9, Transform4D.identity())
        bad = session_with(0.1, Transform4D.from_yaw_deg(90.0, (50.0, 0, 0)))
        store.record(good)
        fused = store.record(bad)
        assert fused.transform.approx_equal(good.transform, tol=1e-12)
        assert len(store.sessions()) == 2

    def test_fused_state_is_the_fold_of_the_log(self, tmp_path, rng):
        from conftest import random_transform

        store = SessionStore(tmp_path / "store")
        logged = [session_with(s, random_transform(rng)) for s in (0.9, 0.2, 0.7)]
        for s in logged:
            store.record(s)
        want = fuse_sessions(logged, min_score=store.min_fuse_score)
        got = store.load_fused()
        assert got.transform.approx_equal(want.transform, tol=1e-12)
        assert got.score == want.score
        new = session_with(0.8, random_transform(rng))
        fused = store.record(new)
        want = fuse_sessions(logged + [new], min_score=store.min_fuse_score)
        for got in (fused, store.load_fused()):
            assert got.transform.approx_equal(want.transform, tol=1e-12)
            assert got.score == want.score
        assert not (store.directory / "fused.json").exists()

    def test_torn_line_is_skipped_and_does_not_swallow_the_next_record(self, tmp_path, rng):
        from conftest import random_transform

        store = SessionStore(tmp_path / "store")
        first = session_with(0.9, random_transform(rng))
        full = json.dumps(first.to_dict())
        store.sessions_path.write_text(full + "\n" + full[: len(full) // 2])
        new = session_with(0.8, random_transform(rng))
        with pytest.warns(UserWarning, match=r"sessions\.jsonl:2:"):
            store.record(new)
        with pytest.warns(UserWarning, match=r"sessions\.jsonl:2:"):
            stored = store.sessions()
        assert len(stored) == 2
        assert stored[0].transform.approx_equal(first.transform, tol=1e-12)
        assert stored[1].transform.approx_equal(new.transform, tol=1e-12)

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), 1e308, -0.5])
    def test_line_with_a_score_outside_unit_interval_is_skipped(self, tmp_path, rng, score):
        from conftest import random_transform

        store = SessionStore(tmp_path / "store")
        first = session_with(0.9, random_transform(rng))
        damaged = dict(session_with(0.8, random_transform(rng)).to_dict(), score=score)
        store.sessions_path.write_text(
            json.dumps(first.to_dict()) + "\n" + json.dumps(damaged) + "\n")
        with pytest.warns(UserWarning, match=r"sessions\.jsonl:2: skipped damaged .*score"):
            fused = store.load_fused()
        assert fused.transform.approx_equal(first.transform, tol=1e-12)
        new = session_with(0.85, random_transform(rng))
        with pytest.warns(UserWarning, match=r"sessions\.jsonl:2:"):
            fused = SessionStore(store.directory).record(new)
        want = fuse_sessions([first, new], min_score=store.min_fuse_score)
        assert fused.transform.approx_equal(want.transform, tol=1e-12)
        assert fused.score == want.score
        # the instance that read line 2 parses only the lines after it
        newer = session_with(0.95, random_transform(rng))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fused = store.record(newer)
        want = fuse_sessions([first, new, newer], min_score=store.min_fuse_score)
        assert fused.transform.approx_equal(want.transform, tol=1e-12)
        assert fused.score == want.score

    @pytest.mark.parametrize("field, raw", [
        ("n_pp", "Infinity"), ("score", "1" * 400), ("tx", "1" * 400),
        ("n_pp", "-5"), ("n_po", "2.7"), ("n_pp", "true"), ("n_po", '"12"'),
        ("iterations_used", "-1"), ("score", "true"), ("score", '"0.5"'), ("created_at", "true"),
        ("tx", '"1.5"'),
    ], ids=["n_pp-inf", "score-400-digits", "tx-400-digits",
            "n_pp-negative", "n_po-fraction", "n_pp-true", "n_po-string", "iterations_used-negative",
            "score-true", "score-string", "created_at-true", "tx-string"])
    def test_line_with_a_number_out_of_range_is_skipped(self, tmp_path, rng, field, raw):
        from conftest import random_transform

        store = SessionStore(tmp_path / "store")
        first = session_with(0.9, random_transform(rng))
        damaged = session_with(0.8, random_transform(rng)).to_dict()
        (damaged["transform"] if field == "tx" else damaged)[field] = "@"
        store.sessions_path.write_text(json.dumps(first.to_dict()) + "\n"
                                       + json.dumps(damaged).replace('"@"', raw) + "\n")
        with pytest.warns(UserWarning, match=f"sessions\\.jsonl:2: skipped damaged .*{field}: "):
            fused = store.load_fused()
        assert fused.transform.approx_equal(first.transform, tol=1e-12)

    @pytest.mark.parametrize("field, raw", [
        ("converged", '"false"'), ("converged", "1"),
        ("created_at", "NaN"), ("created_at", "-Infinity"),
    ], ids=["converged-string", "converged-number", "created_at-nan", "created_at-inf"])
    def test_line_with_a_bad_flag_or_time_is_skipped(self, tmp_path, rng, field, raw):
        from conftest import random_transform

        store = SessionStore(tmp_path / "store")
        first = session_with(0.9, random_transform(rng))
        damaged = dict(session_with(0.8, random_transform(rng)).to_dict(), **{field: "@"})
        store.sessions_path.write_text(json.dumps(first.to_dict()) + "\n"
                                       + json.dumps(damaged).replace('"@"', raw) + "\n")
        with pytest.warns(UserWarning, match=f"sessions\\.jsonl:2: skipped damaged .*{field} "):
            fused = store.load_fused()
        assert fused.transform.approx_equal(first.transform, tol=1e-12)

    def test_reader_never_sees_a_partial_state(self, tmp_path):
        store = SessionStore(tmp_path / "store")
        writer = _FORK.Process(target=_record_sessions, args=(store.directory, 200, 0))
        writer.start()
        reads = failures = 0
        while writer.is_alive():
            try:
                store.load_fused()
            except Exception:
                failures += 1
            reads += 1
        writer.join()
        assert writer.exitcode == 0
        assert reads > 0 and failures == 0
        assert len(store.sessions()) == 200

    def test_concurrent_writers_keep_one_consistent_log(self, tmp_path):
        store = SessionStore(tmp_path / "store")
        writers = [
            _FORK.Process(target=_record_sessions, args=(store.directory, 8, k))
            for k in range(4)
        ]
        for w in writers:
            w.start()
        for w in writers:
            w.join()
        assert [w.exitcode for w in writers] == [0] * 4
        lines = store.sessions_path.read_text().splitlines()
        assert len(lines) == 32
        logged = [CalibrationSession.from_dict(json.loads(line)) for line in lines]
        assert sorted(s.created_at for s in logged) == [
            float(100 * k + i) for k in range(4) for i in range(8)
        ]
        want = fuse_sessions(store.sessions(), min_score=store.min_fuse_score)
        got = store.load_fused()
        assert got.transform.approx_equal(want.transform, tol=1e-12)
        assert got.score == want.score

    def test_session_dict_round_trip(self, rng):
        from conftest import random_transform

        s = session_with(0.77, random_transform(rng), n_pp=123, n_po=400)
        again = CalibrationSession.from_dict(s.to_dict())
        assert again.transform.approx_equal(s.transform, tol=1e-15)
        assert again.score == s.score
        assert again.n_pp == 123 and again.n_po == 400
        # an integral float is read as that count
        again = CalibrationSession.from_dict(dict(s.to_dict(), n_pp=123.0, iterations_used=4.0))
        assert (again.n_pp, again.iterations_used) == (123, 4)
        assert type(again.n_pp) is int and type(again.iterations_used) is int


def _warned_lines(action):
    """``action()`` and the log line numbers its warnings name, in order."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = action()
    return out, [int(re.search(r"sessions\.jsonl:(\d+):", str(w.message))[1]) for w in seen]


def assert_fold_of_the_log(store, fused):
    """``fused`` is bitwise ``fuse_sessions(store.sessions())``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = fuse_sessions(store.sessions(), min_score=store.min_fuse_score)
    assert json.dumps(fused.to_dict()) == json.dumps(want.to_dict())


class TestResumedFold:
    """A store parses only the lines appended since the last fold, in any
    process, and each fold it returns is bitwise the fold of the whole log."""

    @staticmethod
    def filled(tmp_path, rng, scores=(0.9, 0.8, 0.7)):
        from conftest import random_transform

        store = SessionStore(tmp_path / "store")
        for i, score in enumerate(scores):
            store.record(replace(session_with(score, random_transform(rng)), created_at=float(i)))
        return store

    @staticmethod
    def new(rng, score=0.85):
        from conftest import random_transform

        return replace(session_with(score, random_transform(rng)), created_at=10.0)

    def test_each_pass_parses_only_the_new_lines(self, tmp_path, rng, monkeypatch):
        store = SessionStore(self.filled(tmp_path, rng).directory)
        parsed = count_parsed_lines(monkeypatch)
        # a fresh instance resumes from the checkpoint the writes left
        loaded = store.load_fused()
        assert len(parsed) == 0
        recorded = store.record(self.new(rng))
        assert len(parsed) == 1
        assert_fold_of_the_log(store, recorded)
        assert json.dumps(loaded.to_dict()) != json.dumps(recorded.to_dict())

    def test_another_instance_records_in_between(self, tmp_path, rng):
        store = self.filled(tmp_path, rng)
        assert_fold_of_the_log(store, store.load_fused())
        SessionStore(store.directory).record(self.new(rng, 0.95))
        assert_fold_of_the_log(store, store.record(self.new(rng)))
        assert len(store.sessions()) == 5

    @pytest.mark.parametrize("change", ["replaced", "truncated", "rewritten", "first-line"])
    def test_log_changed_under_the_last_read_is_read_again(self, tmp_path, rng, change):
        store = self.filled(tmp_path, rng)
        assert_fold_of_the_log(store, store.load_fused())
        path = store.sessions_path
        first, second, last = path.read_bytes().splitlines(keepends=True)
        if change == "replaced":  # another file, as long, with the same last line
            other = path.with_name("other.jsonl")
            other.write_bytes(first.replace(b'"score": 0.9', b'"score": 0.6') + second + last)
            os.replace(other, path)
        elif change == "truncated":
            with open(path, "r+b") as fh:
                fh.truncate(len(first))
        elif change == "first-line":  # the same file, as long, with the same last line
            with open(path, "r+b") as fh:
                fh.write(first.replace(b'"score": 0.9', b'"score": 0.6'))
        else:  # the same file, as long, with another last line
            with open(path, "r+b") as fh:
                fh.seek(len(first) + len(second))
                fh.write(last.replace(b'"score": 0.7', b'"score": 0.6'))
        assert path.read_bytes() != first + second + last
        assert_fold_of_the_log(store, store.record(self.new(rng)))

    def test_every_fold_through_a_fresh_store_is_the_fold_of_the_log(self, tmp_path, rng):
        from conftest import random_transform

        directory = tmp_path / "store"
        for i in range(200):
            session = replace(session_with(float(rng.uniform(0.0, 1.0)), random_transform(rng)),
                              created_at=float(i))
            store = SessionStore(directory)
            assert_fold_of_the_log(store, store.record(session))
            assert_fold_of_the_log(store, SessionStore(directory).load_fused())

    @pytest.mark.parametrize("damage", [
        "missing", "garbage", "cut", "torn", "wrong-digest", "non-unit-quaternion"])
    def test_checkpoint_that_does_not_hold_is_ignored(self, tmp_path, rng, damage):
        store = self.filled(tmp_path, rng)
        checkpoint = store.directory / ".fold"
        saved = checkpoint.read_bytes()
        cp = json.loads(saved)
        # each damaged checkpoint holds a fold that is not the log's
        cp["fold"]["score"] = 0.5
        if damage == "missing":
            checkpoint.unlink()
        elif damage == "garbage":
            checkpoint.write_bytes(b"\x00\xffnot a checkpoint")
        elif damage == "cut":
            checkpoint.write_bytes(json.dumps(cp).encode()[: len(saved) // 2])
        elif damage == "torn":  # a shorter rewrite over the saved one, not yet truncated
            shorter = json.dumps(dict(cp, fold=None)).encode()
            checkpoint.write_bytes(shorter + saved[len(shorter):])
        elif damage == "wrong-digest":
            cp["sha256"] = hashlib.sha256(b"another log").hexdigest()
            checkpoint.write_text(json.dumps(cp))
        else:
            cp["fold"]["transform"]["qw"] *= 1.001
            checkpoint.write_text(json.dumps(cp))
        fresh = SessionStore(store.directory)
        assert_fold_of_the_log(fresh, fresh.load_fused())
        assert_fold_of_the_log(fresh, fresh.record(self.new(rng)))
        assert json.loads(checkpoint.read_bytes())["offset"] == len(
            fresh.sessions_path.read_bytes())

    @pytest.mark.parametrize("field, value", [
        ("score", 7.0), ("score", True), ("n_pp", -3), ("converged", "yes"),
        ("offset", "1"), ("offset", 1.5), ("offset", 1), ("offset", "past the end")])
    def test_checkpoint_field_that_does_not_read_back_is_ignored(self, tmp_path, rng, field,
                                                                 value):
        store = self.filled(tmp_path, rng)
        checkpoint = store.directory / ".fold"
        cp = json.loads(checkpoint.read_bytes())
        log = store.sessions_path.read_bytes()
        # each checkpoint's digest holds, and its fold is not the log's; an
        # offset of 1 is inside line 1
        cp["fold"]["score"] = 0.5
        if field != "offset":
            cp["fold"][field] = value
        elif value == "past the end":
            cp["offset"] = len(log) + 9
        else:
            cp.update(offset=value, sha256=hashlib.sha256(log[:1]).hexdigest())
        checkpoint.write_text(json.dumps(cp))
        fresh = SessionStore(store.directory)
        assert_fold_of_the_log(fresh, fresh.load_fused())
        assert_fold_of_the_log(fresh, fresh.record(self.new(rng)))

    @pytest.mark.parametrize("line_no", [3, "1"])
    def test_checkpoint_with_a_line_count_still_resumes(self, tmp_path, rng, monkeypatch,
                                                        line_no):
        # a checkpoint saved before the line count was dropped holds "line_no",
        # which is not read
        store = self.filled(tmp_path, rng)
        checkpoint = store.directory / ".fold"
        cp = json.loads(checkpoint.read_bytes())
        checkpoint.write_text(json.dumps({"offset": cp["offset"], "line_no": line_no,
                                          **{k: cp[k] for k in ("sha256", "fold", "damaged")}}))
        parsed = count_parsed_lines(monkeypatch)
        fresh = SessionStore(store.directory)
        loaded = fresh.load_fused()
        assert parsed == []
        assert_fold_of_the_log(fresh, loaded)
        parsed.clear()
        recorded = fresh.record(self.new(rng))
        assert len(parsed) == 1
        assert_fold_of_the_log(fresh, recorded)

    def test_checkpoint_is_rewritten_in_place(self, tmp_path, rng):
        store = self.filled(tmp_path, rng)
        inode = os.stat(store.directory / ".fold").st_ino
        SessionStore(store.directory).record(self.new(rng))
        assert os.stat(store.directory / ".fold").st_ino == inode
        assert json.loads((store.directory / ".fold").read_bytes())["offset"] == len(
            store.sessions_path.read_bytes())

    def test_torn_line_is_parsed_again_once_completed(self, tmp_path, rng):
        from conftest import random_transform

        store = SessionStore(tmp_path / "store")
        full = json.dumps(session_with(0.9, random_transform(rng)).to_dict())
        store.sessions_path.write_text(full + "\n" + full[: len(full) // 2])
        fused, lines = _warned_lines(store.load_fused)
        assert lines == [2]
        assert_fold_of_the_log(store, fused)
        # the record completes line 2 with a newline and goes on line 3
        fused, lines = _warned_lines(lambda: store.record(self.new(rng)))
        assert lines == [2]
        assert_fold_of_the_log(store, fused)
        with open(store.sessions_path, "a") as fh:
            fh.write('{"score": 0.5}\n')
        fused, lines = _warned_lines(lambda: store.record(self.new(rng, 0.95)))
        assert lines == [4]
        assert_fold_of_the_log(store, fused)
        assert len(store.sessions_path.read_text().splitlines()) == 5


class TestInitialization:
    """The offset-hypothesis machinery, exercised directly."""

    @staticmethod
    def _matched_pairs_with_offset(offset, n_pairs=5, wrong=2, seed=0):
        """Curved trajectory pairs sharing one clock offset, plus unrelated
        wrong pairings mixed in."""
        from conftest import make_trajectory

        rng = np.random.default_rng(seed)
        matched = []
        for k in range(n_pairs):
            # distinct centers and turn rates: a track slid along itself must
            # not look like a rigid motion shared with the other tracks
            t_world = np.arange(60) * 0.1
            ang = (0.2 + 0.09 * k) * t_world + 2.1 * k
            radius = 15.0 + 4.0 * k
            center = np.array([25.0 * math.cos(2.4 * k), 25.0 * math.sin(2.4 * k)])
            xyz = np.column_stack(
                [center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang),
                 np.full(60, 1.0)]
            )
            noise_p = rng.normal(0, 0.05, xyz.shape)
            noise_q = rng.normal(0, 0.05, xyz.shape)
            traj_p = make_trajectory(xyz + noise_p, track=f"p{k}", t0=offset)
            traj_q = make_trajectory(xyz + noise_q, track=f"q{k}", t0=0.0)
            matched.append((traj_p, traj_q))
        for k in range(wrong):
            # wrong pairing: two unrelated curves
            t_world = np.arange(60) * 0.1
            a = np.column_stack(
                [9.0 * np.cos(0.5 * t_world + k), 9.0 * np.sin(0.5 * t_world + k),
                 np.full(60, 1.0)]
            )
            b = np.column_stack(
                [40.0 - 8.0 * t_world, np.full(60, 5.0 * k), np.full(60, 1.0)]
            )
            matched.append(
                (make_trajectory(a, track=f"wp{k}", t0=offset),
                 make_trajectory(b, track=f"wq{k}", t0=0.0))
            )
        return matched

    def test_solve_at_offset_consensus_ignores_wrong_pairs(self):
        from trajcal import pipeline as pl

        tracks = PairedTracks(self._matched_pairs_with_offset(0.8))
        solved = pl._solve_at_offsets(tracks, [0.8])[0]
        assert solved is not None
        sol, inliers, mean = solved
        assert inliers >= 5  # the five genuine pairs support the fit
        assert mean < 0.3
        np.testing.assert_allclose(sol.rotation, np.eye(3), atol=0.01)

    def test_offset_hypotheses_rank_truth_first(self):
        from trajcal import pipeline as pl

        for offset in (0.8, -3.7):
            tracks = PairedTracks(self._matched_pairs_with_offset(offset))
            gaps = np.array([offset + g for g in (-2.0, -1.0, 0.0, 1.5, 4.0) for _ in range(10)])
            hyps = list(pl._offset_hypotheses(tracks, gaps, 0.1))
            assert hyps, "scan found no candidates"
            best = hyps[0].time_offset
            assert abs(best - offset) < 0.06, f"best hypothesis {best} vs {offset}"

    def test_offset_hypotheses_match_the_eager_scan(self):
        # the thinned coarse stage and the lazy fine stage rank exactly as an
        # eager scan on every P sample
        from trajcal import pipeline as pl

        for offset in (0.8, -3.7):
            tracks = PairedTracks(self._matched_pairs_with_offset(offset))
            gaps = np.array([offset + g for g in (-2.0, -1.0, 0.0, 1.5, 4.0) for _ in range(10)])
            want = oracle_offset_hypotheses(tracks, gaps, 0.1)
            assert len(want) > 1
            assert_same_transforms(list(pl._offset_hypotheses(tracks, gaps, 0.1)), want)

    def test_offset_scan_is_lazy(self, monkeypatch):
        # the first hypothesis costs the coarse grid on thinned P samples and
        # one fine window; the other windows are scanned, in one call, only
        # when a second hypothesis is asked for
        from trajcal import pipeline as pl

        calls = []
        solve = pl._solve_at_offsets

        def spy(tracks, offsets, gate=pl._INLIER_GATE):
            calls.append((len(tracks.p_times), np.asarray(offsets, dtype=float)))
            return solve(tracks, offsets, gate)

        monkeypatch.setattr(pl, "_solve_at_offsets", spy)
        tracks = PairedTracks(self._matched_pairs_with_offset(0.8))
        gaps = np.array([0.8 + g for g in (-2.0, -1.0, 0.0, 1.5, 4.0) for _ in range(10)])
        stream = pl._offset_hypotheses(tracks, gaps, 0.1)
        first = next(stream)
        assert abs(first.time_offset - 0.8) < 0.06
        assert len(calls) == 2
        (n_coarse, coarse), (n_fine, window) = calls
        assert n_coarse == len(tracks.thinned(3).p_times) < n_fine == len(tracks.p_times)
        np.testing.assert_allclose(np.diff(coarse), 0.25)
        np.testing.assert_allclose(np.diff(window), 0.05)
        assert len(window) == 11 and np.isclose(coarse, window[5]).any()
        rest = list(stream)
        assert rest and len(calls) == 3
        later = calls[2][1].reshape(-1, 11)  # the other windows, the first not again
        assert not any(np.array_equal(w, window) for w in later)

    def test_session_that_holds_scans_one_fine_window(self, monkeypatch):
        from trajcal import pipeline as pl

        sizes = []
        solve = pl._solve_at_offsets

        def spy(tracks, offsets, gate=pl._INLIER_GATE):
            sizes.append(len(offsets))
            return solve(tracks, offsets, gate)

        monkeypatch.setattr(pl, "_solve_at_offsets", spy)
        db_p, db_q, truth = make_pair(default_scenario(n_vehicles=10, duration=30.0, seed=17))
        session = calibrate(db_p, db_q)
        assert session.score >= pl._RETRY_SCORE_THRESHOLD
        assert len(sizes) == 2 and sizes[0] > 11 and sizes[1] == 11


class TestAlignmentMonotonicity:
    def test_noiseless_alignment_distance_non_increasing(self):
        # on noiseless inputs the S2 metric must not get worse from one
        # accepted iterate to the next; probe via the loop's chosen best
        from trajcal import pipeline as pl

        cfg = default_scenario(n_vehicles=10, duration=30.0, seed=17)
        db_p, db_q, truth = make_pair(cfg)
        session = calibrate(db_p, db_q)
        all_pairs = [
            (i, j)
            for i in range(len(db_p.trajectories))
            for j in range(len(db_q.trajectories))
            if db_p.trajectories[i].class_label == db_q.trajectories[j].class_label
        ]
        # the returned transform aligns matched content essentially exactly
        pair_means = [pl._pooled_alignment(PairedTracks(pl._matched_objects(db_p, db_q, [pair])),
                                           session.transform)
                      for pair in all_pairs]
        assert min(m for m in pair_means if math.isfinite(m)) < 1e-6
