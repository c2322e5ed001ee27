"""Tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from trajcal import simulator  # noqa: E402
from trajcal.matching import PositionMatch  # noqa: E402
from trajcal.model import Position, Trajectory, TrajectoryDatabase, Transform4D  # noqa: E402


# ---------------------------------------------------------------------------
# self time from nested spans


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("calibrate", None, 0.0, 10.0),
        Span("solve", 0, 1.0, 4.0),
        Span("solve_spatial", 1, 2.0, 3.0),
        Span("score", 0, 5.0, 6.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_spans_without_a_parent_are_roots():
    spans = [
        Span("make_pair", None, 0.0, 2.0),  # set-up, outside any session
        Span("calibrate", None, 3.0, 8.0),
        Span("solve", 1, 4.0, 5.0),
        Span("orphan", 42, 9.0, 9.5),  # names a parent that was never recorded
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 4.0, 1.0, 0.5])


def test_self_time_clips_and_merges_child_intervals():
    spans = [
        Span("parent", None, 0.0, 10.0),
        Span("a", 0, 2.0, 6.0),
        Span("b", 0, 4.0, 8.0),
        Span("c", 0, 9.0, 12.0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_totals_split_by_enclosing_span():
    spans = [
        Span("pipeline.calibrate", None, 0.0, 10.0),
        Span("estimator.solve_spatial", 0, 1.0, 1.5, error="DegenerateGeometry"),
        Span("estimator.refine_time_offset", 0, 1.5, 2.0),
        Span("estimator.solve", 0, 3.0, 9.0),
        Span("estimator.refine_time_offset", 3, 3.0, 4.0),
        Span("estimator.solve_spatial", 3, 4.0, 4.25),
        Span("estimator.refine_time_offset", 3, 5.0, 6.0),
    ]
    totals = tracing.layer_totals(spans, {
        "estimator.solve_spatial": "estimator.solve",
        "estimator.refine_time_offset": "estimator.solve",
    })
    assert totals["estimator.solve_spatial"].calls == 2
    outside = totals["out:estimator.solve/estimator.solve_spatial"]
    assert (outside.calls, outside.busy_s, outside.failed) == (1, 0.5, 1)
    assert totals["in:estimator.solve/estimator.solve_spatial"].busy_s == 0.25
    assert totals["estimator.refine_time_offset"].calls == 3
    assert totals["in:estimator.solve/estimator.refine_time_offset"].calls == 2
    assert totals["pipeline.calibrate"].self_s == pytest.approx(10.0 - 0.5 - 0.5 - 6.0)
    assert totals["estimator.solve"].self_s == pytest.approx(6.0 - 2.25)


# ---------------------------------------------------------------------------
# the tracer and its wrappers


def _fake_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_wrappers_nest_record_counts_and_errors():
    tracer = tracing.Tracer(clock=_fake_clock())
    owner = SimpleNamespace()

    def inner(n):
        if n < 0:
            raise ValueError("negative")
        return list(range(n))

    owner.inner = inner
    owner.outer = lambda n: owner.inner(n)
    seen = []
    targets = [
        (owner, "outer", "outer", None, None),
        (owner, "inner", "inner", lambda a, k, r: len(r), lambda a, k, r: seen.append(r)),
    ]
    with tracing.installed(tracer, targets):
        assert owner.outer(3) == [0, 1, 2]
        with pytest.raises(ValueError):
            owner.outer(-1)
    assert owner.inner is inner  # originals restored
    owner.outer(5)
    names = [(s.name, s.parent, s.count, s.error) for s in tracer.spans]
    assert names == [
        ("outer", None, 0.0, None),
        ("inner", 0, 3.0, None),
        ("outer", None, 0.0, "ValueError"),
        ("inner", 2, 0.0, "ValueError"),
    ]
    assert seen == [[0, 1, 2]]


# ---------------------------------------------------------------------------
# medians and spreads


def test_median_and_spread():
    assert checks.median([3.0, 1.0, 2.0]) == 2.0
    assert checks.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        checks.median([])
    values = [float(v) for v in range(1, 11)]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert checks.spread(values) == pytest.approx((q3 - q1) / 5.5)
    assert checks.spread([2.0] * 10) == 0.0


# ---------------------------------------------------------------------------
# matching.precision labelling


def _track(track_id, times, frame0=0, x0=0.0):
    return Trajectory(track_id, tuple(
        Position(x0 + i, 0.0, 0.0, t, frame0 + i, (4.0, 2.0, 1.5), "car", track_id)
        for i, t in enumerate(times)
    ))


def test_labelling_on_a_hand_built_scene():
    # P's clock runs 0.5 s ahead of Q's; the object "a" is split in two
    # pieces on the Q side
    db_p = TrajectoryDatabase("P", (_track("a", [1.0, 1.1, 1.2, 1.3]),
                                    _track("b", [1.0, 1.1, 1.2])), 0.1, 50.0)
    db_q = TrajectoryDatabase("Q", (_track("a#1", [0.5, 0.6]),
                                    _track("a#2", [0.7, 0.8], frame0=5),
                                    _track("b", [0.5, 0.6, 0.7])), 0.1, 50.0)
    matches = [
        PositionMatch((0, 0), (0, 0), 0.0),  # a at P 1.0 / Q 0.5: exact
        PositionMatch((0, 2), (1, 0), 0.0),  # a at P 1.2 / Q 0.7, other piece: exact
        PositionMatch((0, 3), (1, 0), 0.0),  # one frame off: still counted
        PositionMatch((1, 0), (1, 1), 0.0),  # a against b: wrong object
        PositionMatch((1, 0), (2, 2), 0.0),  # b two frames off: wrong instant
    ]
    assert checks.true_match_count(matches, db_p, db_q, true_offset=0.5) == 3
    assert checks.true_match_count(matches, db_p, db_q, true_offset=0.3) == 1


def test_labelling_on_a_noiseless_simulated_scene():
    cfg = simulator.default_scenario(n_vehicles=4, duration=12.0, noise_sigma=0.0,
                                     time_offset=0.5, seed=3)
    db_p, db_q, truth = simulator.make_pair(cfg)
    by_object = {}
    for tj, traj in enumerate(db_q.trajectories):
        for pj, t in enumerate(traj.times):
            by_object[(checks.base_track(traj.track_id), round(t, 6))] = (tj, pj)

    def pairs(shift_frames):
        out = []
        for ti, traj in enumerate(db_p.trajectories):
            for pi, t in enumerate(traj.times):
                t_q = t - truth.time_offset + shift_frames * cfg.frame_period
                hit = by_object.get((checks.base_track(traj.track_id), round(t_q, 6)))
                if hit is not None:
                    out.append(PositionMatch((ti, pi), hit, 0.0))
        return out

    exact = pairs(0)
    assert len(exact) > 50
    assert checks.true_match_count(exact, db_p, db_q, truth.time_offset) == len(exact)
    shifted = pairs(2)
    assert shifted and checks.true_match_count(shifted, db_p, db_q, truth.time_offset) == 0


# ---------------------------------------------------------------------------
# transparency check and the declared metrics


def _record(score, translation=(1.0, 2.0, 3.0), failed=False):
    tf = Transform4D((1.0, 0.0, 0.0, 0.0), translation, 0.5)
    return run.Record(1.0, SimpleNamespace(transform=tf, score=score), failed)


def test_transparency_compares_session_by_session():
    a = [_record(0.9), _record(0.8)]
    assert run.transparency_problems(a, [_record(0.9), _record(0.8)]) == []
    assert run.transparency_problems(a, [_record(0.9), _record(0.7)])
    assert run.transparency_problems(a, [_record(0.9), _record(0.8, (1.0, 2.0, 3.0 + 1e-12))])
    assert run.transparency_problems(a, [_record(0.9), _record(0.8, failed=True)])
    assert run.transparency_problems(a, a[:1])


def test_benchmark_json_declares_exactly_what_the_run_prints():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    import workloads

    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
