"""The benchmark's own arithmetic: medians, spreads and match labelling."""

from __future__ import annotations

import statistics


def median(values) -> float:
    """Median of an iterable; raises ValueError (StatisticsError) if empty."""
    return float(statistics.median(values))


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, as ``statistics.quantiles(values, n=4)`` gives the quartiles."""
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def base_track(track_id: str) -> str:
    """World object behind a track: the simulator names the pieces of a
    track the tracker lost and re-acquired ``<object>#<piece>``."""
    return track_id.split("#", 1)[0]


def true_match_count(matches, db_p, db_q, true_offset: float) -> int:
    """Matches pairing the same world object within one frame of the true
    clock offset (P time = Q time + offset), as in acceptance criterion 5."""
    tolerance = db_p.frame_period + 1e-9
    hits = 0
    for m in matches:
        traj_p = db_p.trajectories[m.ref[0]]
        traj_q = db_q.trajectories[m.cand[0]]
        if base_track(traj_p.track_id) != base_track(traj_q.track_id):
            continue
        gap = (traj_p.times[m.ref[1]] - true_offset) - traj_q.times[m.cand[1]]
        if abs(gap) <= tolerance:
            hits += 1
    return hits
