from types import SimpleNamespace

import numpy as np
import pytest

from trajcal import pipeline as pl
from trajcal.errors import CalibrationError
from trajcal.estimator import PairedTracks
from trajcal.model import Position, Trajectory, TrajectoryDatabase, Transform4D
from trajcal.simulator import generate_world_tracks, observe


def make_position(x, y, z, t, frame=0, bbox=(4.5, 1.8, 1.5), label="car", track="t0"):
    return Position(
        x=x, y=y, z=z, t=t, frame_index=frame, bbox=bbox, class_label=label, track_id=track
    )


def make_trajectory(points, track="t0", t0=0.0, dt=0.1, bbox=(4.5, 1.8, 1.5), label="car"):
    """Trajectory from an (n, 3) array sampled every ``dt`` seconds."""
    points = np.asarray(points, dtype=float)
    return Trajectory(
        track,
        tuple(
            make_position(x, y, z, t0 + i * dt, frame=i, bbox=bbox, label=label, track=track)
            for i, (x, y, z) in enumerate(points)
        ),
    )


def straight_trajectory(speed=10.0, n=30, dt=0.1, track="t0", origin=(0.0, 0.0, 1.0),
                        direction=(1.0, 0.0, 0.0), **kw):
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    pts = np.asarray(origin) + np.outer(np.arange(n) * dt * speed, d)
    return make_trajectory(pts, track=track, dt=dt, **kw)


def arc_trajectory(radius=20.0, angular_rate=0.5, n=30, dt=0.1, track="arc", z=1.0, **kw):
    angles = np.arange(n) * dt * angular_rate
    pts = np.column_stack([radius * np.cos(angles), radius * np.sin(angles), np.full(n, z)])
    return make_trajectory(pts, track=track, dt=dt, **kw)


def accelerating_trajectory(v0=5.0, accel=1.0, n=30, dt=0.1, track="acc", origin=(0.0, 0.0, 1.0)):
    """Straight track with linearly growing speed: every position gets a
    distinct velocity-mean feature (no nearest-neighbor ties)."""
    t = np.arange(n) * dt
    x = v0 * t + 0.5 * accel * t * t
    pts = np.asarray(origin) + np.column_stack([x, np.zeros(n), np.zeros(n)])
    return make_trajectory(pts, track=track, dt=dt)


def make_database(trajectories, sensor_id="S", frame_period=0.1, sensing_range=50.0):
    return TrajectoryDatabase(
        sensor_id=sensor_id,
        trajectories=tuple(trajectories),
        frame_period=frame_period,
        sensing_range=sensing_range,
    )


def random_transform(rng: np.random.Generator) -> Transform4D:
    q = rng.normal(size=4)
    while np.linalg.norm(q) < 1e-3:
        q = rng.normal(size=4)
    return Transform4D(q, rng.uniform(-50, 50, size=3), float(rng.uniform(-20, 20)))


def random_position(rng: np.random.Generator, track="r", frame=0) -> Position:
    x, y, z = rng.uniform(-100, 100, size=3)
    return make_position(x, y, z, float(rng.uniform(0, 100)), frame=frame, track=track)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def world_samples(cfg):
    """Every world track of the scenario sampled on the world frame grid
    (k * frame_period), as an ideal sensor at the world origin records it."""
    return observe(generate_world_tracks(cfg), Transform4D.identity(), 1e9,
                   frame_period=cfg.frame_period, duration=cfg.duration).trajectories


def record_stacks(monkeypatch) -> list:
    """Every ``PairedTracks`` built from here on, in order, each keeping the
    trajectory pairs it stacked as ``.pairs``."""
    built = []
    init = PairedTracks.__init__

    def spy(self, matched_trajectories):
        init(self, matched_trajectories)
        self.pairs = list(matched_trajectories)
        built.append(self)

    monkeypatch.setattr(PairedTracks, "__init__", spy)
    return built


def count_parsed_lines(monkeypatch) -> list:
    """The non-blank log lines every ``SessionStore`` parses from now on."""
    parsed, parse = [], pl.SessionStore._parse
    monkeypatch.setattr(pl.SessionStore, "_parse", lambda self, lines, *at: parsed.extend(
        line for line in lines if line.strip()) or parse(self, lines, *at))
    return parsed


# ---------------------------------------------------------------------------
# scalar reference implementations of the vectorized feature and match code


class DegenerateSegment(CalibrationError):
    """Two consecutive positions coincide; segment direction is undefined."""


class InvalidFeature(CalibrationError):
    """A feature flagged invalid was used where a valid one is required."""


def segment_velocities(traj: Trajectory) -> np.ndarray:
    """Speed of each segment: distance over elapsed time, one value per
    consecutive position pair (the velocity *leaving* each position)."""
    dist = np.linalg.norm(np.diff(traj.xyz, axis=0), axis=1)
    return dist / np.diff(traj.times)


def velocity_stats(velocities: np.ndarray, i: int, m: int) -> tuple[float, float]:
    """Mean and population variance of the speeds in window [i-m, i+m-1],
    clipped to the available indices."""
    v = np.asarray(velocities, dtype=float)
    lo, hi = max(0, i - m), min(len(v), i + m)
    if hi <= lo:
        raise ValueError(f"empty velocity window for position {i} (m={m}, n={len(v)})")
    w = v[lo:hi]
    mean = float(w.mean())
    return mean, float(np.mean((w - mean) ** 2))


def curvature(traj: Trajectory, i: int) -> float:
    """Cosine of the angle at position i between the segments toward its
    neighbors. Collinear motion gives -1, a right angle gives 0."""
    if not 1 <= i <= len(traj) - 2:
        raise ValueError(f"curvature needs interior index, got {i} of {len(traj)} positions")
    xyz = traj.xyz
    back = xyz[i - 1] - xyz[i]
    fwd = xyz[i + 1] - xyz[i]
    nb, nf = float(np.linalg.norm(back)), float(np.linalg.norm(fwd))
    if nb < 1e-9 or nf < 1e-9:
        raise DegenerateSegment(
            f"stationary segment at position {i} of trajectory {traj.track_id!r}"
        )
    return float(np.clip(np.dot(back, fwd) / (nb * nf), -1.0, 1.0))


def feature_distance(a, b, w) -> float:
    """Weighted L1 distance between two positions' features (``curvature``,
    ``velocity_mean``, ``velocity_variance``, ``valid``) under MatchWeights
    ``w``; sigma enters as the standard deviation, not the stored variance."""
    if not (a.valid and b.valid):
        raise InvalidFeature("feature distance requires two valid features")
    return float(
        w.lambda_c * abs(a.curvature - b.curvature)
        + w.lambda_alpha * abs(a.velocity_mean - b.velocity_mean)
        + w.lambda_sigma * abs(np.sqrt(a.velocity_variance) - np.sqrt(b.velocity_variance))
    )


# ---------------------------------------------------------------------------
# per-frame, per-match and per-pair reference implementations of the
# neighbour filters and the nearest-in-time association


def neighbor_count_table(db, radius):
    """``db.neighbor_counts(radius)`` cut into one array per trajectory."""
    counts, starts = db.neighbor_counts(radius), db.stack().starts
    return [counts[a:b] for a, b in zip(starts[:-1], starts[1:])]


def per_trajectory(fdb):
    """Each trajectory's slice of the feature columns, as one namespace of
    ``curvature``, ``velocity_mean``, ``velocity_variance`` and ``valid``."""
    starts = fdb.rows.starts
    names = ("curvature", "velocity_mean", "velocity_variance", "valid")
    return [SimpleNamespace(**{name: getattr(fdb, name)[a:b] for name in names})
            for a, b in zip(starts[:-1], starts[1:])]


def flat_features(fdb):
    """``(traj_idx, pos_idx, features)`` of the valid positions, trajectory by
    trajectory; the features are (curvature, velocity mean, velocity std)."""
    traj_idx, pos_idx, rows = [], [], []
    for ti, tf in enumerate(per_trajectory(fdb)):
        (vi,) = np.nonzero(tf.valid)
        traj_idx.append(np.full(vi.size, ti, dtype=np.int64))
        pos_idx.append(vi.astype(np.int64))
        rows.append(np.column_stack(
            [tf.curvature[vi], tf.velocity_mean[vi], np.sqrt(tf.velocity_variance[vi])]))
    if not rows:
        empty = np.empty((0,), dtype=np.int64)
        return empty, empty, np.empty((0, 3))
    return np.concatenate(traj_idx), np.concatenate(pos_idx), np.vstack(rows)


def oracle_neighbor_count_table(db, radius):
    counts = [np.zeros(len(t), dtype=np.int64) for t in db.trajectories]
    by_frame = {}
    for ti, traj in enumerate(db.trajectories):
        for pi, f in enumerate(traj.frames):
            by_frame.setdefault(int(f), []).append((ti, pi))
    r2 = radius * radius
    for entries in by_frame.values():
        if len(entries) < 2:
            continue
        pts = np.array([db.trajectories[ti].xyz[pi] for ti, pi in entries])
        tids = np.array([ti for ti, _ in entries])
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        within = (d2 <= r2) & (tids[:, None] != tids[None, :])
        frame_counts = within.sum(axis=1)
        for k, (ti, pi) in enumerate(entries):
            counts[ti][pi] = frame_counts[k]
    return counts


def oracle_motion_match(fp, fq, w):
    from scipy.spatial import cKDTree

    from trajcal.matching import PositionMatch

    p_traj, p_pos, p_feats = flat_features(fp)
    q_traj, q_pos, q_feats = flat_features(fq)
    if p_feats.shape[0] == 0 or q_feats.shape[0] == 0:
        return []
    dist, idx = cKDTree(q_feats * w.scale).query(p_feats * w.scale, k=1, p=1)
    out = []
    for i in range(p_feats.shape[0]):
        if dist[i] < w.d_th:
            j = int(idx[i])
            out.append(PositionMatch((int(p_traj[i]), int(p_pos[i])),
                                     (int(q_traj[j]), int(q_pos[j])), float(dist[i])))
    return out


def oracle_filter_bbox(matches, db_p, db_q, box_tolerance):
    out = []
    for m in matches:
        tp, tq = db_p.trajectories[m.ref[0]], db_q.trajectories[m.cand[0]]
        box_p, box_q = tp.bbox[m.ref[1]].tolist(), tq.bbox[m.cand[1]].tolist()
        size_gap = sum(abs(a - b) for a, b in zip(box_p, box_q))
        if size_gap <= box_tolerance and tp.class_label == tq.class_label:
            out.append(m)
    return out


def oracle_filter_mutual_nn(matches, fp, fq, w):
    from scipy.spatial import cKDTree

    p_traj, p_pos, p_feats = flat_features(fp)
    q_traj, q_pos, q_feats = flat_features(fq)
    if not matches:
        return []
    p_index = {(int(t), int(i)): k for k, (t, i) in enumerate(zip(p_traj, p_pos))}
    q_index = {(int(t), int(i)): k for k, (t, i) in enumerate(zip(q_traj, q_pos))}
    _, nn_of_q = cKDTree(p_feats * w.scale).query(q_feats * w.scale, k=1, p=1)
    return [m for m in matches if int(nn_of_q[q_index[m.cand]]) == p_index[m.ref]]


def oracle_filter_neighbor_count(matches, db_p, db_q, radius, count_tolerance):
    counts_p = oracle_neighbor_count_table(db_p, radius)
    counts_q = oracle_neighbor_count_table(db_q, radius)
    return [m for m in matches
            if abs(int(counts_p[m.ref[0]][m.ref[1]]) - int(counts_q[m.cand[0]][m.cand[1]]))
            <= count_tolerance]


def oracle_count_histogram(db, counts, ti, pi, k_frames):
    traj = db.trajectories[ti]
    frame_to_pos = {int(f): i for i, f in enumerate(traj.frames)}
    f0 = int(traj.frames[pi])
    hist = np.zeros(2 * k_frames + 1, dtype=np.int64)
    for d in range(-k_frames, k_frames + 1):
        j = frame_to_pos.get(f0 + d)
        if j is not None:
            hist[d + k_frames] = counts[ti][j]
    return hist


def oracle_filter_neighborhood_distribution(matches, db_p, db_q, radius, k_frames,
                                            hist_tolerance):
    counts_p = oracle_neighbor_count_table(db_p, radius)
    counts_q = oracle_neighbor_count_table(db_q, radius)
    out = []
    for m in matches:
        hp = oracle_count_histogram(db_p, counts_p, m.ref[0], m.ref[1], k_frames)
        hq = oracle_count_histogram(db_q, counts_q, m.cand[0], m.cand[1], k_frames)
        if int(np.abs(hp - hq).sum()) <= hist_tolerance:
            out.append(m)
    return out


def oracle_reassociate(db_p, db_q, traj_pairs, tf, gate, time_gate):
    """``(p_xyz, q_xyz, p_times, q_times)`` and the ``(ti, pi, tj, pj)`` rows."""
    rows, p_xyz, q_xyz, p_t, q_t = [], [], [], [], []
    for ti, tj in traj_pairs:
        traj_p = db_p.trajectories[ti]
        traj_q = db_q.trajectories[tj]
        tq = traj_q.times + tf.time_offset
        q_mapped = tf.apply_points(traj_q.xyz)
        j = np.searchsorted(tq, traj_p.times)
        j_lo = np.clip(j - 1, 0, len(tq) - 1)
        j_hi = np.clip(j, 0, len(tq) - 1)
        nearer = np.where(
            np.abs(tq[j_hi] - traj_p.times) < np.abs(tq[j_lo] - traj_p.times), j_hi, j_lo
        )
        dt_ok = np.abs(tq[nearer] - traj_p.times) <= time_gate
        res = np.linalg.norm(traj_p.xyz - q_mapped[nearer], axis=1)
        (pi,) = np.nonzero(dt_ok & (res <= gate))
        if len(pi) == 0:
            continue
        pj = nearer[pi]
        rows.append(np.column_stack([np.full(len(pi), ti), pi, np.full(len(pi), tj), pj]))
        p_xyz.append(traj_p.xyz[pi])
        q_xyz.append(traj_q.xyz[pj])
        p_t.append(traj_p.times[pi])
        q_t.append(traj_q.times[pj])
    if not rows:
        empty = np.empty((0, 3))
        return (empty, empty, np.empty(0), np.empty(0)), np.empty((0, 4), dtype=np.int64)
    return ((np.vstack(p_xyz), np.vstack(q_xyz), np.concatenate(p_t), np.concatenate(q_t)),
            np.vstack(rows))


def assert_same_association(db_p, db_q, traj_pairs, tf, gate, time_gate):
    """``pipeline._reassociate`` equals the per-pair oracle bitwise; returns
    its rows."""
    from trajcal.pipeline import _reassociate

    corr, rows = _reassociate(db_p, db_q, traj_pairs, tf, gate, time_gate)
    want_arrays, want = oracle_reassociate(db_p, db_q, traj_pairs, tf, gate, time_gate)
    assert rows.dtype == want.dtype and rows.shape == want.shape
    np.testing.assert_array_equal(rows, want)
    assert corr.weights is None
    for got, old in zip((corr.p_xyz, corr.q_xyz, corr.p_times, corr.q_times), want_arrays):
        assert got.shape == old.shape
        np.testing.assert_array_equal(got, old)
    return rows


def oracle_vote_trajectory_pairs(pairs, scores, min_votes, top_k=1):
    """``pipeline._vote_trajectory_pairs`` as a per-row tally: votes and a
    running score sum per (Q trajectory, P trajectory)."""
    tally: dict[int, dict[int, list]] = {}
    for (ti, _, tj, _), s in zip(pairs, scores):
        by_p = tally.setdefault(int(tj), {})
        entry = by_p.setdefault(int(ti), [0, 0.0])
        entry[0] += 1
        entry[1] += float(s)
    out = []
    for tj in sorted(tally):
        candidates = sorted(
            ((cnt, total / cnt, ti) for ti, (cnt, total) in tally[tj].items()),
            key=lambda c: (-c[0], c[1], c[2]),
        )
        for cnt, _, ti in candidates[:top_k]:
            if cnt >= min_votes:
                out.append((ti, tj))
    return out


def oracle_offset_hypotheses(tracks, raw_gaps, frame_period, coarse_tracks=None):
    """``pipeline._offset_hypotheses`` as an eager scan: every fine window
    solved before the first hypothesis is chosen, and the ranked list
    returned whole. The coarse grid is scored on ``coarse_tracks``, by
    default on every P sample of ``tracks``."""
    lo = float(np.percentile(raw_gaps, 2)) - pl._SCAN_HALFWIDTH
    hi = float(np.percentile(raw_gaps, 98)) + pl._SCAN_HALFWIDTH
    coarse_step = max(0.25, frame_period)
    coarse_gate = pl._INLIER_GATE + 12.0 * coarse_step
    coarse = np.arange(lo, hi + 0.5 * coarse_step, coarse_step)
    coarse_tracks = tracks if coarse_tracks is None else coarse_tracks
    keys = [((-solved[1], solved[2]), float(d))
            for d, solved in zip(coarse, pl._solve_at_offsets(coarse_tracks, coarse, gate=coarse_gate))
            if solved is not None]
    keys.sort()
    fine_step = 0.5 * frame_period
    seen, windows = [], []
    for _, center in keys[: 3 * pl._MAX_HYPOTHESES]:
        if any(abs(center - s) <= coarse_step for s in seen):
            continue
        seen.append(center)
        windows.append(np.arange(center - coarse_step, center + coarse_step + 0.5 * fine_step, fine_step))
    fine = iter(pl._solve_at_offsets(tracks, np.concatenate(windows or [np.empty(0)])))
    candidates = []
    for window in windows:
        best = None
        for d, solved in zip(window, fine):
            if solved is None:
                continue
            key = (-solved[1], solved[2])
            if best is None or key < best[0]:
                best = (key, float(d), solved[0])
        if best is not None:
            candidates.append(best)
    candidates.sort(key=lambda c: c[:2])
    chosen = []
    for _, dt, sol in candidates:
        if all(abs(dt - c.time_offset) > 2 * fine_step for c in chosen):
            chosen.append(Transform4D.from_matrix(sol.rotation, sol.translation, dt))
        if len(chosen) >= pl._MAX_HYPOTHESES:
            break
    return chosen


def assert_same_transforms(got, want):
    """Two sequences of transforms, bit for bit."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.rotation.tobytes() == b.rotation.tobytes()
        assert a.translation.tobytes() == b.translation.tobytes()
        assert a.time_offset == b.time_offset
