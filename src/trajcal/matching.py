"""Candidate position correspondences and the semantic filters that prune them.

Matching is greedy nearest-neighbor in feature space; most of the raw pairs
are wrong (traffic looks alike), so a cascade of pair-local predicates built
from detector byproducts (mutual nearest neighbor, bounding box agreement,
neighbor counts, neighborhood history) strips the bulk of the false ones
before any geometry is solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from .features import FeatureDatabase
from .join import window_join
from .model import TrajectoryDatabase

# the cascade's tolerances, the ones calibrate() runs it with
BOX_TOLERANCE = 0.5  # L1 over length/width/height, meters
NEIGHBOR_RADIUS = 15.0  # meters
COUNT_TOLERANCE = 1  # same-frame neighbors
HIST_FRAMES = 5  # frames either side of the matched one
HIST_TOLERANCE = 4  # L1 between neighbor-count histories


@dataclass(frozen=True)
class MatchWeights:
    """Weights of the feature-distance terms and the acceptance threshold."""

    lambda_c: float = 1.0
    lambda_alpha: float = 1.0
    lambda_sigma: float = 0.5
    d_th: float = 2.5

    def __post_init__(self):
        for name in ("lambda_c", "lambda_alpha", "lambda_sigma", "d_th"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        lams = (self.lambda_c, self.lambda_alpha, self.lambda_sigma)
        if any(l < 0 for l in lams):
            raise ValueError("feature weights must be non-negative")
        if not any(l > 0 for l in lams):
            raise ValueError("at least one feature weight must be positive")
        if self.d_th <= 0:
            raise ValueError(f"d_th must be positive, got {self.d_th}")

    @property
    def scale(self) -> np.ndarray:
        return np.array([self.lambda_c, self.lambda_alpha, self.lambda_sigma])


@dataclass(frozen=True)
class PositionMatch:
    """Hypothesis that position ``ref`` in P and ``cand`` in Q are the same
    object at the same instant. Indices are (trajectory, position)."""

    ref: tuple[int, int]
    cand: tuple[int, int]
    feature_distance: float


def _scaled(feats: np.ndarray, w: MatchWeights) -> np.ndarray:
    # weighted L1 == unweighted L1 on scaled coordinates
    return feats * w.scale


def motion_match(
    fp: FeatureDatabase, fq: FeatureDatabase, w: MatchWeights | None = None
) -> list[PositionMatch]:
    """For every valid position in P, keep its nearest-feature position in Q
    when their distance is below the threshold."""
    w = w or MatchWeights()
    p_traj, p_pos, p_feats = fp.flat
    q_traj, q_pos, q_feats = fq.flat
    if p_feats.shape[0] == 0 or q_feats.shape[0] == 0:
        return []
    tree = cKDTree(_scaled(q_feats, w))
    dist, idx = tree.query(_scaled(p_feats, w), k=1, p=1)
    keep = dist < w.d_th
    j = idx[keep]
    return [
        PositionMatch((ti, pi), (tj, pj), d)
        for ti, pi, tj, pj, d in zip(p_traj[keep].tolist(), p_pos[keep].tolist(),
                                     q_traj[j].tolist(), q_pos[j].tolist(), dist[keep].tolist())
    ]


def _match_rows(matches: Sequence[PositionMatch]) -> np.ndarray:
    """The matches as ``(ti, pi, tj, pj)`` rows."""
    return np.array([m.ref + m.cand for m in matches], dtype=np.int64).reshape(-1, 4)


def _kept(matches: Sequence[PositionMatch], keep: np.ndarray) -> list[PositionMatch]:
    return list(compress(matches, keep.tolist()))


def filter_mutual_nn(
    matches: Sequence[PositionMatch],
    fp: FeatureDatabase,
    fq: FeatureDatabase,
    w: MatchWeights | None = None,
) -> list[PositionMatch]:
    """Keep (p, q) only when q is p's nearest neighbor and p is q's."""
    w = w or MatchWeights()
    if not matches:
        return []

    def flat_row(fdb: FeatureDatabase, traj: np.ndarray, pos: np.ndarray) -> np.ndarray:
        # each position's row in ``fdb.flat`` (-1 where it has no valid feature)
        lengths = [len(tf) for tf in fdb.per_trajectory]
        starts = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
        flat_traj, flat_pos, _ = fdb.flat
        row = np.full(starts[-1], -1, dtype=np.int64)
        row[starts[flat_traj] + flat_pos] = np.arange(len(flat_traj))
        return row[starts[traj] + pos]

    rows = _match_rows(matches)
    tree_p = cKDTree(_scaled(fp.flat[2], w))
    _, nn_of_q = tree_p.query(_scaled(fq.flat[2], w), k=1, p=1)
    p_row = flat_row(fp, rows[:, 0], rows[:, 1])
    q_row = flat_row(fq, rows[:, 2], rows[:, 3])
    return _kept(matches, nn_of_q[q_row] == p_row)


def filter_bbox(
    matches: Sequence[PositionMatch],
    db_p: TrajectoryDatabase,
    db_q: TrajectoryDatabase,
    box_tolerance: float = BOX_TOLERANCE,
) -> list[PositionMatch]:
    """Keep pairs whose bounding boxes agree within the tolerance (L1 over
    length/width/height) and whose class labels are identical."""
    if not matches:
        return []

    def box_and_label(db: TrajectoryDatabase, traj: np.ndarray, pos: np.ndarray):
        starts = np.cumsum([0] + [len(t) for t in db.trajectories])
        boxes = np.concatenate([t.bbox for t in db.trajectories])
        return boxes[starts[traj] + pos], np.array([t.class_label for t in db.trajectories])[traj]

    rows = _match_rows(matches)
    box_p, label_p = box_and_label(db_p, rows[:, 0], rows[:, 1])
    box_q, label_q = box_and_label(db_q, rows[:, 2], rows[:, 3])
    size_gap = np.abs(box_p - box_q).sum(axis=1)
    return _kept(matches, (size_gap <= box_tolerance) & (label_p == label_q))


def _neighbor_counts(db: TrajectoryDatabase, radius: float):
    """``neighbor_count_table`` flat, with the layout it is read through:
    ``(counts, starts, frames)`` as ``TrajectoryDatabase.stack``."""
    starts, xyz, _, frames = db.stack()
    track = np.repeat(np.arange(len(db.trajectories)), np.diff(starts))
    order = np.argsort(frames, kind="stable")
    by_frame = frames[order]
    ranked = np.zeros(len(frames), dtype=np.int64)  # counts in frame order
    r2 = radius * radius
    # every pair of positions sharing a frame (a zero-width join); each
    # position is its own pair, so a block's owners are a full run of rows
    for i, j in window_join(by_frame, by_frame, 0):
        a, b = order[i], order[j]
        near = (track[a] != track[b]) & (np.sum((xyz[a] - xyz[b]) ** 2, axis=-1) <= r2)
        ranked[i[0]:i[-1] + 1] = np.bincount(i[near] - i[0], minlength=i[-1] - i[0] + 1)
    counts = np.empty_like(ranked)
    counts[order] = ranked
    return counts, starts, frames


def neighbor_count_table(db: TrajectoryDatabase, radius: float) -> list[np.ndarray]:
    """Per position: how many positions of *other* tracks share its frame
    within ``radius``. Aligned with db trajectories/positions."""
    counts, starts, _ = _neighbor_counts(db, radius)
    return [counts[a:b] for a, b in zip(starts[:-1], starts[1:])]


def filter_neighbor_count(
    matches: Sequence[PositionMatch],
    db_p: TrajectoryDatabase,
    db_q: TrajectoryDatabase,
    radius: float = NEIGHBOR_RADIUS,
    count_tolerance: int = COUNT_TOLERANCE,
) -> list[PositionMatch]:
    """The history test over the matched frame alone: keep pairs whose
    same-frame neighbor counts agree within tolerance. Each side is counted
    at its own frame: the pair itself asserts those two frames show the same
    instant, so no cross-clock mapping is needed."""
    return _kept(matches, _histories_agree(matches, db_p, db_q, radius, 0, count_tolerance))


def _count_histories(db: TrajectoryDatabase, radius: float, traj, pos, k_frames: int):
    """Neighbor counts of each object over the 2k+1 frames around each of
    the given positions (0 where its track has no observation), one row per
    position. A track's frames strictly increase, so frame ``f0 + d`` can
    only sit within ``|d|`` rows of ``f0``'s."""
    counts, starts, frames = _neighbor_counts(db, radius)
    at = starts[traj] + pos
    near = at[:, None] + np.arange(-k_frames, k_frames + 1)
    inside = (near >= starts[traj][:, None]) & (near < starts[traj + 1][:, None])
    near = np.where(inside, near, at[:, None])
    slot = frames[near] - frames[at][:, None] + k_frames
    inside &= (slot >= 0) & (slot <= 2 * k_frames)
    hist = np.zeros(near.shape, dtype=np.int64)
    (m, _) = np.nonzero(inside)
    hist[m, slot[inside]] = counts[near[inside]]
    return hist


def _histories_agree(matches, db_p, db_q, radius: float, k_frames: int, tol: int) -> np.ndarray:
    """Per match: do both sides' 2k+1-frame count histories agree within ``tol`` (L1)?"""
    rows = _match_rows(matches)
    hp = _count_histories(db_p, radius, rows[:, 0], rows[:, 1], k_frames)
    hq = _count_histories(db_q, radius, rows[:, 2], rows[:, 3], k_frames)
    return np.abs(hp - hq).sum(axis=1) <= tol


def filter_neighborhood_distribution(
    matches: Sequence[PositionMatch],
    db_p: TrajectoryDatabase,
    db_q: TrajectoryDatabase,
    radius: float = NEIGHBOR_RADIUS,
    k_frames: int = HIST_FRAMES,
    hist_tolerance: int = HIST_TOLERANCE,
) -> list[PositionMatch]:
    """Keep pairs whose neighbor-count histories over the adjacent frames
    agree (L1 distance between the per-frame count histograms)."""
    if k_frames < 0:
        raise ValueError(f"k_frames must be >= 0, got {k_frames}")
    return _kept(matches, _histories_agree(matches, db_p, db_q, radius, k_frames, hist_tolerance))


def apply_semantic_filters(
    matches: Sequence[PositionMatch],
    fp: FeatureDatabase,
    fq: FeatureDatabase,
    db_p: TrajectoryDatabase,
    db_q: TrajectoryDatabase,
    *,
    weights: MatchWeights | None = None,
    count_tolerance: int = COUNT_TOLERANCE,
    hist_tolerance: int = HIST_TOLERANCE,
) -> list[PositionMatch]:
    """Run the full cascade. Every filter judges each match on its own
    (mutual-NN against the whole feature databases), so the order changes
    the cost, not the result; the history filter, the costliest per match,
    runs last."""
    out = filter_mutual_nn(matches, fp, fq, weights)
    out = filter_bbox(out, db_p, db_q)
    out = filter_neighbor_count(out, db_p, db_q, count_tolerance=count_tolerance)
    return filter_neighborhood_distribution(out, db_p, db_q, hist_tolerance=hist_tolerance)
