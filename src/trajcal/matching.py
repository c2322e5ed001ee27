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
    (p_rows,) = np.nonzero(fp.valid)
    (q_rows,) = np.nonzero(fq.valid)
    if len(p_rows) == 0 or len(q_rows) == 0:
        return []
    tree = cKDTree(_scaled(fq.points(q_rows), w))
    dist, idx = tree.query(_scaled(fp.points(p_rows), w), k=1, p=1)
    keep = dist < w.d_th
    p_traj, p_pos = fp.rows.locate(p_rows[keep])
    q_traj, q_pos = fq.rows.locate(q_rows[idx[keep]])
    return [
        PositionMatch((ti, pi), (tj, pj), d)
        for ti, pi, tj, pj, d in zip(p_traj.tolist(), p_pos.tolist(), q_traj.tolist(),
                                     q_pos.tolist(), dist[keep].tolist())
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
    (p_valid,) = np.nonzero(fp.valid)
    if not matches or len(p_valid) == 0:
        return []
    rows = _match_rows(matches)
    q_row = fq.rows.at(rows[:, 2], rows[:, 3])
    _, nn = cKDTree(_scaled(fp.points(p_valid), w)).query(_scaled(fq.points(q_row), w), k=1, p=1)
    return _kept(matches, (p_valid[nn] == fp.rows.at(rows[:, 0], rows[:, 1])) & fq.valid[q_row])


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
    rows = _match_rows(matches)
    p, q = db_p.stack(), db_q.stack()
    size_gap = np.abs(p.bbox[p.at(rows[:, 0], rows[:, 1])]
                      - q.bbox[q.at(rows[:, 2], rows[:, 3])]).sum(axis=1)
    label_p = np.array([t.class_label for t in db_p.trajectories])[rows[:, 0]]
    label_q = np.array([t.class_label for t in db_q.trajectories])[rows[:, 2]]
    return _kept(matches, (size_gap <= box_tolerance) & (label_p == label_q))


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
    rows, counts = db.stack(), db.neighbor_counts(radius)
    at = rows.at(traj, pos)
    near = at[:, None] + np.arange(-k_frames, k_frames + 1)
    inside = (near >= rows.starts[traj][:, None]) & (near < rows.starts[traj + 1][:, None])
    near = np.where(inside, near, at[:, None])
    slot = rows.frames[near] - rows.frames[at][:, None] + k_frames
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
