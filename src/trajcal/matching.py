"""Candidate position correspondences and the semantic filters that prune them.

Matching is greedy nearest-neighbor in feature space; most of the raw pairs
are wrong (traffic looks alike), so a cascade of pair-local predicates built
from detector byproducts (mutual nearest neighbor, bounding box agreement,
neighbor counts, neighborhood history) strips the bulk of the false ones
before any geometry is solved.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    out = []
    for i in range(p_feats.shape[0]):
        if dist[i] < w.d_th:
            j = int(idx[i])
            out.append(
                PositionMatch(
                    ref=(int(p_traj[i]), int(p_pos[i])),
                    cand=(int(q_traj[j]), int(q_pos[j])),
                    feature_distance=float(dist[i]),
                )
            )
    return out


def filter_mutual_nn(
    matches: Sequence[PositionMatch],
    fp: FeatureDatabase,
    fq: FeatureDatabase,
    w: MatchWeights | None = None,
) -> list[PositionMatch]:
    """Keep (p, q) only when q is p's nearest neighbor and p is q's."""
    w = w or MatchWeights()
    p_traj, p_pos, p_feats = fp.flat
    q_traj, q_pos, q_feats = fq.flat
    if not matches:
        return []
    p_index = {(int(t), int(i)): k for k, (t, i) in enumerate(zip(p_traj, p_pos))}
    q_index = {(int(t), int(i)): k for k, (t, i) in enumerate(zip(q_traj, q_pos))}
    tree_p = cKDTree(_scaled(p_feats, w))
    _, nn_of_q = tree_p.query(_scaled(q_feats, w), k=1, p=1)
    return [m for m in matches if int(nn_of_q[q_index[m.cand]]) == p_index[m.ref]]


def filter_bbox(
    matches: Sequence[PositionMatch],
    db_p: TrajectoryDatabase,
    db_q: TrajectoryDatabase,
    box_tolerance: float = BOX_TOLERANCE,
) -> list[PositionMatch]:
    """Keep pairs whose bounding boxes agree within the tolerance (L1 over
    length/width/height) and whose class labels are identical."""
    out = []
    for m in matches:
        p = db_p.trajectories[m.ref[0]].positions[m.ref[1]]
        q = db_q.trajectories[m.cand[0]].positions[m.cand[1]]
        size_gap = sum(abs(a - b) for a, b in zip(p.bbox, q.bbox))
        if size_gap <= box_tolerance and p.class_label == q.class_label:
            out.append(m)
    return out


def neighbor_count_table(db: TrajectoryDatabase, radius: float) -> list[np.ndarray]:
    """Per position: how many positions of *other* tracks share its frame
    within ``radius``. Aligned with db trajectories/positions."""
    counts = [np.zeros(len(t), dtype=np.int64) for t in db.trajectories]
    by_frame: dict[int, list[tuple[int, int]]] = {}
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


def filter_neighbor_count(
    matches: Sequence[PositionMatch],
    db_p: TrajectoryDatabase,
    db_q: TrajectoryDatabase,
    radius: float = NEIGHBOR_RADIUS,
    count_tolerance: int = COUNT_TOLERANCE,
) -> list[PositionMatch]:
    """Keep pairs whose same-frame neighbor counts agree within tolerance.

    Each side is counted at its own frame: the pair itself asserts those two
    frames show the same instant, so no cross-clock mapping is needed.
    """
    counts_p = neighbor_count_table(db_p, radius)
    counts_q = neighbor_count_table(db_q, radius)
    out = []
    for m in matches:
        cp = counts_p[m.ref[0]][m.ref[1]]
        cq = counts_q[m.cand[0]][m.cand[1]]
        if abs(int(cp) - int(cq)) <= count_tolerance:
            out.append(m)
    return out


def _count_histogram(
    db: TrajectoryDatabase, counts: list[np.ndarray], ti: int, pi: int, k_frames: int
) -> np.ndarray:
    """Neighbor counts of the object over the 2k+1 frames around this
    position (0 where the track has no observation)."""
    traj = db.trajectories[ti]
    frame_to_pos = {int(f): i for i, f in enumerate(traj.frames)}
    f0 = int(traj.frames[pi])
    hist = np.zeros(2 * k_frames + 1, dtype=np.int64)
    for d in range(-k_frames, k_frames + 1):
        j = frame_to_pos.get(f0 + d)
        if j is not None:
            hist[d + k_frames] = counts[ti][j]
    return hist


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
    counts_p = neighbor_count_table(db_p, radius)
    counts_q = neighbor_count_table(db_q, radius)
    out = []
    for m in matches:
        hp = _count_histogram(db_p, counts_p, m.ref[0], m.ref[1], k_frames)
        hq = _count_histogram(db_q, counts_q, m.cand[0], m.cand[1], k_frames)
        if int(np.abs(hp - hq).sum()) <= hist_tolerance:
            out.append(m)
    return out


def apply_semantic_filters(
    matches: Sequence[PositionMatch],
    fp: FeatureDatabase,
    fq: FeatureDatabase,
    db_p: TrajectoryDatabase,
    db_q: TrajectoryDatabase,
    *,
    weights: MatchWeights | None = None,
    box_tolerance: float = BOX_TOLERANCE,
    neighbor_radius: float = NEIGHBOR_RADIUS,
    count_tolerance: int = COUNT_TOLERANCE,
    hist_frames: int = HIST_FRAMES,
    hist_tolerance: int = HIST_TOLERANCE,
) -> list[PositionMatch]:
    """Run the full cascade. Every filter judges each match on its own
    (mutual-NN against the whole feature databases), so the order changes
    the cost, not the result; the history filter, the costliest per match,
    runs last."""
    out = filter_mutual_nn(matches, fp, fq, weights)
    out = filter_bbox(out, db_p, db_q, box_tolerance)
    out = filter_neighbor_count(out, db_p, db_q, neighbor_radius, count_tolerance)
    return filter_neighborhood_distribution(
        out, db_p, db_q, neighbor_radius, hist_frames, hist_tolerance
    )
