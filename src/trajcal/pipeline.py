"""The iterative calibration loop, session scoring, and cross-session fusion.

One calibration session: match positions by motion features, prune with the
semantic filters, then run the S1-S3 loop from one initial hypothesis after
another until a session self-scores well enough. Each step of the loop
associates position pairs under the current iterate, solves the space-time
transform from them and re-votes the trajectory pairs; the loop stops when
the matched trajectories agree to within a distance threshold, when
re-association repeats itself, or when iterations run out. The association
made under the last iterate goes to the estimator's polish.

Hypotheses come as a stream. A stored prior comes first. Initialization
from scratch (matching included) is the fragile part and runs only when a
hypothesis is still needed: raw feature matches are temporally scrambled
along feature-flat (straight, constant-speed) tracks, so further transforms
come from a scan over candidate clock offsets with a consensus spatial
refit at each one; genuinely paired trajectories agree on a transform only
at the true offset, and offsets are ranked by how many pairs agree.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import math
import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import estimator
from .errors import (
    BothZeroScore,
    DegenerateGeometry,
    InsufficientOverlap,
    NoCandidateMatches,
    NoViableHypothesis,
    TooFewPairs,
)
from .features import extract_features
from .join import window_join
from .matching import (
    COUNT_TOLERANCE,
    HIST_TOLERANCE,
    MatchWeights,
    _match_rows,
    apply_semantic_filters,
    motion_match,
)
from .model import TrajectoryDatabase, Transform4D, _record_int, _record_number, blend_transforms


@dataclass(frozen=True)
class PipelineConfig:
    """What a caller sets per session: the S1-S3 iteration cap and the
    feature-matching weights (with their acceptance threshold ``d_th``)."""

    max_iterations: int = 20
    match_weights: MatchWeights = MatchWeights()

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class CalibrationSession:
    """Outcome of one calibration pass, kept for continuous calibration."""

    transform: Transform4D
    score: float
    n_pp: int
    n_po: int
    iterations_used: int
    converged: bool
    created_at: float

    def to_dict(self) -> dict:
        return {
            "transform": self.transform.to_dict(),
            "score": self.score,
            "n_pp": self.n_pp,
            "n_po": self.n_po,
            "iterations_used": self.iterations_used,
            "converged": self.converged,
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationSession":
        score = _record_number(d, "score")
        if not 0.0 <= score <= 1.0:  # NaN fails too
            raise ValueError(f"session score must be in [0, 1], got {score}")
        converged, created_at = d["converged"], _record_number(d, "created_at")
        if not isinstance(converged, bool):
            raise ValueError(f"converged must be true or false, got {converged!r}")
        if not math.isfinite(created_at):
            raise ValueError(f"created_at must be finite, got {created_at}")
        return cls(
            transform=Transform4D.from_dict(d["transform"]),
            score=score,
            n_pp=_record_int(d, "n_pp", 0, math.inf, "non-negative"),
            n_po=_record_int(d, "n_po", 0, math.inf, "non-negative"),
            iterations_used=_record_int(d, "iterations_used", 0, math.inf, "non-negative"),
            converged=converged,
            created_at=created_at,
        )


# ---------------------------------------------------------------------------
# internal steps of the loop


def _trimmed_solve(corr: estimator.CorrespondenceSet):
    """Spatial solve with up to 5 rounds of residual trimming; gross
    outliers among the pairs would otherwise drag the least-squares fit.
    Returns the solution, the kept rows and every row's residual under the
    solution."""
    keep = np.ones(len(corr), dtype=bool)
    for _ in range(5):
        subset = estimator.CorrespondenceSet(
            corr.p_xyz[keep], corr.q_xyz[keep], corr.p_times[keep], corr.q_times[keep]
        )
        sol = estimator.solve_spatial(subset)
        res = np.linalg.norm(
            corr.p_xyz - (corr.q_xyz @ sol.rotation.T + sol.translation), axis=1
        )
        gate = 3.0 * float(np.median(res[keep])) + 1e-9
        new_keep = res <= gate
        if new_keep.sum() < 6 or np.array_equal(new_keep, keep):
            break
        keep = new_keep
    return sol, keep, res


def _vote_trajectory_pairs(pairs: np.ndarray, scores: np.ndarray, min_votes: int, top_k: int = 1):
    """Each Q trajectory pairs with the P trajectory holding the plurality of
    its matched positions; ties break toward the smaller mean pair score,
    then the smaller P index. Every pair handed in is already class-matched
    (by ``filter_bbox``, or by association over ``_class_pairs``). ``top_k``
    > 1 also returns runner-up candidates (for hypothesis seeding). Returns
    ``(ti, tj)`` ints by ``tj``, then best first."""
    ti, tj = pairs[:, 0], pairs[:, 2]
    n = int(ti.max(initial=0)) + 1
    cells, inverse = np.unique(tj * n + ti, return_inverse=True)
    count = np.bincount(inverse)
    # bincount adds each cell's scores in row order, as a running sum would
    mean = np.bincount(inverse, weights=scores) / count
    cell_ti, cell_tj = cells % n, cells // n
    order = np.lexsort((cell_ti, mean, -count, cell_tj))
    by_tj = cell_tj[order]
    rank = np.arange(len(order)) - np.searchsorted(by_tj, by_tj)
    pick = order[(rank < top_k) & (count[order] >= min_votes)]
    return list(zip(cell_ti[pick].tolist(), cell_tj[pick].tolist()))


def _loose_vote(matches):
    """The matches as ``(ti, pi, tj, pj)`` rows, and the trajectory pairs
    they vote for at initialization: runner-up candidates included, two
    supporting matches suffice. The offset scan's consensus solve is built
    to ignore the wrong candidates, so recall matters more than precision
    here."""
    rows = _match_rows(matches)
    scores = np.array([m.feature_distance for m in matches])
    return rows, _vote_trajectory_pairs(rows, scores, max(2, _MIN_TRAJECTORY_VOTES - 1), top_k=2)


def _matched_objects(db_p, db_q, traj_pairs):
    return [(db_p.trajectories[ti], db_q.trajectories[tj]) for ti, tj in traj_pairs]


def _class_pairs(db_p, db_q):
    """Every (P, Q) trajectory pair whose class labels agree."""
    return [(ti, tj)
            for ti, traj_p in enumerate(db_p.trajectories)
            for tj, traj_q in enumerate(db_q.trajectories)
            if traj_p.class_label == traj_q.class_label]


_INLIER_GATE = 1.5  # meters of mean per-pair residual for consensus voting
_MAX_PROPOSALS = 8  # solo-fit proposers per candidate offset
_SCAN_HALFWIDTH = 2.5  # seconds of margin around the raw gaps, first-pass offset scan
_MAX_HYPOTHESES = 4  # offsets the scan hands to the S1-S3 loop
_MIN_TRAJECTORY_VOTES = 3  # matched positions a trajectory pair needs in the S2 vote
_TRAJECTORY_DISTANCE_THRESHOLD = 0.5  # meters of pooled alignment: the loop has converged
_RETRY_SCORE_THRESHOLD = 0.5  # a session scoring below this tries the next hypothesis


_SCAN_BLOCK = 4096  # P samples inside the overlap per block of the offset scan


def _residual_coefficients(rot: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """Coefficients ``c`` with ``|p - (R q + T)|^2 = c . f`` for a row's
    residual features ``f`` (see ``_ScanBlock``), for a stack of rigid
    transforms (any leading axes); ``|R q| = |q|`` for a rotation."""
    lead = trans.shape[:-1]
    rt = (np.swapaxes(rot, -1, -2) @ trans[..., None])[..., 0]
    return np.concatenate([
        -2.0 * rot.reshape(*lead, 9), 2.0 * rt, -2.0 * trans,
        np.sum(trans * trans, axis=-1, keepdims=True), np.ones((*lead, 1)),
    ], axis=-1)


class _ScanBlock:
    """The scan's view of the paired tracks at a block of candidate offsets,
    stacked: at each offset with at least 2 pairs that have at least 2 P
    samples inside the overlap, those pairs' samples and their interpolated
    raw-Q counterparts. Rows are offset-major and each such pair's rows are
    one contiguous segment, and an offset's segments are contiguous too.

    Every row is kept as 17 residual features ``f = [p_a q_b (9), q, p, 1,
    |p|^2 + |q|^2]``, one column per row. A weighted sum of them over a pair,
    or over a set of pairs, holds all the moments of a weighted rigid fit;
    and the squared residual under any transform is one dot product with
    ``_residual_coefficients``. So every pair's statistics are one
    ``reduceat``, a set of pairs' fit is a sum of those, and scoring K
    transforms at an offset is one matmul. Every per-offset sum is a
    ``reduceat`` over that offset's own segments, so an offset's result does
    not depend on which other offsets share its block."""

    def __init__(self, tracks: estimator.PairedTracks, at, idx, s, n_off: int):
        n_pairs = tracks.n_pairs
        key = at * n_pairs + tracks.p_pair[idx]
        counts = np.bincount(key, minlength=n_off * n_pairs).reshape(n_off, n_pairs)
        live = counts >= 2
        live &= (live.sum(axis=1) >= 2)[:, None]
        rows = live.ravel()[key]
        idx, s = idx[rows], s[rows]
        n_seg = live.sum(axis=1)
        self.n_offsets = n_off
        self.solved = np.flatnonzero(n_seg)  # block positions of the offsets solved here
        self.n_seg = n_seg[self.solved]
        self.seg_lo = np.cumsum(self.n_seg) - self.n_seg
        self.counts = counts[live]
        self.starts = np.cumsum(self.counts) - self.counts
        self.seg_at = np.repeat(np.arange(len(self.solved)), self.n_seg)
        n_rows = counts.sum(axis=1, where=live)[self.solved]
        self.row_hi = np.cumsum(n_rows)
        self.row_lo = self.row_hi - n_rows
        q, var_factor = tracks.blend(idx, s)
        f = np.empty((17, len(idx)))
        pq, qp = f[9:15], f[:9].reshape(3, 3, -1)
        pq[:3] = q
        tracks.p_cols.take(idx, axis=1, out=pq[3:])
        np.multiply(pq[3:, None], pq[None, :3], out=qp)
        f[15] = 1.0
        np.einsum("ij,ij->j", pq, pq, out=f[16])
        # equal total weight per trajectory pair: long wrong tracks cannot swamp
        per_row = np.repeat(self.counts, self.counts)
        self.weighted = np.multiply(f, (1.0 / var_factor) / per_row, out=f)
        self.inv_weight = var_factor * per_row
        # per pair, the weighted sums of the features
        self.sums = np.add.reduceat(f, self.starts, axis=1).T

    def per_offset(self, values: np.ndarray) -> np.ndarray:
        """Sums of per-pair ``values`` (leading axis) over each offset's pairs."""
        return np.add.reduceat(values, self.seg_lo, axis=0)

    def pair_means(self, which, coef: np.ndarray) -> np.ndarray:
        """Each pair's mean residual under each of K transforms of its
        offset, ``coef[i]`` (K, 17) being those of offset ``which[i]`` (see
        ``_residual_coefficients``), as a (K, S) array; pairs of other
        offsets read 0."""
        means = np.zeros((coef.shape[1], len(self.counts)))
        for a, c in zip(which, coef):
            lo, hi = self.row_lo[a], self.row_hi[a]
            seg = slice(self.seg_lo[a], self.seg_lo[a] + self.n_seg[a])
            d2 = c @ self.weighted[:, lo:hi]
            d2 *= self.inv_weight[lo:hi]
            d = np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)
            means[:, seg] = np.add.reduceat(d, self.starts[seg] - lo, axis=1)
        return means / self.counts

    @staticmethod
    def fit(sums: np.ndarray):
        """Weighted rigid fits from summed features (any leading axes):
        ``(rotation, translation, ok)`` as ``estimator._rigid_fit``."""
        total = sums[..., 15:16]
        q_bar, p_bar = sums[..., 9:12] / total, sums[..., 12:15] / total
        cov = np.swapaxes(sums[..., :9].reshape(*sums.shape[:-1], 3, 3), -1, -2) / total[..., None]
        cov -= q_bar[..., :, None] * p_bar[..., None, :]
        return estimator._rigid_fit(cov, p_bar, q_bar)

    def solve(self, gate: float) -> list:
        """``_solve_at_offsets``' result for each offset of the block."""
        out = [None] * self.n_offsets
        n_off = len(self.solved)
        if n_off == 0:
            return out
        counts, seg_at, sums, per_offset = self.counts, self.seg_at, self.sums, self.per_offset
        # proposers: each offset's pairs with the most samples, each fit on its own
        props = np.full((n_off, _MAX_PROPOSALS), -1)
        for a in range(n_off):
            lo = self.seg_lo[a]
            order = np.argsort(-counts[lo:lo + self.n_seg[a]])[:_MAX_PROPOSALS]
            props[a, :len(order)] = lo + order
        has = props >= 0
        rot = np.broadcast_to(np.eye(3), (*props.shape, 3, 3)).copy()
        trans = np.zeros((*props.shape, 3))
        ok = np.zeros(props.shape, dtype=bool)
        rot[has], trans[has], ok[has] = self.fit(sums[props[has]])
        ok &= counts[props] >= 3  # a straight snippet cannot propose, can still support
        means = self.pair_means(range(n_off), _residual_coefficients(rot, trans))
        inliers = means <= gate
        n_in = per_offset(inliers.T)
        mean_in = per_offset((means * inliers).T) / np.maximum(n_in, 1)
        # the winner: most inliers, then the smallest mean, then the first proposer
        usable = ok & (n_in >= 2)
        n_key = np.where(usable, n_in, 0)
        top = usable & (n_key == n_key.max(axis=1, keepdims=True))
        winner = np.argmin(np.where(top, mean_in, np.inf), axis=1)
        has_winner = top.any(axis=1)
        # refit on the winner's supporters; with no curved pair to propose from
        # (shape-poor scene), a jointly trimmed fit over every pair instead
        active = np.where(has_winner[seg_at], inliers[winner[seg_at], np.arange(len(counts))], True)
        going = np.ones(n_off, dtype=bool)  # offsets still refitting
        degenerate = np.zeros(n_off, dtype=bool)
        sol_rot, sol_trans = np.empty((n_off, 3, 3)), np.empty((n_off, 3))
        rms = np.empty(n_off)
        final = np.empty(len(counts))  # each pair's mean residual under its offset's solution
        for _ in range(3):
            (which,) = np.nonzero(going)
            if not len(which):
                break
            fitted = active & going[seg_at]
            total = per_offset(sums * fitted[:, None])[which]
            r, t, fit_ok = self.fit(total)
            degenerate[which[~fit_ok]] = True
            going[which[~fit_ok]] = False
            which, total, r, t = which[fit_ok], total[fit_ok], r[fit_ok], t[fit_ok]
            coef = _residual_coefficients(r, t)
            m = self.pair_means(which, coef[:, None])[0]
            sol_rot[which], sol_trans[which] = r, t
            rms[which] = np.sqrt(np.maximum(np.sum(coef * total, axis=1), 0.0) / total[:, 15])
            final[going[seg_at]] = m[going[seg_at]]
            refit_gate = np.full(n_off, gate)
            poor = going & ~has_winner
            if poor.any():
                medians = _group_medians(m, seg_at, fitted & poor[seg_at], n_off)
                refit_gate[poor] = 3.0 * medians[poor] + 1e-9
            new = m <= refit_gate[seg_at]
            going &= (per_offset(new) >= 2) & (per_offset(new != active) > 0)
            active = np.where(going[seg_at], new, active)
        supporters = final <= gate
        n_sup = per_offset(supporters)
        mean_sup = per_offset(final * supporters) / np.maximum(n_sup, 1)
        for a, o in enumerate(self.solved.tolist()):
            if not degenerate[a] and n_sup[a] > 0:
                out[o] = (estimator.SpatialSolution(sol_rot[a], sol_trans[a], float(rms[a])),
                          int(n_sup[a]), float(mean_sup[a]))
        return out


def _group_medians(values: np.ndarray, group: np.ndarray, mask: np.ndarray, n_groups: int):
    """``np.median`` of the masked ``values`` of each group (NaN for a group
    with none)."""
    order = np.lexsort((values, group))
    order = order[mask[order]]
    v, g = values[order], group[order]
    n = np.bincount(g, minlength=n_groups)
    first = np.cumsum(n) - n
    out = np.full(n_groups, np.nan)
    has = n > 0
    lo = v[(first + (n - 1) // 2)[has]]
    hi = v[(first + n // 2)[has]]
    out[has] = np.where(n[has] % 2 == 1, lo, (lo + hi) / 2.0)
    return out


def _overlap_blocks(tracks: estimator.PairedTracks, offsets: np.ndarray):
    """Runs of consecutive offsets with their in-overlap rows (as
    ``PairedTracks.overlap``), each run holding at most ``_SCAN_BLOCK`` rows
    unless a single offset has more. Offsets without overlap add no rows, so
    the row cap alone bounds neither the overlap mask nor a run's per-pair
    tallies: the mask is taken over at most ``4 * _SCAN_BLOCK`` (offset, P
    sample) cells at a time, and a run spans at most ``4 * _SCAN_BLOCK``
    (offset, pair) cells.

    Yields ``(first, count, at, idx, s)``, ``at`` counted from the run's
    first offset."""
    per_mask = max(1, 4 * _SCAN_BLOCK // max(1, len(tracks.p_times)))
    per_run = max(1, 4 * _SCAN_BLOCK // max(1, tracks.n_pairs))
    held: list[tuple] = []  # rows of the offsets [first, current) not yet yielded
    first, n_held = 0, 0

    def run(count):
        at, idx, s = (np.concatenate(c) for c in zip(*held))
        return first, count, at - first, idx, s

    for m in range(0, len(offsets), per_mask):
        chunk = offsets[m:m + per_mask]
        at, idx, s = tracks.overlap(chunk)
        ends = np.cumsum(np.bincount(at, minlength=len(chunk))).tolist()
        at += m
        cut = 0  # rows of this mask already held
        for o, end in enumerate(ends, start=m):
            begin = ends[o - m - 1] if o > m else 0
            if o > first and (n_held + end - begin > _SCAN_BLOCK or o - first == per_run):
                held.append((at[cut:begin], idx[cut:begin], s[cut:begin]))
                yield run(o - first)
                held, first, n_held, cut = [], o, 0, begin
            n_held += end - begin
        held.append((at[cut:], idx[cut:], s[cut:]))
    if len(offsets):
        yield run(len(offsets) - first)


def _solve_at_offsets(tracks: estimator.PairedTracks, offsets, gate: float = _INLIER_GATE):
    """Consensus spatial solve against Q interpolated at each candidate
    offset. Each shape-rich trajectory pair proposes a transform on its own;
    the proposal most other pairs agree with (mean residual within ``gate``)
    wins and is refit on its supporters. Mostly-wrong trajectory votes
    therefore cannot drag the fit, which a jointly trimmed least squares
    could not guarantee.

    Returns, in the order of ``offsets``, (solution, inlier count, mean
    inlier residual) or None per offset; ranking candidate offsets
    lexicographically by (-inliers, residual) rewards the offset at which
    the most trajectory pairs genuinely lie on each other. Offsets are
    solved in blocks (``_overlap_blocks``, ``_ScanBlock``) that share every
    numpy call, with bounded memory."""
    offsets = np.asarray(offsets, dtype=float)
    out = [None] * len(offsets)
    for first, count, at, idx, s in _overlap_blocks(tracks, offsets):
        out[first:first + count] = _ScanBlock(tracks, at, idx, s, count).solve(gate)
    return out


def _thinning_step(coarse_step: float, frame_period: float) -> int:
    """P samples per coarse offset step: the coarse scan scores about one
    sample per step of each pair (a ratio within rounding of an integer
    counts as that integer)."""
    return max(1, math.ceil(coarse_step / frame_period - 1e-9))


def _offset_hypotheses(tracks: estimator.PairedTracks, raw_gaps: np.ndarray, frame_period: float):
    """Candidate clock offsets from a two-stage consensus scan (spatial refit
    + inlier count at every grid offset). The coarse range comes from the
    spread of raw timestamp gaps, so a biased median cannot push the true
    offset out of view. The coarse stage votes with a widened gate because a
    quarter-second of offset error already moves traffic by meters; fine
    scans around the strongest cells then resolve to half a frame. Yields
    the chosen hypotheses best first, each offset with the consensus spatial
    solution the fine scan found there.

    The scan does only the work its reader asks for. Coarse scores only pick
    the fine windows, so they score about one P sample per coarse step of
    each pair. The best coarse window is fine-scanned first and its best
    offset yielded at once; the other windows are scanned only when the next
    hypothesis is asked for, and the ranking then continues from the first
    one. Whenever the first window holds the best fine offset, that is the
    ranking an eager scan of every window gives."""
    lo = float(np.percentile(raw_gaps, 2)) - _SCAN_HALFWIDTH
    hi = float(np.percentile(raw_gaps, 98)) + _SCAN_HALFWIDTH
    coarse_step = max(0.25, frame_period)
    coarse_gate = _INLIER_GATE + 12.0 * coarse_step  # ~typical speed * step
    coarse = np.arange(lo, hi + 0.5 * coarse_step, coarse_step)
    thinned = tracks.thinned(_thinning_step(coarse_step, frame_period))
    keys = [((-solved[1], solved[2]), float(d))
            for d, solved in zip(coarse, _solve_at_offsets(thinned, coarse, gate=coarse_gate))
            if solved is not None]
    keys.sort()
    fine_step = 0.5 * frame_period
    seen: list[float] = []
    windows: list[np.ndarray] = []
    for _, center in keys[: 3 * _MAX_HYPOTHESES]:
        if any(abs(center - s) <= coarse_step for s in seen):
            continue
        seen.append(center)
        windows.append(np.arange(center - coarse_step, center + coarse_step + 0.5 * fine_step, fine_step))

    def best_offsets(scanned):
        """Each window's best fine offset: (key, offset, solution)."""
        fine = iter(_solve_at_offsets(tracks, np.concatenate(scanned or [np.empty(0)])))
        out = []
        for window in scanned:
            best = None
            # zip ends on the exhausted window before it takes from ``fine``
            for d, solved in zip(window, fine):
                if solved is None:
                    continue
                key = (-solved[1], solved[2])
                if best is None or key < best[0]:
                    best = (key, float(d), solved[0])
            if best is not None:
                out.append(best)
        return out

    first = best_offsets(windows[:1])
    chosen = [Transform4D.from_matrix(sol.rotation, sol.translation, dt) for _, dt, sol in first]
    yield from chosen
    candidates = sorted(first + best_offsets(windows[1:]), key=lambda c: c[:2])
    for _, dt, sol in candidates:
        if len(chosen) >= _MAX_HYPOTHESES:
            break
        if all(abs(dt - c.time_offset) > 2 * fine_step for c in chosen):
            chosen.append(Transform4D.from_matrix(sol.rotation, sol.translation, dt))
            yield chosen[-1]


def _pooled_alignment(tracks: estimator.PairedTracks, tf: Transform4D) -> float:
    """Mean point-to-interpolated-point distance over every matched
    trajectory pair of the (unmapped) stack under the candidate transform
    (inf without overlap)."""
    idx, _, q, _ = tracks.mapped(tf.matrix, tf.translation).interpolate(tf.time_offset)
    if len(idx) == 0:
        return math.inf
    return float(np.linalg.norm(tracks.p_xyz[idx] - q, axis=1).mean())


def _reassociate(db_p, db_q, traj_pairs, tf: Transform4D, gate: float, time_gate: float):
    """Fresh position pairs: for every matched trajectory pair (the pairs
    distinct), each P position with the time-nearest sample of the Q track
    under ``tf`` (the earlier one on a tie), kept when that sample is within
    ``time_gate`` of it and within ``gate`` meters once mapped. Returns them
    as a correspondence set (raw Q coordinates and times) and as ``(ti, pi,
    tj, pj)`` index rows, in ``traj_pairs`` order and then by ``pi``.

    Every pair is served by one window join of the P positions against the
    paired tracks' Q samples sorted by mapped time, a block at a time: the
    window is ``time_gate`` widened by a few ulps of the timestamps, so it
    holds each track's nearest sample whenever that one passes the time
    gate, and the exact tests run on what it holds."""
    traj_pairs = np.asarray(traj_pairs, dtype=np.int64).reshape(-1, 2)
    p, q = db_p.stack(), db_q.stack()
    pair_of = np.full((len(db_p.trajectories), len(db_q.trajectories)), -1)
    pair_of[traj_pairs[:, 0], traj_pairs[:, 1]] = np.arange(len(traj_pairs))
    (p_rows,) = np.nonzero((pair_of >= 0).any(axis=1)[p.track])
    (q_rows,) = np.nonzero((pair_of >= 0).any(axis=0)[q.track])
    tq = q.times[q_rows] + tf.time_offset
    by_time = np.argsort(tq, kind="stable")
    q_rows, tq = q_rows[by_time], tq[by_time]
    scale = max(np.abs(tq).max(initial=0.0), np.abs(p.times).max(initial=0.0))
    reach = time_gate + 4.0 * np.spacing(scale)
    kept = [np.empty((3, 0), dtype=np.int64)]  # (pair, P row, Q row) of each position pair
    for i, j in window_join(p.times[p_rows], tq, reach):
        pid = pair_of[p.track[p_rows[i]], q.track[q_rows[j]]]
        i, j, pid = i[pid >= 0], j[pid >= 0], pid[pid >= 0]
        if not len(i):
            continue
        # one group per (P position, paired Q track), its samples in time order
        group = np.argsort(i * len(traj_pairs) + pid, kind="stable")
        i, j, pid = i[group], j[group], pid[group]
        delta = tq[j] - p.times[p_rows[i]]
        starts = np.flatnonzero(np.append(True, (i[1:] != i[:-1]) | (pid[1:] != pid[:-1])))
        ends = np.append(starts[1:], len(i))
        # as a searchsorted on the one track: its first sample at or after the
        # P instant, then the nearer of that one and the one before, the
        # earlier on a tie
        k = starts + np.add.reduceat(delta < 0, starts, dtype=np.int64)
        lo, hi = np.maximum(k - 1, starts), np.minimum(k, ends - 1)
        gap = np.abs(delta)
        near = np.where(gap[hi] < gap[lo], hi, lo)
        near = near[gap[near] <= time_gate]
        p_row, q_row = p_rows[i[near]], q_rows[j[near]]
        res = np.linalg.norm(p.xyz[p_row] - tf.apply_points(q.xyz[q_row]), axis=1)
        ok = res <= gate
        kept.append(np.stack([pid[near][ok], p_row[ok], q_row[ok]]))
    pid, p_row, q_row = np.concatenate(kept, axis=1)
    order = np.lexsort((p_row, pid))
    pid, p_row, q_row = pid[order], p_row[order], q_row[order]
    rows = np.column_stack([*p.locate(p_row), *q.locate(q_row)])
    corr = estimator.CorrespondenceSet(p.xyz[p_row], q.xyz[q_row], p.times[p_row], q.times[q_row])
    return corr, rows


def _run_hypothesis(db_p, db_q, tf0: Transform4D, class_pairs, max_iterations: int):
    """One initial transform hypothesis to a scored session: S1-S3 steps,
    then the polish.

    Each step associates once: position pairs from the trajectory pairs
    under the current iterate (the first one over every class-compatible
    pair under ``tf0``). It then solves space from them (S1) and re-votes
    the trajectory pairs and the clock offset (S2), which completes an
    iterate. The loop stops when the matched trajectories align to within
    ``_TRAJECTORY_DISTANCE_THRESHOLD`` (converged), after ``max_iterations``
    steps, or when a step cannot complete an iterate: too few pairs,
    degenerate geometry, an empty vote, or the previous step's pairs again
    (a repeat). A completed step stacks its voted pairs once
    (``PairedTracks``); its offset refinement and its alignment test map
    that stack. The polish hands the association made under the last
    completed iterate, and that iterate's stack, to ``estimator.solve``; a
    step that stopped early has just made the association, and after a
    converged or a last step it is made once.

    Returns None when the hypothesis collapses before an iterate completes.
    """
    time_gate, halfwidth = 0.6 * db_p.frame_period, 2.0 * db_p.frame_period
    tf, traj_pairs = tf0, class_pairs
    # first association casts a wide net over every class-compatible pair;
    # the residual gate keeps only tracks that actually lie on each other
    gate = max(4.0 * _TRAJECTORY_DISTANCE_THRESHOLD, 2.0)
    matched = None  # the last completed iterate's stacked trajectory pairs
    pairs = None
    steps, converged = 0, False
    while True:
        # S3 (and initial association): position pairs from trajectory pairs
        corr, new_pairs = _reassociate(db_p, db_q, traj_pairs, tf, gate, time_gate)
        if converged or steps == max_iterations:
            break
        steps += 1
        if len(new_pairs) < 3 or (pairs is not None and np.array_equal(new_pairs, pairs)):
            break
        pairs = new_pairs
        # S1: transform from current pairs
        try:
            sol, keep, res = _trimmed_solve(corr)
        except (DegenerateGeometry, TooFewPairs):
            break
        # S2: trajectory pairing by majority vote + alignment distance
        voted = _vote_trajectory_pairs(pairs[keep], res[keep], _MIN_TRAJECTORY_VOTES)
        if not voted:
            break
        voted_tracks = estimator.PairedTracks(_matched_objects(db_p, db_q, voted))
        dt0 = float(np.median(corr.p_times[keep] - corr.q_times[keep]))
        try:
            dt = estimator.refine_time_offset(
                voted_tracks, sol.rotation, sol.translation, dt0, halfwidth, tol=1e-7
            )
        except InsufficientOverlap:
            dt = dt0
        tf = Transform4D.from_matrix(sol.rotation, sol.translation, dt)
        traj_pairs, matched = voted, voted_tracks
        gate = 3.0 * sol.rms_residual + 1e-9
        converged = _pooled_alignment(matched, tf) < _TRAJECTORY_DISTANCE_THRESHOLD
    if matched is None:
        return None
    if len(corr) >= 3:
        try:
            tf = estimator.solve(corr, matched, search_halfwidth=halfwidth)
        except (DegenerateGeometry, TooFewPairs, InsufficientOverlap):
            pass
    score, n_pp, n_po = score_session(tf, db_p, db_q)
    return CalibrationSession(
        transform=tf,
        score=score,
        n_pp=n_pp,
        n_po=n_po,
        iterations_used=steps,
        converged=converged,
        created_at=time.time(),
    )


# ---------------------------------------------------------------------------
# public operations


def calibrate(
    db_p: TrajectoryDatabase,
    db_q: TrajectoryDatabase,
    cfg: PipelineConfig | None = None,
    prior: "CalibrationSession | Transform4D | None" = None,
) -> CalibrationSession:
    """Run one full calibration session; the returned transform maps Q-frame
    positions and timestamps into P's frame and clock.

    Hypotheses are tried in turn until a session scores at least
    ``_RETRY_SCORE_THRESHOLD``; the best-scoring session is returned.
    ``prior`` (a stored session or transform from earlier passes) is tried
    first: a continuous-calibration system that already holds a decent
    estimate should not have to re-earn it from scratch, so matching, its
    filters and the offset scan run only when the prior does not hold, and
    a bad prior costs nothing because every hypothesis is score-checked.

    Raises NoCandidateMatches when fewer than 3 pairs survive the filters
    (with a prior, once the prior does not hold), and NoViableHypothesis
    (with the number of hypotheses tried) when enough do but every
    hypothesis collapses, or there is none: no prior, and the offset scan
    finds no offset.
    Non-convergence is not an error: the session comes back with
    ``converged=False`` and its honest score.
    """
    cfg = cfg or PipelineConfig()
    w = cfg.match_weights
    raw = kept = None  # the cascade's matches, once a hypothesis beyond the prior is needed

    def hypotheses():
        nonlocal raw, kept
        if prior is not None:
            yield prior.transform if isinstance(prior, CalibrationSession) else prior
        fp = extract_features(db_p)
        fq = extract_features(db_q)
        raw = motion_match(fp, fq, w)
        kept = apply_semantic_filters(raw, fp, fq, db_p, db_q, weights=w)
        if len(kept) < 3:
            raise NoCandidateMatches(len(raw), len(kept))
        # initialization: a loose trajectory vote straight off the filtered
        # matches, then candidate clock offsets from the consensus scan
        rows, candidates = _loose_vote(kept)
        if len(candidates) < 3:
            # dense traffic makes neighbor counts flicker and the neighborhood
            # filters starve the vote; retry them with relaxed tolerances
            # before giving up on a structured initialization
            relaxed = apply_semantic_filters(
                raw, fp, fq, db_p, db_q, weights=w,
                count_tolerance=COUNT_TOLERANCE + 2, hist_tolerance=3 * HIST_TOLERANCE,
            )
            if len(relaxed) > len(kept):
                kept = relaxed
                rows, candidates = _loose_vote(kept)
        if candidates:
            p, q = db_p.stack(), db_q.stack()
            raw_gaps = (p.times[p.at(rows[:, 0], rows[:, 1])]
                        - q.times[q.at(rows[:, 2], rows[:, 3])])
            tracks = estimator.PairedTracks(_matched_objects(db_p, db_q, candidates))
            yield from _offset_hypotheses(tracks, raw_gaps, db_p.frame_period)

    class_pairs = _class_pairs(db_p, db_q)
    best, tried = None, 0
    for tried, tf0 in enumerate(hypotheses(), start=1):
        session = _run_hypothesis(db_p, db_q, tf0, class_pairs, cfg.max_iterations)
        if session is None:
            continue
        if best is None or session.score > best.score:
            best = session
        if session.score >= _RETRY_SCORE_THRESHOLD:
            break
    if best is None:  # the stream went past the prior, so the cascade ran
        raise NoViableHypothesis(len(raw), len(kept), tried)
    return best


def derive_position_pairs(
    db_p: TrajectoryDatabase,
    db_q: TrajectoryDatabase,
    transform: Transform4D,
    spatial_gate: float = 1.0,
) -> estimator.CorrespondenceSet:
    """Same-instant position pairs implied by a calibration: each P position
    paired with the time-nearest position of *every* class-compatible Q
    track (mapped through the transform), where that one lies within half a
    frame and ``spatial_gate`` meters. One P position can so pair with
    several Q tracks."""
    corr, _ = _reassociate(
        db_p, db_q, _class_pairs(db_p, db_q), transform,
        gate=spatial_gate, time_gate=0.5 * db_p.frame_period + 1e-9,
    )
    return corr


def score_session(
    transform: Transform4D,
    db_p: TrajectoryDatabase,
    db_q: TrajectoryDatabase,
    match_radius: float = 1.0,
) -> tuple[float, int, int]:
    """Self-assessment of a transform without ground truth.

    ``n_po`` counts positions from both databases that fall inside both
    sensors' range discs once mapped into the common frame; ``n_pp`` counts
    P positions with a same-instant Q position within ``match_radius``.
    Score is min(1, 2 * n_pp / n_po).
    """
    r_p, r_q = db_p.sensing_range, db_q.sensing_range
    q_origin_in_p = transform.translation

    p_xyz, p_t = db_p.stack().xyz, db_p.stack().times
    q_xyz, q_t = db_q.stack().xyz, db_q.stack().times
    q_in_p = transform.apply_points(q_xyz)
    q_t_in_p = q_t + transform.time_offset

    p_overlap = (np.linalg.norm(p_xyz, axis=1) <= r_p) & (
        np.linalg.norm(p_xyz - q_origin_in_p, axis=1) <= r_q
    )
    q_overlap = (np.linalg.norm(q_xyz, axis=1) <= r_q) & (
        np.linalg.norm(q_in_p, axis=1) <= r_p
    )
    n_po = int(p_overlap.sum()) + int(q_overlap.sum())

    n_pp = 0
    order = np.argsort(q_t_in_p)
    qt_sorted = q_t_in_p[order]
    qx_sorted = q_in_p[order]
    half_frame = 0.5 * db_p.frame_period + 1e-9
    idx = np.nonzero(p_overlap)[0]
    # every (P position, Q position in its +-half-frame window) pair, a
    # block at a time; a block holds whole windows, so counting each
    # block's distinct owners counts each P position once
    for owner, j in window_join(p_t[idx], qt_sorted, half_frame):
        d = qx_sorted[j] - p_xyz[idx[owner]]
        n_pp += len(np.unique(owner[np.linalg.norm(d, axis=1) <= match_radius]))
    score = min(1.0, 2.0 * n_pp / n_po) if n_po > 0 else 0.0
    return score, n_pp, n_po


def fuse_sessions(
    sessions, min_score: float = 0.5
) -> CalibrationSession | None:
    """Fold sessions oldest-first into one estimate. Sessions scoring below
    ``min_score`` never update an existing fused state (a poor pass must not
    drag a good calibration); they can only seed it when nothing better
    exists yet. A zero-score session never changes an existing one."""
    fused = None
    for session in sessions:
        if fused is None:
            fused = session
        elif session.score > 0 and (session.score >= min_score or session.score > fused.score):
            fused = update_continuous(fused, session)
    return fused


def update_continuous(
    prev: CalibrationSession, new: CalibrationSession
) -> CalibrationSession:
    """Score-weighted fusion of two sessions; a zero-score session
    contributes nothing and the fused score keeps the best evidence."""
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


# ---------------------------------------------------------------------------
# session persistence


class SessionStore:
    """Append-only session log; the fused estimate is the fold of that log
    (``fuse_sessions``), so the log is the store's only source of truth.
    Sessions scoring under ``min_fuse_score`` are logged but do not update
    the fused state. Each fold saves where it stopped beside the log
    (``.fold``: offset, SHA-256 of the log up to the offset, the fold and
    the damaged lines so far); the next fold, in any process, resumes there
    unless those bytes of the log changed or a field does not read back as
    saved."""

    min_fuse_score = 0.5

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sessions_path = self.directory / "sessions.jsonl"
        self._checkpoint_path = self.directory / ".fold"
        self._named = set()  # the damaged complete lines this store warned of

    @contextmanager
    def _locked(self):
        # flock on a second open of the lock file waits on this one, so
        # nothing run under the lock may take it again; closing releases it
        with open(self.directory / ".lock", "w") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            yield

    def _log(self) -> bytes:
        try:
            return self.sessions_path.read_bytes()
        except FileNotFoundError:
            return b""

    def _parse(self, lines, log: bytes = b"", offset: int = 0):
        """The sessions on ``lines``, which start at ``log[offset:]``, and each
        damaged line's ``(number, reason)``."""
        out, damaged = [], []
        for k, line in enumerate(lines, start=1):
            try:
                if line.strip():
                    out.append(CalibrationSession.from_dict(json.loads(line)))
            except (KeyError, TypeError, ValueError) as exc:
                # counted only for a line it names: the count costs about
                # as much as the digest
                damaged.append((log.count(b"\n", 0, offset) + k, str(exc)))
        return out, damaged

    def _warn(self, damaged):
        for line_no, reason in damaged:
            warnings.warn(
                f"{self.sessions_path}:{line_no}: skipped damaged session record ({reason})")

    def _resume(self, log: bytes):
        """The checkpoint's ``(offset, fold, damaged)``, the fold as a tuple
        of at most one session, if ``log`` still starts with the bytes it
        covers and each field reads back as saved; else the log's start."""
        try:
            cp = json.loads(self._checkpoint_path.read_bytes())
            offset, damaged = cp["offset"], [tuple(d) for d in cp["damaged"]]
            if type(offset) is not int or not 0 <= offset <= len(log) or any(
                    tuple(map(type, d)) != (int, str) for d in damaged):
                raise ValueError("a checkpoint field has the wrong type")
            if offset and log[offset - 1:offset] != b"\n":
                raise ValueError("the checkpoint's offset does not end a line")
            if hashlib.sha256(log[:offset]).hexdigest() != cp["sha256"]:
                raise ValueError("the log changed under the checkpoint")
            fold = () if cp["fold"] is None else (CalibrationSession.from_dict(cp["fold"]),)
            if fold and fold[0].to_dict() != cp["fold"]:
                raise ValueError("the checkpoint's fold does not read back as saved")
            return offset, fold, damaged
        except (OSError, KeyError, TypeError, ValueError):
            return 0, (), []

    def _save(self, checkpoint: dict) -> None:
        # rewritten in place: ext4 flushes a file replaced by rename or
        # truncated to zero (auto_da_alloc), at up to tens of ms a pass;
        # a torn write fails the JSON parse or the digest
        with open(os.open(self._checkpoint_path, os.O_RDWR | os.O_CREAT, 0o644), "r+b") as fh:
            fh.write(json.dumps(checkpoint).encode())
            fh.truncate()

    def _fold(self) -> CalibrationSession | None:
        log = self._log()
        offset, resumed, damaged = self._resume(log)
        *lines, torn = log[offset:].split(b"\n")
        end = len(log) - len(torn)
        complete, new_damage = self._parse(lines, log, offset)
        fold = fuse_sessions([*resumed, *complete], self.min_fuse_score)
        damaged += new_damage
        if lines:
            self._save({"offset": end, "sha256": hashlib.sha256(log[:end]).hexdigest(),
                        "fold": None if fold is None else fold.to_dict(), "damaged": damaged})
        self._warn([d for d in damaged if d not in self._named])
        self._named.update(damaged)
        torn, torn_damage = self._parse([torn], log, end)
        self._warn(torn_damage)  # at every read while the tail is torn
        return fuse_sessions([*(() if fold is None else (fold,)), *torn], self.min_fuse_score)

    def sessions(self) -> list[CalibrationSession]:
        """Every complete session in the log, oldest first; a damaged line
        is skipped with a warning naming it."""
        with self._locked():
            out, damaged = self._parse(self._log().split(b"\n"))
        self._warn(damaged)
        return out

    def load_fused(self) -> CalibrationSession | None:
        with self._locked():
            return self._fold()

    def record(self, session: CalibrationSession) -> CalibrationSession:
        """Append the session and return the fold of the whole log."""
        line = json.dumps(session.to_dict()) + "\n"
        with self._locked():
            with open(self.sessions_path, "a+b") as fh:
                end = fh.tell()
                # a torn last line must not swallow this record
                if end and os.pread(fh.fileno(), 1, end - 1) != b"\n":
                    line = "\n" + line
                fh.write(line.encode())
            return self._fold()
