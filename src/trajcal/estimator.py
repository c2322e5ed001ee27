"""Closed-form rigid solve and time-offset estimation from matched pairs.

The spatial part is the classic cross-covariance/SVD least-squares fit
(rotation + translation, no scale). The temporal part is deliberately
decoupled: a robust coarse estimate (median of pairwise timestamp gaps)
followed by a 1D search that slides the transformed source trajectories in
time against linear interpolation until the spatial mismatch bottoms out.

Every "interpolate Q at P's instants inside the overlap" step goes through
one structure, ``PairedTracks``: all matched pairs stacked pair-major once,
so an evaluation at any offset is a fixed number of numpy calls however many
pairs there are. The pipeline's offset scan goes one step further: it
evaluates a whole block of candidate offsets on one stacked layout (one
overlap mask, one ``searchsorted`` and one blend per block), and its
per-pair and per-offset fits are stacks for ``_rigid_fit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateGeometry, InsufficientOverlap, TooFewPairs
from .model import Trajectory, Transform4D

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# resolution of the golden-section offset search, and the polish stop: polish
# rounds shrink the offset's move geometrically (5-30x a round) down to a
# floor of about one search resolution, where later rounds only re-sample
# the search's rounding
_OFFSET_TOL = 1e-9
_POLISH_STOP = 10.0 * _OFFSET_TOL
_POLISH_ROUNDS = 12

# rank test: second singular value of the centered cross-covariance relative
# to the largest; traffic scenes are near-planar, so only true collinearity
# (rank < 2) is fatal
_COLLINEAR_RTOL = 1e-6

TrajectoryPair = tuple[Trajectory, Trajectory]


@dataclass(frozen=True, eq=False)
class CorrespondenceSet:
    """Matched position pairs as parallel arrays (P side, Q side)."""

    p_xyz: np.ndarray
    q_xyz: np.ndarray
    p_times: np.ndarray
    q_times: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        p = np.asarray(self.p_xyz, dtype=float).reshape(-1, 3)
        q = np.asarray(self.q_xyz, dtype=float).reshape(-1, 3)
        pt = np.asarray(self.p_times, dtype=float).reshape(-1)
        qt = np.asarray(self.q_times, dtype=float).reshape(-1)
        if not (len(p) == len(q) == len(pt) == len(qt)):
            raise ValueError("correspondence arrays must have equal length")
        w = self.weights
        if w is not None:
            w = np.asarray(w, dtype=float).reshape(-1)
            if len(w) != len(p):
                raise ValueError("weights length must match pair count")
            if np.any(w < 0) or w.sum() <= 0:
                raise ValueError("weights must be non-negative with positive sum")
        for name, arr in (("p_xyz", p), ("q_xyz", q), ("p_times", pt), ("q_times", qt)):
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.p_times)


@dataclass(frozen=True, eq=False)
class SpatialSolution:
    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)
    rms_residual: float


def _rigid_fit(cov: np.ndarray, p_bar: np.ndarray, q_bar: np.ndarray):
    """Rotation and translation from the weighted cross-covariance
    ``sum w q0 p0^T`` and the centroids, for one fit or a stack of them
    (leading axes). ``ok`` is False where the correspondences are collinear."""
    u, s, vt = np.linalg.svd(cov)
    ok = (s[..., 0] > 0) & (s[..., 1] >= _COLLINEAR_RTOL * s[..., 0])
    v = np.swapaxes(vt, -1, -2)
    ut = np.swapaxes(u, -1, -2)
    d = np.sign(np.linalg.det(v @ ut))
    one = np.ones_like(d)
    rot = (v * np.stack([one, one, d], axis=-1)[..., None, :]) @ ut
    trans = p_bar - (rot @ q_bar[..., None])[..., 0]
    return rot, trans, ok


def solve_spatial(c: CorrespondenceSet) -> SpatialSolution:
    """Least-squares rigid transform minimizing sum ||p - (R q + T)||^2."""
    n = len(c)
    if n < 3:
        raise TooFewPairs(f"spatial solve needs at least 3 pairs, got {n}")
    if c.weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = c.weights / c.weights.sum()
    p_bar = w @ c.p_xyz
    q_bar = w @ c.q_xyz
    p0 = c.p_xyz - p_bar
    q0 = c.q_xyz - q_bar
    rot, trans, ok = _rigid_fit((q0 * w[:, None]).T @ p0, p_bar, q_bar)
    if not ok:
        raise DegenerateGeometry(
            "correspondences are collinear; rotation about the line is unobservable"
        )
    res = c.p_xyz - (c.q_xyz @ rot.T + trans)
    rms = float(np.sqrt(w @ np.sum(res * res, axis=1)))
    return SpatialSolution(rot, trans, rms)


def estimate_time_offset_coarse(c: CorrespondenceSet) -> float:
    """(Weighted) median of the pairwise timestamp gaps t_p - t_q."""
    if len(c) < 1:
        raise TooFewPairs("coarse time offset needs at least 1 pair")
    gaps = c.p_times - c.q_times
    if c.weights is None:
        return float(np.median(gaps))
    order = np.argsort(gaps)
    cum = np.cumsum(c.weights[order])
    k = int(np.searchsorted(cum, 0.5 * cum[-1]))
    return float(gaps[order[min(k, len(gaps) - 1)]])


def golden_section(
    f: Callable[[float], float], a: float, b: float, tol: float = _OFFSET_TOL
) -> float:
    """Minimize a unimodal function on [a, b]."""
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


class PairedTracks:
    """Matched trajectory pairs stacked once, pair-major: every pair's P
    samples and Q track concatenated, with pair ids and segment starts.

    Interpolating each Q track at its partner's P instants is then a fixed
    number of numpy calls whatever the pair count: one overlap mask, one
    ``searchsorted`` through a pair-major key (pair id, time) that orders
    exactly like a per-pair search, and one linear blend. The same holds for
    a block of offsets at once (``overlap`` then ``blend``), which is how the
    offset scan evaluates its candidates; ``interpolate`` is the one-offset
    case. Pair ``k`` is the k-th entry of ``matched_trajectories``; a pair
    whose Q track has fewer than 2 samples cannot interpolate and never
    yields a sample. With
    ``rotation``/``translation`` the Q track is mapped into P's frame once,
    here, instead of once per evaluation."""

    def __init__(
        self,
        matched_trajectories: Sequence[TrajectoryPair],
        rotation: np.ndarray | None = None,
        translation: np.ndarray | None = None,
    ):
        tp = [p for p, _ in matched_trajectories]
        tq = [q for _, q in matched_trajectories]
        self.n_pairs = len(tp)
        p_counts = np.array([len(t) for t in tp], dtype=np.int64)
        q_counts = np.array([len(t) for t in tq], dtype=np.int64)
        self.p_times = np.concatenate([t.times for t in tp] or [np.empty(0)])
        self.p_xyz = np.vstack([t.xyz for t in tp] or [np.empty((0, 3))])
        self.p_pair = np.repeat(np.arange(self.n_pairs), p_counts)
        self.q_times = np.concatenate([t.times for t in tq] or [np.empty(0)])
        q_xyz = np.vstack([t.xyz for t in tq] or [np.empty((0, 3))])
        if rotation is not None:
            q_xyz = q_xyz @ np.asarray(rotation).T
            q_xyz += np.asarray(translation)
        self._q_cols = np.ascontiguousarray(q_xyz.T)  # coordinate-major: gathers are contiguous
        self.q_stop = np.cumsum(q_counts)
        self.q_start = self.q_stop - q_counts
        # complex numbers order lexicographically (real, then imaginary)
        self._q_key = np.repeat(np.arange(self.n_pairs), q_counts) + 1j * self.q_times
        usable = q_counts >= 2
        q_first = np.full(self.n_pairs, math.inf)
        q_last = np.full(self.n_pairs, -math.inf)
        q_first[usable] = self.q_times[self.q_start[usable]]
        q_last[usable] = self.q_times[self.q_stop[usable] - 1]
        # each P sample's own pair's Q time span
        self._span_first = q_first[self.p_pair]
        self._span_last = q_last[self.p_pair]
        self.n_usable = int(usable.sum())

    def q_steps(self) -> np.ndarray:
        """Sampling intervals inside every Q track."""
        steps = np.diff(self.q_times)
        return np.delete(steps, self.q_stop[:-1] - 1)

    def overlap(self, offsets: np.ndarray):
        """The P instants that fall inside their own pair's Q time span once
        shifted to Q's clock (``t_p - offset``), at each of ``offsets``.

        Returns ``(at, idx, s)``: per such instant, its offset's position in
        ``offsets``, the index of its P sample and its shifted time; rows
        are offset-major, then pair-major and time-ordered. Costs a boolean
        per offset and P sample, so a caller bounds ``len(offsets)``."""
        s = self.p_times - np.asarray(offsets, dtype=float)[:, None]
        at, idx = np.nonzero((s >= self._span_first) & (s <= self._span_last))
        return at, idx, s[at, idx]

    def blend(self, idx: np.ndarray, s: np.ndarray):
        """Q interpolated at the shifted times ``s`` of the P samples
        ``idx``, rows as ``overlap`` returns them: ``(q, var_factor)``, with
        ``q`` coordinate-major (3, n) and ``var_factor`` as in
        ``interpolate``."""
        pair = self.p_pair[idx]
        j = np.searchsorted(self._q_key, pair + 1j * s, side="right") - 1
        j = np.minimum(j, self.q_stop[pair] - 2)
        t0 = self.q_times[j]
        u = (s - t0) / (self.q_times[j + 1] - t0)
        q = self._q_cols.take(j, axis=1)
        q *= 1.0 - u
        q += self._q_cols.take(j + 1, axis=1) * u
        return q, 1.0 + (1.0 - u) ** 2 + u**2

    def interpolate(self, offset: float):
        """Q interpolated at the P instants that fall inside their own pair's
        Q time span once shifted to Q's clock (``t_p - offset``).

        Returns ``(idx, s, q, var_factor)``: indices of those P samples
        (pair-major, time-ordered), their shifted times, the interpolated Q
        positions, and the residual's noise-variance factor
        ``1 + (1-u)^2 + u^2`` for interpolation fraction ``u``. Comparing a
        noisy point against a blend of two noisy points is least noisy
        mid-gap, which would bias a raw squared objective toward half-frame
        alignment."""
        _, idx, s = self.overlap([offset])
        q, var_factor = self.blend(idx, s)
        return idx, s, np.ascontiguousarray(q.T), var_factor


def _offset_objective(tracks: PairedTracks, d: float) -> tuple[float, int]:
    """Mean variance-normalized squared distance between P samples and the
    (mapped) Q track interpolated at t_p - d, over samples inside the Q span."""
    idx, _, q, var_factor = tracks.interpolate(d)
    if len(idx) == 0:
        return math.inf, 0
    diff = tracks.p_xyz[idx] - q
    return float(np.sum(np.sum(diff * diff, axis=1) / var_factor)) / len(idx), len(idx)


def refine_time_offset(
    matched_trajectories: Sequence[TrajectoryPair],
    rotation: np.ndarray,
    translation: np.ndarray,
    coarse: float,
    search_halfwidth: float,
    *,
    tol: float = _OFFSET_TOL,
) -> float:
    """Sub-frame time offset: grid scan over [coarse - hw, coarse + hw] in
    half the median Q sampling interval, followed by golden-section around
    the best cell."""
    if not matched_trajectories:
        raise InsufficientOverlap("no matched trajectories to refine against")
    tracks = PairedTracks(matched_trajectories, rotation, translation)
    if tracks.n_usable == 0:
        raise InsufficientOverlap("matched trajectories are too short to interpolate")
    grid_step = min(0.5 * float(np.median(tracks.q_steps())), max(search_halfwidth, 1e-12))
    grid = np.arange(coarse - search_halfwidth, coarse + search_halfwidth + 0.5 * grid_step, grid_step)
    values = [_offset_objective(tracks, float(d))[0] for d in grid]
    if all(math.isinf(v) for v in values):
        raise InsufficientOverlap("no temporal overlap anywhere in the search window")
    best = int(np.argmin(values))
    lo = grid[max(0, best - 1)]
    hi = grid[min(len(grid) - 1, best + 1)]
    refined = golden_section(lambda d: _offset_objective(tracks, d)[0], float(lo), float(hi), tol)
    return float(np.clip(refined, coarse - search_halfwidth, coarse + search_halfwidth))


def interpolated_correspondences(
    matched_trajectories: Sequence[TrajectoryPair],
    rotation: np.ndarray,
    translation: np.ndarray,
    time_offset: float,
    *,
    residual_gate: float | None = None,
) -> CorrespondenceSet:
    """Pair each P sample with the Q track linearly interpolated at its
    instant (raw Q coordinates, so the result feeds a fresh spatial solve)."""
    tracks = PairedTracks(matched_trajectories)
    idx, s, q_raw, var_factor = tracks.interpolate(time_offset)
    p_sel = tracks.p_xyz[idx]
    if residual_gate is not None:
        res = np.linalg.norm(
            p_sel - (q_raw @ np.asarray(rotation).T + np.asarray(translation)), axis=1
        )
        keep = res <= residual_gate
        p_sel, q_raw, s, var_factor = p_sel[keep], q_raw[keep], s[keep], var_factor[keep]
    if len(s) == 0:
        return CorrespondenceSet(
            np.empty((0, 3)), np.empty((0, 3)), np.empty(0), np.empty(0)
        )
    return CorrespondenceSet(p_sel, q_raw, s + time_offset, s, weights=1.0 / var_factor)


def solve(
    c: CorrespondenceSet,
    matched_trajectories: Sequence[TrajectoryPair] = (),
    *,
    search_halfwidth: float | None = None,
) -> Transform4D:
    """Full 4D solve: spatial fit, coarse offset, then alternate sub-frame
    offset refinement with interpolated re-solves until they agree.

    Each polish round refines the offset under the current spatial fit
    (``refine_time_offset``, golden section to ``_OFFSET_TOL``), then re-solves
    space from Q interpolated at that offset. Polish stops once a round moves
    the offset by no more than ``_POLISH_STOP`` (ten search resolutions:
    rounds past that only re-sample the search's rounding), or after
    ``_POLISH_ROUNDS`` rounds."""
    sol = solve_spatial(c)
    dt = estimate_time_offset_coarse(c)
    if matched_trajectories:
        if search_halfwidth is None:
            gaps = [np.diff(tq.times) for _, tq in matched_trajectories if len(tq) >= 2]
            if gaps:
                search_halfwidth = 2.0 * float(np.median(np.concatenate(gaps)))
        if search_halfwidth:
            for _ in range(_POLISH_ROUNDS):
                dt_new = refine_time_offset(
                    matched_trajectories, sol.rotation, sol.translation, dt, search_halfwidth
                )
                corr = interpolated_correspondences(
                    matched_trajectories,
                    sol.rotation,
                    sol.translation,
                    dt_new,
                    residual_gate=max(3.0 * sol.rms_residual, 1e-9),
                )
                moved = abs(dt_new - dt)
                dt = dt_new
                if len(corr) >= 3:
                    sol = solve_spatial(corr)
                if moved <= _POLISH_STOP:
                    break
    return Transform4D.from_matrix(sol.rotation, sol.translation, dt)
