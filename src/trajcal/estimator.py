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

The polish's offset search (``refine_time_offset``: a grid, then golden
section) searches each P instant's Q segment only until the golden bracket
is knot-free, i.e. no P instant crosses a Q sample or a Q track's end
anywhere inside it. The bracket only shrinks, so from then on every
evaluation uses the same segments, gathered once (``_FixedSegments``), and
costs a few elementwise passes.
"""

from __future__ import annotations

import copy
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
    """Median of the pairwise timestamp gaps t_p - t_q."""
    if len(c) < 1:
        raise TooFewPairs("coarse time offset needs at least 1 pair")
    return float(np.median(c.p_times - c.q_times))


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def _check_halfwidth(search_halfwidth: float) -> None:
    if not (math.isfinite(search_halfwidth) and search_halfwidth >= 0):
        raise ValueError(
            f"search_halfwidth must be finite and non-negative, got {search_halfwidth}"
        )


def golden_section(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = _OFFSET_TOL,
    *,
    freeze: Callable[[float, float], Callable[[float], float] | None] | None = None,
) -> float:
    """Minimize a unimodal function on [a, b], until the bracket is no wider
    than ``tol`` or rounding stops it shrinking.

    ``freeze`` is ``refine_time_offset``'s hook: asked with each bracket, it
    may return a cheaper callable equal to ``f`` on that bracket, which then
    replaces ``f`` for the rest of the search (the bracket only shrinks)."""
    _check_tol(tol)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    width = abs(b - a)
    while width > tol:
        if freeze is not None:
            fixed = freeze(a, b)
            if fixed is not None:
                f, freeze = fixed, None
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        width, last = abs(b - a), width
        if width >= last:
            break
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
    yields a sample. Q is held in its own frame: ``mapped`` maps it through
    a transform, so a caller that tries many transforms stacks the pairs
    only once."""

    def __init__(self, matched_trajectories: Sequence[TrajectoryPair]):
        tp = [p for p, _ in matched_trajectories]
        tq = [q for _, q in matched_trajectories]
        self.n_pairs = len(tp)
        p_counts = np.array([len(t) for t in tp], dtype=np.int64)
        q_counts = np.array([len(t) for t in tq], dtype=np.int64)
        self.p_times = np.concatenate([t.times for t in tp] or [np.empty(0)])
        self.p_xyz = np.vstack([t.xyz for t in tp] or [np.empty((0, 3))])
        self.p_cols = np.ascontiguousarray(self.p_xyz.T)
        self.p_pair = np.repeat(np.arange(self.n_pairs), p_counts)
        self.q_times = np.concatenate([t.times for t in tq] or [np.empty(0)])
        q_xyz = np.vstack([t.xyz for t in tq] or [np.empty((0, 3))])
        self._q_cols = np.ascontiguousarray(q_xyz.T)  # coordinate-major: contiguous gathers
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

    def mapped(self, rotation: np.ndarray, translation: np.ndarray) -> "PairedTracks":
        """This stack with its Q coordinates mapped through
        ``rotation``/``translation``, into P's frame. Every other array is
        shared."""
        q_xyz = np.ascontiguousarray(self._q_cols.T) @ np.asarray(rotation).T
        q_xyz += np.asarray(translation)
        out = copy.copy(self)
        out._q_cols = np.ascontiguousarray(q_xyz.T)
        return out

    def thinned(self, step: int) -> "PairedTracks":
        """This stack with every ``step``-th P sample of each pair, counted
        from the pair's first. Every Q array is shared."""
        rows = np.arange(len(self.p_pair))
        keep = (rows - np.searchsorted(self.p_pair, self.p_pair)) % step == 0
        out = copy.copy(self)
        out.p_times = self.p_times[keep]
        out.p_xyz = self.p_xyz[keep]
        out.p_cols = np.ascontiguousarray(self.p_cols[:, keep])
        out.p_pair = self.p_pair[keep]
        out._span_first = self._span_first[keep]
        out._span_last = self._span_last[keep]
        return out

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

    def segments(self, idx: np.ndarray, s: np.ndarray) -> np.ndarray:
        """The Q segment each P sample ``idx`` falls in at shifted time ``s``
        (inside its pair's Q span): the index of the segment's first Q
        sample, the last segment for a time on the track's end."""
        pair = self.p_pair[idx]
        j = np.searchsorted(self._q_key, pair + 1j * s, side="right") - 1
        return np.minimum(j, self.q_stop[pair] - 2)

    def blend(self, idx: np.ndarray, s: np.ndarray):
        """Q interpolated at the shifted times ``s`` of the P samples
        ``idx``, rows as ``overlap`` returns them: ``(q, var_factor)``, with
        ``q`` coordinate-major (3, n) and ``var_factor`` as in
        ``interpolate``."""
        j = self.segments(idx, s)
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


class _FixedSegments:
    """The polish objective (see ``_OffsetSearch``) with every P sample's Q
    segment fixed: the P samples ``idx`` are blended on the segments
    starting at ``j``. Everything but the offset is gathered here, once.

    It equals the full objective at every offset where the overlap and the
    segments are those ones, which ``_OffsetSearch.freeze`` certifies for a
    bracket."""

    def __init__(self, tracks: PairedTracks, idx, j):
        self.p_t = tracks.p_times[idx]
        self.t0 = tracks.q_times[j]
        self.step = tracks.q_times[j + 1] - self.t0
        self.qa = tracks._q_cols.take(j, axis=1)
        self.qb = tracks._q_cols.take(j + 1, axis=1)
        self.p = tracks.p_cols.take(idx, axis=1)

    def __call__(self, d: float) -> float:
        n = len(self.p_t)
        if n == 0:
            return math.inf
        u = (self.p_t - d - self.t0) / self.step
        q = self.qa * (1.0 - u)
        q += self.qb * u
        diff = self.p - q
        diff *= diff
        # summed left to right per row, as np.sum(..., axis=1) sums a row of 3
        return float(np.sum((diff[0] + diff[1] + diff[2]) / (1.0 + (1.0 - u) ** 2 + u**2))) / n


def _layout(tracks: PairedTracks, d: float):
    """The segment layout at offset ``d``: per P sample its two overlap
    tests (shifted time not before / not after its pair's Q span), then the
    samples inside the span and their Q segments."""
    s = tracks.p_times - d
    ge = s >= tracks._span_first
    le = s <= tracks._span_last
    idx = np.flatnonzero(ge & le)
    return ge, le, idx, tracks.segments(idx, s[idx])


class _OffsetSearch:
    """The polish objective over offsets on one mapped stack: the mean
    variance-normalized squared distance between P samples and the Q track
    interpolated at t_p - d, over samples inside the Q span (inf with
    none). It keeps each evaluated layout's signature: how many P samples
    pass each overlap test, and the sum of the segments inside the overlap.

    The shifted time ``t_p - d`` is monotone in ``d`` even after rounding,
    and so are both overlap tests and each sample's segment. Layouts at
    ``a <= b`` are therefore equal exactly when their signatures are, and
    then so is every layout in between: ``freeze(a, b)`` hands golden
    section the objective on those fixed segments. Golden section's later
    points stay inside the bracket, 0.38 of its width from the nearer end."""

    def __init__(self, tracks: PairedTracks):
        self.tracks = tracks
        self._signatures = {}

    def __call__(self, d: float) -> float:
        ge, le, idx, j = _layout(self.tracks, d)
        self._signatures[d] = (np.count_nonzero(ge), np.count_nonzero(le), int(j.sum()))
        return _FixedSegments(self.tracks, idx, j)(d)

    def freeze(self, a: float, b: float):
        # both ends of a bracket are offsets already evaluated
        if self._signatures[a] != self._signatures[b]:
            return None
        _, _, idx, j = _layout(self.tracks, a)
        return _FixedSegments(self.tracks, idx, j)


def refine_time_offset(
    tracks: PairedTracks,
    rotation: np.ndarray,
    translation: np.ndarray,
    coarse: float,
    search_halfwidth: float,
    *,
    tol: float = _OFFSET_TOL,
) -> float:
    """Sub-frame time offset: grid scan over [coarse - hw, coarse + hw] in
    half the median Q sampling interval, followed by golden section around
    the best cell, to a bracket of ``tol``, with ``tracks`` mapped through
    ``rotation``/``translation``.

    Golden section searches every P instant's Q segment only until its
    bracket holds no knot (a P instant crossing a Q sample or a Q track's
    end); from then on it evaluates on those fixed segments, with the same
    floating-point operations, so the result is what a full search gives."""
    if not math.isfinite(coarse):
        raise ValueError(f"coarse must be finite, got {coarse}")
    _check_halfwidth(search_halfwidth)
    _check_tol(tol)
    tracks = tracks.mapped(rotation, translation)
    if tracks.n_pairs == 0:
        raise InsufficientOverlap("no matched trajectories to refine against")
    if tracks.n_usable == 0:
        raise InsufficientOverlap("matched trajectories are too short to interpolate")
    grid_step = min(0.5 * float(np.median(tracks.q_steps())), max(search_halfwidth, 1e-12))
    grid = np.arange(coarse - search_halfwidth, coarse + search_halfwidth + 0.5 * grid_step, grid_step)
    search = _OffsetSearch(tracks)
    values = [search(float(d)) for d in grid]
    if all(math.isinf(v) for v in values):
        raise InsufficientOverlap("no temporal overlap anywhere in the search window")
    best = int(np.argmin(values))
    lo = grid[max(0, best - 1)]
    hi = grid[min(len(grid) - 1, best + 1)]
    refined = golden_section(search, float(lo), float(hi), tol, freeze=search.freeze)
    return float(np.clip(refined, coarse - search_halfwidth, coarse + search_halfwidth))


def interpolated_correspondences(
    tracks: PairedTracks,
    rotation: np.ndarray,
    translation: np.ndarray,
    time_offset: float,
    *,
    residual_gate: float,
) -> CorrespondenceSet:
    """Pair each P sample with the Q track linearly interpolated at its
    instant (raw Q coordinates, so the result feeds a fresh spatial solve),
    keeping the pairs within ``residual_gate`` of each other once Q is
    mapped through ``rotation``/``translation``."""
    idx, s, q_raw, var_factor = tracks.interpolate(time_offset)
    p_sel = tracks.p_xyz[idx]
    res = np.linalg.norm(
        p_sel - (q_raw @ np.asarray(rotation).T + np.asarray(translation)), axis=1
    )
    keep = res <= residual_gate
    p_sel, q_raw, s, var_factor = p_sel[keep], q_raw[keep], s[keep], var_factor[keep]
    if len(s) == 0:
        return CorrespondenceSet(p_sel, q_raw, s, s)
    return CorrespondenceSet(p_sel, q_raw, s + time_offset, s, weights=1.0 / var_factor)


def solve(
    c: CorrespondenceSet,
    tracks: PairedTracks,
    *,
    search_halfwidth: float,
) -> Transform4D:
    """Full 4D solve: spatial fit, coarse offset, then alternate sub-frame
    offset refinement with interpolated re-solves until they agree.

    ``tracks`` is the matched pairs' stack, unmapped. Each polish round
    refines the offset under the current spatial fit (``refine_time_offset``,
    golden section to ``_OFFSET_TOL``, searching Q segments only until its
    bracket is knot-free), then re-solves space from Q interpolated at that
    offset. Polish stops once a round moves the offset by no more than
    ``_POLISH_STOP`` (ten search resolutions: rounds past that only
    re-sample the search's rounding), after ``_POLISH_ROUNDS`` rounds, or
    on a 2-cycle: a round that returns within ``_POLISH_STOP`` of the offset
    of the round before last. An offset on a frame-grid knot can alternate
    between two states for good; the polish then keeps the one with the
    lower objective, each evaluated at its own transform and offset."""
    _check_halfwidth(search_halfwidth)
    sol = solve_spatial(c)
    dt = estimate_time_offset_coarse(c)
    ended = []  # the offsets earlier rounds ended at
    for _ in range(_POLISH_ROUNDS):
        dt_new = refine_time_offset(
            tracks, sol.rotation, sol.translation, dt, search_halfwidth
        )
        corr = interpolated_correspondences(
            tracks,
            sol.rotation,
            sol.translation,
            dt_new,
            residual_gate=max(3.0 * sol.rms_residual, 1e-9),
        )
        moved = abs(dt_new - dt)
        previous = sol, dt
        dt = dt_new
        if len(corr) >= 3:
            sol = solve_spatial(corr)
        if moved <= _POLISH_STOP:
            break
        if len(ended) >= 2 and abs(dt - ended[-2]) <= _POLISH_STOP:
            if _state_objective(tracks, *previous) < _state_objective(tracks, sol, dt):
                sol, dt = previous
            break
        ended.append(dt)
    return Transform4D.from_matrix(sol.rotation, sol.translation, dt)


def _state_objective(tracks: PairedTracks, sol: SpatialSolution, dt: float) -> float:
    return _OffsetSearch(tracks.mapped(sol.rotation, sol.translation))(dt)
