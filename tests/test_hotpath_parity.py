"""The concatenated hot path against the per-pair loops it replaced.

The oracles below are the earlier per-pair implementations of the polish
objective, the interpolated correspondences, the consensus solve at one
candidate offset, the 12-round polish loop and the session score's window
loop, kept here verbatim in behaviour (the per-pair re-association oracle
lives in ``conftest.py``), and the offset search that evaluates the full
objective at every golden step. Every vectorized path must reproduce
them: same sample counts and inlier sets, the same arrays, values equal to
rounding; the offset search bit for bit."""

import math

import numpy as np
import pytest

from trajcal import estimator
from trajcal import pipeline as pl
from trajcal.errors import (
    CalibrationError,
    DegenerateGeometry,
    InsufficientOverlap,
    NoCandidateMatches,
    NoViableHypothesis,
    TooFewPairs,
)
from trajcal.estimator import (
    PairedTracks,
    estimate_time_offset_coarse,
    interpolated_correspondences,
    solve_spatial,
)
from trajcal.model import Trajectory, Transform4D
from trajcal.simulator import default_scenario, make_pair

from conftest import (
    assert_same_association,
    assert_same_transforms,
    make_database,
    make_trajectory,
    oracle_offset_hypotheses,
    oracle_vote_trajectory_pairs,
    record_stacks,
)

# ---------------------------------------------------------------------------
# oracles: the per-pair loops


def oracle_interp_with_variance(sm, q_t, q_xyz):
    j = np.clip(np.searchsorted(q_t, sm, side="right") - 1, 0, len(q_t) - 2)
    u = (sm - q_t[j]) / (q_t[j + 1] - q_t[j])
    interp = q_xyz[j] * (1.0 - u)[:, None] + q_xyz[j + 1] * u[:, None]
    return interp, 1.0 + (1.0 - u) ** 2 + u**2


def oracle_pairs(matched, rotation, translation):
    return [
        (tp.times, tp.xyz, tq.times, tq.xyz @ np.asarray(rotation).T + np.asarray(translation))
        for tp, tq in matched
        if len(tq) >= 2
    ]


def oracle_offset_objective(pairs, d):
    total, count = 0.0, 0
    for p_t, p_xyz, q_t, q_xyz in pairs:
        s = p_t - d
        mask = (s >= q_t[0]) & (s <= q_t[-1])
        if not mask.any():
            continue
        interp, var_factor = oracle_interp_with_variance(s[mask], q_t, q_xyz)
        diff = p_xyz[mask] - interp
        total += float(np.sum(np.sum(diff * diff, axis=1) / var_factor))
        count += int(mask.sum())
    if count == 0:
        return math.inf, 0
    return total / count, count


def oracle_interpolated_correspondences(matched, rotation, translation, time_offset,
                                        residual_gate):
    rot, trans = np.asarray(rotation), np.asarray(translation)
    p_list, q_list, pt_list, qt_list, w_list = [], [], [], [], []
    for traj_p, traj_q in matched:
        if len(traj_q) < 2:
            continue
        q_t = traj_q.times
        s = traj_p.times - time_offset
        mask = (s >= q_t[0]) & (s <= q_t[-1])
        if not mask.any():
            continue
        sm = s[mask]
        q_raw, var_factor = oracle_interp_with_variance(sm, q_t, traj_q.xyz)
        p_sel = traj_p.xyz[mask]
        res = np.linalg.norm(p_sel - (q_raw @ rot.T + trans), axis=1)
        keep = res <= residual_gate
        p_sel, q_raw, sm, var_factor = p_sel[keep], q_raw[keep], sm[keep], var_factor[keep]
        if len(sm) == 0:
            continue
        p_list.append(p_sel)
        q_list.append(q_raw)
        pt_list.append(sm + time_offset)
        qt_list.append(sm)
        w_list.append(1.0 / var_factor)
    if not p_list:
        return None
    return (np.vstack(p_list), np.vstack(q_list), np.concatenate(pt_list),
            np.concatenate(qt_list), np.concatenate(w_list))


def oracle_pair_interp_arrays(matched, dt):
    out = []
    for traj_p, traj_q in matched:
        if len(traj_q) < 2:
            continue
        q_t = traj_q.times
        s = traj_p.times - dt
        mask = (s >= q_t[0]) & (s <= q_t[-1])
        if mask.sum() < 2:
            continue
        q_raw, var_factor = oracle_interp_with_variance(s[mask], q_t, traj_q.xyz)
        out.append((traj_p.xyz[mask], q_raw, 1.0 / var_factor))
    return out


class OracleGeometry:
    def __init__(self, arrays):
        self.n_pairs = len(arrays)
        self.p = np.vstack([a[0] for a in arrays])
        self.q = np.vstack([a[1] for a in arrays])
        self.counts = np.array([len(a[0]) for a in arrays])
        self.starts = np.concatenate(([0], np.cumsum(self.counts)[:-1]))
        self.weights = np.concatenate([a[2] / len(a[2]) for a in arrays])
        self.slices = [slice(s, s + c) for s, c in zip(self.starts, self.counts)]

    def pair_means(self, sol):
        res = np.linalg.norm(self.p - (self.q @ sol.rotation.T + sol.translation), axis=1)
        return np.add.reduceat(res, self.starts) / self.counts

    def subset(self, active):
        idx = np.concatenate([np.arange(s.start, s.stop) for s in (self.slices[i] for i in active)])
        zeros = np.zeros(len(idx))
        return estimator.CorrespondenceSet(self.p[idx], self.q[idx], zeros, zeros, self.weights[idx])


def oracle_solve_at_offset(matched, dt, gate=pl._INLIER_GATE):
    """Returns (solution, inlier count, mean inlier residual, geometry) or None."""
    arrays = oracle_pair_interp_arrays(matched, dt)
    if len(arrays) < 2:
        return None
    geo = OracleGeometry(arrays)
    best = None
    for k in np.argsort(-geo.counts)[: pl._MAX_PROPOSALS]:
        try:
            solo = solve_spatial(geo.subset([int(k)]))
        except (DegenerateGeometry, TooFewPairs):
            continue
        means = geo.pair_means(solo)
        inliers = [i for i in range(geo.n_pairs) if means[i] <= gate]
        if len(inliers) < 2:
            continue
        key = (len(inliers), -float(np.mean(means[inliers])))
        if best is None or key > best[0]:
            best = (key, inliers)
    inliers = list(range(geo.n_pairs)) if best is None else best[1]
    sol = None
    for _ in range(3):
        try:
            sol = solve_spatial(geo.subset(inliers))
        except (DegenerateGeometry, TooFewPairs):
            return None
        means = geo.pair_means(sol)
        refit_gate = gate if best is not None else 3.0 * float(np.median(means[inliers])) + 1e-9
        new_inliers = [i for i in range(geo.n_pairs) if means[i] <= refit_gate]
        if len(new_inliers) < 2 or new_inliers == inliers:
            break
        inliers = new_inliers
    means = geo.pair_means(sol)
    supporters = means <= gate
    if not supporters.any():
        return None
    return sol, int(supporters.sum()), float(np.mean(means[supporters])), geo


def oracle_polish(c, matched, search_halfwidth, polish_rounds=12):
    """The polish loop with its earlier stop: an offset move under 1e-11 s,
    below the search's 1e-9 s resolution, so it rarely fires before the cap."""
    sol = solve_spatial(c)
    dt = estimate_time_offset_coarse(c)
    tracks = PairedTracks(matched)
    for _ in range(polish_rounds):
        dt_new = estimator.refine_time_offset(
            tracks, sol.rotation, sol.translation, dt, search_halfwidth
        )
        corr = estimator.interpolated_correspondences(
            tracks, sol.rotation, sol.translation, dt_new,
            residual_gate=max(3.0 * sol.rms_residual, 1e-9),
        )
        moved = abs(dt_new - dt)
        dt = dt_new
        if len(corr) >= 3:
            sol = solve_spatial(corr)
        if moved < 1e-11:
            break
    return Transform4D.from_matrix(sol.rotation, sol.translation, dt)


def oracle_full_objective(tracks, d):
    """The polish objective as every golden step evaluated it before the
    search froze segments: overlap mask, segment search and blend each time."""
    idx, _, q, var_factor = tracks.interpolate(d)
    if len(idx) == 0:
        return math.inf
    diff = tracks.p_xyz[idx] - q
    return float(np.sum(np.sum(diff * diff, axis=1) / var_factor)) / len(idx)


def oracle_golden_section(f, a, b, tol):
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - golden * (b - a)
    d = a + golden * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def oracle_refine_time_offset(matched, rotation, translation, coarse, halfwidth, tol=1e-9):
    tracks = PairedTracks(matched).mapped(rotation, translation)
    grid_step = min(0.5 * float(np.median(tracks.q_steps())), max(halfwidth, 1e-12))
    grid = np.arange(coarse - halfwidth, coarse + halfwidth + 0.5 * grid_step, grid_step)
    values = [oracle_full_objective(tracks, float(d)) for d in grid]
    if all(math.isinf(v) for v in values):
        raise InsufficientOverlap("no temporal overlap anywhere in the search window")
    best = int(np.argmin(values))
    lo = grid[max(0, best - 1)]
    hi = grid[min(len(grid) - 1, best + 1)]
    refined = oracle_golden_section(lambda d: oracle_full_objective(tracks, d),
                                    float(lo), float(hi), tol)
    return float(np.clip(refined, coarse - halfwidth, coarse + halfwidth))


def oracle_layout(matched, d):
    """Per P sample, pair by pair: both overlap tests at offset ``d`` and,
    inside the overlap, the Q segment from a per-pair search."""
    ge, le, seg = [], [], [np.empty(0, dtype=np.int64)]
    for tp, tq in matched:
        s = tp.times - d
        if len(tq) < 2:
            ge.append(np.zeros(len(s), dtype=bool))
            le.append(np.zeros(len(s), dtype=bool))
            continue
        g, l = s >= tq.times[0], s <= tq.times[-1]
        ge.append(g)
        le.append(l)
        seg.append(np.minimum(np.searchsorted(tq.times, s[g & l], side="right") - 1, len(tq) - 2))
    return np.concatenate(ge), np.concatenate(le), np.concatenate(seg)


def oracle_polish_states(c, matched, search_halfwidth, polish_rounds=12, stop=1e-8):
    """The polish loop without its cycle stop: the (solution, offset) every
    round ends in, the coarse start first."""
    sol = solve_spatial(c)
    states = [(sol, estimate_time_offset_coarse(c))]
    tracks = PairedTracks(matched)
    for _ in range(polish_rounds):
        dt = states[-1][1]
        dt_new = estimator.refine_time_offset(
            tracks, sol.rotation, sol.translation, dt, search_halfwidth
        )
        corr = estimator.interpolated_correspondences(
            tracks, sol.rotation, sol.translation, dt_new,
            residual_gate=max(3.0 * sol.rms_residual, 1e-9),
        )
        if len(corr) >= 3:
            sol = solve_spatial(corr)
        states.append((sol, dt_new))
        if abs(dt_new - dt) <= stop:
            break
    return states


def oracle_pooled_alignment(db_p, db_q, traj_pairs, tf):
    """Mean distance to the mapped Q track, interpolated on P's clock, pooled
    over every pair's samples inside its overlap."""
    total, count = 0.0, 0
    for ti, tj in traj_pairs:
        traj_p, traj_q = db_p.trajectories[ti], db_q.trajectories[tj]
        if len(traj_q) < 2:
            continue
        tq = traj_q.times + tf.time_offset
        q_xyz = tf.apply_points(traj_q.xyz)
        mask = (traj_p.times >= tq[0]) & (traj_p.times <= tq[-1])
        if not mask.any():
            continue
        interp, _ = oracle_interp_with_variance(traj_p.times[mask], tq, q_xyz)
        total += float(np.linalg.norm(traj_p.xyz[mask] - interp, axis=1).sum())
        count += int(mask.sum())
    return total / count if count else math.inf


def oracle_score_session(transform, db_p, db_q, match_radius=1.0):
    r_p, r_q = db_p.sensing_range, db_q.sensing_range

    def _stack(db):
        if db.n_positions == 0:
            return np.empty((0, 3)), np.empty(0)
        return np.vstack([t.xyz for t in db]), np.concatenate([t.times for t in db])

    p_xyz, p_t = _stack(db_p)
    q_xyz, q_t = _stack(db_q)
    q_in_p = transform.apply_points(q_xyz) if len(q_xyz) else q_xyz
    q_t_in_p = q_t + transform.time_offset
    n_po = 0
    p_overlap = np.zeros(len(p_xyz), dtype=bool)
    if len(p_xyz):
        p_overlap = (np.linalg.norm(p_xyz, axis=1) <= r_p) & (
            np.linalg.norm(p_xyz - transform.translation, axis=1) <= r_q
        )
        n_po += int(p_overlap.sum())
    if len(q_xyz):
        n_po += int(((np.linalg.norm(q_xyz, axis=1) <= r_q)
                     & (np.linalg.norm(q_in_p, axis=1) <= r_p)).sum())
    n_pp = 0
    if len(p_xyz) and len(q_xyz):
        order = np.argsort(q_t_in_p)
        qt_sorted, qx_sorted = q_t_in_p[order], q_in_p[order]
        half_frame = 0.5 * db_p.frame_period + 1e-9
        for i in np.nonzero(p_overlap)[0]:
            lo = np.searchsorted(qt_sorted, p_t[i] - half_frame, side="left")
            hi = np.searchsorted(qt_sorted, p_t[i] + half_frame, side="right")
            if hi > lo and np.any(
                np.linalg.norm(qx_sorted[lo:hi] - p_xyz[i], axis=1) <= match_radius
            ):
                n_pp += 1
    score = min(1.0, 2.0 * n_pp / n_po) if n_po > 0 else 0.0
    return score, n_pp, n_po


# ---------------------------------------------------------------------------
# a seeded reference-like scene, with the scan's and the polish's inputs


@pytest.fixture(scope="module")
def scene():
    cfg = default_scenario(n_vehicles=25, duration=45.0, noise_sigma=0.2,
                           time_offset=0.537, seed=7)
    db_p, db_q, truth = make_pair(cfg)
    votes, solves, scans = [], [], []
    vote, solve, scan = pl._vote_trajectory_pairs, estimator.solve, pl._offset_hypotheses

    def spy_vote(*a, **k):
        out = vote(*a, **k)
        if k.get("top_k") == 2:
            votes.append(out)
        return out

    def spy_solve(c, tracks, **k):
        solves.append((c, tracks.pairs, k["search_halfwidth"]))
        return solve(c, tracks, **k)

    def spy_scan(*a):
        scans.append(a)
        return scan(*a)

    with pytest.MonkeyPatch.context() as mp:
        record_stacks(mp)
        mp.setattr(pl, "_vote_trajectory_pairs", spy_vote)
        mp.setattr(estimator, "solve", spy_solve)
        mp.setattr(pl, "_offset_hypotheses", spy_scan)
        pl.calibrate(db_p, db_q)
    return {
        "db_p": db_p,
        "db_q": db_q,
        "truth": truth,
        "candidates": pl._matched_objects(db_p, db_q, votes[0]),
        "polish": solves[0],
        "scan": scans[0],  # the offset scan's inputs
    }


def linear(n, t0, speed=8.0, y=0.0, track="a"):
    t = np.arange(n) * 0.1
    pts = np.column_stack([speed * t + 0.3 * np.sin(t), np.full(n, y) + 0.2 * t * t, np.ones(n)])
    return make_trajectory(pts, track=track, t0=t0)


def offset_objective(tracks, d):
    """The polish objective at offset ``d`` as the offset search evaluates
    it, and the number of P samples inside the overlap there."""
    return estimator._OffsetSearch(tracks)(d), len(tracks.interpolate(d)[0])


def assert_same_correspondences(new, old):
    if old is None:
        assert len(new) == 0 and new.weights is None
        return
    for got, want in zip((new.p_xyz, new.q_xyz, new.p_times, new.q_times, new.weights), old):
        np.testing.assert_array_equal(got, want)


class TestObjectiveParity:
    def test_objective_over_offset_grid(self, scene):
        truth, matched = scene["truth"], scene["polish"][1]
        tracks = PairedTracks(matched).mapped(truth.matrix, truth.translation)
        pairs = oracle_pairs(matched, truth.matrix, truth.translation)
        grid = np.concatenate([np.linspace(-0.3, 0.3, 61) + truth.time_offset,
                               [truth.time_offset, 50.0]])
        for d in grid:
            got, n_got = offset_objective(tracks, float(d))
            want, n_want = oracle_offset_objective(pairs, float(d))
            assert n_got == n_want
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_scan_candidates_objective(self, scene):
        truth, matched = scene["truth"], scene["candidates"]
        tracks = PairedTracks(matched).mapped(truth.matrix, truth.translation)
        pairs = oracle_pairs(matched, truth.matrix, truth.translation)
        for d in np.linspace(-2.0, 3.0, 26):
            got, n_got = offset_objective(tracks, float(d))
            want, n_want = oracle_offset_objective(pairs, float(d))
            assert n_got == n_want
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestCorrespondenceParity:
    @pytest.mark.parametrize("gate", [0.5])
    def test_identical_arrays(self, scene, gate):
        truth, matched = scene["truth"], scene["polish"][1]
        tracks = PairedTracks(matched)
        for d in (truth.time_offset, truth.time_offset + 0.033, 0.0):
            new = interpolated_correspondences(
                tracks, truth.matrix, truth.translation, d, residual_gate=gate
            )
            old = oracle_interpolated_correspondences(
                matched, truth.matrix, truth.translation, d, residual_gate=gate
            )
            assert_same_correspondences(new, old)


def assert_matches_oracle(matched, offsets, gate, got):
    """``got`` (``_solve_at_offsets``' results at ``offsets``) against the
    per-offset oracle; returns how many offsets were solved."""
    assert len(got) == len(offsets)
    solved = 0
    for d, new in zip(offsets, got):
        old = oracle_solve_at_offset(matched, float(d), gate=gate)
        assert (new is None) == (old is None), d
        if old is None:
            continue
        solved += 1
        sol, n_in, mean = new
        old_sol, old_n, old_mean, geo = old
        assert n_in == old_n
        np.testing.assert_array_equal(geo.pair_means(sol) <= gate,
                                      geo.pair_means(old_sol) <= gate)
        np.testing.assert_allclose(sol.rotation, old_sol.rotation, rtol=0, atol=1e-9)
        np.testing.assert_allclose(sol.translation, old_sol.translation, rtol=0, atol=1e-9)
        assert sol.rms_residual == pytest.approx(old_sol.rms_residual, abs=1e-9)
        assert mean == pytest.approx(old_mean, abs=1e-9)
    return solved


def assert_bitwise_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a is None) == (b is None)
        if a is not None:
            assert a[1:] == b[1:]
            assert a[0].rotation.tobytes() == b[0].rotation.tobytes()
            assert a[0].translation.tobytes() == b[0].translation.tobytes()
            assert a[0].rms_residual == b[0].rms_residual


class TestScanParity:
    def test_inlier_sets_and_solutions(self, scene):
        truth, matched = scene["truth"], scene["candidates"]
        tracks = PairedTracks(matched)
        coarse_gate = pl._INLIER_GATE + 12.0 * 0.25
        offsets = np.concatenate([np.arange(-2.0, 3.01, 0.25),
                                  np.arange(-0.1, 0.11, 0.05) + truth.time_offset])
        solved_any = 0
        for gate in (pl._INLIER_GATE, coarse_gate):
            got = pl._solve_at_offsets(tracks, offsets, gate=gate)
            solved_any += assert_matches_oracle(matched, offsets, gate, got)
        assert solved_any > len(offsets)


class TestScanBlocks:
    """The batching itself: how offsets are split into blocks never changes
    a result, whatever the blocks mix."""

    def spy_blocks(self, monkeypatch):
        sizes = []
        block = pl._ScanBlock

        def spy(tracks, at, idx, s, n_off):
            sizes.append(n_off)
            return block(tracks, at, idx, s, n_off)

        monkeypatch.setattr(pl, "_ScanBlock", spy)
        return sizes

    def test_block_split_invariance(self, scene, monkeypatch):
        truth, matched = scene["truth"], scene["candidates"]
        full = PairedTracks(matched)
        offsets = np.concatenate([np.arange(-30.0, 30.0, 0.25),
                                  np.arange(-0.25, 0.26, 0.05) + truth.time_offset])
        wide = pl._INLIER_GATE + 3.0  # the coarse stage's gate, which it runs on thinned P
        for tracks, gate in ((full, pl._INLIER_GATE), (full, wide), (full.thinned(3), wide)):
            sizes = self.spy_blocks(monkeypatch)
            batched = pl._solve_at_offsets(tracks, offsets, gate=gate)
            assert max(sizes) > 1 and sum(sizes) == len(offsets)
            monkeypatch.setattr(pl, "_SCAN_BLOCK", 1)
            sizes = self.spy_blocks(monkeypatch)
            single = pl._solve_at_offsets(tracks, offsets, gate=gate)
            assert sizes == [1] * len(offsets)
            monkeypatch.undo()
            assert sum(r is not None for r in batched) > 20
            assert_bitwise_equal(batched, single)

    def test_block_mixes_dead_and_live_offsets(self, scene, monkeypatch):
        truth, matched = scene["truth"], scene["candidates"]
        tracks = PairedTracks(matched)

        def live_pairs(d):
            counts = np.bincount(tracks.p_pair[tracks.interpolate(d)[0]], minlength=tracks.n_pairs)
            return int(np.count_nonzero(counts >= 2))

        far = np.arange(20.0, 80.0, 0.5)
        one = next(float(d) for d in far if live_pairs(d) == 1)
        none = next(float(d) for d in far if live_pairs(d) == 0)
        live = truth.time_offset
        offsets = np.array([live - 0.1, none, live, one, live + 0.05, none, one, live + 0.1])
        monkeypatch.setattr(pl, "_SCAN_BLOCK", 1 << 16)  # all eight in one block
        sizes = self.spy_blocks(monkeypatch)
        got = pl._solve_at_offsets(tracks, offsets)
        assert sizes == [len(offsets)]
        assert all(got[k] is None for k in (1, 3, 5, 6))
        assert assert_matches_oracle(matched, offsets, pl._INLIER_GATE, got) == 4

    def test_tied_inlier_counts_break_on_the_mean(self):
        # two clusters of three curved pairs, each cluster agreeing on its own
        # transform: both proposals gather 3 inliers, the long noisy tracks
        # propose first, and the tighter cluster must still win
        rng = np.random.default_rng(11)

        def curve(n, phase, t0, noise, shift, track):
            t = np.arange(n) * 0.1
            xyz = np.column_stack([10.0 * np.cos(0.4 * t + phase), 10.0 * np.sin(0.4 * t + phase),
                                   np.ones(n)]) + shift
            return make_trajectory(xyz + rng.normal(0, noise, xyz.shape), track=track, t0=t0)

        matched = []
        for k, (n, noise, shift) in enumerate([(60, 0.3, 0.0)] * 3 + [(40, 0.02, 12.0)] * 3):
            phase = 1.3 * k
            matched.append((curve(n, phase, 0.5, noise, shift, f"p{k}"),
                            curve(n, phase, 0.0, 0.0, 0.0, f"q{k}")))
        tracks = PairedTracks(matched)
        got = pl._solve_at_offsets(tracks, [0.5])
        assert got[0][1] == 3
        np.testing.assert_allclose(got[0][0].translation, [12.0, 12.0, 12.0], atol=0.05)
        assert assert_matches_oracle(matched, [0.5], pl._INLIER_GATE, got) == 1

    def test_shape_poor_block_takes_median_gate(self, monkeypatch):
        # straight, constant-speed tracks: no pair can propose on its own
        def straight(n, t0, y, heading, track):
            t = np.arange(n) * 0.1
            xy = np.column_stack([np.cos(heading) * 8.0 * t, np.sin(heading) * 8.0 * t + y])
            return make_trajectory(np.column_stack([xy, np.ones(n)]), track=track, t0=t0)

        rng = np.random.default_rng(3)
        matched = []
        for k, heading in enumerate((0.0, 0.9, 2.1, -1.2, 0.4)):
            p = straight(50, 0.5, 6.0 * k, heading, f"p{k}")
            q = straight(50, 0.0, 6.0 * k, heading, f"q{k}")
            p = make_trajectory(p.xyz + rng.normal(0, 0.05, p.xyz.shape), track=f"p{k}", t0=0.5)
            matched.append((p, q))
        tracks = PairedTracks(matched)
        offsets = np.array([0.3, 0.45, 0.5, 0.55, 0.8])
        medians = []
        group_medians = pl._group_medians

        def spy(*a):
            out = group_medians(*a)
            medians.append(out)
            return out

        monkeypatch.setattr(pl, "_group_medians", spy)
        sizes = self.spy_blocks(monkeypatch)
        got = pl._solve_at_offsets(tracks, offsets)
        assert sizes == [len(offsets)]
        assert medians and all(np.isfinite(m).all() for m in medians)
        assert assert_matches_oracle(matched, offsets, pl._INLIER_GATE, got) == len(offsets)
        assert got[2][1] == len(matched)


class TestThinnedScan:
    """The coarse stage's P grid: about one sample per coarse step of each
    pair, from a stack that shares every Q array with the full one."""

    @pytest.mark.parametrize("frame_period,step", [
        (0.1, 3), (0.05, 5), (0.2, 2), (0.25, 1),
        # a rounding off 20 Hz and 4 Hz: a ratio a few ulps over an integer
        (0.05 * (1 - 1e-15), 5), (math.nextafter(0.25, 0.0), 1),
    ])
    def test_thinning_step(self, frame_period, step):
        assert pl._thinning_step(max(0.25, frame_period), frame_period) == step

    def test_thinned_stack(self, scene):
        matched = scene["candidates"]
        full = PairedTracks(matched)
        thin = full.thinned(3)
        for name in ("q_times", "_q_cols", "_q_key", "q_start", "q_stop"):
            assert getattr(thin, name) is getattr(full, name)
        assert thin.n_pairs == full.n_pairs and thin.p_cols.flags.c_contiguous
        starts = np.cumsum([0] + [len(tp) for tp, _ in matched])
        keep = np.concatenate([np.arange(a, b, 3) for a, b in zip(starts[:-1], starts[1:])])
        for k, (tp, _) in enumerate(matched):
            mine = thin.p_pair == k
            np.testing.assert_array_equal(thin.p_times[mine], tp.times[::3])
            np.testing.assert_array_equal(thin.p_cols[:, mine], tp.xyz[::3].T)
        # the kept samples interpolate as they do in the full stack
        for d in (scene["truth"].time_offset, 3.0, -12.5):
            idx, s, q, var = thin.interpolate(d)
            full_idx, full_s, full_q, full_var = full.interpolate(d)
            kept = np.isin(full_idx, keep)
            np.testing.assert_array_equal(keep[idx], full_idx[kept])
            for got, want in ((s, full_s), (q, full_q), (var, full_var)):
                np.testing.assert_array_equal(got, want[kept])

    def test_stream_equals_the_eager_scan(self, scene):
        tracks, raw_gaps, frame_period = scene["scan"]
        got = list(pl._offset_hypotheses(tracks, raw_gaps, frame_period))
        # the lazy fine stage ranks as the eager one on the same coarse scores
        thinned = tracks.thinned(pl._thinning_step(0.25, frame_period))
        want = oracle_offset_hypotheses(tracks, raw_gaps, frame_period, coarse_tracks=thinned)
        assert len(want) > 1
        assert_same_transforms(got, want)
        # thinning moves only the coarse scores, which pick the fine windows;
        # here it ranks a noise cell (two agreeing pairs) differently, so
        # only the hypothesis a session reads first is the full grid's
        assert_same_transforms(got[:1], oracle_offset_hypotheses(tracks, raw_gaps, frame_period)[:1])


class TestEdgeCases:
    def edge_pairs(self):
        return [
            (linear(40, 0.537, track="p0"), linear(40, 0.0, track="q0")),
            # Q track too short to interpolate
            (linear(30, 0.2, y=5.0, track="p1"), linear(1, 0.0, y=5.0, track="q1")),
            # no overlap at all
            (linear(20, 100.0, y=9.0, track="p2"), linear(20, 0.0, y=9.0, track="q2")),
            # P samples exactly at Q's first and last timestamps
            (linear(25, 0.0, y=-4.0, track="p3"), linear(25, 0.0, y=-4.0, track="q3")),
            # only one P sample inside Q's span at the scan offsets below
            (linear(10, 0.9, y=12.0, track="p4"), linear(10, 0.0, y=12.0, track="q4")),
        ]

    def test_objective_and_correspondences(self):
        matched = self.edge_pairs()
        rot = Transform4D.from_yaw_deg(30.0).matrix
        trans = np.array([1.0, -2.0, 0.5])
        tracks = PairedTracks(matched)
        pairs = oracle_pairs(matched, rot, trans)
        for d in (0.0, 0.537, 0.55, -0.3):
            got, n_got = offset_objective(tracks.mapped(rot, trans), d)
            want, n_want = oracle_offset_objective(pairs, d)
            assert n_got == n_want
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            for gate in (math.inf, 2.0):
                assert_same_correspondences(
                    interpolated_correspondences(tracks, rot, trans, d, residual_gate=gate),
                    oracle_interpolated_correspondences(matched, rot, trans, d, gate),
                )

    def test_endpoints_included_exactly(self):
        traj = linear(25, 0.0, track="p")
        corr = interpolated_correspondences(PairedTracks([(traj, linear(25, 0.0, track="q"))]),
                                            np.eye(3), np.zeros(3), 0.0, residual_gate=1e-9)
        assert len(corr) == 25
        np.testing.assert_array_equal(corr.q_xyz, traj.xyz)
        np.testing.assert_array_equal(corr.weights, np.full(25, 0.5))

    def test_short_and_disjoint_pairs_yield_nothing(self):
        matched = self.edge_pairs()[1:3]
        tracks = PairedTracks(matched)
        assert len(tracks.interpolate(0.2)[0]) == 0
        assert offset_objective(tracks, 0.2) == (math.inf, 0)
        assert len(interpolated_correspondences(tracks, np.eye(3), np.zeros(3), 0.2,
                                                residual_gate=math.inf)) == 0

    def test_scan_drops_pairs_with_one_sample_in_overlap(self):
        matched = self.edge_pairs()
        tracks = PairedTracks(matched)
        # shifted by its own last timestamp, p4 has exactly one sample (at 0.0)
        # inside q4's span [0, 0.9]
        d = float(matched[4][0].times[-1])
        idx = tracks.interpolate(d)[0]
        assert np.count_nonzero(tracks.p_pair[idx] == 4) == 1
        at, idx, s = tracks.overlap([d])
        block = pl._ScanBlock(tracks, at, idx, s, 1)
        old = OracleGeometry(oracle_pair_interp_arrays(matched, d))
        np.testing.assert_array_equal(block.counts, old.counts)
        offsets = [0.0, 0.537, d]
        for new, d in zip(pl._solve_at_offsets(tracks, offsets), offsets):
            ref = oracle_solve_at_offset(matched, d)
            assert (new is None) == (ref is None)
            if ref is not None:
                assert new[1] == ref[1]
                np.testing.assert_allclose(new[0].translation, ref[0].translation, atol=1e-9)

    def test_no_pairs(self):
        tracks = PairedTracks([])
        assert tracks.n_pairs == 0 and tracks.n_usable == 0
        assert offset_objective(tracks, 0.0) == (math.inf, 0)
        assert pl._solve_at_offsets(tracks, [0.0]) == [None]
        assert pl._solve_at_offsets(tracks, []) == []


class TestReassociateParity:
    def assert_same(self, db_p, db_q, traj_pairs, tf, gate, time_gate):
        return assert_same_association(db_p, db_q, traj_pairs, tf, gate, time_gate)

    def test_seeded_scene(self, scene):
        db_p, db_q, truth = scene["db_p"], scene["db_q"], scene["truth"]
        traj_pairs = pl._class_pairs(db_p, db_q)
        off = Transform4D(truth.rotation, truth.translation + 0.3, truth.time_offset - 0.04)
        for tf in (truth, off):
            for gate, time_gate in ((2.0, 0.06), (1.0, 0.05 + 1e-9), (0.3, 0.06)):
                rows = self.assert_same(db_p, db_q, traj_pairs, tf, gate, time_gate)
                assert len(rows) > 50

    def test_edge_cases(self):
        halfway_q = make_trajectory(
            np.column_stack([np.arange(8.0), np.full(8, 3.0), np.ones(8)]),
            track="q3", t0=0.0, dt=0.5)
        halfway_p = make_trajectory(
            np.column_stack([np.arange(7.0) + 0.5, np.full(7, 3.0), np.ones(7)]),
            track="p3", t0=0.25, dt=0.5)
        db_p = make_database([
            linear(30, 0.0, track="p0"),
            linear(30, 0.2, y=5.0, track="p1"),
            linear(20, 100.0, y=9.0, track="p2"),
            halfway_p,
        ], sensor_id="P")
        db_q = make_database([
            linear(30, 0.0, track="q0"),
            linear(1, 0.5, y=5.0, track="q1"),  # Q track with 1 sample
            linear(20, 0.0, y=9.0, track="q2"),  # no time overlap with p2
            halfway_q,  # P instants exactly halfway between Q samples
        ], sensor_id="Q")
        tf = Transform4D.identity()
        pairs = [(k, k) for k in range(4)] + [(0, 1), (3, 0)]
        rows = self.assert_same(db_p, db_q, pairs, tf, gate=1e9, time_gate=0.3)
        assert not np.any((rows[:, 0] == 2) & (rows[:, 2] == 2))
        assert np.count_nonzero((rows[:, 0] == 1) & (rows[:, 2] == 1)) >= 1
        # a tie in time goes to the earlier Q sample
        tie = rows[(rows[:, 0] == 3) & (rows[:, 2] == 3)]
        assert len(tie) == 7
        np.testing.assert_array_equal(tie[:, 3], tie[:, 1])
        self.assert_same(db_p, db_q, pairs, tf, gate=0.5, time_gate=0.3)

    def test_no_pairs(self, scene):
        db_p, db_q, truth = scene["db_p"], scene["db_q"], scene["truth"]
        rows = self.assert_same(db_p, db_q, [], truth, 1.0, 0.06)
        assert rows.shape == (0, 4)
        far = Transform4D(truth.rotation, truth.translation, truth.time_offset + 1e4)
        assert len(self.assert_same(db_p, db_q, pl._class_pairs(db_p, db_q), far,
                                    1.0, 0.06)) == 0


class TestVoteParity:
    def assert_same(self, pairs, scores):
        for top_k in (1, 2):
            for min_votes in (1, 2, 3):
                got = pl._vote_trajectory_pairs(pairs, scores, min_votes, top_k=top_k)
                want = oracle_vote_trajectory_pairs(pairs, scores, min_votes, top_k=top_k)
                assert got == want
                assert all(type(ti) is int and type(tj) is int for ti, tj in got)

    def test_seeded_scene(self, scene):
        db_p, db_q, truth = scene["db_p"], scene["db_q"], scene["truth"]
        corr, rows = pl._reassociate(db_p, db_q, pl._class_pairs(db_p, db_q), truth, 2.0, 0.06)
        residuals = np.linalg.norm(corr.p_xyz - truth.apply_points(corr.q_xyz), axis=1)
        assert len(rows) > 50
        self.assert_same(rows, residuals)
        # feature matches, rows and scores as calibrate()'s loose vote takes them
        raw = pl.motion_match(pl.extract_features(db_p), pl.extract_features(db_q))
        self.assert_same(pl._match_rows(raw), np.array([m.feature_distance for m in raw]))

    def test_tied_counts_and_means(self):
        #  tj 0: ti 3 and ti 1 both 2 votes, mean 0.5 -> the smaller ti first
        #  tj 1: ti 2 and ti 0 both 3 votes, ti 0 with the smaller mean
        #  tj 4: one vote for ti 5; rows out of order throughout
        table = [(3, 0, 0.5), (2, 1, 0.4), (1, 0, 0.25), (0, 1, 0.1), (5, 4, 0.9),
                 (2, 1, 0.4), (3, 0, 0.5), (0, 1, 0.2), (1, 0, 0.75), (2, 1, 0.4),
                 (0, 1, 0.3), (4, 0, 0.1)]
        pairs = np.array([(ti, 7, tj, 9) for ti, tj, _ in table], dtype=np.int64)
        scores = np.array([s for _, _, s in table])
        got = pl._vote_trajectory_pairs(pairs, scores, 2, top_k=2)
        assert got == [(1, 0), (3, 0), (0, 1), (2, 1)]
        self.assert_same(pairs, scores)
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, 4, size=(300, 4))
        self.assert_same(pairs, rng.integers(0, 3, size=300) * 0.25)

    def test_no_rows(self):
        self.assert_same(np.empty((0, 4), dtype=np.int64), np.empty(0))


class TestAlignmentParity:
    def test_pooled_mean(self, scene):
        db_p, db_q, truth = scene["db_p"], scene["db_q"], scene["truth"]
        traj_pairs = [(ti, tj) for ti in range(len(db_p.trajectories))
                      for tj in range(len(db_q.trajectories))][::7]
        tracks = PairedTracks(pl._matched_objects(db_p, db_q, traj_pairs))
        for tf in (truth, Transform4D(truth.rotation, truth.translation + 0.3,
                                      truth.time_offset - 0.04)):
            want = oracle_pooled_alignment(db_p, db_q, traj_pairs, tf)
            assert math.isfinite(want)
            assert pl._pooled_alignment(tracks, tf) == pytest.approx(want, rel=1e-9)
        far = Transform4D(truth.rotation, truth.translation, truth.time_offset + 1e4)
        assert pl._pooled_alignment(tracks, far) == math.inf
        assert pl._pooled_alignment(PairedTracks([]), truth) == math.inf


class TestPolishStop:
    def test_fewer_rounds_same_answer(self, scene, monkeypatch):
        c, matched, halfwidth = scene["polish"]
        rounds = []
        refine = estimator.refine_time_offset

        def counting(*a, **k):
            rounds.append(1)
            return refine(*a, **k)

        monkeypatch.setattr(estimator, "refine_time_offset", counting)
        got = estimator.solve(c, PairedTracks(matched), search_halfwidth=halfwidth)
        assert len(rounds) < 12
        want = oracle_polish(c, matched, halfwidth)
        assert abs(got.time_offset - want.time_offset) < 1e-8
        np.testing.assert_allclose(got.translation, want.translation, rtol=0, atol=1e-6)


def spy_freezes(monkeypatch):
    """Every bracket the offset search froze on: ``[lo, hi, frozen calls]``."""
    frozen = []
    freeze = estimator._OffsetSearch.freeze

    def spy(self, a, b):
        fixed = freeze(self, a, b)
        if fixed is None:
            return None
        entry = [a, b, 0]
        frozen.append(entry)

        def counted(d):
            entry[2] += 1
            return fixed(d)

        return counted

    monkeypatch.setattr(estimator._OffsetSearch, "freeze", spy)
    return frozen


def assert_search_parity(frozen, matched, rotation, translation, coarse, halfwidth, tol=1e-9):
    """``refine_time_offset`` bit for bit against the full-evaluation search;
    every bracket it froze on must have the same layout at both ends by a
    per-pair search. Returns the freezes."""
    want = oracle_refine_time_offset(matched, rotation, translation, coarse, halfwidth, tol)
    frozen.clear()
    got = estimator.refine_time_offset(PairedTracks(matched), rotation, translation, coarse,
                                       halfwidth, tol=tol)
    assert got == want
    for lo, hi, _ in frozen:
        for at_lo, at_hi in zip(oracle_layout(matched, lo), oracle_layout(matched, hi)):
            np.testing.assert_array_equal(at_lo, at_hi)
    return list(frozen)


def with_times(traj, times):
    return Trajectory.from_columns(traj.track_id, traj.class_label, traj.xyz, times,
                                   traj.frames, traj.bbox)


def sampled(motion, times, track, t_world=None):
    """A trajectory stamped ``times`` observing ``motion`` at ``t_world``
    (by default at ``times``)."""
    times = np.asarray(times, dtype=float)
    xyz = motion(times if t_world is None else np.asarray(t_world, dtype=float))
    return with_times(make_trajectory(xyz, track=track), times)


def inside(matched):
    """Each pair's P samples that stay inside its Q span over the offsets
    the search visits (about 0.3-0.8 s here): their overlap tests never
    change, so only the segments tell a bracket's ends apart."""
    out = []
    for tp, tq in matched:
        keep = (tq.times[0] + 1.0 <= tp.times) & (tp.times <= tq.times[-1])
        if keep.sum() >= 5:
            out.append((Trajectory.from_columns(tp.track_id, tp.class_label, tp.xyz[keep],
                                                tp.times[keep], tp.frames[keep], tp.bbox[keep]),
                        tq))
    return out


def circle(radius, rate, phase=0.0, centre=(0.0, 0.0)):
    def motion(t):
        a = rate * t + phase
        return np.column_stack([centre[0] + radius * np.cos(a), centre[1] + radius * np.sin(a),
                                np.ones(len(t))])
    return motion


class TestOffsetSearchParity:
    """The golden search evaluates on fixed segments once its bracket is
    knot-free; its result must be the full search's, bit for bit."""

    def polish_start(self, scene):
        c, matched, halfwidth = scene["polish"]
        sol = solve_spatial(c)
        return matched, sol.rotation, sol.translation, estimate_time_offset_coarse(c), halfwidth

    def test_off_grid_scene(self, scene, monkeypatch):
        frozen = spy_freezes(monkeypatch)
        matched, rot, trans, coarse, halfwidth = self.polish_start(scene)
        truth = scene["truth"]
        assert len(inside(matched)) > 10
        for pairs in (matched, inside(matched)):
            for args, tol in (((rot, trans, coarse, halfwidth), 1e-9),
                              ((rot, trans, coarse, halfwidth), 1e-7),
                              ((truth.matrix, truth.translation, truth.time_offset, 0.2), 1e-9)):
                freezes = assert_search_parity(frozen, pairs, *args, tol=tol)
                assert len(freezes) == 1 and freezes[0][2] > 10

    def test_jittered_q_times(self, scene, monkeypatch):
        frozen = spy_freezes(monkeypatch)
        matched, rot, trans, coarse, halfwidth = self.polish_start(scene)
        rng = np.random.default_rng(17)
        jittered = [(tp, with_times(tq, tq.times + rng.uniform(-0.01, 0.01, len(tq))))
                    for tp, tq in matched]
        for pairs in (jittered, inside(jittered)):
            freezes = assert_search_parity(frozen, pairs, rot, trans, coarse, halfwidth)
            assert len(freezes) == 1 and freezes[0][2] > 10

    @pytest.mark.parametrize("coarse, halfwidth", [(0.5, 0.2), (0.45, 0.05)])
    def test_knot_at_the_optimum_never_freezes(self, monkeypatch, coarse, halfwidth):
        # on the frame grid: at 0.5 s every P instant meets a Q sample, and
        # noiseless tracks put the minimum exactly there, so the bracket
        # keeps that knot inside or at its end. P stays inside Q's span, so
        # the overlap tests alone never tell the bracket's ends apart
        frozen = spy_freezes(monkeypatch)
        t = np.arange(60) * 0.1
        t_p = t[10:50]
        rot = Transform4D.from_yaw_deg(40.0).matrix
        matched, rotated = [], []
        for k in range(4):
            motion = circle(15.0 + 4 * k, 0.3, phase=k)
            p = sampled(motion, t_p, f"p{k}")
            matched.append((p, sampled(motion, t, f"q{k}", t_world=t + 0.5)))
            rotated.append((p, sampled(lambda w: motion(w) @ rot, t, f"q{k}", t_world=t + 0.5)))
        for pairs, r in ((matched, np.eye(3)), (rotated, rot)):
            assert assert_search_parity(frozen, pairs, r, np.zeros(3), coarse, halfwidth) == []
            out = estimator.refine_time_offset(PairedTracks(pairs), r, np.zeros(3), coarse,
                                               halfwidth)
            assert out == pytest.approx(0.5, abs=1e-8)

    def test_pair_entering_the_overlap_inside_the_bracket(self, monkeypatch):
        # Q clock lags the world by 0.537 s. Pair A's knots sit on multiples
        # of 0.1 s. Pair B's Q track is short and sampled 0.06 s off P's
        # phase: near 0.54 s one P instant enters its span as another leaves
        # it, and its segments shift with them, so only the overlap tests
        # tell the two sides of 0.54 s apart
        frozen = spy_freezes(monkeypatch)
        t = np.arange(60) * 0.1
        a, b = circle(20.0, 0.3), circle(12.0, -0.4, phase=1.0, centre=(5.0, -3.0))
        q_b = 0.06 + np.arange(10, 30) * 0.1
        matched = [(sampled(a, t, "pa"), sampled(a, t, "qa", t_world=t + 0.537)),
                   (sampled(b, t, "pb"), sampled(b, q_b, "qb", t_world=q_b + 0.537))]
        freezes = assert_search_parity(frozen, matched, np.eye(3), np.zeros(3), 0.54, 0.2)
        assert freezes and freezes[0][2] > 10
        lo, hi, _ = freezes[0]
        entering = t[:, None] - q_b[[0, -1]]
        assert not np.any((entering >= lo) & (entering <= hi))

    def test_no_overlap_at_all(self, scene, monkeypatch):
        # a pair that never overlaps rides along in the stack without
        # blocking the freeze; with no overlap anywhere, both searches raise
        frozen = spy_freezes(monkeypatch)
        matched, rot, trans, coarse, halfwidth = self.polish_start(scene)
        far = (linear(20, 500.0, track="p-far"), linear(20, 0.0, track="q-far"))
        for pairs in (matched, inside(matched)):
            freezes = assert_search_parity(frozen, [*pairs, far], rot, trans, coarse, halfwidth)
            assert len(freezes) == 1 and freezes[0][2] > 10
        frozen.clear()
        with pytest.raises(InsufficientOverlap, match="no temporal overlap"):
            estimator.refine_time_offset(PairedTracks([far]), np.eye(3), np.zeros(3), 0.0, 0.5)
        with pytest.raises(InsufficientOverlap, match="no temporal overlap"):
            oracle_refine_time_offset([far], np.eye(3), np.zeros(3), 0.0, 0.5)
        assert frozen == []


@pytest.fixture(scope="module", params=[0.0, 30.0], ids=["rot0", "rot30"])
def cycling_polish(request):
    """The polish inputs of criterion 3's seed-7 scene, whose offset sits on
    the frame grid."""
    cfg = default_scenario(n_vehicles=25, duration=45.0, noise_sigma=0.2, time_offset=0.5,
                           rotation_deg=request.param, seed=7)
    db_p, db_q, _ = make_pair(cfg)
    solves = []
    solve = estimator.solve

    def spy_solve(c, tracks, **k):
        solves.append((c, tracks.pairs, k["search_halfwidth"]))
        return solve(c, tracks, **k)

    with pytest.MonkeyPatch.context() as mp:
        record_stacks(mp)
        mp.setattr(estimator, "solve", spy_solve)
        pl.calibrate(db_p, db_q)
    return solves[0]


class TestPolishCycle:
    def test_two_cycle_stops_on_the_lower_objective(self, cycling_polish, monkeypatch):
        c, matched, halfwidth = cycling_polish
        states = oracle_polish_states(c, matched, halfwidth)
        offsets = [dt for _, dt in states]
        # without the stop, the polish alternates between two offsets ~2 ms
        # apart for all 12 rounds
        assert len(states) == 13
        assert abs(offsets[-1] - offsets[-2]) > 1e-3 and abs(offsets[-1] - offsets[-3]) < 1e-8
        k = next(k for k in range(3, 13) if abs(offsets[k] - offsets[k - 2]) <= 1e-8)

        def objective(state):
            sol, dt = state
            return oracle_offset_objective(oracle_pairs(matched, sol.rotation, sol.translation),
                                           dt)[0]

        before, last = objective(states[k - 1]), objective(states[k])
        assert abs(before - last) > 1e-6 * last
        sol, dt = states[k - 1] if before < last else states[k]
        rounds = []
        refine = estimator.refine_time_offset

        def counting(*a, **kw):
            rounds.append(1)
            return refine(*a, **kw)

        monkeypatch.setattr(estimator, "refine_time_offset", counting)
        got = estimator.solve(c, PairedTracks(matched), search_halfwidth=halfwidth)
        assert len(rounds) == k
        want = Transform4D.from_matrix(sol.rotation, sol.translation, dt)
        assert got.time_offset == want.time_offset
        assert got.rotation.tobytes() == want.rotation.tobytes()
        assert got.translation.tobytes() == want.translation.tobytes()


class TestScoreParity:
    def test_seeded_scene(self, scene):
        db_p, db_q, truth = scene["db_p"], scene["db_q"], scene["truth"]
        for tf in (truth, Transform4D(truth.rotation, truth.translation + 0.4,
                                      truth.time_offset + 0.03)):
            for radius in (1.0, 0.3):
                assert pl.score_session(tf, db_p, db_q, match_radius=radius) == \
                    oracle_score_session(tf, db_p, db_q, match_radius=radius)

    def test_garbage_transform(self, scene):
        db_p, db_q = scene["db_p"], scene["db_q"]
        tf = Transform4D.from_yaw_deg(97.0, (30.0, -40.0, 2.0), 3.3)
        got = pl.score_session(tf, db_p, db_q)
        assert got == oracle_score_session(tf, db_p, db_q)

    def test_empty_databases(self, scene):
        empty = make_database([], sensor_id="E")
        db_p, truth = scene["db_p"], scene["truth"]
        for a, b in ((empty, empty), (db_p, empty), (empty, db_p)):
            assert pl.score_session(truth, a, b) == oracle_score_session(truth, a, b)


class TestNoViableHypothesis:
    def test_collapse_is_not_reported_as_too_few_matches(self, scene, monkeypatch):
        monkeypatch.setattr(pl, "_run_hypothesis", lambda *a, **k: None)
        with pytest.raises(NoViableHypothesis) as info:
            pl.calibrate(scene["db_p"], scene["db_q"])
        err = info.value
        assert isinstance(err, CalibrationError)
        assert not isinstance(err, NoCandidateMatches)
        assert err.hypotheses_tried >= 1
        assert err.filtered_count >= 3 and err.raw_count >= err.filtered_count
        msg = str(err)
        assert f"all {err.hypotheses_tried} initial hypotheses collapsed" in msg
        assert f"{err.filtered_count} matches survived filtering" in msg
        assert f"({err.raw_count} raw candidates)" in msg
        assert "need at least 3" not in msg

    def test_cli_exits_two(self, tmp_path, monkeypatch):
        from click.testing import CliRunner

        from trajcal.cli import main

        runner = CliRunner()
        out = tmp_path / "scene"
        args = ["simulate", "--out", str(out), "--vehicles", "10", "--duration", "25",
                "--seed", "3"]
        assert runner.invoke(main, args).exit_code == 0
        monkeypatch.setattr(pl, "_run_hypothesis", lambda *a, **k: None)
        result = runner.invoke(
            main,
            ["calibrate", "--input-p", str(out / "dbP.jsonl"),
             "--input-q", str(out / "dbQ.jsonl")],
        )
        assert result.exit_code == 2
        assert "collapsed" in result.output and "raw=" in result.output
