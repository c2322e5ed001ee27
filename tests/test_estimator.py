"""Rigid solve and time-offset estimation."""

import math

import numpy as np
import pytest

from trajcal.errors import DegenerateGeometry, InsufficientOverlap, TooFewPairs
from trajcal.estimator import (
    CorrespondenceSet,
    estimate_time_offset_coarse,
    golden_section,
    interpolated_correspondences,
    refine_time_offset,
    solve,
    solve_spatial,
)
from trajcal.model import Transform4D

from conftest import make_trajectory, random_transform


def corr_from_points(p_xyz, q_xyz, p_t=None, q_t=None, weights=None):
    n = len(p_xyz)
    return CorrespondenceSet(
        np.asarray(p_xyz, float),
        np.asarray(q_xyz, float),
        np.zeros(n) if p_t is None else np.asarray(p_t, float),
        np.zeros(n) if q_t is None else np.asarray(q_t, float),
        weights,
    )


def random_cloud(rng, n=50, planar=False):
    pts = rng.uniform(-30, 30, size=(n, 3))
    if planar:
        pts[:, 2] = 1.0
    return pts


class TestSolveSpatial:
    def test_exact_copy_gives_identity(self, rng):
        p = random_cloud(rng)
        sol = solve_spatial(corr_from_points(p, p))
        np.testing.assert_allclose(sol.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(sol.translation, 0.0, atol=1e-12)
        assert sol.rms_residual == pytest.approx(0.0, abs=1e-12)

    def test_recovers_constructed_transform(self, rng):
        q = random_cloud(rng)
        tf = Transform4D.from_yaw_deg(90.0, (10.0, 0.0, 0.0))
        p = tf.apply_points(q)
        sol = solve_spatial(corr_from_points(p, q))
        np.testing.assert_allclose(sol.rotation, tf.matrix, atol=1e-9)
        np.testing.assert_allclose(sol.translation, tf.translation, atol=1e-9)
        assert sol.rms_residual < 1e-9

    def test_beats_yaw_grid_oracle(self, rng):
        # brute force: yaw grid at 0.1 deg with the optimal translation per
        # yaw, compared on the least-squares objective
        for trial in range(3):
            q = random_cloud(rng, n=50, planar=True)
            true_tf = Transform4D.from_yaw_deg(float(rng.uniform(0, 360)), rng.uniform(-20, 20, 3))
            p = true_tf.apply_points(q) + rng.normal(0, 0.2, size=(50, 3))
            sol = solve_spatial(corr_from_points(p, q))
            obj_solver = float(np.sum((p - (q @ sol.rotation.T + sol.translation)) ** 2))

            p0 = p - p.mean(axis=0)
            q0 = q - q.mean(axis=0)
            yaws = np.radians(np.arange(0.0, 360.0, 0.1))
            # closed-form objective per yaw via the planar cross-covariance
            m = q0.T @ p0
            base = float(np.sum(p0**2) + np.sum(q0**2))
            tr = (m[0, 0] + m[1, 1]) * np.cos(yaws) - (m[1, 0] - m[0, 1]) * np.sin(yaws) + m[2, 2]
            grid_best = float(np.min(base - 2.0 * tr))
            assert obj_solver <= grid_best + 1e-9

    def test_orthonormal_under_noise(self, rng):
        q = random_cloud(rng)
        p = Transform4D.from_yaw_deg(37.0).apply_points(q) + rng.normal(0, 1.0, size=q.shape)
        sol = solve_spatial(corr_from_points(p, q))
        np.testing.assert_allclose(sol.rotation.T @ sol.rotation, np.eye(3), atol=1e-9)
        assert np.linalg.det(sol.rotation) == pytest.approx(1.0, abs=1e-9)

    def test_equivariance(self, rng):
        q = random_cloud(rng)
        tf = random_transform(rng)
        p = tf.apply_points(q)
        pre = random_transform(rng)
        q_pre = pre.apply_points(q)
        sol = solve_spatial(corr_from_points(p, q_pre))
        # solving against pre-rotated Q must recover tf composed with pre^-1
        expected = tf.compose(pre.inverse())
        np.testing.assert_allclose(sol.rotation, expected.matrix, atol=1e-9)
        np.testing.assert_allclose(sol.translation, expected.translation, atol=1e-7)

    def test_weighted_solve_downweights_outlier(self, rng):
        q = random_cloud(rng)
        tf = Transform4D.from_yaw_deg(10.0, (1.0, 2.0, 0.0))
        p = tf.apply_points(q)
        p[0] += 100.0  # gross outlier
        w = np.ones(len(p))
        w[0] = 1e-12
        sol = solve_spatial(corr_from_points(p, q, weights=w))
        np.testing.assert_allclose(sol.rotation, tf.matrix, atol=1e-6)

    def test_too_few_pairs(self, rng):
        p = random_cloud(rng, n=2)
        with pytest.raises(TooFewPairs):
            solve_spatial(corr_from_points(p, p))

    def test_collinear_degenerate(self):
        line = np.outer(np.arange(10.0), [1.0, 0.0, 0.0])
        with pytest.raises(DegenerateGeometry):
            solve_spatial(corr_from_points(line, line))

    def test_planar_is_not_degenerate(self, rng):
        # traffic scenes are nearly planar; only collinearity is fatal
        p = random_cloud(rng, planar=True)
        sol = solve_spatial(corr_from_points(p, p))
        np.testing.assert_allclose(sol.rotation, np.eye(3), atol=1e-9)


class TestCoarseOffset:
    def test_constant_offset(self, rng):
        p = random_cloud(rng, n=10)
        t_q = rng.uniform(0, 50, size=10)
        c = corr_from_points(p, p, p_t=t_q + 0.5, q_t=t_q)
        assert estimate_time_offset_coarse(c) == pytest.approx(0.5)

    def test_median_rejects_outlier(self):
        p = np.zeros((4, 3))
        c = corr_from_points(p, p, p_t=[0.5, 0.5, 0.5, 7.0], q_t=[0.0, 0.0, 0.0, 0.0])
        assert estimate_time_offset_coarse(c) == pytest.approx(0.5)

    def test_weighted_median(self):
        p = np.zeros((3, 3))
        c = corr_from_points(
            p, p, p_t=[1.0, 2.0, 3.0], q_t=[0.0, 0.0, 0.0], weights=np.array([1.0, 1.0, 10.0])
        )
        assert estimate_time_offset_coarse(c) == pytest.approx(3.0)

    def test_empty_rejected(self):
        c = corr_from_points(np.empty((0, 3)), np.empty((0, 3)))
        with pytest.raises(TooFewPairs):
            estimate_time_offset_coarse(c)


class TestGoldenSection:
    def test_quadratic(self):
        assert golden_section(lambda x: (x - 1.3) ** 2, -5, 5, tol=1e-9) == pytest.approx(
            1.3, abs=1e-8
        )

    def test_cosine(self):
        assert golden_section(math.cos, 0, 2 * math.pi, tol=1e-9) == pytest.approx(
            math.pi, abs=1e-7
        )

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_non_positive_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            golden_section(lambda x: (x - 1.3) ** 2, -5, 5, tol=tol)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            golden_section(lambda x: (x - 1.3) ** 2, -5, 5, tol=tol)

    def test_tol_below_float_spacing_stops_when_bracket_stops_shrinking(self):
        calls = []

        def f(x):
            calls.append(x)
            return (x - 1.3) ** 2

        assert golden_section(f, -5, 5, tol=1e-17) == pytest.approx(1.3, abs=1e-8)
        assert len(calls) < 200


def linear_pair(offset, n=60, speed=7.0, dt=0.1, noise=0.0, rng=None, curved=False):
    """P and Q observe the same motion; Q's clock lags P's by ``offset``."""
    t_world = np.arange(n) * dt
    if curved:
        ang = 0.25 * t_world
        xyz = np.column_stack([30 * np.cos(ang), 30 * np.sin(ang), np.ones(n)])
    else:
        xyz = np.column_stack([speed * t_world, np.zeros(n), np.ones(n)])
    if noise and rng is not None:
        p_xyz = xyz + rng.normal(0, noise, xyz.shape)
        q_xyz = xyz + rng.normal(0, noise, xyz.shape)
    else:
        p_xyz, q_xyz = xyz, xyz
    traj_p = make_trajectory(p_xyz, track="p", t0=offset, dt=dt)
    traj_q = make_trajectory(q_xyz, track="q", t0=0.0, dt=dt)
    return traj_p, traj_q


class TestRefineOffset:
    def test_noiseless_linear_motion_exact(self):
        # P timestamps sit exactly 0.537 s above Q's for the same motion;
        # linear interpolation is exact on a straight constant-speed track
        traj_p, traj_q = linear_pair(0.537)
        out = refine_time_offset([(traj_p, traj_q)], np.eye(3), np.zeros(3), 0.5, 0.2)
        assert out == pytest.approx(0.537, abs=1e-4)

    def test_zero_offset(self):
        traj_p, traj_q = linear_pair(0.0)
        out = refine_time_offset([(traj_p, traj_q)], np.eye(3), np.zeros(3), 0.0, 0.2)
        assert out == pytest.approx(0.0, abs=1e-4)

    def test_noisy_curved_within_10ms(self, rng):
        pairs = []
        for k in range(6):
            traj_p, traj_q = linear_pair(1.25, n=80, noise=0.05, rng=rng, curved=(k % 2 == 0))
            pairs.append((traj_p, traj_q))
        out = refine_time_offset(pairs, np.eye(3), np.zeros(3), 1.2, 0.2)
        assert out == pytest.approx(1.25, abs=0.010)

    def test_result_within_halfwidth(self):
        traj_p, traj_q = linear_pair(0.537)
        out = refine_time_offset([(traj_p, traj_q)], np.eye(3), np.zeros(3), 0.4, 0.05)
        assert 0.35 - 1e-12 <= out <= 0.45 + 1e-12

    def test_no_overlap_raises(self):
        traj_p, traj_q = linear_pair(500.0, n=20)
        with pytest.raises(InsufficientOverlap):
            refine_time_offset([(traj_p, traj_q)], np.eye(3), np.zeros(3), 0.0, 0.5)

    @pytest.mark.parametrize("coarse, halfwidth, tol, name", [
        (0.5, -0.2, 1e-9, "search_halfwidth"),
        (0.5, math.nan, 1e-9, "search_halfwidth"),
        (0.5, math.inf, 1e-9, "search_halfwidth"),
        (math.nan, 0.2, 1e-9, "coarse"),
        (0.5, 0.2, 0.0, "tol"),
        (0.5, 0.2, math.nan, "tol"),
    ])
    def test_bad_argument_is_named(self, coarse, halfwidth, tol, name):
        traj_p, traj_q = linear_pair(0.537)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            refine_time_offset([(traj_p, traj_q)], np.eye(3), np.zeros(3), coarse, halfwidth,
                               tol=tol)

    def test_tol_checked_before_overlap(self):
        traj_p, traj_q = linear_pair(500.0, n=20)
        with pytest.raises(ValueError, match="^tol must be finite"):
            refine_time_offset([(traj_p, traj_q)], np.eye(3), np.zeros(3), 0.0, 0.5, tol=-1.0)


class TestFullSolve:
    @pytest.mark.parametrize("halfwidth", [-0.2, math.nan, math.inf])
    def test_bad_search_halfwidth_is_named(self, halfwidth):
        traj_p, traj_q = linear_pair(0.537, curved=True)
        c = corr_from_points(traj_p.xyz, traj_q.xyz, traj_p.times, traj_q.times)
        with pytest.raises(ValueError, match="^search_halfwidth must be finite"):
            solve(c, [(traj_p, traj_q)], search_halfwidth=halfwidth)

    def test_exact_correspondences_recover_ground_truth(self, rng):
        truth = Transform4D.from_yaw_deg(63.0, (12.0, -7.0, 0.4), 0.8)
        pairs = []
        p_list, q_list, pt_list, qt_list = [], [], [], []
        for k in range(4):
            t_world = np.arange(50) * 0.1
            ang = 0.2 * t_world + k
            q_xyz = np.column_stack(
                [(20 + 5 * k) * np.cos(ang), (20 + 5 * k) * np.sin(ang), np.full(50, 1.0)]
            )
            q_t = t_world
            p_xyz = truth.apply_points(q_xyz)
            p_t = q_t + truth.time_offset
            traj_q = make_trajectory(q_xyz, track=f"q{k}", t0=0.0)
            traj_p = make_trajectory(p_xyz, track=f"p{k}", t0=truth.time_offset)
            pairs.append((traj_p, traj_q))
            p_list.append(p_xyz)
            q_list.append(q_xyz)
            pt_list.append(p_t)
            qt_list.append(q_t)
        c = CorrespondenceSet(
            np.vstack(p_list), np.vstack(q_list), np.concatenate(pt_list), np.concatenate(qt_list)
        )
        tf = solve(c, pairs)
        assert np.max(np.abs(tf.matrix - truth.matrix)) < 1e-8
        assert np.max(np.abs(tf.translation - truth.translation)) < 1e-6
        assert abs(tf.time_offset - truth.time_offset) < 1e-4

    def test_noise_bound(self, rng):
        # residual translation error stays within 3 sigma of the averaged noise
        truth = Transform4D.from_yaw_deg(20.0, (5.0, 5.0, 0.0), 0.0)
        n = 600
        sigma = 0.2
        q = random_cloud(rng, n=n)
        p = truth.apply_points(q) + rng.normal(0, sigma, size=(n, 3))
        tf = solve(corr_from_points(p, q), ())
        err = np.linalg.norm(tf.translation - truth.translation)
        assert err < 3.0 * sigma * math.sqrt(3.0 / n)

    def test_paper_regime_accuracy(self, rng):
        # 500 matched pairs with 0.2 m noise: centimeter translation, sub-degree rotation
        truth = Transform4D.from_yaw_deg(141.0, (20.0, -9.0, 0.5), 0.0)
        q = random_cloud(rng, n=500)
        p = truth.apply_points(q) + rng.normal(0, 0.2, size=(500, 3))
        tf = solve(corr_from_points(p, q), ())
        from trajcal.evaluation import rre, rte

        assert rte(tf.translation, truth.translation) < 0.05
        assert rre(tf.matrix, truth.matrix) < 3.0


class TestInterpolatedCorrespondences:
    def test_linear_interpolation_is_exact_on_lines(self):
        traj_p, traj_q = linear_pair(0.537)
        corr = interpolated_correspondences([(traj_p, traj_q)], np.eye(3), np.zeros(3), 0.537)
        assert len(corr) > 0
        np.testing.assert_allclose(corr.p_xyz, corr.q_xyz, atol=1e-9)

    def test_residual_gate_drops_everything_far(self):
        traj_p, traj_q = linear_pair(0.0)
        shifted = np.eye(3)
        corr = interpolated_correspondences(
            [(traj_p, traj_q)], shifted, np.array([100.0, 0, 0]), 0.0, residual_gate=1.0
        )
        assert len(corr) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CorrespondenceSet(np.zeros((3, 3)), np.zeros((2, 3)), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            CorrespondenceSet(
                np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2), np.zeros(2),
                weights=np.array([-1.0, 1.0]),
            )
