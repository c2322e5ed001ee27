"""Recovery metrics and the sweep harness."""

import csv
import math

import numpy as np
import pytest

from trajcal import evaluation
from trajcal.evaluation import (
    euler_zyx_deg,
    make_report,
    rte,
    run_sweep,
    summarize,
    toe,
    write_summary_csv,
    write_sweep_csv,
)
from trajcal.model import Transform4D, quat_from_axis_angle

from conftest import random_transform


def rre(estimated: Transform4D, truth: Transform4D) -> float:
    return make_report(estimated, truth).rre_deg


class TestRRE:
    def test_equal_rotations_zero(self, rng):
        tf = random_transform(rng)
        assert rre(tf, tf) == pytest.approx(0.0, abs=1e-9)

    def test_single_axis_yaw(self):
        est = Transform4D.from_yaw_deg(1.0)
        assert rre(est, Transform4D.identity()) == pytest.approx(1.0, abs=1e-9)

    def test_axis_angle_lower_bound_oracle(self, rng):
        # the sum of absolute Euler angles can never undercut the total
        # rotation angle (bi-invariant metric triangle inequality)
        for _ in range(50):
            a, b = random_transform(rng), random_transform(rng)
            residual = b.matrix.T @ a.matrix
            angle = math.degrees(
                math.acos(np.clip((np.trace(residual) - 1.0) / 2.0, -1.0, 1.0))
            )
            assert rre(a, b) >= angle - 1e-6

    def test_invariant_under_common_left_multiplication(self, rng):
        # re-expressing both rotations in another common frame leaves the
        # residual rotation itself unchanged (left factors cancel inside
        # R_T^-1 R_E); a common right factor would conjugate the residual and
        # scramble its Euler split instead
        a, b, c = random_transform(rng), random_transform(rng), random_transform(rng)
        before = rre(a, b)
        after = rre(c.compose(a), c.compose(b))
        assert after == pytest.approx(before, abs=1e-8)

    def test_right_multiplication_preserves_zero(self, rng):
        # the weaker direction that does hold: equality of rotations (hence
        # zero error) survives any common right factor
        a, c = random_transform(rng), random_transform(rng)
        assert rre(a.compose(c), a.compose(c)) == pytest.approx(0.0, abs=1e-9)

    def test_euler_matches_scipy(self, rng):
        from scipy.spatial.transform import Rotation

        for _ in range(30):
            m = random_transform(rng).matrix
            got = euler_zyx_deg(m)  # returned as (x, y, z)
            zyx = Rotation.from_matrix(m).as_euler("ZYX", degrees=True)
            np.testing.assert_allclose(got, zyx[::-1], atol=1e-9)

    def test_gimbal_lock_still_zero_iff_equal(self):
        q = quat_from_axis_angle((0, 1, 0), math.pi / 2)
        tf = Transform4D(q, np.zeros(3), 0.0)
        assert rre(tf, tf) == pytest.approx(0.0, abs=1e-6)

    @staticmethod
    def _rebuild(angles_deg):
        x, y, z = np.radians(angles_deg)
        rz = np.array(
            [[math.cos(z), -math.sin(z), 0], [math.sin(z), math.cos(z), 0], [0, 0, 1]]
        )
        ry = np.array(
            [[math.cos(y), 0, math.sin(y)], [0, 1, 0], [-math.sin(y), 0, math.cos(y)]]
        )
        rx = np.array(
            [[1, 0, 0], [0, math.cos(x), -math.sin(x)], [0, math.sin(x), math.cos(x)]]
        )
        return rz @ ry @ rx

    def test_euler_angles_reconstruct_rotation(self, rng):
        # the decomposition must compose back to the input, including at and
        # near gimbal lock where the split is non-unique
        from trajcal.model import quat_multiply, quat_to_matrix

        cases = [random_transform(rng).matrix for _ in range(20)]
        for pitch in (math.pi / 2, -math.pi / 2, math.pi / 2 - 1e-9):
            qz = quat_from_axis_angle((0, 0, 1), 0.6)
            qy = quat_from_axis_angle((0, 1, 0), pitch)
            cases.append(quat_to_matrix(quat_multiply(qz, qy)))
        for m in cases:
            angles = euler_zyx_deg(m)
            np.testing.assert_allclose(self._rebuild(angles), m, atol=1e-7)


class TestRTEAndTOE:
    def test_equal_is_zero(self):
        assert rte((1, 2, 3), (1, 2, 3)) == 0.0

    def test_three_four_five(self):
        assert rte((0.0, 0.0, 0.0), (3.0, 4.0, 0.0)) == pytest.approx(5.0)

    def test_random_vs_hand_norm(self, rng):
        a = rng.uniform(-10, 10, 3)
        b = rng.uniform(-10, 10, 3)
        expected = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
        assert rte(a, b) == pytest.approx(expected, rel=1e-12)

    def test_toe(self):
        assert toe(0.5, 0.5) == 0.0
        assert toe(0.498, 0.5) == pytest.approx(0.002)
        assert toe(-1.0, 2.0) == pytest.approx(3.0)


class TestSuccess:
    @staticmethod
    def success(rte_m, yaw_deg, **thresholds):
        """``make_report``'s verdict on an estimate ``rte_m`` meters and
        ``yaw_deg`` degrees of yaw off the identity."""
        estimated = Transform4D.from_yaw_deg(yaw_deg, (rte_m, 0.0, 0.0))
        return make_report(estimated, Transform4D.identity(), **thresholds).success

    def test_paper_regime_is_success(self):
        assert self.success(0.03, 0.1)

    def test_gross_failure(self):
        assert not self.success(35.69, 183.9)

    def test_boundaries(self):
        assert self.success(0.99, 4.9)
        assert not self.success(1.01, 4.9)
        assert not self.success(0.99, 5.1)

    def test_custom_thresholds(self):
        assert self.success(1.5, 0.1, rte_threshold=2.0)


class TestMakeReport:
    def test_zero_when_equal(self, rng):
        tf = random_transform(rng)
        report = make_report(tf, tf)
        assert report.rre_deg == pytest.approx(0.0, abs=1e-9)
        assert report.rte_m == pytest.approx(0.0, abs=1e-12)
        assert report.toe_s == 0.0
        assert report.success

    def test_per_axis_errors(self):
        truth = Transform4D.identity()
        est = Transform4D.from_yaw_deg(2.0, (1.0, 0.0, 0.5), 0.1)
        report = make_report(est, truth)
        assert report.rotation_errors_deg[2] == pytest.approx(2.0, abs=1e-9)
        assert report.translation_errors_m[0] == pytest.approx(1.0)
        assert report.translation_errors_m[2] == pytest.approx(0.5)
        assert report.toe_s == pytest.approx(0.1)

    def test_to_dict_columns(self, rng):
        d = make_report(random_transform(rng), random_transform(rng)).to_dict()
        assert set(d) == {
            "rre_deg", "rte_m", "toe_s", "success",
            "rot_err_x_deg", "rot_err_y_deg", "rot_err_z_deg",
            "trans_err_x_m", "trans_err_y_m", "trans_err_z_m",
        }


@pytest.fixture(scope="module")
def small_sweep():
    return run_sweep(
        "noise", [0.0, 0.1], [0, 1],
        scenario_kwargs=dict(n_vehicles=10, duration=20.0),
    )


class TestSweep:
    def test_shape(self, small_sweep):
        assert len(small_sweep) == 4
        assert [r.axis_value for r in small_sweep] == [0.0, 0.0, 0.1, 0.1]

    def test_deterministic(self, small_sweep):
        again = run_sweep(
            "noise", [0.0, 0.1], [0, 1],
            scenario_kwargs=dict(n_vehicles=10, duration=20.0),
        )
        assert again == small_sweep

    def test_summary(self, small_sweep):
        summaries = summarize(small_sweep)
        assert [s.axis_value for s in summaries] == [0.0, 0.1]
        assert all(s.n_seeds == 2 for s in summaries)
        noiseless = summaries[0]
        assert noiseless.median_rte_m < 1e-6
        assert noiseless.success_rate == 1.0

    def test_csv_round_trip(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_sweep, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "axis_value", "seed", "rre_deg", "rte_m", "toe_s", "success", "score", "iterations"
        ]
        assert len(rows) == 5
        summary_path = tmp_path / "summary.csv"
        write_summary_csv(summarize(small_sweep), summary_path)
        with open(summary_path) as fh:
            srows = list(csv.reader(fh))
        assert srows[0] == [
            "axis_value", "n_seeds", "median_rre_deg", "median_rte_m",
            "median_toe_s", "success_rate",
        ]

    def test_csv_bytes(self, tmp_path):
        rows = [
            evaluation.SweepRow(0.1, 3, 0.25, 1e-07, 0.0015, True, 0.9612345678901234, 4),
            evaluation.SweepRow(0.2, 4, math.nan, math.nan, math.nan, False, 0.0, 0),
        ]
        write_sweep_csv(rows, tmp_path / "sweep.csv")
        assert (tmp_path / "sweep.csv").read_bytes() == (
            b"axis_value,seed,rre_deg,rte_m,toe_s,success,score,iterations\r\n"
            b"0.1,3,0.25,1e-07,0.0015,1,0.9612345678901234,4\r\n"
            b"0.2,4,nan,nan,nan,0,0.0,0\r\n")
        write_summary_csv(summarize(rows), tmp_path / "summary.csv")
        assert (tmp_path / "summary.csv").read_bytes() == (
            b"axis_value,n_seeds,median_rre_deg,median_rte_m,median_toe_s,success_rate\r\n"
            b"0.1,1,0.25,1e-07,0.0015,1.0\r\n"
            b"0.2,1,nan,nan,nan,0.0\r\n")

    def test_failed_cell_recorded_not_raised(self):
        # zero vehicles cannot calibrate; the sweep must keep going
        rows = run_sweep(
            "n_vehicles", [0, 6], [0],
            scenario_kwargs=dict(duration=20.0),
        )
        assert len(rows) == 2
        assert rows[0].success is False and math.isnan(rows[0].rte_m)
        assert rows[1].success is True

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            run_sweep("beam_count", [1], [0])

    @pytest.mark.parametrize("values", [[0], [0.5], [2, -1], [float("nan")]])
    def test_passes_must_be_positive_integers(self, values, monkeypatch):
        def no_cell(*a, **k):
            raise AssertionError("a cell ran before the values were checked")

        monkeypatch.setattr(evaluation, "_run_cell", no_cell)
        with pytest.raises(ValueError, match="passes must be positive integers"):
            run_sweep("passes", values, [0])

    @pytest.mark.parametrize("values", [[6.7], [6, -1], [float("nan")], [float("inf")]])
    def test_n_vehicles_must_be_non_negative_integers(self, values, monkeypatch):
        # int() would run 6 vehicles and record 6.7 as the axis value
        def no_cell(*a, **k):
            raise AssertionError("a cell ran before the values were checked")

        monkeypatch.setattr(evaluation, "_run_cell", no_cell)
        with pytest.raises(ValueError, match="n_vehicles must be non-negative integers"):
            run_sweep("n_vehicles", values, [0])

    def test_non_finite_rotation_is_named(self):
        with pytest.raises(ValueError, match="^rotation_deg must be finite, got inf$"):
            run_sweep("rotation", [float("inf")], [0])

    def test_passes_axis_runs(self):
        rows = run_sweep(
            "passes", [1, 2], [3],
            scenario_kwargs=dict(n_vehicles=8, duration=15.0, noise_sigma=0.2),
        )
        assert len(rows) == 2
        assert all(r.success for r in rows)
