"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line on success (run with ``pytest -s`` to see
them); a failure prints the measured numbers in the assertion message.
Criteria 2 and 7 share one 50-seed batch of the reference noise regime.
"""

import math
import time

import numpy as np
import pytest

import trajcal as tc
from trajcal.estimator import estimate_time_offset_coarse
from trajcal.evaluation import make_report, run_sweep, summarize
from trajcal.features import extract_features
from trajcal.matching import apply_semantic_filters, motion_match
from trajcal.pipeline import PipelineConfig, derive_position_pairs, fuse_sessions
from trajcal.simulator import default_scenario, make_nonoverlapping_pair, make_pair

from conftest import make_database, make_trajectory, per_trajectory, random_transform

# reference regime: 4-way intersection, paper-level noise, half-second offset
REGIME = dict(n_vehicles=25, duration=45.0, noise_sigma=0.2, time_offset=0.5)


def _announce(criterion: str, detail: str):
    print(f"\n[PASS] {criterion}: {detail}")


@pytest.fixture(scope="module")
def noise_regime_batch():
    """50 seeded runs of the reference regime (criteria 2 and 7)."""
    rows = []
    for seed in range(50):
        cfg = default_scenario(seed=seed, **REGIME)
        db_p, db_q, truth = make_pair(cfg)
        try:
            session = tc.calibrate(db_p, db_q)
            report = make_report(session.transform, truth)
        except tc.CalibrationError:
            session, report = None, None
        rows.append((session, report))
    return rows


class TestCriterion1NoiselessExactRecovery:
    SCENARIOS = (
        # layout, rotation, offset; offsets that are frame-grid multiples keep
        # both sensors sampling identical world instants, so recovery can be
        # exact even through turning traffic; the sidewalk case exercises a
        # genuinely off-grid offset (straight motion interpolates exactly)
        ("four_way", 137.0, 2.7),
        ("three_way", -58.0, 5.3),
        ("sidewalk", 200.0, 0.537),
    )

    @pytest.mark.parametrize("layout,rotation,offset", SCENARIOS)
    def test_exact_recovery(self, layout, rotation, offset):
        cfg = default_scenario(
            layout, n_vehicles=14, duration=40.0, seed=11,
            rotation_deg=rotation, time_offset=offset,
        )
        db_p, db_q, truth = make_pair(cfg)
        started = time.monotonic()
        session = tc.calibrate(db_p, db_q)
        elapsed = time.monotonic() - started
        report = make_report(session.transform, truth)
        assert report.rte_m < 1e-6, f"RTE {report.rte_m}"
        assert report.rre_deg < 1e-6, f"RRE {report.rre_deg}"
        assert report.toe_s < 1e-4, f"TOE {report.toe_s}"
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s"
        _announce(
            "criterion 1 (noiseless exact recovery)",
            f"{layout} rot={rotation} offset={offset}: RTE {report.rte_m:.2e} m, "
            f"RRE {report.rre_deg:.2e} deg, TOE {report.toe_s:.2e} s, {elapsed:.2f}s",
        )


class TestCriterion2PaperNoiseRegime:
    def test_fifty_seeds(self, noise_regime_batch):
        started = time.monotonic()
        rtes, rres, successes = [], [], 0
        for session, report in noise_regime_batch:
            if report is None:
                continue
            rtes.append(report.rte_m)
            rres.append(report.rre_deg)
            successes += report.success
        med_rte = float(np.median(rtes))
        med_rre = float(np.median(rres))
        rate = successes / len(noise_regime_batch)
        assert med_rte < 0.10, f"median RTE {med_rte:.3f} m"
        assert med_rre < 1.0, f"median RRE {med_rre:.3f} deg"
        assert rate >= 0.90, f"success rate {rate:.2f}"
        _announce(
            "criterion 2 (paper noise regime, 50 seeds)",
            f"median RTE {100 * med_rte:.2f} cm, median RRE {med_rre:.3f} deg, "
            f"success {100 * rate:.0f}%",
        )
        assert time.monotonic() - started < 600.0


class TestCriterion3RotationRobustness:
    def test_rotation_sweep(self):
        rows = run_sweep(
            "rotation", [0.0, 30.0, 60.0, 90.0, 120.0], list(range(10)),
            scenario_kwargs=dict(
                n_vehicles=REGIME["n_vehicles"], duration=REGIME["duration"],
                noise_sigma=0.2, time_offset=0.5,
            ),
        )
        lines = []
        for cell in summarize(rows):
            assert cell.success_rate >= 0.90, f"rotation {cell.axis_value}: {cell.success_rate}"
            assert cell.median_rre_deg < 1.0, f"rotation {cell.axis_value}: {cell.median_rre_deg}"
            lines.append(
                f"{cell.axis_value:.0f} deg: success {100 * cell.success_rate:.0f}%, "
                f"RRE {cell.median_rre_deg:.3f}"
            )
        _announce("criterion 3 (rotation sweep 0-120 deg)", "; ".join(lines))


class TestCriterion4TemporalCalibration:
    OFFSETS = (0.5, 2.0, 5.0, 10.0, 18.0)

    def test_offset_sweep(self):
        # offsets must stay well inside the recording duration (45 s); larger
        # gaps shrink the mutually observed window until nothing can match
        lines = []
        for offset in self.OFFSETS:
            coarse_errs, refined_errs = [], []
            for seed in range(6):
                cfg = default_scenario(seed=seed, **{**REGIME, "time_offset": offset})
                db_p, db_q, truth = make_pair(cfg)
                session = tc.calibrate(db_p, db_q)
                pairs = derive_position_pairs(db_p, db_q, session.transform)
                coarse = estimate_time_offset_coarse(pairs)
                coarse_errs.append(abs(coarse - truth.time_offset))
                refined_errs.append(abs(session.transform.time_offset - truth.time_offset))
            assert max(coarse_errs) < 0.050, f"offset {offset}: coarse {max(coarse_errs)}"
            assert max(refined_errs) < 0.010, f"offset {offset}: refined {max(refined_errs)}"
            lines.append(f"{offset}s: refined {1000 * max(refined_errs):.2f} ms")
        _announce("criterion 4 (offsets 0.5-18 s)", "; ".join(lines))


class TestCriterion5FilteringGain:
    def test_precision_at_least_doubles(self):
        cfg = default_scenario(
            n_vehicles=35, duration=45.0, noise_sigma=0.2, time_offset=0.5, seed=0
        )
        db_p, db_q, truth = make_pair(cfg)
        weights = PipelineConfig().match_weights
        fp = extract_features(db_p)
        fq = extract_features(db_q)
        raw = motion_match(fp, fq, weights)
        kept = apply_semantic_filters(raw, fp, fq, db_p, db_q, weights=weights)

        def truths(matches, same_instant):
            ok = 0
            for m in matches:
                traj_p = db_p.trajectories[m.ref[0]]
                traj_q = db_q.trajectories[m.cand[0]]
                if traj_p.track_id.split("#")[0] != traj_q.track_id.split("#")[0]:
                    continue
                gap = abs(
                    (traj_p.times[m.ref[1]] - truth.time_offset) - traj_q.times[m.cand[1]]
                )
                if not same_instant or gap <= cfg.frame_period + 1e-9:
                    ok += 1
            return ok / max(1, len(matches))

        raw_precision = truths(raw, same_instant=True)
        kept_precision = truths(kept, same_instant=True)
        raw_track = truths(raw, same_instant=False)
        assert raw_track < 0.5, "raw matching should be mostly wrong on a cluttered scene"
        assert kept_precision >= 2.0 * raw_precision, (
            f"precision {raw_precision:.3f} -> {kept_precision:.3f}"
        )
        _announce(
            "criterion 5 (semantic filtering gain)",
            f"same-object precision {100 * raw_track:.0f}% raw; same-instant precision "
            f"{100 * raw_precision:.1f}% -> {100 * kept_precision:.1f}% "
            f"({kept_precision / max(raw_precision, 1e-9):.1f}x)",
        )


class TestCriterion6ContinuousCalibration:
    def test_three_pass_improvement(self):
        # continuous operation: the recording grows as traffic passes; pass k
        # recalibrates on everything seen so far, warm-started from the fused
        # state, and folds back into it (low scorers are kept out)
        base_vehicles, base_duration = 8, 15.0
        first_rte, fused_rte, first_rre, fused_rre = [], [], [], []
        for seed in range(20):
            fused = None
            first_report = None
            truth = None
            for k in (1, 2, 3):
                cfg = default_scenario(
                    n_vehicles=k * base_vehicles, duration=k * base_duration,
                    noise_sigma=0.25, time_offset=0.5, seed=seed * 1000 + 77 * k,
                )
                db_p, db_q, truth = make_pair(cfg)
                try:
                    session = tc.calibrate(db_p, db_q, prior=fused)
                except tc.CalibrationError:
                    session = None
                if k == 1:
                    first_report = (
                        make_report(session.transform, truth) if session else None
                    )
                if session is not None:
                    fused = fuse_sessions([s for s in (fused, session) if s is not None])
            fused_report = make_report(fused.transform, truth)
            first_rte.append(first_report.rte_m if first_report else math.inf)
            first_rre.append(first_report.rre_deg if first_report else math.inf)
            fused_rte.append(fused_report.rte_m)
            fused_rre.append(fused_report.rre_deg)
        rte_ratio = float(np.median(fused_rte) / np.median(first_rte))
        rre_ratio = float(np.median(fused_rre) / np.median(first_rre))
        assert rte_ratio <= 0.5, f"RTE ratio {rte_ratio:.2f}"
        assert rre_ratio <= 0.6, f"RRE ratio {rre_ratio:.2f}"
        _announce(
            "criterion 6 (continuous calibration, 20 seeds)",
            f"median RTE {100 * np.median(first_rte):.1f} -> {100 * np.median(fused_rte):.1f} cm "
            f"(x{rte_ratio:.2f}); RRE {np.median(first_rre):.3f} -> {np.median(fused_rre):.3f} deg "
            f"(x{rre_ratio:.2f})",
        )


class TestCriterion7ScoreSeparation:
    def test_success_and_failure_scores_never_overlap(self, noise_regime_batch):
        success_scores, failure_scores = [], []
        for seed, (session, report) in enumerate(noise_regime_batch[:45]):
            if session is None:
                failure_scores.append(0.0)
            elif report.success:
                success_scores.append(session.score)
            else:
                failure_scores.append(session.score)
        for seed in range(5):  # forced failures: zero true overlap
            cfg = default_scenario(seed=1000 + seed, **REGIME)
            db_p, db_q = make_nonoverlapping_pair(cfg)
            try:
                session = tc.calibrate(db_p, db_q)
                failure_scores.append(session.score)
            except tc.CalibrationError:
                failure_scores.append(0.0)
        assert len(failure_scores) >= 5
        assert success_scores, "no successful sessions in the reference regime"
        assert min(success_scores) > 0.6, f"weakest success score {min(success_scores):.3f}"
        assert max(failure_scores) < 0.2, f"strongest failure score {max(failure_scores):.3f}"
        _announce(
            "criterion 7 (score separation)",
            f"{len(success_scores)} successes score >= {min(success_scores):.2f}; "
            f"{len(failure_scores)} failures score <= {max(failure_scores):.2f}",
        )


class TestCriterion8FeatureInvariance:
    def test_hundred_random_databases(self):
        rng = np.random.default_rng(88)
        worst = 0.0
        for _ in range(100):
            n_traj = int(rng.integers(1, 5))
            trajs = []
            for k in range(n_traj):
                n = int(rng.integers(2, 40))
                steps = rng.normal(0, 1.0, size=(n, 3)) + [1.0, 0.2, 0.0]
                pts = np.cumsum(steps, axis=0)
                trajs.append(make_trajectory(pts, track=f"t{k}", dt=0.1))
            db = make_database(trajs)
            tf = random_transform(rng)
            base = extract_features(db, 3)
            moved = extract_features(tc.transform_database(tf, db), 3)
            for fa, fb in zip(per_trajectory(base), per_trajectory(moved)):
                assert np.array_equal(fa.valid, fb.valid)
                for name in ("curvature", "velocity_mean", "velocity_variance"):
                    gap = float(np.max(np.abs(getattr(fa, name) - getattr(fb, name)), initial=0.0))
                    worst = max(worst, gap)
                    assert gap <= 1e-9, f"{name} moved by {gap}"
        _announce("criterion 8 (feature invariance)", f"max feature drift {worst:.2e} over 100 dbs")


class TestCriterion9EstimatorOracle:
    def test_objective_beats_yaw_grid(self):
        from trajcal.estimator import CorrespondenceSet, solve_spatial

        rng = np.random.default_rng(9)
        margin = math.inf
        for _ in range(50):
            n = 40
            q = rng.uniform(-30, 30, size=(n, 3))
            q[:, 2] = 1.0  # planar instance
            truth = tc.Transform4D.from_yaw_deg(
                float(rng.uniform(0, 360)), rng.uniform(-20, 20, 3)
            )
            p = truth.apply_points(q) + rng.normal(0, 0.2, size=(n, 3))
            sol = solve_spatial(
                CorrespondenceSet(p, q, np.zeros(n), np.zeros(n))
            )
            obj = float(np.sum((p - (q @ sol.rotation.T + sol.translation)) ** 2))
            p0 = p - p.mean(axis=0)
            q0 = q - q.mean(axis=0)
            m = q0.T @ p0
            yaws = np.radians(np.arange(0.0, 360.0, 0.1))
            trace = (
                (m[0, 0] + m[1, 1]) * np.cos(yaws)
                - (m[1, 0] - m[0, 1]) * np.sin(yaws)
                + m[2, 2]
            )
            grid_best = float(np.sum(p0**2) + np.sum(q0**2) - 2.0 * np.max(trace))
            assert obj <= grid_best + 1e-9, f"solver {obj} vs grid {grid_best}"
            margin = min(margin, grid_best - obj)
        _announce("criterion 9 (yaw-grid oracle, 50 instances)", f"min margin {margin:.2e}")


class TestCriterion10Determinism:
    def test_cli_outputs_byte_identical(self, tmp_path):
        import json

        from click.testing import CliRunner

        from trajcal.cli import main

        runner = CliRunner()
        outputs = []
        for name in ("a", "b"):
            root = tmp_path / name
            scene = root / "scene"
            result = runner.invoke(
                main,
                ["simulate", "--out", str(scene), "--vehicles", "10", "--duration", "25",
                 "--noise", "0.1", "--seed", "7"],
            )
            assert result.exit_code == 0, result.output
            session = root / "session.json"
            result = runner.invoke(
                main,
                ["calibrate", "--input-p", str(scene / "dbP.jsonl"),
                 "--input-q", str(scene / "dbQ.jsonl"), "--out", str(session)],
            )
            assert result.exit_code == 0, result.output
            sweep_dir = root / "sweep"
            result = runner.invoke(
                main,
                ["sweep", "--axis", "noise", "--values", "0.0,0.1", "--seeds", "2",
                 "--vehicles", "8", "--duration", "15", "--out", str(sweep_dir)],
            )
            assert result.exit_code == 0, result.output
            session_record = json.loads(session.read_text())
            session_record.pop("created_at")  # wall-clock stamp, excluded by contract
            outputs.append(
                (
                    (scene / "dbP.jsonl").read_bytes(),
                    (scene / "dbQ.jsonl").read_bytes(),
                    (scene / "ground_truth.json").read_bytes(),
                    json.dumps(session_record, sort_keys=True),
                    (sweep_dir / "sweep.csv").read_bytes(),
                    (sweep_dir / "summary.csv").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]
        _announce("criterion 10 (determinism)", "simulate/calibrate/sweep byte-identical")
