"""Command-line interface: files in, files out, stable exit codes."""

import json

import pytest
from click.testing import CliRunner

from trajcal.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def simulate(runner, out_dir, *extra):
    args = [
        "simulate", "--out", str(out_dir), "--vehicles", "10", "--duration", "25",
        "--seed", "3", *extra,
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return out_dir


class TestSimulate:
    def test_writes_three_files(self, runner, tmp_path):
        out = simulate(runner, tmp_path / "scene")
        assert (out / "dbP.jsonl").exists()
        assert (out / "dbQ.jsonl").exists()
        assert (out / "ground_truth.json").exists()

    def test_byte_identical_rerun(self, runner, tmp_path):
        a = simulate(runner, tmp_path / "a")
        b = simulate(runner, tmp_path / "b")
        assert (a / "dbP.jsonl").read_bytes() == (b / "dbP.jsonl").read_bytes()
        assert (a / "dbQ.jsonl").read_bytes() == (b / "dbQ.jsonl").read_bytes()
        assert (a / "ground_truth.json").read_bytes() == (b / "ground_truth.json").read_bytes()

    def test_zero_vehicles_warns_but_succeeds(self, runner, tmp_path):
        result = runner.invoke(
            main, ["simulate", "--out", str(tmp_path / "e"), "--vehicles", "0", "--seed", "1"]
        )
        assert result.exit_code == 0
        assert "warning" in result.output

    def test_config_file(self, runner, tmp_path):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text("layout = four_way\nn_vehicles = 8\nduration = 20\nseed = 2\n")
        result = runner.invoke(
            main, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")]
        )
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("flag", ["--noise", "--duration"])
    def test_nan_setting_exits_one(self, runner, tmp_path, flag):
        result = runner.invoke(main, ["simulate", "--out", str(tmp_path / "s"), flag, "nan"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "must be finite" in result.output
        assert not (tmp_path / "s").exists()

    def test_bad_config_exits_one(self, runner, tmp_path):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text("unknown_thing = 1\n")
        result = runner.invoke(
            main, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")]
        )
        assert result.exit_code == 1


# sha256 of the files of one small sidewalk scene and of its debug dumps: a
# change here is a change to a file format or to the simulated numbers (the
# walks are straight, so no vectorised sine or cosine enters the positions)
PINNED = {
    "scene/dbP.jsonl": "f2cbdfef2b9496979147fb66836038e5812ee0e8669d0314e000b075b0f9faf9",
    "scene/dbQ.jsonl": "611ca14175c8981914d2c94253dd1dd0cdbbe826ad483212a8e306bc9ddcfcfa",
    "scene/ground_truth.json": "09dc0be4e61a0de1b91ef8ed3f4d99a591b5f5c4ed03a4594fab4c7d19be6dc1",
    "feat.p.csv": "ea12d0c30cd017fb88e5c458076d7b3407cdc6eeaf12b821ad701683d5217ae9",
    "feat.q.csv": "cf5849bf10f0928938710ed9b464d0f0f88773f7410711c02bf0b2f16b0094bf",
    "matches.csv": "9516eb96c2594440b114c77a2f2a81a38ca1d67e8818692c8f4a2f11367c494c",
}


class TestPinnedOutput:
    def test_simulate_and_dumps_keep_their_bytes(self, runner, tmp_path):
        import hashlib

        result = runner.invoke(main, [
            "simulate", "--out", str(tmp_path / "scene"), "--layout", "sidewalk",
            "--vehicles", "6", "--duration", "20", "--noise", "0.2", "--seed", "3"])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, [
            "calibrate", "--input-p", str(tmp_path / "scene" / "dbP.jsonl"),
            "--input-q", str(tmp_path / "scene" / "dbQ.jsonl"),
            "--dump-features", str(tmp_path / "feat"),
            "--dump-matches", str(tmp_path / "matches.csv")])
        assert result.exit_code == 0, result.output
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED}
        assert got == PINNED


class TestCalibrate:
    def test_end_to_end_with_truth(self, runner, tmp_path):
        scene = simulate(runner, tmp_path / "scene", "--noise", "0.1")
        session_path = tmp_path / "session.json"
        result = runner.invoke(
            main,
            [
                "calibrate",
                "--input-p", str(scene / "dbP.jsonl"),
                "--input-q", str(scene / "dbQ.jsonl"),
                "--truth", str(scene / "ground_truth.json"),
                "--out", str(session_path),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "success" in result.output
        session = json.loads(session_path.read_text())
        assert session["score"] > 0.8

    def test_truncated_input_exits_one_with_line(self, runner, tmp_path):
        scene = simulate(runner, tmp_path / "scene")
        db_path = scene / "dbP.jsonl"
        lines = db_path.read_text().splitlines()
        lines[6] = lines[6][:10]
        db_path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(
            main,
            ["calibrate", "--input-p", str(db_path), "--input-q", str(scene / "dbQ.jsonl")],
        )
        assert result.exit_code == 1
        assert ":7:" in result.output

    @pytest.mark.parametrize("raw", ["Infinity", "1e400", "12.9", "true"])
    def test_frame_that_is_not_an_integer_exits_one_with_line(self, runner, tmp_path, raw):
        scene = simulate(runner, tmp_path / "scene")
        db_path = scene / "dbQ.jsonl"
        lines = db_path.read_text().splitlines()
        frame = json.loads(lines[3])["frame"]
        lines[3] = lines[3].replace(f'"frame": {frame},', f'"frame": {raw},')
        db_path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(
            main,
            ["calibrate", "--input-p", str(scene / "dbP.jsonl"), "--input-q", str(db_path)],
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"{db_path}:4:" in result.output and "frame" in result.output

    @pytest.mark.parametrize("flag,value,message", [
        ("--max-iter", "0", "max_iterations must be >= 1"),
        ("--d-th", "-1", "d_th must be positive"),
        ("--d-th", "nan", "d_th must be finite"),
    ])
    def test_bad_setting_exits_one(self, runner, tmp_path, flag, value, message):
        scene = simulate(runner, tmp_path / "scene")
        result = runner.invoke(
            main,
            ["calibrate", "--input-p", str(scene / "dbP.jsonl"),
             "--input-q", str(scene / "dbQ.jsonl"), flag, value],
        )
        assert result.exit_code == 1
        assert f"error: {message}" in result.output

    @pytest.mark.parametrize("option,content", [
        ("--truth", "[1, 2, 3]"),
        ("--truth", '{"qw": NaN, "qx": 0, "qy": 0, "qz": 0, "tx": 0, "ty": 0, "tz": 0, "dt": 0}'),
        ("--session", "[1, 2, 3]"),
        ("--session", '{"transform": null, "score": 1, "n_pp": 1, "n_po": 1, '
                      '"iterations_used": 1, "converged": true, "created_at": 0}'),
        ("--input-p", "5\n"),
    ], ids=["truth-list", "truth-nan-quaternion", "session-list", "session-null-transform",
            "database-int-header"])
    def test_wrong_shaped_file_exits_one(self, runner, tmp_path, option, content):
        scene = simulate(runner, tmp_path / "scene")
        bad = tmp_path / "bad"
        bad.write_text(content)
        if option == "--session":
            args = ["evaluate", "--session", str(bad), "--truth", str(scene / "ground_truth.json")]
        else:
            files = {
                "--input-p": scene / "dbP.jsonl",
                "--input-q": scene / "dbQ.jsonl",
                "--truth": scene / "ground_truth.json",
                option: bad,
            }
            args = ["calibrate", *(a for flag, path in files.items() for a in (flag, str(path)))]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: {bad}" in result.output

    @pytest.mark.parametrize("key,value", [("frame_period", "NaN"),
                                           ("sensing_range", "Infinity")])
    def test_non_finite_header_exits_one(self, runner, tmp_path, key, value):
        scene = simulate(runner, tmp_path / "scene")
        db_path = scene / "dbP.jsonl"
        lines = db_path.read_text().splitlines()
        header = json.loads(lines[0])
        header["meta"][key] = float(value.lower().replace("infinity", "inf"))
        lines[0] = json.dumps(header)
        db_path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(
            main,
            ["calibrate", "--input-p", str(db_path), "--input-q", str(scene / "dbQ.jsonl")],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: {db_path}: {key} must be finite and positive" in result.output

    def test_no_candidates_exits_two_with_counts(self, runner, tmp_path):
        a = simulate(runner, tmp_path / "a", "--vehicles", "2")
        b = simulate(runner, tmp_path / "b", "--vehicles", "2", "--seed", "99")
        result = runner.invoke(
            main,
            ["calibrate", "--input-p", str(a / "dbP.jsonl"), "--input-q", str(b / "dbQ.jsonl")],
        )
        if result.exit_code == 2:
            assert "raw=" in result.output or "NOT converged" in result.output
        else:  # a lucky accidental match may calibrate; still a valid outcome
            assert result.exit_code == 0

    def test_continuous_stores_sessions(self, runner, tmp_path):
        scene = simulate(runner, tmp_path / "scene", "--noise", "0.1")
        store = tmp_path / "store"
        for _ in range(2):
            result = runner.invoke(
                main,
                [
                    "calibrate",
                    "--input-p", str(scene / "dbP.jsonl"),
                    "--input-q", str(scene / "dbQ.jsonl"),
                    "--continuous", "--store-dir", str(store),
                ],
            )
            assert result.exit_code == 0, result.output
        assert len((store / "sessions.jsonl").read_text().splitlines()) == 2
        # the log is the store's only state: the fused estimate is its fold
        from trajcal.pipeline import SessionStore, fuse_sessions

        log = SessionStore(store)
        want = fuse_sessions(log.sessions(), min_score=log.min_fuse_score)
        got = log.load_fused()
        assert got.transform.approx_equal(want.transform, tol=1e-12)
        assert got.score == want.score
        assert not (store / "fused.json").exists()

    def test_continuous_skips_a_stored_session_with_nan_score(self, runner, tmp_path):
        scene = simulate(runner, tmp_path / "scene", "--noise", "0.1")
        store = tmp_path / "store"
        args = ["calibrate", "--input-p", str(scene / "dbP.jsonl"),
                "--input-q", str(scene / "dbQ.jsonl"), "--continuous", "--store-dir", str(store)]
        assert runner.invoke(main, args).exit_code == 0
        log = store / "sessions.jsonl"
        damaged = dict(json.loads(log.read_text()), score=float("nan"))
        log.write_text(log.read_text() + json.dumps(damaged) + "\n")
        for _ in range(2):
            with pytest.warns(UserWarning, match=r"sessions\.jsonl:2: skipped damaged"):
                result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            assert result.exception is None
        assert len(log.read_text().splitlines()) == 4

    def test_continuous_skips_a_stored_session_with_infinite_count(self, runner, tmp_path):
        scene = simulate(runner, tmp_path / "scene", "--noise", "0.1")
        store = tmp_path / "store"
        args = ["calibrate", "--input-p", str(scene / "dbP.jsonl"),
                "--input-q", str(scene / "dbQ.jsonl"), "--continuous", "--store-dir", str(store)]
        assert runner.invoke(main, args).exit_code == 0
        log = store / "sessions.jsonl"
        damaged = dict(json.loads(log.read_text()), n_pp=float("inf"))
        log.write_text(log.read_text() + json.dumps(damaged) + "\n")
        with pytest.warns(UserWarning, match=r"sessions\.jsonl:2: skipped damaged .*n_pp"):
            result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert result.exception is None

    def test_dump_debug_csvs(self, runner, tmp_path):
        scene = simulate(runner, tmp_path / "scene")
        result = runner.invoke(
            main,
            [
                "calibrate",
                "--input-p", str(scene / "dbP.jsonl"),
                "--input-q", str(scene / "dbQ.jsonl"),
                "--dump-features", str(tmp_path / "feat"),
                "--dump-matches", str(tmp_path / "matches.csv"),
            ],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "feat.p.csv").exists()
        assert (tmp_path / "feat.q.csv").exists()
        assert (tmp_path / "matches.csv").exists()

    @pytest.mark.parametrize("option,value", [
        ("--out", "missing/s.json"),
        ("--dump-features", "missing/feat"),
        ("--dump-matches", "missing/matches.csv"),
    ])
    def test_output_in_missing_directory_exits_one_before_calibrating(
            self, runner, tmp_path, monkeypatch, option, value):
        from trajcal import pipeline

        scene = simulate(runner, tmp_path / "scene")

        def never(*a, **k):
            raise AssertionError("calibrated before checking the output path")

        monkeypatch.setattr(pipeline, "calibrate", never)
        monkeypatch.setattr("trajcal.cli.extract_features", never)
        target = tmp_path / value
        result = runner.invoke(
            main,
            ["calibrate", "--input-p", str(scene / "dbP.jsonl"),
             "--input-q", str(scene / "dbQ.jsonl"), option, str(target)],
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"error: {option} {target}: {target.parent} is not a directory" in result.output

    def test_store_dir_that_is_a_file_exits_one(self, runner, tmp_path, monkeypatch):
        scene = simulate(runner, tmp_path / "scene")
        not_a_dir = tmp_path / "store"
        not_a_dir.write_text("")
        monkeypatch.setenv("TRAJCAL_STORE_DIR", str(not_a_dir))
        result = runner.invoke(
            main,
            ["calibrate", "--input-p", str(scene / "dbP.jsonl"),
             "--input-q", str(scene / "dbQ.jsonl"), "--continuous"],
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"error: session store {not_a_dir}" in result.output
        result = runner.invoke(main, ["fuse-sessions"])
        assert result.exit_code == 1
        assert f"error: session store {not_a_dir}" in result.output

    def test_failed_write_exits_one(self, runner, tmp_path, monkeypatch):
        import errno

        from trajcal import io

        def full(session, path):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr(io, "write_session_json", full)
        scene = simulate(runner, tmp_path / "scene", "--noise", "0.1")
        out = tmp_path / "s.json"
        result = runner.invoke(
            main,
            ["calibrate", "--input-p", str(scene / "dbP.jsonl"),
             "--input-q", str(scene / "dbQ.jsonl"), "--out", str(out)],
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"error: cannot write {out}: No space left on device" in result.output

    def test_dump_columns_are_solo_filter_survivors(self, runner, tmp_path):
        import csv

        from trajcal import io
        from trajcal.features import extract_features
        from trajcal.matching import (
            apply_semantic_filters,
            filter_bbox,
            filter_mutual_nn,
            filter_neighbor_count,
            filter_neighborhood_distribution,
            motion_match,
        )
        from trajcal.pipeline import PipelineConfig

        scene = simulate(runner, tmp_path / "scene", "--noise", "0.2")
        dump = tmp_path / "matches.csv"
        runner.invoke(
            main,
            ["calibrate", "--input-p", str(scene / "dbP.jsonl"),
             "--input-q", str(scene / "dbQ.jsonl"), "--dump-matches", str(dump)],
        )
        db_p = io.read_database_jsonl(scene / "dbP.jsonl")
        db_q = io.read_database_jsonl(scene / "dbQ.jsonl")
        weights = PipelineConfig().match_weights
        fp = extract_features(db_p)
        fq = extract_features(db_q)
        raw = motion_match(fp, fq, weights)
        solo = {
            "mutual": filter_mutual_nn(raw, fp, fq, weights),
            "bbox": filter_bbox(raw, db_p, db_q),
            "count": filter_neighbor_count(raw, db_p, db_q),
            "hist": filter_neighborhood_distribution(raw, db_p, db_q),
        }
        with open(dump, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(raw)

        def key(track_p, frame_p, track_q, frame_q):
            return (track_p, int(frame_p), track_q, int(frame_q))

        def key_of(m):
            tp = db_p.trajectories[m.ref[0]]
            tq = db_q.trajectories[m.cand[0]]
            return key(tp.track_id, tp.frames[m.ref[1]], tq.track_id, tq.frames[m.cand[1]])

        assert [key(r["p_track"], r["p_frame"], r["q_track"], r["q_frame"]) for r in rows] == \
            [key_of(m) for m in raw]
        for name, kept in solo.items():
            assert [r[name] for r in rows] == [str(int(m in kept)) for m in raw], name
            assert 0 < len(kept) < len(raw), name
        survivors = apply_semantic_filters(raw, fp, fq, db_p, db_q, weights=weights)
        all_ones = [m for m, r in zip(raw, rows) if all(r[n] == "1" for n in solo)]
        assert all_ones == survivors


class TestEvaluate:
    def test_report_json(self, runner, tmp_path):
        scene = simulate(runner, tmp_path / "scene")
        session_path = tmp_path / "session.json"
        runner.invoke(
            main,
            [
                "calibrate",
                "--input-p", str(scene / "dbP.jsonl"),
                "--input-q", str(scene / "dbQ.jsonl"),
                "--out", str(session_path),
            ],
        )
        report_path = tmp_path / "report.json"
        result = runner.invoke(
            main,
            [
                "evaluate", "--session", str(session_path),
                "--truth", str(scene / "ground_truth.json"),
                "--out", str(report_path),
            ],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(report_path.read_text())
        assert report["success"] is True
        assert report["rte_m"] < 1e-5


    def test_report_in_missing_directory_exits_one(self, runner, tmp_path):
        scene = simulate(runner, tmp_path / "scene")
        session = tmp_path / "session.json"
        session.write_text(json.dumps({
            "transform": json.loads((scene / "ground_truth.json").read_text()), "score": 1.0,
            "n_pp": 1, "n_po": 1, "iterations_used": 1, "converged": True, "created_at": 0.0,
        }))
        target = tmp_path / "missing" / "report.json"
        result = runner.invoke(
            main,
            ["evaluate", "--session", str(session),
             "--truth", str(scene / "ground_truth.json"), "--out", str(target)],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: --out {target}" in result.output

    def test_session_with_infinite_count_exits_one(self, runner, tmp_path):
        scene = simulate(runner, tmp_path / "scene")
        session = tmp_path / "session.json"
        session.write_text(json.dumps({
            "transform": json.loads((scene / "ground_truth.json").read_text()), "score": 1.0,
            "n_pp": 1, "n_po": 1, "iterations_used": 1, "converged": True, "created_at": 0.0,
        }).replace('"n_pp": 1', '"n_pp": Infinity'))
        result = runner.invoke(
            main, ["evaluate", "--session", str(session),
                   "--truth", str(scene / "ground_truth.json")],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error:" in result.output and "n_pp" in result.output


class TestSweep:
    def test_csv_shape_and_summary(self, runner, tmp_path):
        out = tmp_path / "sweep"
        result = runner.invoke(
            main,
            [
                "sweep", "--axis", "noise", "--values", "0.0,0.1,0.2", "--seeds", "5",
                "--vehicles", "10", "--duration", "20", "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 15
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 3

    @pytest.mark.parametrize("values", ["0", "0.5"])
    def test_passes_not_a_positive_integer_exits_one(self, runner, tmp_path, values):
        out = tmp_path / "x"
        result = runner.invoke(
            main, ["sweep", "--axis", "passes", "--values", values, "--out", str(out)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: passes must be positive integers" in result.output
        assert not out.exists()

    def test_bad_values_exit_one(self, runner, tmp_path):
        result = runner.invoke(
            main, ["sweep", "--axis", "noise", "--values", "a,b", "--out", str(tmp_path / "x")]
        )
        assert result.exit_code == 1


class TestFuseSessions:
    def test_fuses_ignoring_zero_score(self, runner, tmp_path):
        from trajcal import io as tio
        from trajcal.model import Transform4D
        from trajcal.pipeline import CalibrationSession, SessionStore

        store = SessionStore(tmp_path / "store")
        good_tf = Transform4D.from_yaw_deg(10.0, (1.0, 2.0, 0.0), 0.5)
        for k, score in enumerate((0.85, 0.84, 0.82, 0.82)):
            store.record(
                CalibrationSession(good_tf, score, 100, 240, 3, True, created_at=float(k))
            )
        junk = Transform4D.from_yaw_deg(170.0, (300.0, 0.0, 0.0), 9.0)
        store.record(CalibrationSession(junk, 0.0, 0, 240, 20, False, created_at=9.0))
        result = runner.invoke(main, ["fuse-sessions", "--store-dir", str(store.directory)])
        assert result.exit_code == 0, result.output
        fused = tio.read_session_json(store.directory / "fused.json")
        assert fused.transform.approx_equal(good_tf, tol=1e-9)
        assert fused.score == pytest.approx(0.85)

    def test_skips_a_session_with_score_outside_unit_interval(self, runner, tmp_path):
        from trajcal import io as tio
        from trajcal.model import Transform4D
        from trajcal.pipeline import CalibrationSession, SessionStore

        store = SessionStore(tmp_path / "store")
        good_tf = Transform4D.from_yaw_deg(10.0, (1.0, 2.0, 0.0), 0.5)
        store.record(CalibrationSession(good_tf, 0.85, 100, 240, 3, True, created_at=0.0))
        junk = CalibrationSession(Transform4D.from_yaw_deg(170.0), 0.9, 0, 240, 20, False, 1.0)
        with open(store.sessions_path, "a") as fh:
            for score in (float("nan"), 1e308):
                fh.write(json.dumps(dict(junk.to_dict(), score=score)) + "\n")
        with pytest.warns(UserWarning, match="skipped damaged"):
            result = runner.invoke(main, ["fuse-sessions", "--store-dir", str(store.directory)])
        assert result.exit_code == 0, result.output
        fused = tio.read_session_json(store.directory / "fused.json")
        assert fused.transform.approx_equal(good_tf, tol=1e-12)
        assert fused.score == 0.85

    def test_empty_store_exits_one(self, runner, tmp_path):
        (tmp_path / "store").mkdir()
        result = runner.invoke(main, ["fuse-sessions", "--store-dir", str(tmp_path / "store")])
        assert result.exit_code == 1
