"""File formats: JSONL databases, transform/session JSON, config files."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from trajcal import io
from trajcal.pipeline import CalibrationSession
from trajcal.simulator import default_scenario, make_pair

from conftest import make_database, random_transform, straight_trajectory


def _database_jsonl_oracle(db) -> str:
    """The JSONL text of ``db`` with one ``json.dumps`` per record."""
    meta = {"sensor_id": db.sensor_id, "frame_period": db.frame_period,
            "sensing_range": db.sensing_range}
    lines = [json.dumps({"meta": meta})]
    for traj in db.trajectories:
        for (x, y, z), t, frame, (l, w, h) in zip(
                traj.xyz.tolist(), traj.times.tolist(), traj.frames.tolist(), traj.bbox.tolist()):
            lines.append(json.dumps({"sensor_id": db.sensor_id, "track_id": traj.track_id,
                                     "frame": frame, "t": t, "x": x, "y": y, "z": z, "l": l,
                                     "w": w, "h": h, "class": traj.class_label}))
    return "\n".join(lines) + "\n"


@pytest.fixture
def sample_db():
    cfg = default_scenario(n_vehicles=6, duration=20.0, noise_sigma=0.1, seed=3)
    db_p, _, _ = make_pair(cfg)
    return db_p


class TestDatabaseJsonl:
    def test_round_trip(self, sample_db, tmp_path):
        path = tmp_path / "db.jsonl"
        io.write_database_jsonl(sample_db, path)
        again = io.read_database_jsonl(path)
        assert again == sample_db

    def test_header_first_line(self, sample_db, tmp_path):
        path = tmp_path / "db.jsonl"
        io.write_database_jsonl(sample_db, path)
        first = json.loads(path.read_text().splitlines()[0])
        assert first["meta"]["sensor_id"] == sample_db.sensor_id
        assert first["meta"]["frame_period"] == sample_db.frame_period
        assert first["meta"]["sensing_range"] == sample_db.sensing_range

    def test_write_is_byte_deterministic(self, sample_db, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        io.write_database_jsonl(sample_db, a)
        io.write_database_jsonl(sample_db, b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_line_names_line_number(self, sample_db, tmp_path):
        path = tmp_path / "db.jsonl"
        io.write_database_jsonl(sample_db, path)
        lines = path.read_text().splitlines()
        lines[4] = lines[4][: len(lines[4]) // 2]  # corrupt line 5
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(io.FileFormatError, match=":5:"):
            io.read_database_jsonl(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "db.jsonl"
        path.write_text('{"track_id": "a"}\n')
        with pytest.raises(io.FileFormatError, match="meta"):
            io.read_database_jsonl(path)

    def test_missing_field_names_line(self, sample_db, tmp_path):
        path = tmp_path / "db.jsonl"
        io.write_database_jsonl(sample_db, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        del record["x"]
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(io.FileFormatError, match=":3:"):
            io.read_database_jsonl(path)

    @pytest.mark.parametrize("key,value", [("frame_period", "NaN"), ("frame_period", "Infinity"),
                                           ("sensing_range", "NaN"), ("sensing_range", "Infinity")])
    def test_non_finite_header_value_rejected(self, sample_db, tmp_path, key, value):
        path = tmp_path / "db.jsonl"
        io.write_database_jsonl(sample_db, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["meta"][key] = float(value.lower().replace("infinity", "inf"))
        lines[0] = json.dumps(header)
        assert value in lines[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(io.FileFormatError, match=f"{key} must be finite and positive"):
            io.read_database_jsonl(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(io.FileFormatError, match="empty"):
            io.read_database_jsonl(path)


def _edit_record(path, line_no, **changes):
    """Rewrite one position record of a database file in place."""
    lines = path.read_text().splitlines()
    record = json.loads(lines[line_no - 1])
    record.update(changes)
    lines[line_no - 1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")


class TestDatabaseJsonlErrors:
    @pytest.mark.parametrize("changes,message", [
        ({"y": float("nan")}, "finite"),
        ({"t": float("inf")}, "finite"),
        ({"w": 0.0}, "bbox"),
        ({"h": -1.5}, "bbox"),
        ({"class": "boat"}, "class"),
        ({"frame": -2}, "non-negative"),
        ({"x": 10 ** 400}, "too large"),
    ])
    def test_bad_value_names_its_line(self, sample_db, tmp_path, changes, message):
        path = tmp_path / "db.jsonl"
        io.write_database_jsonl(sample_db, path)
        _edit_record(path, 9, **changes)
        with pytest.raises(io.FileFormatError, match=f"{path}:9: .*{message}"):
            io.read_database_jsonl(path)

    @pytest.mark.parametrize("raw", ["Infinity", "-Infinity", "NaN", "1e400", "12.9", "true",
                                     '"7"'])
    def test_frame_that_is_not_an_integer_names_its_line(self, sample_db, tmp_path, raw):
        path = tmp_path / "db.jsonl"
        io.write_database_jsonl(sample_db, path)
        lines = path.read_text().splitlines()
        frame = json.loads(lines[5])["frame"]
        lines[5] = lines[5].replace(f'"frame": {frame},', f'"frame": {raw},')
        assert raw in lines[5]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(io.FileFormatError, match=f"{path}:6: .*frame"):
            io.read_database_jsonl(path)

    def test_integral_float_frame_is_read_as_that_frame(self, sample_db, tmp_path):
        path = tmp_path / "db.jsonl"
        io.write_database_jsonl(sample_db, path)
        frame = json.loads(path.read_text().splitlines()[1])["frame"]
        _edit_record(path, 2, frame=float(frame))
        assert io.read_database_jsonl(path) == sample_db

    def test_frame_beyond_64_bits_names_its_line(self, sample_db, tmp_path):
        path = tmp_path / "db.jsonl"
        io.write_database_jsonl(sample_db, path)
        _edit_record(path, 4, frame=2 ** 70)
        with pytest.raises(io.FileFormatError, match=f"{path}:4: .*64-bit"):
            io.read_database_jsonl(path)

    def test_track_level_fault_names_the_track(self, sample_db, tmp_path):
        path = tmp_path / "db.jsonl"
        io.write_database_jsonl(sample_db, path)
        second = json.loads(path.read_text().splitlines()[2])
        _edit_record(path, 3, t=second["t"] - 5.0)
        with pytest.raises(io.FileFormatError, match=f"track {second['track_id']!r}: .*increase"):
            io.read_database_jsonl(path)

    def test_mixed_classes_in_a_track_are_named(self, sample_db, tmp_path):
        path = tmp_path / "db.jsonl"
        io.write_database_jsonl(sample_db, path)
        label = json.loads(path.read_text().splitlines()[3])["class"]
        _edit_record(path, 4, **{"class": "bicycle" if label != "bicycle" else "car"})
        with pytest.raises(io.FileFormatError, match="mixed class labels"):
            io.read_database_jsonl(path)

    def test_write_matches_one_json_dumps_per_record(self, sample_db, tmp_path):
        odd = make_database([
            straight_trajectory(track='say "hi"', n=5),
            straight_trajectory(track="back\\slash", n=4, origin=(1e-7, -3.0, 1.0 / 3.0)),
            straight_trajectory(track="Straße-東京-\u00e9\U0001f697", n=3, speed=1e6, label="truck"),
        ], sensor_id='L"i\\DAR-ü', frame_period=0.1, sensing_range=1e300)
        for db in (sample_db, odd):
            path = tmp_path / "db.jsonl"
            io.write_database_jsonl(db, path)
            assert path.read_bytes() == _database_jsonl_oracle(db).encode()

    def test_rewrite_is_byte_identical(self, sample_db, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        io.write_database_jsonl(sample_db, a)
        io.write_database_jsonl(io.read_database_jsonl(a), b)
        assert a.read_bytes() == b.read_bytes()


class TestTransformAndSessionJson:
    def test_transform_round_trip(self, tmp_path, rng):
        tf = random_transform(rng)
        path = tmp_path / "tf.json"
        io.write_json(tf, path)
        assert io.read_transform_json(path).approx_equal(tf, tol=1e-15)
        keys = set(json.loads(path.read_text()))
        assert keys == {"qw", "qx", "qy", "qz", "tx", "ty", "tz", "dt"}

    def test_session_round_trip(self, tmp_path, rng):
        session = CalibrationSession(
            transform=random_transform(rng),
            score=0.87,
            n_pp=120,
            n_po=260,
            iterations_used=4,
            converged=True,
            created_at=1700000000.0,
        )
        path = tmp_path / "session.json"
        io.write_session_json(session, path)
        again = io.read_session_json(path)
        assert again.transform.approx_equal(session.transform, tol=1e-15)
        assert again.score == session.score
        assert again.converged is True

    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 1.0), st.lists(st.integers(0, 10**9),
           min_size=3, max_size=3), st.booleans(), st.floats(-1e12, 1e12))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_session_file_round_trip_is_bitwise(self, tmp_path, seed, score, counts,
                                                converged, created_at):
        session = CalibrationSession(random_transform(np.random.default_rng(seed)), score,
                                     *counts, converged, created_at)
        path = tmp_path / "session.json"
        io.write_session_json(session, path)
        again = io.read_session_json(path)
        assert json.dumps(again.to_dict()) == json.dumps(session.to_dict())

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), 1e308, 1.5, -0.1])
    def test_session_file_with_a_score_outside_unit_interval(self, tmp_path, rng, score):
        session = CalibrationSession(random_transform(rng), 0.5, 10, 20, 3, True, 1.0)
        record = session.to_dict()
        record["score"] = score
        path = tmp_path / "session.json"
        path.write_text(json.dumps(record))
        with pytest.raises(io.FileFormatError, match="score must be in \\[0, 1\\]"):
            io.read_session_json(path)

    @pytest.mark.parametrize("field, raw", [
        ("n_pp", "Infinity"), ("n_po", "-Infinity"), ("score", "1" * 400), ("tx", "1" * 400),
        ("n_pp", "-5"), ("n_po", "2.7"), ("n_pp", "true"), ("n_po", '"12"'),
        ("iterations_used", "-1"), ("score", "true"), ("score", '"0.5"'), ("created_at", "true"),
        ("tx", '"1.5"'),
    ], ids=["n_pp-inf", "n_po-minus-inf", "score-400-digits", "tx-400-digits",
            "n_pp-negative", "n_po-fraction", "n_pp-true", "n_po-string", "iterations_used-negative",
            "score-true", "score-string", "created_at-true", "tx-string"])
    def test_session_file_with_a_number_out_of_range_names_it(self, tmp_path, rng, field, raw):
        record = CalibrationSession(random_transform(rng), 0.5, 10, 20, 3, True, 1.0).to_dict()
        (record["transform"] if field == "tx" else record)[field] = "@"
        path = tmp_path / "session.json"
        path.write_text(json.dumps(record).replace('"@"', raw))
        with pytest.raises(io.FileFormatError, match=f"invalid session file: {field}: "):
            io.read_session_json(path)

    @pytest.mark.parametrize("field, raw", [
        ("converged", '"false"'), ("converged", "1"),
        ("created_at", "NaN"), ("created_at", "Infinity"),
    ], ids=["converged-string", "converged-number", "created_at-nan", "created_at-inf"])
    def test_session_file_with_a_bad_flag_or_time_names_it(self, tmp_path, rng, field, raw):
        record = CalibrationSession(random_transform(rng), 0.5, 10, 20, 3, True, 1.0).to_dict()
        record[field] = "@"
        path = tmp_path / "session.json"
        path.write_text(json.dumps(record).replace('"@"', raw))
        with pytest.raises(io.FileFormatError, match=f"invalid session file: {field} must be"):
            io.read_session_json(path)

    def test_transform_file_with_a_number_out_of_range_names_it(self, tmp_path, rng):
        record = random_transform(rng).to_dict()
        record["tx"] = "@"
        path = tmp_path / "tf.json"
        path.write_text(json.dumps(record).replace('"@"', "1" * 400))
        with pytest.raises(io.FileFormatError, match="invalid transform file: tx: "):
            io.read_transform_json(path)

    def test_invalid_transform_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(io.FileFormatError):
            io.read_transform_json(path)


def _with_raw(record: dict, key: str, raw: str) -> str:
    """``record`` as a JSON line whose ``key`` holds the literal JSON ``raw``."""
    return json.dumps(dict(record, **{key: "@"})).replace('"@"', raw)


class TestValuesReadByType:
    """A stored value is read by its JSON type, never converted: ``true`` is
    not 1, ``"0.1"`` is not 0.1 and the track id ``7`` is not ``"7"``."""

    @pytest.mark.parametrize("line_no, key, raw", [
        (1, "frame_period", "true"), (1, "sensing_range", '"50"'), (1, "sensor_id", "5"),
        (3, "x", "true"), (3, "t", '"0.1"'), (4, "l", "true"), (4, "w", '"1.5"'),
        (5, "track_id", "7"), (6, "sensor_id", '"other"'), (6, "sensor_id", "null"),
    ], ids=["header-frame_period-true", "header-sensing_range-string", "header-sensor_id-int",
            "x-true", "t-string", "l-true", "w-string", "track_id-int", "sensor_id-other",
            "sensor_id-null"])
    def test_database_names_line_and_field(self, sample_db, tmp_path, line_no, key, raw):
        path = tmp_path / "db.jsonl"
        io.write_database_jsonl(sample_db, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[line_no - 1])
        if line_no == 1:
            lines[0] = json.dumps({"meta": json.loads(_with_raw(record["meta"], key, raw))})
        else:
            lines[line_no - 1] = _with_raw(record, key, raw)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(io.FileFormatError, match=f"{path}:{line_no}: .*{key}: must be"):
            io.read_database_jsonl(path)

    @pytest.mark.parametrize("key, raw", [("tx", '"1.5"'), ("dt", "false"), ("qw", "true")],
                             ids=["tx-string", "dt-false", "qw-true"])
    def test_transform_file_names_the_field(self, tmp_path, rng, key, raw):
        path = tmp_path / "tf.json"
        path.write_text(_with_raw(random_transform(rng).to_dict(), key, raw))
        with pytest.raises(io.FileFormatError,
                           match=f"invalid transform file: {key}: must be a number"):
            io.read_transform_json(path)

    @pytest.mark.parametrize("first", ["", "   "])
    def test_blank_first_line_is_a_missing_header(self, sample_db, tmp_path, first):
        path = tmp_path / "db.jsonl"
        io.write_database_jsonl(sample_db, path)
        path.write_text(first + "\n" + path.read_text())
        with pytest.raises(io.FileFormatError,
                           match=f"{path}:1: first line must carry a 'meta' header"):
            io.read_database_jsonl(path)


class TestConfigFiles:
    def test_parse_and_build_scenario(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text(
            "# demo scenario\n"
            "layout = three_way\n"
            "n_vehicles = 12\n"
            "duration = 30.0\n"
            "noise_sigma = 0.2   # meters\n"
            "time_offset = 1.5\n"
            "seed = 9\n"
        )
        mapping = io.parse_config_file(path)
        cfg = default_scenario(**mapping)
        assert cfg.layout == "three_way"
        assert cfg.n_vehicles == 12
        assert cfg.noise_sigma == 0.2
        assert cfg.seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("beam_count = 32\n")
        with pytest.raises(io.FileFormatError, match="unknown key"):
            io.parse_config_file(path)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("duration = fast\n")
        with pytest.raises(io.FileFormatError, match=":1:"):
            io.parse_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("duration 30\n")
        with pytest.raises(io.FileFormatError, match="key = value"):
            io.parse_config_file(path)

    def test_bad_layout_rejected(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("layout = roundabout\n")
        with pytest.raises(io.FileFormatError, match="layout"):
            io.parse_config_file(path)


class TestDebugDumps:
    def test_features_csv(self, sample_db, tmp_path):
        from trajcal.features import extract_features

        path = tmp_path / "features.csv"
        io.write_features_csv(sample_db, extract_features(sample_db, 3), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "sensor_id,track_id,frame,c,alpha,sigma2,valid"
        assert len(lines) == 1 + sample_db.n_positions

    def test_matches_csv(self, tmp_path):
        from trajcal.features import extract_features
        from trajcal.matching import MatchWeights, filter_bbox, filter_mutual_nn, motion_match

        cfg = default_scenario(n_vehicles=6, duration=20.0, noise_sigma=0.1, seed=3)
        db_p, db_q, _ = make_pair(cfg)
        fp, fq = extract_features(db_p, 3), extract_features(db_q, 3)
        matches = motion_match(fp, fq, MatchWeights())
        survivors = {
            "mutual": filter_mutual_nn(matches, fp, fq, MatchWeights()),
            "bbox": filter_bbox(matches, db_p, db_q, 0.5),
            "none": [],
        }
        path = tmp_path / "matches.csv"
        io.write_matches_csv(matches, survivors, db_p, db_q, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "p_track,p_frame,q_track,q_frame,dist,mutual,bbox,none"
        assert len(lines) == 1 + len(matches)
        rows = [line.split(",") for line in lines[1:]]
        for col, kept in enumerate(survivors.values(), start=5):
            assert [r[col] for r in rows] == [str(int(m in kept)) for m in matches]
        assert {r[5] for r in rows} == {"0", "1"}

    def test_fmt_six_significant_digits(self):
        assert io.fmt(3.14159265) == "3.14159"
        assert io.fmt(28.800000001) == "28.8"
        assert io.fmt(0.000123456789) == "0.000123457"
