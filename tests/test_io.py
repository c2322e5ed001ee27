"""File formats: JSONL databases, transform/session JSON, config files."""

import json

import pytest

from trajcal import io
from trajcal.pipeline import CalibrationSession
from trajcal.simulator import default_scenario, make_pair

from conftest import random_transform


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

    def test_rewrite_is_byte_identical(self, sample_db, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        io.write_database_jsonl(sample_db, a)
        io.write_database_jsonl(io.read_database_jsonl(a), b)
        assert a.read_bytes() == b.read_bytes()


class TestTransformAndSessionJson:
    def test_transform_round_trip(self, tmp_path, rng):
        tf = random_transform(rng)
        path = tmp_path / "tf.json"
        io.write_transform_json(tf, path)
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
    ], ids=["n_pp-inf", "n_po-minus-inf", "score-400-digits", "tx-400-digits"])
    def test_session_file_with_a_number_out_of_range_names_it(self, tmp_path, rng, field, raw):
        record = CalibrationSession(random_transform(rng), 0.5, 10, 20, 3, True, 1.0).to_dict()
        (record["transform"] if field == "tx" else record)[field] = "@"
        path = tmp_path / "session.json"
        path.write_text(json.dumps(record).replace('"@"', raw))
        with pytest.raises(io.FileFormatError, match=f"invalid session file: {field}: "):
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
        cfg = io.scenario_from_mapping(mapping)
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
