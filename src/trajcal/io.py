"""File formats: JSONL trajectory databases, transform/session JSON, debug
CSV dumps, and the declarative scenario config format.

A database file starts with a header line carrying a ``meta`` object
({sensor_id, frame_period, sensing_range}) followed by one JSON object per
position: {sensor_id, track_id, frame, t, x, y, z, l, w, h, class}.
"""

from __future__ import annotations

import csv
import inspect
import json
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .features import FeatureDatabase
from .matching import PositionMatch
from .model import Trajectory, TrajectoryDatabase, Transform4D, _record_int, _record_number
from .pipeline import CalibrationSession
from .simulator import LAYOUTS, default_scenario


class FileFormatError(ValueError):
    """Malformed input file; message carries path and line context."""


def fmt(value: float) -> str:
    """Floats printed with 6 significant digits (stable CLI output)."""
    return f"{value:.6g}"


# ---------------------------------------------------------------------------
# trajectory databases


def write_database_jsonl(db: TrajectoryDatabase, path) -> None:
    with open(path, "w") as fh:
        header = {
            "meta": {
                "sensor_id": db.sensor_id,
                "frame_period": db.frame_period,
                "sensing_range": db.sensing_range,
            }
        }
        fh.write(json.dumps(header) + "\n")
        # json.dumps once per track; numbers as repr, which is what json
        # writes for the finite numbers a trajectory holds
        sensor = json.dumps(db.sensor_id)
        for traj in db.trajectories:
            head = f'{{"sensor_id": {sensor}, "track_id": {json.dumps(traj.track_id)}, "frame": '
            tail = f', "class": {json.dumps(traj.class_label)}}}\n'
            fh.writelines(
                f'{head}{frame!r}, "t": {t!r}, "x": {x!r}, "y": {y!r}, "z": {z!r}, '
                f'"l": {l!r}, "w": {w!r}, "h": {h!r}{tail}'
                for (x, y, z), t, frame, (l, w, h) in zip(
                    traj.xyz.tolist(), traj.times.tolist(), traj.frames.tolist(),
                    traj.bbox.tolist()))


def _track(track_id, rows: list) -> Trajectory:
    """One track's ``(line, x, y, z, t, frame, l, w, h, class)`` rows, as read."""
    _, x, y, z, t, frames, l, w, h, labels = zip(*rows)
    if type(track_id) is not str:
        raise ValueError(f"track_id: must be a string, got {track_id!r}")
    for key, column in zip("xyztlwh", (x, y, z, t, l, w, h)):
        if not set(map(type, column)) <= {int, float}:  # one row's fault: the caller names it
            raise ValueError(f"{key}: must be a number, got {column[0]!r}")
    if len(set(labels)) > 1:
        raise ValueError(f"mixed class labels in trajectory {track_id!r}")
    return Trajectory.from_columns(
        track_id, labels[0], np.transpose((x, y, z)), t, frames, np.transpose((l, w, h)))


def read_database_jsonl(path) -> TrajectoryDatabase:
    path = Path(path)
    tracks: dict = {}
    meta = None
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line and line_no > 1:
                continue
            try:
                record = json.loads(line) if line else None  # a blank line 1 holds no header
            except json.JSONDecodeError as exc:
                raise FileFormatError(f"{path}:{line_no}: invalid JSON ({exc.msg})") from exc
            if line_no == 1:
                meta = record.get("meta") if isinstance(record, dict) else None
                if not isinstance(meta, dict):
                    raise FileFormatError(f"{path}:1: first line must carry a 'meta' header")
                try:  # a missing or mistyped key is named as a record's is
                    sensor_id = meta["sensor_id"]
                    if type(sensor_id) is not str:
                        raise ValueError(f"sensor_id: must be a string, got {sensor_id!r}")
                    frame_period, sensing_range = (
                        _record_number(meta, key) for key in ("frame_period", "sensing_range"))
                except (KeyError, ValueError) as exc:
                    raise FileFormatError(f"{path}:1: bad meta header: {exc}") from exc
                continue
            try:
                if record["sensor_id"] != sensor_id:
                    raise ValueError(f"sensor_id: must be the header's {sensor_id!r}")
                row = (line_no, record["x"], record["y"], record["z"], record["t"],
                       _record_int(record, "frame", -2**63, 2**63, "64-bit"),
                       record["l"], record["w"], record["h"], str(record["class"]))
                tracks.setdefault(record["track_id"], []).append(row)
            except (KeyError, TypeError, ValueError) as exc:
                raise FileFormatError(f"{path}:{line_no}: bad position record: {exc}") from exc
    if meta is None:
        raise FileFormatError(f"{path}: file is empty; expected a meta header line")
    trajectories = []
    for track_id, rows in tracks.items():
        try:
            trajectories.append(_track(track_id, rows))
        except (ValueError, OverflowError) as exc:
            # name the first line that is bad on its own, if one is
            for row in rows:
                try:
                    _track(track_id, [row])
                except (ValueError, OverflowError) as row_exc:
                    raise FileFormatError(
                        f"{path}:{row[0]}: bad position record: {row_exc}") from row_exc
            raise FileFormatError(f"{path}: track {track_id!r}: {exc}") from exc
    try:
        return TrajectoryDatabase(
            sensor_id=sensor_id,
            trajectories=tuple(trajectories),
            frame_period=frame_period,
            sensing_range=sensing_range,
        )
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# transforms, sessions, metric reports


def write_json(obj, path) -> None:
    """``obj.to_dict()`` as indented JSON: a transform, a session or a
    metric report."""
    with open(path, "w") as fh:
        json.dump(obj.to_dict(), fh, indent=2)
        fh.write("\n")


def _read_record(kind, path, what: str):
    """``kind.from_dict`` of the JSON file at ``path``, a ``what`` file."""
    try:
        return kind.from_dict(json.loads(Path(path).read_text()))
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{Path(path)}: invalid {what} file: {exc}") from exc


def read_transform_json(path) -> Transform4D:
    return _read_record(Transform4D, path, "transform")


def write_session_json(session: CalibrationSession, path) -> None:
    write_json(session, path)


def read_session_json(path) -> CalibrationSession:
    return _read_record(CalibrationSession, path, "session")


# ---------------------------------------------------------------------------
# scenario config files (key = value lines)

_SCENARIO_KEYS = {name: type(param.default)
                  for name, param in inspect.signature(default_scenario).parameters.items()}


def parse_config_file(path) -> dict:
    """Parse ``key = value`` lines ('#' starts a comment). The keys are
    ``default_scenario``'s keywords, each value read as the type of its
    default; unknown keys fail."""
    path = Path(path)
    out: dict = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FileFormatError(f"{path}:{line_no}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _SCENARIO_KEYS:
                raise FileFormatError(
                    f"{path}:{line_no}: unknown key {key!r} "
                    f"(known: {', '.join(sorted(_SCENARIO_KEYS))})"
                )
            caster = _SCENARIO_KEYS[key]
            try:
                out[key] = caster(value)
            except ValueError as exc:
                raise FileFormatError(
                    f"{path}:{line_no}: bad value for {key!r}: {value!r}"
                ) from exc
    if "layout" in out and out["layout"] not in LAYOUTS:
        raise FileFormatError(f"{path}: layout must be one of {LAYOUTS}")
    return out


# ---------------------------------------------------------------------------
# debug CSV dumps


def write_features_csv(db: TrajectoryDatabase, fdb: FeatureDatabase, path) -> None:
    track_ids = [t.track_id for t in db.trajectories]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sensor_id", "track_id", "frame", "c", "alpha", "sigma2", "valid"])
        for track, frame, c, alpha, sigma2, valid in zip(
            db.stack().track.tolist(), db.stack().frames.tolist(), fdb.curvature.tolist(),
            fdb.velocity_mean.tolist(), fdb.velocity_variance.tolist(), fdb.valid.tolist(),
        ):
            writer.writerow([db.sensor_id, track_ids[track], frame, repr(c), repr(alpha),
                             repr(sigma2), int(valid)])


def write_matches_csv(
    matches: Sequence[PositionMatch],
    survivors: Mapping[str, Sequence[PositionMatch]],
    db_p: TrajectoryDatabase,
    db_q: TrajectoryDatabase,
    path,
) -> None:
    """One row per match; each ``survivors`` entry (filter name -> that
    filter's output) becomes a 0/1 column marking the matches it kept."""
    kept = {name: set(out) for name, out in survivors.items()}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p_track", "p_frame", "q_track", "q_frame", "dist", *kept])
        for m in matches:
            traj_p = db_p.trajectories[m.ref[0]]
            traj_q = db_q.trajectories[m.cand[0]]
            writer.writerow([traj_p.track_id, int(traj_p.frames[m.ref[1]]), traj_q.track_id,
                             int(traj_q.frames[m.cand[1]]), repr(m.feature_distance),
                             *(int(m in out) for out in kept.values())])
