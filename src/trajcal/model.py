"""Domain types and the rigid space-time transform linking two sensor frames.

A trajectory is read-only columns (positions, times, frames and boxes) plus
its track id and class; ``Position`` is the record type for building one by
hand. Trajectories and trajectory databases are immutable value objects, so
a database holds its positions once, as rows (``stack``) of which its
trajectories are read-only views, and counts each radius's neighbours once
and keeps the table.
The 4D transform stores its rotation as a canonical unit quaternion
(non-negative scalar part) and its clock shift as a plain scalar offset:
time never rotates, so the temporal part of the transform is exactly one
additive constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .join import window_join

CLASS_LABELS = ("car", "truck", "pedestrian", "bicycle", "other")

_QUAT_TOL = 1e-9


# ---------------------------------------------------------------------------
# quaternion helpers, (w, x, y, z) ordering


def quat_canonical(q: Sequence[float]) -> np.ndarray:
    """Normalize and fix the sign so the scalar part is non-negative."""
    arr = np.asarray(q, dtype=float).reshape(4)
    n = float(np.linalg.norm(arr))
    if not math.isfinite(n):
        raise ValueError(f"non-finite quaternion {arr.tolist()}")
    if n < _QUAT_TOL:
        raise ValueError("zero-norm quaternion")
    arr = arr / n
    # full sign canonicalization keeps serialized output deterministic
    for component in arr:
        if component > 0:
            break
        if component < 0:
            arr = -arr
            break
    return arr


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def matrix_to_quat(m: np.ndarray) -> np.ndarray:
    """Shepperd's method; expects a proper rotation matrix."""
    m = np.asarray(m, dtype=float)
    t = m[0, 0] + m[1, 1] + m[2, 2]
    if t > 0:
        s = math.sqrt(t + 1.0) * 2.0
        q = [s / 4, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = [(m[2, 1] - m[1, 2]) / s, s / 4, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
    elif m[1, 1] >= m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, s / 4, (m[1, 2] + m[2, 1]) / s]
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, s / 4]
    return quat_canonical(q)


def quat_from_axis_angle(axis: Sequence[float], angle_rad: float) -> np.ndarray:
    ax = np.asarray(axis, dtype=float).reshape(3)
    n = float(np.linalg.norm(ax))
    if n < _QUAT_TOL:
        raise ValueError("zero-norm rotation axis")
    ax = ax / n
    half = 0.5 * angle_rad
    return quat_canonical(np.concatenate(([math.cos(half)], math.sin(half) * ax)))


# ---------------------------------------------------------------------------
# value types


@dataclass(frozen=True)
class Position:
    """One timestamped 3D observation of one tracked object: the record for
    building a trajectory by hand, ``Trajectory(track_id, positions)``.

    Coordinates are meters in the owning sensor's frame, ``t`` is seconds on
    the owning sensor's clock, ``bbox`` is (length, width, height). It is
    checked as a one-row trajectory is.
    """

    x: float
    y: float
    z: float
    t: float
    frame_index: int
    bbox: tuple[float, float, float]
    class_label: str
    track_id: str

    def __post_init__(self):
        object.__setattr__(self, "bbox", tuple(float(v) for v in self.bbox))
        _checked_columns(self.track_id, self.class_label,
                         [self.xyz], [self.t], [self.frame_index], [self.bbox])

    @property
    def xyz(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def _checked_columns(track_id, class_label, xyz, times, frames, bbox):
    """The columns as read-only C-ordered arrays, once they are non-empty and
    agree in shape, with finite values, positive boxes, a known class, and
    non-negative, strictly increasing frames and strictly increasing times."""
    xyz, times, bbox = (np.array(c, dtype=float, order="C") for c in (xyz, times, bbox))
    frames = np.array(frames, dtype=np.int64)
    n = times.size
    if n == 0:
        raise ValueError("trajectory must contain at least one position")
    if (xyz.shape, times.shape, frames.shape, bbox.shape) != ((n, 3), (n,), (n,), (n, 3)):
        raise ValueError(f"xyz, times, frames and bbox columns disagree in shape: "
                         f"{xyz.shape}, {times.shape}, {frames.shape}, {bbox.shape}")
    if not (np.isfinite(xyz).all() and np.isfinite(times).all()):
        raise ValueError("position coordinates and timestamp must be finite")
    if frames.min() < 0:
        raise ValueError(f"frame_index must be non-negative, got {frames.min()}")
    bad_box = ~(np.isfinite(bbox) & (bbox > 0)).all(axis=1)
    if bad_box.any():
        raise ValueError(f"bbox dimensions must be strictly positive: {bbox[bad_box][0]}")
    if class_label not in CLASS_LABELS:
        raise ValueError(f"unknown class label {class_label!r}")
    if (np.diff(times) <= 0).any() or (np.diff(frames) <= 0).any():
        raise ValueError(f"timestamps/frames must strictly increase in trajectory {track_id!r}")
    for column in (xyz, times, frames, bbox):
        column.setflags(write=False)
    return xyz, times, frames, bbox


@dataclass(frozen=True, init=False, eq=False)
class Trajectory:
    """One tracked object's observations in time order, as read-only
    columns: ``xyz`` (n, 3), ``times`` (n,), ``frames`` (n,) and ``bbox``
    (n, 3), in the units of ``Position``."""

    track_id: str
    class_label: str
    xyz: np.ndarray
    times: np.ndarray
    frames: np.ndarray
    bbox: np.ndarray

    def __init__(self, track_id: str, positions: Sequence[Position]):
        """The trajectory of hand-built ``Position`` records."""
        positions = tuple(positions)
        label = positions[0].class_label if positions else None
        if any(p.track_id != track_id or p.class_label != label for p in positions):
            raise ValueError(f"positions differ in track_id or class label from trajectory "
                             f"{track_id!r}")
        self._fill(track_id, label, *_checked_columns(
            track_id, label, [(p.x, p.y, p.z) for p in positions], [p.t for p in positions],
            [p.frame_index for p in positions], [p.bbox for p in positions]))

    @classmethod
    def from_columns(cls, track_id, class_label, xyz, times, frames, bbox) -> "Trajectory":
        """The trajectory of copies of the given columns."""
        traj = object.__new__(cls)
        traj._fill(track_id, class_label,
                   *_checked_columns(track_id, class_label, xyz, times, frames, bbox))
        return traj

    def _fill(self, *values) -> None:
        """Hold ``values``, in field order, as they are."""
        vars(self).update(zip(self.__dataclass_fields__, values))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True, eq=False)
class Rows:
    """A database's positions stacked trajectory by trajectory, as columns:
    trajectory ``ti`` holds rows ``starts[ti]:starts[ti + 1]``, and row ``r``
    is a position of trajectory ``track[r]``."""

    starts: np.ndarray
    track: np.ndarray
    xyz: np.ndarray
    times: np.ndarray
    frames: np.ndarray
    bbox: np.ndarray

    def at(self, traj, pos) -> np.ndarray:
        """The row of position ``pos`` of trajectory ``traj``."""
        return self.starts[traj] + pos

    def locate(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """``(traj, pos)`` of each row, the inverse of ``at``."""
        traj = self.track[rows]
        return traj, rows - self.starts[traj]


@dataclass(frozen=True)
class TrajectoryDatabase:
    """All trajectories one sensor produced over a recording window, each
    position held once: ``trajectories`` are read-only views into ``stack()``."""

    sensor_id: str
    trajectories: tuple[Trajectory, ...]
    frame_period: float
    sensing_range: float

    def __post_init__(self):
        trajs = tuple(self.trajectories)
        for name in ("frame_period", "sensing_range"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        ids = [t.track_id for t in trajs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate track ids in database {self.sensor_id!r}")
        # each position is held once, in the rows; every trajectory becomes
        # a read-only view of its own rows, so the columns it was built from
        # are freed unless the caller keeps them
        starts = np.concatenate(([0], np.cumsum([len(t) for t in trajs], dtype=np.int64)))
        if trajs:
            columns = [np.concatenate([getattr(t, name) for t in trajs])
                       for name in ("xyz", "times", "frames", "bbox")]
        else:
            columns = [np.empty((0, 3)), np.empty(0), np.empty(0, np.int64), np.empty((0, 3))]
        rows = Rows(starts, np.repeat(np.arange(len(trajs)), np.diff(starts)), *columns)
        for column in vars(rows).values():
            column.setflags(write=False)
        views = [object.__new__(Trajectory) for _ in trajs]
        bounds = starts.tolist()
        for view, t, lo, hi in zip(views, trajs, bounds, bounds[1:]):
            view._fill(t.track_id, t.class_label, *(c[lo:hi] for c in columns))
        object.__setattr__(self, "trajectories", tuple(views))
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_neighbor_tables", {})  # radius -> neighbor_counts

    def __len__(self) -> int:
        return len(self.trajectories)

    def __iter__(self) -> Iterator[Trajectory]:
        return iter(self.trajectories)

    @property
    def n_positions(self) -> int:
        return sum(len(t) for t in self.trajectories)

    def stack(self) -> Rows:
        """Every position as one row of read-only columns: the one copy the
        database holds, of which its trajectories are views."""
        return self._rows

    def neighbor_counts(self, radius: float) -> np.ndarray:
        """Per row of ``stack()``: how many positions of *other* trajectories
        share its frame within ``radius``. Each radius's table is computed
        once and kept, read-only."""
        if radius in self._neighbor_tables:
            return self._neighbor_tables[radius]
        rows = self.stack()
        order = np.argsort(rows.frames, kind="stable")
        by_frame = rows.frames[order]
        ranked = np.zeros(len(order), dtype=np.int64)  # counts in frame order
        r2 = radius * radius
        # every pair of positions sharing a frame (a zero-width join); each
        # position is its own pair, so a block's owners are a full run of rows
        for i, j in window_join(by_frame, by_frame, 0):
            a, b = order[i], order[j]
            near = (rows.track[a] != rows.track[b]) & (
                np.sum((rows.xyz[a] - rows.xyz[b]) ** 2, axis=-1) <= r2)
            ranked[i[0]:i[-1] + 1] = np.bincount(i[near] - i[0], minlength=i[-1] - i[0] + 1)
        counts = np.empty_like(ranked)
        counts[order] = ranked
        counts.setflags(write=False)
        self._neighbor_tables[radius] = counts
        return counts


@dataclass(frozen=True, eq=False)
class Transform4D:
    """Rigid spatial transform plus a constant clock offset.

    Maps a point from the source frame into the target frame:
    ``xyz' = R @ xyz + translation`` and ``t' = t + time_offset``.
    """

    rotation: np.ndarray  # unit quaternion (w, x, y, z), w >= 0
    translation: np.ndarray  # (3,) meters
    time_offset: float  # seconds

    def __post_init__(self):
        q = quat_canonical(self.rotation)
        t = np.asarray(self.translation, dtype=float).reshape(3).copy()
        if not np.all(np.isfinite(t)) or not math.isfinite(self.time_offset):
            raise ValueError("translation and time offset must be finite")
        q.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", q)
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "time_offset", float(self.time_offset))

    # construction ----------------------------------------------------------

    @staticmethod
    def identity() -> "Transform4D":
        return Transform4D(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3), 0.0)

    @classmethod
    def from_matrix(
        cls, rotation_matrix: np.ndarray, translation=(0.0, 0.0, 0.0), time_offset: float = 0.0
    ) -> "Transform4D":
        m = np.asarray(rotation_matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"rotation matrix must be 3x3, got {m.shape}")
        if not np.allclose(m.T @ m, np.eye(3), atol=1e-6) or np.linalg.det(m) < 0:
            raise ValueError("rotation matrix must be orthonormal with determinant +1")
        return cls(matrix_to_quat(m), np.asarray(translation, dtype=float), time_offset)

    @classmethod
    def from_yaw_deg(
        cls, yaw_deg: float, translation=(0.0, 0.0, 0.0), time_offset: float = 0.0
    ) -> "Transform4D":
        return cls(quat_from_axis_angle((0, 0, 1), math.radians(yaw_deg)), translation, time_offset)

    # algebra ----------------------------------------------------------------

    @cached_property
    def matrix(self) -> np.ndarray:
        m = quat_to_matrix(self.rotation)
        m.setflags(write=False)
        return m

    def apply_points(self, xyz: np.ndarray) -> np.ndarray:
        pts = np.asarray(xyz, dtype=float)
        return pts @ self.matrix.T + self.translation

    def compose(self, other: "Transform4D") -> "Transform4D":
        """self after other: mapping points through ``self.compose(other)``
        maps them through ``other``, then ``self``."""
        return Transform4D(
            quat_multiply(self.rotation, other.rotation),
            self.matrix @ other.translation + self.translation,
            self.time_offset + other.time_offset,
        )

    def inverse(self) -> "Transform4D":
        q = quat_conjugate(self.rotation)
        return Transform4D(q, -(self.matrix.T @ self.translation), -self.time_offset)

    def approx_equal(self, other: "Transform4D", tol: float = 1e-9) -> bool:
        return (
            float(np.max(np.abs(self.rotation - other.rotation))) <= tol
            and float(np.max(np.abs(self.translation - other.translation))) <= tol
            and abs(self.time_offset - other.time_offset) <= tol
        )

    # serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        qw, qx, qy, qz = (float(v) for v in self.rotation)
        tx, ty, tz = (float(v) for v in self.translation)
        return {
            "qw": qw,
            "qx": qx,
            "qy": qy,
            "qz": qz,
            "tx": tx,
            "ty": ty,
            "tz": tz,
            "dt": self.time_offset,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Transform4D":
        try:
            q = [_record_number(d, key) for key in ("qw", "qx", "qy", "qz")]
            t = [_record_number(d, key) for key in ("tx", "ty", "tz")]
            dt = _record_number(d, "dt")
        except KeyError as exc:
            raise ValueError(f"transform record missing key {exc}") from exc
        q = np.array(q)
        tf = cls(q, np.array(t), dt)
        # a stored canonical unit quaternion reads back as written, bit for
        # bit: normalising it again can move it by an ulp
        if np.max(np.abs(tf.rotation - q)) <= 1e-12:
            q.setflags(write=False)
            object.__setattr__(tf, "rotation", q)
        return tf


def _record_number(record: dict, key: str) -> float:
    """``record[key]``, a JSON number (``true`` and ``"0.1"`` are not), as a
    float; a ValueError naming ``key`` otherwise. Its reader checks its range."""
    value = record[key]
    try:
        if type(value) in (int, float):
            return float(value)
    except OverflowError as exc:
        raise ValueError(f"{key}: {exc}") from exc
    raise ValueError(f"{key}: must be a number, got {value!r}")


def _record_int(record: dict, key: str, low, high, kind: str) -> int:
    """``record[key]``, a JSON integer or a float with an integral value, in
    ``[low, high)``; ``true``, ``"7"``, ``12.9`` and ``Infinity`` are not."""
    value = record[key]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int or not low <= value < high:
        raise ValueError(f"{key}: must be a {kind} integer, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# module-level operations on the transform


def transform_database(tf: Transform4D, db: TrajectoryDatabase) -> TrajectoryDatabase:
    """``db`` mapped through ``tf``, each point rounded as
    ``tf.matrix @ xyz + tf.translation`` rounds it."""
    return replace(db, trajectories=tuple(
        Trajectory.from_columns(
            t.track_id, t.class_label,
            np.matmul(tf.matrix, t.xyz[:, :, None])[:, :, 0] + tf.translation,
            t.times + tf.time_offset, t.frames, t.bbox)
        for t in db.trajectories))


def blend_transforms(a: Transform4D, b: Transform4D, wa: float, wb: float) -> Transform4D:
    """Weighted combination: linear on translation/offset, hemisphere-aligned
    normalized weighted quaternion sum on rotation."""
    if wa < 0 or wb < 0 or wa + wb <= 0:
        raise ValueError("blend weights must be non-negative with positive sum")
    s = wa + wb
    wa, wb = wa / s, wb / s
    qb = b.rotation if float(np.dot(a.rotation, b.rotation)) >= 0 else -b.rotation
    q = wa * a.rotation + wb * qb
    if float(np.linalg.norm(q)) < _QUAT_TOL:
        raise ValueError("cannot blend antipodal rotations with these weights")
    return Transform4D(
        q,
        wa * a.translation + wb * b.translation,
        wa * a.time_offset + wb * b.time_offset,
    )
