"""Domain types and the rigid space-time transform linking two sensor frames.

Positions, trajectories and trajectory databases are immutable value objects.
The 4D transform stores its rotation as a canonical unit quaternion
(non-negative scalar part) and its clock shift as a plain scalar offset:
time never rotates, so the temporal part of the transform is exactly one
additive constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

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
    """One timestamped 3D observation of one tracked object.

    Coordinates are meters in the owning sensor's frame, ``t`` is seconds on
    the owning sensor's clock, ``bbox`` is (length, width, height).
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
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z, self.t)):
            raise ValueError("position coordinates and timestamp must be finite")
        if self.frame_index < 0:
            raise ValueError(f"frame_index must be non-negative, got {self.frame_index}")
        box = tuple(float(v) for v in self.bbox)
        if len(box) != 3 or any(not math.isfinite(v) or v <= 0 for v in box):
            raise ValueError(f"bbox dimensions must be strictly positive: {self.bbox!r}")
        object.__setattr__(self, "bbox", box)
        if self.class_label not in CLASS_LABELS:
            raise ValueError(f"unknown class label {self.class_label!r}")

    @property
    def xyz(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class Trajectory:
    """Chronologically ordered positions of one tracked object."""

    track_id: str
    positions: tuple[Position, ...]

    def __post_init__(self):
        positions = tuple(self.positions)
        object.__setattr__(self, "positions", positions)
        if not positions:
            raise ValueError("trajectory must contain at least one position")
        label = positions[0].class_label
        prev = None
        for p in positions:
            if p.track_id != self.track_id:
                raise ValueError(
                    f"position track_id {p.track_id!r} differs from trajectory {self.track_id!r}"
                )
            if p.class_label != label:
                raise ValueError(f"mixed class labels in trajectory {self.track_id!r}")
            if prev is not None and (p.t <= prev.t or p.frame_index <= prev.frame_index):
                raise ValueError(
                    f"timestamps/frames must strictly increase in trajectory {self.track_id!r}"
                )
            prev = p

    def __len__(self) -> int:
        return len(self.positions)

    def __iter__(self) -> Iterator[Position]:
        return iter(self.positions)

    @property
    def class_label(self) -> str:
        return self.positions[0].class_label

    @cached_property
    def xyz(self) -> np.ndarray:
        a = np.array([[p.x, p.y, p.z] for p in self.positions])
        a.setflags(write=False)
        return a

    @cached_property
    def times(self) -> np.ndarray:
        a = np.array([p.t for p in self.positions])
        a.setflags(write=False)
        return a

    @cached_property
    def frames(self) -> np.ndarray:
        a = np.array([p.frame_index for p in self.positions], dtype=np.int64)
        a.setflags(write=False)
        return a


@dataclass(frozen=True)
class TrajectoryDatabase:
    """All trajectories one sensor produced over a recording window."""

    sensor_id: str
    trajectories: tuple[Trajectory, ...]
    frame_period: float
    sensing_range: float

    def __post_init__(self):
        object.__setattr__(self, "trajectories", tuple(self.trajectories))
        for name in ("frame_period", "sensing_range"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        ids = [t.track_id for t in self.trajectories]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate track ids in database {self.sensor_id!r}")

    def __len__(self) -> int:
        return len(self.trajectories)

    def __iter__(self) -> Iterator[Trajectory]:
        return iter(self.trajectories)

    @property
    def n_positions(self) -> int:
        return sum(len(t) for t in self.trajectories)

    def stack(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, xyz, times, frames)`` of every position, trajectory by
        trajectory: trajectory ``ti``'s rows are ``starts[ti]:starts[ti + 1]``."""
        lengths = [len(t) for t in self.trajectories]
        starts = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
        if not lengths:
            return starts, np.empty((0, 3)), np.empty(0), np.empty(0, dtype=np.int64)
        return (
            starts,
            np.vstack([t.xyz for t in self.trajectories]),
            np.concatenate([t.times for t in self.trajectories]),
            np.concatenate([t.frames for t in self.trajectories]),
        )


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

    def apply(self, p: Position) -> Position:
        x, y, z = self.matrix @ (p.x, p.y, p.z) + self.translation
        return Position(
            x=float(x),
            y=float(y),
            z=float(z),
            t=p.t + self.time_offset,
            frame_index=p.frame_index,
            bbox=p.bbox,
            class_label=p.class_label,
            track_id=p.track_id,
        )

    def compose(self, other: "Transform4D") -> "Transform4D":
        """self after other: self.compose(other).apply(p) == self.apply(other.apply(p))."""
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
            q = (d["qw"], d["qx"], d["qy"], d["qz"])
            t = (d["tx"], d["ty"], d["tz"])
            dt = d["dt"]
        except KeyError as exc:
            raise ValueError(f"transform record missing key {exc}") from exc
        return cls(np.array(q, dtype=float), np.array(t, dtype=float), float(dt))


# ---------------------------------------------------------------------------
# module-level operations on the transform


def transform_database(tf: Transform4D, db: TrajectoryDatabase) -> TrajectoryDatabase:
    return TrajectoryDatabase(
        sensor_id=db.sensor_id,
        trajectories=tuple(
            Trajectory(t.track_id, tuple(tf.apply(p) for p in t.positions))
            for t in db.trajectories
        ),
        frame_period=db.frame_period,
        sensing_range=db.sensing_range,
    )


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
