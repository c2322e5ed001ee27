"""Synthetic ground-truth scenarios: intersection traffic, sensor visibility
clipping, noise injection, and a hidden space-time transform between the two
sensors.

World motion is analytic (line segments blended with circular fillet arcs,
constant speed per object), so every sensor can sample the same world at its
own clock phase and the returned ground-truth transform is exact.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .model import Trajectory, TrajectoryDatabase, Transform4D

LAYOUTS = ("four_way", "three_way", "sidewalk")

_LANE_OFFSET = 1.75  # meters from road centerline to lane center
_LEG_LENGTH = 120.0  # meters of approach road on each leg
_SIDEWALK_LENGTH = 60.0
_MAX_GAP_FRAMES = 3  # tracker bridges gaps up to this many frames

_BBOX_RANGES = {
    "car": ((4.1, 4.9), (1.70, 1.95), (1.40, 1.65)),
    "truck": ((6.5, 10.0), (2.20, 2.60), (2.70, 3.60)),
    "pedestrian": ((0.5, 0.7), (0.50, 0.70), (1.55, 1.90)),
    "bicycle": ((1.6, 1.9), (0.55, 0.70), (1.50, 1.80)),
}
_SPEED_RANGES = {
    "car": (5.0, 15.0),
    "truck": (4.0, 11.0),
    "pedestrian": (0.6, 1.9),
    "bicycle": (2.5, 6.0),
}


# ---------------------------------------------------------------------------
# path geometry


@dataclass(frozen=True, eq=False)
class _Line:
    start: np.ndarray  # (2,)
    end: np.ndarray

    @cached_property
    def length(self) -> float:
        return float(np.linalg.norm(self.end - self.start))

    def points(self, s: np.ndarray) -> np.ndarray:
        u = (s / self.length)[:, None] if self.length > 0 else np.zeros((len(s), 1))
        return self.start + u * (self.end - self.start)


@dataclass(frozen=True, eq=False)
class _Arc:
    center: np.ndarray  # (2,)
    radius: float
    angle0: float
    sweep: float  # signed radians, positive = counterclockwise

    @cached_property
    def length(self) -> float:
        return self.radius * abs(self.sweep)

    def points(self, s: np.ndarray) -> np.ndarray:
        ang = self.angle0 + math.copysign(1.0, self.sweep) * s / self.radius
        return self.center + self.radius * np.column_stack([np.cos(ang), np.sin(ang)])


def _fillet(anchor1, dir1, anchor2, dir2, radius):
    """Arc of given radius tangent to two lane lines, with the lead-in
    tangent point on line 1 and the lead-out on line 2."""
    d1 = np.asarray(dir1, dtype=float)
    d2 = np.asarray(dir2, dtype=float)
    a1 = np.asarray(anchor1, dtype=float)
    a2 = np.asarray(anchor2, dtype=float)
    cross = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(cross) < 1e-12:
        raise ValueError("fillet requires non-parallel lines")
    side = math.copysign(1.0, cross)
    n1 = side * radius * np.array([-d1[1], d1[0]])
    n2 = side * radius * np.array([-d2[1], d2[0]])
    rhs = (a2 + n2) - (a1 + n1)
    mat = np.array([[d1[0], -d2[0]], [d1[1], -d2[1]]])
    u, _ = np.linalg.solve(mat, rhs)
    center = a1 + n1 + u * d1
    t1 = center - n1
    t2 = center - n2
    ang0 = math.atan2(t1[1] - center[1], t1[0] - center[0])
    ang1 = math.atan2(t2[1] - center[1], t2[0] - center[0])
    if side > 0:
        sweep = (ang1 - ang0) % (2.0 * math.pi)
    else:
        sweep = -((ang0 - ang1) % (2.0 * math.pi))
    return t1, _Arc(center, radius, ang0, sweep), t2


# ---------------------------------------------------------------------------
# world tracks


@dataclass(frozen=True, eq=False)
class WorldTrack:
    """One moving object: constant speed along a segment/arc route."""

    track_id: str
    class_label: str
    bbox: tuple[float, float, float]
    start_time: float
    speed: float
    segments: tuple

    @cached_property
    def _cum_lengths(self) -> np.ndarray:
        return np.concatenate(([0.0], np.cumsum([s.length for s in self.segments])))

    @property
    def total_length(self) -> float:
        return float(self._cum_lengths[-1])

    @property
    def end_time(self) -> float:
        return self.start_time + self.total_length / self.speed

    def sample(self, times: np.ndarray) -> np.ndarray:
        """World xyz at the given world times (caller keeps them in window)."""
        s = np.clip(self.speed * (np.asarray(times, dtype=float) - self.start_time),
                    0.0, self.total_length)
        seg_idx = np.clip(
            np.searchsorted(self._cum_lengths, s, side="right") - 1, 0, len(self.segments) - 1
        )
        xy = np.zeros((len(s), 2))
        for k, seg in enumerate(self.segments):
            mask = seg_idx == k
            if mask.any():
                xy[mask] = seg.points(s[mask] - self._cum_lengths[k])
        z = np.full(len(s), self.bbox[2] / 2.0)
        return np.column_stack([xy, z])


# ---------------------------------------------------------------------------
# scenario configuration


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    layout: str
    n_vehicles: int
    duration: float
    frame_period: float
    sensing_range_p: float
    sensing_range_q: float
    pose_p: Transform4D  # world -> sensor P, clock offset included
    pose_q: Transform4D
    noise_sigma: float
    dropout_rate: float
    seed: int

    def __post_init__(self):
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}; expected one of {LAYOUTS}")
        if self.n_vehicles < 0:
            raise ValueError("n_vehicles must be non-negative")
        for name in ("duration", "frame_period", "sensing_range_p", "sensing_range_q"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(
                f"noise_sigma must be finite and non-negative, got {self.noise_sigma}")
        if not 0 <= self.dropout_rate < 1:
            raise ValueError("dropout_rate must be in [0, 1)")
        _check_seed(self.seed)


def _check_seed(seed) -> None:
    """Name a negative number, which numpy's seeding rejects without a name;
    any other seed (None, a generator, a SeedSequence) goes to numpy as is."""
    if isinstance(seed, numbers.Real) and seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def sensor_pose(position, yaw_deg: float = 0.0, clock_offset: float = 0.0) -> Transform4D:
    """World->sensor transform for a sensor placed at ``position`` with the
    given heading, whose clock reads world time plus ``clock_offset``."""
    sensor_to_world = Transform4D.from_yaw_deg(yaw_deg, position, -clock_offset)
    return sensor_to_world.inverse()


def default_scenario(
    layout: str = "four_way",
    *,
    n_vehicles: int = 20,
    duration: float = 60.0,
    frame_period: float = 0.1,
    noise_sigma: float = 0.0,
    dropout_rate: float = 0.0,
    seed: int = 0,
    rotation_deg: float = 180.0,
    time_offset: float = 0.5,
    sensor_distance: float = 28.8,
    sensing_range: float = 50.0,
    sensor_height: float = 4.0,
) -> ScenarioConfig:
    """Two-sensor deployment with the sensors facing the scene from opposite
    sides; ``rotation_deg``/``time_offset`` become the ground-truth relative
    yaw and clock offset of the Q->P transform."""
    for name, value in (("rotation_deg", rotation_deg), ("time_offset", time_offset),
                        ("sensor_distance", sensor_distance), ("sensor_height", sensor_height),
                        ("sensing_range", sensing_range)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    half = sensor_distance / 2.0
    if layout == "sidewalk":
        pos_p = (0.0, -half, sensor_height)
        pos_q = (0.0, half, sensor_height)
        yaw_p = 90.0
    else:
        diag = half / math.sqrt(2.0)
        pos_p = (-diag, -diag, sensor_height)
        pos_q = (diag, diag, sensor_height)
        yaw_p = 45.0
    yaw_q = yaw_p + rotation_deg
    return ScenarioConfig(
        layout=layout,
        n_vehicles=n_vehicles,
        duration=duration,
        frame_period=frame_period,
        sensing_range_p=sensing_range,
        sensing_range_q=sensing_range,
        pose_p=sensor_pose(pos_p, yaw_p, time_offset),
        pose_q=sensor_pose(pos_q, yaw_q, 0.0),
        noise_sigma=noise_sigma,
        dropout_rate=dropout_rate,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# traffic generation

_INBOUND = {
    "four_way": [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)],
    "three_way": [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)],
}
_OUTBOUND = {
    "four_way": {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)},
    "three_way": {(1.0, 0.0), (-1.0, 0.0), (0.0, -1.0)},
}
_MANEUVER_WEIGHTS = {"straight": 0.55, "right": 0.25, "left": 0.20}


def _right_normal(d):
    return np.array([d[1], -d[0]])


def _exit_direction(d, maneuver):
    if maneuver == "straight":
        return np.asarray(d, dtype=float)
    if maneuver == "right":
        return np.array([d[1], -d[0]])
    return np.array([-d[1], d[0]])


def _vehicle_route(rng: np.random.Generator, layout: str) -> tuple:
    inbound = _INBOUND[layout]
    outbound = _OUTBOUND[layout]
    d = np.array(inbound[int(rng.integers(len(inbound)))])
    options = [
        m for m in _MANEUVER_WEIGHTS if tuple(_exit_direction(d, m)) in outbound
    ]
    weights = np.array([_MANEUVER_WEIGHTS[m] for m in options])
    maneuver = options[int(rng.choice(len(options), p=weights / weights.sum()))]
    e = _exit_direction(d, maneuver)
    if maneuver == "straight":
        lane = _LANE_OFFSET if rng.random() < 0.7 else _LANE_OFFSET + 3.5
        anchor = lane * _right_normal(d)
        return (_Line(anchor - _LEG_LENGTH * d, anchor + _LEG_LENGTH * d),)
    radius = float(rng.uniform(8.0, 13.0) if maneuver == "right" else rng.uniform(13.0, 20.0))
    a1 = _LANE_OFFSET * _right_normal(d)
    a2 = _LANE_OFFSET * _right_normal(e)
    t1, arc, t2 = _fillet(a1, d, a2, e, radius)
    return (
        _Line(a1 - _LEG_LENGTH * d, t1),
        arc,
        _Line(t2, a2 + _LEG_LENGTH * e),
    )


def _sidewalk_route(rng: np.random.Generator) -> tuple:
    side = 1.0 if rng.random() < 0.5 else -1.0
    y = side * 1.2 + float(rng.uniform(-0.4, 0.4))
    forward = side < 0  # keep-right walking convention
    x0, x1 = (-_SIDEWALK_LENGTH, _SIDEWALK_LENGTH) if forward else (_SIDEWALK_LENGTH, -_SIDEWALK_LENGTH)
    return (_Line(np.array([x0, y]), np.array([x1, y])),)


def _draw_bbox(rng: np.random.Generator, label: str) -> tuple[float, float, float]:
    return tuple(float(rng.uniform(lo, hi)) for lo, hi in _BBOX_RANGES[label])


def generate_world_tracks(cfg: ScenarioConfig) -> tuple[WorldTrack, ...]:
    """Analytic routes for every moving object, deterministic under the seed."""
    rng = np.random.default_rng([cfg.seed, 0])
    tracks = []
    for i in range(cfg.n_vehicles):
        if cfg.layout == "sidewalk":
            label = "pedestrian" if rng.random() < 0.7 else "bicycle"
            segments = _sidewalk_route(rng)
        else:
            label = "car" if rng.random() < 0.85 else "truck"
            segments = _vehicle_route(rng, cfg.layout)
        speed = float(rng.uniform(*_SPEED_RANGES[label]))
        start = float(rng.uniform(0.0, max(0.75 * cfg.duration, 1.0)))
        tracks.append(
            WorldTrack(
                track_id=f"v{i:03d}",
                class_label=label,
                bbox=_draw_bbox(rng, label),
                start_time=start,
                speed=speed,
                segments=segments,
            )
        )
    return tuple(tracks)


# ---------------------------------------------------------------------------
# sensor observation


def _split_runs(ks: np.ndarray, max_gap: int) -> list[np.ndarray]:
    if len(ks) == 0:
        return []
    breaks = np.nonzero(np.diff(ks) > max_gap)[0] + 1
    return [run for run in np.split(np.arange(len(ks)), breaks)]


def observe(
    world: Sequence,
    pose: Transform4D,
    sensing_range: float,
    *,
    frame_period: float,
    duration: float,
    noise_sigma: float = 0.0,
    dropout_rate: float = 0.0,
    seed: int = 0,
    sensor_id: str = "S",
) -> TrajectoryDatabase:
    """Everything one sensor records: world motion mapped through the sensor
    pose and clock, clipped to range, perturbed by Gaussian noise, thinned by
    dropout, and split into per-visibility-segment tracks.

    ``world`` holds objects with ``sample(times)``, ``start_time`` and
    ``end_time``, as ``WorldTrack``. The sensor samples on its own clock
    grid, so its world sampling phase shifts with the pose's clock offset.
    """
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    clock = pose.time_offset
    k_min = math.ceil(clock / frame_period - 1e-9)
    trajectories = []
    for track in world:
        lo = max(0.0, track.start_time)
        hi = min(duration, track.end_time)
        k0 = math.ceil((lo + clock) / frame_period - 1e-9)
        k1 = math.floor((hi + clock) / frame_period + 1e-9)
        if k1 < k0:
            continue
        ks = np.arange(k0, k1 + 1)
        t_sensor = ks * frame_period
        t_world = t_sensor - clock
        xyz_sensor = pose.apply_points(track.sample(t_world))
        noise = rng.normal(0.0, noise_sigma, xyz_sensor.shape) if noise_sigma > 0 else 0.0
        dropped = rng.random(len(ks)) < dropout_rate if dropout_rate > 0 else np.zeros(len(ks), bool)
        keep = (np.linalg.norm(xyz_sensor, axis=1) <= sensing_range) & ~dropped
        if not keep.any():
            continue
        xyz_noisy = xyz_sensor + noise
        kept_ks = ks[keep]
        kept_xyz = xyz_noisy[keep]
        kept_t = t_sensor[keep]
        runs = _split_runs(kept_ks, _MAX_GAP_FRAMES)
        multi = len(runs) > 1
        seg_no = 0
        for run in runs:
            if len(run) < 2:
                continue
            track_id = f"{track.track_id}#{seg_no}" if multi else track.track_id
            seg_no += 1
            trajectories.append(Trajectory.from_columns(
                track_id, track.class_label, kept_xyz[run], kept_t[run], kept_ks[run] - k_min,
                np.broadcast_to(track.bbox, (len(run), 3))))
    return TrajectoryDatabase(
        sensor_id=sensor_id,
        trajectories=tuple(trajectories),
        frame_period=frame_period,
        sensing_range=sensing_range,
    )


def _observe_pair(
    cfg: ScenarioConfig, tracks_p: Sequence[WorldTrack], tracks_q: Sequence[WorldTrack]
) -> tuple[TrajectoryDatabase, TrajectoryDatabase]:
    """Sensor P's view of ``tracks_p`` and sensor Q's of ``tracks_q``, each
    with its own noise and dropout stream."""
    return tuple(
        observe(
            tracks,
            pose,
            sensing_range,
            frame_period=cfg.frame_period,
            duration=cfg.duration,
            noise_sigma=cfg.noise_sigma,
            dropout_rate=cfg.dropout_rate,
            seed=_child_seed(cfg.seed, stream),
            sensor_id=sensor_id,
        )
        for tracks, pose, sensing_range, stream, sensor_id in (
            (tracks_p, cfg.pose_p, cfg.sensing_range_p, 1, "P"),
            (tracks_q, cfg.pose_q, cfg.sensing_range_q, 2, "Q"),
        )
    )


def make_pair(cfg: ScenarioConfig) -> tuple[TrajectoryDatabase, TrajectoryDatabase, Transform4D]:
    """Observed databases for both sensors plus the exact Q->P transform."""
    tracks = generate_world_tracks(cfg)
    db_p, db_q = _observe_pair(cfg, tracks, tracks)
    truth = cfg.pose_p.compose(cfg.pose_q.inverse())
    return db_p, db_q, truth


def make_nonoverlapping_pair(cfg: ScenarioConfig) -> tuple[TrajectoryDatabase, TrajectoryDatabase]:
    """Forced-failure input: each sensor watches structurally similar but
    disjoint traffic, so no true correspondence exists."""
    tracks_p = generate_world_tracks(cfg)
    tracks_q = generate_world_tracks(replace(cfg, seed=cfg.seed + 99991))
    return _observe_pair(cfg, tracks_p, tracks_q)


def _child_seed(seed: int, stream: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
