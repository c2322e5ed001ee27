"""Per-position motion features: curvature and velocity statistics.

These descriptors depend only on relative geometry and time differences, so
they are unchanged by any rigid transform or clock shift of the source
trajectory. That invariance is what lets two uncalibrated sensors compare
observations at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateTimestep, EmptyTrajectory
from .model import Trajectory, TrajectoryDatabase

DEFAULT_WINDOW = 3

_SEGMENT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class TrajectoryFeatures:
    """Feature arrays aligned index-for-index with one trajectory.

    ``curvature`` is the cosine of the angle between the segments leading
    into and out of a position (smooth motion approaches -1), and the
    velocity statistics are taken over a window of segment speeds around it.
    """

    curvature: np.ndarray
    velocity_mean: np.ndarray
    velocity_variance: np.ndarray
    valid: np.ndarray

    def __len__(self) -> int:
        return len(self.valid)


@dataclass(frozen=True, eq=False)
class FeatureDatabase:
    """Features for every position of every trajectory of one sensor."""

    sensor_id: str
    window: int
    per_trajectory: tuple[TrajectoryFeatures, ...]

    @cached_property
    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(traj_idx, pos_idx, features) over valid positions only.

        Feature columns are (curvature, velocity mean, velocity std); the
        standard deviation, not the stored variance, is what the match
        distance uses.
        """
        traj_idx, pos_idx, rows = [], [], []
        for ti, tf in enumerate(self.per_trajectory):
            (vi,) = np.nonzero(tf.valid)
            if vi.size == 0:
                continue
            traj_idx.append(np.full(vi.size, ti, dtype=np.int64))
            pos_idx.append(vi.astype(np.int64))
            rows.append(
                np.column_stack(
                    [tf.curvature[vi], tf.velocity_mean[vi], np.sqrt(tf.velocity_variance[vi])]
                )
            )
        if not rows:
            empty = np.empty((0,), dtype=np.int64)
            return empty, empty, np.empty((0, 3))
        return np.concatenate(traj_idx), np.concatenate(pos_idx), np.vstack(rows)


def segment_velocities(traj: Trajectory) -> np.ndarray:
    """Speed of each segment: distance over elapsed time, one value per
    consecutive position pair (the velocity *leaving* each position)."""
    if len(traj) < 2:
        raise EmptyTrajectory(
            f"trajectory {traj.track_id!r} has {len(traj)} positions; need at least 2"
        )
    dt = np.diff(traj.times)
    if np.any(dt <= 0):
        raise DegenerateTimestep(f"non-increasing timestamps in trajectory {traj.track_id!r}")
    dist = np.linalg.norm(np.diff(traj.xyz, axis=0), axis=1)
    return dist / dt


def _trajectory_features(traj: Trajectory, window: int) -> TrajectoryFeatures:
    n = len(traj)
    curv = np.zeros(n)
    vmean = np.zeros(n)
    vvar = np.zeros(n)
    valid = np.zeros(n, dtype=bool)
    if n >= 3:
        v = segment_velocities(traj)
        # windowed mean/variance via prefix sums; window is [i-m, i+m-1] clipped
        idx = np.arange(n)
        lo = np.maximum(0, idx - window)
        hi = np.minimum(len(v), idx + window)
        cs1 = np.concatenate(([0.0], np.cumsum(v)))
        cs2 = np.concatenate(([0.0], np.cumsum(v * v)))
        cnt = (hi - lo).astype(float)
        mean = (cs1[hi] - cs1[lo]) / cnt
        vmean[:] = mean
        vvar[:] = np.maximum(0.0, (cs2[hi] - cs2[lo]) / cnt - mean * mean)

        xyz = traj.xyz
        back = xyz[:-2] - xyz[1:-1]
        fwd = xyz[2:] - xyz[1:-1]
        nb = np.linalg.norm(back, axis=1)
        nf = np.linalg.norm(fwd, axis=1)
        ok = (nb > _SEGMENT_TOL) & (nf > _SEGMENT_TOL)
        denom = np.where(ok, nb * nf, 1.0)
        cosv = np.clip(np.sum(back * fwd, axis=1) / denom, -1.0, 1.0)
        curv[1 : n - 1] = np.where(ok, cosv, 0.0)
        valid[1 : n - 1] = ok
    for a in (curv, vmean, vvar, valid):
        a.setflags(write=False)
    return TrajectoryFeatures(curv, vmean, vvar, valid)


def extract_features(db: TrajectoryDatabase, window: int = DEFAULT_WINDOW) -> FeatureDatabase:
    """Compute motion features for every position in the database.

    Index alignment with the source trajectories is preserved; positions that
    cannot carry a full feature (trajectory ends, stationary segments, tracks
    shorter than three positions) are flagged invalid rather than dropped.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    return FeatureDatabase(
        sensor_id=db.sensor_id,
        window=window,
        per_trajectory=tuple(_trajectory_features(t, window) for t in db.trajectories),
    )
