"""Per-position motion features: curvature and velocity statistics.

These descriptors depend only on relative geometry and time differences, so
they are unchanged by any rigid transform or clock shift of the source
trajectory. That invariance is what lets two uncalibrated sensors compare
observations at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyTrajectory
from .model import Rows, Trajectory, TrajectoryDatabase

DEFAULT_WINDOW = 3

_SEGMENT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FeatureDatabase:
    """Features for every position of one sensor, one entry per row of its
    database's ``stack()``, as read-only columns.

    ``curvature`` is the cosine of the angle between the segments leading
    into and out of a position (smooth motion approaches -1), and the
    velocity statistics are taken over a window of segment speeds around it.
    """

    sensor_id: str
    window: int
    rows: Rows
    curvature: np.ndarray
    velocity_mean: np.ndarray
    velocity_variance: np.ndarray
    valid: np.ndarray

    def points(self, rows: np.ndarray) -> np.ndarray:
        """The given rows' (curvature, velocity mean, velocity std) points;
        the standard deviation, not the stored variance, is what the match
        distance uses."""
        return np.column_stack([self.curvature[rows], self.velocity_mean[rows],
                                np.sqrt(self.velocity_variance[rows])])


def segment_velocities(traj: Trajectory) -> np.ndarray:
    """Speed of each segment: distance over elapsed time, one value per
    consecutive position pair (the velocity *leaving* each position)."""
    if len(traj) < 2:
        raise EmptyTrajectory(
            f"trajectory {traj.track_id!r} has {len(traj)} positions; need at least 2"
        )
    dist = np.linalg.norm(np.diff(traj.xyz, axis=0), axis=1)
    return dist / np.diff(traj.times)


def _trajectory_features(traj: Trajectory, window: int, curv, vmean, vvar, valid) -> None:
    """Fill the trajectory's slices of the four feature columns."""
    n = len(traj)
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


def extract_features(db: TrajectoryDatabase, window: int = DEFAULT_WINDOW) -> FeatureDatabase:
    """Compute motion features for every position in the database.

    The columns are aligned with the database's rows, and each trajectory's
    are computed on its own. Positions that cannot carry a full feature
    (trajectory ends, stationary segments, tracks shorter than three
    positions) are flagged invalid rather than dropped.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    rows = db.stack()
    n = len(rows.times)
    columns = (np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool))
    for traj, a, b in zip(db.trajectories, rows.starts[:-1], rows.starts[1:]):
        _trajectory_features(traj, window, *(column[a:b] for column in columns))
    for column in columns:
        column.setflags(write=False)
    return FeatureDatabase(db.sensor_id, window, rows, *columns)
