import numpy as np
import pytest

from trajcal.errors import CalibrationError
from trajcal.model import Position, Trajectory, TrajectoryDatabase, Transform4D


def make_position(x, y, z, t, frame=0, bbox=(4.5, 1.8, 1.5), label="car", track="t0"):
    return Position(
        x=x, y=y, z=z, t=t, frame_index=frame, bbox=bbox, class_label=label, track_id=track
    )


def make_trajectory(points, track="t0", t0=0.0, dt=0.1, bbox=(4.5, 1.8, 1.5), label="car"):
    """Trajectory from an (n, 3) array sampled every ``dt`` seconds."""
    points = np.asarray(points, dtype=float)
    return Trajectory(
        track,
        tuple(
            make_position(x, y, z, t0 + i * dt, frame=i, bbox=bbox, label=label, track=track)
            for i, (x, y, z) in enumerate(points)
        ),
    )


def straight_trajectory(speed=10.0, n=30, dt=0.1, track="t0", origin=(0.0, 0.0, 1.0),
                        direction=(1.0, 0.0, 0.0), **kw):
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    pts = np.asarray(origin) + np.outer(np.arange(n) * dt * speed, d)
    return make_trajectory(pts, track=track, dt=dt, **kw)


def arc_trajectory(radius=20.0, angular_rate=0.5, n=30, dt=0.1, track="arc", z=1.0, **kw):
    angles = np.arange(n) * dt * angular_rate
    pts = np.column_stack([radius * np.cos(angles), radius * np.sin(angles), np.full(n, z)])
    return make_trajectory(pts, track=track, dt=dt, **kw)


def accelerating_trajectory(v0=5.0, accel=1.0, n=30, dt=0.1, track="acc", origin=(0.0, 0.0, 1.0)):
    """Straight track with linearly growing speed: every position gets a
    distinct velocity-mean feature (no nearest-neighbor ties)."""
    t = np.arange(n) * dt
    x = v0 * t + 0.5 * accel * t * t
    pts = np.asarray(origin) + np.column_stack([x, np.zeros(n), np.zeros(n)])
    return make_trajectory(pts, track=track, dt=dt)


def make_database(trajectories, sensor_id="S", frame_period=0.1, sensing_range=50.0):
    return TrajectoryDatabase(
        sensor_id=sensor_id,
        trajectories=tuple(trajectories),
        frame_period=frame_period,
        sensing_range=sensing_range,
    )


def random_transform(rng: np.random.Generator) -> Transform4D:
    q = rng.normal(size=4)
    while np.linalg.norm(q) < 1e-3:
        q = rng.normal(size=4)
    return Transform4D(q, rng.uniform(-50, 50, size=3), float(rng.uniform(-20, 20)))


def random_position(rng: np.random.Generator, track="r", frame=0) -> Position:
    x, y, z = rng.uniform(-100, 100, size=3)
    return make_position(x, y, z, float(rng.uniform(0, 100)), frame=frame, track=track)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# scalar reference implementations of the vectorized feature and match code


class DegenerateSegment(CalibrationError):
    """Two consecutive positions coincide; segment direction is undefined."""


class InvalidFeature(CalibrationError):
    """A feature flagged invalid was used where a valid one is required."""


def velocity_stats(velocities: np.ndarray, i: int, m: int) -> tuple[float, float]:
    """Mean and population variance of the speeds in window [i-m, i+m-1],
    clipped to the available indices."""
    v = np.asarray(velocities, dtype=float)
    lo, hi = max(0, i - m), min(len(v), i + m)
    if hi <= lo:
        raise ValueError(f"empty velocity window for position {i} (m={m}, n={len(v)})")
    w = v[lo:hi]
    mean = float(w.mean())
    return mean, float(np.mean((w - mean) ** 2))


def curvature(traj: Trajectory, i: int) -> float:
    """Cosine of the angle at position i between the segments toward its
    neighbors. Collinear motion gives -1, a right angle gives 0."""
    if not 1 <= i <= len(traj) - 2:
        raise ValueError(f"curvature needs interior index, got {i} of {len(traj)} positions")
    xyz = traj.xyz
    back = xyz[i - 1] - xyz[i]
    fwd = xyz[i + 1] - xyz[i]
    nb, nf = float(np.linalg.norm(back)), float(np.linalg.norm(fwd))
    if nb < 1e-9 or nf < 1e-9:
        raise DegenerateSegment(
            f"stationary segment at position {i} of trajectory {traj.track_id!r}"
        )
    return float(np.clip(np.dot(back, fwd) / (nb * nf), -1.0, 1.0))


def feature_distance(a, b, w) -> float:
    """Weighted L1 distance between two MotionFeatures under MatchWeights
    ``w``; sigma enters as the standard deviation, not the stored variance."""
    if not (a.valid and b.valid):
        raise InvalidFeature("feature distance requires two valid features")
    return float(
        w.lambda_c * abs(a.curvature - b.curvature)
        + w.lambda_alpha * abs(a.velocity_mean - b.velocity_mean)
        + w.lambda_sigma * abs(np.sqrt(a.velocity_variance) - np.sqrt(b.velocity_variance))
    )
