"""Recovery metrics against ground truth and the experiment sweep harness.

Rotation error sums the absolute Euler angles (intrinsic Z-Y-X) of the
residual rotation between truth and estimate; translation error is the plain
Euclidean gap; timing error is the absolute clock-offset gap. A session is a
success when translation and rotation errors are under preset thresholds.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import pipeline, simulator
from .errors import CalibrationError
from .model import Transform4D

DEFAULT_RTE_THRESHOLD = 1.0  # meters
DEFAULT_RRE_THRESHOLD = 5.0  # degrees

SWEEP_AXES = ("noise", "n_vehicles", "rotation", "time_offset", "passes")

_SWEEP_COLUMNS = ("axis_value", "seed", "rre_deg", "rte_m", "toe_s", "success", "score", "iterations")
_SUMMARY_COLUMNS = ("axis_value", "n_seeds", "median_rre_deg", "median_rte_m", "median_toe_s", "success_rate")


@dataclass(frozen=True)
class MetricReport:
    rre_deg: float
    rte_m: float
    toe_s: float
    success: bool
    rotation_errors_deg: tuple[float, float, float]  # per Euler axis (x, y, z)
    translation_errors_m: tuple[float, float, float]

    def to_dict(self) -> dict:
        rx, ry, rz = self.rotation_errors_deg
        tx, ty, tz = self.translation_errors_m
        return {
            "rre_deg": self.rre_deg,
            "rte_m": self.rte_m,
            "toe_s": self.toe_s,
            "success": self.success,
            "rot_err_x_deg": rx,
            "rot_err_y_deg": ry,
            "rot_err_z_deg": rz,
            "trans_err_x_m": tx,
            "trans_err_y_m": ty,
            "trans_err_z_m": tz,
        }


def euler_zyx_deg(rotation_matrix: np.ndarray) -> np.ndarray:
    """Intrinsic Z-Y-X Euler angles of a rotation matrix, in degrees,
    returned as (x, y, z). Gimbal-locked inputs collapse x into z."""
    m = np.asarray(rotation_matrix, dtype=float)
    sy = -m[2, 0]
    if abs(sy) < 1.0 - 1e-12:
        y = math.asin(sy)
        z = math.atan2(m[1, 0], m[0, 0])
        x = math.atan2(m[2, 1], m[2, 2])
    else:
        y = math.copysign(math.pi / 2.0, sy)
        z = math.atan2(-m[0, 1], m[1, 1])
        x = 0.0
    return np.degrees([x, y, z])


def rte(estimated_translation, truth_translation) -> float:
    """Euclidean distance between the two translation vectors, meters."""
    gap = np.asarray(truth_translation, dtype=float) - np.asarray(estimated_translation, dtype=float)
    return float(np.linalg.norm(gap))


def toe(estimated_offset: float, truth_offset: float) -> float:
    """Absolute clock-offset error, seconds."""
    return abs(float(truth_offset) - float(estimated_offset))


def make_report(
    estimated: Transform4D,
    truth: Transform4D,
    rte_threshold: float = DEFAULT_RTE_THRESHOLD,
    rre_threshold: float = DEFAULT_RRE_THRESHOLD,
) -> MetricReport:
    residual = truth.matrix.T @ estimated.matrix
    rot_err = np.abs(euler_zyx_deg(residual))
    trans_err = np.abs(truth.translation - estimated.translation)
    rre_v = float(rot_err.sum())
    rte_v = rte(estimated.translation, truth.translation)
    return MetricReport(
        rre_deg=rre_v,
        rte_m=rte_v,
        toe_s=toe(estimated.time_offset, truth.time_offset),
        success=rte_v < rte_threshold and rre_v < rre_threshold,
        rotation_errors_deg=tuple(float(v) for v in rot_err),
        translation_errors_m=tuple(float(v) for v in trans_err),
    )


# ---------------------------------------------------------------------------
# sweep harness


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    seed: int
    rre_deg: float
    rte_m: float
    toe_s: float
    success: bool
    score: float
    iterations: int


@dataclass(frozen=True)
class SweepSummary:
    axis_value: float
    n_seeds: int
    median_rre_deg: float
    median_rte_m: float
    median_toe_s: float
    success_rate: float


def _scenario_for(axis: str, value, seed: int, scenario_kwargs: dict) -> simulator.ScenarioConfig:
    kwargs = dict(scenario_kwargs)
    layout = kwargs.pop("layout", "four_way")
    if axis == "noise":
        kwargs["noise_sigma"] = float(value)
    elif axis == "n_vehicles":
        kwargs["n_vehicles"] = int(value)
    elif axis == "rotation":
        kwargs["rotation_deg"] = float(value)
    elif axis == "time_offset":
        kwargs["time_offset"] = float(value)
    kwargs["seed"] = seed
    return simulator.default_scenario(layout, **kwargs)


def _run_cell(axis: str, value, seed: int, scenario_kwargs: dict) -> SweepRow:
    if axis == "passes":
        # continuous calibration: every pass sees fresh traffic, is
        # warm-started from the fused state so far, and folds back into it
        estimate = None
        for k in range(int(value)):
            scen = _scenario_for(axis, value, seed + 100_003 * k, scenario_kwargs)
            db_p, db_q, truth = simulator.make_pair(scen)
            session = pipeline.calibrate(db_p, db_q, prior=estimate)
            estimate = pipeline.fuse_sessions([s for s in (estimate, session) if s is not None])
    else:
        db_p, db_q, truth = simulator.make_pair(_scenario_for(axis, value, seed, scenario_kwargs))
        session = estimate = pipeline.calibrate(db_p, db_q)
    report = make_report(estimate.transform, truth)
    return SweepRow(
        axis_value=float(value),
        seed=seed,
        rre_deg=report.rre_deg,
        rte_m=report.rte_m,
        toe_s=report.toe_s,
        success=report.success,
        score=estimate.score,
        iterations=session.iterations_used,
    )


def run_sweep(
    axis: str,
    values: Sequence,
    seeds: Sequence[int],
    *,
    scenario_kwargs: dict | None = None,
) -> list[SweepRow]:
    """Grid of scenarios (one axis varied) x seeds: simulate, calibrate,
    score against ground truth. A failed cell records success=False and NaN
    metrics instead of aborting the sweep. An unknown axis, or a ``passes``
    value that is not a positive integer, raises ValueError before any cell
    runs."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    if axis == "passes":
        for value in values:
            if not (float(value).is_integer() and value >= 1):
                raise ValueError(f"passes must be positive integers, got {value!r}")
    scenario_kwargs = scenario_kwargs or {}
    rows = []
    for value in values:
        for seed in seeds:
            try:
                rows.append(_run_cell(axis, value, seed, scenario_kwargs))
            except CalibrationError:
                rows.append(
                    SweepRow(
                        axis_value=float(value),
                        seed=seed,
                        rre_deg=math.nan,
                        rte_m=math.nan,
                        toe_s=math.nan,
                        success=False,
                        score=0.0,
                        iterations=0,
                    )
                )
    return rows


def summarize(rows: Sequence[SweepRow]) -> list[SweepSummary]:
    """Per-axis-value medians (over non-failed runs) and success rate."""
    out = []
    for value in sorted({r.axis_value for r in rows}):
        cell = [r for r in rows if r.axis_value == value]
        finite = lambda xs: [x for x in xs if not math.isnan(x)]  # noqa: E731
        med = lambda xs: float(np.median(xs)) if xs else math.nan  # noqa: E731
        out.append(
            SweepSummary(
                axis_value=value,
                n_seeds=len(cell),
                median_rre_deg=med(finite([r.rre_deg for r in cell])),
                median_rte_m=med(finite([r.rte_m for r in cell])),
                median_toe_s=med(finite([r.toe_s for r in cell])),
                success_rate=sum(r.success for r in cell) / len(cell),
            )
        )
    return out


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SWEEP_COLUMNS)
        for r in rows:
            writer.writerow(
                [r.axis_value, r.seed, repr(r.rre_deg), repr(r.rte_m), repr(r.toe_s),
                 int(r.success), repr(r.score), r.iterations]
            )


def write_summary_csv(summaries: Sequence[SweepSummary], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SUMMARY_COLUMNS)
        for s in summaries:
            writer.writerow(
                [s.axis_value, s.n_seeds, repr(s.median_rre_deg), repr(s.median_rte_m),
                 repr(s.median_toe_s), repr(s.success_rate)]
            )
