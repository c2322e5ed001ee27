"""Command-line entry point wiring the simulator, pipeline and metrics.

Exit codes: 0 success, 1 usage/IO error, 2 calibration-quality failure
(non-convergence or too few candidate matches).
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace
from pathlib import Path

import click

from . import evaluation, io, pipeline, simulator
from .errors import CalibrationError, NoCandidateMatches, NoViableHypothesis
from .features import extract_features
from .matching import (
    filter_bbox,
    filter_mutual_nn,
    filter_neighbor_count,
    filter_neighborhood_distribution,
    motion_match,
)

# spec'd contract: usage/IO problems exit 1, quality failures exit 2
click.UsageError.exit_code = 1

_STORE_ENV = "TRAJCAL_STORE_DIR"


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _check_parent(path, option: str) -> None:
    """Fail before any work when ``path``'s directory is missing."""
    parent = Path(path).parent
    if not parent.is_dir():
        _fail(f"{option} {path}: {parent} is not a directory")


def _open_store(directory) -> pipeline.SessionStore:
    try:
        return pipeline.SessionStore(directory)
    except OSError as exc:
        _fail(f"session store {directory}: {exc.strerror or exc}")


def _scenario_overrides(**kwargs) -> dict:
    return {k: v for k, v in kwargs.items() if v is not None}


@click.group()
@click.version_option(package_name="trajcal", prog_name="trajcal")
def main():
    """Spatio-temporal calibration of two fixed sensors from the
    trajectories of objects both observe."""


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), help="Scenario config file (key = value lines).")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False), help="Output directory.")
@click.option("--layout", type=click.Choice(simulator.LAYOUTS))
@click.option("--vehicles", type=int, help="Number of moving objects.")
@click.option("--duration", type=float, help="Recording window, seconds.")
@click.option("--noise", type=float, help="Gaussian position noise sigma, meters.")
@click.option("--offset", type=float, help="Ground-truth clock offset, seconds.")
@click.option("--rotation", type=float, help="Ground-truth relative yaw, degrees.")
@click.option("--seed", type=int, help="Random seed.")
def simulate(config_path, out_dir, layout, vehicles, duration, noise, offset, rotation, seed):
    """Generate a synthetic sensor pair plus its ground-truth transform."""
    try:
        settings = io.parse_config_file(config_path) if config_path else {}
        settings.update(
            _scenario_overrides(
                layout=layout,
                n_vehicles=vehicles,
                duration=duration,
                noise_sigma=noise,
                time_offset=offset,
                rotation_deg=rotation,
                seed=seed,
            )
        )
        cfg = simulator.default_scenario(**settings)
    except (io.FileFormatError, ValueError, TypeError) as exc:
        _fail(str(exc))
    if cfg.n_vehicles == 0:
        click.echo("warning: n_vehicles=0 produces empty databases", err=True)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    db_p, db_q, truth = simulator.make_pair(cfg)
    io.write_database_jsonl(db_p, out / "dbP.jsonl")
    io.write_database_jsonl(db_q, out / "dbQ.jsonl")
    io.write_json(truth, out / "ground_truth.json")
    click.echo(
        f"wrote {out / 'dbP.jsonl'} ({db_p.n_positions} positions, {len(db_p)} tracks), "
        f"{out / 'dbQ.jsonl'} ({db_q.n_positions} positions, {len(db_q)} tracks), "
        f"{out / 'ground_truth.json'}"
    )


def _write(writer, *args) -> None:
    """``writer(*args)``, the last argument its path; an OS error is a
    usage/IO failure."""
    try:
        writer(*args)
    except OSError as exc:
        _fail(f"cannot write {args[-1]}: {exc.strerror or exc}")


def _echo_transform(tf) -> None:
    tx, ty, tz = tf.translation
    qw, qx, qy, qz = tf.rotation
    click.echo(f"  rotation (quat wxyz): {io.fmt(qw)} {io.fmt(qx)} {io.fmt(qy)} {io.fmt(qz)}")
    click.echo(f"  translation (m):      {io.fmt(tx)} {io.fmt(ty)} {io.fmt(tz)}")
    click.echo(f"  time offset (s):      {io.fmt(tf.time_offset)}")


def _echo_report(report) -> None:
    click.echo(
        f"  RRE {io.fmt(report.rre_deg)} deg, RTE {io.fmt(report.rte_m)} m, "
        f"TOE {io.fmt(report.toe_s)} s -> {'success' if report.success else 'FAILURE'}"
    )


@main.command()
@click.option("--input-p", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--input-q", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", type=click.Path(dir_okay=False), help="Session JSON output.")
@click.option("--truth", "truth_path", type=click.Path(exists=True, dir_okay=False), help="Ground-truth transform for metric reporting.")
@click.option("--continuous", is_flag=True, help="Fold the session into the stored fused estimate.")
@click.option("--store-dir", type=click.Path(file_okay=False), help=f"Session store directory (default ${_STORE_ENV}).")
@click.option("--max-iter", type=int, help="Override maximum loop iterations.")
@click.option("--d-th", type=float, help="Override feature-distance threshold.")
@click.option("--dump-features", "dump_features", type=click.Path(), help="Write per-position feature CSVs (prefix).")
@click.option("--dump-matches", "dump_matches", type=click.Path(dir_okay=False), help="Write the raw matches CSV, with a 0/1 column per filter: whether that filter alone keeps the match.")
@click.option("--verbose", is_flag=True)
def calibrate(input_p, input_q, out_path, truth_path, continuous, store_dir, max_iter,
              d_th, dump_features, dump_matches, verbose):
    """Estimate the Q->P space-time transform from two trajectory files."""
    try:
        db_p = io.read_database_jsonl(input_p)
        db_q = io.read_database_jsonl(input_q)
        truth = io.read_transform_json(truth_path) if truth_path else None
    except io.FileFormatError as exc:
        _fail(str(exc))
    cfg = pipeline.PipelineConfig()
    try:
        if max_iter is not None:
            cfg = replace(cfg, max_iterations=max_iter)
        if d_th is not None:
            cfg = replace(cfg, match_weights=replace(cfg.match_weights, d_th=d_th))
    except ValueError as exc:
        _fail(str(exc))
    for path, option in ((out_path, "--out"), (dump_features, "--dump-features"),
                         (dump_matches, "--dump-matches")):
        if path:
            _check_parent(path, option)

    if dump_features or dump_matches:
        fp = extract_features(db_p)
        fq = extract_features(db_q)
        if dump_features:
            _write(io.write_features_csv, db_p, fp, f"{dump_features}.p.csv")
            _write(io.write_features_csv, db_q, fq, f"{dump_features}.q.csv")
        if dump_matches:
            # each filter judges a match without looking at the other
            # matches, so run alone on the raw list it gives every match the
            # verdict it would give inside the cascade
            raw = motion_match(fp, fq, cfg.match_weights)
            survivors = {
                "mutual": filter_mutual_nn(raw, fp, fq, cfg.match_weights),
                "bbox": filter_bbox(raw, db_p, db_q),
                "count": filter_neighbor_count(raw, db_p, db_q),
                "hist": filter_neighborhood_distribution(raw, db_p, db_q),
            }
            _write(io.write_matches_csv, raw, survivors, db_p, db_q, dump_matches)

    prior = None
    if continuous:
        directory = store_dir or os.environ.get(_STORE_ENV)
        if not directory:
            _fail(f"--continuous needs --store-dir or ${_STORE_ENV}")
        store = _open_store(directory)
        try:
            prior = store.load_fused()
        except OSError as exc:
            _fail(f"session store {directory}: {exc.strerror or exc}")

    try:
        session = pipeline.calibrate(db_p, db_q, cfg, prior=prior)
    except (NoCandidateMatches, NoViableHypothesis) as exc:
        click.echo(
            f"calibration failed: {exc} "
            f"(raw={exc.raw_count}, filtered={exc.filtered_count})",
            err=True,
        )
        sys.exit(2)
    except CalibrationError as exc:
        click.echo(f"calibration failed: {exc}", err=True)
        sys.exit(2)

    if out_path:
        _write(io.write_session_json, session, out_path)
    click.echo(f"session: score {io.fmt(session.score)} "
               f"(n_pp={session.n_pp}, n_po={session.n_po}), "
               f"{session.iterations_used} iterations, "
               f"{'converged' if session.converged else 'NOT converged'}")
    _echo_transform(session.transform)
    if truth is not None:
        _echo_report(evaluation.make_report(session.transform, truth))

    if continuous:
        try:
            fused = store.record(session)
        except OSError as exc:
            _fail(f"session store {store.directory}: {exc.strerror or exc}")
        click.echo(f"fused: score {io.fmt(fused.score)}")
        _echo_transform(fused.transform)
        if truth is not None:
            _echo_report(evaluation.make_report(fused.transform, truth))
    if verbose:
        click.echo(f"databases: P {db_p.n_positions} positions / {len(db_p)} tracks, "
                   f"Q {db_q.n_positions} positions / {len(db_q)} tracks")
    sys.exit(0 if session.converged else 2)


@main.command()
@click.option("--session", "session_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--truth", "truth_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", type=click.Path(dir_okay=False), help="Metric report JSON output.")
def evaluate(session_path, truth_path, out_path):
    """Score a stored session against a ground-truth transform."""
    try:
        session = io.read_session_json(session_path)
        truth = io.read_transform_json(truth_path)
    except io.FileFormatError as exc:
        _fail(str(exc))
    report = evaluation.make_report(session.transform, truth)
    if out_path:
        _check_parent(out_path, "--out")
        _write(io.write_json, report, out_path)
    _echo_report(report)


@main.command()
@click.option("--axis", required=True, type=click.Choice(evaluation.SWEEP_AXES))
@click.option("--values", required=True, help="Comma-separated grid values.")
@click.option("--seeds", "n_seeds", type=int, default=5, show_default=True, help="Seeds per grid value.")
@click.option("--seed", "seed_base", type=int, default=0, show_default=True, help="First seed.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--layout", type=click.Choice(simulator.LAYOUTS))
@click.option("--vehicles", type=int)
@click.option("--duration", type=float)
@click.option("--noise", type=float)
@click.option("--offset", type=float)
def sweep(axis, values, n_seeds, seed_base, out_dir, layout, vehicles, duration, noise, offset):
    """Run a metric sweep along one scenario axis; writes CSVs."""
    try:
        grid = [float(v) for v in values.split(",") if v.strip()]
    except ValueError:
        _fail(f"--values must be comma-separated numbers, got {values!r}")
    if not grid:
        _fail("--values is empty")
    scenario_kwargs = _scenario_overrides(
        layout=layout, n_vehicles=vehicles, duration=duration,
        noise_sigma=noise, time_offset=offset,
    )
    try:
        rows = evaluation.run_sweep(
            axis, grid, list(range(seed_base, seed_base + n_seeds)),
            scenario_kwargs=scenario_kwargs,
        )
    except ValueError as exc:
        _fail(str(exc))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    evaluation.write_sweep_csv(rows, out / "sweep.csv")
    summaries = evaluation.summarize(rows)
    evaluation.write_summary_csv(summaries, out / "summary.csv")
    click.echo(f"wrote {out / 'sweep.csv'} ({len(rows)} rows) and {out / 'summary.csv'}")
    for s in summaries:
        click.echo(
            f"  {axis}={io.fmt(s.axis_value)}: median RRE {io.fmt(s.median_rre_deg)} deg, "
            f"RTE {io.fmt(s.median_rte_m)} m, TOE {io.fmt(s.median_toe_s)} s, "
            f"success {io.fmt(100 * s.success_rate)}%"
        )


@main.command("fuse-sessions")
@click.option("--store-dir", type=click.Path(exists=True, file_okay=False), help=f"Session store directory (default ${_STORE_ENV}).")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), help="Fused session JSON (default <store>/fused.json).")
def fuse_sessions(store_dir, out_path):
    """Fold every stored session into one score-weighted estimate."""
    directory = store_dir or os.environ.get(_STORE_ENV)
    if not directory:
        _fail(f"need --store-dir or ${_STORE_ENV}")
    store = _open_store(directory)
    sessions = store.sessions()
    if not sessions:
        _fail(f"no sessions recorded under {directory}")
    fused = pipeline.fuse_sessions(sessions, min_score=store.min_fuse_score)
    if fused.score <= 0:
        click.echo("fusion failed: every stored session scored zero", err=True)
        sys.exit(2)
    target = Path(out_path) if out_path else store.directory / "fused.json"
    _write(io.write_session_json, fused, target)
    click.echo(f"fused {len(sessions)} sessions -> {target} (score {io.fmt(fused.score)})")
    _echo_transform(fused.transform)


if __name__ == "__main__":
    main()
