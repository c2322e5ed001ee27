"""trajcal benchmark: calibration sessions per second, and their accuracy.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 35 --trace 0

Runs one workload (see workloads.py) in this single process, from the seed,
for ``--seconds`` of session time, and checks every session against the
simulator's ground truth. ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` runs every scene twice, once plain and once with each
module's public calls wrapped in spans, on half the time each; it fails the
run unless both produce identical sessions, and reports the per-layer
metrics. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ROUNDS = 5  # set-up is timed this many times and the median reported
MAX_MEDIAN_RTE_M = 0.1  # acceptance criterion 2's bound on the median RTE

END_TO_END = {  # name -> unit
    "sessions_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "score_p50": "1",
    "success_share": "1",
}

# Per-layer metrics are ``<span name>.<field>``, summed over the traced
# sessions and divided by their number.
LAYER_METRICS = (
    "pipeline.calibrate.busy_s", "pipeline.calibrate.self_s",
    "estimator.solve.busy_s", "estimator.solve.calls", "estimator.solve.rounds",
    "estimator.refine_time_offset.calls", "estimator.refine_time_offset.busy_s",
    "estimator.interpolated_correspondences.calls",
    "estimator.interpolated_correspondences.busy_s",
    "estimator.solve_spatial.calls", "estimator.solve_spatial.busy_s",
    "estimator.solve_spatial.failed",
    "matching.motion_match.busy_s", "matching.motion_match.out",
    "matching.apply_semantic_filters.calls", "matching.apply_semantic_filters.busy_s",
    "matching.filter_mutual_nn.busy_s", "matching.filter_mutual_nn.out",
    "matching.filter_bbox.busy_s", "matching.filter_bbox.out",
    "matching.filter_neighbor_count.busy_s", "matching.filter_neighbor_count.out",
    "matching.filter_neighborhood_distribution.busy_s",
    "matching.filter_neighborhood_distribution.out",
    "pipeline.score_session.calls", "pipeline.score_session.busy_s",
    "features.extract_features.calls", "features.extract_features.busy_s",
    "features.extract_features.positions",
    "io.read_database_jsonl.busy_s", "io.read_database_jsonl.bytes",
    "io.write_session_json.busy_s",
    "pipeline.SessionStore.record.busy_s", "pipeline.SessionStore.load_fused.busy_s",
    "cli.calibrate.busy_s", "cli.calibrate.self_s",
    "simulator.make_pair.busy_s",
)
# solve_spatial counts only the calls outside estimator.solve (the offset
# scan and the S1-S3 loop); solve's rounds are the refine_time_offset calls
# inside it
_SPLIT = {
    "estimator.solve_spatial": "estimator.solve",
    "estimator.refine_time_offset": "estimator.solve",
}
_SPAN_KEY = {
    "estimator.solve_spatial": "out:estimator.solve/estimator.solve_spatial",
    "estimator.solve.rounds": "in:estimator.solve/estimator.refine_time_offset",
}
_FIELD = {"rounds": "calls", "out": "count", "positions": "count", "bytes": "count"}
_UNIT = {"busy_s": "s/session", "self_s": "s/session", "bytes": "B/session"}

PER_LAYER = {
    **{name: _UNIT.get(name.rsplit(".", 1)[1], "count/session") for name in LAYER_METRICS},
    "matching.precision": "1",
    "trace.overhead_share": "1",
    "session.p50_s": "s",
    "session.rte_m_p50": "m",
    "session.rre_deg_p50": "deg",
    "session.toe_s_p50": "s",
    "session.failed_share": "1",
}


@dataclass
class Record:
    seconds: float
    outcome: object
    failed: bool
    rte_m: float = math.nan
    rre_deg: float = math.nan
    toe_s: float = math.nan
    true_matches: int = 0
    surviving_matches: int = 0


def trace_targets(filtered: list):
    """What the traced sessions wrap. ``filtered`` collects the cascade's
    output with its databases, to be labelled once the session is over."""
    import trajcal.cli as cli
    import trajcal.estimator as estimator
    import trajcal.io as tio
    import trajcal.matching as matching
    import trajcal.pipeline as pipeline
    import trajcal.simulator as simulator

    def out(args, kwargs, result):
        return len(result)

    targets = [
        (simulator, "make_pair", "simulator.make_pair", None, None),
        (tio, "read_database_jsonl", "io.read_database_jsonl",
         lambda a, k, r: os.path.getsize(a[0]), None),
        (tio, "write_session_json", "io.write_session_json", None, None),
        (cli.calibrate, "callback", "cli.calibrate", None, None),
        (pipeline, "calibrate", "pipeline.calibrate", None, None),
        (pipeline, "extract_features", "features.extract_features",
         lambda a, k, r: a[0].n_positions, None),
        (pipeline, "motion_match", "matching.motion_match", out, None),
        (pipeline, "apply_semantic_filters", "matching.apply_semantic_filters", out,
         lambda a, k, r: filtered.append((a[3], a[4], r))),
        (pipeline, "score_session", "pipeline.score_session", None, None),
        (pipeline.SessionStore, "record", "pipeline.SessionStore.record", None, None),
        (pipeline.SessionStore, "load_fused", "pipeline.SessionStore.load_fused", None, None),
        (estimator, "solve", "estimator.solve", None, None),
        (estimator, "solve_spatial", "estimator.solve_spatial", None, None),
        (estimator, "refine_time_offset", "estimator.refine_time_offset", None, None),
        (estimator, "interpolated_correspondences", "estimator.interpolated_correspondences",
         None, None),
    ]
    for name in ("filter_mutual_nn", "filter_bbox", "filter_neighbor_count",
                 "filter_neighborhood_distribution"):
        targets.append((matching, name, f"matching.{name}", out, None))
    return targets


def run_sessions(workload, seed: int, workdir: Path, budget_s: float, *, prebuilt=(),
                 trace=None):
    """Closed loop over scenes 0, 1, ... until ``budget_s`` seconds of
    session time are spent. Only the session itself is timed; building the
    next scene and checking the last one are not. ``prebuilt`` holds the
    first scenes, built during set-up.

    With ``trace`` (a tracer and a list for the filtered matches), each scene is built with the
    wrappers installed and then run twice on separate states: once plain and
    once with the wrappers installed, alternating which goes first, so a
    drift in the machine's speed cancels out of the tracing overhead. The
    budget counts the plain sessions. Returns (plain records, their session
    seconds, traced records, their session seconds)."""
    from trajcal.evaluation import make_report

    def record(scene, state, outcome, seconds, filtered=None):
        outcome = workload.check(scene, state, outcome)
        own = make_report(outcome.transform, scene.truth) if outcome.transform else None
        rec = Record(seconds, outcome, failed=not (outcome.ok and own and own.success))
        if outcome.estimate is not None:
            est = make_report(outcome.estimate, scene.truth)
            rec.rte_m, rec.rre_deg, rec.toe_s = est.rte_m, est.rre_deg, est.toe_s
        if filtered is not None:
            for db_p, db_q, matches in filtered:
                rec.true_matches += checks.true_match_count(
                    matches, db_p, db_q, scene.truth.time_offset)
                rec.surviving_matches += len(matches)
            filtered.clear()
        return rec

    def timed(state, scene, wrapped):
        with wrapped:
            t0 = time.perf_counter()
            outcome = workload.session(scene, state)
            return outcome, time.perf_counter() - t0

    def wrappers():
        return tracing.installed(trace[0], trace_targets(trace[1])) if trace else nullcontext()

    plain_state = workload.start(workdir / "plain")
    traced_state = workload.start(workdir / "traced") if trace else None
    plain, traced, busy, busy_traced, k = [], [], 0.0, 0.0, 0
    while k == 0 or busy < budget_s:
        if k < len(prebuilt):
            scene = prebuilt[k]
        else:
            with wrappers():
                scene = workload.build(seed, k, workdir)
        turns = ("plain", "traced") if k % 2 == 0 else ("traced", "plain")
        for turn in turns if trace else ("plain",):
            if turn == "plain":
                outcome, seconds = timed(plain_state, scene, nullcontext())
                plain.append(record(scene, plain_state, outcome, seconds))
                busy += seconds
            else:
                outcome, seconds = timed(traced_state, scene, wrappers())
                traced.append(record(scene, traced_state, outcome, seconds, trace[1]))
                busy_traced += seconds
        k += 1
    return plain, busy, traced, busy_traced


def problems_of(records) -> list[str]:
    out = []
    for i, r in enumerate(records):
        if r.outcome.problem:
            out.append(f"session {i}: {r.outcome.problem}")
        if r.outcome.transform is not None and not 0.0 <= r.outcome.score <= 1.0:
            out.append(f"session {i}: score {r.outcome.score} outside [0, 1]")
    rtes = [r.rte_m for r in records if not math.isnan(r.rte_m)]
    if not rtes:
        out.append("no session produced an estimate")
    elif checks.median(rtes) >= MAX_MEDIAN_RTE_M:
        out.append(f"median RTE {checks.median(rtes):.4f} m is not under {MAX_MEDIAN_RTE_M} m")
    return out


def transparency_problems(untraced, traced) -> list[str]:
    """Tracing must not change the program: same transforms, scores and
    failures, session by session."""
    if len(untraced) != len(traced):
        return [f"{len(traced)} traced sessions against {len(untraced)} untraced"]
    out = []
    for i, (a, b) in enumerate(zip(untraced, traced)):
        ta, tb = a.outcome.transform, b.outcome.transform
        same = (ta is None and tb is None) or (
            ta is not None and tb is not None
            and list(ta.rotation) == list(tb.rotation)
            and list(ta.translation) == list(tb.translation)
            and ta.time_offset == tb.time_offset
        )
        if not same or a.outcome.score != b.outcome.score or a.failed != b.failed:
            out.append(f"session {i}: traced run differs from the untraced run")
    return out


def session_summary(records) -> dict:
    def med(values):
        values = [v for v in values if not math.isnan(v)]
        return checks.median(values) if values else math.nan

    return {
        "session.p50_s": checks.median(r.seconds for r in records),
        "session.rte_m_p50": med(r.rte_m for r in records),
        "session.rre_deg_p50": med(r.rre_deg for r in records),
        "session.toe_s_p50": med(r.toe_s for r in records),
        "session.failed_share": sum(r.failed for r in records) / len(records),
    }


def layer_metrics(tracer, traced, untraced, busy_traced, busy_untraced) -> dict:
    totals = tracing.layer_totals(tracer.spans, _SPLIT)
    values = {}
    for metric in LAYER_METRICS:
        span, field_name = metric.rsplit(".", 1)
        key = _SPAN_KEY.get(metric) or _SPAN_KEY.get(span, span)
        t = totals.get(key)
        values[metric] = getattr(t, _FIELD.get(field_name, field_name)) / len(traced) if t else 0.0
    surviving = sum(r.surviving_matches for r in traced)
    values["matching.precision"] = (
        sum(r.true_matches for r in traced) / surviving if surviving else 0.0)
    values["trace.overhead_share"] = busy_traced / busy_untraced - 1.0
    values.update(session_summary(untraced))
    return values


def environment() -> dict:
    import numpy
    import scipy

    blas = (numpy.show_config(mode="dicts") or {}).get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        with open("/proc/self/status") as fh:
            threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "threads": threads,
        "commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without starting a process."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def benchmark(workload, args, import_s: float, workdir: Path) -> dict:
    # building the inputs is timed once per scene for the first few scenes,
    # which then serve as the run's first sessions; a traced run builds
    # every scene with the wrappers installed instead
    prebuilt, setup_times = [], []
    for k in range(0 if args.trace else SETUP_ROUNDS):
        t0 = time.perf_counter()
        prebuilt.append(workload.build(args.seed, k, workdir / "run"))
        setup_times.append(time.perf_counter() - t0)

    tracer = tracing.Tracer()
    untraced, busy, traced, busy_traced = run_sessions(
        workload, args.seed, workdir / "run", args.seconds / 2 if args.trace else args.seconds,
        prebuilt=prebuilt, trace=(tracer, []) if args.trace else None)
    problems = problems_of(untraced)
    failed = sum(r.failed for r in untraced)
    if args.trace:
        problems += problems_of(traced) + transparency_problems(untraced, traced)
        metrics = layer_metrics(tracer, traced, untraced, busy_traced, busy)
        units = PER_LAYER
    else:
        metrics = {
            "sessions_per_s": len(untraced) / busy,
            "setup_s": import_s + checks.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "score_p50": checks.median(r.outcome.score for r in untraced),
            "success_share": 1.0 - failed / len(untraced),
        }
        units = END_TO_END
    env = environment()
    if env["threads"] not in (None, 1):
        problems.append(f"{env['threads']} threads running; the benchmark must use one")

    print(f"workload {workload.name}, seed {args.seed}, {len(untraced)} sessions "
          f"in {busy:.3f} s of session time: "
          + " ".join(f"{r.seconds:.3f}" for r in untraced))
    if not args.trace:  # a traced run reports these among its metrics
        for name, value in session_summary(untraced).items():
            print(f"  {name} = {value:.6g}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print("env " + json.dumps(env, sort_keys=True))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(untraced),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # one process and no extra threads: pin the BLAS pools before numpy loads
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "trajcal" / "__init__.py").is_file():
        print(f"error: no trajcal sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # trajcal's dependencies are loaded first and left out of setup_s: their
    # import (0.5-0.9 s) swings by a third from run to run with the machine
    import click.testing  # noqa: F401
    import numpy  # noqa: F401
    import scipy.spatial  # noqa: F401

    import_times = []
    for _ in range(SETUP_ROUNDS):
        for name in [m for m in sys.modules if m == "trajcal" or m.startswith("trajcal.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        # the package, and the CLI that the continuous workload drives
        importlib.import_module("trajcal.cli")
        import_times.append(time.perf_counter() - t0)
    import_s = checks.median(import_times)
    trajcal = sys.modules["trajcal"]
    if Path(trajcal.__file__).resolve().parent != (SRC / "trajcal").resolve():
        print(f"error: imported trajcal from {trajcal.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT))
    try:
        result = benchmark(workloads.WORKLOADS[args.workload], args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
