"""Run the benchmark once per seed, one run at a time, and report each
metric's median and spread (quartile distance over the median).

    python3 perfbench/spread.py --workload reference --seeds 1-10 --seconds 35 [--trace 0]

This is the steadiness check a benchmark change must pass: every spread, bar
that of setup_s, should sit well inside its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_list)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in
              json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
             str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append(result)
        print(lines[0])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    print(f"{args.workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = checks.median(values)
        s = checks.spread(values) if len(values) > 1 and med else float("nan")
        bound = bounds.get(name)
        if bound is None or name == "setup_s":  # set-up spread is not gated, its median is
            flag = ""
        else:
            flag = "  ok" if s < bound / 3 else ("  within bound" if s <= bound else "  OVER BOUND")
        print(f"  {name}: median {med:.6g}, spread {s:.4f}"
              + ("" if bound is None else f" (bound {bound})") + flag)
    return 0


if __name__ == "__main__":
    sys.exit(main())
