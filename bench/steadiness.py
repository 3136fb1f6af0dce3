#!/usr/bin/env python3
"""Run the benchmark once per seed and report how much each metric spreads.

    python3 bench/steadiness.py --workload NAME --seeds 1-10 [--seconds 40]
        [--trace 0|1] [--out summary.json]

Runs ``bench/run.py`` one seed after another, in this process's closed
loop, and prints for each metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, which is
(q3 - q1) / median. With ``--out`` the summary is written as JSON as
well. The exit code is 1 when any run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    """'1-10' or '1,4,9' -> list of seeds."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("nan"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_list)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = 0
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            failed += 1
            print(f"seed {seed}: FAILED (exit {proc.returncode})", flush=True)
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        shown = "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {shown}", flush=True)

    summary = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": args.seeds,
        "failed_runs": failed,
        "metrics": {},
    }
    for name, series in values.items():
        if len(series) < 2:
            continue
        stats = summarize(series)
        summary["metrics"][name] = {"unit": units[name], **stats, "values": series}
        print(
            f"{name:<34} median {stats['median']:.6g} {units[name]}  "
            f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.3f}"
        )
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
