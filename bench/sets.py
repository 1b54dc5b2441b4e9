"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sets.py --seeds 1-10 [--workload NAME ...] [--save FILE]

Runs ``bench/run.py`` untraced, for BENCHMARK.json's ``run_seconds``, once
per (workload, seed), one process at a time, from the repository root,
and prints per workload and metric the median,
the first and third quartiles (``statistics.quantiles(n=4)``) and their
distance as a share of the median.  ``--save FILE`` keeps every result
line as JSON, so two sets can be compared later.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict[str, tuple[float, float, float, float]]:
    """metric -> (median, q1, q3, (q3 - q1) / median)."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = (median, q1, q3, (q3 - q1) / median if median else float("nan"))
    return out


def main(argv=None) -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload in BENCHMARK.json")
    parser.add_argument("--save", help="append every result line, as JSON, to this file")
    args = parser.parse_args(argv)

    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        results = []
        for seed in _seeds(args.seeds):
            result = run_one(workload, seed, benchmark["run_seconds"])
            results.append(result)
            if args.save:
                with open(args.save, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        if len(results) < 2:
            continue
        for name, (median, q1, q3, spread) in summarise(results).items():
            print(f"{workload:>18} {name:<26} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"(q3-q1)/median {spread:.2%}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
