"""rdspectral benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  The run
warms up, then for about S seconds alternates set-ups (``setup_s`` is
their median) with whole rounds of the workload's operations (``run_s``
is the median round), and checks every operation's output.  With
``--trace 1`` the same rounds run, without set-ups, with spans recorded
at each layer boundary; the per-layer metrics are per round and the
spans are written to ``bench/out/``.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the process then computes on a
# single core of the two, and the ADI matrix products time steadily.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-ups repeated before each round, for at least this long.  Spreading
# them over the whole run, rather than timing them in one block, samples
# the same host conditions as the rounds: on a shared host a 2-ms set-up
# ran at 1.1 ms in one minute and 2.1 ms in another.
SETUP_SLICE_S = 0.25


def _import_package():
    """Import rdspectral from this checkout's src/; exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "rdspectral" / "__init__.py").is_file():
        sys.exit(f"error: no rdspectral source under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import rdspectral
    if Path(rdspectral.__file__).resolve().parent != (src / "rdspectral").resolve():
        sys.exit(f"error: imported rdspectral from {rdspectral.__file__}, not from {src}")


def _time_setups(workload) -> list[float]:
    """Set-ups one after another until SETUP_SLICE_S has passed; at least one."""
    times: list[float] = []
    started = time.perf_counter()
    while not times or time.perf_counter() - started < SETUP_SLICE_S:
        tick = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - tick)
    return times


def _run_rounds(workload, seconds: float, setups: bool):
    """Set-ups (if asked) and a whole round, repeated until the next
    repetition would take the timed total past ``seconds``; at least one.
    The untimed checks do not count, so a reference computed once, at the
    first check, costs no round."""
    setup_times: list[float] = []
    round_times: list[float] = []
    ops = []
    while True:
        if setups:
            setup_times += _time_setups(workload)
        tick = time.perf_counter()
        done = workload.run_round()
        round_times.append(time.perf_counter() - tick)
        workload.check(done)
        workload.cleanup()
        for op in done:
            op.out = {}   # keep the verdicts only, so memory does not grow with rounds
        ops.extend(done)
        timed = sum(round_times) + sum(setup_times)
        if timed + timed / len(round_times) > seconds:
            return setup_times, round_times, ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; valid: {', '.join(WORKLOADS)}")
    out_dir = HERE / "out"
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    workload = WORKLOADS[args.workload](
        args.seed, tracer, out_dir / f"run-{args.workload}-{os.getpid()}")

    try:
        workload.warmup()
        if args.trace:
            tracer.install()
            tracer.reset()
        setup_times, round_times, ops = _run_rounds(workload, args.seconds,
                                                    setups=not args.trace)
    finally:
        workload.cleanup()
        if args.trace:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_s = statistics.median(round_times)

    failed = [op for op in ops if op.failed]
    for op in failed:
        for reason in ([op.error] if op.error else []) + op.problems:
            print(f"FAILED {op.label}: {reason}")
    print(f"{args.workload}: seed {args.seed}, {len(round_times)} rounds of "
          f"{len(ops) // len(round_times)} operations, {len(failed)} failed")
    print("round times (s): " + " ".join(f"{t:.4f}" for t in round_times))

    if args.trace:
        layers = tracer.layer_metrics(len(round_times))
        metrics = {name: (layers[name], unit) for name, unit in tracing.LAYER_METRICS}
        metrics["bench.traced_run_s"] = (run_s, "s")
        spans = out_dir / f"trace-{args.workload}-seed{args.seed}.csv"
        tracer.write_spans(spans)
        print(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = {"setup_s": (statistics.median(setup_times), "s"), "run_s": (run_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")

    result = {
        # a wrong output is an incorrect result; a raised error only a failure
        "correct": not any(op.problems for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
