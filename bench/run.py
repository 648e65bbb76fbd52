"""hflkit benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 bench/run.py --workload hfl_tables --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25   # every metric

Run from the root of a checkout; hflkit is imported from ./src, nothing
is installed.  Workloads, and why each was chosen, are in
bench/workloads.py; the oracles that check every answer are in
bench/oracles.py.

With --trace 0 the run measures, for the workload:
  ops_per_s      requests completed per second of request time (closed
                 loop, one client, no think time)
  latency_p50_s  median wall time per request
  latency_p90_s  p90 wall time per request; a run holds at least 100
                 requests so ten or more lie beyond it
  setup_s        median over fresh processes of the time from
                 `import hflkit` until the parser is built and the first
                 request is parsed
  peak_rss_mib   peak resident memory of the worker process that ran
                 the requests
Times are wall times in reference seconds: each timed interval is scaled
by how fast a fixed calibration loop ran right before and after it (see
bench/worker.py), because CPU speed on a shared virtual machine swings
by up to 2x.
The raw wall-clock figures are printed too.
With --trace 1 it reports the per-layer metrics (see bench/README.md).
Lines before the last describe the run; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  A run that cannot
import hflkit prints no result and exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
sys.path.insert(0, BENCH_DIR)

from workloads import WORKLOADS  # noqa: E402

# Set-up is timed in SETUP_SAMPLES fresh processes before the request run
# and as many after it, so the median spans two stretches of machine speed.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 150


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup(first_argv: list[str], samples: int) -> list[tuple[float, float]]:
    """(raw, reference) seconds of hflkit set-up in ``samples`` fresh processes."""
    out = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, WORKER, "setup", ROOT, *first_argv],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        raw, reference = done.stdout.split()
        out.append((float(raw), float(reference)))
    return out


def source_lines() -> int:
    """Non-blank lines of the Python files under src/."""
    total = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    total += sum(1 for line in fh if line.strip())
    return total


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """Run one workload, print its report lines and return its result object."""
    first = next(WORKLOADS[workload](seed))[0]
    setup = []
    if not trace:
        measure_setup(first.argv or [], 1)  # may compile bytecode; not counted
        setup = measure_setup(first.argv or [], SETUP_SAMPLES)
    done = subprocess.run(
        [sys.executable, WORKER, "run", ROOT, workload, str(seed), repr(seconds), str(int(trace))],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"error: worker exited with code {done.returncode}", file=sys.stderr)
        return None
    run = json.loads(done.stdout.strip().splitlines()[-1])
    if not trace:
        setup += measure_setup(first.argv or [], SETUP_SAMPLES)

    failed = run["timeouts"] + run["errors"] + run["wrong"]
    lat = run["latencies"]
    error_rate = failed / run["attempted"]
    print(f"workload {workload} seed {seed}: {len(lat)} timed requests "
          f"in {run['busy_s']:.3f} s of request time; {run['attempted']} attempted, "
          f"{failed} failed ({run['timeouts']} over the time limit, {run['errors']} "
          f"raised or exited nonzero, {run['wrong']} rejected by the oracle)")
    for reason in run["reasons"]:
        print(f"  failure: {reason}")
    print("inputs: " + json.dumps(run["inputs"], sort_keys=True))

    if trace:
        layers = run["layers"]
        layers["bench.error_rate"] = error_rate
        layers["inputs.repeat_share"] = run["inputs"]["repeat_share"]
        layers["src.loc"] = source_lines()
        units = per_layer_units()
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
        print(f"spans: {run['spans']} written to {run['spans_file']}")
    else:
        p90 = percentile(lat, 0.9)
        beyond = sum(1 for x in lat if x > p90)
        metrics = {
            "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(lat), "unit": "s"},
            "latency_p90_s": {"value": p90, "unit": "s"},
            "setup_s": {"value": statistics.median(r for _, r in setup), "unit": "s"},
            "peak_rss_mib": {"value": run["peak_rss_mib"], "unit": "MiB"},
        }
        raw = run["raw_latencies"]
        print(f"latency_p90_s over {len(lat)} samples, {beyond} beyond it")
        print(f"error_rate = {error_rate!r} (failed / attempted)")
        print(f"raw wall clock: ops_per_s {len(raw) / sum(raw):.4f}, latency_p50_s "
              f"{statistics.median(raw):.5f}, latency_p90_s {percentile(raw, 0.9):.5f}, "
              f"setup_s {statistics.median(w for w, _ in setup):.5f}; machine speed "
              f"{sum(raw) / sum(lat):.3f} x reference")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    return {
        "correct": run["errors"] == 0 and run["wrong"] == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all: each workload untraced, then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "hflkit", "cli.py")):
        print(f"error: no hflkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    # Every workload in both modes; metric names gain a "<workload>/" prefix.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_workload(workload, args.seed, args.seconds, trace)
            if result is None:
                return 1
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                total["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(total))
    return 0


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in BENCHMARK.json order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
