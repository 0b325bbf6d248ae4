"""The ccspi benchmark.  Run from the root of a checkout:

    python3 perfbench/run.py --workload suites --seed 1 --seconds 50 --trace 0

Each round of the workload runs in a fresh worker process (worker.py).
Untraced (`--trace 0`), set-up probes come first, then rounds for about
`--seconds` (at least one); the last line of standard output is one JSON
object with the end-to-end metrics, medians over the rounds.  Traced
(`--trace 1`), one untraced, one profiled and one counted round give the
per-layer metrics.
Exit status 0 means the run completed; `correct` says whether every output
passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5
DEADLINE_S = 170.0
# a 99th percentile needs ten samples beyond it; with fewer in a run, the
# run has no tail to show and query_p99_ms reports the median
TAIL_SAMPLES = 1000

sys.path.insert(0, HERE)
from tracing import COUNTERS, MODULES  # noqa: E402
from workloads import CCS_SUITES, PI_SUITES, WORKLOADS  # noqa: E402


class WorkerError(RuntimeError):
    pass


def spawn(args, mode: str, deadline: float, round_index: int = 0) -> tuple[float, dict | None]:
    """Run one worker; return its set-up time (spawn to READY) and result.
    Round r of a run with seed s gets seed 1000 * s + r, so the rounds of a
    run differ and the same seed always gives the same rounds."""
    seed = 1000 * args.seed + round_index
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(seed),
           "--mode", mode] + (["--tiny"] if args.tiny else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} round of {args.workload} passed the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode} before a result")
    if mode == "probe":
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def summarize(rounds: list[dict]) -> dict:
    errors = [e for r in rounds for e in r["errors"]]
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    return {
        "correct": not any(r["n_errors"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }


def end_to_end(args, deadline: float) -> dict:
    setups = [spawn(args, "probe", deadline)[0] for _ in range(SETUP_PROBES)]
    rounds: list[dict] = []
    took: list[float] = []
    start = time.monotonic()
    # another round while it would end nearer to --seconds than stopping now
    while not rounds or time.monotonic() - start + statistics.median(took) / 2 < args.seconds:
        t0 = time.monotonic()
        setup, res = spawn(args, "run", deadline, len(rounds))
        took.append(time.monotonic() - t0)
        setups.append(setup)
        rounds.append(res)
    out = summarize(rounds)

    # medians over rounds, so that a burst of load from outside the
    # benchmark that slows one round does not move the result
    def median(key):
        return statistics.median(key(r) for r in rounds)

    lat = [x for r in rounds for x in r["latencies_ms"]]
    p50 = statistics.median(lat)
    tail = len(lat) >= TAIL_SAMPLES
    out["metrics"] = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(median(lambda r: r["wall_s"]), "s"),
        "cpu_s": metric(median(lambda r: r["cpu_s"]), "s"),
        "peak_rss_mb": metric(median(lambda r: r["peak_rss_mb"]), "MB"),
        "queries_per_s": metric(median(lambda r: r["queries"] / r["wall_s"]), "1/s"),
        "query_p50_ms": metric(p50, "ms"),
        "query_p99_ms": metric(
            statistics.quantiles(lat, n=100, method="inclusive")[98] if tail else p50, "ms"),
    }
    print(f"{len(rounds)} rounds, {len(setups)} set-ups, {len(lat)} latency samples"
          + ("" if tail else f" (under {TAIL_SAMPLES}: query_p99_ms is the median)"),
          file=sys.stderr)
    return out


def traced(args, deadline: float) -> dict:
    _, plain = spawn(args, "run", deadline)
    _, prof = spawn(args, "profile", deadline)
    _, count = spawn(args, "count", deadline)
    out = summarize([plain, prof, count])
    values: dict[str, float] = {}
    values.update(prof["layers"])
    values.update(count["layers"])
    values["cache.entries"] = plain["layers"]["cache.entries"]
    for name in CCS_SUITES + PI_SUITES:
        values[f"suites.{name}_s"] = plain["spans"].get(name, 0.0)
    values["trace.profile_overhead_s"] = prof["wall_s"] - plain["wall_s"]
    values["trace.count_overhead_s"] = count["wall_s"] - plain["wall_s"]
    for name in count["absent"]:
        print(f"absent: {name} no longer exists; its counters read 0", file=sys.stderr)
    out["metrics"] = {name: metric(values[name], unit) for name, unit in per_layer_units()}
    return out


def per_layer_units() -> list[tuple[str, str]]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    units = []
    for mod in MODULES:
        units += [(f"{mod}.self_s", "s"), (f"{mod}.calls", "count")]
    units += [(f"suites.{name}_s", "s") for name in CCS_SUITES + PI_SUITES]
    units += [(name, "ratio" if name.endswith("_ratio") else "count") for name in COUNTERS]
    units += [("cache.entries", "count"), ("trace.profile_overhead_s", "s"),
              ("trace.count_overhead_s", "s")]
    return units


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test bounds")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ccspi", "__init__.py")):
        print(f"no ccspi sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        out = traced(args, deadline) if args.trace else end_to_end(args, deadline)
    except WorkerError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
