"""One workload process: import ccspi from the checkout, set the workload
up, say READY, run one round and print its result as one JSON line.

    python3 perfbench/worker.py --workload suites --seed 1 --mode run

Modes: `probe` stops after READY (a set-up sample), `run` is untraced,
`profile` runs the round under cProfile and `count` under the counters.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("probe", "run", "profile", "count"), default="run")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import ccspi

    package_dir = os.path.dirname(os.path.abspath(ccspi.__file__))
    if package_dir != os.path.join(SRC, "ccspi"):
        print(f"ccspi imported from {package_dir}, not from {SRC}", file=sys.stderr)
        return 2
    from tracing import Counters, cache_entries, profile_layers
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    print("READY", flush=True)
    if args.mode == "probe":
        return 0

    profiler = cProfile.Profile() if args.mode == "profile" else None
    counters = Counters() if args.mode == "count" else None
    if counters:
        counters.install()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    if profiler:
        profiler.enable()
    try:
        res = workload.run()
    finally:
        if profiler:
            profiler.disable()
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        if counters:
            counters.uninstall()

    layers: dict[str, float] = {"cache.entries": cache_entries()}
    if profiler:
        profiler.create_stats()
        layers.update(profile_layers(profiler.stats, package_dir))
    if counters:
        layers.update(counters.metrics())
    result = {
        "attempted": res.attempted,
        "failed": res.failed,
        "errors": res.errors[:10],
        "n_errors": len(res.errors),
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": res.spans,
        "queries": res.queries,
        "latencies_ms": res.latencies_ms,
        "layers": layers,
        "absent": counters.absent if counters else [],
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
