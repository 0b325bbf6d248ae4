"""Self-test: every workload, untraced and traced, end to end at tiny
bounds, in seconds.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Exits 0 when every run completes, passes its checks and prints every
metric that BENCHMARK.json names for it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"] for m in listed}
            if not out["correct"]:
                problems.append(f"{label}: a check failed\n{proc.stderr}")
            if set(out["metrics"]) != want:
                problems.append(f"{label}: metrics {sorted(set(out['metrics']) ^ want)} differ")
            print(f"{label}: attempted {out['attempted']}, failed {out['failed']}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
