"""Repeatability self-check of the benchmark.

Runs every workload traced, twice with one seed and once with another, and
checks that:

* the two same-seed runs give identical exact counts (membership queries,
  closure members, mix_family tuples, Sg calls, ...) and identical verdicts;
* the other seed gives the same verdict mix;
* every pass inside each traced run gave the same exact counts.

Usage (from the repository root):

    python3 bench/selfcheck.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

BENCH = Path(__file__).resolve().parent
SEED = 1
OTHER_SEED = 2
SECONDS = 2


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2])


def main() -> int:
    ok = True
    for w in WORKLOADS:
        a = traced_run(w, SEED)
        b = traced_run(w, SEED)
        c = traced_run(w, OTHER_SEED)
        checks = {
            "counts repeat": a["exact_counts"] == b["exact_counts"],
            "verdicts repeat": a["verdicts"] == b["verdicts"],
            "passes repeat": a["repeatable"] and b["repeatable"] and c["repeatable"],
            "verdict mix holds across seeds": a["verdicts"] == c["verdicts"],
        }
        ok &= all(checks.values())
        print(json.dumps({"workload": w, **checks, "exact_counts": a["exact_counts"],
                          "verdicts": a["verdicts"]}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
