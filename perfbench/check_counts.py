"""Check the benchmark itself: two traced runs on one seed give identical counts.

    python3 perfbench/check_counts.py --workload hwv --seed 1 [--seconds 20]

Runs `run.py --trace 1` twice and compares every exact per-layer figure
(unit `count` or `ratio`: calls, term pairs, terms out, cells, blocks, hwv
dimensions and the ratios built from them).  Exits 1 on any difference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def exact_counts(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "ratio")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    first = exact_counts(args.workload, args.seed, args.seconds)
    second = exact_counts(args.workload, args.seed, args.seconds)
    differing = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    for name in differing:
        print(f"{name}: {first.get(name)} != {second.get(name)}")
    print(f"{len(first) - len(differing)} of {len(first)} exact counts repeat")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
