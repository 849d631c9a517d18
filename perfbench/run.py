"""The repository benchmark: one command, four workloads, checked answers.

    python3 perfbench/run.py --workload kernel|hwv|transform|cli|all \\
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports the engine from the
checkout's src/ and refuses to run without it.  Each workload runs in its own
fresh interpreter (perfbench/worker.py), one at a time, with PYTHONHASHSEED
fixed.  See perfbench/README.md for why each workload exists and which layer
metric should move which end-to-end metric.

Every time is reported at reference speed: measured time scaled by how long
the benchmark's own reference work took around it, to take out the machine's
own speed swings (perfbench/speed.py).  The measured pass times are printed
and kept in the result file too.

--trace 0 prints the end-to-end metrics, measured with tracing off:
  setup_s      median of SETUP_PROBES fresh interpreters importing the engine,
               building the calibrated operator and filling first-call caches
  wall_s       median time of one pass over the workload's input set
  op_p50_ms    median operation latency over all passes
  op_tail_ms   nearest-rank 99th percentile of the same latencies where at
               least ten samples lie beyond it (transform, which also prints
               it as op_p99_ms), otherwise the median latency over the
               passes of the slowest input
  peak_rss_mb  peak resident memory of the workload's process (for cli, of
               its largest `penrose` process)
--trace 1 runs one untraced pass and then one traced pass, each in a fresh
interpreter, and prints the per-layer metrics plus the tracing overhead
(traced wall_s minus untraced wall_s).  Spans go to perfbench/out/.

Failed operations are counted in the result line's `failed` out of
`attempted`; the run still prints every metric.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("kernel", "hwv", "transform", "cli")
SETUP_PROBES = 3
RUN_BUDGET_S = 170  # every run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_yield"):
        return "ratio"
    return "count"


def environment() -> dict:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        commit = top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit}


def run_worker(arguments: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; return its JSON line."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *arguments],
        env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any `penrose` it started
        proc.communicate()
        raise BenchError(f"worker {arguments} ran past the time budget")
    if proc.returncode != 0:
        raise BenchError(f"worker {arguments} exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {arguments} printed no result")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--seed", str(seed), "--seconds", str(seconds)]
    if not trace:
        figures = run_worker([workload, *common], deadline)
        setups = [figures["setup_s"]]
        setups += [run_worker(["setup"], deadline)["setup_s"] for _ in range(SETUP_PROBES - 1)]
        values = {
            "setup_s": statistics.median(setups),
            **{name: figures[name] for name in ("wall_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")},
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        notes = {"setup_probes_s": setups}
    else:
        untraced = run_worker([workload, *common, "--passes", "1"], deadline)
        figures = run_worker([workload, *common, "--passes", "1", "--trace"], deadline)
        values = dict(figures["layers"])
        values["trace.overhead_s"] = figures["wall_s"] - untraced["wall_s"]
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in values.items()}
        notes = {
            "untraced_wall_s": untraced["wall_s"], "traced_wall_s": figures["wall_s"],
            "spans": figures["spans"],
        }
    notes.update(
        walls_s=figures["walls_s"], measured_walls_s=figures["measured_walls_s"],
        reference_s=figures["reference_s"], ops=figures["ops"], beyond_p99=figures["beyond_p99"],
        tail=figures["tail"], properties=figures.get("properties", {}),
    )
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": figures["failed"] == 0, "attempted": figures["attempted"],
        "failed": figures["failed"], "metrics": metrics, "notes": notes,
    }


def report(result: dict, env: dict) -> None:
    """Human-readable lines; the JSON result line comes last, after these."""
    print(
        f"# workload={result['workload']} seed={result['seed']} seconds={result['seconds']} "
        f"trace={result['trace']} python={env['python']} nproc={env['nproc']} commit={env['commit']}"
    )
    for name, metric in result["metrics"].items():
        print(f"{name:45s} {metric['value']:>16.6g} {metric['unit']}")
    notes = result["notes"]
    print(f"{'failed_ops':45s} {result['failed']:>9d} / {result['attempted']} attempted")
    if "op_tail_ms" in result["metrics"] and notes["tail"] == "p99":
        print(f"{'op_p99_ms':45s} {result['metrics']['op_tail_ms']['value']:>16.6g} ms (= op_tail_ms)")
    print(
        f"# ops={notes['ops']} ({notes['beyond_p99']} beyond p99, so op_tail_ms is the "
        f"{'p99' if notes['tail'] == 'p99' else 'slowest input'}), passes={len(notes['walls_s'])}"
    )
    print(
        "# measured pass times " + " ".join(f"{w:.4f}" for w in notes["measured_walls_s"])
        + f" s; reference work took {1000 * notes['reference_s']:.3f} ms (median)"
    )
    for name, value in notes["properties"].items():
        print(f"{name:45s} {value:>16.6g}")
    if "untraced_wall_s" in notes:
        print(
            f"# untraced wall_s={notes['untraced_wall_s']:.4f} traced wall_s={notes['traced_wall_s']:.4f} "
            f"spans={notes['spans']}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "monogenic" / "__init__.py").is_file():
        print(f"error: no engine sources at {ROOT / 'src' / 'monogenic'}", file=sys.stderr)
        return 2
    env = environment()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            report(result, env)
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    for result in results:
        name = f"result-{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
        (OUT / name).write_text(json.dumps({**result, "environment": env}, indent=1) + "\n")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
