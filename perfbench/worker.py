"""Run one benchmark workload in this fresh interpreter and print its figures.

run.py starts one worker per workload (and one per set-up probe), one at a
time, with PYTHONHASHSEED fixed and the checkout's src/ on PYTHONPATH:

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py WORKLOAD --seed N --seconds S [--passes P] [--trace]

A pass runs the workload's whole input set, one operation at a time (a single
client in a closed loop).  Passes repeat while another one fits in --seconds
(at least one; exactly P with --passes).  Every answer is checked after the
timed passes; an operation that raises, exits non-zero or fails its check
counts as one failed operation and the run goes on.  Times are reported at
reference speed (speed.py), with the measured pass times alongside.  The last
stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import oracle
import sections as section_gen
from speed import Speedometer
from tracing import Tracer, layer_metrics, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden"

KERNEL_DEGREES = (1, 2, 3, 4, 5)
# dim M_k for k = 1..5, the sums of the Weyl dimensions of the summands.
KERNEL_DIMS = {1: 40, 2: 220, 3: 880, 4: 2860, 5: 8008}
# Every degree-5 label with l >= 1; lower degrees would not fit the run length.
HWV_LABELS = ((0, 3, 1), (1, 1, 1), (0, 1, 2))
TRANSFORM_SECTIONS = 1000
# Every fifth transform section is also checked against the independent oracle.
ORACLE_EVERY = 5
CLI_SECTION = "z0*z11*zeta1^-2*zeta2^-1*zeta3^-1 - 1/2*z12*z21*zeta1^-1*zeta2^-2*zeta3^-1"
CLI_COMMANDS = (
    ("calibrate",),
    ("transform", "--section", CLI_SECTION),
    ("weight", "--section", CLI_SECTION),
    ("act", "--root", "E12", "--section", CLI_SECTION),
    ("check-monogenic", "--spinor", "x2_11^2;0;0;0"),
    ("kernel-dim", "--degree", "3"),
    ("decompose", "--degree", "6"),
    ("hwv", "--a", "0", "--b", "0", "--l", "1"),
    ("hwv", "--a", "1", "--b", "0", "--l", "1"),
)


def setup():
    """Import the engine, build the calibrated operator and fill first-call caches."""
    import monogenic
    from monogenic import calibration, charts

    if ROOT / "src" not in Path(monogenic.__file__).resolve().parents:
        raise SystemExit(f"monogenic was imported from {monogenic.__file__}, not from this checkout")
    config, _ = calibration.find_calibration()
    op = calibration.build_calibrated(config)
    charts.correspondence_substitution()
    return op


def timed_setup():
    """setup() and its time at reference speed."""
    speed = Speedometer()
    with speed.sampling(timer=True):
        t0 = time.perf_counter()
        op = setup()
        t1 = time.perf_counter()
    return op, speed.at_reference(t0, t1)


@functools.cache
def load_golden(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


# ------------------------------------------------------------------ workloads
# The engine is imported inside functions: set-up time starts at its first
# import, and lookups through module attributes see the tracer's wrappers.
class Kernel:
    """dim M_k by exact nullspace, checked against the Weyl dimension sums."""

    def __init__(self, seed, op):
        from monogenic.repn import decompose_Mk

        self.op = op
        self.inputs = random.Random(seed).sample(KERNEL_DEGREES, len(KERNEL_DEGREES))
        self.weyl = {k: sum(d.dimension for _, d in decompose_Mk(k)) for k in KERNEL_DEGREES}

    def run(self, k):
        from monogenic.dirac import graded_kernel_dim

        return graded_kernel_dim(self.op, k)

    def check(self, k, dim):
        return dim == self.weyl[k] == KERNEL_DIMS[k]


class Hwv:
    """`penrose hwv`: complete the highest weight vector, then transform it."""

    def __init__(self, seed, op):
        self.op = op
        self.inputs = random.Random(seed).sample(HWV_LABELS, len(HWV_LABELS))
        self.verified: set = set()

    def run(self, label):
        import monogenic

        section = monogenic.hwv_complete(label)
        return section, monogenic.penrose_transform(section)

    def check(self, label, output):
        import monogenic

        section, image = output
        printed = {
            "section": section.body.to_string(),
            "transform": [p.to_string() for p in image.components],
        }
        if printed != load_golden("hwv.json")["%d,%d,%d" % label]:
            return False
        if label not in self.verified:  # equal outputs get equal verdicts
            if not (
                monogenic.hwv_test(section)
                and monogenic.label_of_hwv(section) == monogenic.IrrepLabel(*label)
                and monogenic.is_monogenic(self.op, image)
            ):
                return False
            self.verified.add(label)
        return True


class Transform:
    """Seeded random sections: transform each, then test the image's monogenicity."""

    def __init__(self, seed, op):
        from monogenic.cochain import CochainSection

        self.op = op
        self.raw = section_gen.generate(seed, TRANSFORM_SECTIONS)
        self.inputs = [
            (index, CochainSection.monomial(s0=s0, z=z, poles=poles, coeff=coeff))
            for index, (s0, z, poles, coeff) in enumerate(self.raw)
        ]
        self.expected: dict[int, list] = {}

    def run(self, item):
        import monogenic

        image = monogenic.penrose_transform(item[1])
        return image, monogenic.is_monogenic(self.op, image)

    def check(self, item, output):
        from monogenic.charts import BASE
        from monogenic.cochain import Certificate, triviality_certificate

        index, section = item
        image, monogenic_image = output
        certified_zero = triviality_certificate(section) is Certificate.TRIVIAL_NEGATIVE_POLE
        if not monogenic_image or (certified_zero and not image.is_zero()):
            return False
        if index % ORACLE_EVERY:
            return True
        if index not in self.expected:
            self.expected[index] = oracle.transform(*self.raw[index])
        return oracle.matches(image, BASE.names, self.expected[index])

    def properties(self, outputs) -> dict:
        zeros = sum(1 for out in outputs if out is not None and out[0].is_zero())
        return section_gen.properties(self.raw, zeros)


class Cli:
    """A fixed `penrose ... --format json` session, one fresh interpreter per command."""

    def __init__(self, seed, traced=False):
        rest = list(CLI_COMMANDS[1:])
        random.Random(seed).shuffle(rest)
        self.inputs = [CLI_COMMANDS[0]] + rest  # calibrate writes the file the rest read
        self.traced = traced
        self.child_dumps: list[dict] = []  # spans of each `penrose` process (traced)
        self.child_samples: list[list] = []  # reference samples of each one (untraced)
        self.commands_run = 0
        self.cwd = None

    def begin_pass(self):
        OUT.mkdir(exist_ok=True)
        self.cwd = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))

    def end_pass(self):
        for spans in sorted(self.cwd.glob("spans-*.json")):
            self.child_dumps.append(json.loads(spans.read_text()))
        for samples in sorted(self.cwd.glob("samples-*.json")):
            self.child_samples.append(json.loads(samples.read_text()))
        shutil.rmtree(self.cwd)

    def run(self, command):
        self.commands_run += 1
        kind = "spans" if self.traced else "samples"
        out_file = self.cwd / f"{kind}-{self.commands_run:04d}.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "cli_child.py"), f"--{kind}", str(out_file)]
            + list(command) + ["--format", "json"],
            cwd=self.cwd,
            stdout=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def check(self, command, output):
        returncode, stdout = output
        repo_clean = not list(ROOT.glob("penrose-calibration*"))
        return returncode == 0 and repo_clean and stdout == load_golden("cli.json")[" ".join(command)]


WORKLOADS = {"kernel": Kernel, "hwv": Hwv, "transform": Transform, "cli": Cli}


# ------------------------------------------------------------------ measuring
def measure(workload, seconds: float, passes: int | None, tracer: Tracer | None) -> dict:
    speed = Speedometer()
    spans: list[list[tuple[float, float]]] = []  # per pass, (start, end) per operation
    results: list[list] = []
    start = time.perf_counter()
    # No sampling timer here while `penrose` processes run (they sample
    # themselves), nor inside spans (traced runs).
    with speed.sampling(timer=tracer is None and not isinstance(workload, Cli)):
        while True:
            if hasattr(workload, "begin_pass"):
                workload.begin_pass()
            outputs, times = [], []
            for index, item in enumerate(workload.inputs):
                if tracer is not None:
                    tracer.op = f"{len(spans)}.{index}"
                speed.sample_if_due()
                t0 = time.perf_counter()
                try:
                    out = workload.run(item)
                except Exception:  # one failed operation; the run goes on
                    traceback.print_exc()
                    out = None
                times.append((t0, time.perf_counter()))
                outputs.append(out)
            speed.sample()
            spans.append(times)
            if hasattr(workload, "end_pass"):
                workload.end_pass()
            results.append(outputs)
            if passes is not None:
                if len(spans) >= passes:
                    break
            elif time.perf_counter() - start + statistics.median(
                sum(speed.measured(t0, t1) for t0, t1 in times) for times in spans
            ) > seconds:
                break

    # Memory is read before the answer checks, whose own work (the oracle's
    # expansions, the monogenicity tests) is not the workload's.
    rss_mb = peak_rss_mb(children_only=isinstance(workload, Cli))
    if tracer is not None:
        tracer.enabled = False
    attempted = failed = 0
    for outputs in results:
        for item, out in zip(workload.inputs, outputs):
            attempted += 1
            try:
                good = out is not None and workload.check(item, out)
            except Exception:
                traceback.print_exc()
                good = False
            if not good:
                print(f"failed operation: {item!r}", file=sys.stderr)
                failed += 1

    for samples in getattr(workload, "child_samples", []):
        speed.merge(samples)
    latencies = [[speed.at_reference(t0, t1) for t0, t1 in times] for times in spans]
    ordered = sorted(lat for times in latencies for lat in times)
    p99_rank = math.ceil(0.99 * len(ordered))
    beyond_p99 = len(ordered) - p99_rank
    # A 99th percentile needs at least ten samples beyond it (transform has
    # 1000 operations a pass); kernel, hwv and cli have 3 to 9 inputs and 1 to
    # 3 passes a run, so there the tail figure is the slowest input's median
    # latency over the passes.
    if beyond_p99 >= 10:
        tail, tail_s = "p99", ordered[p99_rank - 1]
    else:
        tail, tail_s = "slowest", max(map(statistics.median, zip(*latencies)))
    figures = {
        "wall_s": statistics.median(sum(times) for times in latencies),
        "walls_s": [sum(times) for times in latencies],
        "measured_walls_s": [sum(speed.measured(t0, t1) for t0, t1 in times) for times in spans],
        "reference_s": statistics.median(speed.seconds),
        "op_p50_ms": 1000 * statistics.median(ordered),
        "op_tail_ms": 1000 * tail_s,
        "tail": tail,
        "ops": len(ordered),
        "beyond_p99": beyond_p99,
        "peak_rss_mb": rss_mb,
        "attempted": attempted,
        "failed": failed,
    }
    if hasattr(workload, "properties"):
        figures["properties"] = workload.properties(results[0])
    return figures


def peak_rss_mb(children_only: bool) -> float:
    """Peak resident memory; for cli, of the largest `penrose` process."""
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if not children_only:
        peak = max(peak, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak / 1024  # ru_maxrss is in KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=["setup", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--passes", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    # One core for the worker and the `penrose` processes it starts, so the
    # reference work samples the speed of the core the operations run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload == "setup":
        print(json.dumps({"setup_s": timed_setup()[1]}))
        return 0

    cli = args.workload == "cli"
    tracer = None
    if args.trace and not cli:  # cli traces each `penrose` process instead
        tracer = Tracer()
        tracer.install()
    op, setup_s = timed_setup()  # this fresh interpreter is also one set-up sample
    workload = Cli(args.seed, args.trace) if cli else WORKLOADS[args.workload](args.seed, op)
    figures = measure(workload, args.seconds, args.passes, tracer)
    figures["setup_s"] = setup_s
    if args.trace:
        dumps = workload.child_dumps if cli else [tracer.dump()]
        OUT.mkdir(exist_ok=True)
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", dumps)
        figures["layers"] = layer_metrics(dumps)
        figures["spans"] = sum(len(dump["spans"]) for dump in dumps)
    print(json.dumps(figures))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
