"""Write the expected outputs that the hwv and cli workloads compare against.

    PYTHONHASHSEED=0 python3 perfbench/make_golden.py

The files in perfbench/golden/ were written once, by the engine at the commit
that defined the benchmark, so they pin that commit's printed output.  A later
mismatch is a changed answer: fix the engine, do not rerun this script.
"""

import json
import os
import sys

import worker

# The engine comes from this checkout, also in the `penrose` children, which
# run in a temporary directory where a relative PYTHONPATH would not resolve.
SRC = str(worker.ROOT / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = SRC
os.environ["PYTHONHASHSEED"] = "0"


def main() -> int:
    import monogenic

    hwv = {}
    for label in worker.HWV_LABELS:
        section = monogenic.hwv_complete(label)
        image = monogenic.penrose_transform(section)
        hwv["%d,%d,%d" % label] = {
            "section": section.body.to_string(),
            "transform": [p.to_string() for p in image.components],
        }
    cli = worker.Cli(seed=0)
    cli.begin_pass()
    outputs = {}
    for command in cli.inputs:
        returncode, stdout = cli.run(command)
        if returncode:
            print(f"{' '.join(command)} exited with {returncode}", file=sys.stderr)
            return 1
        outputs[" ".join(command)] = stdout
    cli.end_pass()
    worker.GOLDEN.mkdir(exist_ok=True)
    for name, data in (("hwv.json", hwv), ("cli.json", outputs)):
        (worker.GOLDEN / name).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
