"""Run one `penrose` command for the cli workload.

    python3 perfbench/cli_child.py --samples FILE COMMAND [ARGS...]
    python3 perfbench/cli_child.py --spans FILE COMMAND [ARGS...]

Behaves like `python -m monogenic.cli COMMAND [ARGS...]` (same stdout and exit
code).  With --samples it times the reference work every SAMPLE_EVERY_S from a
timer signal (speed.py) and writes those samples to FILE when the command
ends, so the benchmark can scale the command's time to reference speed.  With
--spans it installs the benchmark's tracer instead and writes the process's
spans to FILE.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    mode, out_file, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "--samples":
        from speed import Speedometer

        speed = Speedometer()
        speed.start_timer()
        try:
            from monogenic import cli

            return cli.main(argv)
        finally:
            speed.stop_timer()
            Path(out_file).write_text(json.dumps(speed.dump()))

    from tracing import Tracer

    tracer = Tracer()
    t0 = time.perf_counter()
    from monogenic import cli

    tracer.import_s = time.perf_counter() - t0
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        Path(out_file).write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    raise SystemExit(main())
