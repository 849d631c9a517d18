"""Cross-validate the operator kernels against the dimension formulas.

Two fully independent routes to dim M_k: the exact kernel count of the 2-Dirac
operator on degree-k spinors, sum over the dominant weights lambda of
|W.lambda| * (n_lambda - rank B_lambda) (`weyl.kernel_character`, one exact rank
per weight block), and the sum of classical dimension formulas over the summand
labels.  Any mismatch is a bug in one of them.

Usage: python scripts/kernel_audit.py [--max-degree K]
"""

import argparse
import time

from monogenic.calibration import build_calibrated, find_calibration, format_fraction
from monogenic.dirac import graded_kernel_dim
from monogenic.repn import decompose_Mk


def run(max_degree: int) -> bool:
    calibration, _ = find_calibration()
    op = build_calibrated(calibration)
    norm = format_fraction(calibration.clifford_norm)
    print(f"calibration: epsilon={calibration.epsilon:+d}, norm={norm}")
    all_ok = True
    start = time.perf_counter()
    for k in range(max_degree + 1):
        t0 = time.perf_counter()
        kernel = graded_kernel_dim(op, k)
        weyl = sum(desc.dimension for _, desc in decompose_Mk(k))
        ok = kernel == weyl
        all_ok &= ok
        print(
            f"degree {k}: kernel {kernel:>6}  formulas {weyl:>6}  "
            f"{'ok' if ok else 'MISMATCH'}  ({time.perf_counter() - t0:.2f}s)"
        )
    print(f"total: {'ok' if all_ok else 'MISMATCH'}  ({time.perf_counter() - start:.2f}s)")
    return all_ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-degree", type=int, default=5)
    args = parser.parse_args()
    return 0 if run(args.max_degree) else 1


if __name__ == "__main__":
    raise SystemExit(main())
