"""Print the graded decomposition of monogenic spinors, degree by degree.

Each label's row ends with the term count of its highest weight vector in
closed form (`hwv.closed_form`).

Usage: python scripts/decomposition_table.py [--max-degree K]
"""

import argparse

from monogenic.hwv import closed_form
from monogenic.repn import decompose_Mk


def run(max_degree: int) -> None:
    for k in range(max_degree + 1):
        rows = decompose_Mk(k)
        total = sum(desc.dimension for _, desc in rows)
        print(f"degree {k}: dim M_k = {total}")
        for label, desc in rows:
            gl2 = "({}, {})".format(*desc.gl2_weight)
            sl4 = str(desc.sl4_weight)
            print(
                f"  (a,b,l)=({label.a},{label.b},{label.l})  "
                f"gl2 {gl2:>12}  sl4 {sl4:>14}  dim {desc.dimension}  "
                f"terms {len(closed_form((label.a, label.b, label.l)).terms)}"
            )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-degree", type=int, default=6)
    args = parser.parse_args()
    run(args.max_degree)


if __name__ == "__main__":
    main()
