"""Randomized audit: transforms of random sections land in the operator kernel.

Draws seeded pseudo-random Laurent sections, pushes them through the residue
transform and checks exact monogenicity of every image; also counts how often
the syntactic triviality certificates fire and how they relate to actual
class vanishing.  A TrivialNegativePole or an Inconclusive certificate
implies a zero image (an Inconclusive monomial is past the transform's reach
bound), so a nonzero image under either fails the audit.  Each nonzero image
is also raised both ways, by the spinor-side action and by transforming the
raised section, and any difference fails the audit.

Usage: python scripts/transform_audit.py [--samples N] [--seed S]
"""

import argparse
import random
import time
from fractions import Fraction

from monogenic.calibration import build_calibrated, find_calibration
from monogenic.charts import Z_VARS
from monogenic.cochain import (
    POSITIVE_SIMPLE_ROOTS,
    Certificate,
    CochainSection,
    g0_action,
    triviality_certificate,
)
from monogenic.dirac import is_monogenic
from monogenic.transform import penrose_transform, spinor_action


MAX_Z_DEGREE = 4
MAX_POLE = 4


def random_monomial(rng: random.Random) -> CochainSection:
    z = {}
    for _ in range(rng.randint(0, MAX_Z_DEGREE)):
        v = rng.choice(Z_VARS)
        z[v] = z.get(v, 0) + 1
    return CochainSection.monomial(
        s0=rng.randint(0, 2),
        z=z,
        poles=tuple(rng.randint(-2, MAX_POLE) for _ in range(3)),
        coeff=Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4)),
    )


def run(samples: int, seed: int) -> bool:
    calibration, _ = find_calibration()
    op = build_calibrated(calibration)
    rng = random.Random(seed)
    t0 = time.perf_counter()
    failures = 0
    certificates = {c: 0 for c in Certificate}
    certified_nonzero = 0
    inconclusive_nonzero = 0
    zero_images = 0
    mismatches = 0
    for _ in range(samples):
        section = random_monomial(rng)
        image = penrose_transform(section)
        if image.is_zero():
            zero_images += 1
        else:
            for root in POSITIVE_SIMPLE_ROOTS:
                if spinor_action(root, image) != penrose_transform(g0_action(root, section)):
                    mismatches += 1
                    print(f"NOT EQUIVARIANT under {root}:", section.body.to_string())
        if not is_monogenic(op, image):
            failures += 1
            print("NOT MONOGENIC:", section.body.to_string())
        cert = triviality_certificate(section)
        certificates[cert] += 1
        if cert is Certificate.TRIVIAL_NEGATIVE_POLE and not image.is_zero():
            certified_nonzero += 1
        if cert is Certificate.INCONCLUSIVE and not image.is_zero():
            inconclusive_nonzero += 1
    print(f"samples: {samples} (seed {seed}), {time.perf_counter() - t0:.2f}s")
    print(f"kernel failures: {failures}")
    print(f"zero transforms: {zero_images}")
    for cert, count in certificates.items():
        print(f"certificate {cert.value}: {count}")
    print(f"negative-pole certificates with nonzero image (must be 0): {certified_nonzero}")
    print(f"inconclusive certificates with nonzero image (must be 0): {inconclusive_nonzero}")
    print(f"equivariance mismatches (must be 0): {mismatches}")
    return failures == 0 and certified_nonzero == 0 and inconclusive_nonzero == 0 and mismatches == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=20250808)
    args = parser.parse_args()
    return 0 if run(args.samples, args.seed) else 1


if __name__ == "__main__":
    raise SystemExit(main())
