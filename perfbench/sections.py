"""Seeded random cochain sections for the `transform` workload.

The benchmark owns this generator, so edits to the audit scripts cannot change
its inputs.  Each section is one monomial z0^s0 prod z_ij^s_ij / zeta^r with a
rational coefficient.

The shapes follow scripts/transform_audit.py, which draws s0 from 0..2 and the
z degree d from 0..4, each uniformly.  Transform cost is set almost entirely
by the shape: the substituted integrand has up to 13^s0 * 3^d terms, and one
operation takes from under 1 ms (s0 = 0) to about 200 ms (s0 = 2, d = 4).
So the 15 shapes come in equal, fixed counts per pass and only their order,
variables, poles and coefficients are drawn from the seed; that keeps the
pass cost steady across seeds while the latency keeps the audit's heavy tail.

Poles decide whether the image can be nonzero: a term survives the residue only
if every pole order is at least 1 and their sum is at most s0 + d + 4 (each
binding carries at most one zeta).  The audit draws each pole from -2..4, and
only about 9 % of its images are nonzero.  Here three fifths of each shape get
such "reachable" poles, so that nearly two thirds of the images are nonzero
and the residue arithmetic is exercised; the rest keep the audit's pole draw,
which mostly gives zero images and exercises the negative-pole certificate.
Measured, a pass of these sections and a pass of the audit's draw take about
the same time and have about the same p50 and p99 (figures in README.md).
"""

from __future__ import annotations

import random
from fractions import Fraction

Z_VARS = ("z11", "z12", "z21", "z22", "z31", "z32")

SHAPES = tuple((s0, d) for s0 in range(3) for d in range(5))
REACHABLE_SHARE = 0.6


def shape_counts(count: int) -> dict[tuple[int, int], int]:
    """Sections per (s0, z degree) shape in a pass of `count` sections."""
    per_shape = {shape: count // len(SHAPES) for shape in SHAPES}
    # The remainder goes to the first, cheaper shapes so the pass has exactly `count`.
    for shape in SHAPES[: count - sum(per_shape.values())]:
        per_shape[shape] += 1
    return per_shape


def _poles(rng: random.Random, s0: int, d: int, reachable: bool) -> tuple[int, int, int]:
    if not reachable:
        return tuple(rng.randint(-2, 4) for _ in range(3))
    poles = [1, 1, 1]
    for _ in range(rng.randint(0, s0 + d + 1)):
        poles[rng.randrange(3)] += 1
    return tuple(poles)


def generate(seed: int, count: int) -> list[tuple[int, dict[str, int], tuple[int, int, int], Fraction]]:
    """`count` monomial sections as (s0, z exponents, poles, coefficient)."""
    rng = random.Random(seed)
    sections = []
    for (s0, d), n in shape_counts(count).items():
        reachable = round(n * REACHABLE_SHARE)
        for i in range(n):
            z: dict[str, int] = {}
            for _ in range(d):
                v = rng.choice(Z_VARS)
                z[v] = z.get(v, 0) + 1
            coeff = Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4))
            sections.append((s0, z, _poles(rng, s0, d, i < reachable), coeff))
    rng.shuffle(sections)
    return sections


def properties(sections, zero_images: int) -> dict[str, float]:
    """Input properties the transform's behaviour depends on."""
    keys = {(s0, tuple(sorted(z.items())), poles) for s0, z, poles, _ in sections}
    return {
        "input.sections": len(sections),
        "input.zero_image_frac": zero_images / len(sections),
        "input.distinct_monomial_ratio": len(keys) / len(sections),
        "input.max_pole": max(max(poles) for _, _, poles, _ in sections),
        "input.max_z_degree": max(s0 + sum(z.values()) for s0, z, _, _ in sections),
    }
