"""Replay the recorded mutants: each one must make its named tests fail.

A mutant replaces one exact text in one file.  For each mutant the script
copies `src/`, `tests/` and `pyproject.toml` into a temporary directory,
applies the mutant there and runs each named test in its own pytest process,
with `-x`.  A `conftest.py` written into the copy's `tests/` (never into the
checkout) loads a Hypothesis profile without the shrink phase or an example
database, so a property that catches the mutant fails within seconds and no
earlier run decides the result.  Each test process keeps its temporary files
inside the copy, and SIGTERM exits as Ctrl-C does, so nothing of a copy
outlives the script.
The named tests must first pass on an unmutated copy.  A mutant is `killed`
only when every one of its named tests fails; otherwise it `survived`, and the
tests that still pass are listed.  The last line is `total: ok` only when
every mutant is killed.

Usage: python scripts/mutants.py
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_HWV = "src/monogenic/hwv.py"
_EXPR = "src/monogenic/expr.py"
_CHARTS = "src/monogenic/charts.py"
_COCHAIN = "src/monogenic/cochain.py"
_TRANSFORM = "src/monogenic/transform.py"
_WEYL = "src/monogenic/weyl.py"
_CODEC = ["tests/test_charts.py::test_term_data_reads_the_twistor_slots_by_name"]
_ERROR_TABLE = ["tests/test_expr.py::test_parse_errors_give_their_message_and_position"]
_N = "n, c, terms = 2 * a + b + 5,"
_PINNED_STRINGS = ["tests/test_hwv.py::test_complete_pinned_strings",
                   "tests/test_hwv.py::test_completion_is_the_raising_solve"]
_CERTIFICATE = ["tests/test_transform.py::test_equivariance_certificate_holds",
                "tests/test_transform.py::test_spinor_action_on_a_worked_image"]
_COBOUNDARIES = ["tests/test_cochain.py::test_coboundaries_span_the_transform_kernel"]
_RHO_ORACLE = ["tests/test_transform.py::test_rho_is_the_oracle_table"]
_KERNEL = ["tests/test_dirac.py::test_graded_kernel_dimensions_match_the_enumeration",
           "tests/test_dirac.py::test_orbit_count_agrees_with_the_global_rank"]
_BROKEN_PLAN = ["tests/test_dirac.py::test_a_broken_plan_fails_the_certificate"]
_CERTIFIED = ["tests/test_dirac.py::test_the_certificate_agrees_with_the_commutation_oracle"]
_STENCIL = ["tests/test_dirac.py::test_integer_column_image_is_the_scaled_fraction_image",
            "tests/test_dirac.py::test_apply_2dirac_is_the_stencil_operator"]
_DOMINANT = ["tests/test_dirac.py::test_dominant_blocks_are_the_oracle_partition",
             "tests/test_dirac.py::test_dominant_blocks_count_every_column"]
_CLOSED_FORM = ["tests/test_hwv.py::test_closed_form_is_the_product_expansion",
                "tests/test_hwv.py::test_closed_form_transforms_to_the_golden_images",
                "tests/test_hwv.py::test_complete_001_exact_value"]

# (name, file, exact old text, new text, tests that must fail)
MUTANTS = [
    ("hwv: candidates in ascending order", _HWV, "return sorted(out, reverse=True)", "return sorted(out)",
     _PINNED_STRINGS + ["tests/test_hwv.py::test_candidates_are_descending_and_share_the_lead_weight"]),
    ("hwv: representative zeroed at the pivots, not reduced by the rows", _HWV,
     "accumulate(h, ((ascending[c], -factor * v) for c, v in row.items()))", "h.pop(ascending[p])",
     _PINNED_STRINGS),
    ("hwv: coboundary rows pivot at their first nonzero candidate", _HWV,
     "ascending = exponents[::-1]", "ascending = exponents", _PINNED_STRINGS),
    ("hwv: no leading-shape check", _HWV,
     "    if body.coefficient_of((\"z0\",), (l,)) != leading_term(a, b, l)[1]:\n", "    if False:\n",
     ["tests/test_hwv.py::test_completion_rejects_a_scaled_closed_form"]),
    ("hwv: closed form with N = 2a + b + 4", _HWV, _N, "n, c, terms = 2 * a + b + 4,", _CLOSED_FORM),
    ("hwv: closed form with N = 2a + b + 6", _HWV, _N, "n, c, terms = 2 * a + b + 6,", _CLOSED_FORM),
    ("hwv: no certificate check", _HWV,
     "    if not _is_hwv_image(image):\n        raise InternalCheckError(",
     "    if False:\n        raise InternalCheckError(",
     ["tests/test_hwv.py::test_completion_certifies_the_closed_form",
      "tests/test_hwv.py::test_completion_raises_only_the_final_image",
      "tests/test_hwv.py::test_completion_rejects_zero_candidate_images"]),
    ("hwv: no weight-space check", _HWV,
     "    if not form.terms.keys() <= set(exponents):\n", "    if False:\n",
     ["tests/test_hwv.py::test_completion_rejects_a_closed_form_outside_the_weight_space"]),
    ("transform: rho(E23) with the x1_1j sign flipped", _TRANSFORM,
     "{u: 1}, sign)", '{u: 1}, -sign if v[:4] == "x1_1" and index[2] == 1 else sign)',
     _CERTIFICATE + _RHO_ORACLE),
    ("transform: no E12 slot entry", _TRANSFORM,
     "for nu in range(4) if index[nu] != nu)", "for nu in range(2, 4) if index[nu] != nu)",
     _CERTIFICATE + _RHO_ORACLE),
    ("cochain: chart-1 sections twisted by zeta1^-4", _COCHAIN, "    twist = 5\n", "    twist = 4\n",
     _COBOUNDARIES + _PINNED_STRINGS),
    ("cochain: chart-1 sections twisted by zeta1^-6", _COCHAIN, "    twist = 5\n", "    twist = 6\n",
     _COBOUNDARIES + _PINNED_STRINGS),
    ("cochain: E12 twist 4 zeta1", _COCHAIN,
     '_TWISTS = {"E12": _poly({"zeta1": 1}, 5)}', '_TWISTS = {"E12": _poly({"zeta1": 1}, 4)}',
     _CERTIFICATE),
    ("transform: reach rule degree + 0", _TRANSFORM,
     "sum(r - 1 for r in poles) <= degree + 1", "sum(r - 1 for r in poles) <= degree + 0",
     ["tests/test_transform.py::test_reach_rule_keeps_every_nonzero_image",
      "tests/test_transform.py::test_reach_rule_boundary_cases"]),
    ("transform: no SpinorField component count check", _TRANSFORM,
     "        if type(self.components) is not tuple or len(self.components) != 4:\n"
     '            raise PreconditionError("a spinor field is a tuple of exactly four components")\n',
     "", ["tests/test_laurent.py::test_spinor_field_is_a_tuple_of_four_components"]),
    ("expr: no negative-exponent check", _EXPR,
     "            if exponent < 0 and name not in alphabet.negatives:\n"
     '                raise ParseError(f"negative exponent on {name!r}, which is not invertible", pos)\n',
     "", _ERROR_TABLE),
    ("expr: accept a zero denominator", _EXPR,
     "                if not denominator:\n"
     '                    raise ParseError("zero denominator", token[2])\n',
     "", _ERROR_TABLE),
    ("expr: unknown identifier at the next token", _EXPR,
     'raise ParseError(f"unknown identifier {name!r}", pos)',
     'raise ParseError(f"unknown identifier {name!r}", tokens[cursor][2])', _ERROR_TABLE),
    ("laurent: accumulate keeps zero sums", "src/monogenic/laurent.py",
     "        if s:\n            out[key] = s\n        else:\n            out.pop(key, None)\n",
     "        out[key] = s\n",
     ["tests/test_laurent.py::test_public_construction_is_canonical",
      "tests/test_expr.py::test_like_terms_merge"]),
    ("dirac: apply_2dirac drops / op.scale", "src/monogenic/dirac.py",
     "c = coeff / op.scale", "c = coeff",
     ["tests/test_dirac.py::test_apply_2dirac_is_the_stencil_operator"]),
    ("dirac: no central term", "src/monogenic/dirac.py",
     "terms[nu] += [(x_u, None, j, mu, c), (x12, x_v, j, mu, c * half_kappa)]",
     "terms[nu] += [(x_u, None, j, mu, c)]", _STENCIL),
    ("dirac: central term in the other GL(2) half", "src/monogenic/dirac.py",
     "(x12, x_v, j, mu, c * half_kappa)", "(x12, x_v, 1 - j, mu, c * half_kappa)", _STENCIL),
    ("dirac: _column_image lowers x12 in place of x_s", "src/monogenic/dirac.py",
     "            e[s] = m - 1\n", "            e[0] -= 1\n", _STENCIL),
    ("dirac: _column_image ignores v", "src/monogenic/dirac.py",
     "            if v is not None:\n                e[v] += 1\n", "", _STENCIL),
    ("dirac: flipped kappa sign", "src/monogenic/dirac.py",
     "return (jv - ju) * wedge_pair_sign(", "return (ju - jv) * wedge_pair_sign(",
     ["tests/test_dirac.py::test_closed_form_bracket_is_the_commutator_bracket"]),
    ("weyl: _codes packs in base k", _WEYL,
     "return [8 * (k + 1) ** t", "return [8 * k ** t",
     ["tests/test_dirac.py::test_block_rows_are_the_transposed_column_images"]),
    ("weyl: no Weyl certificate call", _WEYL, "    _certify_weyl_symmetry(op)\n", "", _BROKEN_PLAN),
    ("weyl: no distinct-pair check", _WEYL,
     "        if len({(s, v) for s, v, *_ in slot}) != len(slot):\n"
     '            raise InternalCheckError(f"slot {nu}: two plan entries share a variable pair (s, v)")\n',
     "", _BROKEN_PLAN),
    ("weyl: no plan-weight check", _WEYL, "if _entry_weight(s, v, j, mu) != _unit(2 + nu):", "if False:",
     _BROKEN_PLAN),
    ("weyl: _orbit_size returns 1", _WEYL,
     "    return (1 if c0 == c1 else 2) * _S4_ORBITS[(f0 == f1) + 2 * (f1 == f2) + 4 * (f2 == f3)]\n",
     "    return 1\n", _KERNEL),
    ("weyl: the S4 orbit of f0 = f1 = f2 > f3 counted as 6", _WEYL,
     "_S4_ORBITS = (24, 12, 12, 4,", "_S4_ORBITS = (24, 12, 12, 6,",
     _KERNEL + ["tests/test_dirac.py::test_orbit_size_is_the_multinomial"]),
    ("weyl: a lowering entry's raised variable weighs nothing", _WEYL,
     "_VARIABLE_WEIGHTS[v] if v is not None else",
     "_VARIABLE_WEIGHTS[v] if s == _X12 and v is not None else", _BROKEN_PLAN),
    ("weyl: x12 sent to +x12", _WEYL,
     '("x12", det * (-1 if halves[0] else 1))', '("x12", 1)', _KERNEL),
    ("weyl: output sign +1", _WEYL, "halves, tau, det)", "halves, tau, 1)", _KERNEL),
    ("weyl: strict GL(4) dominance", _WEYL,
     "(f0 + 1 >= f1 >= f2 >= f3, f0 > f1 >= f2 - 1 and f2 >= f3,\n"
     "                                    f0 >= f1 > f2 >= f3 - 1, f0 >= f1 >= f2 > f3)",
     "(f0 + 1 > f1 > f2 > f3, f0 > f1 + 1 > f2 > f3, f0 > f1 > f2 + 1 > f3, f0 > f1 > f2 > f3 + 1)",
     _KERNEL),
    ("weyl: slot 0 needs f0 >= f1", _WEYL, "f0 + 1 >= f1 >= f2 >= f3", "f0 >= f1 >= f2 >= f3", _DOMINANT),
    ("weyl: slot 1 allows f0 = f1", _WEYL, "f0 > f1 >= f2 - 1 and", "f0 >= f1 >= f2 - 1 and", _DOMINANT),
    ("weyl: slot 2 allows f1 = f2", _WEYL, "f0 >= f1 > f2 >= f3 - 1", "f0 >= f1 >= f2 >= f3 - 1",
     _DOMINANT),
    ("weyl: slot 3 allows f2 = f3", _WEYL, "f0 >= f1 >= f2 > f3", "f0 >= f1 >= f2 >= f3", _DOMINANT),
    ("weyl: _dominant_blocks drops the row-1 shift", _WEYL,
     "w = w0 + w1 + d1 * (base - 1)", "w = w0 + w1", _KERNEL),
    ("charts: term_data swaps the z12 and z21 slots", _CHARTS,
     "exps[1:7]", "(exps[1], exps[3], exps[2], exps[4], exps[5], exps[6])",
     _CODEC + ["tests/test_cochain.py::test_weight_of_monomial_matches_the_name_reading"]),
    ("charts: term_data drops the minus on the zeta2 pole", _CHARTS,
     "-exps[8]", "exps[8]", _CODEC + ["tests/test_hwv.py::test_complete_001_exact_value"]),
    ("charts: x1 rows paired with e instead of ebar", _CHARTS,
     "LAMBDA2_BASIS[3 * (2 - b) + i]", "LAMBDA2_BASIS[3 * (b - 1) + i]",
     _RHO_ORACLE + ["tests/test_dirac.py::test_the_variable_table_is_the_oracle_convention",
                    "tests/test_dirac.py::test_integer_column_image_is_the_scaled_fraction_image"]),
    ("charts: w3j bound to +z3j/zeta1", _CHARTS, 'over_zeta1(-1, f"z3{j}")', 'over_zeta1(1, f"z3{j}")',
     ["tests/test_charts.py::test_chart1_bindings_are_the_w01_transition"]),
    ("charts: the pair move drops its orientation sign", _CHARTS,
     " * (1 if ta < tb else -1)", "", _KERNEL),
    ("calibration: config_fields flips the epsilon sign", "src/monogenic/calibration.py",
     'sign = "+1" if config.epsilon > 0 else "-1"', 'sign = "-1" if config.epsilon > 0 else "+1"',
     ["tests/test_cli.py::test_calibrate_writes_config_and_report", "tests/test_cli_golden.py"]),
    ("calibration: the attempts' norm text built with str", "src/monogenic/calibration.py",
     '"clifford_norm": format_fraction(norm),', '"clifford_norm": str(norm),',
     ["tests/test_cli_golden.py"]),
    ("laurent: rref skips the first back-reduction step of each row", "src/monogenic/laurent.py",
     "for p in [k for k in row if k in reduced]:", "for p in [k for k in row if k in reduced][1:]:",
     ["tests/test_nullspace.py::test_rref_and_nullspace_match_the_gauss_jordan_oracle",
      "tests/test_nullspace.py::test_random_50_by_80_rank_nullity"]),
    ("laurent: _echelon negates the multiplier a but not b", "src/monogenic/laurent.py",
     "a, b = -a, -b", "a = -a",
     ["tests/test_nullspace.py::test_rref_and_nullspace_match_the_gauss_jordan_oracle",
      "tests/test_dirac.py::test_graded_kernel_dimensions_match_the_enumeration"]),
    ("laurent: _echelon writes to the caller's row when a is one", "src/monogenic/laurent.py",
     "row.copy() if a == 1", "row if a == 1",
     ["tests/test_nullspace.py::test_elimination_leaves_the_callers_rows_unchanged"]),
    ("weyl: _dominant_blocks drops the d0 = d1 splits", _WEYL,
     "for d1 in range((k - 2 * m) // 2 + 1):", "for d1 in range((k - 2 * m + 1) // 2):", _DOMINANT),
    ("weyl: _dominant_blocks sorts columns by code + nu, not slot-major", _WEYL,
     "return [nu * span for nu in range(4)]", "return [nu for nu in range(4)]",
     ["tests/test_dirac.py::test_dominant_blocks_are_the_oracle_partition",
      "tests/test_dirac.py::test_block_ranks_take_at_most_the_pinned_row_operations"]),
    ("weyl: _block_rows gates the central entries on exps[1], not x12", _WEYL,
     "            m = exps[0]\n", "            m = exps[1]\n",
     ["tests/test_dirac.py::test_block_rows_are_the_transposed_column_images"]),
    ("weyl: the certificate drops the moved entry's sign", _WEYL,
     "g.output_sign * sign_s * sign_v * w", "g.output_sign * w", _KERNEL + _CERTIFIED),
    ("weyl: the certificate drops v's sign", _WEYL, "sign_s * sign_v * w))", "sign_s * w))", _KERNEL),
    ("weyl: the certificate looks the moved entry up in slot nu, not slots[nu]", _WEYL,
     "set(op.plan[g.slots[nu]])", "set(op.plan[nu])", _KERNEL + _CERTIFIED),
    ("repn: dim_sl4 divides by 6", "src/monogenic/repn.py", "(3 + p + q + r) // 12", "(3 + p + q + r) // 6",
     ["tests/test_repn.py::test_dim_sl4", "tests/test_repn.py::test_decompose_degree_two",
      "tests/test_repn.py::test_the_decomposition_has_the_hilbert_series"]),
    ("cli: table columns joined by one space", "src/monogenic/cli.py",
     'print(indent + "  ".join(', 'print(indent + " ".join(', ["tests/test_cli_golden.py"]),
    ("cli: no __main__ guard", "src/monogenic/cli.py",
     '\n\nif __name__ == "__main__":\n    raise SystemExit(main())\n', "\n",
     ["tests/test_cli.py::test_console_script_entry_point"]),
]

CONFTEST = """from hypothesis import Phase, settings

settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate), database=None)
settings.load_profile("mutants")
"""


def run_tests(groups: list[list[str]], mutant: tuple[str, str, str] | None = None) -> list[int]:
    """The pytest exit code of each group of tests, one process per group, in one fresh copy.

    `mutant` (file, old, new) is applied to the copy first.
    """
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        (copy / "tests" / "conftest.py").write_text(CONFTEST)
        if mutant:
            file, old, new = mutant
            text = (copy / file).read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{file}: the mutant's old text occurs {text.count(old)} times, not once")
            (copy / file).write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1", TMPDIR=tmp)
        return [
            subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ).returncode
            for tests in groups
        ]


def main() -> int:
    # SIGTERM raises SystemExit, which unwinds through `TemporaryDirectory` and removes the copy.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.perf_counter()
    # A mutant counts as killed only if the same tests pass without it.
    named = sorted({test for *_, tests in MUTANTS for test in tests})
    if run_tests([named]) != [0]:
        print("baseline: the named tests fail on the unmutated copy")
        return 1
    all_killed = True
    for name, file, old, new, tests in MUTANTS:
        t0 = time.perf_counter()
        codes = run_tests([[test] for test in tests], (file, old, new))
        errors = sorted({code for code in codes if code not in (0, 1)})
        passed = [test for test, code in zip(tests, codes) if code == 0]
        if errors:
            verdict = f"error (pytest exit {', '.join(map(str, errors))})"
        else:
            verdict = f"survived (still passing: {', '.join(passed)})" if passed else "killed"
        all_killed &= not errors and not passed
        print(f"{name}: {verdict}  ({time.perf_counter() - t0:.1f}s)", flush=True)
    print(f"total: {'ok' if all_killed else 'SURVIVORS'}  ({time.perf_counter() - start:.1f}s)")
    return 0 if all_killed else 1


if __name__ == "__main__":
    raise SystemExit(main())
