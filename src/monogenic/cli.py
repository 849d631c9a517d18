"""Command-line front end.

Every subcommand prints a result document: command echo, canonical input
form, structured outputs and the calibration constants in use.  `--format
json` emits deterministic JSON (stable key order, terms in canonical order);
the default is an aligned plain-text table.  Exit codes: 0 success, 1 stdout
closed early (`penrose ... | head`), 2 parse error, 3 precondition violation
(including a missing calibration file), 4 internal assertion failure.

All commands except `calibrate` read `penrose-calibration.txt` from the
working directory and refuse to run without it, keeping the one convention
choice explicit across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import calibration
from .charts import term_data
from .cochain import ROOT_NAMES, CochainSection, g0_action, weight_of_monomial
from .dirac import apply_2dirac, graded_kernel_dim
from .expr import ParseError, parse_section, parse_spinor
from .hwv import _complete_with_image
from .laurent import InternalCheckError, PreconditionError, number_text
from .repn import decompose_Mk
from .transform import penrose_transform

# Input budgets: past these an exact run takes minutes to hours, not seconds.
KERNEL_DEGREE_LIMIT = 8  # about 0.3 s on one core; degree 9, which only the tests run, about 0.75 s
HWV_DEGREE_LIMIT = 6  # on the label degree 2a + b + 2l
TRANSFORM_DEGREE_LIMIT = 12  # on 2*s0 + sum s_ij per term; z0^6 takes about 2 s on one core
# On the sum over terms of 1 + 2*s0 + sum s_ij: the largest hwv section up to
# degree 6, (0,0,3), weighs 539; at most 43 degree-12 terms, about 70 s on one core.
TRANSFORM_SECTION_LIMIT = 560
DECOMPOSE_DEGREE_LIMIT = 200  # 5,151 summands, 0.34 MB of table; the table grows as degree^2 / 8


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2))
        return
    print(f"command: {doc['command']}")
    for key, value in doc["input"].items():
        print(f"{key}: {value}")
    cal = doc["calibration"]
    print(f"calibration: epsilon = {cal['epsilon']}, clifford_norm = {cal['clifford_norm']}")
    _emit_table(doc["result"], indent="")


def _cell(value) -> str:
    if isinstance(value, list):
        return "(" + ", ".join(str(v) for v in value) + ")"
    return str(value)


def _emit_table(value, indent: str) -> None:
    """A dict as `key: value` lines, a list of dicts with the same keys as an
    aligned table, a list of scalars one item per line."""
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)):
                print(f"{indent}{key}:")
                _emit_table(item, indent + "  ")
            else:
                print(f"{indent}{key}: {item}")
    elif value and isinstance(value[0], dict):
        rows = [list(value[0])] + [[_cell(v) for v in item.values()] for item in value]
        widths = [max(map(len, column)) for column in zip(*rows)]
        for row in rows:
            print(indent + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    else:
        for item in value:
            print(f"{indent}{item}")


def _spinor_strings(field) -> list[str]:
    return [p.to_string() for p in field.components]


# ------------------------------------------------------------------- commands
# Each handler takes the parsed arguments and the calibration file's contents (None for
# `calibrate`) and returns the canonical input echo, the result and the calibration in use.
def _cmd_transform(args, config):
    section = parse_section(args.section)
    degrees = [2 * s0 + sum(z) for s0, z, _ in map(term_data, section.body.terms)]
    if any(d > TRANSFORM_DEGREE_LIMIT for d in degrees):
        raise PreconditionError(
            f"a term's degree 2*s0 + sum s_ij is over the transform limit {TRANSFORM_DEGREE_LIMIT}"
        )
    if sum(1 + d for d in degrees) > TRANSFORM_SECTION_LIMIT:
        raise PreconditionError(
            f"the sum over terms of 1 + 2*s0 + sum s_ij is over the transform section limit "
            f"{TRANSFORM_SECTION_LIMIT}"
        )
    image = penrose_transform(section)
    return {"section": section.body.to_string()}, {"spinor": _spinor_strings(image)}, config


def _cmd_weight(args, config):
    section = parse_section(args.section)
    rows = []
    for exps, coeff in section.body.sorted_terms():
        monomial = CochainSection.from_terms({exps: 1})
        weight = weight_of_monomial(monomial)
        for entry in weight.gl4:  # fail before anything is printed
            number_text(entry)
        rows.append(
            {
                "monomial": monomial.body.to_string(),
                "coefficient": calibration.format_fraction(coeff),
                "gl2": [calibration.format_fraction(w) for w in weight.gl2],
                "gl4": list(weight.gl4),
            }
        )
    return {"section": section.body.to_string()}, {"weights": rows}, config


def _cmd_act(args, config):
    if args.root not in ROOT_NAMES:
        raise PreconditionError(f"unknown root {args.root!r}; choose from {ROOT_NAMES}")
    section = parse_section(args.section)
    image = g0_action(args.root, section).body.to_string()
    return {"root": args.root, "section": section.body.to_string()}, {"section": image}, config


def _cmd_check_monogenic(args, config):
    spinor = parse_spinor(args.spinor)
    first, second = apply_2dirac(calibration.build_calibrated(config), spinor)
    result = {"monogenic": all(p.is_zero() for p in first + second)}
    if not result["monogenic"]:
        result["residual_1"] = [p.to_string() for p in first]
        result["residual_2"] = [p.to_string() for p in second]
    return {"spinor": _spinor_strings(spinor)}, result, config


def _cmd_kernel_dim(args, config):
    if not 0 <= args.degree <= KERNEL_DEGREE_LIMIT:
        raise PreconditionError(f"degree must lie in 0..{KERNEL_DEGREE_LIMIT}, the kernel-dim limit")
    dim = graded_kernel_dim(calibration.build_calibrated(config), args.degree)
    return {"degree": args.degree}, {"dimension": dim}, config


def _cmd_decompose(args, config):
    if args.degree > DECOMPOSE_DEGREE_LIMIT:
        raise PreconditionError(f"degree is over the decompose limit {DECOMPOSE_DEGREE_LIMIT}")
    rows = [
        {
            "a": label.a, "b": label.b, "l": label.l,
            "gl2_weight": [calibration.format_fraction(w) for w in descriptor.gl2_weight],
            "sl4_weight": list(descriptor.sl4_weight),
            "dimension": descriptor.dimension,
        }
        for label, descriptor in decompose_Mk(args.degree)
    ]
    total = sum(row["dimension"] for row in rows)
    return {"degree": args.degree}, {"summands": rows, "total_dimension": total}, config


def _cmd_hwv(args, config):
    if 2 * args.a + args.b + 2 * args.l > HWV_DEGREE_LIMIT:
        raise PreconditionError(f"label degree 2a + b + 2l is over the hwv limit {HWV_DEGREE_LIMIT}")
    section, image = _complete_with_image((args.a, args.b, args.l))
    result = {"section": section.body.to_string(), "transform": _spinor_strings(image)}
    return {"a": args.a, "b": args.b, "l": args.l}, result, config


def _cmd_calibrate(args, _config):
    config, attempts = calibration.find_calibration()
    report = calibration.third_item_discrepancy(calibration.build_calibrated(config))
    config_file = calibration.write_config(config)  # first: it stays written if the report fails
    report_file = calibration.write_report(report)
    result = {
        "attempts": attempts,
        "chosen": calibration.config_fields(config),
        "config_file": str(config_file),
        "report_file": str(report_file),
        "third_item_report": report,
    }
    return {}, result, config


# name -> (handler, {required option: type}); every command also takes --format.
_COMMANDS = {
    "transform": (_cmd_transform, {"--section": str}),
    "weight": (_cmd_weight, {"--section": str}),
    "act": (_cmd_act, {"--root": str, "--section": str}),
    "check-monogenic": (_cmd_check_monogenic, {"--spinor": str}),
    "kernel-dim": (_cmd_kernel_dim, {"--degree": int}),
    "decompose": (_cmd_decompose, {"--degree": int}),
    "hwv": (_cmd_hwv, {"--a": int, "--b": int, "--l": int}),
    "calibrate": (_cmd_calibrate, {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="penrose",
        description="Exact twistor-transform engine for monogenic spinors.",
        # One fixed width for every help text: the same bytes on any terminal, no usage line wrapped.
        formatter_class=lambda prog: argparse.HelpFormatter(prog, width=100),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        command = sub.add_parser(name, formatter_class=parser.formatter_class)
        for option, kind in options.items():
            command.add_argument(option, required=True, type=kind)
        command.add_argument("--format", choices=("table", "json"), default="table")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = None if args.command == "calibrate" else calibration.read_config()
        inputs, result, config = _COMMANDS[args.command][0](args, config)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4
    doc = {"command": args.command, "input": inputs,
           "calibration": calibration.config_fields(config), "result": result}
    try:
        _emit(doc, args.format)
        if sys.stdout is not None:  # None when the process started with fd 1 closed
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`penrose ... | head`).  Point it at devnull
        # so the flush at interpreter exit cannot fail again, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
