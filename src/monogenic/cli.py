"""Command-line front end.

Every subcommand prints a result document: command echo, canonical input
form, structured outputs and the calibration constants in use.  `--format
json` emits deterministic JSON (stable key order, terms in canonical order);
the default is an aligned plain-text table.  Exit codes: 0 success, 2 parse
error, 3 precondition violation (including a missing calibration file),
4 internal assertion failure.

All commands except `calibrate` read `penrose-calibration.txt` from the
working directory and refuse to run without it, keeping the one convention
choice explicit across runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import calibration
from .cochain import ROOT_NAMES, CochainSection, g0_action, weight_of_monomial
from .dirac import apply_2dirac, graded_kernel_dim
from .expr import ParseError, parse_section, parse_spinor
from .hwv import _complete_with_image
from .laurent import InternalCheckError, PreconditionError, number_text
from .repn import decompose_Mk
from .transform import penrose_transform

# Input budgets: past these an exact run takes minutes to hours, not seconds.
KERNEL_DEGREE_LIMIT = 8  # about 1 s on one core; degree 9, which only the tests run, about 2.5 s
HWV_DEGREE_LIMIT = 6  # on the label degree 2a + b + 2l
TRANSFORM_DEGREE_LIMIT = 12  # on 2*s0 + sum s_ij per term; z0^6 takes about 2 s on one core
# On the sum over terms of 1 + 2*s0 + sum s_ij: the largest hwv section up to
# degree 6, (0,0,3), weighs 539; at most 43 degree-12 terms, about 70 s on one core.
TRANSFORM_SECTION_LIMIT = 560
DECOMPOSE_DEGREE_LIMIT = 200  # 5,151 summands, 0.34 MB of table; the table grows as degree^2 / 8


def _calibration_fields(config: calibration.CalibrationConfig) -> dict:
    return {
        "epsilon": "+1" if config.epsilon > 0 else "-1",
        "clifford_norm": calibration.format_fraction(config.clifford_norm),
    }


def _document(command: str, inputs: dict, result: dict, config) -> dict:
    doc = {"command": command, "input": inputs}
    if config is not None:
        doc["calibration"] = _calibration_fields(config)
    doc["result"] = result
    return doc


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2))
        return
    print(f"command: {doc['command']}")
    for key, value in doc["input"].items():
        print(f"{key}: {value}")
    if "calibration" in doc:
        cal = doc["calibration"]
        print(f"calibration: epsilon = {cal['epsilon']}, clifford_norm = {cal['clifford_norm']}")
    _emit_table(doc["result"], indent="")


def _flat_cell(value) -> str | None:
    if isinstance(value, (str, int, bool)) or value is None:
        return str(value)
    if isinstance(value, list) and all(isinstance(v, (str, int)) for v in value):
        return "(" + ", ".join(str(v) for v in value) + ")"
    return None


def _emit_table(value, indent: str) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)):
                print(f"{indent}{key}:")
                _emit_table(item, indent + "  ")
            else:
                print(f"{indent}{key}: {item}")
    elif isinstance(value, list):
        rows = [
            {k: _flat_cell(v) for k, v in item.items()}
            if isinstance(item, dict)
            else None
            for item in value
        ]
        if value and all(
            row is not None and all(cell is not None for cell in row.values())
            and list(row) == list(rows[0])
            for row in rows
        ):
            headers = list(rows[0])
            widths = {
                h: max(len(h), *(len(row[h]) for row in rows)) for h in headers
            }
            print(indent + "  ".join(h.ljust(widths[h]) for h in headers).rstrip())
            for row in rows:
                print(indent + "  ".join(row[h].ljust(widths[h]) for h in headers).rstrip())
            return
        for n, item in enumerate(value):
            if isinstance(item, (dict, list)):
                if n:
                    print(f"{indent}-")
                _emit_table(item, indent)
            else:
                print(f"{indent}{item}")
    else:
        print(f"{indent}{value}")


def _spinor_strings(field) -> list[str]:
    return [p.to_string() for p in field.components]


# ------------------------------------------------------------------- commands
def _cmd_transform(args, config) -> dict:
    section = parse_section(args.section)
    # TWISTOR slots: z0, then the six z_ij, then the zetas.
    degrees = [2 * e[0] + sum(e[1:7]) for e in section.body.terms]
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
    return _document(
        "transform",
        {"section": section.body.to_string()},
        {"spinor": _spinor_strings(image)},
        config,
    )


def _cmd_weight(args, config) -> dict:
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
    return _document(
        "weight", {"section": section.body.to_string()}, {"weights": rows}, config
    )


def _cmd_act(args, config) -> dict:
    if args.root not in ROOT_NAMES:
        raise PreconditionError(f"unknown root {args.root!r}; choose from {ROOT_NAMES}")
    section = parse_section(args.section)
    result = g0_action(args.root, section)
    return _document(
        "act",
        {"root": args.root, "section": section.body.to_string()},
        {"section": result.body.to_string()},
        config,
    )


def _cmd_check_monogenic(args, config) -> dict:
    spinor = parse_spinor(args.spinor)
    op = calibration.build_calibrated(config)
    first, second = apply_2dirac(op, spinor)
    monogenic = all(p.is_zero() for p in first + second)
    result = {"monogenic": monogenic}
    if not monogenic:
        result["residual_1"] = [p.to_string() for p in first]
        result["residual_2"] = [p.to_string() for p in second]
    return _document(
        "check-monogenic",
        {"spinor": [p.to_string() for p in spinor.components]},
        result,
        config,
    )


def _cmd_kernel_dim(args, config) -> dict:
    if not 0 <= args.degree <= KERNEL_DEGREE_LIMIT:
        raise PreconditionError(f"degree must lie in 0..{KERNEL_DEGREE_LIMIT}, the kernel-dim limit")
    op = calibration.build_calibrated(config)
    dim = graded_kernel_dim(op, args.degree)
    return _document(
        "kernel-dim", {"degree": args.degree}, {"dimension": dim}, config
    )


def _cmd_decompose(args, config) -> dict:
    if args.degree > DECOMPOSE_DEGREE_LIMIT:
        raise PreconditionError(f"degree is over the decompose limit {DECOMPOSE_DEGREE_LIMIT}")
    rows = []
    total = 0
    for label, descriptor in decompose_Mk(args.degree):
        total += descriptor.dimension
        rows.append(
            {
                "a": label.a,
                "b": label.b,
                "l": label.l,
                "gl2_weight": [calibration.format_fraction(w) for w in descriptor.gl2_weight],
                "sl4_weight": list(descriptor.sl4_weight),
                "dimension": descriptor.dimension,
            }
        )
    return _document(
        "decompose",
        {"degree": args.degree},
        {"summands": rows, "total_dimension": total},
        config,
    )


def _cmd_hwv(args, config) -> dict:
    if 2 * args.a + args.b + 2 * args.l > HWV_DEGREE_LIMIT:
        raise PreconditionError(f"label degree 2a + b + 2l is over the hwv limit {HWV_DEGREE_LIMIT}")
    section, image = _complete_with_image((args.a, args.b, args.l))
    return _document(
        "hwv",
        {"a": args.a, "b": args.b, "l": args.l},
        {"section": section.body.to_string(), "transform": _spinor_strings(image)},
        config,
    )


def _cmd_calibrate(args, _config) -> dict:
    config, attempts = calibration.find_calibration()
    op = calibration.build_calibrated(config)
    report = calibration.third_item_discrepancy(op)
    config_path = calibration.write_config(config)
    report_path = calibration.write_report(report)
    return _document(
        "calibrate",
        {},
        {
            "attempts": attempts,
            "chosen": _calibration_fields(config),
            "config_file": str(config_path),
            "report_file": str(report_path),
            "third_item_report": report,
        },
        config,
    )


_COMMANDS = {
    "transform": _cmd_transform,
    "weight": _cmd_weight,
    "act": _cmd_act,
    "check-monogenic": _cmd_check_monogenic,
    "kernel-dim": _cmd_kernel_dim,
    "decompose": _cmd_decompose,
    "hwv": _cmd_hwv,
    "calibrate": _cmd_calibrate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="penrose",
        description="Exact twistor-transform engine for monogenic spinors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **arguments):
        p = sub.add_parser(name)
        for arg, options in arguments.items():
            p.add_argument(arg, **options)
        p.add_argument("--format", choices=("table", "json"), default="table")
        return p

    add("transform", **{"--section": {"required": True}})
    add("weight", **{"--section": {"required": True}})
    add("act", **{"--root": {"required": True}, "--section": {"required": True}})
    add("check-monogenic", **{"--spinor": {"required": True}})
    add("kernel-dim", **{"--degree": {"required": True, "type": int}})
    add("decompose", **{"--degree": {"required": True, "type": int}})
    add("hwv", **{"--a": {"required": True, "type": int}, "--b": {"required": True, "type": int}, "--l": {"required": True, "type": int}})
    add("calibrate")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        if args.command == "calibrate":
            config = None
        else:
            config = calibration.read_config()
        doc = handler(args, config)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4
    _emit(doc, args.format)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
