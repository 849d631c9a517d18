"""Pinning the two free conventions of the Dirac construction.

Three explicitly known monogenic spinors (the images of the first quadratic
highest weight classes) must lie in the kernel of the constructed operator;
scanning the sign epsilon in the fixed order (+1, -1) with unit Clifford
normalization finds the unique convention and makes every later run
reproducible.  The constants live in a plain-text file next to the caller:

    epsilon = +1
    clifford_norm = 1/1

`third_item_discrepancy` additionally reports, component by component, how the
transform of the completed (0,0,1) highest weight vector compares with the
reference spinor: the two differ in the first component (coefficients
3 and 1 trade places on x12 and the bilinear term) yet both are exactly
monogenic, so the report is informational and nothing is rescaled.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from .cochain import CochainSection
from .dirac import DiracOperator, build_dirac, is_monogenic
from .expr import parse_section, parse_spinor
from .hwv import _complete_with_image, _is_hwv_image
from .laurent import InternalCheckError, PreconditionError, Record, number_text
from .transform import SpinorField, penrose_transform

CONFIG_FILENAME = "penrose-calibration.txt"
REPORT_FILENAME = "penrose-calibration-report.json"
# The value texts `write_config` writes; a decimal such as 1e99999999 would
# make `Fraction` build an integer of that many digits.
_VALUES = {"epsilon": re.compile(r"[+-]?1"), "clifford_norm": re.compile(r"[+-]?[0-9]+(/[0-9]+)?")}


class CalibrationConfig(Record):
    __slots__ = ("epsilon", "clifford_norm")  # +1 or -1, a nonzero Fraction


def reference_monogenic_spinors() -> tuple[SpinorField, SpinorField, SpinorField]:
    """The three known quadratic monogenic spinors used for calibration."""
    det2 = "x2_11 * x2_22 - x2_12 * x2_21"
    bilinear = ("1/2 * x1_11 * x2_12 - 1/2 * x1_12 * x2_11 + 1/2 * x1_21 * x2_22"
                " - 1/2 * x1_22 * x2_21 + 1/2 * x1_31 * x2_32 - 1/2 * x1_32 * x2_31")
    return (
        parse_spinor("x2_11^2;0;0;0"),
        parse_spinor(f"{det2};0;0;0"),
        parse_spinor(f"{bilinear} + 3 * x12;x2_21 * x2_32 - x2_22 * x2_31;"
                     f"-x2_11 * x2_32 + x2_12 * x2_31;{det2}"),
    )


def find_calibration() -> tuple[CalibrationConfig, list[dict]]:
    """Deterministically choose (epsilon, norm) making the references monogenic.

    Returns the config together with the per-candidate status table (useful
    for the calibrate command's provenance output).
    """
    references = reference_monogenic_spinors()
    attempts = []
    chosen, norm = None, Fraction(1)
    for epsilon in (1, -1):
        op = build_dirac(epsilon, norm)
        status = [is_monogenic(op, s) for s in references]
        attempts.append(
            {
                "epsilon": epsilon,
                "clifford_norm": format_fraction(norm),
                "reference_monogenic": status,
            }
        )
        if all(status) and chosen is None:
            chosen = CalibrationConfig(epsilon=epsilon, clifford_norm=norm)
    if chosen is None:
        raise InternalCheckError(
            "no sign convention makes the reference spinors monogenic: "
            + json.dumps(attempts)
        )
    return chosen, attempts


def build_calibrated(config: CalibrationConfig) -> DiracOperator:
    return build_dirac(config.epsilon, config.clifford_norm)


def format_fraction(value: Fraction) -> str:
    return f"{number_text(value.numerator)}/{number_text(value.denominator)}"


def _write_text(path: Path, text: str) -> Path:
    try:
        path.write_text(text)
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc}") from None
    return path


def config_fields(config: CalibrationConfig) -> dict[str, str]:
    """The calibration's values as the texts `read_config` accepts, in file order."""
    sign = "+1" if config.epsilon > 0 else "-1"
    return {"epsilon": sign, "clifford_norm": format_fraction(config.clifford_norm)}


def write_config(config: CalibrationConfig, directory: Path | str = ".") -> Path:
    lines = "".join(f"{key} = {text}\n" for key, text in config_fields(config).items())
    return _write_text(Path(directory) / CONFIG_FILENAME, lines)


def read_config(directory: Path | str = ".") -> CalibrationConfig:
    path = Path(directory) / CONFIG_FILENAME
    if not path.exists():
        raise PreconditionError(
            f"calibration file {path} not found; run the `calibrate` command first"
        )
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read calibration file {path}: {exc}") from None
    values: dict[str, str] = {}
    for number, text in enumerate(lines, start=1):
        if not text.strip():
            continue
        key, eq, raw = text.partition("=")
        key, raw = key.strip(), raw.strip()
        if not eq:
            problem = "no '='"
        elif key not in _VALUES:
            problem = f"unknown key {key!r}"
        elif key in values:
            problem = f"repeated key {key!r}"
        elif not _VALUES[key].fullmatch(raw):
            problem = f"bad {key} value {raw!r}"
        else:
            values[key] = raw
            continue
        raise PreconditionError(f"{problem} on line {number} of {path}: {text!r}")
    if len(values) != 2:
        raise PreconditionError(f"calibration file {path} is incomplete or malformed")
    try:
        norm = Fraction(values["clifford_norm"])
    except (ValueError, ZeroDivisionError):  # too many digits for int(), or a zero denominator
        norm = Fraction(0)
    if not norm:
        raise PreconditionError(f"bad clifford_norm value {values['clifford_norm']!r} in {path}")
    return CalibrationConfig(epsilon=-1 if values["epsilon"] == "-1" else 1, clifford_norm=norm)


def companion_third_section() -> CochainSection:
    """The seven-term section bundled with the third reference spinor."""
    return parse_section(
        "z0 * zeta1^-1 * zeta2^-1 * zeta3^-1 + z11 * z22 * zeta1^-1 * zeta2^-1 * zeta3^-2"
        " - z11 * z32 * zeta1^-1 * zeta2^-2 * zeta3^-1 - z12 * z21 * zeta1^-1 * zeta2^-1 * zeta3^-2"
        " + z12 * z31 * zeta1^-1 * zeta2^-2 * zeta3^-1 + z21 * z32 * zeta1^-2 * zeta2^-1 * zeta3^-1"
        " - z22 * z31 * zeta1^-2 * zeta2^-1 * zeta3^-1"
    )


def _compare(lhs: SpinorField, rhs: SpinorField) -> list[dict]:
    rows = []
    for m in range(4):
        rows.append(
            {
                "component": m + 1,
                "lhs": lhs.components[m].to_string(),
                "rhs": rhs.components[m].to_string(),
                "difference": (lhs.components[m] - rhs.components[m]).to_string(),
                "matches": lhs.components[m] == rhs.components[m],
            }
        )
    return rows


def third_item_discrepancy(op: DiracOperator) -> dict:
    """Machine-readable audit of the third bundled (section, spinor) pair.

    Two comparisons, both against the reference spinor: the residue
    transform of its companion section (which disagrees in the first
    component only: x12 and the bilinear swap their 3x/1x factors), and the
    transform of the completed (0,0,1) highest weight vector (whose section
    differs from the companion: the companion's quadratic terms carry five
    times the coefficients the raising conditions allow).  All three spinors
    are exact kernel elements, so calibration itself is unaffected.
    """
    companion = companion_third_section()
    companion_image = penrose_transform(companion)
    reference = reference_monogenic_spinors()[2]
    completed, completed_image = _complete_with_image((0, 0, 1))
    companion_rows = _compare(companion_image, reference)
    completed_rows = _compare(completed_image, reference)
    return {
        "label": {"a": 0, "b": 0, "l": 1},
        "companion_section": companion.body.to_string(),
        "completed_hwv_section": completed.body.to_string(),
        "sections_match": companion == completed,
        "companion_transform_vs_reference": companion_rows,
        "completed_transform_vs_reference": completed_rows,
        "companion_section_is_highest_weight": _is_hwv_image(companion_image),
        "reference_is_monogenic": is_monogenic(op, reference),
        "companion_transform_is_monogenic": is_monogenic(op, companion_image),
        "completed_transform_is_monogenic": is_monogenic(op, completed_image),
    }


def write_report(report: dict, directory: Path | str = ".") -> Path:
    return _write_text(Path(directory) / REPORT_FILENAME, json.dumps(report, indent=2) + "\n")
