"""Command-line surface: calibration flow, exit codes, stable output."""

import contextlib
import importlib.util
import io
import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import monogenic
from monogenic.calibration import CalibrationConfig, read_config, write_config
from monogenic.cli import main

pytestmark = pytest.mark.usefixtures("workdir")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def calibrate(capsys):
    code, out, err = run(capsys, "calibrate", "--format", "json")
    assert code == 0, err
    return json.loads(out)


def test_commands_require_calibration_file(capsys):
    code, out, err = run(capsys, "transform", "--section", "z0")
    assert code == 3
    assert "calibrate" in err


def test_calibrate_writes_config_and_report(workdir, capsys):
    doc = calibrate(capsys)
    assert doc["result"]["chosen"] == {"epsilon": "+1", "clifford_norm": "1/1"}
    config = (workdir / "penrose-calibration.txt").read_text()
    assert "epsilon = +1" in config and "clifford_norm = 1/1" in config
    report = json.loads((workdir / "penrose-calibration-report.json").read_text())
    assert report["reference_is_monogenic"] is True
    assert report["companion_transform_is_monogenic"] is True
    assert report["completed_transform_is_monogenic"] is True
    assert report["sections_match"] is False
    assert report["companion_section_is_highest_weight"] is False
    rows = report["companion_transform_vs_reference"]
    assert rows[0]["matches"] is False  # the documented 3*x12 vs x12 gap
    assert all(row["matches"] for row in rows[1:])


def test_transform_constant_spinor(capsys):
    calibrate(capsys)
    code, out, _ = run(
        capsys, "transform", "--section", "zeta1^-1*zeta2^-1*zeta3^-1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["spinor"] == ["1", "0", "0", "0"]
    assert doc["calibration"] == {"epsilon": "+1", "clifford_norm": "1/1"}


def test_decompose_table(capsys):
    calibrate(capsys)
    code, out, _ = run(capsys, "decompose", "--degree", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["total_dimension"] == 220
    dims = sorted(row["dimension"] for row in doc["result"]["summands"])
    assert dims == [4, 36, 180]


def test_check_monogenic(capsys):
    calibrate(capsys)
    code, out, _ = run(capsys, "check-monogenic", "--spinor", "1;0;0;0", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["monogenic"] is True
    code, out, _ = run(capsys, "check-monogenic", "--spinor", "x1_11;0;0;0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["monogenic"] is False
    assert "residual_1" in doc["result"]


def test_check_monogenic_residuals_are_pinned(capsys):
    # A non-monogenic spinor with x12 terms, so the central corrections act.
    calibrate(capsys)
    spinor = "x12*x1_11 + 1/2*x2_21^2;x12;0;x1_32*x12"
    code, out, _ = run(capsys, "check-monogenic", "--spinor", spinor, "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["residual_1"] == [
        "-1/2 * x1_32 * x2_32 - 1/2 * x2_12",
        "1/2 * x1_11 * x2_12 + 1/2 * x1_22 * x1_32 + x12",
        "1/2 * x1_11 * x2_22 - 1/2 * x1_12 * x1_32 + 1/2 * x1_32",
        "1/2 * x1_11 * x2_32 - 1/2 * x1_22",
    ]
    assert result["residual_2"] == [
        "1/2 * x1_32 * x2_31 - x12 + 1/2 * x2_11",
        "-1/2 * x1_11 * x2_11 - 1/2 * x1_21 * x1_32",
        "1/2 * x1_11 * x1_32 - 1/2 * x1_11 * x2_21 - 1/2 * x1_31",
        "-1/2 * x1_11 * x2_31 + 1/2 * x1_21",
    ]


def test_weight_command(capsys):
    calibrate(capsys)
    code, out, _ = run(
        capsys, "weight", "--section", "z11^2*zeta1^-1*zeta2^-1*zeta3^-1", "--format", "json"
    )
    assert code == 0
    row = json.loads(out)["result"]["weights"][0]
    assert row["gl2"] == ["9/2", "5/2"]
    assert row["gl4"] == [4, 3, 1, 1]


def test_act_command(capsys):
    calibrate(capsys)
    code, out, _ = run(capsys, "act", "--root", "A12", "--section", "z12", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["section"] == "z11"
    code, _, err = run(capsys, "act", "--root", "E99", "--section", "z12")
    assert code == 3


def test_kernel_dim_command(capsys):
    calibrate(capsys)
    code, out, _ = run(capsys, "kernel-dim", "--degree", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["dimension"] == 40


def test_hwv_command(capsys):
    calibrate(capsys)
    code, out, _ = run(capsys, "hwv", "--a", "0", "--b", "2", "--l", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["section"] == "z11^2 * zeta1^-1 * zeta2^-1 * zeta3^-1"
    assert doc["result"]["transform"] == ["x2_11^2", "0", "0", "0"]


def distinct_terms(monomial, count):
    """A section of `count` distinct terms: `monomial` times different zeta poles."""
    poles = itertools.islice(itertools.product(range(1, 9), repeat=3), count)
    return " + ".join(f"{monomial}*zeta1^-{i}*zeta2^-{j}*zeta3^-{k}" for i, j, k in poles)


# 280 terms of degree 1 weigh 280 * (1 + 1) = 560, the transform section limit.
AT_SECTION_LIMIT = distinct_terms("z11", 280)

BUDGET_CASES = [
    (["kernel-dim", "--degree", "9"], "0..8"),
    (["kernel-dim", "--degree", "-1"], "0..8"),
    (["hwv", "--a", "0", "--b", "1", "--l", "3"], "hwv limit 6"),
    (["hwv", "--a", "2", "--b", "3", "--l", "0"], "hwv limit 6"),
    (["transform", "--section", "z0^999999*zeta1^-1*zeta2^-1*zeta3^-1"], "transform limit 12"),
    (["transform", "--section", "z0 + z0^6*z11*zeta1^-1*zeta2^-1*zeta3^-1"], "transform limit 12"),
    # No term reaches the residue, but the budget is checked first.
    (["transform", "--section", "z0^7*zeta1^-99*zeta2^-1*zeta3^-1"], "transform limit 12"),
    (["transform", "--section", distinct_terms("z0^6", 147)], "transform section limit 560"),
    (["transform", "--section", AT_SECTION_LIMIT + " + zeta1^-9"], "transform section limit 560"),
    (["decompose", "--degree", "100000"], "decompose limit 200"),
]


@pytest.mark.parametrize(
    "argv, limit", BUDGET_CASES,
    ids=[
        "kernel-9", "kernel-neg", "hwv-l", "hwv-ab", "transform-z0", "transform-mixed",
        "transform-unreachable",
        "transform-147-terms", "transform-one-over", "decompose-big",
    ],
)
def test_oversized_inputs_are_refused_before_any_work(workdir, capsys, monkeypatch, argv, limit):
    import monogenic.cli as cli

    def unreachable(*args):
        raise AssertionError("the input budget should refuse this before computing")

    monkeypatch.setattr(cli, "graded_kernel_dim", unreachable)
    monkeypatch.setattr(cli, "_complete_with_image", unreachable)
    monkeypatch.setattr(cli, "penrose_transform", unreachable)
    monkeypatch.setattr(cli, "decompose_Mk", unreachable)
    write_config(CalibrationConfig(epsilon=1, clifford_norm=Fraction(1)), workdir)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert limit in err and "Traceback" not in err
    assert out == ""


def test_inputs_at_the_budget_are_computed(workdir, capsys, monkeypatch):
    import monogenic.cli as cli
    from monogenic.charts import TWISTOR
    from monogenic.cochain import CochainSection
    from monogenic.expr import parse_section
    from monogenic.laurent import LaurentPoly
    from monogenic.transform import SpinorField

    calls = []
    monkeypatch.setattr(cli, "graded_kernel_dim", lambda op, k: calls.append(k) or 97240)
    monkeypatch.setattr(
        cli,
        "_complete_with_image",
        lambda label: calls.append(label)
        or (CochainSection(LaurentPoly.zero(TWISTOR)), SpinorField.zero()),
    )
    write_config(CalibrationConfig(epsilon=1, clifford_norm=Fraction(1)), workdir)
    # A cheap section at the section limit is transformed for real: z11 binds to
    # x2_11 + zeta3*x1_21 - zeta2*x1_31, and every pole order up to 8 is present.
    code, out, _ = run(capsys, "transform", "--section", AT_SECTION_LIMIT, "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["spinor"] == ["x1_21 - x1_31 + x2_11"] * 4
    assert run(capsys, "kernel-dim", "--degree", "8")[0] == 0
    assert run(capsys, "hwv", "--a", "1", "--b", "2", "--l", "1")[0] == 0
    monkeypatch.setattr(cli, "decompose_Mk", lambda k: calls.append(k) or [])
    assert run(capsys, "decompose", "--degree", "200")[0] == 0
    monkeypatch.setattr(
        cli, "penrose_transform", lambda section: calls.append(section) or SpinorField.zero()
    )
    section = "z0^5*z11*z32*zeta1^-1*zeta2^-1*zeta3^-1"
    assert run(capsys, "transform", "--section", section)[0] == 0
    assert calls == [8, (1, 2, 1), 200, parse_section(section)]


def test_parse_error_exit_code(capsys):
    calibrate(capsys)
    code, _, err = run(capsys, "transform", "--section", "zeta1^-1 + q")
    assert code == 2
    assert "unknown identifier" in err
    # A spinor position counts from the start of the whole --spinor text.
    code, _, err = run(capsys, "check-monogenic", "--spinor", "x12;x12;0;foo")
    assert code == 2
    assert "unknown identifier 'foo' (at position 10)" in err


@pytest.mark.parametrize(
    "section",
    ["1" * 5000 + "*z0*zeta1^-1", "z0^" + "1" * 5000, "1/" + "1" * 5000 + "*z0"],
    ids=["coefficient", "exponent", "denominator"],
)
def test_overlong_numeral_is_a_parse_error(workdir, capsys, section):
    write_config(CalibrationConfig(epsilon=1, clifford_norm=Fraction(1)), workdir)
    code, out, err = run(capsys, "weight", "--section", section)
    assert code == 2
    assert "too long" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "command, variable",
    [(["weight"], "z0"), (["act", "--root", "A12"], "z12")],
    ids=["weight", "act"],
)
def test_overlong_merged_coefficient_is_a_precondition_error(workdir, capsys, command, variable):
    # Each numeral is within the int-string limit; the merged coefficient is one digit longer.
    limit = sys.get_int_max_str_digits()
    term = "9" * limit + f"*{variable}*zeta1^-1"
    write_config(CalibrationConfig(epsilon=1, clifford_norm=Fraction(1)), workdir)
    code, out, err = run(capsys, *command, "--section", f"{term} + {term}")
    assert code == 3
    assert f"more than {limit} digits" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_overlong_weight_entry_is_a_precondition_error(workdir, capsys, fmt):
    # Each exponent is within the int-string limit; the gl(4) entry 5 - 2N is not.
    limit = sys.get_int_max_str_digits()
    n = "9" * limit
    write_config(CalibrationConfig(epsilon=1, clifford_norm=Fraction(1)), workdir)
    code, out, err = run(capsys, "weight", "--section", f"zeta1^-{n}*zeta2^-{n}", "--format", fmt)
    assert code == 3
    assert f"more than {limit} digits" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "config, problem",
    [
        ("epsilon = +1\nclifford_norm = 1/1\nbogus = 7\n", "unknown key 'bogus' on line 3"),
        ("epsilon = +1\nclifford_norm = 1/1\nclifford_norm = 2\n",
         "repeated key 'clifford_norm' on line 3"),
        ("epsilon = +1\nweight\nclifford_norm = 1/1\n", "no '=' on line 2"),
        ("epsilon = +1\nclifford_norm = 1e99999999\n", "bad clifford_norm value '1e99999999' on line 2"),
    ],
    ids=["unknown", "repeated", "no-equals", "decimal"],
)
def test_malformed_config_lines_are_rejected(workdir, capsys, config, problem):
    path = write_config(CalibrationConfig(epsilon=1, clifford_norm=Fraction(1)), workdir)
    assert read_config(workdir) == CalibrationConfig(epsilon=1, clifford_norm=Fraction(1))
    path.write_text(config)
    code, out, err = run(capsys, "weight", "--section", "z0")
    assert code == 3
    assert problem in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("kind", ["not-utf8", "directory"])
def test_unreadable_config_is_a_precondition_error(workdir, capsys, kind):
    path = workdir / "penrose-calibration.txt"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"epsilon = +1\nclifford_norm = 1/1\xff\n")
    code, out, err = run(capsys, "kernel-dim", "--degree", "1")
    assert code == 3
    assert "cannot read calibration file penrose-calibration.txt" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("name", ["penrose-calibration.txt", "penrose-calibration-report.json"])
def test_unwritable_calibration_file_is_a_precondition_error(workdir, capsys, name):
    (workdir / name).mkdir()
    code, out, err = run(capsys, "calibrate")
    assert code == 3
    assert out == ""
    assert name in err and "Traceback" not in err


# Strings over the expression grammar's tokens: well-formed sums of terms, the
# same with one stray token spliced in, and token soup.  Each factor pool holds
# one identifier of the other alphabet, one unknown name and one forbidden
# negative exponent; exponents stay at most 2 per factor, so z0^6 (about 2 s)
# is the slowest section within the transform budget.
GRAMMAR_TOKENS = (
    "0", "1", "2", "1/2", "5/0", "z0", "zeta1", "x12", "foo", "+", "-", "*", "/", "^", ";", ".",
)


def well_formed(factors):
    term = st.tuples(
        st.sampled_from(("", "", "2*", "1/2*", "0*", "3/0*")),
        st.lists(st.sampled_from(factors), min_size=1, max_size=3).map("*".join),
    ).map("".join)
    return st.lists(
        st.tuples(st.sampled_from((" + ", " - ")), term), min_size=1, max_size=3
    ).map(lambda terms: "".join(sign + t for sign, t in terms).removeprefix(" + "))


def noisy(text):
    spliced = st.tuples(text, st.sampled_from(GRAMMAR_TOKENS), st.integers(0, 60)).map(
        lambda x: x[0][: x[2]] + x[1] + x[0][x[2]:]
    )
    soup = st.lists(st.sampled_from(GRAMMAR_TOKENS), max_size=12).map(" ".join)
    return st.one_of(text, spliced, soup)


section_text = noisy(well_formed(
    ("z0", "z0^2", "z11", "z32^2", "zeta1^-1", "zeta3^-2", "zeta1", "x12", "w0", "z11^-1")
))
component = well_formed(
    ("x12", "x12^2", "x1_11", "x1_11^2", "x2_32", "x2_32^0", "z0", "w0", "x12^-1")
)
spinor_text = noisy(st.lists(component, min_size=4, max_size=4).map(";".join))


@settings(
    max_examples=200,
    deadline=None,
    # The calibration file in workdir is shared by every example on purpose.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.one_of(
        st.tuples(st.sampled_from(("transform", "weight", "act")), section_text),
        st.tuples(st.just("check-monogenic"), spinor_text),
    ),
    st.sampled_from(("A12", "E34", "E99")),
)
def test_random_grammar_strings_exit_cleanly(workdir, command_text, root):
    command, text = command_text
    write_config(CalibrationConfig(epsilon=1, clifford_norm=Fraction(1)), workdir)
    option = "--spinor" if command == "check-monogenic" else "--section"
    argv = [command, f"{option}={text}"] + (["--root", root] if command == "act" else [])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3), (argv, code)


def test_internal_check_exit_code(capsys, monkeypatch):
    calibrate(capsys)
    from monogenic.laurent import InternalCheckError
    import monogenic.cli as cli

    def boom(label):
        raise InternalCheckError("completion system inconsistent")

    monkeypatch.setattr(cli, "_complete_with_image", boom)
    code, _, err = run(capsys, "hwv", "--a", "0", "--b", "0", "--l", "0")
    assert code == 4
    assert "internal check failed" in err


def test_json_outputs_are_byte_stable(capsys):
    calibrate(capsys)
    examples = [
        ("transform", "--section", "zeta1^-1*zeta2^-1*zeta3^-1"),
        ("decompose", "--degree", "2"),
        ("check-monogenic", "--spinor", "1;0;0;0"),
    ]
    for argv in examples:
        first = run(capsys, *argv, "--format", "json")
        second = run(capsys, *argv, "--format", "json")
        assert first == second
        assert first[0] == 0


def child_env():
    # The child runs in workdir, where a relative PYTHONPATH (such as "src")
    # no longer resolves; put the directory holding the package under test
    # first so the child imports this copy whether or not one is installed.
    package_root = str(Path(monogenic.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def test_console_script_entry_point(workdir):
    result = subprocess.run(
        [sys.executable, "-m", "monogenic.cli", "calibrate"],
        capture_output=True,
        text=True,
        cwd=workdir,
        env=child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert (workdir / "penrose-calibration.txt").exists()


def test_closed_stdout_exits_quietly(workdir):
    # `penrose decompose --degree 200 | head -1`: 0.34 MB of table, far past a
    # pipe's buffer, so the write after the reader closes the pipe fails.
    write_config(CalibrationConfig(epsilon=1, clifford_norm=Fraction(1)), workdir)
    child = subprocess.Popen(
        [sys.executable, "-m", "monogenic.cli", "decompose", "--degree", "200"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=workdir,
        env=child_env(),
    )
    assert child.stdout.readline() == b"command: decompose\n"
    child.stdout.close()
    code = child.wait(timeout=60)
    stderr = child.stderr.read().decode()
    child.stderr.close()
    assert stderr == ""  # no BrokenPipeError traceback
    assert code == 1


def test_stdout_closed_at_start_exits_cleanly(workdir):
    # With fd 1 closed the interpreter sets sys.stdout to None and print() does nothing.
    write_config(CalibrationConfig(epsilon=1, clifford_norm=Fraction(1)), workdir)
    result = subprocess.run(
        ["sh", "-c", '"$0" -m monogenic.cli kernel-dim --degree 1 >&-', sys.executable],
        capture_output=True,
        text=True,
        cwd=workdir,
        env=child_env(),
    )
    assert (result.returncode, result.stderr) == (0, "")


@pytest.mark.parametrize(
    "script, args, verdicts",
    [
        ("kernel_audit.py", ["--max-degree", "3"], ["total: ok"]),
        (
            "transform_audit.py",
            ["--samples", "20"],
            [
                "kernel failures: 0",
                "inconclusive certificates with nonzero image (must be 0): 0",
                "equivariance mismatches (must be 0): 0",
            ],
        ),
    ],
    ids=["kernel", "transform"],
)
def test_audit_script_passes(workdir, script, args, verdicts):
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    result = subprocess.run(
        [sys.executable, str(scripts / script), *args],
        capture_output=True,
        text=True,
        cwd=workdir,
        env=child_env(),
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    for verdict in verdicts:
        assert verdict in result.stdout


def test_package_exports_the_names_the_harness_and_scripts_use():
    # The benchmark and the scripts call these on the package itself.
    root = Path(__file__).resolve().parents[1]
    called = set()
    for path in [*(root / "perfbench").glob("*.py"), *(root / "scripts").glob("*.py")]:
        called.update(re.findall(r"\bmonogenic\.(\w+)\(", path.read_text()))
    called |= {"hwv_complete", "penrose_transform", "hwv_test", "label_of_hwv", "IrrepLabel",
               "is_monogenic"}
    for name in sorted(called):
        assert callable(getattr(monogenic, name, None)), name


def test_traced_layers_resolve_after_importing_the_package():
    # perfbench/tracing.py wraps each LAYERS (module, attribute) that is loaded
    # when the tracer installs; a renamed attribute or a module the package no
    # longer loads would make its per-layer metrics read 0 without an error.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    child = subprocess.run(
        [sys.executable, "-c", "import sys, monogenic; print(*sorted(sys.modules))"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert child.returncode == 0, child.stderr
    loaded = set(child.stdout.split())
    assert "monogenic.weyl" not in loaded and "monogenic.cli" not in loaded
    # The engine's records need neither module; importing them costs every command start-up.
    assert "dataclasses" not in loaded and "inspect" not in loaded
    for _, module_name, attribute, _ in tracing.LAYERS:
        target = importlib.import_module(module_name)
        for part in attribute.split("."):
            target = getattr(target, part, None)
        assert callable(target), (module_name, attribute)
        assert module_name == "monogenic.cli" or module_name in loaded, module_name
