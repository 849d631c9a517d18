"""The mutant replay script: its table matches the code, and SIGTERM leaves no copy behind."""

import ast
import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "mutants.py"


def load_script():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_mutant_applies_once_and_names_defined_tests():
    # A stale text would otherwise show only minutes into a replay.
    for name, file, old, _, tests in load_script().MUTANTS:
        assert (ROOT / file).read_text().count(old) == 1, name
        for test in tests:
            path, _, function = test.partition("::")
            tree = ast.parse((ROOT / path).read_text())
            defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert not function or function in defined, (name, test)


def test_sigterm_removes_the_mutant_copy(tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    process = subprocess.Popen(
        [sys.executable, str(SCRIPT)], env=dict(os.environ, TMPDIR=str(tmpdir)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while not any(tmpdir.glob("mutant-*")):
            assert process.poll() is None and time.monotonic() < deadline, "no mutant copy appeared"
            time.sleep(0.005)
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=10) == 128 + signal.SIGTERM
    finally:
        process.kill()
        process.wait()
    assert not any(tmpdir.iterdir())
