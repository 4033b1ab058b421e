"""Smoke test of ``tools/output_digest.py`` on this checkout: it prints one
digest per section in ``SECTIONS`` order, then the whole panel's digest and
the value count, and it refuses a path that holds no package."""

import dataclasses
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digest.py"


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True)


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_digests_every_section_in_order():
    tool = load_tool()
    done = run_tool()
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    names = [section.__name__ for section in tool.SECTIONS] + ["total"]
    assert len(lines) == len(names) + 1
    for line, name in zip(lines, names):
        assert re.fullmatch(rf"{name} +[0-9a-f]{{64}}", line)
    assert re.fullmatch(r"[1-9][0-9]* values", lines[-1])


def test_path_without_package_refused(tmp_path):
    done = run_tool(str(tmp_path))
    assert done.returncode == 2
    assert done.stdout == ""
    assert "no threshold_machine package" in done.stderr


def test_retired_fields_are_skipped():
    # a retired field is skipped whatever it holds; the same field name on
    # another class, and the class's other fields, are hashed
    tool = load_tool()
    assert ("FitDiagnostics", "init") in tool.RETIRED

    @dataclasses.dataclass
    class FitDiagnostics:
        iterations: int
        init: object = None

    @dataclasses.dataclass
    class Other:
        iterations: int
        init: object = None

    bare = list(tool.tokens(FitDiagnostics(3)))
    assert bare == ["iterations", "3"]
    assert list(tool.tokens(FitDiagnostics(3, 4.0))) == bare
    assert list(tool.tokens(Other(3))) == [*bare, "init", "None"]
