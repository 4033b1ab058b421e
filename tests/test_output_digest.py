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


def test_unset_explicit_cutoff_hashes_as_absent():
    # a DtmConfig that still declares cutoff hashes as one without it while
    # the field holds None; a set cutoff is hashed
    tool = load_tool()

    @dataclasses.dataclass
    class DtmConfig:
        alpha: float
        cutoff: float | None = None

    @dataclasses.dataclass
    class Other:
        alpha: float
        cutoff: float | None = None

    bare = list(tool.tokens(DtmConfig(0.05)))
    assert bare == ["alpha", (0.05).hex()]
    assert list(tool.tokens(DtmConfig(0.05, 4.0))) == [*bare, "cutoff", (4.0).hex()]
    assert list(tool.tokens(Other(0.05))) == [*bare, "cutoff", "None"]
