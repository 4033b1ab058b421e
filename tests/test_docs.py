"""The README's python examples and the demo scripts compile; nothing is run.
The library sets no warning filter, checks input values only through the
rules in ``errors.py``, and importing it loads no scipy module."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "threshold_machine"
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
SOURCES = {f"README.md block {i}": block for i, block in enumerate(README_BLOCKS, 1)}
SOURCES.update((f"demos/{p.name}", p.read_text()) for p in sorted((ROOT / "demos").glob("*.py")))


def test_sources_found():
    assert len(README_BLOCKS) >= 3
    assert len(SOURCES) - len(README_BLOCKS) >= 4


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_compiles(name):
    compile(SOURCES[name], name, "exec")


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_library_sets_no_warning_filter(module):
    # fit conditions reach callers as report codes; only callers filter warnings
    source = (PACKAGE / module).read_text()
    assert not re.findall(r"\b(?:catch_warnings|simplefilter|filterwarnings)\b", source)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_input_rules_live_in_errors(module):
    # counts, levels and bounded reals are checked by errors.check_count,
    # check_level and check_real; a type test elsewhere is a second copy
    source = (PACKAGE / module).read_text()
    assert module == "errors.py" or not re.findall(r"\b(?:Integral|Real)\b", source)


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test-only reference
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, threshold_machine; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
