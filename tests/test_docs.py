"""The README's python examples and the demo scripts compile; nothing is run.
The library sets no warning filter."""

import re
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
