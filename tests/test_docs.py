"""The README's python examples and the demo scripts compile; nothing is run.
The library sets no warning filter, checks input values only through the
rules in ``errors.py``, draws bootstrap replicates and builds PCG64 only in
``resample.py``, validates series only in ``exceedance.py``, and importing it
loads no scipy or ``numpy.random`` module."""

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
    # check_level and check_real; a type or finiteness test of one value
    # elsewhere is a second copy (np.isfinite on whole arrays is not)
    source = (PACKAGE / module).read_text()
    assert module == "errors.py" or not re.findall(
        r"\b(?:Integral|Real)\b|\bmath\.isfinite\b", source)


def test_bootstrap_lives_in_resample():
    # one definition of a replicate: the pipeline calls resample.bootstrap,
    # and a series enters the package only through exceedance.as_series
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    draws = [m for m, src in sources.items() if re.search(r"\bbootstrap_draw\b", src)]
    assert sorted(draws) == ["__init__.py", "resample.py"]
    validators = [m for m, src in sources.items() if re.search(r"^def as_series\b", src, re.M)]
    assert validators == ["exceedance.py"]


def test_pcg64_built_only_in_resample():
    # make_rng is the package PRNG; only bootstrap_draw and make_rngs seed
    # PCG64 from precomputed words
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    builders = [m for m, src in sources.items() if re.search(r"\bPCG64\(", src)]
    assert builders == ["resample.py"]


def loaded_by_import(package):
    """The modules of ``package`` that importing threshold_machine loads in a
    fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, threshold_machine; "
            f"print(sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test-only reference
    assert loaded_by_import("scipy") == "[]"


def test_import_loads_no_numpy_random():
    # numpy.random loads on the first draw; the import alone is the set-up
    # time of a short run such as a bandit's
    assert loaded_by_import("numpy.random") == "[]"
