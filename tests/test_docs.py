"""The README's python examples and the demo scripts compile; nothing is run.
The library sets no warning filter, checks input values only through the
rules in ``errors.py``, draws bootstrap replicates, derives seeds and builds
PCG64 only in ``resample.py``, validates series only in ``exceedance.py``,
exports exactly its modules' ``__all__`` names, and importing it loads no
scipy or ``numpy.random`` module.  The README names exactly the flags that
the command line accepts."""

import argparse
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import threshold_machine
from threshold_machine import cli

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
    assert draws == ["resample.py"]
    validators = [m for m, src in sources.items() if re.search(r"^def as_series\b", src, re.M)]
    assert validators == ["exceedance.py"]


def test_pcg64_built_only_in_resample():
    # make_rng is the package PRNG, and generators.maxima seeds path j with
    # make_rng(seed + j); only bootstrap_draw seeds PCG64 from precomputed
    # words, and stream_seed derives a stream's seed, so every seeding rule
    # lives in one module
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    builders = [m for m, src in sources.items() if re.search(r"\bPCG64\(", src)]
    assert builders == ["resample.py"]
    seeders = [m for m, src in sources.items() if re.search(r"\bSeedSequence\(", src)]
    assert seeders == ["resample.py"]


# the package's exports when each module's __all__ became the one list of
# its public names; an export may be added, none dropped
EXPORTED = {
    "__version__",
    "GevParams", "TailModel", "gev_cdf", "tail_fn", "invert_tail", "model_max_cdf",
    "bootstrap", "bootstrap_draw", "make_rng",
    "as_series", "ExceedanceSet", "GapSet", "quantile_cutoff", "extract", "gaps",
    "FitDiagnostics", "neg_log_likelihood", "fit",
    "ThetaEstimate", "theta_log_likelihood", "theta_closed_form",
    "DtmConfig", "ThresholdReport", "run_dtm", "arl_to_alpha", "confidence_bounds",
    "GeneratorSpec", "generate",
    "EmpiricalMaxDist", "empirical_max_cdf", "mc_threshold", "sup_norm_gap",
    "ErGraphSpec", "scan_series", "mmd_stat", "MmdStreamSpec", "ChangePointResult",
    "change_point_run", "BanditSpec", "BanditResult", "bandit_run",
    "DtmError", "InvalidParamsError", "OutOfSupportError", "InvalidTargetError",
    "InvalidQuantileError", "InvalidSeriesError", "TooFewExceedancesError",
    "DegenerateHeightsError", "InvalidThetaError", "NoClustersError", "InvalidSpecError",
    "InvalidConfigError", "SizeMismatchError", "InvalidBandwidthError", "ParseError",
    "FitWarning",
}


def test_exports_are_the_modules_public_names():
    # a public name is declared once, in its module's __all__; the package
    # re-exports their union and adds only its version.  cli is the command
    # line's entry point and exports nothing
    modules = [importlib.import_module(f"threshold_machine.{p.stem}")
               for p in sorted(PACKAGE.glob("*.py")) if p.stem not in ("__init__", "cli")]
    declared = [name for module in modules for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is declared in two modules"
    assert sorted(threshold_machine.__all__) == sorted(["__version__", *declared])
    for module in modules:
        for name in module.__all__:
            assert getattr(threshold_machine, name) is getattr(module, name)
    assert EXPORTED <= set(threshold_machine.__all__)


def test_readme_names_the_command_line_flags():
    # the README's "Command line" section names every flag that threshold,
    # validate and app accept, and no other
    section = re.search(r"^## Command line\n(.*?)^## ", (ROOT / "README.md").read_text(),
                        re.S | re.M).group(1)
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    accepted = {flag for parser in subparsers.choices.values()
                for flag in re.findall(r"--[a-z][a-z-]*", parser.format_help())}
    assert set(re.findall(r"--[a-z][a-z-]*", section)) == accepted - {"--help"}


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
