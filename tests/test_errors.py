"""The input rules of ``errors.py``, and the values the package refuses
through them with its own error types."""

import math

import numpy as np
import pytest

from threshold_machine import (
    BanditSpec,
    ErGraphSpec,
    GapSet,
    GeneratorSpec,
    GevParams,
    InvalidParamsError,
    InvalidSpecError,
    InvalidThetaError,
    MmdStreamSpec,
    theta_log_likelihood,
)
from threshold_machine.errors import DtmError, check_real


@pytest.mark.parametrize("value, ends, admitted", [
    (0.5, "()", True), (0.0, "()", False), (1.0, "()", False),
    (0.0, "[)", True), (1.0, "[)", False),
    (0.0, "(]", False), (1.0, "(]", True),
    (0.0, "[]", True), (1.0, "[]", True), (1.0 + 1e-13, "[]", False), (-1e-300, "[]", False),
    (math.nan, "[]", False), ("0.5", "[]", False), (None, "[]", False),
    (True, "[]", False), (False, "[]", False), (np.True_, "[]", False), (np.False_, "[]", False),
    (np.float64(0.25), "()", True), (np.int64(1), "(]", True),
])
def test_check_real_ends(value, ends, admitted):
    def check():
        check_real("p", value, 0, DtmError, 1, ends)

    if admitted:
        check()
    else:
        with pytest.raises(DtmError, match=rf"p must lie in \{ends[0]}0, 1\{ends[1]}"):
            check()


GAPS = GapSet(gaps=np.array([2, 3]), rate=0.1)

# each builds a spec, a model or a likelihood from a mistyped, infinite or
# out-of-range value and names the field its message must name
REFUSED = {
    "chi-square-text-df": (lambda: GeneratorSpec("chi_square", {"df": "x"}, 10, 0),
                           InvalidSpecError, "chi_square df"),
    "student-t-text-df": (lambda: GeneratorSpec("student_t", {"df": "x"}, 10, 0),
                          InvalidSpecError, "student_t df"),
    "ar1-text-m": (lambda: GeneratorSpec("gaussian_ar1", {"m": "x"}, 10, 0),
                   InvalidSpecError, "gaussian_ar1 m"),
    "graph-text-p0": (lambda: ErGraphSpec(N=30, p0="x", k=5), InvalidSpecError, "p0"),
    "stream-text-p-pre": (lambda: MmdStreamSpec(p_pre="x"), InvalidSpecError, "p_pre"),
    "bandit-text-exponent": (lambda: BanditSpec(tail_exponents=("x", 4.0)),
                             InvalidSpecError, "tail_exponents"),
    "gev-text-mu": (lambda: GevParams("x", 1, 0), InvalidParamsError, "mu"),
    "likelihood-text-theta": (lambda: theta_log_likelihood("x", GAPS), InvalidThetaError, "theta"),
    "chi-square-infinite-df": (lambda: GeneratorSpec.chi_square(math.inf, 10, 0),
                               InvalidSpecError, "chi_square df"),
    "student-t-infinite-df": (lambda: GeneratorSpec.student_t(math.inf, 10, 0),
                              InvalidSpecError, "student_t df"),
    "bandit-infinite-exponent": (lambda: BanditSpec(tail_exponents=(math.inf, 4.0)),
                                 InvalidSpecError, "tail_exponents"),
    "graph-p0-above-one": (lambda: ErGraphSpec(N=30, p0=1 + 1e-13, k=5),
                           InvalidSpecError, "p0"),
    "graph-bool-p0": (lambda: ErGraphSpec(N=30, p0=True, k=5), InvalidSpecError, "p0"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_with_the_package_error(case):
    build, error, field = REFUSED[case]
    with pytest.raises(error, match=rf"{field} must lie in"):
        build()

