"""Extremal index estimation from inter-exceedance times.

At high cutoffs the normalized inter-exceedance times of a dependent
stationary sequence follow a mixture: with probability 1 - theta a point mass
at zero (same-cluster arrivals), otherwise an exponential with rate theta.
Writing T_1..T_{n_u - 1} for the index gaps, p for the exceedance rate,
n_c for the count of gaps with T - 1 != 0, and

    a = n_u - n_c - 1,   b = 2 * n_c,   c = p * sum(T_k - 1),

the log likelihood is

    log L(theta) = a*log(1 - theta) + b*log(theta) - theta*c

with the convention 0*log 0 = 0 at the boundaries.  Its exact maximizer over
(0, 1] is the smaller root of the stationarity quadratic (Suveges 2007,
Extremes 10:41-55)

    c*theta^2 - (a + b + c)*theta + b = 0.

That root always lies in (0, 1]: the quadratic is b > 0 at 0 and -a <= 0
at 1.  With no gap of 1 (a = 0) it factors as (c*theta - b)(theta - 1), so
the root is exactly 1 if b >= c and b / c otherwise.  With a > 0 the root
lies below 1 and is computed in the cancellation-free form
2b / (s + sqrt(s^2 - 4bc)) with s = a + b + c, whose discriminant equals
(a + b - c)^2 + 4ac > 0; only rounding can lift it above 1, so it is capped
there.

A gap set with no gap raises ``TooFewExceedancesError``, as ``exceedance.gaps``
does for one exceedance, and one whose gaps all equal 1 ``NoClustersError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoClustersError, TooFewExceedancesError
from .exceedance import GapSet

__all__ = ["ThetaEstimate", "theta_closed_form"]


@dataclass(frozen=True)
class ThetaEstimate:
    """Estimated extremal index with its gap bookkeeping."""

    theta: float  # in (0, 1]
    n_u: int
    n_c: int  # gaps with T - 1 != 0


def _gap_stats(g: GapSet) -> tuple[int, int, int, float]:
    n_u = g.n_u
    t = g.gaps
    n_c = int(np.count_nonzero(t > 1))
    a = n_u - n_c - 1
    c = g.rate * float(np.add.reduce(t) - t.size)
    return n_u, n_c, a, c


def theta_closed_form(g: GapSet) -> ThetaEstimate:
    """Closed-form maximizer of the mixture likelihood over (0, 1].

    Requires at least one gap with T - 1 != 0 (``n_c >= 1``); otherwise the
    likelihood degenerates toward theta = 0 and a no-clusters error is raised.
    """
    if len(g.gaps) < 1:
        raise TooFewExceedancesError("need at least one gap")
    n_u, n_c, a, c = _gap_stats(g)
    if n_c == 0:
        raise NoClustersError(
            "every inter-exceedance gap equals 1; extremal index degenerates at 0"
        )
    b = 2 * n_c
    if a == 0:  # the exact root of (c*theta - b)(theta - 1)
        theta = 1.0 if b >= c else b / c
    else:
        s = a + b + c
        theta = min(2.0 * b / (s + math.sqrt(s * s - 4.0 * b * c)), 1.0)
    return ThetaEstimate(theta=theta, n_u=n_u, n_c=n_c)
