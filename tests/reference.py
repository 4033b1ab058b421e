"""Reference evaluations that the tests check the package against.

No program path calls these, so they live beside the tests.  Each is built on
the package's own private helpers, so a check compares the package's answer
with a second route through the same arithmetic:

- :func:`gev_cdf` and :func:`tail_fn`, the extreme value CDF ``G(x)`` and tail
  function ``C(x) = -log G(x)`` on ``evt_core._log_tail``;
- :func:`neg_log_likelihood`, the marked Poisson NLL that ``gev_fit.fit``
  minimizes;
- :func:`theta_log_likelihood`, the mixture likelihood that
  ``extremal_index.theta_closed_form`` maximizes;
- :func:`mmd_stat`, the float-route block MMD that the change-point stream's
  bit route reproduces, and :func:`median_heuristic`, the float-route
  bandwidth that the stream reads from Hamming counts.

An argument outside a reference's domain raises the package's error where the
package keeps a class for it, and ``ValueError`` otherwise.
"""

import math

import numpy as np

from threshold_machine.applications import _block_mmd, _gaussian
from threshold_machine.errors import (
    InvalidBandwidthError,
    InvalidParamsError,
    TooFewExceedancesError,
    check_real,
)
from threshold_machine.evt_core import GevParams, _log_tail
from threshold_machine.exceedance import ExceedanceSet, GapSet
from threshold_machine.extremal_index import _gap_stats


def gev_cdf(params: GevParams, x):
    """CDF G(x) of the extreme value family, clamped by continuity outside the
    support: 0 below the lower endpoint (xi > 0), 1 above the upper one
    (xi < 0)."""
    arr = np.asarray(x, dtype=float)
    log_c = _log_tail(params, arr)
    out = np.where(np.isnan(log_c), float(params.xi < 0), np.exp(-np.exp(log_c)))
    return float(out) if arr.ndim == 0 else out


def tail_fn(params: GevParams, x):
    """Tail function C(x) = -log G(x), strictly decreasing on the support.

    Unlike :func:`gev_cdf` this raises ``ValueError`` outside the support,
    where the likelihoods built on it are undefined.
    """
    arr = np.asarray(x, dtype=float)
    log_c = _log_tail(params, arr)
    if np.any(np.isnan(log_c)):
        raise ValueError(f"x outside support of {params}: 1 + xi*(x-mu)/sigma must be > 0")
    out = np.exp(log_c)
    return float(out) if arr.ndim == 0 else out


def neg_log_likelihood(params: GevParams, exc: ExceedanceSet) -> float:
    """Negative log likelihood of the marked Poisson model,
    ``C(u) + n_u * log sigma - (1 + xi) * sum_k log C(h_k)``, +inf off the
    model's support."""
    if exc.n_u < 1:
        raise TooFewExceedancesError("likelihood needs at least one exceedance")
    with np.errstate(over="ignore", invalid="ignore"):
        nll = (np.exp(_log_tail(params, exc.cutoff)) + exc.n_u * math.log(params.sigma)
               - (1 + params.xi) * np.sum(_log_tail(params, exc.heights)))
    return float(nll) if np.isfinite(nll) else math.inf


def theta_log_likelihood(theta: float, g: GapSet) -> float:
    """Log likelihood ``a*log(1 - theta) + b*log(theta) - theta*c`` of the
    exponential/point-mass mixture at ``theta``, with 0*log 0 = 0."""
    check_real("theta", theta, 0, InvalidParamsError, 1, "(]")
    if len(g.gaps) < 1:
        raise TooFewExceedancesError("need at least one gap")
    _, n_c, a, c = _gap_stats(g)
    b = 2 * n_c
    if theta == 1.0:
        first = 0.0 if a == 0 else -math.inf
    else:
        first = a * math.log1p(-theta)
    second = 0.0 if b == 0 else b * math.log(theta)
    return first + second - theta * c


def _as_block(X) -> np.ndarray:
    arr = np.asarray(X, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"block must be a 2-D array of vectors, got shape {arr.shape}")
    return arr


def _pairwise_sq_dists(Z: np.ndarray) -> np.ndarray:
    """Pairwise squared distances of the rows of Z, clipped at 0 against cancellation."""
    zz = np.einsum("ij,ij->i", Z, Z)
    return np.maximum(zz[:, None] + zz - 2.0 * (Z @ Z.T), 0.0)


def median_heuristic(block) -> float:
    """Median pairwise distance of the rows of a real block."""
    sq = _pairwise_sq_dists(_as_block(block))
    return float(np.sqrt(np.median(sq[np.triu_indices(sq.shape[0], k=1)])))


def mmd_stat(X, Y, bandwidth: float) -> float:
    """Unbiased block estimate of the squared maximum mean discrepancy.

    With paired blocks x_1..x_B and y_1..y_B and Gaussian kernel k,

        (1 / (B(B-1))) * sum_{i != j} [k(x_i,x_j) + k(y_i,y_j)
                                       - k(x_i,y_j) - k(x_j,y_i)]

    Zero for identical blocks, symmetric under exchanging X and Y.
    """
    check_real("bandwidth", bandwidth, 0, InvalidBandwidthError)
    Xb, Yb = _as_block(X), _as_block(Y)
    if Xb.shape != Yb.shape:
        raise ValueError(f"blocks must have equal shape, got {Xb.shape} vs {Yb.shape}")
    B = Xb.shape[0]
    if B < 2:
        raise ValueError(f"blocks must hold at least 2 vectors, got {B}")
    sq = _pairwise_sq_dists(np.vstack([Xb, Yb]))
    return _block_mmd(_gaussian(sq, bandwidth), np.arange(B))
