"""Application harnesses: graph scan statistics, kernel change-point
detection on a graph stream, and the heavy-tail bandit with max confidence
bounds.

Each harness is a seeded, deterministic state machine built on the pipeline;
results come back as plain dataclasses that serialize naturally to JSON/CSV.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DtmError,
    FitWarning,
    InvalidBandwidthError,
    InvalidSpecError,
    SizeMismatchError,
    check_count,
    check_level,
    check_real,
)
from .generators import GeneratorSpec, generate
from .pipeline import DtmConfig, ThresholdReport, arl_to_alpha, confidence_bounds, run_dtm
from .resample import make_rng, stream_seed

__all__ = [
    "ErGraphSpec",
    "scan_series",
    "mmd_stat",
    "MmdStreamSpec",
    "ChangePointResult",
    "change_point_run",
    "BanditSpec",
    "BanditResult",
    "bandit_run",
]


# ---------------------------------------------------------------------------
# scan statistics over a random graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErGraphSpec:
    """Null random graph G(N, p0) for the subgraph scan: every edge is
    Bernoulli(p0), and each scanned subgraph has k nodes."""

    N: int
    p0: float
    k: int
    seed: int = 0

    def __post_init__(self):
        check_real("p0", self.p0, 0, InvalidSpecError, 1, "[]")
        check_count("N", self.N, 1, InvalidSpecError)
        check_count("k", self.k, 1, InvalidSpecError)
        if self.k > self.N:
            raise InvalidSpecError(f"subgraph size k must lie in [1, N], got {self.k}")
        check_count("seed", self.seed, 0, InvalidSpecError)


def scan_series(spec: ErGraphSpec, n_subgraphs: int) -> np.ndarray:
    """Edge-count scan statistics of uniformly random k-node subgraphs of
    one null graph.

    One G(N, p0) adjacency realization is drawn, then each of the
    n_subgraphs draws picks k nodes uniformly without replacement and counts
    the edges among them.  Values are integers in [0, k*(k-1)/2].
    """
    check_count("n_subgraphs", n_subgraphs, 1, InvalidSpecError)
    rng = make_rng(spec.seed)
    W = np.triu((rng.random((spec.N, spec.N)) < spec.p0).astype(np.int64), 1)
    W = W + W.T
    out = np.empty(n_subgraphs)
    for i in range(n_subgraphs):
        nodes = rng.choice(spec.N, size=spec.k, replace=False)
        out[i] = W[np.ix_(nodes, nodes)].sum() // 2
    return out


# ---------------------------------------------------------------------------
# block MMD statistic and the online change-point harness
# ---------------------------------------------------------------------------


def _pairwise_sq_dists(Z: np.ndarray) -> np.ndarray:
    """Pairwise squared distances of the rows of Z, clipped at 0 against cancellation."""
    zz = np.einsum("ij,ij->i", Z, Z)
    return np.maximum(zz[:, None] + zz - 2.0 * (Z @ Z.T), 0.0)


def _gaussian(sq: np.ndarray, bandwidth: float) -> np.ndarray:
    return np.exp(-sq / (2.0 * bandwidth * bandwidth))


def _block_mmd(K: np.ndarray, order: np.ndarray) -> float:
    """Unbiased block MMD^2 from the kernel matrix K of the stacked [X; Y].

    X and Y are the first and last B = len(order) rows; X row order[i] is
    paired with Y row i.
    """
    B = order.size
    kxx, kyy, kxy = K[:B, :B], K[B:, B:], K[:B, B:]
    sxx = kxx.sum() - np.trace(kxx)
    syy = kyy.sum() - np.trace(kyy)
    sxy = kxy.sum() - kxy[order, np.arange(B)].sum()
    return float((sxx + syy - 2.0 * sxy) / (B * (B - 1)))


def _as_block(X) -> np.ndarray:
    arr = np.asarray(X, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise SizeMismatchError(f"block must be a 2-D array of vectors, got shape {arr.shape}")
    return arr


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
        raise SizeMismatchError(f"blocks must have equal shape, got {Xb.shape} vs {Yb.shape}")
    B = Xb.shape[0]
    if B < 2:
        raise SizeMismatchError(f"blocks must hold at least 2 vectors, got {B}")
    sq = _pairwise_sq_dists(np.vstack([Xb, Yb]))
    return _block_mmd(_gaussian(sq, bandwidth), np.arange(B))


@dataclass(frozen=True)
class MmdStreamSpec:
    """Graph-snapshot stream monitored by a sliding block MMD statistic.

    Snapshots are vectorized upper triangles of independent adjacency
    realizations: edge probability ``p_pre`` up to and including
    ``change_time``, ``p_post`` afterwards (``change_time=None`` for a stream
    with no change).  Snapshot t is drawn from the entropy (seed, t), so any
    snapshot can be regenerated independently.
    """

    block_size: int = 50
    n_nodes: int = 100
    p_pre: float = 0.3
    p_post: float = 0.4
    change_time: Optional[int] = None
    horizon: int = 4400
    train_len: int = 2000
    bootstrap_reps: int = 10
    seed: int = 0

    def __post_init__(self):
        check_count("block_size", self.block_size, 2, InvalidSpecError)
        check_count("n_nodes", self.n_nodes, 2, InvalidSpecError)
        check_count("horizon", self.horizon, 1, InvalidSpecError)
        check_count("train_len", self.train_len, 2, InvalidSpecError)
        if self.change_time is not None:
            check_count("change_time", self.change_time, -math.inf, InvalidSpecError)
        check_real("p_pre", self.p_pre, 0, InvalidSpecError, 1, "[]")
        check_real("p_post", self.p_post, 0, InvalidSpecError, 1, "[]")
        # the sliding statistic starts at t = 2 * block_size; train_len >= 2
        # so this also refuses a horizon too short for one statistic
        n_stream = self.horizon - 2 * self.block_size + 1
        if self.train_len > n_stream:
            raise InvalidSpecError(f"horizon={self.horizon} leaves {n_stream} statistics, "
                                   f"fewer than train_len={self.train_len}")
        # the pipeline field is refused here, before any snapshot is drawn
        check_count("bootstrap_reps", self.bootstrap_reps, 1, InvalidSpecError)
        check_count("seed", self.seed, 0, InvalidSpecError)


@dataclass(frozen=True)
class ChangePointResult:
    stopping_time: Optional[int]  # snapshot time of the first alarm, or None
    threshold: float
    stream: np.ndarray  # statistic values for t = stream_start .. horizon
    stream_start: int
    report: ThresholdReport


def _snapshot(spec: MmdStreamSpec, t: int) -> np.ndarray:
    # tuple entropy keeps snapshot streams independent across spec seeds
    rng = make_rng((spec.seed, t))
    p = spec.p_pre if spec.change_time is None or t <= spec.change_time else spec.p_post
    d = spec.n_nodes * (spec.n_nodes - 1) // 2
    return (rng.random(d) < p).astype(float)


def _median_heuristic(ref: np.ndarray) -> float:
    sq = _pairwise_sq_dists(ref)
    return float(np.sqrt(np.median(sq[np.triu_indices(ref.shape[0], k=1)])))


def change_point_run(spec: MmdStreamSpec, arl: float) -> ChangePointResult:
    """Online sliding-window detection on the snapshot stream.

    The reference block is the first ``block_size`` snapshots, and its median
    pairwise distance is the kernel bandwidth; the statistic at time t
    compares the last ``block_size`` snapshots against it, from
    t = 2 * block_size (first disjoint window).  The pipeline (default cutoff
    quantile, shape pinned at 0) is trained on the first ``train_len``
    statistics at alpha = arl_to_alpha(train_len, arl); monitoring scans the
    rest of the stream and stops at the first exceedance.
    """
    B = spec.block_size
    stream_start = 2 * B
    n_stream = spec.horizon - stream_start + 1

    alpha = arl_to_alpha(spec.train_len, arl)
    # bounded kernel statistics at n_u ~ 100 cannot identify the shape; pin
    # the exponential-type branch (free fits endpoint-cap the threshold)
    cfg = DtmConfig(alpha=alpha, bootstrap_reps=spec.bootstrap_reps, fix_xi=0.0, seed=spec.seed)

    ref = np.stack([_snapshot(spec, t) for t in range(1, B + 1)])
    bandwidth = _median_heuristic(ref)
    check_real("median-heuristic bandwidth", bandwidth, 0, InvalidBandwidthError)

    # 0/1 snapshots: a squared distance is a Hamming count h <= d, which the
    # float route also forms exactly (integers < 2**53), so the kernel is table[h]
    table = _gaussian(np.arange(ref.shape[1] + 1.0), bandwidth)
    # P = [window; ref] as packed bits; window slot(t) = t % B, at t = B the ref block
    P = np.packbits(np.concatenate([np.roll(ref, 1, axis=0), ref]) > 0, axis=1)
    def kernel(rows):  # table[Hamming count] of rows against every row of P
        return table[np.bitwise_count(P ^ rows).sum(axis=-1)]
    K = np.array([kernel(row) for row in P])  # row by row, temporaries the size of P
    stream = np.empty(n_stream)
    for t in range(B + 1, spec.horizon + 1):
        slot = t % B
        P[slot] = np.packbits(_snapshot(spec, t) > 0)
        K[slot, :] = K[:, slot] = kernel(P[slot])
        if t >= stream_start:
            # chronological rank i (0-based) of the window pairs with ref row i
            stream[t - stream_start] = _block_mmd(K, np.arange(t - B + 1, t + 1) % B)

    report = run_dtm(stream[: spec.train_len], cfg)

    monitored = stream[spec.train_len:]
    above = np.flatnonzero(monitored > report.threshold)
    stop = int(stream_start + spec.train_len + above[0]) if above.size else None
    return ChangePointResult(
        stopping_time=stop,
        threshold=report.threshold,
        stream=stream,
        stream_start=stream_start,
        report=report,
    )


# ---------------------------------------------------------------------------
# heavy-tail bandit with max confidence bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BanditSpec:
    """K-arm bandit with Pareto rewards; optional moving-average dependence.

    Arm k draws iid Pareto(tail_exponents[k]) rewards when window == 1, or
    else the harness's own sliding mean over that many iid draws.  Arm
    streams derive from (seed, arm).  The bound fits cut at the pipeline's
    0.95 quantile, like the other harnesses, and pin the shape at 0 (see
    :func:`bandit_run`).
    """

    tail_exponents: tuple[float, ...]
    delta: float = 0.005
    burn_in: int = 500
    window: int = 1
    seed: int = 0

    def __post_init__(self):
        if len(self.tail_exponents) < 2:
            raise InvalidSpecError("bandit needs at least 2 arms")
        for a in self.tail_exponents:
            check_real("each of tail_exponents", a, 0, InvalidSpecError)
        check_level("delta", self.delta, InvalidSpecError)
        check_count("burn_in", self.burn_in, 2, InvalidSpecError)
        check_count("window", self.window, 1, InvalidSpecError)
        check_count("seed", self.seed, 0, InvalidSpecError)

    @property
    def n_arms(self) -> int:
        return len(self.tail_exponents)


@dataclass
class BanditResult:
    initial_bounds: list  # per-arm (lcb, ucb) right after burn-in
    pulls: list = field(default_factory=list)  # arm index per post-burn-in round
    bounds_history: list = field(default_factory=list)  # per round: list of per-arm (lcb, ucb)
    stopped_early: bool = False

    def pull_counts(self, n_arms: int) -> list[int]:
        return [self.pulls.count(k) for k in range(n_arms)]


def _arm_stream(spec: BanditSpec, arm: int, seed: int, length: int) -> np.ndarray:
    # a window of 1 returns the draws, whose bits a cumsum difference would move
    w = spec.window
    raw = generate(GeneratorSpec.pareto(spec.tail_exponents[arm], n=length + w - 1, seed=seed))
    if w == 1:
        return raw
    csum = np.concatenate(([0.0], np.cumsum(raw)))
    return (csum[w:] - csum[:-w]) / w


def bandit_run(spec: BanditSpec, total_pulls: int) -> BanditResult:
    """UCB policy on the max-reward bandit.

    After ``burn_in`` pulls of every arm, each round pulls the arm with the
    highest ucb (ties to the lowest index) and recomputes its (lcb, ucb) from
    its longer reward history; the run stops early, before pulling, once the
    leader's lcb exceeds the ucb of every other arm that has bounds.  Each
    failed bound estimation warns (:class:`FitWarning`): an arm without
    burn-in bounds is skipped until the end, and a pulled arm keeps its
    previous bounds.  If no arm has bounds the run raises :class:`DtmError`.
    """
    K = spec.n_arms
    check_count("total_pulls", total_pulls, K * spec.burn_in + 1, InvalidSpecError)
    seeds = [stream_seed(spec.seed, k) for k in range(K)]
    # a burn-in history yields ~25 exceedances per arm, too few to identify
    # the shape; pin the exponential-type branch for the bound fits
    cfgs = [DtmConfig(alpha=spec.delta, fix_xi=0.0, seed=seeds[k]) for k in range(K)]
    streams = [_arm_stream(spec, k, seeds[k], total_pulls) for k in range(K)]
    counts = [spec.burn_in] * K

    def bounds_for(k: int) -> Optional[tuple[float, float]]:
        try:
            return confidence_bounds(streams[k][: counts[k]], cfgs[k])
        except DtmError as e:
            warnings.warn(f"arm {k} bounds failed: {e}", FitWarning, stacklevel=2)
            return None

    current = [bounds_for(k) for k in range(K)]
    result = BanditResult(initial_bounds=list(current))

    pulls_left = total_pulls - K * spec.burn_in
    for _ in range(pulls_left):
        # one pass over the arms with bounds: the leader, and the highest ucb
        # of the others (a displaced leader's ucb tops every arm before it)
        leader, lead, other_ucb = -1, None, None
        for k, b in enumerate(current):
            if b is None:
                continue
            if lead is None:
                leader, lead = k, b
            elif b[1] > lead[1]:  # a tie stays with the lower index
                leader, lead, other_ucb = k, b, lead[1]
            elif other_ucb is None or b[1] > other_ucb:
                other_ucb = b[1]
        if lead is None:
            raise DtmError("confidence bounds failed for every arm")
        if other_ucb is not None and lead[0] > other_ucb:
            result.stopped_early = True
            break
        result.pulls.append(leader)
        counts[leader] += 1
        current[leader] = bounds_for(leader) or lead
        result.bounds_history.append(list(current))
    return result
