"""Synthetic graphs: generalized preferential attachment and the erased
configuration model with a Pareto-tailed degree law.

Both generators are deterministic for a fixed config (seed included) and
emit graphs satisfying every Graph invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graph import Graph

# raw words per random_raw call when _pa_tree_targets replays a seed's draws
_WORD_CHUNK = 1 << 16


@dataclass(frozen=True)
class ParetoTail:
    """Degree tail with survival function c * x**(-gamma) for x > x_prime.

    gamma is the tail exponent (> 1 so the mean is finite), c the scale,
    x_prime the lower cutoff below which the law is not specified.
    """

    gamma: float
    c: float
    x_prime: float

    def __post_init__(self):
        if not 1.0 < self.gamma < math.inf:
            raise ValueError(
                f"tail exponent gamma must be finite and > 1, got {self.gamma}")
        if not 0.0 < self.c < math.inf:
            raise ValueError(f"scale c must be finite and > 0, got {self.c}")
        if not 0.0 < self.x_prime < math.inf:
            raise ValueError(f"cutoff x_prime must be finite and > 0, got {self.x_prime}")
        if self.survival(self.x_prime) > 1.0 + 1e-12:
            raise ValueError(
                f"c * x_prime**-gamma = {self.survival(self.x_prime):.4g} exceeds 1; "
                "raise x_prime or lower c")

    def survival(self, x: float) -> float:
        return self.c * x ** (-self.gamma)

    def quantile(self, u: float | np.ndarray) -> float | np.ndarray:
        """Inverse of the survival function: x with survival(x) = u."""
        return (self.c / u) ** (1.0 / self.gamma)


@dataclass(frozen=True)
class PAConfig:
    """Preferential-attachment parameters.

    Each new node attaches `edges_per_node` edges to existing nodes chosen
    with probability proportional to (degree + attractiveness). The degree
    tail exponent this targets is 2 + attractiveness / edges_per_node.
    """

    n: int
    edges_per_node: int = 1
    attractiveness: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.edges_per_node < 1:
            raise ValueError(f"edges_per_node must be >= 1, got {self.edges_per_node}")
        # at -edges_per_node every weight of the first m + 1 nodes is 0,
        # and the rejection loop never accepts a target
        if not -self.edges_per_node < self.attractiveness < math.inf:
            raise ValueError("attractiveness must be finite and > -edges_per_node, "
                             f"got {self.attractiveness}")


@dataclass(frozen=True)
class ConfigModelConfig:
    n: int
    tail: ParetoTail
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")


def generate_pa(cfg: PAConfig) -> Graph:
    """Grow a connected simple graph by preferential attachment.

    Sampling proportional to (degree + A) uses the standard stub-list
    mixture for A >= 0: pick an endpoint of a uniform random stub with
    probability 2E/(2E + A*t), else a uniform existing node. For
    -edges_per_node < A < 0 it falls back to rejection from the stub list.

    Trees (edges_per_node == 1 and A >= 0, the paper's graphs) are built by
    replaying the generator's draws from its raw words (_pa_tree_targets); the
    offsets, neighbors and original_ids are identical, dtypes included, to
    those of the per-node loop, which builds every other configuration.

    Returns:
        Graph with n nodes and roughly edges_per_node * n edges.
    """
    if cfg.edges_per_node == 1 and cfg.attractiveness >= 0.0:
        edges = np.stack([np.arange(1, cfg.n), _pa_tree_targets(
            cfg.n, cfg.attractiveness, cfg.seed)], axis=1)
        return Graph.from_edges(edges, n=cfg.n)
    return _pa_loop(cfg)


def _pa_loop(cfg: PAConfig) -> Graph:
    """generate_pa as one draw per RNG call; the reference for _pa_tree_targets."""
    n, m, a = cfg.n, cfg.edges_per_node, cfg.attractiveness
    rng = np.random.default_rng(cfg.seed)
    src = np.empty(n * m, dtype=np.int64)
    dst = np.empty(n * m, dtype=np.int64)
    n_edges = 0
    # each node appears once per incident stub; grows to ~2*m*n entries
    stubs: list[int] = []
    degs = np.zeros(n, dtype=np.int64)

    for t in range(1, n):
        want = min(m, t)
        targets: set[int] = set()
        if t <= m:
            targets = set(range(t))
        else:
            total_stub = len(stubs)
            while len(targets) < want:
                if a >= 0.0:
                    u = rng.random() * (total_stub + a * t)
                    cand = stubs[int(u)] if u < total_stub else int(rng.integers(t))
                else:
                    cand = stubs[int(rng.random() * total_stub)]
                    d = degs[cand]
                    if rng.random() * d >= d + a:
                        continue
                targets.add(cand)
        for v in targets:
            src[n_edges] = t
            dst[n_edges] = v
            n_edges += 1
            stubs.append(t)
            stubs.append(v)
            degs[t] += 1
            degs[v] += 1

    edges = np.stack([src[:n_edges], dst[:n_edges]], axis=1)
    return Graph.from_edges(edges, n=n)


def _pa_tree_targets(n: int, a: float, seed: int) -> np.ndarray:
    """The node that each of nodes 1..n-1 joins in _pa_loop's tree, for
    edges_per_node == 1 and a >= 0, replayed from the seed's raw words.

    For each node t >= 2 the loop draws u = random() * (2(t-1) + a*t), where
    random() is the top 53 bits of one 64-bit PCG64 word. u < 2(t-1) picks
    stub int(u); otherwise integers(t) picks a uniform node by Lemire's
    method, with rejection, on 32-bit halves: the low half of a fresh word
    first, while the bit generator keeps the high half for the next 32-bit
    draw. random() neither reads nor clears that kept half.

    The words come from random_raw a chunk at a time, turned into random()'s
    values in numpy; integers() reads its fresh words back from the chunk.
    Stub 2(s-1) is node s and stub 2(s-1)+1 is node s's target, so the scan
    records one stub per node (a uniform pick v as stub 2(v-1)) and pointer
    jumping resolves the odd stubs, which copy an earlier node's target.
    """
    raw = np.random.default_rng(seed).bit_generator.random_raw
    chunk = None

    def doubles() -> list[float]:
        """random() of each word of the next chunk, which stays in `chunk`."""
        nonlocal chunk
        chunk = raw(_WORD_CHUNK)
        return ((chunk >> np.uint64(11)) * 2.0 ** -53).tolist()

    # the loop's 2(t-1) + a*t, in the same float operations
    scales = chain.from_iterable(
        (2 * (t - 1) + a * t).tolist()
        for t in (np.arange(lo, min(lo + _WORD_CHUNK, n))
                  for lo in range(2, n, _WORD_CHUNK)))
    words = chain.from_iterable(iter(doubles, None))
    fresh_words = 0  # words integers() took, so word t-1+fresh_words is next
    half = None  # the high half integers() keeps of its last fresh word
    stubs = [-2]  # node 1 joins node 0
    append = stubs.append
    for total, r, scale in zip(range(2, 2 * n - 2, 2), words, scales):
        u = r * scale
        if u < total:
            append(int(u))
            continue
        t = total // 2 + 1
        while True:
            if half is None:
                next(words)
                fresh = int(chunk[(t - 1 + fresh_words) % _WORD_CHUNK])
                fresh_words += 1
                x, half = fresh & 0xFFFFFFFF, fresh >> 32
            else:
                x, half = half, None
            prod = x * t
            # accept unless the low half falls below 2**32 mod t
            if (prod & 0xFFFFFFFF) >= (0x100000000 - t) % t:
                break
        append(2 * (prod >> 32) - 2)

    stub = np.array(stubs, dtype=np.int64)
    owner = np.concatenate(([0], (stub >> 1) + 1))  # owner[0] is unused
    up = np.arange(n)
    copies = np.flatnonzero(stub & 1) + 1
    up[copies] = owner[copies]
    while True:  # until every node points at one that picked directly
        nxt = up[up]
        if np.array_equal(nxt, up):
            break
        up = nxt
    return owner[up[1:]]


def sample_degrees(tail: ParetoTail, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. degrees: ceil of a tail variate, clamped at ceil(x')."""
    u = rng.random(n)
    floor_deg = math.ceil(tail.x_prime)
    p_tail = min(1.0, tail.survival(tail.x_prime))
    x = np.full(n, float(floor_deg))
    in_tail = u < p_tail
    x[in_tail] = tail.quantile(u[in_tail])
    degs = np.ceil(x).astype(np.int64)
    return np.maximum(degs, floor_deg)


def pair_stubs(degrees: np.ndarray, rng: np.random.Generator,
               n: int | None = None) -> Graph:
    """Erased configuration model from an explicit degree sequence.

    Stubs are paired by a uniform random permutation; self-loops are then
    dropped and multi-edges collapsed, so realized degrees can fall below
    the prescribed ones. An odd degree sum is fixed by incrementing the
    first node's degree.
    """
    degrees = np.asarray(degrees, dtype=np.int64).copy()
    if n is None:
        n = len(degrees)
    if degrees.sum() % 2 == 1:
        degrees[0] += 1
    stubs = np.repeat(np.arange(len(degrees), dtype=np.int64), degrees)
    rng.shuffle(stubs)
    edges = stubs.reshape(-1, 2)
    return Graph.from_edges(edges, n=n)


def generate_config_model(cfg: ConfigModelConfig) -> Graph:
    g_rng = np.random.default_rng(cfg.seed)
    degrees = sample_degrees(cfg.tail, cfg.n, g_rng)
    return pair_stubs(degrees, g_rng, n=cfg.n)


def hill_estimate(degrees: np.ndarray, top_fraction: float = 0.01) -> float:
    """Hill estimator of the degree tail exponent from the upper order stats.

    Uses the top `top_fraction` of the sample: the reciprocal of the mean
    log-excess over the (k+1)-th largest value.
    """
    x = np.sort(np.asarray(degrees, dtype=np.float64))[::-1]
    k = max(2, int(len(x) * top_fraction))
    if k + 1 > len(x):
        raise ValueError("sample too small for the requested top fraction")
    logs = np.log(x[:k]) - np.log(x[k])
    mean_excess = logs.mean()
    if mean_excess <= 0.0:
        raise ValueError("degenerate tail: all top-order statistics equal")
    return 1.0 / mean_excess
