"""Synthetic graphs: generalized preferential attachment and the erased
configuration model with a Pareto-tailed degree law.

Both generators are deterministic for a fixed config (seed included) and
emit graphs satisfying every Graph invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import _MAX_NODES, Graph

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
        _check_node_count(self.n)
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
        _check_node_count(self.n)


def _check_node_count(n: int) -> None:
    # Graph.from_edges refuses more nodes, so a larger n would fail only
    # after every edge had been drawn
    if not 2 <= n <= _MAX_NODES:
        raise ValueError(f"n must be in [2, {_MAX_NODES}], got {n}")


def generate_pa(cfg: PAConfig) -> Graph:
    """Grow a connected simple graph by preferential attachment.

    Sampling proportional to (degree + A) uses the standard stub-list
    mixture for A >= 0: pick an endpoint of a uniform random stub with
    probability 2E/(2E + A*t), else a uniform existing node. For
    -edges_per_node < A < 0 it falls back to rejection from the stub list.

    Trees (edges_per_node == 1 and A >= 0, the paper's graphs) are built by
    replaying the generator's draws from its raw words (_pa_tree_targets):
    numpy settles every word safely below the stub-pick threshold, a Python
    scan visits only the others, deciding those near the threshold with
    the loop's own float ops, and a rejected uniform draw restarts the scan
    after its node. The offsets, neighbors and original_ids are identical,
    dtypes included, to those of the per-node loop, which builds every
    other configuration.

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

    The words come from random_raw a chunk at a time. The pick threshold
    2(t-1) / (2(t-1) + a*t) rises with t, so a word below its value at the
    scan's first node, less a 1e-9 margin, picks a stub if it is a random()
    word; only the other words are candidates. A Python scan over the
    candidates skips each one that the pick before it took as a fresh word,
    decides those in the narrow band below the threshold at the scan's last
    node with the loop's own float ops, and records the offsets of the
    uniform picks. The picks alternate between taking a fresh word and
    using the kept half, so numpy derives each pick's node and 32-bit draw
    from the offsets alone, checks Lemire's acceptance for all of them and
    writes every node's stub. At the first rejected draw the picks before
    it are kept, that node's draws are replayed word by word, and the scan
    restarts after its last word. A node whose fresh word lies past the
    chunk is left, with its words, to the next chunk.

    Stub 2(s-1) is node s and stub 2(s-1)+1 is node s's target, so each
    node records one stub (a uniform pick v as stub 2(v-1)) and pointer
    jumping resolves the odd stubs, which copy an earlier node's target.
    """
    raw = np.random.default_rng(seed).bit_generator.random_raw
    low = np.uint64(0xFFFFFFFF)
    stub = np.empty(n - 1, dtype=np.int64)
    stub[0] = -2  # node 1 joins node 0
    t = 2  # the node whose random() word is words[start]
    half = None  # the high half integers() keeps of its last fresh word
    words, start = np.empty(0, dtype=np.uint64), 0
    while t < n:
        words = np.concatenate((words[start:], raw(_WORD_CHUNK)))
        r = (words >> np.uint64(11)) * 2.0 ** -53
        start = 0
        while t < n and start < len(words):
            # without a rejection no node takes more than two words
            seg = r[start:start + 2 * (n - t)]
            t_end = t + len(seg)
            lo = 2 * (t - 1) / (2 * (t - 1) + a * t) * (1 - 1e-9)
            hi = 2 * (t_end - 1) / (2 * (t_end - 1) + a * t_end) * (1 + 1e-9)
            cand = np.flatnonzero(seg >= lo)
            offsets: list[int] = []
            append = offsets.append
            skip, fresh, kept = -1, 0, half is not None
            for c, rc in zip(cand.tolist(), seg[cand].tolist()):
                if c == skip:
                    continue
                if rc < hi:
                    tc = t + c - fresh
                    if rc * (2 * (tc - 1) + a * tc) < 2 * (tc - 1):
                        continue
                append(c)
                if kept:
                    kept = False
                else:
                    kept, fresh, skip = True, fresh + 1, c + 1

            pick = np.array(offsets, dtype=np.int64)
            takes = np.arange(len(pick)) % 2 == (half is not None)
            node = t + pick - (np.cumsum(takes) - takes)
            m = int(np.searchsorted(node, n))
            spill = m > 0 and takes[m - 1] and start + pick[m - 1] + 1 == len(words)
            if spill:
                m -= 1
            fresh_words = words[start + 1 + pick[:m][takes[:m]]]
            # the 32-bit draws in the order integers() reads them
            halves = np.stack((fresh_words & low, fresh_words >> np.uint64(32)),
                              axis=1).ravel()
            if half is not None:
                halves = np.concatenate(([np.uint64(half)], halves))
            bound = node[:m].astype(np.uint64)
            prod = halves[:m] * bound
            rejected = (prod & low) < (np.uint64(1 << 32) - bound) % bound
            k = int(np.argmax(rejected)) if rejected.any() else m

            # every node before pick k: stubs, then the accepted uniform picks
            end = int(pick[k]) if k < m or spill else len(seg)
            is_node = np.ones(end, dtype=bool)
            is_node[pick[:k][takes[:k]] + 1] = False
            at = np.flatnonzero(is_node)[:n - t]
            nodes = np.arange(t, t + len(at))
            # a huge a overflows a*t to inf, and a pick's u to inf or nan
            with np.errstate(over="ignore", invalid="ignore"):
                u = seg[at] * (2 * (nodes - 1) + a * nodes)
                stub[nodes - 1] = u.astype(np.int64)
            stub[node[:k] - 1] = 2 * (prod[:k] >> np.uint64(32)).astype(np.int64) - 2
            t += len(at)
            half = int(halves[k]) if (k + (half is not None)) % 2 else None
            start += end
            if k == m:
                if spill:
                    break
                continue

            # node t's uniform pick had a draw rejected: replay its draws
            x, h, next_word = half, None, start + 1
            while True:
                if x is None:
                    if next_word == len(words):
                        break
                    word = int(words[next_word])
                    next_word += 1
                    x, h = word & 0xFFFFFFFF, word >> 32
                prod = x * t
                if (prod & 0xFFFFFFFF) >= (0x100000000 - t) % t:
                    break
                x, h = h, None
            if x is None:  # its words run past the chunk
                break
            stub[t - 1] = 2 * (prod >> 32) - 2
            t, half, start = t + 1, h, next_word

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
    if np.any(x >= 2.0 ** 63):
        raise ValueError(f"x_prime={tail.x_prime:g}, c={tail.c:g} give degrees beyond int64")
    degs = np.ceil(x).astype(np.int64)
    return np.maximum(degs, floor_deg)


def pair_stubs(degrees: np.ndarray, rng: np.random.Generator) -> Graph:
    """Erased configuration model from an explicit degree sequence.

    Stubs are paired by a uniform random permutation; self-loops are then
    dropped and multi-edges collapsed, so realized degrees can fall below
    the prescribed ones. An odd degree sum is fixed by incrementing the
    first node's degree.
    """
    degrees = np.asarray(degrees, dtype=np.int64).copy()
    if degrees.sum() % 2 == 1:
        degrees[0] += 1
    stubs = np.repeat(np.arange(len(degrees), dtype=np.int64), degrees)
    rng.shuffle(stubs)
    edges = stubs.reshape(-1, 2)
    return Graph.from_edges(edges, n=len(degrees))


def generate_config_model(cfg: ConfigModelConfig) -> Graph:
    g_rng = np.random.default_rng(cfg.seed)
    degrees = sample_degrees(cfg.tail, cfg.n, g_rng)
    return pair_stubs(degrees, g_rng)


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
