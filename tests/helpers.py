"""Shared test utilities: graph invariant checks, random graph builders and
reference implementations that optimized code is compared against."""

import math
from collections import OrderedDict, deque
from dataclasses import replace

import numpy as np

from degreewalk import DegreeRecord, Graph
from degreewalk.detector import (rule1_threshold, stopping_rule_0,
                                 stopping_rule_1, stopping_rule_2)
from degreewalk.walk import (EveryStep, Thinned, WalkStuckError, _draws, _walk,
                             check_alpha, sample_stream)

# most nodes transition_matrix accepts: it builds an n x n array
_DENSE_CAP = 2000


def check_graph_invariants(g: Graph) -> None:
    assert g.offsets[0] == 0 and g.offsets[-1] == len(g.neighbors)
    assert int(g.degrees.sum()) == 2 * g.m_edges
    for u in range(g.n):
        nbrs = g.neighbors_of(u)
        if len(nbrs):
            assert np.all(np.diff(nbrs) > 0), f"adjacency of {u} not strictly increasing"
            assert u not in nbrs, f"self-loop at {u}"
        for v in nbrs:
            assert u in g.neighbors_of(int(v)), f"asymmetric edge {u}-{v}"


class PCG64Replay:
    """numpy's Generator.random() and integers(high) rebuilt from the raw
    words of default_rng(seed), one word at a time, counting the draws that
    Lemire's bounded-integer method rejects.

    random() is the top 53 bits of a word. integers(high), for
    2 <= high < 2**32, takes 32-bit halves: the low half of a new word, then
    the high half on the next call; random() leaves that kept half alone.
    """

    def __init__(self, seed: int):
        self._raw = np.random.default_rng(seed).bit_generator.random_raw
        self._kept = None
        self.rejections = 0
        self.words = 0  # raw words read so far

    def _uint32(self) -> int:
        if self._kept is not None:
            half, self._kept = self._kept, None
            return half
        word = int(self._raw())
        self.words += 1
        self._kept = word >> 32
        return word & 0xFFFFFFFF

    def random(self) -> float:
        self.words += 1
        return math.ldexp(int(self._raw()) >> 11, -53)

    def integers(self, high: int) -> int:
        threshold = 2 ** 32 % high
        while True:
            scaled = self._uint32() * high
            if scaled % 2 ** 32 >= threshold:
                return scaled >> 32
            self.rejections += 1


class FixedWords(PCG64Replay):
    """A stand-in for default_rng(seed) that reads a given array of raw
    words: random() and integers(high) as in PCG64Replay, and
    bit_generator.random_raw(size), which counts its calls in raw_calls.
    Under a default_rng that returns its argument, pa_tree_picks and
    _pa_loop read it as they read a seed's words."""

    def __init__(self, words: np.ndarray):
        self._words, self._at = words, 0
        self._kept = None
        self.rejections = self.words = self.raw_calls = 0
        self.bit_generator = self

    def _raw(self) -> int:
        self._at += 1
        return int(self._words[self._at - 1])

    def random_raw(self, size: int | None = None) -> np.ndarray | int:
        if size is None:  # as PCG64Replay reads it
            return self._raw()
        assert self._at + size <= len(self._words), "stream exhausted"
        self.raw_calls += 1
        self._at += size
        return self._words[self._at - size:self._at]


def pcg64_with_word(index: int, word: int) -> np.random.PCG64:
    """A PCG64 bit generator whose raw word number `index` (from 0) is `word`.

    PCG64 steps its 128-bit LCG state, then outputs the xor of the state's
    two halves rotated right by the top 6 bits of the state. A state with
    any high half h and low half h ^ rotl(word) therefore outputs `word`;
    the generator starts index + 1 steps before that state.
    """
    high = 0x9E3779B97F4A7C15
    rot = high >> 58
    mixed = ((word << rot) | (word >> (64 - rot))) & 0xFFFFFFFFFFFFFFFF
    bits = np.random.PCG64(0)
    bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                  "state": {"state": (high << 64) | (high ^ mixed), "inc": 1}}
    return bits.advance(2 ** 128 - index - 1)


def pa_tree_picks(n: int, attractiveness: float,
                  seed: int) -> list[tuple[int, list[int], int]]:
    """The uniform picks that generate_pa draws for PAConfig(n, 1,
    attractiveness, seed), attractiveness >= 0, one (w, fresh, rejections)
    per pick: w indexes the node's random() word in the raw stream, fresh
    lists the words integers() took for it, and rejections counts the draws
    that Lemire's method rejected."""
    rng = PCG64Replay(seed)
    picks = []
    for t in range(2, n):
        total = 2 * (t - 1)
        word = rng.words
        if rng.random() * (total + attractiveness * t) >= total:
            rejections = rng.rejections
            rng.integers(t)
            picks.append((word, list(range(word + 1, rng.words)),
                          rng.rejections - rejections))
    return picks


def from_edges_reference(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for Graph.from_edges: the unique-key + lexsort + add.at build.

    Returns (offsets, neighbors) of the simple undirected graph on n nodes.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(edges):
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        key = np.unique(lo * np.int64(n) + hi)
        lo, hi = key // n, key % n
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
    else:
        src = dst = np.empty(0, dtype=np.int64)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets, src + 1, 1)
    np.cumsum(offsets, out=offsets)
    return offsets, dst


def edge_lines_reference(g: Graph) -> list[str]:
    """Oracle for Graph.to_edge_lines: a per-node loop over the adjacency."""
    ids = g.original_ids
    return [f"{ids[u]} {ids[v]}" for u in range(g.n)
            for v in g.neighbors_of(u) if u < v]


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in g.neighbors_of(u):
            if not seen[v]:
                seen[v] = True
                queue.append(int(v))
    return bool(seen.all())


def random_connected_graph(n: int, avg_degree: float, seed: int) -> Graph:
    """Erdos-Renyi-style graph, resampled until connected."""
    rng = np.random.default_rng(seed)
    p = min(1.0, avg_degree / (n - 1))
    for _ in range(200):
        mask = np.triu(rng.random((n, n)) < p, 1)
        us, vs = np.nonzero(mask)
        g = Graph.from_edges(np.stack([us, vs], axis=1), n=n)
        if is_connected(g):
            return g
    raise RuntimeError(f"could not build a connected graph with n={n}")


def shared_rng_hitting_times(g: Graph, alpha: float, target: int,
                             rng: np.random.Generator, runs: int) -> np.ndarray:
    """Hitting times of `runs` walks that draw their uniform starts and
    their moves from one generator, one walk after another."""
    times = []
    for _ in range(runs):
        start = int(rng.integers(g.n))
        steps = 0
        if start != target:
            for nodes, base in _walk(g, alpha, _draws(rng, 10 ** 7), start, stop=target):
                steps = base + len(nodes)
        times.append(steps)
    return np.array(times, dtype=np.float64)


def transition_matrix(g: Graph, alpha: float) -> np.ndarray:
    """Dense one-step kernel: p_ij = (alpha/n + [i~j]) / (d_i + alpha)."""
    check_alpha(alpha)
    if g.n > _DENSE_CAP:
        raise ValueError(
            f"n={g.n} exceeds dense cap {_DENSE_CAP}; use Monte Carlo instead")
    if alpha == 0.0 and g.degrees.min() == 0:
        raise ValueError("alpha=0 with an isolated node: kernel undefined")
    n = g.n
    P = np.full((n, n), alpha / n)
    rows = np.repeat(np.arange(n), g.degrees)
    P[rows, g.neighbors] += 1.0
    P /= (g.degrees + alpha)[:, None]
    return P


def hitting_time_dense(g: Graph, alpha: float, target: int, nu=None) -> float:
    """Oracle for hitting_time_exact: the dense solve it replaced. Solves
    (I - P_t) h = 1 on the kernel with the target's row and column removed,
    sets h[target] = 0 and averages h under nu (None, a node or a vector)."""
    P = transition_matrix(g, alpha)
    idx = np.delete(np.arange(g.n), target)
    h = np.zeros(g.n)
    h[idx] = np.linalg.solve(np.eye(g.n - 1) - P[np.ix_(idx, idx)], np.ones(g.n - 1))
    if nu is None:
        return float(h.mean())
    if isinstance(nu, int):
        return float(h[nu])
    return float(nu @ h)


class _TablesReference:
    """The per-graph jump table that walk._walk used to build: p_jump[i] =
    alpha/(d_i + alpha) from numpy, with -1 marking a stuck node."""

    def __init__(self, g: Graph, alpha: float):
        self.n = g.n
        self.offsets = memoryview(g.offsets)
        self.neighbors = memoryview(g.neighbors)
        denom = g.degrees + alpha
        p = np.full(g.n, -1.0)
        ok = denom > 0.0
        p[ok] = alpha / denom[ok]
        self.p_jump = p.tolist()


def walk_reference(g: Graph, alpha: float, move_rng, keep_rng, start: int,
                   max_steps: int, mode=EveryStep()):
    """Oracle for walk._walk: the table-driven kernel it replaced, yielding
    (node, raw_step, kept) per step."""
    t = _TablesReference(g, alpha)
    cur = start
    steps = 0
    n = t.n
    offsets, neighbors, p_jump = t.offsets, t.neighbors, t.p_jump
    thinned = isinstance(mode, Thinned)
    while steps < max_steps:
        count = min(512, max_steps - steps)
        block = move_rng.random(count).tolist()
        if thinned:
            skip = min(count, max(0, mode.transient - steps))
            keep = [False] * skip + (keep_rng.random(count - skip) < mode.q).tolist()
        else:
            keep = [True] * count
        for r, kept in zip(block, keep):
            pj = p_jump[cur]
            if r < pj:
                cur = min(int(r / pj * n), n - 1)
            else:
                if pj < 0.0:
                    raise WalkStuckError("stuck: zero degree, zero jump rate")
                lo = offsets[cur]
                d = offsets[cur + 1] - lo
                cur = neighbors[lo + min(int((r - pj) / (1.0 - pj) * d), d - 1)]
            steps += 1
            yield cur, steps, kept


def reference_stream(g: Graph, cfg, start=None) -> list[tuple[int, int]]:
    """Oracle for sample_stream: the (node, step) samples of walk_reference
    on start, move and keep generators spawned from cfg.seed."""
    start_ss, move_ss, keep_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    if start is None:
        start = int(np.random.default_rng(start_ss).integers(g.n))
    steps = walk_reference(g, cfg.alpha, np.random.default_rng(move_ss),
                           np.random.default_rng(keep_ss), start, cfg.max_steps,
                           cfg.mode)
    return [(node, raw) for node, raw, kept in steps if kept]


def reference_hit(g: Graph, cfg, start, target: int):
    """Oracle for walk_until_hit over walk_reference."""
    rng = np.random.default_rng(cfg.seed)
    s0 = int(rng.integers(g.n)) if start is None else start
    if s0 == target:
        return 0
    for node, raw, _ in walk_reference(g, cfg.alpha, rng, None, s0, cfg.max_steps):
        if node == target:
            return raw
    return None


def exact_top_k_sort(g: Graph, k: int) -> list[DegreeRecord]:
    """Oracle for exact_top_k: a stable sort of the whole degree array on
    the same (degree, -id) key in place of a size-k selection."""
    key = g.degrees.astype(np.int64) * np.int64(g.n) - np.arange(g.n, dtype=np.int64)
    top = np.argsort(-key, kind="stable")[:k]
    return [DegreeRecord(int(i), int(g.degrees[i])) for i in top]


# Graph caches that load_npz must reject, and, less the no_* rows, arrays
# the Graph constructor must reject: name -> (members, faulty member).
# The base is the path 0-1-2: offsets [0, 1, 3, 4], neighbors [1, 0, 2, 1].
# Members are saved as given, so a list of ints is stored as int64.
_PATH3 = {"offsets": [0, 1, 3, 4], "neighbors": [1, 0, 2, 1], "original_ids": [0, 1, 2]}
CORRUPT_CACHES = {
    **{f"no_{m}": ({k: v for k, v in _PATH3.items() if k != m}, m) for m in _PATH3},
    "offsets_start_at_1": ({**_PATH3, "offsets": [1, 1, 3, 4]}, "offsets"),
    "offsets_swapped": ({**_PATH3, "offsets": [0, 3, 1, 4]}, "offsets"),
    "offsets_end_short": ({**_PATH3, "offsets": [0, 1, 3, 3]}, "offsets"),
    "neighbor_negative": ({**_PATH3, "neighbors": [1, 0, 2, -1]}, "neighbors"),
    "neighbor_is_n": ({**_PATH3, "neighbors": [1, 0, 3, 1]}, "neighbors"),
    "neighbor_of_degree_0": ({**_PATH3, "offsets": [0, 1, 3, 3], "neighbors": [1, 0, 2]},
                             "neighbors"),
    "original_ids_short": ({**_PATH3, "original_ids": [0, 1]}, "original_ids"),
    "original_ids_negative": ({**_PATH3, "original_ids": [0, -5, 2]}, "original_ids"),
    "offsets_float": ({**_PATH3, "offsets": [0, 1.9, 3, 4]}, "offsets"),
    "neighbors_float": ({**_PATH3, "neighbors": [1.0, 0.0, 2.0, 1.0]}, "neighbors"),
    "offsets_2d": ({**_PATH3, "offsets": [[0, 1], [3, 4]]}, "offsets"),
    "original_ids_uint64": ({**_PATH3, "original_ids": np.array([0, 1, 2], dtype=np.uint64)},
                            "original_ids"),
}


def star_graph(n: int) -> Graph:
    edges = np.array([[0, i] for i in range(1, n)], dtype=np.int64)
    return Graph.from_edges(edges, n=n)


class CandidateListReference:
    """Oracle for detector.CandidateList: the list that counts every sample
    of a node in a least-recently-sampled map capped at 4k entries, with
    listed nodes pinned, and that the public rules re-score after every
    sample in reference_decision."""

    def __init__(self, k: int):
        self.k = k
        self._deg: dict[int, int] = {}
        self._hits: OrderedDict[int, int] = OrderedDict()
        self._worst_key: tuple[int, int] | None = None

    def __len__(self) -> int:
        return len(self._deg)

    @property
    def is_full(self) -> bool:
        return len(self._deg) >= self.k

    def observe(self, node: int, degree: int) -> None:
        if node in self._deg:
            return
        if len(self._deg) < self.k:
            self._deg[node] = degree
            self._refresh_worst()
            return
        key = (-degree, node)
        if key < self._worst_key:
            del self._deg[self._worst_key[1]]
            self._deg[node] = degree
            self._refresh_worst()

    def update(self, node: int, degree: int) -> None:
        hits = self._hits
        if node in hits:
            hits[node] += 1
            hits.move_to_end(node)
        else:
            hits[node] = 1
            if len(hits) > 4 * self.k:
                for old in hits:
                    if old not in self._deg:
                        del hits[old]
                        break
        self.observe(node, degree)

    def _refresh_worst(self) -> None:
        self._worst_key = max((-d, v) for v, d in self._deg.items())

    def entries(self) -> list[tuple[int, int, int]]:
        ordered = sorted(self._deg.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(v, d, self._hits.get(v, 0)) for v, d in ordered]

    def member_hits(self) -> list[int]:
        return [self._hits.get(v, 0) for v in self._deg]

    def member_factors(self) -> list[float]:
        return [1.0 - math.exp(-x) for x in self.member_hits()]


def reference_decision(g: Graph, cfg, k: int, rule: str, threshold: float):
    """Oracle for detect_with_rule / detect_fixed_m_decision: feeds every
    visit of the walk to CandidateListReference and calls the public rule
    after every sample. rule is "r0", "r1", "r2" or "fixed" (threshold is
    then the sample budget m). Returns (fired, fired_at_samples, raw_steps,
    entries)."""
    lst = CandidateListReference(k)
    if rule == "fixed":
        m = int(threshold)
        fires = lambda lst, samples: samples >= m
    else:
        if rule == "r0":
            fires = lambda lst, samples: stopping_rule_0(lst, threshold)
        elif rule == "r1":
            x0 = rule1_threshold(k, threshold)
            fires = lambda lst, samples: stopping_rule_1(lst, x0)
        else:
            fires = lambda lst, samples: stopping_rule_2(lst, threshold)
        if fires(lst, 0):
            return True, 0, 0, []
    nodes = [s.node for s in sample_stream(g, replace(cfg, mode=EveryStep()))]
    kept = (None if isinstance(cfg.mode, EveryStep)
            else {s.step_index for s in sample_stream(g, cfg)})
    samples = 0
    for step, node in enumerate(nodes, start=1):
        deg = int(g.degrees[node])
        if kept is None or step in kept:
            samples += 1
            lst.update(node, deg)
            if fires(lst, samples):
                return True, samples, step, lst.entries()
        else:
            lst.observe(node, deg)
    return False, samples, cfg.max_steps, lst.entries()
