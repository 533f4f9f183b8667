"""Shared test utilities: graph invariant checks, random graph builders and
reference implementations that optimized code is compared against."""

from collections import OrderedDict, deque
from dataclasses import replace

import numpy as np

from degreewalk import Graph
from degreewalk.detector import (rule1_threshold, stopping_rule_0,
                                 stopping_rule_1, stopping_rule_2)
from degreewalk.walk import EveryStep, _Tables, _walk, sample_stream


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


def edge_lines_reference(g: Graph, original_ids: bool = True) -> list[str]:
    """Oracle for Graph.to_edge_lines: a per-node loop over the adjacency."""
    ids = g.original_ids if original_ids else np.arange(g.n)
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
    tables = _Tables(g, alpha)
    times = []
    for _ in range(runs):
        start = int(rng.integers(g.n))
        steps = 0
        if start != target:
            for node, steps, _ in _walk(tables, rng, None, start, 10 ** 7):
                if node == target:
                    break
        times.append(steps)
    return np.array(times, dtype=np.float64)


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
