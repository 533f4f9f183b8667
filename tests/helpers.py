"""Shared test utilities: graph invariant checks and random graph builders."""

from collections import deque

import numpy as np

from degreewalk import Graph


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


def star_graph(n: int) -> Graph:
    edges = np.array([[0, i] for i in range(1, n)], dtype=np.int64)
    return Graph.from_edges(edges, n=n)
