"""Random walk with uniform jumps, plus near-i.i.d. sample streams.

One step from node i either jumps, with probability alpha/(d_i + alpha),
to a node chosen uniformly among all n (the current node included), or
moves to a uniform neighbor of i. This two-stage draw realizes exactly the
kernel p_ij = (alpha/n + [i~j]) / (d_i + alpha) without materializing any
matrix rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union

import numpy as np

from .graph import Graph

_BLOCK = 4096


class WalkStuckError(RuntimeError):
    """Walk cannot leave a zero-degree node when the jump rate is zero."""


@dataclass(frozen=True)
class EveryStep:
    """Emit every visited node."""


@dataclass(frozen=True)
class Thinned:
    """Skip a transient, then keep each visit independently with probability q."""

    transient: int = 100
    q: float = 0.5

    def __post_init__(self):
        if self.transient < 0:
            raise ValueError(f"transient must be >= 0, got {self.transient}")
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {self.q}")


Mode = Union[EveryStep, Thinned]


@dataclass(frozen=True)
class WalkConfig:
    alpha: float
    seed: int | tuple = 0
    max_steps: int = 1_000_000
    mode: Mode = EveryStep()

    def __post_init__(self):
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


class Sample(NamedTuple):
    node: int
    step_index: int  # raw walk step at which the node was visited


class _Tables:
    """Views of a graph for the hot walking loop."""

    __slots__ = ("n", "offsets", "neighbors", "p_jump")

    def __init__(self, g: Graph, alpha: float):
        self.n = g.n
        self.offsets = memoryview(g.offsets)
        self.neighbors = memoryview(g.neighbors)
        denom = g.degrees + alpha
        # sentinel -1 marks zero-degree nodes with alpha == 0 (walk is stuck)
        p = np.full(g.n, -1.0)
        ok = denom > 0.0
        p[ok] = alpha / denom[ok]
        self.p_jump = p.tolist()


def _walk(t: _Tables, move_rng: np.random.Generator,
          keep_rng: np.random.Generator | None, start: int, max_steps: int,
          mode: Mode = EveryStep()) -> Iterator[tuple[int, int, bool]]:
    """Every step of the walk as (node, raw_step, kept), 1-based steps.

    kept marks the visits that survive the sampling mode: all of them under
    EveryStep, and under Thinned those past the transient whose keep
    uniform, drawn from keep_rng, is below q. Thinning uniforms come from
    their own stream, so Thinned(q=1, transient=0) keeps exactly the
    EveryStep visit sequence. Move uniforms are drawn in blocks of
    min(_BLOCK, steps left), so walks that share one move_rng draw the same
    sequence however early each of them is abandoned.
    """
    cur = start
    steps = 0
    n = t.n
    offsets, neighbors, p_jump = t.offsets, t.neighbors, t.p_jump
    thinned = isinstance(mode, Thinned)
    while steps < max_steps:
        count = min(_BLOCK, max_steps - steps)
        block = move_rng.random(count).tolist()
        if thinned:
            skip = min(count, max(0, mode.transient - steps))
            keep = [False] * skip + (keep_rng.random(count - skip) < mode.q).tolist()
        else:
            keep = [True] * count
        for r, kept in zip(block, keep):
            pj = p_jump[cur]
            if r < pj:
                # reuse the branch uniform: r/pj is uniform given the jump
                cur = min(int(r / pj * n), n - 1)
            else:
                if pj < 0.0:
                    raise WalkStuckError("stuck: zero degree, zero jump rate")
                lo = offsets[cur]
                d = offsets[cur + 1] - lo
                cur = neighbors[lo + min(int((r - pj) / (1.0 - pj) * d), d - 1)]
            steps += 1
            yield cur, steps, kept


def walk_until_hit(g: Graph, cfg: WalkConfig, start: int | None,
                   target: int) -> int | None:
    """Number of steps until the walk first visits `target`.

    start=None draws the initial node uniformly. Returns 0 when the start
    already is the target, and None when max_steps elapse without a hit
    (the target may be unreachable when alpha == 0).
    """
    if not 0 <= target < g.n:
        raise IndexError(f"target {target} out of range [0, {g.n})")
    rng = np.random.default_rng(cfg.seed)
    s0 = int(rng.integers(g.n)) if start is None else start
    if not 0 <= s0 < g.n:
        raise IndexError(f"start node {s0} out of range [0, {g.n})")
    tables = _Tables(g, cfg.alpha)  # built first: start == target times set-up alone
    if s0 == target:
        return 0
    for node, raw, _ in _walk(tables, rng, None, s0, cfg.max_steps):
        if node == target:
            return raw
    return None


def _stream_rngs(seed) -> tuple[np.random.Generator, np.random.Generator,
                                np.random.Generator]:
    """Independent (start, move, keep) generators derived from one seed."""
    ss = np.random.SeedSequence(seed)
    start_ss, move_ss, keep_ss = ss.spawn(3)
    return (np.random.default_rng(start_ss), np.random.default_rng(move_ss),
            np.random.default_rng(keep_ss))


def sample_stream(g: Graph, cfg: WalkConfig, start: int | None = None) -> Iterator[Sample]:
    """Stream of Sample(node, raw step index) under cfg.mode.

    EveryStep emits each visited node; Thinned skips the transient and then
    keeps each visit independently with probability q. At most
    cfg.max_steps raw steps are walked either way.
    """
    start_rng, move_rng, keep_rng = _stream_rngs(cfg.seed)
    s0 = int(start_rng.integers(g.n)) if start is None else start
    if not 0 <= s0 < g.n:
        raise IndexError(f"start node {s0} out of range [0, {g.n})")
    for node, raw, kept in _walk(_Tables(g, cfg.alpha), move_rng, keep_rng, s0,
                                 cfg.max_steps, cfg.mode):
        if kept:
            yield Sample(node, raw)
