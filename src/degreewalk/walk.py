"""Random walk with uniform jumps, plus near-i.i.d. sample streams.

One step from node i either jumps, with probability alpha/(d_i + alpha),
to a node chosen uniformly among all n (the current node included), or
moves to a uniform neighbor of i. This two-stage draw realizes exactly the
kernel p_ij = (alpha/n + [i~j]) / (d_i + alpha) without materializing any
matrix rows.

The kernel, _walk, hands out the walk in blocks of up to _BLOCK steps, so
consumers take a block at once: the detector filters it with numpy, and
sample_stream flattens it. The block size changes no draw and no visit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union

import numpy as np

from .graph import Graph

_DRAW = 4096  # move and keep uniforms per generator call
_BLOCK = 512  # steps per block handed out by _walk


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


# (nodes, kept mask or None under EveryStep, raw steps before the block)
Block = tuple[list[int], Union[np.ndarray, None], int]


def _walk(g: Graph, alpha: float, move_rng: np.random.Generator,
          keep_rng: np.random.Generator | None, start: int, max_steps: int,
          mode: Mode = EveryStep(), stop: int = -1) -> Iterator[Block]:
    """The walk as blocks (nodes, kept, base) of at most _BLOCK steps.

    nodes are the visits at raw steps base + 1, ..., base + len(nodes);
    kept masks the visits that survive the sampling mode, and is None under
    EveryStep. Under Thinned the kept visits are those past the transient
    whose keep uniform, drawn from keep_rng, is below q. Thinning uniforms
    come from their own stream, so Thinned(q=1, transient=0) keeps exactly
    the EveryStep visits. The walk ends after max_steps steps, or with the
    block whose last node is the first visit of `stop` after the start.

    Each step reads the degree d from g.offsets and jumps with probability
    alpha/(d + alpha), the float that numpy's alpha/(degrees + alpha) gives.
    Uniforms are drawn as random(min(_DRAW, steps left)), so walks that
    share one move_rng draw the same sequence however early each of them
    stops, and are made Python floats a block at a time, so a walk that
    stops early converts at most one block it does not use.
    """
    cur = start
    steps = 0
    n = g.n
    alpha = float(alpha)  # a Python float: a zero denominator raises
    offsets, neighbors = memoryview(g.offsets), memoryview(g.neighbors)
    thinned = isinstance(mode, Thinned)
    kept = None
    while steps < max_steps:
        count = min(_DRAW, max_steps - steps)
        draw = move_rng.random(count)
        if thinned:
            skip = min(count, max(0, mode.transient - steps))
            keep = np.zeros(count, dtype=bool)
            keep[skip:] = keep_rng.random(count - skip) < mode.q
        for first in range(0, count, _BLOCK):
            nodes = []
            visit = nodes.append
            for r in draw[first:first + _BLOCK].tolist():
                lo = offsets[cur]
                d = offsets[cur + 1] - lo
                try:
                    pj = alpha / (d + alpha)
                except ZeroDivisionError:
                    raise WalkStuckError("stuck: zero degree, zero jump rate") from None
                # comparisons, not min(): the call took about 30% of a step
                if r < pj:
                    # reuse the branch uniform: r/pj is uniform given the jump
                    cur = int(r / pj * n)
                    if cur >= n:
                        cur = n - 1
                else:
                    j = int((r - pj) / (1.0 - pj) * d)
                    cur = neighbors[lo + (j if j < d else d - 1)]
                visit(cur)
                if cur == stop:
                    break
            if thinned:
                kept = keep[first:first + len(nodes)]
            yield nodes, kept, steps
            steps += len(nodes)
            if cur == stop:
                return


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
    if s0 == target:
        return 0
    for nodes, _, base in _walk(g, cfg.alpha, rng, None, s0, cfg.max_steps,
                                stop=target):
        if nodes[-1] == target:
            return base + len(nodes)
    return None


def _visits(g: Graph, cfg: WalkConfig,
            start: int | None = None) -> Iterator[Block]:
    """The _walk blocks of cfg: start, move and keep generators are spawned
    from cfg.seed, and start=None draws the initial node uniformly."""
    start_ss, move_ss, keep_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    if start is None:
        start = int(np.random.default_rng(start_ss).integers(g.n))
    if not 0 <= start < g.n:
        raise IndexError(f"start node {start} out of range [0, {g.n})")
    return _walk(g, cfg.alpha, np.random.default_rng(move_ss),
                 np.random.default_rng(keep_ss), start, cfg.max_steps, cfg.mode)


def sample_stream(g: Graph, cfg: WalkConfig, start: int | None = None) -> Iterator[Sample]:
    """Stream of Sample(node, raw step index) under cfg.mode.

    EveryStep emits each visited node; Thinned skips the transient and then
    keeps each visit independently with probability q. At most
    cfg.max_steps raw steps are walked either way.
    """
    for nodes, kept, base in _visits(g, cfg, start):
        if kept is None:
            for raw, node in enumerate(nodes, base + 1):
                yield Sample(node, raw)
        else:
            for i in np.flatnonzero(kept).tolist():
                yield Sample(nodes[i], base + i + 1)
