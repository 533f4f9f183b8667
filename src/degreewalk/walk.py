"""Random walk with uniform jumps, plus near-i.i.d. sample streams.

One step from node i either jumps, with probability alpha/(d_i + alpha),
to a node chosen uniformly among all n (the current node included), or
moves to a uniform neighbor of i. This two-stage draw realizes exactly the
kernel p_ij = (alpha/n + [i~j]) / (d_i + alpha) without materializing any
matrix rows.

The kernel, _walk, only moves, in blocks of up to _BLOCK steps that each
take one draw of move uniforms; a walk on its own generator visits the
same nodes at any block size. _visits alone applies the sampling mode, as
a keep mask per block. The detector filters a block with numpy, and
sample_stream flattens it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union

import numpy as np

from .graph import Graph

_BLOCK = 512  # steps per block handed out by _walk, one draw each


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
        if not isinstance(self.transient, (int, np.integer)) or self.transient < 0:
            raise ValueError(f"transient must be an integer >= 0, got {self.transient!r}")
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
        if not 0.0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not isinstance(self.max_steps, (int, np.integer)) or self.max_steps < 1:
            raise ValueError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")


class Sample(NamedTuple):
    node: int
    step_index: int  # raw walk step at which the node was visited


# (nodes, mask of the visits cfg.mode keeps, raw steps before the block)
Block = tuple[list[int], np.ndarray, int]


def _walk(g: Graph, alpha: float, rng: np.random.Generator, start: int,
          max_steps: int, stop: int = -1) -> Iterator[tuple[list[int], int]]:
    """The walk as blocks (nodes, base) of at most _BLOCK steps.

    nodes are the visits at raw steps base + 1, ..., base + len(nodes). The
    walk ends after max_steps steps, or with the block whose last node is
    the first visit of `stop` after the start.

    Each step reads the degree d from g.offsets and jumps with probability
    alpha/(d + alpha), the float that numpy's alpha/(degrees + alpha) gives.
    Each block draws its uniforms as rng.random(min(_BLOCK, steps left)) and
    makes them Python floats in one call, so a walk that stops early leaves
    at most one block of draws unused. With alpha == 0 the walk only
    follows edges and so can stand on a zero-degree node only at the start;
    WalkStuckError is raised there, before the first draw.
    As r < pj, a jump r/pj * n stays below n < 2**53; j can round up to d.
    """
    cur = start
    steps = 0
    n = g.n
    alpha = float(alpha)
    offsets, neighbors = memoryview(g.offsets), memoryview(g.neighbors)
    if alpha == 0.0 and offsets[start + 1] == offsets[start]:
        raise WalkStuckError("stuck: zero degree, zero jump rate")
    while steps < max_steps:
        nodes = []
        visit = nodes.append
        for r in rng.random(min(_BLOCK, max_steps - steps)).tolist():
            lo = offsets[cur]
            d = offsets[cur + 1] - lo
            pj = alpha / (d + alpha)
            # comparisons, not min(): the call took about 30% of a step
            if r < pj:
                # reuse the branch uniform: r/pj is uniform given the jump
                cur = int(r / pj * n)
            else:
                j = int((r - pj) / (1.0 - pj) * d)
                cur = neighbors[lo + (j if j < d else d - 1)]
            visit(cur)
            if cur == stop:
                break
        yield nodes, steps
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
    for nodes, base in _walk(g, cfg.alpha, rng, s0, cfg.max_steps, stop=target):
        if nodes[-1] == target:
            return base + len(nodes)
    return None


def _visits(g: Graph, cfg: WalkConfig,
            start: int | None = None) -> Iterator[Block]:
    """The _walk blocks of cfg, each with the mask of the visits cfg.mode
    keeps. Start, move and keep generators are spawned from cfg.seed, and
    start=None draws the initial node uniformly. Thinned draws one keep
    uniform per step past the transient, so Thinned(transient=0, q=1) keeps
    every visit, as EveryStep does."""
    start_ss, move_ss, keep_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    if start is None:
        start = int(np.random.default_rng(start_ss).integers(g.n))
    if not 0 <= start < g.n:
        raise IndexError(f"start node {start} out of range [0, {g.n})")
    mode = cfg.mode
    keep_rng = np.random.default_rng(keep_ss)
    for nodes, base in _walk(g, cfg.alpha, np.random.default_rng(move_ss),
                             start, cfg.max_steps):
        kept = np.ones(len(nodes), dtype=bool)
        if isinstance(mode, Thinned):
            skip = min(len(nodes), max(0, mode.transient - base))
            kept[:skip] = False
            kept[skip:] = keep_rng.random(len(nodes) - skip) < mode.q
        yield nodes, kept, base


def sample_stream(g: Graph, cfg: WalkConfig, start: int | None = None) -> Iterator[Sample]:
    """Stream of Sample(node, raw step index) under cfg.mode.

    EveryStep emits each visited node; Thinned skips the transient and then
    keeps each visit independently with probability q. At most
    cfg.max_steps raw steps are walked either way.
    """
    for nodes, kept, base in _visits(g, cfg, start):
        for i in np.flatnonzero(kept).tolist():
            yield Sample(nodes[i], base + i + 1)
