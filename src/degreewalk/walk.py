"""Random walk with uniform jumps, plus near-i.i.d. sample streams.

One step from node i either jumps, with probability alpha/(d_i + alpha),
to a node chosen uniformly among all n (the current node included), or
moves to a uniform neighbor of i. This two-stage draw realizes exactly the
kernel p_ij = (alpha/n + [i~j]) / (d_i + alpha) without materializing any
matrix rows.

The scalar kernel, _walk, only moves, in blocks of up to _BLOCK steps that
each take one draw of move uniforms; a walk on its own generator visits
the same nodes at any block size. walk_until_hit uses it alone. A sample
stream (_visits) walks its first _SCALAR steps with _walk, then draws
superblocks of move uniforms and hands each to the segment kernel,
_segments: it cuts the superblock into segments of _SEG steps, starts each
one _WARM steps early from a guessed node, and steps all of them together
in numpy with _walk's float arithmetic. Two walks that read the same
uniforms meet once both jump at one step from nodes of one degree (a
coupling under common random numbers), so a segment whose guessed walk
stands on the exact node at its first step is exact from there on; a
segment that does not is walked again by _walk from the exact node. A
superblock in which too many segments fail sends the rest of the walk back
to _walk. _visits alone applies the sampling mode, as a keep mask per
block. A block's nodes are _walk's list of ints or _segments' int64 array,
so a stream that stops within its first _SCALAR steps converts none of
them; the detector makes each an array and filters it with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union

import numpy as np

from .graph import Graph

_BLOCK = 512  # steps per block handed out by _walk, one draw each
_SCALAR = 4096  # steps a sample stream walks with _walk before the segments
_SEG = 64  # steps per segment of a superblock
_WARM = 32  # steps a segment walks from its guessed node before it is checked
_SUPER = 16384  # steps per superblock
_MAX_FAILED = 0.5  # share of a superblock's segments that may fail


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


# (nodes, mask of the visits cfg.mode keeps, raw steps before the block);
# the nodes are a list of ints from _walk or an int64 array from _segments
Block = tuple[Union[list, np.ndarray], np.ndarray, int]


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
    _segments takes the same steps, many walks at a time, in numpy.
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


class _Drawn:
    """Stands in for a Generator: random(count) hands out u in order."""

    def __init__(self, u: np.ndarray):
        self.u, self.at = u, 0

    def random(self, count: int) -> np.ndarray:
        self.at += count
        return self.u[self.at - count:self.at]


def _step(cur: np.ndarray, r: np.ndarray, offsets: np.ndarray,
          neighbors: np.ndarray, alpha: float, n: int) -> np.ndarray:
    """One step of every walk in cur with uniforms r: the arithmetic of
    _walk's loop, which it must match bit for bit. Both branches are
    evaluated for every walk; the caller silences the nan and inf of the
    branch a walk does not take, and take(mode="clip") keeps its index in
    range."""
    lo = offsets[cur]
    d = offsets[cur + 1] - lo
    pj = alpha / (d + alpha)
    j = ((r - pj) / (1.0 - pj) * d).astype(np.int64)
    nbr = neighbors.take(lo + np.minimum(j, d - 1), mode="clip")
    return np.where(r < pj, (r / pj * n).astype(np.int64), nbr)


def _segments(g: Graph, alpha: float, start: int,
              u: np.ndarray) -> tuple[np.ndarray, bool]:
    """The nodes that _walk visits from `start` on the move uniforms u, as
    an int64 array, and whether the walk should go back to _walk.

    Segment i covers the steps i*_SEG, ..., (i+1)*_SEG - 1 of u. Segment 0
    starts at `start`; segment i > 0 starts _WARM steps early at `start`
    as a guess, and all segments step together through _step. Segment i is
    accepted when its guessed walk stands, before its first step, on the
    node where segment i-1 ends; that node is exact, so the whole segment
    is. A failed segment is walked again by _walk from that node. Once more
    than _MAX_FAILED of the segments failed, _walk walks the rest of u and
    the second value is True. Each array has one entry per segment or per
    step, none of size n. The tail of the last segment, past len(u), reads
    padded uniforms of 0.5 and is dropped.
    """
    alpha, count = float(alpha), -(-len(u) // _SEG)
    padded = np.full(count * _SEG, 0.5)
    padded[:len(u)] = u
    cols = padded.reshape(count, _SEG).T.copy()  # cols[t, i]: step t of segment i
    nodes = np.empty((count, _SEG), dtype=np.int64)
    cur = np.full(count, start, dtype=np.int64)
    neighbors = g.neighbors if len(g.neighbors) else np.zeros(1, np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(_SEG - _WARM, _SEG):
            cur[1:] = _step(cur[1:], cols[t, :-1], g.offsets, neighbors, alpha, g.n)
        guess = cur.tolist()
        for t in range(_SEG):
            cur = _step(cur, cols[t], g.offsets, neighbors, alpha, g.n)
            nodes[:, t] = cur
    flat, ends = nodes.reshape(-1), nodes[:, -1].tolist()
    failed = 0
    for i in range(1, count):
        if guess[i] == ends[i - 1]:
            continue
        failed += 1
        rest = failed > _MAX_FAILED * count
        steps = _walk(g, alpha, _Drawn(padded[i * _SEG:]), ends[i - 1],
                      (count - i if rest else 1) * _SEG)
        walked = [v for block, _ in steps for v in block]
        flat[i * _SEG:i * _SEG + len(walked)] = walked
        if rest:
            return flat[:len(u)], True
        ends[i] = walked[-1]
    return flat[:len(u)], False


def _moves(g: Graph, alpha: float, rng: np.random.Generator, start: int,
           max_steps: int) -> Iterator[tuple[Union[list, np.ndarray], int]]:
    """The walk as blocks (nodes, base), as _walk gives it: _walk's lists
    for the first _SCALAR steps, then int64 arrays of superblocks through
    _segments, back to _walk's lists for good after a superblock with too
    many failed segments. Both draw the same uniforms from rng, as float64
    random() output does not depend on how it is chunked."""
    for nodes, base in _walk(g, alpha, rng, start, min(max_steps, _SCALAR)):
        yield nodes, base
    steps, cur = base + len(nodes), nodes[-1]
    while steps < max_steps:
        nodes, slow = _segments(g, alpha, cur, rng.random(min(_SUPER, max_steps - steps)))
        yield nodes, steps
        steps += len(nodes)
        cur = int(nodes[-1])
        if slow:
            for block, base in _walk(g, alpha, rng, cur, max_steps - steps):
                yield block, steps + base
            return


def _visits(g: Graph, cfg: WalkConfig,
            start: int | None = None) -> Iterator[Block]:
    """The _moves blocks of cfg, each with the mask of the visits cfg.mode
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
    for nodes, base in _moves(g, cfg.alpha, np.random.default_rng(move_ss),
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
        if isinstance(nodes, np.ndarray):
            nodes = nodes.tolist()
        for i in np.flatnonzero(kept).tolist():
            yield Sample(nodes[i], base + i + 1)
