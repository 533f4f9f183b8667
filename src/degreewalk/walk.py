"""Random walk with uniform jumps, plus near-i.i.d. sample streams.

One step from node i either jumps, with probability alpha/(d_i + alpha),
to a node chosen uniformly among all n (the current node included), or
moves to a uniform neighbor of i. This two-stage draw realizes exactly the
kernel p_ij = (alpha/n + [i~j]) / (d_i + alpha) without materializing any
matrix rows.

Neither kernel draws its own uniforms. The scalar kernel, _walk, only
moves, one block per array of move uniforms it is handed; _draws is the
one place that draws them for it, as blocks of up to _BLOCK, each only
when _walk asks, and a walk visits the same nodes at any block size.
walk_until_hit uses _walk alone. A sample stream (_moves) walks its first
_SCALAR = 1024 steps with _walk, then hands superblocks of 16384 and then
32768 move uniforms to the segment kernel, _segments: it cuts each into
512 segments, starts each one _WARM steps early from a guessed node, and
steps all of them together in numpy with _walk's float arithmetic, its
pj and 1 - pj read from per-degree tables (_jumps) built once per stream.
Two walks that read the same uniforms meet once both jump at one step
from nodes of one degree (a coupling under common random numbers), so a
segment whose guessed walk stands on the exact node at its first step is
exact from there on; a segment that does not is walked again by _walk,
on its own uniforms, from the exact node. _moves alone hands the rest of
the walk to _walk after a superblock in which too many segments failed,
and all of it at alpha = 0, where no jump couples segments, or where
_step's int64 casts could overflow; so _step computes only finite values.
A stream stopped soon after the scalar phase pays for a whole superblock
and is slower than on _walk alone (see README.md). _moves hands out int64
blocks, and _visits alone applies the sampling mode, as a mask per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Union

import numpy as np

from .graph import Graph

_BLOCK = 512  # uniforms per block that _draws hands to _walk, one draw each
_SCALAR = 1024  # steps a sample stream walks with _walk before the segments
_SUPER = 16384  # steps in a stream's first superblock; later ones have twice as many
_SEGMENTS = 512  # segments per full superblock, stepped together
_WARM = 32  # steps a segment walks from its guessed node before it is checked
_MAX_FAILED = 0.5  # share of a superblock's segments that may fail


class WalkStuckError(RuntimeError):
    """Walk cannot leave a zero-degree node when the jump rate is zero."""


def check_alpha(alpha: float) -> None:
    """Reject a negative, NaN or infinite jump rate."""
    if not 0.0 <= alpha < np.inf:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")


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


def check_sampling(mode: Mode, max_steps: int) -> None:
    """ValueError naming the transient when a Thinned mode skips every one
    of the max_steps raw steps, so that no sample can arrive."""
    if isinstance(mode, Thinned) and mode.transient >= max_steps:
        raise ValueError(f"transient must be below max_steps={max_steps}, "
                         f"or no step is sampled, got {mode.transient}")


@dataclass(frozen=True)
class WalkConfig:
    alpha: float
    seed: int | tuple = 0
    max_steps: int = 1_000_000
    mode: Mode = EveryStep()

    def __post_init__(self):
        check_alpha(self.alpha)
        if not isinstance(self.max_steps, (int, np.integer)) or self.max_steps < 1:
            raise ValueError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")


class Sample(NamedTuple):
    node: int
    step_index: int  # raw walk step at which the node was visited


# (int64 nodes, mask of the visits cfg.mode keeps, raw steps before the block)
Block = tuple[np.ndarray, np.ndarray, int]


def _draws(rng: np.random.Generator, steps: int) -> Iterator[np.ndarray]:
    """Move uniforms for `steps` steps, as rng.random(min(_BLOCK, steps
    left)) blocks, each drawn only when the walk asks for it."""
    while steps > 0:
        u = rng.random(min(_BLOCK, steps))
        steps -= len(u)
        yield u


def _walk(g: Graph, alpha: float, draws: Iterable[np.ndarray], start: int,
          stop: int = -1) -> Iterator[tuple[list[int], int]]:
    """The walk as blocks (nodes, base), one per array of move uniforms in
    draws.

    nodes are the visits at raw steps base + 1, ..., base + len(nodes). The
    walk ends with the last array, or with the block whose last node is the
    first visit of `stop` after the start.

    Each step reads the degree d from g.offsets and jumps with probability
    alpha/(d + alpha), the float that numpy's alpha/(degrees + alpha) gives.
    The caller draws the uniforms: _draws for a walk on its own generator,
    so a walk that stops early leaves at most one block of draws unused,
    or _segments for one segment. With alpha == 0 the walk only follows
    edges and so can stand on a zero-degree node only at the start;
    WalkStuckError is raised there, before the first array is asked for.
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
    for u in draws:
        nodes = []
        visit = nodes.append
        for r in u.tolist():
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
    target = g.check_node(target, "target")
    rng = np.random.default_rng(cfg.seed)
    s0 = int(rng.integers(g.n)) if start is None else g.check_node(start, "start node")
    if s0 == target:
        return 0
    for nodes, base in _walk(g, cfg.alpha, _draws(rng, cfg.max_steps), s0, stop=target):
        if nodes[-1] == target:
            return base + len(nodes)
    return None


def _jumps(g: Graph, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """pj = alpha/(d + alpha), _walk's float, and 1 - pj or 1 if pj = 1, for d = 0..g.d_max."""
    alpha = float(alpha)  # as _walk takes it: an int alpha may not fit int64
    pj = alpha / (np.arange(g.d_max + 1) + alpha)
    return pj, np.where(pj < 1.0, 1.0 - pj, 1.0)


def _step(cur: np.ndarray, r: np.ndarray, g: Graph, neighbors: np.ndarray,
          jumps: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """One step of every walk in cur with uniforms r: the arithmetic of
    _walk's loop, bit for bit, on d from g.degrees and the _jumps tables.
    Both branches are evaluated for every walk; the rule in _moves keeps
    both finite and in int64 range, and take(mode="clip") the index."""
    d, lo = g.degrees.take(cur), g.offsets.take(cur)
    pj, qj = jumps[0].take(d), jumps[1].take(d)
    j = ((r - pj) / qj * d).astype(np.int64)
    nbr = neighbors.take(lo + np.minimum(j, d - 1), mode="clip")
    return np.where(r < pj, (r / pj * g.n).astype(np.int64), nbr)


def _segments(g: Graph, alpha: float, start: int, u: np.ndarray,
              jumps: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, bool]:
    """The nodes that _walk visits from `start` on the move uniforms u, as
    an int64 array, and whether more than _MAX_FAILED of the segments
    failed. The caller draws u and jumps, the latter only where the rule in
    _moves lets segments run, and on True decides where the walk goes.

    u is cut into at most _SEGMENTS segments of seg >= _WARM steps (32 of
    16384, 64 of 32768). Segment 0 starts at `start`; segment i > 0 starts
    _WARM steps early at `start` as a guess, and all segments step together
    through _step, in _WARM + seg numpy columns. Segment i is accepted when
    its guessed walk stands, before its first step, on the node where
    segment i-1 ends; that node is exact, so the whole segment is. A failed
    segment is walked again by _walk, on its own uniforms, from that node.
    No array has size n. The tail of the last segment, past len(u), reads
    padded uniforms of 0.5 and is dropped.
    """
    seg = max(_WARM, -(-len(u) // _SEGMENTS))
    count = -(-len(u) // seg)
    pad = -len(u) % seg  # uniforms of 0.5 that fill the last segment
    # rows[i]: the uniforms of segment i, a view of u when none are padded
    rows = (np.concatenate((u, np.full(pad, 0.5))) if pad else u).reshape(count, seg)
    cols = rows.T.copy()  # cols[t, i]: step t of segment i
    nodes = np.empty((count, seg), dtype=np.int64)
    cur = np.full(count, start, dtype=np.int64)
    neighbors = g.neighbors if len(g.neighbors) else np.zeros(1, np.int64)
    for t in range(seg - _WARM, seg):
        cur[1:] = _step(cur[1:], cols[t, :-1], g, neighbors, jumps)
    guess = cur.tolist()
    for t in range(seg):
        cur = _step(cur, cols[t], g, neighbors, jumps)
        nodes[:, t] = cur
    ends = nodes[:, -1].tolist()
    failed = 0
    for i in range(1, count):
        if guess[i] != ends[i - 1]:
            failed += 1
            nodes[i] = next(_walk(g, alpha, [rows[i]], ends[i - 1]))[0]
            ends[i] = int(nodes[i, -1])
    return nodes.reshape(-1)[:len(u)], failed > _MAX_FAILED * count


def _moves(g: Graph, alpha: float, rng: np.random.Generator, start: int,
           max_steps: int) -> Iterator[tuple[np.ndarray, int]]:
    """The walk as int64 blocks (nodes, base), as _walk gives it: _walk's
    blocks for the first _SCALAR steps, then superblocks through _segments,
    _SUPER steps and then 2 * _SUPER (the _jumps tables are built before
    the first), and _walk's blocks again once a superblock has too many
    failed segments, or at once where the rule below bars segments; _moves
    alone makes that switch, and turns _walk's lists into arrays. All of
    them read rng: _walk through _draws, _segments one superblock at a
    time, and float64 random() output does not depend on how it is chunked."""
    for nodes, base in _walk(g, alpha, _draws(rng, min(max_steps, _SCALAR)), start):
        yield np.array(nodes, dtype=np.int64), base
    steps, cur, size = base + len(nodes), nodes[-1], _SUPER
    # the rule: _step's casts fit int64 (r / pj * n < 2**62, move index >= -alpha * d_max)
    slow = not (g.n * (g.d_max + alpha) < alpha * 2.0**62 and alpha * g.d_max <= 2.0**62)
    jumps = None if slow or steps == max_steps else _jumps(g, alpha)
    while steps < max_steps and not slow:
        nodes, slow = _segments(g, alpha, cur, rng.random(min(size, max_steps - steps)), jumps)
        yield nodes, steps
        steps, cur, size = steps + len(nodes), int(nodes[-1]), 2 * _SUPER
    for nodes, base in _walk(g, alpha, _draws(rng, max_steps - steps), cur):
        yield np.array(nodes, dtype=np.int64), steps + base


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
    start = g.check_node(start, "start node")
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
        at = np.flatnonzero(kept)
        yield from map(Sample, nodes[at].tolist(), (at + base + 1).tolist())
