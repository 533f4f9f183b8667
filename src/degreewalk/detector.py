"""Top-k candidate list and hit-count stopping rules.

The detector walks the graph, keeps the k best-degree distinct nodes
visited so far, and counts how often each listed node occurs in the
(possibly thinned) sample stream. Every visit may update membership; a
node's hit counter counts samples from its entry into the list and is
dropped on eviction, so memory is O(k). The three stopping rules turn the
counters into data-driven termination: rule 0 thresholds an estimated
probability that the list still misses a true top-k node, rule 1
simplifies that to a hit floor for the weakest counter, and rule 2
thresholds an estimated number of correct entries. A rule is scored
only after a sample of a listed node: at any other sample the list is as
it was at the last score, or changed since by unsampled visits only,
which cannot make a rule fire.

The walk arrives in blocks of steps, each with a mask of the steps that
the sampling mode keeps. Once the list is full, a step whose degree is
below the worst listed degree can neither enter the list nor hit a
member, so each block is filtered with numpy and only the steps left
reach the list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .walk import Mode, Thinned, WalkConfig, _visits


class CandidateList:
    """Running top-k buffer with per-member sample-hit counters.

    Membership is the k best seen-so-far nodes under the
    (-degree, node id) order, so on a tie with the current worst entry the
    incumbent survives unless the newcomer has the lower id. A counter
    starts at 0 when its node enters and is dropped on eviction, and
    non-members report 0 hits. No sample is lost: before the list is full
    every visited node enters it, and once it is full its worst key only
    improves, so a node that was rejected or evicted never re-enters.
    """

    __slots__ = ("k", "_deg", "_hits", "_worst_key")

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._deg: dict[int, int] = {}
        self._hits: dict[int, int] = {}  # same keys, in the same order
        self._worst_key: tuple[int, int] | None = None

    def __len__(self) -> int:
        return len(self._deg)

    def __contains__(self, node: int) -> bool:
        return node in self._deg

    @property
    def is_full(self) -> bool:
        return len(self._deg) >= self.k

    def observe(self, node: int, degree: int) -> None:
        """Membership-only update for a visit that was not sampled."""
        if node in self._deg:
            return
        if len(self._deg) >= self.k:
            if not (-degree, node) < self._worst_key:
                return
            worst = self._worst_key[1]
            del self._deg[worst]
            del self._hits[worst]
        self._deg[node] = degree
        self._hits[node] = 0
        self._worst_key = max((-d, v) for v, d in self._deg.items())

    def update(self, node: int, degree: int) -> "CandidateList":
        """Record one sample: observe the node, then bump its hit counter
        if it is listed."""
        hits = self._hits
        if node not in hits:
            self.observe(node, degree)
            if node not in hits:
                return self
        hits[node] += 1
        return self

    def entries(self) -> list[tuple[int, int, int]]:
        """(node, degree, hits) rows ordered best to worst."""
        ordered = sorted(self._deg.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(v, d, self._hits[v]) for v, d in ordered]

    def members(self) -> set[int]:
        return set(self._deg)

    def member_hits(self) -> list[int]:
        return list(self._hits.values())

    def hits_of(self, node: int) -> int:
        return self._hits.get(node, 0)


@dataclass(frozen=True)
class StopDecision:
    rule: str
    threshold: float
    fired: bool
    fired_at_samples: int
    raw_steps: int
    final_list: CandidateList


def error_score(hits) -> float:
    """Estimated probability bound that the list misses a true top-k node:
    2 * (1 - prod_i (1 - exp(-hits_i)))."""
    prod = 1.0
    for x in hits:
        prod *= 1.0 - math.exp(-x)
    return 2.0 * (1.0 - prod)


def min_hit_error_score(hits) -> float:
    """Coarser bound using only the weakest counter:
    2 * (1 - (1 - exp(-min hits))^k); always >= error_score(hits)."""
    hits = list(hits)
    return 2.0 * (1.0 - (1.0 - math.exp(-min(hits))) ** len(hits))


def coverage_score(hits) -> float:
    """Estimated number of correct entries: sum_i (1 - exp(-hits_i));
    zero-hit entries contribute 0."""
    return sum(1.0 - math.exp(-x) for x in hits)


def stopping_rule_0(lst: CandidateList, a_bar: float) -> bool:
    """Fire when the full-product error estimate drops to a_bar."""
    if not lst.is_full:
        return False
    return error_score(lst.member_hits()) <= a_bar


def check_rule_threshold(rule: str, threshold: float, k: int) -> None:
    """ValueError naming the threshold unless it suits `rule`: a_bar (r0,
    r1) must lie in (0, 2), as the error scores lie in [0, 2], and b_bar
    (r2) must be finite and at most k, as coverage sums k terms of at
    most 1."""
    if rule == "r2":
        if not math.isfinite(threshold):
            raise ValueError(f"b_bar must be finite, got {threshold}")
        if threshold > k:
            raise ValueError(f"b_bar must be at most k={k}, the most "
                             f"coverage can reach, got {threshold}")
    elif not 0.0 < threshold < 2.0:
        raise ValueError(f"a_bar must be in (0, 2), got {threshold}")


def check_sampling(mode: Mode, max_steps: int) -> None:
    """ValueError naming the transient when a Thinned mode skips every one
    of the max_steps raw steps, so that no sample can arrive."""
    if isinstance(mode, Thinned) and mode.transient >= max_steps:
        raise ValueError(f"transient must be below max_steps={max_steps}, "
                         f"or no step is sampled, got {mode.transient}")


def rule1_threshold(k: int, a_bar: float) -> int:
    """Smallest natural x with (1 - exp(-x))^k >= 1 - a_bar/2."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    check_rule_threshold("r1", a_bar, k)
    goal = 1.0 - a_bar / 2.0
    x = 1
    while (1.0 - math.exp(-x)) ** k < goal:
        x += 1
    return x


def stopping_rule_1(lst: CandidateList, x0: int) -> bool:
    """Fire when every current entry has at least x0 hits."""
    if not lst.is_full:
        return False
    return min(lst.member_hits()) >= x0


def stopping_rule_2(lst: CandidateList, b_bar: float) -> bool:
    """Fire when the coverage score reaches b_bar (no fullness required)."""
    return coverage_score(lst.member_hits()) >= b_bar


_RULES = {"r0": stopping_rule_0, "r1": stopping_rule_1, "r2": stopping_rule_2}


def _run_list(g: Graph, cfg: WalkConfig, k: int, rule: str, threshold: float,
              stop_sample, stop_rule) -> StopDecision:
    """Shared detection loop: observe every visit, count sampled hits.

    stop_sample limits the sample budget; stop_rule(lst) is the firing
    predicate (None for fixed-budget runs). It is scored on the empty list
    first, then after each sample of a node that is listed once the sample
    is counted. Any other sample finds a full list and changes nothing, so
    only unsampled visits can have changed the list since its last score.
    If one did, the newest member has no hits yet, and every rule is still
    False: rule 0 scores 2 > a_bar, rule 1 sees a minimum of 0 hits, and
    rule 2's coverage can only have fallen, as entries start at 0 hits and
    evictions drop counters.

    Each walk block is cut at the sample that exhausts the budget. Once the
    list is full, only the steps whose degree is at least the worst listed
    degree at the block's start reach the list. Every member has at least
    that degree, and the worst key only improves, so a skipped step is a
    non-member that cannot enter: it would change nothing.
    """
    if k > g.n:
        raise ValueError(f"k={k} exceeds node count n={g.n}")
    check_sampling(cfg.mode, cfg.max_steps)
    lst = CandidateList(k)
    if stop_rule is not None and stop_rule(lst):
        return StopDecision(rule, threshold, True, 0, 0, lst)
    degrees = g.degrees
    samples = 0
    for nodes, kept, base in _visits(g, cfg):
        nodes = np.asarray(nodes)
        # at[i]: samples up to and including step i of the block
        at = samples + np.cumsum(kept)
        end = len(nodes)
        if stop_sample is not None and at[-1] >= stop_sample:
            end = int(np.searchsorted(at, stop_sample)) + 1
        degs = degrees[nodes[:end]]
        floor = -lst._worst_key[0] if lst.is_full else 0
        sel = np.flatnonzero(degs >= floor)
        for j, node, deg, keep in zip(sel.tolist(), nodes[sel].tolist(),
                                      degs[sel].tolist(), kept[sel].tolist()):
            if keep:
                lst.update(node, deg)
                if stop_rule is not None and node in lst and stop_rule(lst):
                    return StopDecision(rule, threshold, True, int(at[j]),
                                        base + j + 1, lst)
            else:
                lst.observe(node, deg)
        samples = int(at[end - 1])
        if samples == stop_sample:
            return StopDecision(rule, threshold, True, samples, base + end, lst)
    return StopDecision(rule, threshold, False, samples, cfg.max_steps, lst)


def detect_fixed_m_decision(g: Graph, cfg: WalkConfig, k: int, m: int) -> StopDecision:
    """detect_fixed_m with cost accounting; fired=False when the walk's
    raw-step cap ran out before m samples arrived. A mode that
    `check_sampling` rejects raises ValueError before any walking."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return _run_list(g, cfg, k, "fixed_m", float(m), stop_sample=m, stop_rule=None)


def detect_fixed_m(g: Graph, cfg: WalkConfig, k: int, m: int) -> CandidateList:
    """Run the candidate-list walk for m samples and return the list."""
    return detect_fixed_m_decision(g, cfg, k, m).final_list


def detect_with_rule(g: Graph, cfg: WalkConfig, k: int, rule: str,
                     threshold: float) -> StopDecision:
    """Walk until the stopping rule fires or cfg.max_steps raw steps elapse.

    rule is one of "r0", "r1" (threshold is a_bar for both; r1 derives its
    hit floor x0 from it and records that) or "r2" (threshold is b_bar).
    The rule is evaluated on the empty list first, so an already-satisfied
    threshold fires at zero cost, and then after every sample of a listed
    node. A run that exhausts max_steps is returned with fired=False. A
    threshold that `check_rule_threshold` rejects, or a mode that
    `check_sampling` rejects, raises ValueError before any walking.
    """
    if rule not in _RULES:
        raise ValueError(f"rule must be one of {tuple(_RULES)}, got {rule!r}")
    check_rule_threshold(rule, threshold, k)
    recorded = float(rule1_threshold(k, threshold)) if rule == "r1" else threshold
    rule_fn = _RULES[rule]
    return _run_list(g, cfg, k, rule, recorded, stop_sample=None,
                     stop_rule=lambda lst: rule_fn(lst, recorded))
