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
which cannot make a rule fire. Rules 0 and 2 read the factors
1 - exp(-hits) that the list caches beside its counters, one exp per hit;
in the same order, they give error_score's and coverage_score's bits.

The walk arrives in blocks of steps, each with a mask of the steps that
the sampling mode keeps. Once the list is full, a step whose
(-degree, node) key comes after the worst listed key can neither enter
the list nor hit a member, so each block is filtered with numpy and only
the steps left reach the list.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import insort
from dataclasses import dataclass

import numpy as np

from .graph import Graph, check_k
from .walk import WalkConfig, _visits, check_sampling


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

    __slots__ = ("k", "_keys", "_hits", "_factors")

    def __init__(self, k: int):
        self.k = check_k(k)
        self._keys: list[tuple[int, int]] = []  # members' (-degree, node), best first
        self._hits: dict[int, int] = {}  # members' counters, in order of entry
        self._factors: dict[int, float] = {}  # members' 1 - exp(-hits), likewise

    def __len__(self) -> int:
        return len(self._hits)

    def __contains__(self, node: int) -> bool:
        return node in self._hits

    @property
    def is_full(self) -> bool:
        return len(self._hits) >= self.k

    def observe(self, node: int, degree: int) -> None:
        """Membership-only update for a visit that was not sampled."""
        if node in self._hits:
            return
        if len(self._hits) >= self.k:
            if not (-degree, node) < self._keys[-1]:
                return
            worst = self._keys.pop()[1]
            del self._hits[worst], self._factors[worst]
        insort(self._keys, (-degree, node))
        self._hits[node] = 0
        self._factors[node] = 0.0

    def update(self, node: int, degree: int) -> "CandidateList":
        """Record one sample: observe the node, then bump its hit counter,
        and its factor with it, if it is listed."""
        hits = self._hits
        if node not in hits:
            self.observe(node, degree)
            if node not in hits:
                return self
        hits[node] += 1
        self._factors[node] = 1.0 - math.exp(-hits[node])
        return self

    def entries(self) -> list[tuple[int, int, int]]:
        """(node, degree, hits) rows ordered best to worst."""
        return [(v, -d, self._hits[v]) for d, v in self._keys]

    def members(self) -> set[int]:
        return set(self._hits)

    def member_hits(self) -> list[int]:
        return list(self._hits.values())

    def member_factors(self) -> list[float]:
        """1 - exp(-hits) of each member, in the order of member_hits."""
        return list(self._factors.values())

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
    return 2.0 * (1.0 - math.prod(1.0 - math.exp(-x) for x in hits))


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
    return 2.0 * (1.0 - math.prod(lst.member_factors())) <= a_bar


def check_rule_threshold(rule: str, threshold: float, k: int) -> None:
    """check_k(k), then ValueError unless `rule` is one of _RULES and the threshold
    suits it: m (fixed) must be an integer in [1, float max] (TypeError if it is no
    integer), a_bar (r0, r1) must lie in (0, 2), as the error scores lie in [0, 2],
    and b_bar (r2) must be finite and at most k, as coverage sums k terms of at most 1."""
    check_k(k)
    if rule not in _RULES:
        raise ValueError(f"rule must be one of {tuple(_RULES)}, got {rule!r}")
    if rule == "fixed":
        if operator.index(threshold) < 1:
            raise ValueError(f"m must be >= 1, got {threshold}")
        if threshold > sys.float_info.max:
            raise ValueError(f"m must be at most the largest float, got {threshold}")
    elif rule == "r2":
        if not math.isfinite(threshold):
            raise ValueError(f"b_bar must be finite, got {threshold}")
        if threshold > k:
            raise ValueError(f"b_bar must be at most k={k}, the most "
                             f"coverage can reach, got {threshold}")
    elif not 0.0 < threshold < 2.0:
        raise ValueError(f"a_bar must be in (0, 2), got {threshold}")


def rule1_threshold(k: int, a_bar: float) -> int:
    """Smallest natural x with (1 - exp(-x))^k >= 1 - a_bar/2."""
    check_rule_threshold("r1", a_bar, k)
    if k > sys.float_info.max:  # the power below takes k as a float
        raise ValueError(f"k must be at most the largest float for rule r1, got {k}")
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
    return sum(lst.member_factors()) >= b_bar


# rule name -> stopping predicate; the fixed budget of m samples has none
_RULES = {"fixed": None, "r0": stopping_rule_0, "r1": stopping_rule_1,
          "r2": stopping_rule_2}


def detect_with_rule(g: Graph, cfg: WalkConfig, k: int, rule: str,
                     threshold: float) -> StopDecision:
    """Walk until the stopping rule fires or cfg.max_steps raw steps elapse.

    rule is one of "fixed" (threshold is the sample budget m; the decision
    is labelled "fixed_m"), "r0", "r1" (threshold is a_bar for both; r1
    derives its hit floor x0 from it and records that) or "r2" (threshold
    is b_bar). A rule or threshold that `check_rule_threshold` rejects, or
    a mode that `check_sampling` rejects, raises before any walking. A run
    that exhausts max_steps is returned with fired=False.

    Every visit is observed and every sample counted. Rules r0-r2 are
    scored on the empty list first, so an already-satisfied threshold fires
    at zero cost, then after each sample of a node that is listed once the
    sample is counted. Any other sample finds a full list and changes
    nothing, so only unsampled visits can have changed the list since its
    last score. If one did, the newest member has no hits yet, and every
    rule is still False: rule 0 scores 2 > a_bar, rule 1 sees a minimum of
    0 hits, and rule 2's coverage can only have fallen, as entries start at
    0 hits and evictions drop counters.

    Each walk block is cut at the sample that exhausts the budget. Once the
    list is full, only the steps whose (-degree, node) key is at or before
    the worst listed key at the block's start reach the list: a higher
    degree, or the worst degree and a node id at most the worst node's.
    Every member's key is, and the worst key only improves, so a skipped
    step is a non-member that cannot enter: it would change nothing.
    """
    check_rule_threshold(rule, threshold, k)
    lst = CandidateList(check_k(k, g.n))
    fires, budget = _RULES[rule], None
    if rule == "fixed":
        rule, budget, threshold = "fixed_m", threshold, float(threshold)
    elif rule == "r1":
        threshold = float(rule1_threshold(k, threshold))
    check_sampling(cfg.mode, cfg.max_steps)
    if fires is not None and fires(lst, threshold):
        return StopDecision(rule, threshold, True, 0, 0, lst)
    degrees = g.degrees
    samples = 0
    for nodes, kept, base in _visits(g, cfg):
        # at[i]: samples up to and including step i of the block
        at = samples + np.cumsum(kept)
        end = len(nodes)
        if budget is not None and at[-1] >= budget:
            end = int(np.searchsorted(at, budget)) + 1
        degs = degrees[nodes[:end]]
        neg, worst = lst._keys[-1] if lst.is_full else (0, g.n)  # the worst key
        sel = np.flatnonzero(degs >= -neg)
        sel = sel[(degs[sel] > -neg) | (nodes[sel] <= worst)]
        for j, node, deg, keep in zip(sel.tolist(), nodes[sel].tolist(),
                                      degs[sel].tolist(), kept[sel].tolist()):
            if keep:
                lst.update(node, deg)
                if fires is not None and node in lst and fires(lst, threshold):
                    return StopDecision(rule, threshold, True, int(at[j]),
                                        base + j + 1, lst)
            else:
                lst.observe(node, deg)
        samples = int(at[end - 1])
        if samples == budget:
            return StopDecision(rule, threshold, True, samples, base + end, lst)
    return StopDecision(rule, threshold, False, samples, cfg.max_steps, lst)


def detect_fixed_m_decision(g: Graph, cfg: WalkConfig, k: int, m: int) -> StopDecision:
    """detect_fixed_m with cost accounting: detect_with_rule under rule
    "fixed"."""
    return detect_with_rule(g, cfg, k, "fixed", m)


def detect_fixed_m(g: Graph, cfg: WalkConfig, k: int, m: int) -> CandidateList:
    """Run the candidate-list walk for m samples and return the list."""
    return detect_fixed_m_decision(g, cfg, k, m).final_list
