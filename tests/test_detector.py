import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import degreewalk as dw
from degreewalk import detector as detector_mod
from degreewalk.detector import (CandidateList, coverage_score,
                                 detect_fixed_m, detect_fixed_m_decision,
                                 detect_with_rule, error_score,
                                 min_hit_error_score, rule1_threshold,
                                 stopping_rule_0, stopping_rule_1,
                                 stopping_rule_2)
from degreewalk.analytics import hitting_time_exact
from degreewalk.walk import (EveryStep, Thinned, WalkConfig, _visits, sample_stream,
                             walk_until_hit)

from helpers import random_connected_graph, reference_decision

# a test_matches_reference_loop case in which an unsampled visit changes the
# full list and the next sample is of a non-member, before rule 1 fires
UNSAMPLED_CHANGE = dict(graph_seed=1, n=10, walk_seed=1, rule="r1", k_choice=3,
                        thinned=True, transient=5, max_steps=800, level=0.5)


def replay_scores(g, cfg, k, rule, threshold):
    """Replay detect_with_rule from outside: every visit goes to a
    CandidateList, and the rule is scored on the empty list and after each
    sample whose node is listed once counted. Returns the entries at each
    score and the number of samples of a non-member that came first after
    an unsampled visit changed the list."""
    rule_fn = detector_mod._RULES[rule]
    x = rule1_threshold(k, threshold) if rule == "r1" else threshold
    lst = CandidateList(k)
    scores, events, changed = [lst.entries()], 0, False
    if rule_fn(lst, x):
        return scores, events
    for nodes, kept, _ in _visits(g, cfg):
        for node, keep in zip(nodes, kept.tolist()):
            deg = int(g.degrees[node])
            if not keep:
                before = lst.entries()
                lst.observe(node, deg)
                changed = changed or lst.entries() != before
                continue
            lst.update(node, deg)
            if node in lst:
                changed = False
                scores.append(lst.entries())
                if rule_fn(lst, x):
                    return scores, events
            elif changed:
                events, changed = events + 1, False
    return scores, events


def list_with(entries, hits=None):
    """Build a CandidateList holding `entries` = [(node, degree), ...]."""
    lst = CandidateList(len(entries))
    for node, deg in entries:
        lst.observe(node, deg)
    if hits:
        for node, n_hits in hits.items():
            for _ in range(n_hits):
                deg = dict(entries).get(node, 0)
                lst.update(node, deg)
    return lst


class TestCandidateList:
    def test_insert_evicts_worst(self):
        lst = CandidateList(2)
        lst.update(10, 7)
        lst.update(11, 5)
        lst.update(12, 6)  # beats degree 5
        assert lst.members() == {10, 12}

    def test_repeat_sample_increments_hits(self):
        lst = CandidateList(2)
        lst.update(10, 7)
        lst.update(12, 6)
        lst.update(12, 6)
        assert lst.hits_of(12) == 2
        assert lst.members() == {10, 12}

    def test_tie_with_worst_incumbent_wins_on_higher_id(self):
        lst = CandidateList(2)
        lst.update(10, 7)
        lst.update(12, 6)
        lst.update(13, 6)  # same degree as worst, higher id: rejected
        assert lst.members() == {10, 12}

    def test_tie_with_worst_lower_id_replaces(self):
        lst = CandidateList(2)
        lst.update(10, 7)
        lst.update(12, 6)
        lst.update(5, 6)  # same degree, lower id: takes the slot
        assert lst.members() == {10, 5}

    def test_observe_inserts_with_zero_hits(self):
        lst = CandidateList(2)
        lst.observe(3, 9)
        assert lst.members() == {3}
        assert lst.entries() == [(3, 9, 0)]

    def test_entries_ordered_best_first(self):
        lst = list_with([(4, 2), (1, 9), (7, 5)])
        assert [e[:2] for e in lst.entries()] == [(1, 9), (7, 5), (4, 2)]

    def test_hits_survive_while_listed(self):
        lst = CandidateList(1)
        for _ in range(5):
            lst.update(2, 3)
        assert lst.hits_of(2) == 5
        lst.update(9, 8)  # evicts node 2
        assert lst.members() == {9}

    def test_hits_map_stays_bounded(self):
        lst = CandidateList(3)
        for i in range(300):
            node = i * 37 % 101
            if i % 3:
                lst.update(node, node % 7)
            else:
                lst.observe(node, node % 7)
            assert set(lst._hits) == lst.members()
            assert list(lst._factors) == list(lst._hits)

    def test_evicted_node_reports_zero_hits(self):
        lst = CandidateList(1)
        for _ in range(3):
            lst.update(2, 3)
        lst.update(9, 8)  # evicts node 2
        assert lst.hits_of(2) == 0
        assert lst.entries() == [(9, 8, 1)]

    def test_rejected_node_never_reenters(self):
        lst = CandidateList(2)
        lst.update(10, 7)
        lst.update(12, 6)
        lst.update(13, 6)  # rejected: ties the worst entry, higher id
        for node, deg in [(14, 9), (15, 8), (13, 6), (16, 2), (13, 6)]:
            lst.update(node, deg)
            assert 13 not in lst and lst.hits_of(13) == 0
        assert lst.entries() == [(14, 9, 1), (15, 8, 1)]

    def test_bad_k(self):
        with pytest.raises(ValueError):
            CandidateList(0)
        with pytest.raises(TypeError):
            CandidateList(2.5)


class TestScores:
    def test_error_score_zero_hits(self):
        assert error_score([0] * 10) == 2.0
        lst = list_with([(i, 5) for i in range(10)])
        for a_bar in (0.1, 0.5, 1.0, 1.99):
            assert not stopping_rule_0(lst, a_bar)

    def test_error_score_frozen_values(self):
        assert error_score([5] * 10) == pytest.approx(0.1307455041, abs=1e-9)
        lst = list_with([(i, 5) for i in range(10)],
                        hits={i: 5 for i in range(10)})
        assert stopping_rule_0(lst, 0.15)
        assert not stopping_rule_0(lst, 0.13)

    def test_error_score_single_entry(self):
        assert error_score([3]) == pytest.approx(0.0995741367, abs=1e-9)
        lst = list_with([(0, 4)], hits={0: 3})
        assert stopping_rule_0(lst, 0.1)

    def test_rule0_requires_full_list(self):
        lst = CandidateList(3)
        for _ in range(50):
            lst.update(0, 4)
        assert not stopping_rule_0(lst, 1.99)

    def test_coverage_score_frozen_values(self):
        assert coverage_score([0] * 10) == 0.0
        assert coverage_score([2] * 10) == pytest.approx(8.6466471676, abs=1e-9)
        assert coverage_score([1] + [0] * 9) == pytest.approx(0.6321205588, abs=1e-9)

    def test_rule2_thresholds(self):
        full = list_with([(i, 5) for i in range(10)], hits={i: 2 for i in range(10)})
        assert stopping_rule_2(full, 7.0)
        sparse = list_with([(i, 5) for i in range(10)], hits={0: 1})
        assert not stopping_rule_2(sparse, 7.0)
        assert stopping_rule_2(CandidateList(10), 0.0)  # empty list, zero bar

    def test_rule2_uses_current_entries_only(self):
        lst = CandidateList(1)
        for _ in range(10):
            lst.update(0, 2)
        before = coverage_score(lst.member_hits())
        lst.update(1, 9)  # eviction drops node 0's saturated counter
        after = coverage_score(lst.member_hits())
        assert before == pytest.approx(1.0, abs=1e-4)
        assert after == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)
        assert after < before


class TestCachedFactors:
    """Rules 0 and 2 score the factors 1 - exp(-hits) that the list caches
    beside its counters; they must decide as error_score and
    coverage_score do on member_hits(), to the last bit."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.sampled_from([1, 10, 50]), seed=st.integers(0, 2**32 - 1))
    def test_rules_decide_as_scores(self, k, seed):
        """600 entries, hits and evictions, a third of them on nodes 6, 19
        and 32, which share the top degree and gather many hits."""
        rng = np.random.default_rng(seed)
        hot = rng.random(600) < 1 / 3
        nodes = np.where(hot, rng.choice([6, 19, 32], 600), rng.integers(0, 3 * k + 6, 600))
        lst = CandidateList(k)
        for node, sampled in zip(nodes.tolist(), (rng.random(600) < 0.5).tolist()):
            deg = node * 2 % 13  # one degree per node, ties included
            lst.update(node, deg) if sampled else lst.observe(node, deg)
            hits = lst.member_hits()
            assert lst.member_factors() == [1.0 - math.exp(-x) for x in hits]
            prod = 1.0  # the product as a loop, factor by factor
            for x in hits:
                prod *= 1.0 - math.exp(-x)
            err, cov = error_score(hits), coverage_score(hits)
            assert err == 2.0 * (1.0 - prod)
            for a_bar in (err, np.nextafter(err, -np.inf), np.nextafter(err, np.inf)):
                assert stopping_rule_0(lst, a_bar) == (lst.is_full and err <= a_bar)
            for b_bar in (cov, np.nextafter(cov, -np.inf), np.nextafter(cov, np.inf)):
                assert stopping_rule_2(lst, b_bar) == (cov >= b_bar)


class TestRule1:
    def test_threshold_values(self):
        assert rule1_threshold(1, 1.0) == 1
        assert rule1_threshold(10, 0.3) == 5
        assert rule1_threshold(10, 0.2) == 5

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            rule1_threshold(10, 0.0)
        with pytest.raises(ValueError):
            rule1_threshold(10, 2.0)
        with pytest.raises(ValueError):
            rule1_threshold(0, 0.5)
        with pytest.raises(ValueError, match="largest float"):
            rule1_threshold(10**309, 0.5)

    def test_firing_on_min_hits(self):
        lst = list_with([(0, 9), (1, 5)], hits={0: 9, 1: 3})
        assert not stopping_rule_1(lst, 4)
        lst.update(1, 5)
        assert stopping_rule_1(lst, 4)

    def test_k1_fires_at_x0(self):
        lst = CandidateList(1)
        lst.update(0, 3)
        assert not stopping_rule_1(lst, 2)
        lst.update(0, 3)
        assert stopping_rule_1(lst, 2)

    def test_not_full_never_fires(self):
        lst = CandidateList(3)
        lst.update(0, 5)
        assert not stopping_rule_1(lst, 1)


class TestRuleMonotonicity:
    @given(st.lists(st.integers(min_value=0, max_value=60), min_size=1,
                    max_size=25))
    def test_min_hit_score_dominates(self, hits):
        assert min_hit_error_score(hits) >= error_score(hits) - 1e-12

    @given(st.lists(st.integers(min_value=0, max_value=60), min_size=1,
                    max_size=25),
           st.data())
    def test_coverage_nondecreasing_per_hit(self, hits, data):
        i = data.draw(st.integers(min_value=0, max_value=len(hits) - 1))
        bumped = list(hits)
        bumped[i] += 1
        assert coverage_score(bumped) >= coverage_score(hits)

    def test_rule1_fire_implies_rule0_fire(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(1, 12))
            hits = rng.integers(0, 30, size=k).tolist()
            a_bar = float(rng.uniform(0.01, 1.9))
            if min_hit_error_score(hits) <= a_bar:
                assert error_score(hits) <= a_bar


class TestListInvariants:
    def brute_force_top_k(self, seen, degrees, k):
        order = sorted(set(seen), key=lambda v: (-degrees[v], v))
        return set(order[:k])

    def test_prefix_equivalence_and_permanence(self):
        g = random_connected_graph(30, 4.0, seed=12)
        k = 5
        true_top = {r.node for r in dw.exact_top_k(g, k)}
        cfg = WalkConfig(alpha=1.5, seed=3, max_steps=400, mode=EveryStep())
        lst = CandidateList(k)
        seen = []
        ever_in = set()
        for s in sample_stream(g, cfg):
            lst.update(s.node, g.degree(s.node))
            seen.append(s.node)
            assert lst.members() == self.brute_force_top_k(seen, g.degrees, k)
            newly = lst.members() & true_top
            assert ever_in <= newly  # true top-k nodes never leave
            ever_in = newly

    def test_hits_count_every_sample_on_small_graph(self):
        # a node sampled while unlisted was rejected or evicted and never
        # re-enters, so a member's count since entry is its count since start
        g = random_connected_graph(12, 3.0, seed=7)
        cfg = WalkConfig(alpha=1.0, seed=5, max_steps=300, mode=EveryStep())
        lst = CandidateList(4)
        counts = {}
        for s in sample_stream(g, cfg):
            lst.update(s.node, g.degree(s.node))
            counts[s.node] = counts.get(s.node, 0) + 1
        for node, _deg, hits in lst.entries():
            assert hits == counts.get(node, 0)


class TestDetection:
    def test_star_k1_m50_rarely_misses(self, star4):
        fails = 0
        for seed in range(1000):
            cfg = WalkConfig(alpha=1.0, seed=seed, max_steps=200, mode=EveryStep())
            lst = detect_fixed_m(star4, cfg, 1, 50)
            if lst.entries()[0][0] != 0:
                fails += 1
        assert fails <= 1

    def test_exhaustive_sampling_equals_exact_top_k(self):
        g = random_connected_graph(25, 4.0, seed=2)
        cfg = WalkConfig(alpha=2.0, seed=1, max_steps=20_000, mode=EveryStep())
        lst = detect_fixed_m(g, cfg, g.n, 20_000)
        got = [(node, deg) for node, deg, _ in lst.entries()]
        want = [(r.node, r.degree) for r in dw.exact_top_k(g, g.n)]
        assert got == want

    def test_fixed_m_counts_samples_not_steps(self, star4):
        cfg = WalkConfig(alpha=1.0, seed=9, max_steps=10_000,
                         mode=Thinned(transient=20, q=0.25))
        dec = detect_fixed_m_decision(star4, cfg, 2, 100)
        assert dec.fired and dec.fired_at_samples == 100
        assert dec.raw_steps > 100 + 20  # thinning spreads samples out

    def test_fixed_m_timeout(self, star4):
        cfg = WalkConfig(alpha=1.0, seed=9, max_steps=50, mode=EveryStep())
        dec = detect_fixed_m_decision(star4, cfg, 2, 500)
        assert not dec.fired
        assert dec.fired_at_samples == 50 and dec.raw_steps == 50

    def test_fixed_m_zero_rejected(self, star4):
        with pytest.raises(ValueError, match="m must be >= 1, got 0"):
            detect_fixed_m_decision(star4, WalkConfig(alpha=1.0, seed=0), 2, 0)

    @pytest.mark.parametrize("rule, k, threshold, message", [
        ("fixed", 2, 10 ** 309, "m must be at most the largest float"),
        ("r1", 10 ** 309, 0.5, "exceeds node count")])
    def test_integer_past_the_float_range_rejected(self, star4, rule, k, threshold, message):
        with pytest.raises(ValueError, match=message):
            detect_with_rule(star4, WalkConfig(alpha=1.0, seed=0), k, rule, threshold)

    def test_fixed_m_float_rejected_before_walking(self, monkeypatch):
        """A float m raises TypeError before the walk takes a step."""
        g = dw.generate_pa(dw.PAConfig(n=2000, seed=3))
        cfg = WalkConfig(alpha=2.0, seed=1, max_steps=200_000)
        monkeypatch.setattr(detector_mod, "_visits", lambda *a: pytest.fail("walked"))
        with pytest.raises(TypeError):
            detect_fixed_m_decision(g, cfg, 5, 2.5)

    def test_fixed_rule_is_fixed_m_decision(self, star4):
        """Rule "fixed" with threshold m is detect_fixed_m_decision, label
        included; m = 2000 walks past the scalar phase into the segments."""
        cfg = WalkConfig(alpha=1.0, seed=9, max_steps=10_000, mode=EveryStep())

        def fields(dec):
            return (dec.rule, dec.threshold, dec.fired, dec.fired_at_samples,
                    dec.raw_steps, dec.final_list.entries())

        got = fields(detect_with_rule(star4, cfg, 2, "fixed", 2000))
        assert got == fields(detect_fixed_m_decision(star4, cfg, 2, 2000))
        assert got[:5] == ("fixed_m", 2000.0, True, 2000, 2000)

    def test_unknown_rule_names_all_four(self, star4):
        cfg = WalkConfig(alpha=1.0, seed=0, max_steps=10)
        with pytest.raises(ValueError, match=r"^rule must be one of "
                           r"\('fixed', 'r0', 'r1', 'r2'\), got 'r9'$"):
            detect_with_rule(star4, cfg, 2, "r9", 1.0)

    def test_degenerate_threshold_fires_immediately(self, star4):
        cfg = WalkConfig(alpha=1.0, seed=0, max_steps=100)
        dec = detect_with_rule(star4, cfg, 2, "r2", 0.0)
        assert dec.fired
        assert dec.fired_at_samples == 0 and dec.raw_steps == 0
        assert len(dec.final_list) == 0

    def test_rule_timeout_recorded_as_non_fired(self, star4):
        cfg = WalkConfig(alpha=1.0, seed=0, max_steps=30, mode=EveryStep())
        dec = detect_with_rule(star4, cfg, 4, "r1", 1e-6)  # x0 huge, cannot fire
        assert not dec.fired
        assert dec.raw_steps == 30

    def test_rule1_threshold_recorded(self, star4):
        cfg = WalkConfig(alpha=1.0, seed=1, max_steps=5000, mode=EveryStep())
        dec = detect_with_rule(star4, cfg, 1, "r1", 0.3)
        assert dec.fired
        assert dec.threshold == float(rule1_threshold(1, 0.3))

    def test_rule0_detects_on_small_graph(self):
        g = random_connected_graph(20, 4.0, seed=3)
        cfg = WalkConfig(alpha=2.0, seed=4, max_steps=100_000, mode=EveryStep())
        dec = detect_with_rule(g, cfg, 3, "r0", 0.3)
        assert dec.fired
        true_top = {r.node for r in dw.exact_top_k(g, 3)}
        assert len(dec.final_list.members() & true_top) >= 2

    def test_k_larger_than_n_rejected(self, star4):
        cfg = WalkConfig(alpha=1.0, seed=0, max_steps=10)
        with pytest.raises(ValueError):
            detect_fixed_m(star4, cfg, 5, 10)
        with pytest.raises(ValueError):
            detect_with_rule(star4, cfg, 5, "r2", 1.0)
        with pytest.raises(ValueError):
            detect_with_rule(star4, cfg, 2, "bogus", 1.0)
        with pytest.raises(TypeError):
            detect_fixed_m(star4, cfg, 2.5, 10)

    def test_numpy_integers_act_as_ints(self, star4):
        """np.int64 node ids and k give the results of the same ints."""
        cfg = WalkConfig(alpha=1.0, seed=3, max_steps=200)

        def results(i, k):
            return (star4.degree(i), star4.neighbors_of(i).tolist(),
                    walk_until_hit(star4, cfg, i, 0), list(sample_stream(star4, cfg, i)),
                    hitting_time_exact(star4, 1.0, 0, nu=i), dw.exact_top_k(star4, k),
                    detect_fixed_m(star4, cfg, k, 50).entries())

        assert results(np.int64(1), np.int64(2)) == results(1, 2)

    @pytest.mark.parametrize("rule, threshold, name", [
        ("r0", float("nan"), "a_bar"), ("r0", float("inf"), "a_bar"),
        ("r0", 0.0, "a_bar"), ("r0", 2.0, "a_bar"), ("r1", float("nan"), "a_bar"),
        ("r2", float("nan"), "b_bar"), ("r2", float("inf"), "b_bar"),
        ("r2", -float("inf"), "b_bar"), ("r2", 2.000001, "b_bar"),
        ("r2", 1e300, "b_bar")])
    def test_bad_threshold_rejected(self, star4, rule, threshold, name):
        cfg = WalkConfig(alpha=1.0, seed=0, max_steps=10)
        with pytest.raises(ValueError, match=name):
            detect_with_rule(star4, cfg, 2, rule, threshold)

    @pytest.mark.parametrize("transient, max_steps", [(10, 10), (2**63, 1_000_000)])
    @pytest.mark.parametrize("rule, threshold", [
        ("fixed", 1), ("r0", 0.5), ("r1", 0.5), ("r2", 1.0)])
    def test_transient_without_samples_rejected(self, star4, monkeypatch, rule,
                                                threshold, transient, max_steps):
        """A Thinned transient that covers every raw step leaves no sample to
        wait for: ValueError naming it, before any walking."""
        monkeypatch.setattr(detector_mod, "_visits", None)
        cfg = WalkConfig(alpha=1.0, seed=0, max_steps=max_steps,
                         mode=Thinned(transient=transient, q=0.5))
        with pytest.raises(ValueError, match="transient"):
            if rule == "fixed":
                detect_fixed_m_decision(star4, cfg, 2, threshold)
            else:
                detect_with_rule(star4, cfg, 2, rule, threshold)

    @pytest.mark.parametrize("mode", [Thinned(transient=9, q=1.0), EveryStep()])
    def test_budget_past_transient_accepted(self, star4, mode):
        """One raw step past the transient, or any transient under
        EveryStep, still walks; b_bar = k is accepted."""
        cfg = WalkConfig(alpha=1.0, seed=0, max_steps=10, mode=mode)
        assert detect_fixed_m_decision(star4, cfg, 2, 1).fired
        assert detect_with_rule(star4, cfg, 2, "r2", 2.0).raw_steps == 10

    @pytest.mark.parametrize("rule, threshold", [("r0", 0.5), ("r1", 0.5), ("r2", 3.5)])
    def test_rule_scored_after_listed_samples_only(self, monkeypatch, rule, threshold):
        """The rule runs once on the empty list, then once after each sample
        whose node is listed once counted, and at no other sample: not even
        at the first sample of a non-member after an unsampled visit
        changed the full list, which happens here."""
        g = random_connected_graph(30, 4.0, seed=2)
        cfg = WalkConfig(alpha=1.0, seed=8, max_steps=20_000,
                         mode=Thinned(transient=20, q=0.5))
        want, events = replay_scores(g, cfg, 5, rule, threshold)
        assert events > 0
        rule_fn = detector_mod._RULES[rule]
        calls = []

        def counted(lst, x):
            calls.append(lst.entries())
            return rule_fn(lst, x)

        monkeypatch.setitem(detector_mod._RULES, rule, counted)
        assert detect_with_rule(g, cfg, 5, rule, threshold).fired
        assert calls == want

    def test_unsampled_change_example_has_the_event(self):
        p = UNSAMPLED_CHANGE
        g = random_connected_graph(p["n"], 3.0, seed=p["graph_seed"])
        cfg = WalkConfig(alpha=1.0, seed=p["walk_seed"], max_steps=p["max_steps"],
                         mode=Thinned(transient=p["transient"], q=0.5))
        threshold = 0.02 + 1.9 * p["level"]
        assert replay_scores(g, cfg, p["k_choice"], p["rule"], threshold)[1] > 0

    @settings(max_examples=200, deadline=None)
    @example(**UNSAMPLED_CHANGE)
    # a_bar = 2.2 lies past the error score's cap of 2, so rule 0 would fire
    # on any full list; it is rejected before the walk
    @example(graph_seed=1, n=8, walk_seed=0, rule="r0", k_choice=3,
             thinned=True, transient=5, max_steps=300, level=0.872)
    @example(graph_seed=1, n=8, walk_seed=15, rule="r0", k_choice=3,
             thinned=True, transient=5, max_steps=300, level=0.872)
    # past the 1024 scalar steps (levels beyond 1 are sample budgets the
    # strategy does not reach):
    # m = 4096, inside the first superblock
    @example(graph_seed=1, n=14, walk_seed=0, rule="fixed", k_choice=3,
             thinned=False, transient=5, max_steps=5000, level=10.238)
    # rule 2 with b_bar = k fires at raw step 4279
    @example(graph_seed=1, n=30, walk_seed=0, rule="r2", k_choice="n",
             thinned=True, transient=5, max_steps=9000, level=1.0)
    # the transient ends at raw step 4500, and m = 401 arrives at 5245
    @example(graph_seed=3, n=10, walk_seed=1, rule="fixed", k_choice=3,
             thinned=True, transient=4500, max_steps=9000, level=1.0)
    # k = 30 of 40 nodes: many steps fall below the worst listed degree,
    # and a lower-id node tied with the worst entry first shows up late
    @example(graph_seed=1, n=40, walk_seed=10, rule="fixed", k_choice=30,
             thinned=False, transient=5, max_steps=6000, level=12.0)
    # m = 512, 513, 1024, 1025, 17408 and 17409: the budget runs out on the
    # last step of a 512-step scalar block or of the first superblock
    # (1024 + 16384 steps), or on the step after it
    @example(graph_seed=1, n=14, walk_seed=4, rule="fixed", k_choice=3,
             thinned=False, transient=5, max_steps=562, level=1.27875)
    @example(graph_seed=1, n=14, walk_seed=4, rule="fixed", k_choice=3,
             thinned=False, transient=5, max_steps=563, level=1.28125)
    @example(graph_seed=1, n=14, walk_seed=4, rule="fixed", k_choice=3,
             thinned=False, transient=5, max_steps=1074, level=2.55875)
    @example(graph_seed=1, n=14, walk_seed=4, rule="fixed", k_choice=3,
             thinned=False, transient=5, max_steps=1075, level=2.56125)
    @example(graph_seed=1, n=14, walk_seed=4, rule="fixed", k_choice=3,
             thinned=False, transient=5, max_steps=17458, level=43.51875)
    @example(graph_seed=1, n=14, walk_seed=4, rule="fixed", k_choice=3,
             thinned=False, transient=5, max_steps=17459, level=43.52125)
    @given(graph_seed=st.integers(0, 30), n=st.integers(4, 14),
           walk_seed=st.integers(0, 2**32 - 1),
           rule=st.sampled_from(["r0", "r1", "r2", "fixed"]),
           k_choice=st.sampled_from([1, 3, "n"]),
           thinned=st.booleans(), transient=st.just(5),
           max_steps=st.integers(1, 800), level=st.floats(0.0, 1.0))
    def test_matches_reference_loop(self, graph_seed, n, walk_seed, rule,
                                    k_choice, thinned, transient, max_steps,
                                    level):
        g = random_connected_graph(n, 3.0, seed=graph_seed)
        k = n if k_choice == "n" else k_choice
        mode = Thinned(transient=transient, q=0.5) if thinned else EveryStep()
        cfg = WalkConfig(alpha=1.0, seed=walk_seed, max_steps=max_steps, mode=mode)
        if rule == "fixed":
            threshold = 1 + int(level * 400)
            run = lambda: detect_fixed_m_decision(g, cfg, k, threshold)
        else:
            # r0 and r1 take a_bar in (0, 2); r0 is also drawn past 2
            a_bar_span = 2.5 if rule == "r0" else 1.9
            threshold = level * k if rule == "r2" else 0.02 + a_bar_span * level
            run = lambda: detect_with_rule(g, cfg, k, rule, threshold)
        # both are rejected before the walk, the threshold first
        rejected = ("a_bar" if rule == "r0" and threshold >= 2.0 else
                    "transient" if thinned and transient >= max_steps else None)
        if rejected:
            with pytest.raises(ValueError, match=rejected):
                run()
            return
        dec = run()
        got = (dec.fired, dec.fired_at_samples, dec.raw_steps,
               dec.final_list.entries())
        assert got == reference_decision(g, cfg, k, rule, threshold)

    @pytest.mark.parametrize("mode", [EveryStep(), Thinned(transient=300, q=0.5)])
    def test_ties_with_the_worst_degree(self, monkeypatch, mode):
        """On a cycle every step ties the worst listed degree, so the block
        filter passes only the steps at or below the worst listed node id;
        the decision is still the reference's."""
        n = 3000
        g = dw.Graph.from_edges(np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1), n=n)
        cfg = WalkConfig(alpha=0.05, seed=5, max_steps=100_000, mode=mode)
        calls = []
        for name in ("update", "observe"):
            def count(self, node, degree, method=getattr(CandidateList, name)):
                calls.append(node)
                return method(self, node, degree)
            monkeypatch.setattr(CandidateList, name, count)
        dec = detect_fixed_m_decision(g, cfg, 10, 20_000)
        assert dec.raw_steps >= 20_000 and len(calls) < 5_000
        assert ((dec.fired, dec.fired_at_samples, dec.raw_steps, dec.final_list.entries())
                == reference_decision(g, cfg, 10, "fixed", 20_000))

    @pytest.mark.parametrize("rule, threshold", [
        ("fixed", 1500), ("r0", 0.3), ("r1", 0.3), ("r2", 9.9)])
    def test_thinned_q1_equals_everystep(self, rule, threshold):
        """Thinned(transient=0, q=1) keeps every visit, so every query kind
        decides exactly as under EveryStep."""
        g = random_connected_graph(150, 4.0, seed=6)
        got = []
        for mode in (EveryStep(), Thinned(transient=0, q=1.0)):
            cfg = WalkConfig(alpha=1.0, seed=17, max_steps=50_000, mode=mode)
            dec = (detect_fixed_m_decision(g, cfg, 10, threshold) if rule == "fixed"
                   else detect_with_rule(g, cfg, 10, rule, threshold))
            got.append((dec.fired, dec.fired_at_samples, dec.raw_steps,
                        dec.final_list.entries()))
        assert got[0] == got[1]
        assert got[0][0] and got[0][2] > 512

    def test_detection_deterministic(self):
        g = random_connected_graph(40, 4.0, seed=6)
        cfg = WalkConfig(alpha=1.0, seed=123, max_steps=50_000,
                         mode=Thinned(transient=50, q=0.5))
        a = detect_with_rule(g, cfg, 4, "r2", 3.0)
        b = detect_with_rule(g, cfg, 4, "r2", 3.0)
        assert a.fired_at_samples == b.fired_at_samples
        assert a.raw_steps == b.raw_steps
        assert a.final_list.entries() == b.final_list.entries()
