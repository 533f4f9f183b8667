import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degreewalk as dw
from degreewalk import generators
from degreewalk.generators import _pa_loop, pair_stubs, sample_degrees

from helpers import (FixedWords, PCG64Replay, check_graph_invariants, is_connected,
                     pa_tree_picks, pcg64_with_word)

PA_TAIL = dw.ParetoTail(gamma=2.5, c=3.7, x_prime=3.7 ** 0.4)


def exact_median_max_degree(tail: dw.ParetoTail, n: int) -> int:
    """Oracle: smallest integer d with P(max of n i.i.d. degrees <= d) >= 1/2."""
    d = math.ceil(tail.x_prime)
    while (1.0 - min(1.0, tail.survival(d))) ** n < 0.5:
        d += 1
    return d


class TestPreferentialAttachment:
    def test_two_nodes_single_edge(self):
        g = dw.generate_pa(dw.PAConfig(n=2, edges_per_node=1, seed=0))
        assert g.n == 2 and g.m_edges == 1
        assert list(g.degrees) == [1, 1]

    def test_deterministic(self):
        a = dw.generate_pa(dw.PAConfig(n=1000, seed=123))
        b = dw.generate_pa(dw.PAConfig(n=1000, seed=123))
        assert list(a.to_edge_lines()) == list(b.to_edge_lines())
        c = dw.generate_pa(dw.PAConfig(n=1000, seed=124))
        assert list(a.to_edge_lines()) != list(c.to_edge_lines())

    def test_connected_simple_tree(self):
        g = dw.generate_pa(dw.PAConfig(n=500, seed=2))
        check_graph_invariants(g)
        assert is_connected(g)
        assert g.m_edges == g.n - 1  # one edge per newcomer

    def test_average_degree_and_tail(self, pa_graph):
        assert abs(pa_graph.average_degree() - 2.0) <= 0.01
        hill = dw.hill_estimate(pa_graph.degrees, top_fraction=0.01)
        assert 2.2 <= hill <= 2.8  # tail exponent target 2.5 +- 0.3

    def test_multi_edge_attachment(self):
        g = dw.generate_pa(dw.PAConfig(n=400, edges_per_node=3, attractiveness=0.0,
                                       seed=4))
        check_graph_invariants(g)
        assert is_connected(g)
        assert abs(g.average_degree() - 6.0) < 0.2

    def test_invalid_attractiveness(self):
        with pytest.raises(ValueError):
            dw.PAConfig(n=10, edges_per_node=1, attractiveness=-1.5)

    @pytest.mark.parametrize("m", [1, 3])
    def test_attractiveness_minus_m_rejected(self, m):
        """All starting weights would be 0 and the loop would never end."""
        with pytest.raises(ValueError, match="> -edges_per_node"):
            dw.PAConfig(n=10, edges_per_node=m, attractiveness=-m)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_attractiveness_named(self, value):
        with pytest.raises(ValueError, match="attractiveness must be finite"):
            dw.PAConfig(n=10, attractiveness=value)

    @pytest.mark.parametrize("n", [1, 3_037_000_500, 2 ** 63])
    def test_node_count_out_of_graph_range_named(self, n):
        """Past 3_037_000_499 nodes Graph.from_edges refuses the edges, so
        the configs refuse n before any is drawn."""
        tail = dw.ParetoTail(gamma=2.5, c=1.0, x_prime=1.0)
        for make in (lambda: dw.PAConfig(n=n), lambda: dw.ConfigModelConfig(n=n, tail=tail)):
            with pytest.raises(ValueError, match=r"n must be in \[2, 3037000499\]"):
                make()

    def test_negative_attractiveness_supported(self):
        g = dw.generate_pa(dw.PAConfig(n=300, edges_per_node=1,
                                       attractiveness=-0.5, seed=8))
        check_graph_invariants(g)
        assert is_connected(g)


def assert_same_as_loop(cfg: dw.PAConfig, loop_cfg: dw.PAConfig | None = None) -> None:
    """loop_cfg, if given, equals cfg but seeds from its own bit generator."""
    fast, loop = dw.generate_pa(cfg), _pa_loop(loop_cfg or cfg)
    for name in ("offsets", "neighbors", "original_ids"):
        got, want = getattr(fast, name), getattr(loop, name)
        assert got.dtype == want.dtype, (name, cfg)
        assert np.array_equal(got, want), (name, cfg)


class TestPATreeReplay:
    """Trees (one edge per node, attractiveness >= 0) replay the loop's draws
    from raw PCG64 words; _pa_loop is the oracle. If a numpy release changes
    these streams, fix the replay, not the golden hashes."""

    # at a = 20 most nodes pick uniformly, so candidate words often adjoin
    @pytest.mark.parametrize("a", [0.0, 0.5, 3.0, 20.0])
    @pytest.mark.parametrize("n, seeds", [
        (2, range(5)), (3, range(10)), (4, range(10)), (50, range(20)),
        (2000, range(5)), (20_000, [7, 184])])
    def test_identical_to_loop(self, n, seeds, a):
        for seed in seeds:
            assert_same_as_loop(dw.PAConfig(n=n, attractiveness=a, seed=seed))

    def test_identical_across_word_chunks(self, monkeypatch):
        # 7-word chunks put many integers() words first in a fresh chunk
        monkeypatch.setattr(generators, "_WORD_CHUNK", 7)
        for seed in range(5):
            assert_same_as_loop(dw.PAConfig(n=2000, attractiveness=3.0, seed=seed))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 3000), st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
           st.integers(0, 2 ** 64 - 1))
    def test_identical_to_loop_on_drawn_configs(self, n, a, seed):
        assert_same_as_loop(dw.PAConfig(n=n, attractiveness=a, seed=seed))

    @pytest.mark.parametrize("a", [1e300, 1e308])
    def test_identical_to_loop_at_huge_attractiveness(self, a):
        # at 1e308, a*t overflows to inf and every node picks uniformly
        for seed in range(3):
            assert_same_as_loop(dw.PAConfig(n=300, attractiveness=a, seed=seed))

    @pytest.mark.parametrize("chunk", [7, 64])
    @pytest.mark.parametrize("a, seed", [(0.5, 184), (20.0, 404)])
    def test_rejection_and_spill_across_word_chunks(self, monkeypatch, chunk, a, seed):
        """A draw rejected inside a chunk, and a fresh word that opens the
        next chunk. At 7 words, seed 404 instead rejects the kept half of a
        chunk's last node, whose retry takes the next chunk's first word."""
        picks = pa_tree_picks(20_000, a, seed)
        rejected = [(w, fresh) for w, fresh, rejections in picks if rejections]
        assert any(fresh and fresh[0] % chunk == 0 for _, fresh, _ in picks)
        if (seed, chunk) == (404, 7):
            assert any(w % chunk == chunk - 1 and fresh[0] % chunk == 0
                       for w, fresh in rejected)
        else:
            assert any(w % chunk != chunk - 1 for w, _ in rejected)
        monkeypatch.setattr(generators, "_WORD_CHUNK", chunk)
        assert_same_as_loop(dw.PAConfig(n=20_000, attractiveness=a, seed=seed))

    @pytest.mark.parametrize("n, a, chunk, t, bound, ulps, is_stub", [
        # node 98 opens the second chunk, so its threshold bounds the stub
        # picks; r lies below it, yet r * scale rounds up to 2(t-1)
        (200, 3.031084597591015e-11, 96, 98, 98, 9007199254603076, False),
        # the first chunk ends with node 200's word and its fresh word, so
        # node 202's threshold bounds the uniform picks; r is not below it,
        # yet r * scale rounds below 2(t-1)
        (400, 3.2517895434071354e-14, 200, 200, 202, 9007199254740844, True)])
    def test_word_within_an_ulp_of_the_threshold(self, monkeypatch, n, a, chunk, t,
                                                 bound, ulps, is_stub):
        """At so small an a every node before t picks a stub, so node t reads
        word t - 2, here r = ulps * 2**-53. Rounding flips its test against
        the bound's threshold, and only the scan's 1e-9 margins send it to
        the loop's own float ops."""
        r = ulps * 2.0 ** -53
        assert (r < 2 * (bound - 1) / (2 * (bound - 1) + a * bound)) != is_stub
        assert (r * (2 * (t - 1) + a * t) < 2 * (t - 1)) == is_stub
        monkeypatch.setattr(generators, "_WORD_CHUNK", chunk)
        fast, loop = (dw.PAConfig(n=n, attractiveness=a,
                                  seed=pcg64_with_word(t - 2, ulps << 11))
                      for _ in range(2))
        assert_same_as_loop(fast, loop)

    def test_rejections_keep_the_word_buffer_bounded(self, monkeypatch):
        """A zero low half is a rejected draw for every t but a power of two,
        so zeroing it in one word of 7 makes most 64-word passes stop at a
        rejection, and 200 zero words from one pick's fresh word make passes
        that write no node. A pass draws a chunk only when less than a chunk
        is left or the last pass wrote no node, so the replay ends and draws
        at most a few chunks more than the loop reads."""
        words = np.random.PCG64(5).random_raw(2 ** 17)
        words[::7] &= np.uint64(0xFFFFFFFF << 32)
        monkeypatch.setattr(generators, "_WORD_CHUNK", 64)
        monkeypatch.setattr(np.random, "default_rng", lambda stream: stream)
        picks = pa_tree_picks(2000, 20.0, FixedWords(words))
        fresh = next(f for _, f, _ in picks[1000:] if f)
        words[fresh[0]:fresh[0] + 200] = 0
        fast, loop = FixedWords(words), FixedWords(words)
        assert_same_as_loop(*(dw.PAConfig(n=20_000, attractiveness=20.0, seed=s)
                              for s in (fast, loop)))
        assert loop.rejections > 1700  # about 1400 scattered, 400 in the block
        assert fast.raw_calls <= loop.words // 64 + 3

    def test_word_replay_matches_numpy(self):
        # bounds just over 2**31 reject about half their first draws
        highs = [2, 3, 7, 20_000, 2 ** 31 + 1, 3 * 2 ** 30, 2 ** 32 - 1]
        for seed in range(3):
            rng, replay = np.random.default_rng(seed), PCG64Replay(seed)
            for i in range(300):
                high = highs[i % len(highs)]
                assert replay.integers(high) == rng.integers(high)
                if i % 3:
                    assert replay.random() == rng.random()
            assert replay.rejections > 0

    def test_pinned_seed_draws_a_lemire_rejection(self):
        # the golden hash arrays_generate_pa_lemire_reject covers this branch
        assert any(rejections for _, _, rejections in pa_tree_picks(20_000, 0.5, seed=184))


class TestParetoTail:
    def test_validation(self):
        with pytest.raises(ValueError):
            dw.ParetoTail(gamma=1.0, c=1.0, x_prime=1.0)
        with pytest.raises(ValueError):
            dw.ParetoTail(gamma=2.5, c=-1.0, x_prime=1.0)
        with pytest.raises(ValueError):  # survival > 1 at the cutoff
            dw.ParetoTail(gamma=2.5, c=3.7, x_prime=1.0)

    @pytest.mark.parametrize("field", ["gamma", "c", "x_prime"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameter_named(self, field, value):
        params = {"gamma": 2.5, "c": 1.0, "x_prime": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            dw.ParetoTail(**params)

    def test_quantile_inverts_survival(self):
        tail = PA_TAIL
        for u in (0.9, 0.5, 0.01, 1e-5):
            x = tail.quantile(u)
            assert tail.survival(x) == pytest.approx(u, rel=1e-12)


class TestConfigurationModel:
    def test_forced_degrees_one_one(self):
        g = pair_stubs(np.array([1, 1]), np.random.default_rng(0))
        assert g.n == 2 and g.m_edges == 1

    def test_odd_sum_parity_adjustment(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            degs = sample_degrees(PA_TAIL, 999, rng)
            total = int(degs.sum())
            adjusted = total + (total % 2)
            assert adjusted % 2 == 0
            g = pair_stubs(degs, rng)  # must not crash on odd sums
            check_graph_invariants(g)

    def test_deterministic(self):
        cfg = dw.ConfigModelConfig(n=2000, tail=PA_TAIL, seed=9)
        a = dw.generate_config_model(cfg)
        b = dw.generate_config_model(cfg)
        assert list(a.to_edge_lines()) == list(b.to_edge_lines())

    def test_graph_invariants(self):
        g = dw.generate_config_model(dw.ConfigModelConfig(n=3000, tail=PA_TAIL,
                                                          seed=1))
        check_graph_invariants(g)

    def test_degree_law_ks(self):
        # release-seed check: pre-pairing degrees follow the ceil'd tail law
        rng = np.random.default_rng(2024)
        degs = sample_degrees(PA_TAIL, 100_000, rng)
        lo = math.ceil(PA_TAIL.x_prime)
        assert degs.min() == lo
        values, counts = np.unique(degs, return_counts=True)
        emp_cdf = np.cumsum(counts) / len(degs)
        model_cdf = 1.0 - np.minimum(1.0, PA_TAIL.survival(values.astype(float)))
        ks = np.abs(emp_cdf - model_cdf).max()
        assert ks < 0.05

    def test_median_max_degree_matches_order_statistic_oracle(self):
        # the exact median of the max degree for this tail at n=1e5 is 196;
        # erasure only shaves a handful of stubs off the top node
        oracle = exact_median_max_degree(PA_TAIL, 100_000)
        assert oracle == 196
        maxes = []
        for seed in range(50):
            g = dw.generate_config_model(
                dw.ConfigModelConfig(n=100_000, tail=PA_TAIL, seed=seed))
            maxes.append(int(g.degrees.max()))
        med = float(np.median(maxes))
        assert 0.7 * oracle <= med <= 1.3 * oracle


class TestHillEstimator:
    def test_recovers_known_exponent(self):
        # oracle for the oracle: i.i.d. continuous Pareto with gamma=2.5
        rng = np.random.default_rng(5)
        x = PA_TAIL.quantile(rng.random(200_000))
        est = dw.hill_estimate(x, top_fraction=0.01)
        assert abs(est - 2.5) < 0.2

    def test_degenerate_tail_rejected(self):
        with pytest.raises(ValueError):
            dw.hill_estimate(np.full(1000, 7.0))

    def test_sample_too_small_rejected(self):
        # two top order statistics and the threshold need three values
        with pytest.raises(ValueError, match="sample too small"):
            dw.hill_estimate(np.array([5.0, 3.0]))
