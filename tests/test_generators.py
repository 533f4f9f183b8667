import math

import numpy as np
import pytest

import degreewalk as dw
from degreewalk import generators
from degreewalk.generators import _pa_loop, pair_stubs, sample_degrees

from helpers import (PCG64Replay, check_graph_invariants, is_connected,
                     pa_tree_rejections)

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

    def test_negative_attractiveness_supported(self):
        g = dw.generate_pa(dw.PAConfig(n=300, edges_per_node=1,
                                       attractiveness=-0.5, seed=8))
        check_graph_invariants(g)
        assert is_connected(g)


def assert_same_as_loop(cfg: dw.PAConfig) -> None:
    fast, loop = dw.generate_pa(cfg), _pa_loop(cfg)
    for name in ("offsets", "neighbors", "original_ids"):
        got, want = getattr(fast, name), getattr(loop, name)
        assert got.dtype == want.dtype, (name, cfg)
        assert np.array_equal(got, want), (name, cfg)


class TestPATreeReplay:
    """Trees (one edge per node, attractiveness >= 0) replay the loop's draws
    from raw PCG64 words; _pa_loop is the oracle. If a numpy release changes
    these streams, fix the replay, not the golden hashes."""

    @pytest.mark.parametrize("a", [0.0, 0.5, 3.0])
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
        assert pa_tree_rejections(20_000, 0.5, seed=184) >= 1


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
