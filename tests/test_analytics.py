import math
import warnings

import numpy as np
import pytest

import degreewalk as dw
from degreewalk import analytics
from degreewalk.analytics import (UnreachableTargetError, evt_predict,
                                  expected_correct_count,
                                  expected_return_time_max,
                                  hitting_time_asymptotic, hitting_time_exact,
                                  jump_probability, poisson_error_bound,
                                  return_time_from_constants, stationary)

from helpers import (hitting_time_dense, random_connected_graph,
                     shared_rng_hitting_times, star_graph, transition_matrix)

PA_TAIL = dw.ParetoTail(gamma=2.5, c=3.7, x_prime=3.7 ** 0.4)


def _oracle_case(case: str):
    """(graph, alpha, target) of a named hitting-time case: AC3's graphs with
    its n, seed and alpha formula, the star S100, and an isolated node."""
    kind, _, arg = case.partition("_")
    if kind == "ac3":
        i = int(arg)
        g = random_connected_graph(int(20 + (i * 37) % 180), 6.0, seed=100 + i)
        alpha = 0.5 if i % 2 == 0 else g.average_degree()
        return g, alpha, dw.exact_top_k(g, 1)[0].node
    if kind == "s100":
        return star_graph(100), float(arg), 0
    # node 4 is isolated and reached only by jumps; target it or node 2
    g = dw.Graph.from_edges(np.array([[0, 1], [1, 2], [2, 0], [2, 3]]), n=5)
    return g, 0.7, int(arg)


ORACLE_CASES = ([f"ac3_{i}" for i in range(20)] + ["s100_0", "s100_1"]
                + ["isolated_2", "isolated_4"])


class TestStationary:
    def test_star_alpha0(self, star4):
        pi = stationary(star4, 0.0).probs
        assert np.allclose(pi, [1 / 2, 1 / 6, 1 / 6, 1 / 6], atol=1e-15)

    def test_star_alpha1(self, star4):
        pi = stationary(star4, 1.0).probs
        assert np.allclose(pi, [0.4, 0.2, 0.2, 0.2], atol=1e-15)

    def test_triangle_uniform_any_alpha(self, triangle):
        for alpha in (0.0, 0.7, 5.0):
            pi = stationary(triangle, alpha).probs
            assert np.allclose(pi, 1 / 3, atol=1e-15)

    def test_sums_to_one_and_degree_monotone(self):
        g = random_connected_graph(80, 5.0, seed=2)
        for alpha in (0.3, g.average_degree(), 9.0):
            pi = stationary(g, alpha).probs
            assert np.array_equal(pi, (g.degrees + alpha) / (2.0 * g.m_edges + g.n * alpha))
            assert abs(pi.sum() - 1.0) < 1e-12
            order = np.argsort(g.degrees)
            assert np.all(np.diff(pi[order]) >= -1e-18)

    def test_isolated_node_alpha0_rejected(self):
        g = dw.Graph.from_edges(np.array([[0, 1]]), n=3)
        with pytest.raises(ValueError, match="isolated"):
            stationary(g, 0.0)
        assert stationary(g, 0.5).probs.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("alpha", [1e308, 1.7e308])
    def test_alpha_past_float_overflow_gives_the_uniform_limit(self, alpha):
        """n * alpha overflows a float, yet every closed form stays finite:
        pi is uniform, every step jumps, and a return takes n steps."""
        g = random_connected_graph(80, 5.0, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pi = stationary(g, alpha).probs
            values = [jump_probability(g, alpha), expected_return_time_max(g, alpha),
                      hitting_time_asymptotic(g, alpha)]
        assert np.isfinite(pi).all() and pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert pi == pytest.approx(1.0 / g.n, rel=1e-12)
        assert values == pytest.approx([1.0, g.n, g.n / 2], rel=1e-12)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0])
    def test_bad_alpha_rejected(self, star4, alpha):
        with pytest.raises(ValueError, match="alpha"):
            stationary(star4, alpha)
        with pytest.raises(ValueError, match="alpha"):
            jump_probability(star4, alpha)
        with pytest.raises(ValueError, match="alpha"):
            hitting_time_asymptotic(star4, alpha)


class TestJumpProbability:
    def test_zero_alpha(self, star4):
        assert jump_probability(star4, 0.0) == 0.0

    def test_alpha_equal_average_degree_gives_half(self, star4):
        avg = star4.average_degree()  # 1.5
        assert jump_probability(star4, avg) == pytest.approx(0.5, abs=1e-15)

    def test_formula(self):
        g = random_connected_graph(40, 4.0, seed=8)
        alpha = 2.3
        want = g.n * alpha / (2 * g.m_edges + g.n * alpha)
        assert jump_probability(g, alpha) == pytest.approx(want, rel=1e-15)


class TestReturnTime:
    def test_star_alpha0(self, star4):
        assert expected_return_time_max(star4, 0.0) == pytest.approx(2.0)

    def test_equals_inverse_max_stationary(self):
        g = random_connected_graph(60, 5.0, seed=3)
        for alpha in (0.5, 2.0):
            want = 1.0 / stationary(g, alpha).probs.max()
            assert expected_return_time_max(g, alpha) == pytest.approx(want, rel=1e-15)

    def test_published_constants(self):
        # inputs as printed in the benchmark summaries (3 s.f. average degrees)
        assert round(return_time_from_constants(1e5, 2.0, 2.0, 138)) == 2857
        assert round(return_time_from_constants(986_324, 6.8, 6.8, 979)) == 13_607
        # the UK row lands one integer off with the rounded inputs
        uk = return_time_from_constants(18_520_486, 28.6, 28.6, 194_955)
        assert round(uk) in (5432, 5433)


class TestHittingTimeExact:
    def test_star_uniform(self, star4):
        assert hitting_time_exact(star4, 0.0, 0) == pytest.approx(0.75, abs=1e-12)

    def test_star_from_leaves(self, star4):
        nu = np.array([0.0, 1 / 3, 1 / 3, 1 / 3])
        assert hitting_time_exact(star4, 0.0, 0, nu=nu) == pytest.approx(1.0, abs=1e-12)

    def test_fixed_start(self, star4):
        assert hitting_time_exact(star4, 0.0, 0, nu=1) == pytest.approx(1.0)
        assert hitting_time_exact(star4, 0.0, 0, nu=0) == 0.0

    def test_monte_carlo_agreement_n50(self):
        g = random_connected_graph(50, 5.0, seed=17)
        alpha = 1.0
        target = dw.exact_top_k(g, 1)[0].node
        exact = hitting_time_exact(g, alpha, target)
        times = shared_rng_hitting_times(g, alpha, target,
                                         np.random.default_rng(99), 100_000)
        se = times.std(ddof=1) / np.sqrt(len(times))
        assert abs(times.mean() - exact) <= 3 * se

    def test_unreachable_alpha0(self):
        g = dw.ingest_edge_list(["0 1", "1 2", "2 0", "3 4", "4 5", "5 3"])
        with pytest.raises(UnreachableTargetError, match="unreachable"):
            hitting_time_exact(g, 0.0, 0)
        # jumps make every node reachable
        assert hitting_time_exact(g, 1.0, 0) > 0
        # on the path 0..L the far end reaches the target 0 after L hops,
        # and h(i) = i * (2L - i); an edge apart from the path is unreachable
        L, i = 299, np.arange(300)
        edges = np.stack([i[:-1], i[1:]], axis=1)
        path = dw.Graph.from_edges(edges, n=L + 1)
        assert hitting_time_exact(path, 0.0, 0) == pytest.approx((i * (2 * L - i)).mean(), rel=1e-9)
        apart = dw.Graph.from_edges(np.vstack([edges, [[L + 1, L + 2]]]), n=L + 3)
        with pytest.raises(UnreachableTargetError, match="unreachable"):
            hitting_time_exact(apart, 0.0, 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha", [1e-16, 1e-100, 1e-300, 5e-324])
    def test_alpha_too_small_for_double_precision(self, alpha):
        """The hitting times grow like 1/alpha, past what CG can resolve
        next to the degrees, so the solve is refused, not returned negative."""
        g = dw.ingest_edge_list(["0 1", "1 2", "2 0", "3 4", "4 5", "5 3"])
        with pytest.raises(UnreachableTargetError, match="did not converge"):
            hitting_time_exact(g, alpha, 0)
        assert hitting_time_exact(g, 1e-3, 0) == 2003.6671109628942

    def test_dense_cap(self, pa_graph):
        with pytest.raises(ValueError, match="Monte Carlo"):
            transition_matrix(pa_graph, 1.0)

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_equals_dense_oracle(self, case):
        g, alpha, target = _oracle_case(case)
        nu_vec = np.random.default_rng(g.n).random(g.n)
        nu_vec /= nu_vec.sum()  # puts mass on the target too
        for nu in (None, 0, g.n - 1, nu_vec):
            assert hitting_time_exact(g, alpha, target, nu=nu) == pytest.approx(
                hitting_time_dense(g, alpha, target, nu), rel=1e-9)
        assert hitting_time_exact(g, alpha, target, nu=target) == 0.0

    def test_iteration_cap_raises(self, monkeypatch):
        g = random_connected_graph(50, 5.0, seed=17)
        monkeypatch.setattr(analytics, "_CG_SLACK", 1 - g.n)  # one iteration
        with pytest.raises(UnreachableTargetError, match="did not converge"):
            hitting_time_exact(g, 1.0, 0)

    def test_bad_nu(self, star4):
        with pytest.raises(ValueError):
            hitting_time_exact(star4, 1.0, 0, nu=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            hitting_time_exact(star4, 1.0, 0, nu=np.array([0.9, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="probability vector"):
            hitting_time_exact(star4, 1.0, 0, nu=np.array([np.nan, 0.5, 0.5, 0.0]))
        with pytest.raises(TypeError):
            hitting_time_exact(star4, 1.0, 0, nu=2.7)

    @pytest.mark.parametrize("target, nu, name", [
        (4, None, "target 4"), (-1, None, "target -1"),
        (0, 4, "start node 4"), (0, -1, "start node -1")])
    def test_node_out_of_range(self, star4, target, nu, name):
        with pytest.raises(IndexError, match=rf"^{name} out of range \[0, 4\)$"):
            hitting_time_exact(star4, 1.0, target, nu=nu)

    @pytest.mark.parametrize("alpha", [1e300, 2.0 ** 63])
    def test_huge_alpha_tends_to_uniform_jumps(self, alpha):
        """Jumps dominate, so each step lands on the target with
        probability 1/n and the uniform start waits n - 1 steps on average."""
        g = random_connected_graph(50, 5.0, seed=17)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            h = hitting_time_exact(g, alpha, dw.exact_top_k(g, 1)[0].node)
        assert h == pytest.approx(g.n - 1, rel=1e-9)


class TestHittingTimeAsymptotic:
    def test_star_alpha0(self, star4):
        asym = hitting_time_asymptotic(star4, 0.0)
        assert asym == pytest.approx(1.0, abs=1e-15)
        # equals the exact value started from the non-target nodes
        nu = np.array([0.0, 1 / 3, 1 / 3, 1 / 3])
        assert asym == pytest.approx(hitting_time_exact(star4, 0.0, 0, nu=nu))

    def test_star_alpha1(self, star4):
        assert hitting_time_asymptotic(star4, 1.0) == pytest.approx(4 / 3, abs=1e-12)

    def test_star100_ratio_to_exact(self):
        g = star_graph(100)
        for alpha in (0.0, 1.0):
            ratio = hitting_time_asymptotic(g, alpha) / hitting_time_exact(g, alpha, 0)
            assert 0.98 <= ratio <= 1.02

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_nodes_rejected(self, n):
        g = dw.Graph.from_edges(np.empty((0, 2), dtype=np.int64), n=n)
        with pytest.raises(ValueError, match="need at least 2 nodes"):
            hitting_time_asymptotic(g, 1.0)

    def test_pa_scale_near_return_time(self, pa_graph):
        asym = hitting_time_asymptotic(pa_graph, 2.0)
        ret = expected_return_time_max(pa_graph, 2.0)
        assert ret / 1.5 <= asym <= ret * 1.5


class TestEvtPredict:
    def test_pa_parameters(self):
        pred = evt_predict(PA_TAIL, 100_000, 10)
        assert 126.0 <= pred.d1 <= 128.0
        assert pred.degree_at_rank(2) == pytest.approx(100.0, abs=1e-6)

    def test_uk_parameters(self):
        tail = dw.ParetoTail(gamma=1.7, c=90.0, x_prime=90.0 ** (1 / 1.7))
        pred = evt_predict(tail, 18_520_486, 2)
        assert 82_000 <= pred.d1 <= 83_600

    def test_rank_sequence_strictly_decreasing(self):
        pred = evt_predict(PA_TAIL, 100_000, 10)
        seq = [pred.degree_at_rank(j) for j in range(2, 11)]
        assert all(a > b for a, b in zip(seq, seq[1:]))
        assert pred.d1 > pred.degree_at_rank(2)

    def test_normalizing_constants_scale(self):
        p1 = evt_predict(PA_TAIL, 100_000, 2)
        p2 = evt_predict(PA_TAIL, 200_000, 2)
        growth = 2.0 ** p1.delta
        assert p2.a_n == pytest.approx(p1.a_n * growth, rel=1e-12)
        assert p2.b_n == pytest.approx(p1.b_n * growth, rel=1e-12)
        assert p1.delta == pytest.approx(1 / 2.5)

    def test_max_variants(self):
        med = evt_predict(PA_TAIL, 100_000, 2)
        mode = evt_predict(PA_TAIL, 100_000, 2, max_variant="mode")
        mean = evt_predict(PA_TAIL, 100_000, 2, max_variant="mean")
        # the mode-based maximum falls below the rank-2 prediction
        assert mode.d1 < mode.degree_at_rank(2) < med.d1
        assert mean.d1 > 0
        with pytest.raises(ValueError):
            evt_predict(PA_TAIL, 100_000, 2, max_variant="bogus")

    @pytest.mark.parametrize("k", [0, 1001, 2 ** 63])
    def test_rank_beyond_sample_size_rejected(self, k):
        msg = "k must be >= 1, got 0" if k < 1 else f"k={k} exceeds node count n=1000"
        with pytest.raises(ValueError, match=f"^{msg}$"):
            evt_predict(PA_TAIL, 1000, k)

    def test_non_integer_rank_rejected(self):
        with pytest.raises(TypeError):
            evt_predict(PA_TAIL, 1000, 2.5)

    def test_n_past_the_float_range_rejected(self):
        with pytest.raises(ValueError, match="n must be at most the largest float"):
            evt_predict(PA_TAIL, 10 ** 309, 5)

    def test_rank_below_one_rejected(self):
        with pytest.raises(ValueError, match="rank must be >= 1, got 0"):
            evt_predict(PA_TAIL, 1000, 2).degree_at_rank(0)

    def test_infinite_mean_regime_rejected(self):
        class FakeTail:
            gamma, c, x_prime = 0.9, 1.0, 2.0

        with pytest.raises(ValueError):
            evt_predict(FakeTail(), 1000, 2)


class TestPoissonBound:
    def test_zero_samples(self):
        assert poisson_error_bound([0.1] * 10, 0) == pytest.approx(2.0)

    def test_ten_elements_average_hits(self):
        # pis * m = 4.5 per element on a top-10 list: about 10% miss rate
        pis = np.full(10, 4.5e-4)
        a = poisson_error_bound(pis, 10_000)
        assert a / 2 == pytest.approx(0.105697, abs=5e-5)

    def test_single_element_log100(self):
        a = poisson_error_bound([math.log(100) / 1000], 1000)
        assert a == pytest.approx(0.02, abs=1e-12)

    def test_monotone_in_m_and_pi(self):
        pis = np.array([1e-3, 2e-3, 5e-4])
        vals = [poisson_error_bound(pis, m) for m in (0, 10, 100, 1000, 10_000)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        smaller = poisson_error_bound(pis * 0.5, 1000)
        assert smaller >= poisson_error_bound(pis, 1000)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_error_bound([0.0, 0.1], 10)
        with pytest.raises(ValueError):
            poisson_error_bound([0.1], -1)
        with pytest.raises(ValueError, match="strictly in"):
            poisson_error_bound([0.1, np.nan], 5)


class TestExpectedCorrectCount:
    def test_zero_samples(self):
        assert expected_correct_count([0.2, 0.1], 0) == 0.0

    def test_single_element_exact(self):
        assert expected_correct_count([0.5], 2, "exact") == pytest.approx(0.75)

    def test_bounded_by_k(self):
        pis = np.full(7, 1e-3)
        val = expected_correct_count(pis, 10 ** 6, "exact")
        assert 0.0 <= val <= 7.0

    def test_exact_close_to_poisson_for_small_pis(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(1, 11))
            pis = rng.uniform(1e-5, 0.01, size=k)
            m = int(rng.integers(0, 100_000))
            gap = abs(expected_correct_count(pis, m, "exact")
                      - expected_correct_count(pis, m, "poisson"))
            assert gap < 0.05

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            expected_correct_count([0.1], 10, "bogus")

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError, match="m must be >= 0, got -1"):
            expected_correct_count([0.1], -1)


class TestTransitionMatrix:
    def test_triangle_alpha3(self, triangle):
        P = transition_matrix(triangle, 3.0)
        off = (3.0 / 3 + 1.0) / (2 + 3.0)
        diag = (3.0 / 3) / (2 + 3.0)
        want = np.full((3, 3), off)
        np.fill_diagonal(want, diag)
        assert np.allclose(P, want, atol=1e-15)

    def test_isolated_node_at_alpha0_rejected(self):
        g = dw.Graph.from_edges(np.array([[0, 1]]), n=3)
        with pytest.raises(ValueError, match="alpha=0 with an isolated node"):
            transition_matrix(g, 0.0)

    def test_rows_sum_to_one(self):
        g = random_connected_graph(30, 4.0, seed=4)
        for alpha in (0.0, 1.7):
            P = transition_matrix(g, alpha)
            assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
