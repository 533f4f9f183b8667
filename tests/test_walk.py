import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import degreewalk as dw
from degreewalk.analytics import transition_matrix
from degreewalk import walk as walk_mod
from degreewalk.walk import (EveryStep, Thinned, WalkConfig, WalkStuckError, _Drawn,
                             _moves, _segments, _walk, sample_stream, walk_until_hit)

from helpers import (random_connected_graph, reference_hit, reference_stream,
                     shared_rng_hitting_times, walk_reference)


class TestStep:
    def test_star_leaf_always_moves_to_center(self, star4):
        # at alpha=0 the walk alternates leaf, center, leaf, ...: 25 steps
        # leave a leaf, and each of them lands on the center
        cfg = WalkConfig(alpha=0.0, seed=1, max_steps=50)
        prev, left_leaf = 1, 0
        for s in sample_stream(star4, cfg, start=1):
            if prev != 0:
                assert s.node == 0
                left_leaf += 1
            prev = s.node
        assert left_leaf == 25
        assert walk_until_hit(star4, cfg, 1, 0) == 1

    def test_jump_branch_frequency(self, star4):
        # a leaf-to-leaf move needs a jump: from a leaf with alpha=1 the jump
        # branch has probability 1/(1+1) and lands on a leaf with 3/4, so the
        # rate is 3/8. The tolerance is 4.6 standard errors over >= 1M leaf
        # departures (a Bernoulli(1/4) test at 0.002 on 1M draws is 4.62).
        cfg = WalkConfig(alpha=1.0, seed=3, max_steps=1_750_000)
        nodes = np.fromiter((s.node for s in sample_stream(star4, cfg, start=0)),
                            dtype=np.int64, count=cfg.max_steps)
        prev = np.concatenate([[0], nodes[:-1]])
        from_leaf = prev != 0
        departures = int(from_leaf.sum())
        assert departures >= 1_000_000
        rate = int((from_leaf & (nodes != 0)).sum()) / departures
        se = np.sqrt(0.375 * 0.625 / departures)
        assert abs(rate - 0.375) <= 4.6 * se

    def test_empirical_kernel_matches_formula(self, triangle):
        cfg = WalkConfig(alpha=3.0, seed=9, max_steps=1_000_001, mode=EveryStep())
        counts = np.zeros((3, 3))
        prev = 0
        for s in sample_stream(triangle, cfg, start=0):
            counts[prev, s.node] += 1
            prev = s.node
        emp = counts / counts.sum(axis=1, keepdims=True)
        want = transition_matrix(triangle, 3.0)
        assert np.abs(emp - want).max() <= 0.005
        # row sums of the analytic kernel are exactly 1
        assert np.allclose(want.sum(axis=1), 1.0, atol=1e-12)

    def test_stuck_isolated_node(self):
        g = dw.Graph.from_edges(np.array([[0, 1]]), n=3)
        stuck = WalkConfig(alpha=0.0, seed=0)
        with pytest.raises(WalkStuckError, match="zero degree, zero jump rate"):
            next(sample_stream(g, stuck, start=2))
        with pytest.raises(WalkStuckError, match="zero degree, zero jump rate"):
            walk_until_hit(g, stuck, 2, 0)
        # with jumps the isolated node is no trap
        first = next(sample_stream(g, WalkConfig(alpha=1.0, seed=0), start=2))
        assert 0 <= first.node < 3 and first.step_index == 1

    def test_stuck_start_draws_nothing(self):
        """A stuck start raises before the first draw, so a generator that
        later walks share is left as it was."""
        g = dw.Graph.from_edges(np.array([[0, 1]]), n=3)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(WalkStuckError, match="^stuck: zero degree, zero jump rate$"):
            next(_walk(g, 0.0, rng, 2, 1000))
        assert rng.bit_generator.state == state

    class _TopUniform:
        """Every uniform is the largest double below 1."""

        def random(self, size):
            return np.full(size, np.nextafter(1.0, 0.0))

    def test_largest_uniform_stays_in_range(self):
        r, pj = np.nextafter(1.0, 0.0), 1.5 / (2 + 1.5)
        # at node 1 of the path, (r - pj)/(1 - pj) rounds to 1.0, so j = d
        assert (r - pj) / (1.0 - pj) == 1.0
        path = dw.Graph.from_edges(np.array([[0, 1], [1, 2]]), n=3)
        assert next(_walk(path, 1.5, self._TopUniform(), 1, 1)) == ([2], 0)
        # every step jumps (pj = 1), and r * n stays below n
        for n in (3, 1000, 10 ** 6):
            edgeless = dw.Graph.from_edges(np.empty((0, 2), dtype=np.int64), n=n)
            assert next(_walk(edgeless, 1.0, self._TopUniform(), 0, 1)) == ([n - 1], 0)

    def test_counters_advance(self, star4):
        cfg = WalkConfig(alpha=0.5, seed=4, max_steps=10)
        got = [s.step_index for s in sample_stream(star4, cfg, start=0)]
        assert got == list(range(1, 11))


# transients that end inside the first 512-step block, on its last step,
# on the first step of the second block, on the last step of the eighth
# block, inside the ninth block and inside the seventeenth
KERNEL_MODES = [EveryStep(), Thinned(transient=100, q=0.3),
                Thinned(transient=4096, q=0.5), Thinned(transient=4500, q=0.6),
                Thinned(transient=8200, q=0.9), Thinned(transient=512, q=0.4),
                Thinned(transient=513, q=0.7)]


def _outcome(run):
    try:
        return run()
    except WalkStuckError:
        return WalkStuckError


class TestKernelMatchesReference:
    @settings(max_examples=80, deadline=None)
    @example(n=3, pairs=[(0, 1)], alpha=0.0, mode=EveryStep(), max_steps=50,
             seed=0, start=2, target=0)
    @example(n=6, pairs=[(0, 1), (1, 2), (3, 1)], alpha=0.3, mode=KERNEL_MODES[3],
             max_steps=9000, seed=1, start=None, target=5)
    @given(n=st.integers(1, 8),
           pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                          max_size=12),
           alpha=st.sampled_from([0.0, 0.3, 1.0, 2.5]),
           mode=st.sampled_from(KERNEL_MODES),
           max_steps=st.sampled_from([1, 50, 4096, 4097, 9000]),
           seed=st.integers(0, 2**32 - 1),
           start=st.none() | st.integers(0, 7), target=st.integers(0, 7))
    def test_matches_table_kernel(self, n, pairs, alpha, mode, max_steps, seed,
                                  start, target):
        """sample_stream and walk_until_hit equal the table-driven kernel on
        small graphs with isolated nodes (every node on no pair)."""
        edges = np.array([(u, v) for u, v in pairs if u < n and v < n],
                         dtype=np.int64).reshape(-1, 2)
        g = dw.Graph.from_edges(edges, n=n)
        start = None if start is None else start % n
        target %= n
        cfg = WalkConfig(alpha=alpha, seed=seed, max_steps=max_steps, mode=mode)
        stream = _outcome(lambda: [tuple(s) for s in sample_stream(g, cfg, start)])
        assert stream == _outcome(lambda: reference_stream(g, cfg, start))
        hit = _outcome(lambda: walk_until_hit(g, cfg, start, target))
        assert hit == _outcome(lambda: reference_hit(g, cfg, start, target))
        if alpha == 0.0 and start is not None and g.degrees[start] == 0:
            assert stream is WalkStuckError
            assert hit == (0 if start == target else WalkStuckError)


class TestWalkUntilHit:
    def test_star_leaf_hits_center_in_one(self, star4):
        cfg = WalkConfig(alpha=0.0, seed=5, max_steps=100)
        assert walk_until_hit(star4, cfg, 1, 0) == 1

    def test_start_equals_target(self, star4):
        cfg = WalkConfig(alpha=0.0, seed=5, max_steps=100)
        assert walk_until_hit(star4, cfg, 0, 0) == 0

    def test_uniform_start_mean(self, star4):
        # linear-solve oracle for the uniform start gives exactly 3/4
        times = [walk_until_hit(star4, WalkConfig(alpha=0.0, seed=(3, i),
                                                  max_steps=100), None, 0)
                 for i in range(100_000)]
        assert abs(np.mean(times) - 0.75) <= 0.01

    # each seed's walk makes a first visit on that step
    @pytest.mark.parametrize("steps, seed", [(512, 2), (513, 2), (4096, 1), (4097, 1)],
                             ids=["512", "513", "4096", "4097"])
    def test_hit_at_draw_edge(self, steps, seed):
        """A first visit on the last step paid by a block's draw of move
        uniforms, or on the first step of the next draw, is found there:
        after the first block, and after the eighth."""
        g = dw.generate_pa(dw.PAConfig(n=20_000, edges_per_node=1, seed=3))
        cfg = WalkConfig(alpha=1.0, seed=seed, max_steps=10_000)
        nodes = [v for v, _, _ in walk_reference(g, cfg.alpha, np.random.default_rng(cfg.seed),
                                                 None, 0, steps)]
        target = nodes[-1]
        assert target != 0 and target not in nodes[:-1]
        assert walk_until_hit(g, cfg, 0, target) == steps

    def test_walks_sharing_a_generator_draw_the_same_streams(self):
        """Walks that stop early leave the shared generator where the
        reference kernel leaves it, so every later walk sees the same draws."""
        g = dw.generate_pa(dw.PAConfig(n=2000, edges_per_node=1, seed=3))
        target = int(np.flatnonzero(g.degrees == 1)[0])
        rng = np.random.default_rng(8)
        expected = []
        for _ in range(20):
            start = int(rng.integers(g.n))
            steps = 0
            if start != target:
                for node, steps, _ in walk_reference(g, 0.2, rng, None, start, 10 ** 7):
                    if node == target:
                        break
            expected.append(steps)
        got = shared_rng_hitting_times(g, 0.2, target, np.random.default_rng(8), 20)
        assert got.tolist() == expected
        assert min(expected) < 512 and max(expected) > 4096

    def test_unreachable_times_out(self):
        two_triangles = dw.ingest_edge_list(
            ["0 1", "1 2", "2 0", "3 4", "4 5", "5 3"])
        cfg = WalkConfig(alpha=0.0, seed=0, max_steps=5000)
        assert walk_until_hit(two_triangles, cfg, 3, 0) is None

    @pytest.mark.parametrize("start, target, name", [
        (0, 4, "target 4"), (0, -1, "target -1"),
        (4, 0, "start node 4"), (-1, 0, "start node -1")])
    def test_node_out_of_range(self, star4, start, target, name):
        with pytest.raises(IndexError, match=rf"^{name} out of range \[0, 4\)$"):
            walk_until_hit(star4, WalkConfig(alpha=1.0, seed=0), start, target)


class TestSampleStream:
    def test_thinned_q1_equals_everystep(self, star4):
        a = list(sample_stream(star4, WalkConfig(alpha=1.0, seed=11, max_steps=500,
                                                 mode=EveryStep())))
        b = list(sample_stream(star4, WalkConfig(alpha=1.0, seed=11, max_steps=500,
                                                 mode=Thinned(transient=0, q=1.0))))
        assert a == b

    def test_star_frequencies_match_stationary(self, star4):
        cfg = WalkConfig(alpha=1.0, seed=5, max_steps=3_000_000,
                         mode=Thinned(transient=100, q=0.5))
        counts = np.zeros(4)
        taken = 0
        for s in sample_stream(star4, cfg):
            counts[s.node] += 1
            taken += 1
            if taken >= 1_000_000:
                break
        freq = counts / taken
        assert np.abs(freq - np.array([0.4, 0.2, 0.2, 0.2])).max() <= 0.005

    def test_thinning_rate(self, star4):
        cfg = WalkConfig(alpha=1.0, seed=8, max_steps=1_000_100,
                         mode=Thinned(transient=100, q=0.5))
        kept = sum(1 for _ in sample_stream(star4, cfg))
        assert abs(kept / 1_000_000 - 0.5) <= 0.01

    def test_step_indices_strictly_increase(self, star4):
        cfg = WalkConfig(alpha=1.0, seed=2, max_steps=2000,
                         mode=Thinned(transient=10, q=0.3))
        samples = list(sample_stream(star4, cfg))
        idx = [s.step_index for s in samples]
        assert all(b > a for a, b in zip(idx, idx[1:]))
        assert idx[0] > 10 and idx[-1] <= 2000

    def test_deterministic(self, triangle):
        cfg = WalkConfig(alpha=2.0, seed=77, max_steps=300,
                         mode=Thinned(transient=5, q=0.4))
        assert (list(sample_stream(triangle, cfg))
                == list(sample_stream(triangle, cfg)))

    def test_start_out_of_range(self, star4):
        with pytest.raises(IndexError, match=r"^start node 4 out of range \[0, 4\)$"):
            next(sample_stream(star4, WalkConfig(alpha=1.0, seed=0), start=4))

    def test_bounded_by_max_steps(self, triangle):
        cfg = WalkConfig(alpha=1.0, seed=0, max_steps=50, mode=EveryStep())
        assert len(list(sample_stream(triangle, cfg))) == 50


class TestChainProperties:
    def test_reversibility_flows(self):
        g = random_connected_graph(12, 4.0, seed=4)
        cfg = WalkConfig(alpha=1.0, seed=2, max_steps=1_000_001, mode=EveryStep())
        flows = np.zeros((g.n, g.n))
        prev = 0
        for s in sample_stream(g, cfg, start=0):
            flows[prev, s.node] += 1
            prev = s.node
        flows /= flows.sum()
        assert np.abs(flows - flows.T).max() <= 0.005

    def test_long_run_frequencies_converge_to_stationary(self):
        g = random_connected_graph(60, 5.0, seed=10)
        alpha = g.average_degree()
        cfg = WalkConfig(alpha=alpha, seed=6, max_steps=1_000_000, mode=EveryStep())
        visits = np.zeros(g.n)
        for s in sample_stream(g, cfg):
            visits[s.node] += 1
        emp = visits / visits.sum()
        pi = dw.stationary(g, alpha).probs
        assert np.abs(emp - pi).sum() <= 0.01


class TestConfigValidation:
    def test_bad_values(self):
        nan, inf = float("nan"), float("inf")
        cases = [(lambda: WalkConfig(alpha=-0.1), "alpha"),
                 (lambda: WalkConfig(alpha=nan), "alpha"),
                 (lambda: WalkConfig(alpha=inf), "alpha"),
                 (lambda: WalkConfig(alpha=-inf), "alpha"),
                 (lambda: WalkConfig(alpha=1.0, max_steps=0), "max_steps"),
                 (lambda: WalkConfig(alpha=1.0, max_steps=50.5), "max_steps"),
                 (lambda: Thinned(q=0.0), "q"),
                 (lambda: Thinned(q=1.5), "q"),
                 (lambda: Thinned(transient=-1), "transient"),
                 (lambda: Thinned(transient=2.5), "transient")]
        for make, field in cases:
            with pytest.raises(ValueError, match=field):
                make()

    def test_numpy_integers_accepted(self):
        cfg = WalkConfig(alpha=1.0, max_steps=np.int64(5),
                         mode=Thinned(transient=np.int32(2)))
        assert cfg.max_steps == 5 and cfg.mode.transient == 2


def scalar_nodes(g, alpha, start, u) -> list[int]:
    """The nodes _walk visits from start on the move uniforms u."""
    return [v for nodes, _ in _walk(g, alpha, _Drawn(u), start, len(u)) for v in nodes]


@pytest.fixture
def fixups(monkeypatch):
    """Counts the _walk calls of _segments: walks of one segment, and walks
    of the rest of a superblock after too many failed segments."""
    calls = {"segment": 0, "rest": 0}

    def counting(g, alpha, rng, start, max_steps, stop=-1):
        if isinstance(rng, _Drawn):
            calls["segment" if max_steps == walk_mod._SEG else "rest"] += 1
        return _walk(g, alpha, rng, start, max_steps, stop)

    monkeypatch.setattr(walk_mod, "_walk", counting)
    return calls


def cycle(n):
    return dw.Graph.from_edges(np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1), n=n)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSegmentKernel:
    """_segments, and the sample streams built on it, visit the nodes of
    _walk and of the table-driven kernel, node for node."""

    @pytest.fixture(scope="class")
    def pa2000(self):
        return dw.generate_pa(dw.PAConfig(n=2000, edges_per_node=1, seed=3))

    @pytest.mark.parametrize("alpha, rest", [(0.0, 1), (0.05, 1), (2.0, 0)])
    def test_pa_graph(self, pa2000, fixups, alpha, rest):
        """At alpha = 0 and 0.05 most segments fail, so the superblock ends
        in one walk of its rest; at alpha = 2 nearly all are accepted."""
        u = np.random.default_rng(1).random(16384)
        got = _segments(pa2000, alpha, 7, u)
        assert got[0].tolist() == scalar_nodes(pa2000, alpha, 7, u)
        assert got[1] == bool(rest) and fixups["rest"] == rest
        if rest:  # the failure after the last one allowed walks the rest
            assert fixups["segment"] == int(walk_mod._MAX_FAILED * 256)
        else:
            assert fixups["segment"] < 256 // 8

    @pytest.mark.parametrize("alpha", [0.0, 0.05, 0.5, 2.0])
    def test_moves_on_pa_graph(self, pa2000, alpha):
        """_walk's lists in the scalar phase and after a fallback, int64
        arrays from _segments."""
        rng = np.random.default_rng(4)
        blocks = [nodes for nodes, _ in _moves(pa2000, alpha, rng, 0, 40_000)]
        assert isinstance(blocks[0], list) and isinstance(blocks[-1], list) == (alpha < 0.5)
        assert all(isinstance(b, list) or b.dtype == np.int64 for b in blocks)
        want = [v for v, _, _ in walk_reference(pa2000, alpha, np.random.default_rng(4),
                                                None, 0, 40_000)]
        assert np.concatenate(blocks).tolist() == want

    @pytest.mark.parametrize("alpha", [0.0, 0.05, 2.0])
    def test_cycle(self, alpha):
        g = cycle(1000)
        u = np.random.default_rng(2).random(8192)
        assert _segments(g, alpha, 0, u)[0].tolist() == scalar_nodes(g, alpha, 0, u)

    def test_isolated_nodes_jump(self):
        """pj = alpha/(0 + alpha) = 1 on an isolated node: every uniform
        jumps from it, and the move branch divides by 1 - pj = 0."""
        g = dw.Graph.from_edges(np.array([[0, 1], [1, 2]]), n=50)
        u = np.random.default_rng(3).random(5000)
        assert _segments(g, 0.7, 30, u)[0].tolist() == scalar_nodes(g, 0.7, 30, u)
        edgeless = dw.Graph.from_edges(np.empty((0, 2), dtype=np.int64), n=9)
        assert _segments(edgeless, 1.0, 4, u)[0].tolist() == scalar_nodes(edgeless, 1.0, 4, u)

    def test_stuck_start_raises_before_any_draw(self):
        g = dw.Graph.from_edges(np.array([[0, 1]]), n=3)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(WalkStuckError, match="zero degree, zero jump rate"):
            next(_moves(g, 0.0, rng, 2, 10 ** 6))
        assert rng.bit_generator.state == state

    def test_largest_uniform(self, pa2000):
        """Every uniform is nextafter(1, 0): a move index that rounds up to
        d is clamped, and a jump from an isolated node stays below n."""
        u = np.full(3000, np.nextafter(1.0, 0.0))
        path = dw.Graph.from_edges(np.array([[0, 1], [1, 2]]), n=3)
        assert _segments(path, 1.5, 1, u)[0].tolist() == scalar_nodes(path, 1.5, 1, u)
        for g, alpha in ((pa2000, 2.0), (pa2000, 0.0), (cycle(10), 0.3),
                         (dw.Graph.from_edges(np.empty((0, 2), dtype=np.int64), n=10 ** 6), 1.0)):
            assert _segments(g, alpha, 1, u)[0].tolist() == scalar_nodes(g, alpha, 1, u)

    @pytest.mark.parametrize("length", [1, 63, 64, 65, 1000, 8191])
    def test_superblock_not_a_multiple_of_segments(self, pa2000, length):
        u = np.random.default_rng(length).random(length)
        got = _segments(pa2000, 2.0, 11, u)[0]
        assert got.shape == (length,) and got.tolist() == scalar_nodes(pa2000, 2.0, 11, u)

    def test_failed_segments_walked_again(self, pa2000, fixups, monkeypatch):
        """With one warm-up step few guesses reach the exact node, so many
        segments are walked again, one at a time, and the nodes stay exact."""
        monkeypatch.setattr(walk_mod, "_WARM", 1)
        monkeypatch.setattr(walk_mod, "_MAX_FAILED", 1.0)
        u = np.random.default_rng(6).random(16384)
        nodes, slow = _segments(pa2000, 2.0, 0, u)
        assert nodes.tolist() == scalar_nodes(pa2000, 2.0, 0, u) and not slow
        assert fixups["segment"] > 50 and fixups["rest"] == 0

    @pytest.mark.parametrize("max_steps", [walk_mod._SCALAR - 1, walk_mod._SCALAR,
                                           walk_mod._SCALAR + 1, 30_000])
    @pytest.mark.parametrize("mode", [EveryStep(), Thinned(transient=100, q=0.5),
                                      Thinned(transient=walk_mod._SCALAR + 3000, q=0.3)])
    def test_stream_around_the_scalar_phase(self, pa2000, max_steps, mode):
        """max_steps below, at and above the steps walked by _walk alone,
        and a transient that ends inside the first superblock."""
        cfg = WalkConfig(alpha=2.0, seed=9, max_steps=max_steps, mode=mode)
        assert [tuple(s) for s in sample_stream(pa2000, cfg)] == reference_stream(pa2000, cfg)

    def test_samples_hold_python_ints(self, pa2000):
        cfg = WalkConfig(alpha=2.0, seed=1, max_steps=20_000)
        samples = list(sample_stream(pa2000, cfg))
        assert len(samples) == 20_000
        assert all(type(s.node) is int and type(s.step_index) is int for s in samples)
        dec = dw.detect_fixed_m_decision(pa2000, cfg, 10, 15_000)
        assert all(type(x) is int for row in dec.final_list.entries() for x in row)
