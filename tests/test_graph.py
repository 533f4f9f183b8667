import re
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degreewalk as dw
from degreewalk import graph as graph_mod
from degreewalk.graph import EdgeListParseError

from helpers import (CORRUPT_CACHES, check_graph_invariants, edge_lines_reference,
                     exact_top_k_sort, from_edges_reference,
                     random_connected_graph, star_graph)


# any non-negative int64 id, drawing 0, 9, 10, the 32-bit edge and the
# int64 maximum often; hypothesis spreads the rest over 1 to 19 digits
INT64_IDS = st.one_of(
    st.sampled_from([0, 9, 10, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1]),
    st.integers(0, 2 ** 63 - 1))

# edge-list files on which load_edge_list must agree with the line loop
PARSE_CASES = {
    "snap_headers": b"# Undirected graph\n# Nodes: 4 Edges: 3\n"
                    b"# FromNodeId\tToNodeId\n0\t1\n0\t2\n3\t0\n",
    "comment_between": b"0 1\n# mid\n1 2\n",
    "comment_crlf": b"# head\r\n0 1\r\n",
    "trailing_comment": b"0 1\n1 2 # c\n",
    "trailing_comment_no_space": b"0 1\n1 2#c\n",
    "indented_comment": b"0 1\n  # c\n1 2\n",
    "one_column": b"0 1\n2\n",
    "three_columns": b"0 1 2\n",
    "three_columns_later": b"0 1\n1 2\n1 2 3\n",
    "negative_id": b"0 1\n2 -3\n",
    "minus_zero": b"-0 1\n",
    "float_id": b"0 1\n1.0 2\n",
    "hex_id": b"0 1\n0x1 2\n",
    "plus_sign": b"+5 1\n2 +0\n",
    "underscore": b"0 1\n1_0 2\n",
    "leading_zeros": b"007 0010\n",
    "crlf": b"0 1\r\n1 2\r\n",
    "bare_cr": b"0 1\r1 2\r",
    "cr_splits_a_pair": b"0\r1\n",
    "blank_and_whitespace_lines": b"\n0 1\n   \n\t\n1 2\n\n",
    "vertical_tab": b"0\x0b1\n",
    "no_final_newline": b"0 1\n1 2",
    "int64_max": b"9223372036854775807 0\n",
    "int64_max_plus_one": b"0 1\n9223372036854775808 1\n",
    "beyond_int64": b"0 1\n99999999999999999999 1\n",
    "non_utf8": b"0 1\n\xff\xfe 2\n",
    "non_utf8_comment": b"# caf\xe9\n0 1\n",
    "utf8_comment": "# caf\u00e9\n0 1\n".encode("utf-8"),
    "non_ascii_digits": "0 1\n\u0661 2\n".encode("utf-8"),
    "empty_file": b"",
    "only_comments": b"# nothing here\n",
    "sign_before_tab": b"7 -\t",
    "sign_before_blank": b"1 - ",
    "sign_at_end": b"+0\t+",
    "sign_apart_from_digits": b"- 3\n",
    "blank_line_end_no_final_newline": b"9707 \n1",
    "sign_inside_id": b"1+2 3\n",
    "one_id_then_blank": b"0 1\n5 \n",
    "tab_separated": b"0\t1\n1\t2\n3\t0\n",
    "crlf_tab_separated": b"0\t1\r\n1\t2\r\n",
    "double_blanks": b"0  1\n 1 2 \n\n\n2 \t 3\n",
}

# well-formed cases the vectorized pass must take on its own
FAST_CASES = ["snap_headers", "comment_between", "comment_crlf", "leading_zeros",
              "crlf", "blank_and_whitespace_lines", "no_final_newline", "int64_max",
              "tab_separated", "crlf_tab_separated", "double_blanks"]

# the bytes the vectorized pass accepts, a comment mark, a stray letter and
# the ids at the int64 edge, drawn into a few short lines
PARSE_TOKENS = [bytes([c]) for c in b"0123456789+- \t\r\n#x"] + [
    b"9223372036854775807", b"9223372036854775808"]
EDGE_LIST_BYTES = st.lists(st.lists(st.sampled_from(PARSE_TOKENS), max_size=6)
                           .map(b"".join), max_size=6).map(b"\n".join)


def parse_outcome(parse):
    """The graph `parse` returns, or the type and line number it raises."""
    try:
        return parse()
    except ValueError as exc:
        return type(exc), getattr(exc, "lineno", None)


def assert_parses_as_line_loop(path):
    """load_edge_list(path) gives the line loop's graph arrays, or raises
    the same type at the same line, and warns of nothing. (On a text that
    np.fromstring cannot read to its end, numpy 1.x warns where 2.x raises.)"""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fast = parse_outcome(lambda: dw.load_edge_list(path))
    assert not caught, [str(w.message) for w in caught]
    with open(path, encoding="utf-8") as fh:
        loop = parse_outcome(lambda: dw.ingest_edge_list(fh))
    if isinstance(loop, dw.Graph):
        assert isinstance(fast, dw.Graph), fast
        for name in ("offsets", "neighbors", "original_ids"):
            assert np.array_equal(getattr(fast, name), getattr(loop, name)), name
    else:
        assert fast == loop


def full_sort_top_k(g, k):
    """Independent oracle: full lexicographic sort of (-degree, id)."""
    order = sorted(range(g.n), key=lambda i: (-int(g.degrees[i]), i))
    return [(i, int(g.degrees[i])) for i in order[:k]]


class TestIngest:
    def test_triangle(self):
        g = dw.ingest_edge_list(["0 1", "1 2", "2 0"])
        assert g.n == 3 and g.m_edges == 3
        assert list(g.degrees) == [2, 2, 2]
        check_graph_invariants(g)

    def test_duplicate_and_self_loop(self):
        g = dw.ingest_edge_list(["0 1", "1 0", "0 0"])
        assert g.n == 2 and g.m_edges == 1
        assert list(g.degrees) == [1, 1]

    def test_star(self):
        g = dw.ingest_edge_list(["0 1", "0 2", "0 3"])
        assert list(g.degrees) == [3, 1, 1, 1]
        assert g.m_edges == 3

    def test_comments_and_blanks_skipped(self):
        g = dw.ingest_edge_list(["# header", "", "0 1", "  ", "# mid", "1 2"])
        assert g.n == 3 and g.m_edges == 2

    def test_one_string_read_as_lines(self):
        g = dw.ingest_edge_list("# header\n0 1\n1 2\n")
        assert list(g.to_edge_lines()) == ["0 1", "1 2"]
        with pytest.raises(EdgeListParseError, match="line 2"):
            dw.ingest_edge_list("0 1\n0 x\n")

    def test_sparse_ids_remapped(self):
        g = dw.ingest_edge_list(["10 1000000", "1000000 42"])
        assert g.n == 3
        assert list(g.original_ids) == [10, 42, 1000000]
        # node 1000000 has degree 2
        dense = list(g.original_ids).index(1000000)
        assert g.degree(dense) == 2

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            dw.ingest_edge_list(["0 1", "0 x"])
        with pytest.raises(EdgeListParseError, match="line 3"):
            dw.ingest_edge_list(["0 1", "1 2", "1 2 3"])
        with pytest.raises(EdgeListParseError, match="negative"):
            dw.ingest_edge_list(["0 -1"])

    def test_id_beyond_int64_reports_lineno(self):
        with pytest.raises(EdgeListParseError,
                           match="line 2: node id out of int64 range"):
            dw.ingest_edge_list(["0 1", "99999999999999999999 1"])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            dw.ingest_edge_list(["# nothing here"])

    def test_idempotent_reingest(self):
        g = random_connected_graph(300, 5.0, seed=3)
        g2 = dw.ingest_edge_list(list(g.to_edge_lines()))
        assert g2.n == g.n and g2.m_edges == g.m_edges
        assert sorted(g2.degrees) == sorted(g.degrees)
        check_graph_invariants(g2)

    def test_degree_sum_is_twice_edges(self):
        for seed in range(4):
            g = random_connected_graph(120, 4.0, seed=seed)
            assert int(g.degrees.sum()) == 2 * g.m_edges


class TestLoadEdgeList:
    @pytest.mark.parametrize("case", sorted(PARSE_CASES))
    def test_matches_line_loop(self, case, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(PARSE_CASES[case])
        assert_parses_as_line_loop(path)

    @settings(max_examples=300, deadline=None)
    @given(data=EDGE_LIST_BYTES)
    def test_matches_line_loop_on_drawn_bytes(self, data, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "drawn_edges.txt"
        path.write_bytes(data)
        assert_parses_as_line_loop(path)

    @pytest.mark.parametrize("case", FAST_CASES)
    def test_well_formed_input_skips_line_loop(self, case, tmp_path, monkeypatch):
        path = tmp_path / "edges.txt"
        path.write_bytes(PARSE_CASES[case])
        with open(path, encoding="utf-8") as fh:
            want = dw.ingest_edge_list(fh)

        def no_line_loop(*args, **kwargs):
            raise AssertionError("load_edge_list fell back to the line loop")

        monkeypatch.setattr(graph_mod, "ingest_edge_list", no_line_loop)
        got = dw.load_edge_list(path)
        for name in ("offsets", "neighbors", "original_ids"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestTopK:
    def test_star_k1(self, star4):
        assert dw.exact_top_k(star4, 1) == [dw.DegreeRecord(0, 3)]

    def test_tie_breaks_by_lower_id(self):
        # degrees [5, 5, 2, 2, 2, 2]: nodes 0 and 1 tie at 5
        edges = [[0, 1], [0, 2], [1, 2], [0, 3], [0, 4], [0, 5],
                 [1, 3], [1, 4], [1, 5]]
        g = dw.Graph.from_edges(np.array(edges), n=6)
        assert list(g.degrees)[:2] == [5, 5]
        top = dw.exact_top_k(g, 2)
        assert [(r.node, r.degree) for r in top] == [(0, 5), (1, 5)]

    def test_matches_full_sort_oracle_on_pa(self, pa_graph):
        want = full_sort_top_k(pa_graph, 10)
        got = [(r.node, r.degree) for r in dw.exact_top_k(pa_graph, 10)]
        assert got == want

    def test_select_and_sort_agree(self):
        g = random_connected_graph(150, 6.0, seed=9)
        for k in (1, 5, 150):
            assert dw.exact_top_k(g, k) == exact_top_k_sort(g, k)

    def test_top_n_is_full_permutation(self):
        g = random_connected_graph(80, 5.0, seed=1)
        top = dw.exact_top_k(g, g.n)
        assert sorted(r.node for r in top) == list(range(g.n))
        keys = [(-r.degree, r.node) for r in top]
        assert keys == sorted(keys)

    def test_bad_k(self, star4):
        with pytest.raises(ValueError):
            dw.exact_top_k(star4, 5)
        with pytest.raises(ValueError):
            dw.exact_top_k(star4, 0)


class TestDegree:
    def test_values(self, star4, triangle):
        assert star4.degree(0) == 3
        assert star4.degree(1) == 1
        assert triangle.degree(2) == 2

    def test_out_of_range(self, star4):
        with pytest.raises(IndexError):
            star4.degree(4)
        with pytest.raises(IndexError):
            star4.degree(-1)

    @pytest.mark.parametrize("i", [4, -1])
    def test_neighbors_of_out_of_range(self, star4, i):
        with pytest.raises(IndexError, match=rf"node {i} out of range \[0, 4\)"):
            star4.neighbors_of(i)


class TestBinaryCache:
    def test_round_trip_exact(self, tmp_path):
        g = random_connected_graph(100, 4.0, seed=5)
        path = tmp_path / "g.npz"
        g.save_npz(path)
        g2 = dw.Graph.load_npz(path)
        assert np.array_equal(g.offsets, g2.offsets)
        assert np.array_equal(g.neighbors, g2.neighbors)
        assert np.array_equal(g.original_ids, g2.original_ids)
        with zipfile.ZipFile(path) as zf:
            assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_STORED}

    @pytest.mark.parametrize("case", sorted(CORRUPT_CACHES))
    def test_corrupt_cache_rejected(self, case, tmp_path):
        members, bad = CORRUPT_CACHES[case]
        path = tmp_path / "g.npz"
        np.savez(path, **members)
        with pytest.raises(ValueError) as exc:
            dw.Graph.load_npz(path)
        assert f"g.npz: {bad}:" in str(exc.value)

    @pytest.mark.parametrize("case", sorted(c for c in CORRUPT_CACHES if not c.startswith("no_")))
    def test_constructor_rejects_corrupt_arrays(self, case):
        """Every graph is checked where it is built, so the arrays a cache
        must not hold are rejected by the constructor with the same
        message, less the path."""
        members, bad = CORRUPT_CACHES[case]
        arrays = [np.asarray(members[m]) for m in ("offsets", "neighbors", "original_ids")]
        with pytest.raises(ValueError, match=f"^{bad}: "):
            dw.Graph(*arrays)

    def test_constructor_takes_empty_lists(self):
        g = dw.Graph([0, 0], [])
        assert g.n == 1 and g.m_edges == 0 and g.neighbors.dtype == np.int64

    def test_constructor_rejects_one_way_arc(self):
        """An arc into a zero-degree node, where an alpha = 0 walk would
        stand with nowhere to go."""
        with pytest.raises(ValueError, match="^neighbors: lists a node of degree 0$"):
            dw.Graph([0, 1, 1, 1], [1])


class TestIdRemap:
    """_graph_from_raw_edges shifts ids that form one contiguous range
    ("range"), ranks ids with gaps with a presence table ("table") when the
    id range is at most a few times the edge array, and uses np.unique
    beyond ("unique"); each must match a build from np.unique's arrays."""

    CASES = {
        "dense": ([[0, 1], [1, 2], [2, 0], [3, 1]], "range"),
        "one_based": ([[1, 2], [2, 3], [3, 1], [4, 2]], "range"),
        # enough edges that the range 1000..1003 counts as dense
        "offset_range": ([[1000, 1001], [1001, 1002], [1002, 1003]] * 90, "range"),
        "gaps": ([[0, 5], [5, 9], [9, 2], [12, 2]], "table"),
        "duplicates": ([[4, 2], [2, 4], [4, 2], [2, 2], [7, 4]], "table"),
        "sparse": ([[10, 10**9], [10**9, 42]], "unique"),
        "near_int64_max": ([[2**63 - 1, 0], [2**63 - 2, 2**63 - 1],
                            [0, 2**63 - 1]], "unique"),
    }

    @staticmethod
    def expected(raw):
        ids, inverse = np.unique(raw, return_inverse=True)
        return dw.Graph.from_edges(inverse.reshape(raw.shape), n=len(ids),
                                   original_ids=ids)

    @staticmethod
    def assert_same(got, want):
        for name in ("offsets", "neighbors", "original_ids"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_path_and_arrays(self, case, monkeypatch):
        pairs, path = self.CASES[case]
        raw = np.array(pairs, dtype=np.int64)
        want = self.expected(raw)
        calls = []

        def spy(name):
            real = getattr(np, name)

            def call(a, *args, **kw):
                calls.append((name, np.asarray(a).dtype == bool))
                return real(a, *args, **kw)
            monkeypatch.setattr(np, name, call)
        spy("unique")
        spy("cumsum")
        self.assert_same(graph_mod._graph_from_raw_edges(raw), want)
        # the table path ranks ids by a cumsum over the boolean table;
        # from_edges' own cumsum runs over int64 counts
        took = ("unique" if any(name == "unique" for name, _ in calls) else
                "table" if ("cumsum", True) in calls else "range")
        assert took == path

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([3, 40, 2**40, 2**63 - 1]),
           st.sampled_from([0, 1, 7, 1000, 2**62]), st.data())
    def test_matches_unique(self, top, lo, data):
        """Ids drawn from [0, top], then ids that cover lo..lo+size-1."""
        pairs = data.draw(st.lists(st.tuples(st.integers(0, top), st.integers(0, top)),
                                   min_size=1, max_size=30))
        raw = np.array(pairs, dtype=np.int64)
        self.assert_same(graph_mod._graph_from_raw_edges(raw), self.expected(raw))
        size = data.draw(st.integers(1, 40))
        cover = data.draw(st.permutations(range(size)))
        cover += cover[:len(cover) % 2]
        extra = data.draw(st.lists(st.tuples(st.integers(0, size - 1),
                                             st.integers(0, size - 1)), max_size=60))
        raw = lo + np.concatenate([np.array(cover, dtype=np.int64).reshape(-1, 2),
                                   np.array(extra, dtype=np.int64).reshape(-1, 2)])
        self.assert_same(graph_mod._graph_from_raw_edges(raw), self.expected(raw))

    def test_input_unchanged(self):
        """The range path hands the caller's array on to from_edges, so
        neither may write to it."""
        for pairs, _ in self.CASES.values():
            raw = np.array(pairs, dtype=np.int64)
            graph_mod._graph_from_raw_edges(raw)
            assert np.array_equal(raw, pairs)
        for pairs in ([[0, 1], [1, 2]], [[0, 1], [1, 0], [2, 2], [0, 1]]):
            edges = np.array(pairs, dtype=np.int64)
            dw.Graph.from_edges(edges)
            assert np.array_equal(edges, pairs)


class TestGraphConstruction:
    def test_isolated_trailing_nodes_kept(self):
        g = dw.Graph.from_edges(np.array([[0, 1]]), n=4)
        assert g.n == 4
        assert list(g.degrees) == [1, 1, 0, 0]

    def test_star_shape(self):
        g = star_graph(5)
        assert list(g.degrees) == [4, 1, 1, 1, 1]
        check_graph_invariants(g)

    def test_int64_arrays_kept_others_copied(self):
        """A contiguous int64 array becomes the graph's own and read-only;
        any other input is copied, and the caller's array stays writable."""
        offsets = np.array([0, 1, 2], dtype=np.int64)
        neighbors = np.array([1, 0], dtype=np.int64)
        g = dw.Graph(offsets, neighbors)
        assert g.offsets is offsets and g.neighbors is neighbors
        assert not offsets.flags.writeable and not neighbors.flags.writeable
        offsets32, strided = np.array([0, 1, 2], dtype=np.int32), np.array([1, 9, 0])[::2]
        g = dw.Graph(offsets32, strided)
        assert not np.shares_memory(g.offsets, offsets32)
        assert not np.shares_memory(g.neighbors, strided)
        assert offsets32.flags.writeable and strided.flags.writeable
        assert not (g.offsets.flags.writeable or g.neighbors.flags.writeable)

    def test_key_overflow_rejected(self):
        # nothing of size n is allocated before the check
        with pytest.raises(ValueError, match="int64"):
            dw.Graph.from_edges(np.array([[0, 1]]), n=2**32)
        with pytest.raises(ValueError, match="int64"):
            dw.Graph.from_edges(np.array([[0, 2**32]]))

    @pytest.mark.parametrize("pairs, n", [
        ([[0, 1]], 0), ([[1, 3]], 3), ([[0, 5]], 2), ([[-1, 2]], 3), ([[4, -9]], 6),
        ([[-1, 3]], 3), ([[-5, 6]], 3), ([[3, -1]], 3), ([[-1, 1]], 1),
        ([[5, 5]], 3), ([[-1, -1]], 3)])
    def test_id_outside_range_rejected(self, pairs, n):
        """An id outside [0, n) raises ValueError; with n = 0 the build
        would otherwise return neighbors on no node, (-1, n) and (n, -1)
        would become self-loops on nodes 0 and n - 1, and an out-of-range
        self-loop would be dropped without a word."""
        message = f"edge ids must lie in [0, n={n})"
        with pytest.raises(ValueError, match=re.escape(message)):
            dw.Graph.from_edges(np.array(pairs), n=n)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=3), st.data())
    def test_matches_reference_build(self, used, isolated, data):
        """Random multigraphs with self-loops, duplicates, reversed pairs and
        trailing isolated nodes."""
        pairs = data.draw(st.lists(st.tuples(st.integers(0, used - 1),
                                             st.integers(0, used - 1)), max_size=40))
        edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        n = used + isolated
        g = dw.Graph.from_edges(edges, n=n)
        offsets, neighbors = from_edges_reference(edges, n)
        assert np.array_equal(g.offsets, offsets)
        assert np.array_equal(g.neighbors, neighbors)
        if len(edges):
            inferred = dw.Graph.from_edges(edges)
            offsets, neighbors = from_edges_reference(edges, int(edges.max()) + 1)
            assert np.array_equal(inferred.offsets, offsets)
            assert np.array_equal(inferred.neighbors, neighbors)
        wide = data.draw(st.lists(INT64_IDS, min_size=n, max_size=n))
        for ids in (np.arange(n) * 7 + 3, np.array(wide, dtype=np.int64)):
            relabelled = dw.Graph(g.offsets, g.neighbors, ids)
            assert list(relabelled.to_edge_lines()) == edge_lines_reference(relabelled)


    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=12),
           st.integers(min_value=0, max_value=3), st.data())
    def test_matches_reference_on_simple_edges(self, used, isolated, data):
        """No self-loop and no duplicate, so both compresses are skipped;
        n = 0 and edgeless graphs included."""
        ids = st.integers(0, max(used - 1, 0))
        drawn = data.draw(st.lists(st.tuples(ids, ids), max_size=40))
        simple = {frozenset(p): p for p in drawn if p[0] != p[1]}
        edges = np.array(list(simple.values()), dtype=np.int64).reshape(-1, 2)
        n = used + isolated
        for g, size in ((dw.Graph.from_edges(edges, n=n), n),
                        (dw.Graph.from_edges(edges), int(edges.max()) + 1 if simple else 0)):
            offsets, neighbors = from_edges_reference(edges, size)
            assert g.n == size
            for got, want in ((g.offsets, offsets), (g.neighbors, neighbors)):
                assert got.dtype == np.int64 and np.array_equal(got, want)


class TestEdgeLines:
    def test_all_isolated_yields_no_lines(self):
        for n in (0, 1, 5):
            g = dw.Graph.from_edges(np.empty((0, 2), dtype=np.int64), n=n)
            assert list(g.to_edge_lines()) == []

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5])
    def test_lines_across_chunks(self, chunk, monkeypatch):
        """Chunks that split a hub's arcs, hold no u < v arc or start at
        isolated nodes; ids of every width."""
        monkeypatch.setattr(graph_mod, "_EDGE_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        edges = np.concatenate([np.stack([np.zeros(9, np.int64), np.arange(1, 10)], axis=1),
                                rng.integers(12, 22, size=(15, 2))])
        g = dw.Graph.from_edges(edges, n=24)
        pool = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1]
        pool += [10 ** i for i in range(19)] + [10 ** i - 1 for i in range(1, 19)]
        ids = rng.choice(np.array(pool, dtype=np.int64), size=g.n, replace=False)
        for relabelled in (g, dw.Graph(g.offsets, g.neighbors, ids)):
            assert list(relabelled.to_edge_lines()) == edge_lines_reference(relabelled)
