"""Compact immutable graph storage and the deterministic top-k baseline.

Graphs are undirected and simple: ingestion collapses duplicate edges,
drops self-loops and enforces symmetry. Node ids are remapped to a dense
0..n-1 range; the original ids are kept for reporting.
"""

from __future__ import annotations

import io
import math
import operator
import re
import warnings
import zipfile
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

_INT64_MAX = int(np.iinfo(np.int64).max)
# largest n for which the CSR sort key u*n+v (at most n*n-1) fits in int64
_MAX_NODES = math.isqrt(_INT64_MAX)
_CACHE_MEMBERS = ("offsets", "neighbors", "original_ids")
# edges formatted per numpy pass by Graph.to_edge_lines
_EDGE_CHUNK = 2 ** 16


class EdgeListParseError(ValueError):
    """Raised for malformed edge-list input, with a 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class DegreeRecord:
    node: int
    degree: int


class Graph:
    """Undirected simple graph in CSR form.

    Attributes:
        n: number of nodes.
        offsets: int64 array of length n+1; node i's neighbors live in
            neighbors[offsets[i]:offsets[i+1]], sorted ascending.
        neighbors: flattened adjacency (each undirected edge appears twice).
        degrees: per-node degree, degrees[i] == offsets[i+1]-offsets[i].
        d_max: the largest degree, 0 when there are no nodes.
        m_edges: number of undirected edges, sum(degrees) == 2*m_edges.
        original_ids: mapping from dense node id back to the input id.
    """

    __slots__ = ("n", "offsets", "neighbors", "degrees", "d_max", "m_edges", "original_ids")

    def __init__(self, offsets: np.ndarray, neighbors: np.ndarray,
                 original_ids: np.ndarray | None = None):
        """Check and store a CSR. The walk reads degrees from offsets, so
        ValueError names the array when one is not 1-D integers that fit
        int64, offsets does not start at 0, decreases or does not end at
        len(neighbors), a neighbor lies outside [0, n) or has degree 0
        (where a walk with alpha = 0 is stuck), or original_ids is not n
        non-negative ids. Adjacency symmetry is not checked. A contiguous
        int64 array is kept as the graph's own and made read-only; any other
        input is copied."""
        if original_ids is None:
            original_ids = np.arange(max(np.size(offsets) - 1, 0))
        arrays = [np.asarray(a) for a in (offsets, neighbors, original_ids)]
        for m, a in zip(_CACHE_MEMBERS, arrays):  # an empty list is float64
            if a.ndim != 1 or a.size and (a.dtype.kind not in "iu"
                                          or not np.can_cast(a.dtype, np.int64)):
                raise ValueError(f"{m}: {a.ndim}-D {a.dtype}, "
                                 "not 1-D integers that fit int64")
        off, nbr, ids = (np.ascontiguousarray(a, dtype=np.int64) for a in arrays)
        n = len(off) - 1
        degrees = np.diff(off)
        low = degrees.min(initial=1)  # 1 when there are no degrees
        if len(off) == 0 or off[0] != 0:
            raise ValueError("offsets: must start with 0")
        if low < 0:
            raise ValueError("offsets: decreases")
        if off[-1] != len(nbr):
            raise ValueError(f"offsets: ends at {off[-1]}, not len(neighbors) = {len(nbr)}")
        if len(nbr) and not (0 <= nbr.min() and nbr.max() < n):
            raise ValueError(f"neighbors: an id lies outside [0, {n})")
        if low == 0 and not degrees[nbr].all():
            raise ValueError("neighbors: lists a node of degree 0")
        if len(ids) != n:
            raise ValueError(f"original_ids: length {len(ids)}, not n = {n}")
        if len(ids) and ids.min() < 0:
            raise ValueError("original_ids: an id is negative")
        self.n, self.offsets, self.neighbors, self.degrees = n, off, nbr, degrees
        self.d_max, self.m_edges = int(degrees.max(initial=0)), len(nbr) // 2
        self.original_ids = ids
        for arr in (off, nbr, degrees, ids):
            arr.setflags(write=False)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, edges: np.ndarray, n: int | None = None,
                   original_ids: np.ndarray | None = None) -> "Graph":
        """Build a simple graph from an array of (u, v) pairs.

        Self-loops are dropped and duplicate/reversed edges collapsed. Node
        ids must already be dense in 0..n-1; pass `n` when isolated trailing
        nodes should be kept. Raises ValueError for ids outside [0, n),
        self-loops included, and for n above 3_037_000_499, where the sort
        key u*n+v would overflow int64.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if n is None:
            n = int(edges.max()) + 1 if len(edges) else 0
        if n > _MAX_NODES:
            raise ValueError(f"n={n} exceeds {_MAX_NODES}, the most nodes whose "
                             f"edge keys fit in int64")
        if len(edges) and (edges.min() < 0 or edges.max() >= n):
            raise ValueError(f"edge ids must lie in [0, n={n})")
        u, v = edges[:, 0], edges[:, 1]
        keep = u != v
        if not keep.all():
            u, v = u[keep], v[keep]
        # one key per directed arc; sorted, the keys order the arcs by
        # (src, dst), and equal neighbouring keys are duplicate edges
        m = len(u)
        key = np.empty(2 * m, dtype=np.int64)
        np.multiply(u, np.int64(n), out=key[:m])
        key[:m] += v
        np.multiply(v, np.int64(n), out=key[m:])
        key[m:] += u
        key.sort()
        first = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        if not first.all():
            key = key[first]
        src = key // n if n else key
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
        # key - src * n is the destination, so the key buffer becomes neighbors
        src *= n
        key -= src
        return cls(offsets, key, original_ids)

    # -- queries -----------------------------------------------------------

    def check_node(self, i: int, what: str = "node") -> int:
        """i as an int: TypeError unless it is an integer, IndexError
        naming it as `what` unless it lies in [0, n)."""
        i = operator.index(i)
        if not 0 <= i < self.n:
            raise IndexError(f"{what} {i} out of range [0, {self.n})")
        return i

    def degree(self, i: int) -> int:
        return int(self.degrees[self.check_node(i)])

    def neighbors_of(self, i: int) -> np.ndarray:
        i = self.check_node(i)
        return self.neighbors[self.offsets[i]:self.offsets[i + 1]]

    def average_degree(self) -> float:
        return 2.0 * self.m_edges / self.n if self.n else 0.0

    def to_edge_lines(self) -> Iterator[str]:
        """Render the edge list in the text format accepted by ingestion.

        Each undirected edge appears once as "u v" in original ids, with
        dense u < v, ordered by (u, v). Lines are formatted in numpy, about
        _EDGE_CHUNK edges at a time.
        """
        return chain.from_iterable(text.splitlines() for text in self._edge_texts())

    def _edge_texts(self) -> Iterator[str]:
        """The edge lines as one text per 2 * _EDGE_CHUNK arcs (about
        _EDGE_CHUNK edges), each line ending in "\\n"."""
        off, nbr, ids = self.offsets, self.neighbors, self.original_ids
        if not len(nbr):
            return
        udt = np.uint64 if int(ids.max()) >= 2 ** 32 else np.uint32
        for start in range(0, len(nbr), 2 * _EDGE_CHUNK):
            stop = min(start + 2 * _EDGE_CHUNK, len(nbr))
            # the source node of each arc in [start, stop)
            first = int(np.searchsorted(off, start, side="right")) - 1
            last = int(np.searchsorted(off, stop, side="left"))
            src = np.repeat(np.arange(first, last),
                            np.diff(np.clip(off[first:last + 1], start, stop)))
            dst = nbr[start:stop]
            at = np.flatnonzero(src < dst)
            if len(at):
                pairs = np.column_stack((src.take(at), dst.take(at)))
                yield _edge_text(ids.take(pairs), udt)

    # -- binary cache ------------------------------------------------------

    def save_npz(self, path) -> None:
        # uncompressed: ~50x faster to write than savez_compressed, ~3.3x
        # larger. np.savez adds ".npz" to a path, not to an open file
        with open(path, "wb") as fh:
            np.savez(fh, **{m: getattr(self, m) for m in _CACHE_MEMBERS})

    @classmethod
    def load_npz(cls, path) -> "Graph":
        """Read a cache written by save_npz (or np.savez_compressed).
        ValueError names the path and the fault: a file that is not a
        readable npz archive (edge-list text, a truncated zip, a member that
        fails its CRC or holds objects), or the member that is missing or
        that the constructor rejects."""
        try:
            data = np.load(path)
            if isinstance(data, np.lib.npyio.NpzFile):
                with data:
                    arrays = {m: data[m] for m in _CACHE_MEMBERS if m in data.files}
        except (ValueError, EOFError, zipfile.BadZipFile):
            data = None
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError(f"graph cache {path}: not a readable npz archive")
        missing = [m for m in _CACHE_MEMBERS if m not in arrays]
        if missing:
            raise ValueError(f"graph cache {path}: {missing[0]}: missing")
        try:
            return cls(*(arrays[m] for m in _CACHE_MEMBERS))
        except ValueError as exc:
            raise ValueError(f"graph cache {path}: {exc}") from None


def _edge_text(pairs: np.ndarray, udt: type) -> str:
    """Format (u, v) non-negative int64 id pairs as "u v\\n" lines, each id
    exactly as str() writes it. Digits are taken with udt (np.uint32 or
    np.uint64) arithmetic, which must hold every id."""
    mag = pairs.ravel().astype(udt)
    w = len(str(mag.max()))
    # one row per id: right-aligned and NUL-padded in w columns, then its separator
    rows = np.empty((len(mag), w + 1), dtype=np.uint8)
    rows[0::2, w] = ord(" ")
    rows[1::2, w] = ord("\n")
    ten = udt(10)
    for j in range(w - 1, -1, -1):
        quot = mag // ten
        np.add(mag - quot * ten, ord("0"), out=rows[:, j], casting="unsafe")
        if j < w - 1:
            rows[mag == 0, j] = 0
        mag = quot
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def ingest_edge_list(lines: Iterable[str]) -> Graph:
    """Parse an edge-list text stream into a Graph.

    One edge per line as two whitespace-separated non-negative integers
    that fit in int64; lines starting with '#' are comments. Input ids may
    be sparse; they are remapped densely and retained in
    Graph.original_ids. The stored graph is always undirected and simple,
    so a line and its reverse are the same edge.

    Raises:
        EdgeListParseError: malformed line (with its line number).
        ValueError: no edges in the input.
    """
    if isinstance(lines, str):
        lines = io.StringIO(lines)
    us: list[int] = []
    vs: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(lineno, f"expected two node ids, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(lineno, f"non-integer node id in {line!r}") from None
        if u < 0 or v < 0:
            raise EdgeListParseError(lineno, f"negative node id in {line!r}")
        if u > _INT64_MAX or v > _INT64_MAX:
            raise EdgeListParseError(
                lineno, f"node id out of int64 range (max {_INT64_MAX}) in {line!r}")
        us.append(u)
        vs.append(v)
    if not us:
        raise ValueError("empty edge list: no edges found in input")
    return _graph_from_raw_edges(np.array([us, vs], dtype=np.int64).T)


def _graph_from_raw_edges(raw_edges: np.ndarray) -> Graph:
    """Remap sparse input ids densely and build the graph."""
    top = int(raw_edges.max())
    if top < 4 * raw_edges.size:  # a presence table, ~8x faster than np.unique
        present = np.zeros(top + 1, dtype=bool)
        present[raw_edges] = True
        original_ids = np.flatnonzero(present)
        lo = int(original_ids[0])
        if len(original_ids) == top - lo + 1:  # one contiguous range lo..top
            dense = raw_edges - lo if lo else raw_edges
        else:
            dense = (np.cumsum(present, dtype=np.int64) - 1)[raw_edges]
    else:  # a wide id range: np.unique keeps memory bounded by the edges
        original_ids, dense = np.unique(raw_edges, return_inverse=True)
    return Graph.from_edges(dense.reshape(raw_edges.shape), n=len(original_ids),
                            original_ids=original_ids)


_ID_BYTES = b"0123456789"
_COMMENT_LINE = re.compile(rb"\n#[^\n]*")
_TAB_TO_BLANK = bytes.maketrans(b"\t", b" ")


def _parse_edges_fast(text: bytes) -> np.ndarray | None:
    """Parse edge-list bytes in one vectorized pass.

    Takes m >= 1 lines "u v" of unsigned decimal ids that fit int64, with
    one blank or tab between the ids, LF or CRLF ends (mixed ones too),
    comment lines with '#' in the first column and a missing final newline,
    and returns their (m, 2) int64 edges. Returns None for any other text:
    non-ASCII bytes, a bare '\\r', any other '#', runs of blanks, blanks at
    line ends, blank lines, a byte outside digits and separators (a sign
    included), a line without exactly two ids, or an id outside int64. The
    line loop decides those, so malformed input keeps its exact line number
    and a signed id or a blank layout is read as before.
    """
    if not text.isascii() or (b"\r" in text
                              and text.count(b"\r") != text.count(b"\r\n")):
        return None
    if b"#" in text:
        text = _COMMENT_LINE.sub(b"", text)
        if text.startswith(b"#"):  # a comment on the first line
            text = text.partition(b"\n")[2]
    if not text.endswith(b"\n"):  # else "9 \n1" would pass as one "9 1" line
        text += b"\n"
    # the separators left once digits and '\r' are deleted and tabs read as
    # blanks fix the line shape and rule out any other byte; np.fromstring,
    # which reads tabs and CRLF ends as separators, converts the ids
    seps = text.translate(_TAB_TO_BLANK, _ID_BYTES + b"\r")
    m = len(seps) // 2
    if not m or seps != b" \n" * m:
        return None
    with warnings.catch_warnings():
        # on a text it cannot read to its end, numpy 1.x returns what it read
        # and warns; numpy 2.x raises
        warnings.simplefilter("error", DeprecationWarning)
        try:
            ids = np.fromstring(text, dtype=np.int64, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    if len(ids) != 2 * m:
        return None
    # np.fromstring saturates an id beyond int64 to the int64 maximum
    at_max = np.flatnonzero(ids == _INT64_MAX).tolist()
    if at_max:
        tokens = text.split()
        if any(int(tokens[i]) != _INT64_MAX for i in at_max):
            return None
    return ids.reshape(m, 2)


def load_edge_list(path) -> Graph:
    """Read an edge-list file; the format is that of `ingest_edge_list`.

    Files of "u v" lines with one blank or tab between the ids, LF or CRLF
    ends and '#' comment lines take one vectorized pass; anything else, runs
    of blanks and blank lines included, goes through the `ingest_edge_list`
    line loop.
    """
    with open(path, "rb") as fh:
        edges = _parse_edges_fast(fh.read())
    if edges is not None:
        return _graph_from_raw_edges(edges)
    with open(path, "r", encoding="utf-8") as fh:
        return ingest_edge_list(fh)


def check_k(k: int, n: int | None = None) -> int:
    """k as an int: TypeError unless it is an integer, ValueError unless
    k >= 1 and, when n is given, k <= n."""
    k = operator.index(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n is not None and k > n:
        raise ValueError(f"k={k} exceeds node count n={n}")
    return k


def exact_top_k(g: Graph, k: int) -> list[DegreeRecord]:
    """Deterministic top-k nodes by degree, ties broken by ascending id,
    from a size-k partial selection."""
    k = check_k(k, g.n)
    # composite key: larger degree first, then smaller id; strictly ordered
    key = g.degrees.astype(np.int64) * np.int64(g.n) - np.arange(g.n, dtype=np.int64)
    cand = np.argpartition(-key, k - 1)[:k] if k < g.n else np.arange(g.n)
    top = cand[np.argsort(-key[cand], kind="stable")]
    return [DegreeRecord(int(i), int(g.degrees[i])) for i in top]
