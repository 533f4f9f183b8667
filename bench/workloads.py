"""The benchmark's workloads and its closed-loop client.

Every op is composed from the public calls the CLI makes, so the benchmark
measures each layer from outside and the library needs no hooks. Each
workload is single-client and closed-loop: op i+1 starts when op i ends.

All graphs are generate_pa(n, edges_per_node=1, attractiveness=0.5,
seed=GRAPH_SEED), walked with alpha = 2.

Each workload draws its ops from a fixed corpus of inputs (walk seeds and
query kinds); the workload seed shuffles the order in which the corpus is
run. A run measures whole passes over the corpus, as many as take about
--seconds at the op time measured on the reference machine (2-core Xeon,
Python 3.11, numpy 2.4) when the benchmark was defined, so every commit and
every seed is measured on the same set of ops.
Both choices keep the figures steady:
  - PA graphs of these sizes differ a lot between generator seeds: at
    n = 1e5 over ten seeds, d_max ranged 177-453 and the mean hitting time
    of the top node 1166-2808 steps;
  - the cost of one stopping-rule query varies a lot between walk seeds:
    the coefficient of variation of the op time was 0.42 for r2_k10, 0.28
    for r1_k10 and 0.24 for r0_k50. With seed-derived queries and a 20 s
    time window, five seeds of query_mix_100k gave quartile spreads of
    0.22 (op_p50_ms), 0.71 (op_tail_ms) and 0.11 (ops_per_s);
  - with a time window the op count moves with the speed of the code, and
    op_tail_ms, the 11th-slowest op, then jumps between query kinds.
"""

from __future__ import annotations

import io
import resource
import statistics
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from degreewalk import cli
from degreewalk.detector import (StopDecision, detect_fixed_m_decision,
                                 detect_with_rule)
from degreewalk.generators import PAConfig, generate_pa
from degreewalk.graph import Graph, exact_top_k, load_edge_list
from degreewalk.walk import EveryStep, Mode, Thinned, WalkConfig

from tracing import NullTracer

GRAPH_SEED = 7
ALPHA = 2.0
THINNED = Thinned(transient=100, q=0.5)


class CheckFailed(Exception):
    """An op returned output that does not match what the library promises."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def derive(*keys: int) -> int:
    """A 32-bit seed that is a pure function of the given non-negative keys."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


@dataclass(frozen=True)
class Query:
    """One detect query kind, as the CLI's detect subcommand runs it."""

    kind: str
    k: int
    rule: str         # "fixed", "r0", "r1" or "r2"
    threshold: float  # m for "fixed", a_bar for r0/r1, b_bar for r2
    mode: Mode

    def config(self, seed: int) -> WalkConfig:
        return WalkConfig(alpha=ALPHA, seed=seed, mode=self.mode)

    def run(self, g: Graph, seed: int) -> StopDecision:
        cfg = self.config(seed)
        if self.rule == "fixed":
            return detect_fixed_m_decision(g, cfg, self.k, int(self.threshold))
        return detect_with_rule(g, cfg, self.k, self.rule, self.threshold)

    def cli_args(self, seed: int) -> list[str]:
        flag = {"fixed": "--m", "r0": "--a-bar", "r1": "--a-bar", "r2": "--b-bar"}[self.rule]
        value = str(int(self.threshold)) if self.rule == "fixed" else repr(self.threshold)
        if isinstance(self.mode, Thinned):
            mode = ["--mode", "thinned", "--q", repr(self.mode.q),
                    "--transient", str(self.mode.transient)]
        else:
            mode = ["--mode", "everystep"]
        return ["--k", str(self.k), "--rule", self.rule, flag, value,
                "--alpha", repr(ALPHA), *mode, "--seed", str(seed)]


QUERIES = {q.kind: q for q in (
    Query("r2_k10", 10, "r2", 7.0, THINNED),
    Query("fixed_k10", 10, "fixed", 12000, EveryStep()),
    Query("r1_k10", 10, "r1", 0.3, THINNED),
    Query("r0_k50", 50, "r0", 0.3, THINNED),
)}


def detect_csv(g: Graph, dec: StopDecision) -> str:
    """The bytes `degreewalk detect --out` writes for this decision."""
    lines = ["original_id,degree,hits"]
    lines += [f"{g.original_ids[node]},{deg},{hits}"
              for node, deg, hits in dec.final_list.entries()]
    return "\n".join(lines) + "\n"


def check_detect(g: Graph, query: Query, dec: StopDecision,
                 true_top: set[int]) -> float:
    """Validate one detect result and return its top-k recall."""
    entries = dec.final_list.entries()
    require(dec.fired, f"{query.kind}: the stopping rule did not fire")
    require(len(entries) == query.k, f"{query.kind}: {len(entries)} entries, want {query.k}")
    ids = [node for node, _, _ in entries]
    require([deg for _, deg, _ in entries] == g.degrees[ids].tolist(),
            f"{query.kind}: returned degrees differ from g.degrees")
    return len(set(ids) & true_top) / query.k


def write_edge_list(g: Graph, path: Path) -> None:
    """Write the graph's text edge list as `degreewalk generate --out` does."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(g.to_edge_lines()) + "\n")


def cli_detect_check(cache: Path, query: Query, seed: int, csv: str, out: Path) -> None:
    """The benchmark's detect op must write the same bytes as the CLI."""
    with redirect_stdout(io.StringIO()):
        code = cli.main(["detect", str(cache), *query.cli_args(seed), "--out", str(out)])
    require(code == 0, f"cli detect exited with {code}")
    require(out.read_bytes() == csv.encode("utf-8"),
            f"{query.kind}: op output differs from `degreewalk detect` output")


@dataclass
class Outcome:
    """What one op returned; `check` fills in recall and steps."""

    entry: int
    kind: str
    detects: list[tuple[Query, int, StopDecision]] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    recall: float = float("nan")
    steps: float = float("nan")


class Workload:
    name = ""
    tag = 0        # keeps the seeds of different workloads apart
    n = 0
    corpus = 0       # inputs; top_k_recall and walk_steps_per_query cover all of them
    op_s = 0.0       # op time on the reference machine; sizes a run from --seconds
    setup_reps = 5   # setup_s is a median over this many set-ups

    def __init__(self, seed: int, workdir: Path, tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.text_path = workdir / "graph.txt"
        self.cache_path = workdir / "graph.npz"
        self.g: Graph | None = None
        self.true_top: dict[int, set[int]] = {}

    def ops_for(self, seconds: float) -> int:
        """Whole passes over the corpus, as many as take about `seconds`."""
        return self.corpus * max(1, round(seconds / (self.corpus * self.op_s)))

    def entry(self, i: int) -> int:
        """The corpus entry op i runs: each pass over the corpus is shuffled
        by the workload seed."""
        p, j = divmod(i, self.corpus)
        return int(np.random.default_rng(derive(self.seed, self.tag, 1, p)).permutation(self.corpus)[j])

    def entry_seed(self, j: int) -> int:
        return derive(self.tag, 0, j)

    def generate(self) -> Graph:
        with self.tracer.span("generators.generate_pa"):
            return generate_pa(PAConfig(n=self.n, edges_per_node=1,
                                        attractiveness=0.5, seed=GRAPH_SEED))

    def find_top(self, g: Graph, ks) -> None:
        # untraced: graph.exact_top_k spans hold the probe's k=10 calls only
        self.true_top = {k: {r.node for r in exact_top_k(g, k)} for k in ks}

    def load_cached(self, g: Graph) -> None:
        """Write the graph's .npz cache and load the graph back from it."""
        with self.tracer.span("graph.save_npz"):
            g.save_npz(self.cache_path)
        with self.tracer.span("graph.load_npz"):
            self.g = Graph.load_npz(self.cache_path)

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, j: int) -> Outcome:
        """Run corpus entry j."""
        raise NotImplementedError

    def check(self, out: Outcome) -> None:
        raise NotImplementedError

    def cross_check(self, first: Outcome) -> None:
        raise NotImplementedError

    def inputs(self) -> dict:
        def size(p: Path):
            return p.stat().st_size if p.exists() else None

        g = self.g
        return {"n": g.n, "edges": g.m_edges, "d_max": int(g.degrees.max()),
                "csr_bytes": int(g.offsets.nbytes + g.neighbors.nbytes),
                "text_bytes": size(self.text_path), "cache_bytes": size(self.cache_path)}


class IngestDetect(Workload):
    """What a new user runs: `ingest --cache` on a text edge list, then
    `detect` on the cache. Parsing and the cache write dominate the op, so
    this is the workload where ingest and cache work shows."""

    name = "ingest_detect_1m"
    tag = 1
    n = 1_000_000
    corpus = 4       # 4 ops a run: op_tail_ms is their maximum
    op_s = 5.4
    setup_reps = 2   # one set-up takes 7-11 s
    query = QUERIES["r2_k10"]

    def setup(self) -> None:
        g = self.generate()
        with self.tracer.span("graph.to_edge_lines"):
            write_edge_list(g, self.text_path)
        self.find_top(g, (10,))
        self.g = g

    def op(self, j: int) -> Outcome:
        tr, seed = self.tracer, self.entry_seed(j)
        with tr.span("op"):
            with tr.span("graph.load_edge_list"):
                parsed = load_edge_list(self.text_path)
            with tr.span("graph.save_npz"):
                parsed.save_npz(self.cache_path)
            with tr.span("graph.load_npz"):
                g = Graph.load_npz(self.cache_path)
            with tr.span("detector.detect." + self.query.kind):
                dec = self.query.run(g, seed)
            with tr.span("op.write_csv"):
                csv = detect_csv(g, dec)
                with open(self.workdir / "top.csv", "w", encoding="utf-8") as fh:
                    fh.write(csv)
        return Outcome(j, self.query.kind, [(self.query, seed, dec)],
                       {"parsed": parsed, "loaded": g, "csv": csv})

    def check(self, out: Outcome) -> None:
        parsed, g = out.extra.pop("parsed"), out.extra.pop("loaded")
        for name in ("offsets", "neighbors", "original_ids"):
            require(np.array_equal(getattr(g, name), getattr(parsed, name)),
                    f"load_npz {name} differs from the parsed graph")
        # the traced replay walks self.g in place of the op's graph
        require(np.array_equal(parsed.offsets, self.g.offsets)
                and np.array_equal(parsed.neighbors, self.g.neighbors),
                "the parsed graph differs from the generated graph")
        _, _, dec = out.detects[0]
        out.recall = check_detect(g, self.query, dec, self.true_top[10])
        out.steps = dec.raw_steps

    def cross_check(self, first: Outcome) -> None:
        # every op writes the same cache, so the last one serves the CLI
        _, seed, _ = first.detects[0]
        cli_detect_check(self.cache_path, self.query, seed, first.extra["csv"],
                         self.workdir / "cli_top.csv")


class QueryMix(Workload):
    """One detect query per op on a graph loaded once, in fixed shares:
    40% r2_k10, 20% fixed_k10, 25% r1_k10, 15% r0_k50. A 30 s run is two
    passes, each shuffled, over a corpus of 60 distinct queries: 120 ops.
    Distinct queries, not repeats of fewer, keep the op times free of gaps
    that the median and the tail could jump across. op_p50_ms and
    op_tail_ms are taken over all 120 op times. The median lands among the
    72 fast r2/fixed ops; the tail (the 11th slowest of 120, p91.7) among
    the 18 r0_k50 ops, above the r1_k10 ones; in both kinds the candidate
    list and the rule take over half the time. Contention from other
    tenants of a shared host moves the time of one query by 11-15% from
    run to run (median coefficient of variation over 14 round-robin
    passes), so the median and the tail are order statistics over all 120
    ops, not over fewer per-query times."""

    name = "query_mix_100k"
    tag = 2
    n = 100_000
    corpus = 60
    op_s = 0.30
    setup_reps = 3
    block = (["r2_k10"] * 8 + ["fixed_k10"] * 4 + ["r1_k10"] * 5 + ["r0_k50"] * 3)

    def setup(self) -> None:
        self.load_cached(self.generate())
        self.find_top(self.g, (10, 50))

    def op(self, j: int) -> Outcome:
        tr, seed = self.tracer, self.entry_seed(j)
        query = QUERIES[self.block[j % len(self.block)]]
        with tr.span("op"):
            with tr.span("detector.detect." + query.kind):
                dec = query.run(self.g, seed)
            with tr.span("op.format_csv"):
                csv = detect_csv(self.g, dec)
        return Outcome(j, query.kind, [(query, seed, dec)], {"csv": csv})

    def check(self, out: Outcome) -> None:
        query, _, dec = out.detects[0]
        out.recall = check_detect(self.g, query, dec, self.true_top[query.k])
        out.steps = dec.raw_steps

    def cross_check(self, first: Outcome) -> None:
        query, seed, _ = first.detects[0]
        cli_detect_check(self.cache_path, query, seed, first.extra["csv"],
                         self.workdir / "cli_top.csv")


WORKLOADS = {w.name: w for w in (IngestDetect, QueryMix)}


@dataclass
class Phase:
    """The ops of one closed-loop phase."""

    outcomes: list[Outcome] = field(default_factory=list)
    durations: list[float] = field(default_factory=list)  # seconds, successful ops only
    spent: float = 0.0      # seconds of op time, failed ops included
    attempted: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.attempted - len(self.outcomes)

    @property
    def ops_per_s(self) -> float:
        return len(self.outcomes) / self.spent


def attempt(errors: list[str], label: str, fn, *args) -> tuple[bool, object]:
    """Run fn; on any exception record it and return (False, None). An op
    failure must not stop the loop: it counts against the ops attempted."""
    try:
        return True, fn(*args)
    except Exception:
        errors.append(f"{label}: {traceback.format_exc(limit=4)}")
        return False, None


def run_op(wl: Workload, phase: Phase, i: int) -> None:
    """Run op i on its corpus entry and add it to phase. The output check
    runs after the op, untimed."""
    j = wl.entry(i)
    wl.tracer.op = i
    t = perf_counter()
    ok, out = attempt(phase.errors, f"op {i} (entry {j})", wl.op, j)
    dur = perf_counter() - t
    wl.tracer.op = None
    phase.spent += dur
    phase.attempted += 1
    if ok:
        ok, _ = attempt(phase.errors, f"check {i} (entry {j})", wl.check, out)
    if ok:
        phase.outcomes.append(out)
        phase.durations.append(dur)


def run_ops(wl: Workload, count: int) -> Phase:
    """Closed loop, one client: ops 0..count-1."""
    phase = Phase()
    for i in range(count):
        run_op(wl, phase, i)
    return phase


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10
    samples beyond it. Below 20 samples that percentile would fall under the
    median, so the maximum is reported instead."""
    d = sorted(durations)
    if len(d) < 20:
        return d[-1], 100.0
    return d[len(d) - 11], 100.0 * (len(d) - 10) / len(d)


def end_to_end(wl: Workload, seconds: float, setup_s: float, meta: dict):
    """The untraced run: returns (metrics, attempted, failed, errors).

    op_p50_ms and op_tail_ms are taken over every successful op, ops_per_s
    counts every op. top_k_recall and walk_steps_per_query cover the whole
    corpus once, so they repeat exactly."""
    phase = run_ops(wl, wl.ops_for(seconds))
    errors = list(phase.errors)
    wl.tracer = NullTracer()
    if phase.outcomes:
        attempt(errors, "cross-check", wl.cross_check, phase.outcomes[0])
    corpus = list({o.entry: o for o in phase.outcomes}.values())
    if not phase.durations:
        return {}, phase.attempted, phase.failed, errors
    times = phase.durations
    value, pct = tail(times)
    meta["op_time_samples"] = len(times)
    meta["op_tail_percentile"] = pct
    meta["ops_by_kind"] = {k: sum(o.kind == k for o in phase.outcomes)
                           for k in sorted({o.kind for o in phase.outcomes})}
    rate = (phase.attempted - phase.failed) / phase.attempted
    m = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms"),
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (rate, "ratio"),
        "top_k_recall": (statistics.fmean(o.recall for o in corpus), "ratio"),
        "walk_steps_per_query": (statistics.fmean(o.steps for o in corpus), "count"),
    }
    return ({k: {"value": v, "unit": u} for k, (v, u) in m.items()},
            phase.attempted, phase.failed, errors)
