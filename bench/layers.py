"""The traced run and its per-layer metrics.

The run has three parts after set-up:
  1. a closed loop over a quarter of a run's ops (two at least) in which
     each op runs twice in a row, once with tracing off and once with spans
     around every public call, the order alternating from op to op; the
     difference in ops_per_s between the two halves is the tracing
     overhead, and slow drift of the host falls on both halves alike;
  2. a replay of every detect op: the walk is re-run from outside with
     sample_stream and its visits are fed to a fresh CandidateList and the
     public stopping rules, which times the walk and the detector apart.
     The replay must end at the op's fired_at_samples and raw_steps with the
     same entries(), or the run is marked incorrect;
  3. probes that time, on the workload's graph and with fixed seeds, each
     layer the workload's ops do not call, plus one detect query of each
     kind, whose counts therefore repeat exactly. The probe of the paper's
     experiment tables checks their output too: rows, trial ids, no
     timeouts, accuracy means that do not fall as m grows and stay in
     [0, k], exact/poisson columns equal to expected_correct_count, and the
     same CSV body when run again with the same master seed.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from time import perf_counter

from degreewalk.analytics import (expected_correct_count,
                                  expected_return_time_max, stationary)
from degreewalk.detector import (CandidateList, rule1_threshold,
                                 stopping_rule_0, stopping_rule_1,
                                 stopping_rule_2)
from degreewalk.experiments import (AccuracyCurvePlan, HittingTimePlan,
                                    read_csv_body, run_accuracy_curve,
                                    run_hitting_time, write_csv)
from degreewalk.graph import Graph, exact_top_k, load_edge_list
from degreewalk.walk import (EveryStep, Thinned, WalkConfig, sample_stream,
                             walk_until_hit)

from tracing import NullTracer
from workloads import (ALPHA, QUERIES, THINNED, Phase, Query, Workload, attempt,
                       derive, require, run_op, write_edge_list)

REPS = 5                 # repeats of each sub-millisecond probe
STREAM_STEPS = 100_000   # raw steps per ns_per_step probe
MICRO_STEPS = 40_000     # visits in the recorded stream for update/rule costs
PROBE_HIT_RUNS = 50
ACC_K = 10               # the paper's accuracy-vs-budget table
ACC_GRID = (2000, 6000, 12000, 18000)
ACC_MODE = Thinned(transient=100, q=0.05)


@dataclass
class Replay:
    kind: str
    walk_s: float
    detector_s: float
    raw_steps: int
    samples: int
    distinct_nodes: int


def firing_test(query: Query):
    """The test detect_* applies after each sample, built from public calls."""
    if query.rule == "fixed":
        m = int(query.threshold)
        return lambda lst, samples: samples >= m
    if query.rule == "r0":
        return lambda lst, samples: stopping_rule_0(lst, query.threshold)
    if query.rule == "r1":
        x0 = rule1_threshold(query.k, query.threshold)
        return lambda lst, samples: stopping_rule_1(lst, x0)
    return lambda lst, samples: stopping_rule_2(lst, query.threshold)


def replay(g: Graph, query: Query, seed: int, dec) -> Replay:
    """Re-walk one detect op and re-run its candidate list from outside.

    sample_stream with EveryStep gives every visit; with the op's Thinned
    mode it gives the kept step indices. walk_s times the EveryStep pass
    only, table set-up included, so it stands for one walk of the op.
    """
    cfg = replace(query.config(seed), max_steps=dec.raw_steps)
    t = perf_counter()
    nodes = [s.node for s in sample_stream(g, replace(cfg, mode=EveryStep()))]
    walk_s = perf_counter() - t
    kept = (None if isinstance(cfg.mode, EveryStep)
            else {s.step_index for s in sample_stream(g, cfg)})
    fires = firing_test(query)
    degrees = g.degrees
    lst = CandidateList(query.k)
    samples, fired_at = 0, None
    t = perf_counter()
    for step, node in enumerate(nodes, start=1):
        deg = int(degrees[node])
        if kept is None or step in kept:
            samples += 1
            lst.update(node, deg)
            if fires(lst, samples):
                fired_at = (samples, step)
                break
        else:
            lst.observe(node, deg)
    detector_s = perf_counter() - t
    require(fired_at == (dec.fired_at_samples, dec.raw_steps),
            f"{query.kind} seed {seed}: replay fired at {fired_at}, the op at "
            f"{(dec.fired_at_samples, dec.raw_steps)}")
    require(lst.entries() == dec.final_list.entries(),
            f"{query.kind} seed {seed}: replay entries differ from the op's")
    return Replay(query.kind, walk_s, detector_s, dec.raw_steps, samples, len(set(nodes)))


def detector_costs(g: Graph, seed: int) -> dict[str, float]:
    """ns per visit fed to CandidateList, and ns per rule evaluation, on one
    recorded thinned stream. A rule's cost is the time of feeding the stream
    with the rule evaluated after every sample, minus the time without it."""
    cfg = WalkConfig(alpha=ALPHA, seed=seed, max_steps=MICRO_STEPS, mode=THINNED)
    nodes = [s.node for s in sample_stream(g, replace(cfg, mode=EveryStep()))]
    kept = {s.step_index for s in sample_stream(g, cfg)}
    stream = [(node, int(g.degrees[node]), step in kept)
              for step, node in enumerate(nodes, start=1)]
    samples = len(kept)

    def feed(k: int, rule=None) -> float:
        lst = CandidateList(k)
        t = perf_counter()
        for node, deg, sampled in stream:
            if sampled:
                lst.update(node, deg)
                if rule is not None:
                    rule(lst)
            else:
                lst.observe(node, deg)
        return perf_counter() - t

    out = {}
    for k in (10, 50):
        base = statistics.median(feed(k) for _ in range(3))
        out[f"detector.update_ns.k{k}"] = base / len(stream) * 1e9
        x0 = rule1_threshold(k, 0.3)
        rules = {"r0": lambda lst: stopping_rule_0(lst, 0.3),
                 "r1": lambda lst: stopping_rule_1(lst, x0),
                 "r2": lambda lst: stopping_rule_2(lst, 7.0)}
        for name, rule in rules.items():
            with_rule = statistics.median(feed(k, rule) for _ in range(3))
            out[f"detector.rule_ns.{name}.k{k}"] = (with_rule - base) / samples * 1e9
    return out


def experiment_tables(wl: Workload, master: int) -> tuple[dict, tuple[str, str]]:
    """The paper's hitting-time and accuracy tables on the workload's graph,
    each written with write_csv and read back, with their output checked.
    Returns the hitting-time summary and the two CSV bodies."""
    tr, g = wl.tracer, wl.g
    with tr.span("experiments.run_hitting_time", trials=PROBE_HIT_RUNS):
        hit_rows, hit_sum = run_hitting_time(g, HittingTimePlan(
            walk=WalkConfig(alpha=ALPHA), runs=PROBE_HIT_RUNS, master_seed=master))
    with tr.span("experiments.run_accuracy_curve", trials=1):
        acc_rows, acc_sum = run_accuracy_curve(g, AccuracyCurvePlan(
            walk=WalkConfig(alpha=ALPHA, mode=ACC_MODE), k=ACC_K,
            m_grid=ACC_GRID, runs=1, master_seed=master))
    bodies = []
    for name, header, rows, summary in (
            ("hitting", ["trial", "steps"], hit_rows, hit_sum),
            ("accuracy", ["m", "mean_correct", "ci95", "exact", "poisson"], acc_rows, acc_sum)):
        path = wl.workdir / f"probe_{name}.csv"
        with tr.span("experiments.write_csv"):
            write_csv(path, header, rows, summary=summary)
        bodies.append(read_csv_body(path))
    require([t for t, _ in hit_rows] == list(range(PROBE_HIT_RUNS)),
            "hitting rows are not trials 0..runs-1")
    require(hit_sum["timeouts"] == 0 and all(s != "timeout" for _, s in hit_rows),
            "a hitting trial timed out")
    require([r[0] for r in acc_rows] == list(ACC_GRID), "accuracy rows do not follow the m grid")
    means = [r[1] for r in acc_rows]
    require(all(0.0 <= x <= ACC_K for x in means), "an accuracy mean is outside [0, k]")
    require(all(a <= b for a, b in zip(means, means[1:])), "accuracy falls as m grows")
    pis = stationary(g, ALPHA).probs[[r.node for r in exact_top_k(g, ACC_K)]]
    require(all((r[3], r[4]) == (expected_correct_count(pis, r[0], "exact"),
                                 expected_correct_count(pis, r[0], "poisson"))
                for r in acc_rows),
            "exact/poisson columns differ from expected_correct_count")
    require(bodies[0].count("\n") == PROBE_HIT_RUNS + 2
            and bodies[1].count("\n") == len(ACC_GRID) + 2,
            "a CSV body does not hold header, rows and summary")
    return hit_sum, tuple(bodies)


def probe(wl: Workload, replays: list[Replay]) -> dict:
    """Time each layer once on the workload's graph; see the module doc."""
    tr, g = wl.tracer, wl.g
    tr.op = "probe"
    key = lambda j: derive(wl.tag, 2, j)
    if not wl.text_path.exists():
        with tr.span("graph.to_edge_lines"):
            write_edge_list(g, wl.text_path)
        with tr.span("graph.load_edge_list"):
            load_edge_list(wl.text_path)
    for _ in range(REPS):
        with tr.span("graph.exact_top_k"):
            exact_top_k(g, 10)
        with tr.span("walk.walk_until_hit"):
            walk_until_hit(g, WalkConfig(alpha=ALPHA), 0, 0)  # start == target: table set-up only
    for j in range(3):
        with tr.span("walk.sample_stream", steps=STREAM_STEPS):
            for _ in sample_stream(g, WalkConfig(alpha=ALPHA, seed=key(j),
                                                 max_steps=STREAM_STEPS)):
                pass
    counts = {}
    for j, query in enumerate(QUERIES.values()):
        seed = key(100 + j)
        with tr.span("detector.detect." + query.kind):
            dec = query.run(g, seed)
        rep = replay(g, query, seed, dec)
        replays.append(rep)
        counts[query.kind] = rep
    micro = detector_costs(g, key(200))
    hit_sum, bodies = experiment_tables(wl, key(300))
    require(experiment_tables(wl, key(300))[1] == bodies,
            "re-running the experiment tables with the same master seed changed their CSV bodies")
    top = [r.node for r in exact_top_k(g, 10)]
    for _ in range(REPS):
        with tr.span("analytics.stationary"):
            pis = stationary(g, ALPHA).probs[top]
        with tr.span("analytics.expected_correct_count"):
            expected_correct_count(pis, 12000, "exact")
        with tr.span("analytics.return_time"):
            expected_return_time_max(g, ALPHA)
    tr.op = None
    return {"counts": counts, "micro": micro, "hitting_mean": hit_sum["mean"]}


def traced_run(wl: Workload, seconds: float) -> tuple[dict, int, int, list[str], list[str]]:
    """Returns (per-layer metrics, attempted, failed, errors, report lines)."""
    tracer = wl.tracer
    untraced, traced = Phase(), Phase()
    for i in range(max(2, wl.ops_for(seconds) // 4)):
        pair = [(NullTracer(), untraced), (tracer, traced)]
        for mode, phase in (pair if i % 2 == 0 else pair[::-1]):
            wl.tracer = mode
            run_op(wl, phase, i)
    wl.tracer = tracer
    errors = untraced.errors + traced.errors
    replays: list[Replay] = []
    for out in traced.outcomes:
        for query, seed, dec in out.detects:
            ok, rep = attempt(errors, f"replay entry {out.entry}", replay, wl.g, query, seed, dec)
            if ok:
                replays.append(rep)
    ok, found = attempt(errors, "probe", probe, wl, replays)
    if not ok:
        return {}, untraced.attempted + traced.attempted, \
            untraced.failed + traced.failed, errors, []

    tr = tracer
    own = tr.self_times()
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    def by_kind(kind: str, attr: str) -> float:
        return statistics.median(getattr(r, attr) for r in replays if r.kind == kind)

    setup_ms = tr.median_s("walk.walk_until_hit") * 1e3
    inputs = wl.inputs()
    put("generators.generate_pa_s", tr.median_s("generators.generate_pa"), "s")
    put("graph.to_edge_lines_s", tr.median_s("graph.to_edge_lines"), "s")
    put("graph.load_edge_list_s", tr.median_s("graph.load_edge_list"), "s")
    put("graph.save_npz_s", tr.median_s("graph.save_npz"), "s")
    put("graph.load_npz_s", tr.median_s("graph.load_npz"), "s")
    put("graph.exact_top_k_ms", tr.median_s("graph.exact_top_k") * 1e3, "ms")
    put("graph.text_bytes", inputs["text_bytes"], "bytes")
    put("graph.cache_bytes", inputs["cache_bytes"], "bytes")
    put("graph.csr_bytes", inputs["csr_bytes"], "bytes")
    put("walk.setup_ms", setup_ms, "ms")
    put("walk.ns_per_step",
        (tr.median_s("walk.sample_stream") - setup_ms / 1e3) / STREAM_STEPS * 1e9, "ns")
    for kind in QUERIES:
        put(f"walk.self_ms.{kind}", by_kind(kind, "walk_s") * 1e3, "ms")
        put(f"detector.self_ms.{kind}", by_kind(kind, "detector_s") * 1e3, "ms")
        put(f"detector.detect_ms.{kind}", tr.median_s(f"detector.detect.{kind}") * 1e3, "ms")
    for name, value in found["micro"].items():
        put(name, value, "ns")
    for kind, rep in found["counts"].items():
        put(f"walk.raw_steps.{kind}", rep.raw_steps, "count")
        put(f"walk.samples.{kind}", rep.samples, "count")
        put(f"walk.distinct_nodes.{kind}", rep.distinct_nodes, "count")
    put("walk.hitting_steps_mean", found["hitting_mean"], "count")
    put("experiments.hitting_trials_per_s", tr.rate("experiments.run_hitting_time", "trials"), "1/s")
    put("experiments.accuracy_trials_per_s", tr.rate("experiments.run_accuracy_curve", "trials"), "1/s")
    put("experiments.write_csv_ms", tr.median_s("experiments.write_csv") * 1e3, "ms")
    put("analytics.stationary_ms", tr.median_s("analytics.stationary") * 1e3, "ms")
    put("analytics.expected_correct_count_ms",
        tr.median_s("analytics.expected_correct_count") * 1e3, "ms")
    put("analytics.return_time_ms", tr.median_s("analytics.return_time") * 1e3, "ms")
    put("op.self_ms", statistics.median(own[s.sid] for s in tr.by_name("op")
                                        if s.op != "warmup") * 1e3, "ms")
    put("trace.ops_per_s_untraced", untraced.ops_per_s, "1/s")
    put("trace.ops_per_s_traced", traced.ops_per_s, "1/s")
    put("trace.overhead_ops_per_s", traced.ops_per_s - untraced.ops_per_s, "1/s")
    report = cost_report(wl, metrics, found["counts"])
    return (metrics, untraced.attempted + traced.attempted,
            untraced.failed + traced.failed, errors, report)


def cost_report(wl: Workload, metrics: dict, counts: dict[str, Replay]) -> list[str]:
    """The paper's cost next to the exact baseline, in plain words."""
    v = lambda name: metrics[name]["value"]
    n = wl.g.n
    lines = [f"paper cost on {wl.name} (n={n}), one probe query per kind:",
             f"  {'kind':<10} {'raw_steps':>10} {'samples':>9} {'distinct':>9} "
             f"{'of n':>6} {'detect_ms':>10}"]
    for kind, rep in counts.items():
        lines.append(f"  {kind:<10} {rep.raw_steps:>10} {rep.samples:>9} "
                     f"{rep.distinct_nodes:>9} {rep.distinct_nodes / n:>6.1%} "
                     f"{v(f'detector.detect_ms.{kind}'):>10.1f}")
    exact_ms, walk_ms = v("graph.exact_top_k_ms"), v("detector.detect_ms.r2_k10")
    lines.append(
        f"  exact_top_k with degrees in memory: {exact_ms:.2f} ms, "
        f"{walk_ms / exact_ms:.0f}x faster than r2_k10 detect ({walk_ms:.1f} ms). "
        f"The walk pays off only where reading every degree costs more than the "
        f"walk: load_edge_list here took {v('graph.load_edge_list_s'):.2f} s.")
    return lines
