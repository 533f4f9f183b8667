"""Measure a change against its parent in alternated pairs and write the
next BENCH_<NNN>.json.

    python3 tools/bench_snapshot.py [--pairs N] PARENT

PARENT is the parent's checkout; the change is the checkout that holds this
script. The script runs N >= 2 pairs (default 10) with seeds 1..N. The side
that runs first alternates from pair to pair, and one process runs at a
time. In each pair the two sides take every figure in turn:
  - each workload of the change's BENCHMARK.json, untraced
    (`bench/run.py --workload W --seed S --seconds T --trace 0`, with the
    side's own BENCHMARK.json command and T its run_seconds). A workload
    that the parent's BENCHMARK.json does not list runs on the change
    alone and is not compared;
  - one process that runs `python -c "import numpy"` and one that runs
    `python -c "import degreewalk.cli"` on the side's src; the second less
    the first is that pair's own start-up, degreewalk's share;
  - the tier-1 suite, run as CI runs it (`python -m pytest -q
    --continue-on-collection-errors -W error::RuntimeWarning
    --durations=10` in the checkout, its src on PYTHONPATH).
No run is dropped and no pair is re-seeded. After the pairs each side runs
each workload once traced (`--trace 1`, seed 1) for its per-layer metrics.

Then one process times the library alone, where process pairs spread too
widely to resolve a few percent. It imports both sides' src/degreewalk
under two package names and gives each side its own Graph, built from
copies of the arrays of the 1e5-node query_mix_100k graph. Each of 12
passes runs that workload's 60 corpus queries, with the kinds and walk
seeds bench/workloads.py gives them, in a seeded shuffled order; each query
runs on both sides back to back, a seeded coin picking the side that goes
first. Both sides must return equal fired, fired_at_samples, raw_steps and
entries(), or the stage fails. It records, per pass, the change's summed
op time over the parent's, their median and quartiles, and the passes the
change wins; or why it skipped: src/degreewalk is byte-identical on both
sides, or a side's call raised TypeError (a changed signature).

The BENCH file, kept at the root of this checkout, holds for each side its
git source, src_lines (`wc -l src/degreewalk/*.py`), machine, every run's
end-to-end metrics, correct, failed and calibration_ms, every start-up
pair, own_startup_s (the median of its own start-ups), every tier-1 run
and the traced per-layer metrics. `compare` holds, for each end-to-end
metric, own start-up and tier-1 wall time, each side's best, median and
quartiles (inclusive method, as numpy's default percentile) with the
relative quartile distance (q3 - q1) / median, the pairs the change wins
(a tie counts for neither side), the relative change of the medians,
whether it exceeds the parent's quartile distance, whether a gain claim
is met (the change wins at least nine tenths of the pairs and its median
is better than the parent's by more than that distance), and the bound.
A metric is `unresolved` when the parent's relative quartile distance is
wider than its bound, unless every change run is better than every parent
run: the pairs then cannot tell a change within the bound from the host's
spread. `in_process` holds the in-process stage.
The script prints one line per figure, and exits with 1 if the in-process
stage failed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PASSES = 12


def run_bench(root: Path, command: list[str], workload: str, seconds: float,
              trace: int, seed: int) -> tuple[dict, dict]:
    """(metadata, result) of one bench/run.py process: its last two lines."""
    argv = [sys.executable if command[0].startswith("python") else command[0],
            *command[1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["metadata"], json.loads(lines[-1])


def git_source(root: Path) -> dict:
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def startup_times(root: Path) -> dict[str, float]:
    """Wall seconds of one process that imports numpy alone, then of one
    that imports degreewalk.cli from root/src."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    times = {}
    for name, module in (("numpy_import_s", "numpy"), ("startup_s", "degreewalk.cli")):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True)
        times[name] = time.perf_counter() - start
    return times


def src_lines(root: Path) -> int:
    """Newlines in root's src/degreewalk/*.py: the total of `wc -l`."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "degreewalk").glob("*.py"))


def tier1(root: Path) -> dict:
    """Wall seconds, summary line and ten slowest tests of root's tier-1
    suite, run as CI runs it."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
            "-W", "error::RuntimeWarning", "--durations=10"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    slowest = [[float(m[1]), m[2], m[3]] for m in
               (re.match(r"([\d.]+)s (call|setup|teardown)\s+(\S+)$", line) for line in lines)
               if m]
    return {"wall_s": wall, "exit_code": proc.returncode,
            "summary": lines[-1].strip("= ") if lines else "", "slowest": slowest}


def spread(values: list[float], better: str) -> dict:
    """Best, median, quartiles and relative quartile distance of one side."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"best": min(values) if better == "lower" else max(values),
            "median": med, "q1": q1, "q3": q3,
            "rel_iqr": (q3 - q1) / abs(med) if med else float(q3 != q1)}


def compare(parent: list[float], change: list[float], metric: dict) -> dict:
    """Each side's spread and the change's wins over paired values of one
    metric, and whether the pairs resolve it within its bound."""
    a, b = spread(parent, metric["better"]), spread(change, metric["better"])
    sign = 1 if metric["better"] == "higher" else -1
    beats = min(sign * y for y in change) > max(sign * x for x in parent)
    bound = metric["bound"]
    wins = sum(sign * (y - x) > 0 for x, y in zip(parent, change))
    iqr = a["q3"] - a["q1"]
    return {"parent": a, "change": b, "change_wins": wins,
            "median_change": (b["median"] - a["median"]) / a["median"] if a["median"] else None,
            "beyond_parent_iqr": abs(b["median"] - a["median"]) > iqr,
            "claim_met": 10 * wins >= 9 * len(parent) and sign * (b["median"] - a["median"]) > iqr,
            "unresolved": bound is not None and a["rel_iqr"] > bound and not beats,
            "better": metric["better"], "bound": bound}


def number(path: Path) -> int:
    return int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))


def measure(parent: Path, change: Path, count: int) -> dict:
    """Alternated pairs of every figure of parent and change, then one
    traced run of each workload per side."""
    roots = dict(zip(SIDES, (parent, change)))
    specs = {side: json.loads((root / "BENCHMARK.json").read_text())
             for side, root in roots.items()}
    spec, seconds = specs["change"], specs["change"]["run_seconds"]
    listed = {side: {w["name"] for w in s["workloads"]} for side, s in specs.items()}
    names = [w["name"] for w in spec["workloads"]]
    sides = {side: {"source": git_source(root), "src_lines": src_lines(root),
                    "command": specs[side]["command"], "machine": None,
                    "workloads": {name: {"runs": []} for name in names if name in listed[side]},
                    "startup": [], "tier1": []}
             for side, root in roots.items()}
    first = []

    def run(side, name, trace, seed):
        print(f"{side}: {name} seed {seed} trace {trace}", file=sys.stderr, flush=True)
        meta, result = run_bench(roots[side], sides[side]["command"], name, seconds,
                                 trace, seed)
        sides[side]["machine"] = sides[side]["machine"] or meta["machine"]
        return {"seed": seed, "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "correct": result["correct"], "failed": result["failed"],
                "calibration_ms": meta["calibration_ms"],
                "op_time_samples": meta.get("op_time_samples")}

    for seed in range(1, count + 1):
        order = SIDES if seed % 2 else SIDES[::-1]
        first.append(order[0])
        for name in names:
            for side in order:
                if name in sides[side]["workloads"]:
                    sides[side]["workloads"][name]["runs"].append(run(side, name, 0, seed))
        for side in order:
            sides[side]["startup"].append(startup_times(roots[side]))
        for side in order:
            print(f"{side}: tier-1 suite, pair {seed}", file=sys.stderr, flush=True)
            sides[side]["tier1"].append(tier1(roots[side]))
    for side in SIDES:
        for name, wl in sides[side]["workloads"].items():
            wl["traced"] = run(side, name, 1, 1)

    own = {side: [s["startup_s"] - s["numpy_import_s"] for s in sides[side]["startup"]]
           for side in SIDES}
    for side in SIDES:
        sides[side]["own_startup_s"] = statistics.median(own[side])
    lower = {"better": "lower", "bound": None}
    out = {"pairs": count, "seconds": seconds, "first": first, "sides": sides,
           "compare": {"startup": {"own_startup_s": compare(own["parent"], own["change"], lower)},
                       "tier1": {"wall_s": compare(*([t["wall_s"] for t in sides[side]["tier1"]]
                                                     for side in SIDES), lower)}}}

    def values(side, name, metric):
        return [r["metrics"][metric] for r in sides[side]["workloads"][name]["runs"]]

    for name in names:
        out["compare"][name] = {
            m["name"]: compare(values("parent", name, m["name"]),
                               values("change", name, m["name"]), m)
            if name in listed["parent"] else
            {"change": spread(values("change", name, m["name"]), m["better"]),
             "better": m["better"]}
            for m in spec["end_to_end"]}
    return out


def load_package(src: Path, name: str):
    """Import the package in directory `src` as `name`. Its relative imports
    resolve under that name, so two trees of one package can be loaded side
    by side; a package loaded earlier under `name` is replaced whole."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def in_process(parent: Path, change: Path) -> dict:
    """The in-process stage (see the module docstring): a dict of the
    per-pass time ratios and their spread, {"skipped": why} or
    {"failed": the first query whose outputs differ}."""
    roots = dict(zip(SIDES, (parent, change)))
    trees = {side: {p.name: p.read_bytes() for p in (root / "src" / "degreewalk").glob("*.py")}
             for side, root in roots.items()}
    if trees["parent"] == trees["change"]:
        return {"skipped": "src/degreewalk is byte-identical on both sides"}
    for path in (HERE / "bench", HERE / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads
    from tracing import NullTracer

    wl = workloads.QueryMix(1, Path("."), NullTracer())
    g = wl.generate()
    libs = {side: load_package(root / "src" / "degreewalk", f"degreewalk_{side}")
            for side, root in roots.items()}
    graphs = {side: lib.Graph(g.offsets.copy(), g.neighbors.copy(), g.original_ids.copy())
              for side, lib in libs.items()}
    calls = {side: [] for side in SIDES}
    for j in range(wl.corpus):
        query = workloads.QUERIES[wl.block[j % len(wl.block)]]
        threshold = int(query.threshold) if query.rule == "fixed" else query.threshold
        for side, lib in libs.items():
            mode = getattr(lib.walk, type(query.mode).__name__)(**vars(query.mode))
            cfg = lib.WalkConfig(alpha=workloads.ALPHA, seed=wl.entry_seed(j), mode=mode)
            calls[side].append((f"{query.kind} entry {j}", lib.detector.detect_with_rule,
                                (graphs[side], cfg, query.k, query.rule, threshold)))
    rng = np.random.default_rng(1)
    spent = {side: [] for side in SIDES}
    for _ in range(PASSES):
        total = dict.fromkeys(SIDES, 0.0)
        for j in rng.permutation(wl.corpus).tolist():
            got = {}
            for side in (SIDES if rng.random() < 0.5 else SIDES[::-1]):
                label, fn, args = calls[side][j]
                start = time.perf_counter()
                try:
                    dec = fn(*args)
                except TypeError as exc:
                    return {"skipped": f"{side}: {label}: TypeError: {exc}"}
                total[side] += time.perf_counter() - start
                got[side] = (dec.fired, dec.fired_at_samples, dec.raw_steps,
                             dec.final_list.entries())
            if got["parent"] != got["change"]:
                return {"failed": f"{label}: parent {got['parent'][:3]}, "
                                  f"change {got['change'][:3]}, or their entries differ"}
        for side in SIDES:
            spent[side].append(total[side])
    ratios = [c / p for p, c in zip(spent["parent"], spent["change"])]
    return {"passes": PASSES, "queries": wl.corpus, "seconds": spent,
            "ratios": ratios, "ratio": spread(ratios, "lower"),
            "change_wins": sum(r < 1.0 for r in ratios)}


def report(out: dict) -> list[str]:
    """One line per compared figure: medians, change, wins, each side's
    relative quartile distance, the bound and the verdict, and for a
    bounded metric whether a gain claim is met; then each side's src_lines
    and the in-process stage, if it ran."""
    lines = []
    for group, metrics in out["compare"].items():
        for name, c in metrics.items():
            b = c["change"]
            if "parent" not in c:
                lines.append(f"{group:16s} {name:22s} change only: median {b['median']:.6g}"
                             f" q1 {b['q1']:.6g} q3 {b['q3']:.6g}")
                continue
            a, rel = c["parent"], c["median_change"] or 0.0
            worse = rel > 0 if c["better"] == "lower" else rel < 0
            verdict = ("unresolved" if c["unresolved"]
                       else f"{'beyond' if c['beyond_parent_iqr'] else 'within'} parent iqr"
                       if c["bound"] is None
                       else "PAST BOUND" if worse and abs(rel) > c["bound"] else "within bound")
            if c["bound"] is not None:
                verdict += f", claim {'met' if c['claim_met'] else 'not met'}"
            lines.append(f"{group:16s} {name:22s} {a['median']:12.6g} -> {b['median']:12.6g}"
                         f" {rel:+7.1%} wins {c['change_wins']:2d}/{out['pairs']}"
                         f" iqr {a['rel_iqr']:6.1%}/{b['rel_iqr']:6.1%}"
                         f" bound {c['bound'] if c['bound'] is not None else '-'} {verdict}")
    lines.append(f"{'src_lines':39s} {out['sides']['parent']['src_lines']:12d} ->"
                 f" {out['sides']['change']['src_lines']:12d}")
    stage = out.get("in_process", {})
    if "ratio" in stage:
        r = stage["ratio"]
        lines.append(f"{'in-process':16s} {'change/parent time':22s} median {r['median']:.3f}"
                     f" q1 {r['q1']:.3f} q3 {r['q3']:.3f} wins {stage['change_wins']:2d}"
                     f"/{stage['passes']}")
    elif stage:
        lines.append(f"{'in-process':39s} {stage}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="the parent's checkout")
    p.add_argument("--pairs", type=int, default=10, metavar="N",
                   help="alternated pairs of PARENT and this checkout (N >= 2, default 10)")
    args = p.parse_args(argv)
    parent = args.parent.resolve()
    if args.pairs < 2 or parent == HERE:
        p.error("--pairs needs N >= 2 and a parent checkout other than this one")
    out = measure(parent, HERE, args.pairs)
    out["in_process"] = in_process(parent, HERE)
    previous = sorted(HERE.glob("BENCH_[0-9]*.json"), key=number)
    path = HERE / f"BENCH_{(number(previous[-1]) if previous else 0) + 1:03d}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print("\n".join(report(out)))
    print(f"wrote {path}")
    return 1 if "failed" in out["in_process"] else 0


if __name__ == "__main__":
    sys.exit(main())
