"""Run the benchmark as it is and write the next BENCH_<NNN>.json.

    python3 tools/bench_snapshot.py            # this checkout's bench
    python3 tools/bench_snapshot.py ../other   # another checkout's bench

Each workload of BENCHMARK.json is run RUNS times untraced
(`bench/run.py --workload W --seed 1 --seconds T --trace 0`, T being the
run_seconds of BENCHMARK.json), the workloads
taking turns so that a slow spell of the host falls on all of them, and
then once traced (`--trace 1`). The file holds the machine, the best value
of each end-to-end metric (best as BENCHMARK.json's "better" says) next to
every raw value, the ops each run timed, each run's calibration_ms, the
per-layer metrics of the traced run, and five more figures:
  startup_s       the best of 9 new processes that run
                  `python -c "import degreewalk.cli"` on the checkout's src,
                  each taken right after one of
  numpy_import_s  the best of 9 that run `python -c "import numpy"`;
  own_startup_s   the median of the 9 paired differences, degreewalk's own
                  share, which the host's drift between snapshots leaves out;
  tier1           the wall time of the tier-1 suite, run as CI runs it
                  (`python -m pytest -q --continue-on-collection-errors
                  -W error::RuntimeWarning --durations=10` in the checkout,
                  its src on PYTHONPATH), its summary line and its ten
                  slowest tests;
  src_lines       the lines of the checkout's src/degreewalk/*.py, as
                  `wc -l` counts them.
The script then prints, metric by metric, the change against the
highest-numbered BENCH file before it, with the BENCHMARK.json bound of
each end-to-end metric. The BENCH files are kept at the root of the
checkout that holds this script, whichever checkout's bench is run.

    python3 tools/bench_snapshot.py --pairs N PARENT   # alternated pairs

runs each workload's `bench/run.py --trace 0` in PARENT and in the
checkout that holds this script, in turn, for N pairs with seeds 1..N.
The side that runs first alternates from pair to pair, and one process
runs at a time. No run is dropped and no pair is re-seeded. It writes no
BENCH file and prints one JSON object: every run's end-to-end metrics
and calibration_ms, and per workload and metric each side's median and
quartiles (inclusive method, as numpy's default percentile), the pairs
the change wins (a tie counts for neither side), the relative change of
the medians, whether the medians differ by more than the parent's
quartile distance, and the BENCHMARK.json bound.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
RUNS = 3  # untraced runs per workload; the best of them is recorded
STARTUP_PAIRS = 9  # numpy-only and degreewalk.cli start-up processes, in turn
SEED = 1


def run_bench(root: Path, command: list[str], workload: str, seconds: float,
              trace: int, seed: int = SEED) -> tuple[dict, dict]:
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


def startup_times(root: Path) -> dict[str, list[float]]:
    """Wall seconds of processes that import numpy alone and of processes
    that import degreewalk.cli from root/src, the two taking turns."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    times = {"startup_s": [], "numpy_import_s": []}
    for _ in range(STARTUP_PAIRS):
        for name, module in (("numpy_import_s", "numpy"), ("startup_s", "degreewalk.cli")):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True)
            times[name].append(time.perf_counter() - start)
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


def best(values: list[float], better: str) -> float:
    return min(values) if better == "lower" else max(values)


def snapshot(root: Path, spec: dict) -> dict:
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]
    out = {"source": git_source(root), "src_lines": src_lines(root),
           "command": spec["command"], "seed": SEED, "seconds": seconds,
           "runs": RUNS, "machine": None, "workloads": {}}
    raw = {name: [] for name in names}
    for i in range(RUNS):
        for name in names:
            print(f"run {i + 1}/{RUNS}: {name}", file=sys.stderr, flush=True)
            raw[name].append(run_bench(root, spec["command"], name, seconds, 0))
    for name, values in startup_times(root).items():
        out[name] = {"best": min(values), "values": values}
    out["own_startup_s"] = statistics.median(
        a - b for a, b in zip(out["startup_s"]["values"], out["numpy_import_s"]["values"]))
    print("tier-1 suite", file=sys.stderr, flush=True)
    out["tier1"] = tier1(root)
    for name in names:
        print(f"traced: {name}", file=sys.stderr, flush=True)
        meta, result = run_bench(root, spec["command"], name, seconds, 1)
        out["machine"] = out["machine"] or meta["machine"]
        metas = [m for m, _ in raw[name]]
        results = [r for _, r in raw[name]]
        metrics = {}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            metrics[metric] = {"best": best(values, better[metric]), "values": values,
                               "unit": results[0]["metrics"][metric]["unit"],
                               "better": better[metric]}
        out["workloads"][name] = {
            "end_to_end": metrics,
            "correct": [r["correct"] for r in results],
            "failed": [r["failed"] for r in results],
            "ops_timed": [m.get("op_time_samples") for m in metas],
            "calibration_ms": [m["calibration_ms"] for m in metas],
            "traced": {"correct": result["correct"], "failed": result["failed"],
                       "calibration_ms": meta["calibration_ms"],
                       "metrics": {k: v["value"] for k, v in result["metrics"].items()}},
        }
    return out


def pairs(parent: Path, spec: dict, count: int) -> dict:
    """Alternated pairs of untraced runs of PARENT and of this checkout."""
    roots = {"parent": parent, "change": HERE}
    commands = {side: json.loads((root / "BENCHMARK.json").read_text())["command"]
                for side, root in roots.items()}
    out = {"source": {side: git_source(root) for side, root in roots.items()},
           "seconds": spec["run_seconds"], "pairs": count, "workloads": {}}
    for wl in spec["workloads"]:
        name, runs = wl["name"], []
        for seed in range(1, count + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                print(f"pair {seed}/{count}: {name} {side}", file=sys.stderr, flush=True)
                meta, result = run_bench(roots[side], commands[side], name,
                                         spec["run_seconds"], 0, seed)
                pair[side] = {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
                              "correct": result["correct"], "failed": result["failed"],
                              "calibration_ms": meta["calibration_ms"]}
            runs.append(pair)
        out["workloads"][name] = {"runs": runs, "metrics": {
            m["name"]: compare([p["parent"]["metrics"][m["name"]] for p in runs],
                               [p["change"]["metrics"][m["name"]] for p in runs], m)
            for m in spec["end_to_end"]}}
    return out


def compare(parent: list[float], change: list[float], metric: dict) -> dict:
    """Medians, quartiles and wins of paired values of one metric."""
    def quartiles(values):
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return {"median": med, "q1": q1, "q3": q3}

    a, b = quartiles(parent), quartiles(change)
    sign = 1 if metric["better"] == "higher" else -1
    return {"parent": a, "change": b,
            "change_wins": sum(sign * (y - x) > 0 for x, y in zip(parent, change)),
            "median_change": (b["median"] - a["median"]) / a["median"] if a["median"] else None,
            "beyond_parent_iqr": abs(b["median"] - a["median"]) > a["q3"] - a["q1"],
            "better": metric["better"], "bound": metric["bound"]}


def number(path: Path) -> int:
    return int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))


def diff(old: dict, new: dict, bounds: dict) -> list[str]:
    """One line per metric: old best, new best, relative change, and for an
    end-to-end metric its bound and whether the change is past it."""
    nan = float("nan")
    lines = []
    for name, a, b in (
            ("src_lines", old.get("src_lines", nan), new["src_lines"]),
            ("startup_s (best)", old.get("startup_s", {}).get("best", nan),
             new["startup_s"]["best"]),
            ("numpy_import_s (best)", old.get("numpy_import_s", {}).get("best", nan),
             new["numpy_import_s"]["best"]),
            ("own_startup_s", old.get("own_startup_s", nan), new["own_startup_s"]),
            ("tier1 wall_s", old.get("tier1", {}).get("wall_s", nan), new["tier1"]["wall_s"])):
        lines.append(f"{name:26s} {a:12.6g} -> {b:12.6g}  {(b - a) / a:+8.1%}")
    before = {test: t for t, _, test in old.get("tier1", {}).get("slowest", [])}
    for t, phase, test in new["tier1"]["slowest"]:
        a = before.get(test, nan)
        lines.append(f"  {phase:8s} {test:70s} {a:8.2f} -> {t:8.2f} s")
    for name, wl in new["workloads"].items():
        before = old["workloads"].get(name)
        if before is None:
            lines.append(f"{name}: not in the previous file")
            continue
        lines.append(f"{name} (best of {new['runs']} against best of {old['runs']})")
        for metric, m in wl["end_to_end"].items():
            if metric not in before["end_to_end"]:
                continue
            a, b = before["end_to_end"][metric]["best"], m["best"]
            rel = (b - a) / a if a else 0.0
            worse = rel > 0 if m["better"] == "lower" else rel < 0
            bound = bounds.get(metric)
            flag = "  PAST BOUND" if bound is not None and worse and abs(rel) > bound else ""
            lines.append(f"  {metric:22s} {a:12.6g} -> {b:12.6g}  {rel:+8.1%}  "
                         f"bound {bound if bound is not None else '-'}{flag}")
        lines.append(f"  {name} traced")
        for metric, b in wl["traced"]["metrics"].items():
            a = before["traced"]["metrics"].get(metric)
            if a is None:
                continue
            rel = f"{(b - a) / a:+8.1%}" if a else "       -"
            lines.append(f"    {metric:36s} {a:12.6g} -> {b:12.6g}  {rel}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("root", type=Path, nargs="?", default=HERE,
                   help="the checkout whose bench/run.py is run (default: this one); "
                        "with --pairs, the parent's checkout")
    p.add_argument("--pairs", type=int, default=None, metavar="N",
                   help="run N >= 2 alternated pairs of ROOT and this checkout instead")
    args = p.parse_args(argv)
    root = args.root.resolve()
    if args.pairs is not None:
        if args.pairs < 2 or root == HERE:
            p.error("--pairs needs N >= 2 and a parent checkout other than this one")
        spec = json.loads((HERE / "BENCHMARK.json").read_text())
        print(json.dumps(pairs(root, spec, args.pairs), indent=1))
        return 0
    spec = json.loads((root / "BENCHMARK.json").read_text())
    previous = sorted(HERE.glob("BENCH_[0-9]*.json"), key=number)
    path = HERE / f"BENCH_{(number(previous[-1]) if previous else 0) + 1:03d}.json"
    new = snapshot(root, spec)
    path.write_text(json.dumps(new, indent=1) + "\n")
    print(f"wrote {path}")
    if previous:
        print(f"against {previous[-1].name}:")
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        print("\n".join(diff(json.loads(previous[-1].read_text()), new, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
