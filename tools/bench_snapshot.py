"""Run the benchmark as it is and write the next BENCH_<NNN>.json.

    python3 tools/bench_snapshot.py            # this checkout's bench
    python3 tools/bench_snapshot.py ../other   # another checkout's bench

Each workload of BENCHMARK.json is run RUNS times untraced
(`bench/run.py --workload W --seed 1 --seconds T --trace 0`, T being the
run_seconds of BENCHMARK.json), the workloads
taking turns so that a slow spell of the host falls on all of them, and
then once traced (`--trace 1`). The file holds the machine, the best value
of each end-to-end metric (best as BENCHMARK.json's "better" says) next to
every raw value, the ops each run timed, each run's calibration_ms, and the
per-layer metrics of the traced run. The script then prints, metric by
metric, the change against the highest-numbered BENCH file before it, with
the BENCHMARK.json bound of each end-to-end metric. The BENCH files are
kept at the root of the checkout that holds this script, whichever
checkout's bench is run.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
RUNS = 3  # untraced runs per workload; the best of them is recorded
SEED = 1


def run_bench(root: Path, command: list[str], workload: str, seconds: float,
              trace: int) -> tuple[dict, dict]:
    """(metadata, result) of one bench/run.py process: its last two lines."""
    argv = [sys.executable if command[0].startswith("python") else command[0],
            *command[1:], "--workload", workload, "--seed", str(SEED),
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


def best(values: list[float], better: str) -> float:
    return min(values) if better == "lower" else max(values)


def snapshot(root: Path, spec: dict) -> dict:
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]
    out = {"source": git_source(root), "command": spec["command"], "seed": SEED,
           "seconds": seconds, "runs": RUNS, "machine": None, "workloads": {}}
    raw = {name: [] for name in names}
    for i in range(RUNS):
        for name in names:
            print(f"run {i + 1}/{RUNS}: {name}", file=sys.stderr, flush=True)
            raw[name].append(run_bench(root, spec["command"], name, seconds, 0))
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


def number(path: Path) -> int:
    return int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))


def diff(old: dict, new: dict, bounds: dict) -> list[str]:
    """One line per metric: old best, new best, relative change, and for an
    end-to-end metric its bound and whether the change is past it."""
    lines = []
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
                   help="the checkout whose bench/run.py is run (default: this one)")
    root = p.parse_args(argv).root.resolve()
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
