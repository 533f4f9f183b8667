"""degreewalk benchmark: run one seeded workload and print its metrics.

    python3 bench/run.py --workload query_mix_100k --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, one process each

With --trace 0 the last stdout line is a JSON object holding the end-to-end
metrics, measured with tracing off:
  setup_s               median of several set-ups, plus one warm-up op
  op_p50_ms             median op latency over every op of the run
  op_tail_ms            highest percentile of the same times with at least
                        10 beyond it (the maximum below 20 ops, as on the 4
                        ops of ingest_detect_1m; see the metadata line)
  ops_per_s             ops completed per second of op time, every op
  peak_rss_mb           ru_maxrss of this process
  success_rate          1 - failed/attempted (an op fails if it raises or
                        its output check fails)
  top_k_recall          mean |returned & exact top-k| / k over the detect
                        queries of the corpus
  walk_steps_per_query  mean raw walk steps per detect query, the paper's
                        cost
With --trace 1 it holds the per-layer metrics of a separate traced run
(layers.py), and the spans are written to .bench_out/. The line before the
last holds the run's metadata: machine, inputs and seed. The library is
imported from this checkout's src/.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ingest_detect_1m", "query_mix_100k")


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), None)
    except OSError:
        info["cpu"] = None
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"L{level}"] = size
    return info


def kib(size: str | None) -> int | None:
    """'307200K' -> 307200; None when the size is unknown."""
    if not size:
        return None
    scale = {"K": 1, "M": 1024, "G": 1024 * 1024}.get(size[-1], None)
    return int(size[:-1]) * scale if scale else int(size) // 1024


def calibration_ms() -> float:
    """A fixed pure-Python loop. Timed before and after the measured ops, it
    shows in the metadata how fast the machine ran during the run."""
    t = perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i
    return (perf_counter() - t) * 1e3


def set_up(wl, reps: int) -> tuple[float, list[float], float]:
    """Set up `reps` times, then run corpus entry 0 once, untimed, as a
    warm-up. setup_s is the median set-up plus the warm-up."""
    times = []
    wl.tracer.op = "setup"
    for _ in range(reps):
        t = perf_counter()
        wl.setup()
        times.append(perf_counter() - t)
    wl.tracer.op = "warmup"
    t = perf_counter()
    warm = wl.op(0)
    warm_s = perf_counter() - t
    wl.tracer.op = None
    wl.check(warm)
    return statistics.median(times) + warm_s, times, warm_s


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "degreewalk" / "__init__.py").is_file():
        print(f"error: {SRC / 'degreewalk'} not found; run from a degreewalk checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import degreewalk
    from layers import traced_run
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS, end_to_end

    if Path(degreewalk.__file__).resolve().parent != (SRC / "degreewalk").resolve():
        print(f"error: imported degreewalk from {degreewalk.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = Tracer() if trace else NullTracer()
        wl = WORKLOADS[name](seed, workdir, tracer)
        errors: list[str] = []
        # setup_s is reported by the untraced run only; one set-up keeps the
        # traced run of ingest_detect_1m well inside its time limit
        setup_s, setup_times, warm_s = set_up(wl, 1 if trace else wl.setup_reps)
        meta = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                "setup_reps_s": setup_times, "warmup_s": warm_s,
                "machine": {**machine(), "numpy": np.__version__},
                "calibration_ms": [calibration_ms()]}
        if trace:
            metrics, attempted, failed, errs, report = traced_run(wl, seconds)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"trace-{name}-seed{seed}.jsonl"
            tracer.dump(spans)
            meta["spans_file"] = str(spans.relative_to(ROOT))
            for line in report:
                print(line)
        else:
            metrics, attempted, failed, errs = end_to_end(wl, seconds, setup_s, meta)
        errors += errs
        meta["calibration_ms"].append(calibration_ms())
        inputs = wl.inputs()
        l3 = kib(meta["machine"].get("L3"))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if l3:
            inputs["vs_L3"] = {k: inputs[k] / (l3 * 1024) for k in
                               ("text_bytes", "cache_bytes", "csr_bytes") if inputs[k]}
            inputs["vs_L3"]["peak_rss"] = rss_mb * 1024 / l3
        meta["inputs"] = inputs
        meta["errors"] = errors
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    for e in errors:
        print(e, file=sys.stderr)
    print(json.dumps({"metadata": meta}))
    print(json.dumps({"correct": not errors and failed == 0 and bool(metrics),
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    p.add_argument("--seed", type=int, default=0, help="workload seed (>= 0)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="run length: the number of ops that took this long on the "
                        "reference machine (see workloads.py)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
