"""Seeded experiment harness: hitting-time trials, accuracy-vs-m curves,
and stopping-rule evaluations, all reproducible bit-for-bit from a master
seed. Each trial's randomness is a pure function of (master_seed, trial),
and trials run one after another in trial order.
"""

from __future__ import annotations

import datetime as _dt
import operator
from dataclasses import dataclass, replace

import numpy as np

from .analytics import expected_correct_count, stationary
from .detector import check_rule_threshold, detect_with_rule
from .graph import Graph, check_k, exact_top_k
from .walk import WalkConfig, _visits, check_sampling, walk_until_hit


def _check_runs(runs: int) -> None:
    if operator.index(runs) < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")


@dataclass(frozen=True)
class HittingTimePlan:
    walk: WalkConfig
    runs: int
    master_seed: int = 0

    def __post_init__(self):
        _check_runs(self.runs)


@dataclass(frozen=True)
class AccuracyCurvePlan:
    walk: WalkConfig
    k: int
    m_grid: tuple[int, ...]
    runs: int
    master_seed: int = 0

    def __post_init__(self):
        _check_runs(self.runs)
        check_k(self.k)
        check_sampling(self.walk.mode, self.walk.max_steps)
        grid = tuple(map(operator.index, self.m_grid))
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"m_grid must be strictly increasing, got {grid}")
        if grid[0] < 0:
            raise ValueError(f"m_grid entries must be >= 0, got {grid}")
        object.__setattr__(self, "m_grid", grid)


@dataclass(frozen=True)
class StoppingEvalPlan:
    walk: WalkConfig
    k: int
    rule: str
    threshold: float
    runs: int
    master_seed: int = 0

    def __post_init__(self):
        _check_runs(self.runs)
        check_rule_threshold(self.rule, self.threshold, self.k)
        check_sampling(self.walk.mode, self.walk.max_steps)


# -- hitting times ----------------------------------------------------------

def run_hitting_time(g: Graph, plan: HittingTimePlan):
    """Hitting times to the max-degree node from uniform starts.

    Returns (rows, summary): one (trial, steps) row per trial with the
    string "timeout" for walks exceeding max_steps, and a summary dict
    with mean/median over completed trials plus the timeout count.
    """
    target = exact_top_k(g, 1)[0].node
    rows = []
    for trial in range(plan.runs):
        cfg = replace(plan.walk, seed=(plan.master_seed, trial))
        steps = walk_until_hit(g, cfg, None, target)
        rows.append((trial, "timeout" if steps is None else steps))
    done = np.array([s for _, s in rows if s != "timeout"], dtype=np.float64)
    summary = {
        "target": target,
        "mean": float(done.mean()) if len(done) else float("nan"),
        "median": float(np.median(done)) if len(done) else float("nan"),
        "timeouts": sum(1 for _, s in rows if s == "timeout"),
        "runs": plan.runs,
    }
    return rows, summary


# -- accuracy curves --------------------------------------------------------

def run_accuracy_curve(g: Graph, plan: AccuracyCurvePlan):
    """Mean correctly-detected top-k count at each sample budget m.

    A node counts as correct when it belongs to the true top-k (ties
    id-broken); once sampled it never leaves the candidate list, so the
    per-trial count at m is the number of true top-k nodes first seen at a
    sample index <= m (a trial out of raw steps keeps its last count). Rows
    carry the Monte Carlo mean with a 95% normal CI plus the exact and
    Poisson i.i.d. predictions computed from the true top-k stationary
    probabilities.
    """
    true_nodes = [r.node for r in exact_top_k(g, plan.k)]
    top = np.isin(np.arange(g.n), true_nodes)  # the true top-k as a mask
    pis = stationary(g, plan.walk.alpha).probs[true_nodes]
    grid = plan.m_grid

    def one(trial: int):
        cfg = replace(plan.walk, seed=(plan.master_seed, trial))
        first: dict[int, int] = {}  # true top-k node -> 1-based first sample
        samples = 0
        for nodes, kept, _ in _visits(g, cfg) if grid[-1] else ():
            at = samples + np.cumsum(kept)  # samples up to each step
            for i in np.flatnonzero(kept & top[nodes]).tolist():
                first.setdefault(int(nodes[i]), int(at[i]))
            samples = int(at[-1])
            if samples >= grid[-1]:
                break
        return [sum(f <= m for f in first.values()) for m in grid]

    per_trial = np.array([one(t) for t in range(plan.runs)], dtype=np.float64)
    rows = []
    for j, m in enumerate(grid):
        vals = per_trial[:, j]
        mean = float(vals.mean())
        ci = 1.96 * float(vals.std(ddof=1)) / np.sqrt(plan.runs) if plan.runs > 1 else 0.0
        rows.append((m, mean, ci,
                     expected_correct_count(pis, m, "exact"),
                     expected_correct_count(pis, m, "poisson")))
    summary = {"k": plan.k, "runs": plan.runs, "true_top_k": true_nodes}
    return rows, summary


# -- stopping-rule evaluation ------------------------------------------------

def run_stopping_eval(g: Graph, plan: StoppingEvalPlan):
    """Accuracy and cost of a stopping rule over seeded trials.

    Rows: (trial, raw_steps, samples, correct_count, full_list_correct,
    fired). Correctness is judged against the exact top-k.
    """
    true_set = {r.node for r in exact_top_k(g, plan.k)}

    def one(trial: int):
        cfg = replace(plan.walk, seed=(plan.master_seed, trial))
        dec = detect_with_rule(g, cfg, plan.k, plan.rule, plan.threshold)
        members = dec.final_list.members()
        correct = len(members & true_set)
        full = int(true_set <= members)
        return (trial, dec.raw_steps, dec.fired_at_samples, correct, full,
                int(dec.fired))

    rows = [one(t) for t in range(plan.runs)]
    arr = np.array([(r[1], r[2], r[3], r[4], r[5]) for r in rows], dtype=np.float64)
    summary = {
        "runs": plan.runs,
        "mean_raw_steps": float(arr[:, 0].mean()),
        "mean_samples": float(arr[:, 1].mean()),
        "mean_correct": float(arr[:, 2].mean()),
        "full_list_accuracy": float(arr[:, 3].mean()),
        "fired_fraction": float(arr[:, 4].mean()),
    }
    return rows, summary


# -- CSV emission ------------------------------------------------------------

def write_csv(path, header: list[str], rows, summary: dict | None = None) -> None:
    """Write rows with a '# generated_at' stamp and an optional trailing
    '# summary' comment line. Everything except the stamp is a pure
    function of the inputs, which is what the reproducibility tests check.
    """
    stamp = _dt.datetime.now(_dt.timezone.utc).isoformat()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# generated_at={stamp}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")
        if summary is not None:
            pairs = " ".join(f"{k}={v}" for k, v in summary.items())
            fh.write(f"# summary {pairs}\n")


def read_csv_body(path) -> str:
    """File contents minus the generated_at stamp, for byte comparisons."""
    with open(path, "r", encoding="utf-8") as fh:
        return "".join(line for line in fh if not line.startswith("# generated_at"))
