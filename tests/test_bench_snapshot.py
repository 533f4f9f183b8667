"""tools/bench_snapshot.py: the pair statistics and the order of the runs."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_snapshot.py"
SRC = Path(__file__).resolve().parent.parent / "src" / "degreewalk"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_snapshot", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LOWER = {"better": "lower", "bound": 0.25}
HIGHER = {"better": "higher", "bound": 0.25}


class TestCompare:
    def test_inclusive_quartiles(self, tool):
        c = tool.compare([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 6.0], LOWER)
        assert c["parent"] == {"best": 1.0, "median": 3.0, "q1": 2.0, "q3": 4.0,
                               "rel_iqr": 2.0 / 3.0}
        assert (c["change"]["q1"], c["change"]["q3"]) == (2.0, 4.0)
        assert tool.compare([1.0, 2.0], [1.0, 2.0], LOWER)["parent"]["q1"] == 1.25

    def test_ties_count_for_neither_side(self, tool):
        c = tool.compare([5.0, 5.0, 5.0, 6.0], [5.0, 5.0, 4.0, 7.0], LOWER)
        assert c["change_wins"] == 1

    def test_sign_of_the_gain(self, tool):
        parent, change = [10.0, 11.0, 12.0], [8.0, 9.0, 13.0]
        low, high = tool.compare(parent, change, LOWER), tool.compare(parent, change, HIGHER)
        assert (low["change_wins"], high["change_wins"]) == (2, 1)
        assert low["median_change"] == high["median_change"] == pytest.approx(-2 / 11)
        assert (low["parent"]["best"], high["parent"]["best"]) == (10.0, 12.0)

    def test_beyond_parent_iqr(self, tool):
        parent = [10.0, 11.0, 12.0, 13.0, 14.0]  # quartile distance 2
        assert not tool.compare(parent, [x - 2 for x in parent], LOWER)["beyond_parent_iqr"]
        assert tool.compare(parent, [x - 2.5 for x in parent], LOWER)["beyond_parent_iqr"]

    @pytest.mark.parametrize("metric", [LOWER, HIGHER])
    def test_claim_met(self, tool, metric):
        parent = [10.0 + i for i in range(10)]  # quartile distance 4.5
        sign = -1 if metric is LOWER else 1
        better = [x + sign * 10 for x in parent]
        assert tool.compare(parent, better, metric)["claim_met"]
        nine = better[:9] + [parent[9] - sign]  # 9 of 10 wins
        assert tool.compare(parent, nine, metric)["claim_met"]
        eight = better[:8] + [parent[8] - sign, parent[9]]  # 8 wins, a loss, a tie
        assert tool.compare(parent, eight, metric)["change_wins"] == 8
        assert not tool.compare(parent, eight, metric)["claim_met"]
        worse = [x - sign * 5 for x in parent]
        assert tool.compare(parent, worse, metric)["beyond_parent_iqr"]
        assert not tool.compare(parent, worse, metric)["claim_met"]

    def test_unresolved_when_the_parent_spreads_past_the_bound(self, tool):
        parent = [6.0, 8.0, 10.0, 12.0, 14.0]  # relative quartile distance 0.4
        overlap = [7.0, 9.0, 11.0, 13.0, 15.0]
        assert tool.compare(parent, overlap, LOWER)["unresolved"]
        assert not tool.compare(parent, overlap, {"better": "lower", "bound": 0.5})["unresolved"]
        assert not tool.compare(parent, overlap, {"better": "lower", "bound": None})["unresolved"]

    @pytest.mark.parametrize("metric", [LOWER, HIGHER])
    def test_only_a_change_better_in_every_run_is_resolved(self, tool, metric):
        parent = [6.0, 8.0, 10.0, 12.0, 14.0]
        below, above = [x - 10 for x in parent], [x + 10 for x in parent]
        better, worse = (below, above) if metric is LOWER else (above, below)
        assert not tool.compare(parent, better, metric)["unresolved"]
        assert tool.compare(parent, worse, metric)["unresolved"]


def _checkout(root: Path, workloads: list[str]) -> Path:
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "bench/run.py"], "run_seconds": 1,
        "workloads": [{"name": w} for w in workloads],
        "end_to_end": [{"name": "op_p50_ms", "better": "lower", "bound": 0.25}]}))
    return root


class TestMeasure:
    def test_three_pairs_alternate_and_keep_every_run(self, tool, tmp_path, monkeypatch):
        parent = _checkout(tmp_path / "parent", ["a"])
        change = _checkout(tmp_path / "change", ["a", "new"])
        side = {parent: "P", change: "C"}
        calls = []

        def run_bench(root, command, workload, seconds, trace, seed):
            calls.append(("bench", side[root], workload, trace, seed))
            meta = {"machine": {"cpus": 2}, "calibration_ms": [40.0]}
            value = 10.0 * seed + (side[root] == "C")
            return meta, {"metrics": {"op_p50_ms": {"value": value}},
                          "correct": True, "failed": 0}

        def startup_times(root):
            calls.append(("startup", side[root]))
            return {"numpy_import_s": 0.1, "startup_s": 0.15 + 0.01 * (side[root] == "C")}

        def tier1(root):
            calls.append(("tier1", side[root]))
            return {"wall_s": 60.0, "exit_code": 0, "summary": "1 passed", "slowest": []}

        for name, fake in (("run_bench", run_bench), ("startup_times", startup_times),
                           ("tier1", tier1)):
            monkeypatch.setattr(tool, name, fake)
        out = tool.measure(parent, change, 3)

        expected = []
        for seed, order in ((1, "PC"), (2, "CP"), (3, "PC")):
            expected += [("bench", s, "a", 0, seed) for s in order]
            expected += [("bench", "C", "new", 0, seed)]
            expected += [("startup", s) for s in order] + [("tier1", s) for s in order]
        expected += [("bench", "P", "a", 1, 1), ("bench", "C", "a", 1, 1),
                     ("bench", "C", "new", 1, 1)]
        assert calls == expected
        assert out["first"] == ["parent", "change", "parent"]

        p, c = out["sides"]["parent"], out["sides"]["change"]
        assert [r["metrics"]["op_p50_ms"] for r in p["workloads"]["a"]["runs"]] == [10, 20, 30]
        assert [r["seed"] for r in c["workloads"]["new"]["runs"]] == [1, 2, 3]
        assert "new" not in p["workloads"] and c["workloads"]["new"]["traced"]["seed"] == 1
        assert len(p["startup"]) == len(c["tier1"]) == 3
        assert c["own_startup_s"] == pytest.approx(0.06)
        assert out["compare"]["a"]["op_p50_ms"]["change_wins"] == 0
        assert out["compare"]["tier1"]["wall_s"]["change_wins"] == 0
        assert "parent" not in out["compare"]["new"]["op_p50_ms"]
        assert len(tool.report(out)) == 5  # 3 compared figures, 1 change-only, src_lines
        out["in_process"] = {"passes": 12, "change_wins": 7,
                             "ratio": {"median": 0.99, "q1": 0.98, "q3": 1.01}}
        assert tool.report(out)[-1].split()[-8:] == [
            "median", "0.990", "q1", "0.980", "q3", "1.010", "wins", "7/12"]


def _copy_src(root: Path) -> Path:
    """A checkout at root holding a copy of this tree's src/degreewalk."""
    shutil.copytree(SRC, root / "src" / "degreewalk",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


class TestInProcess:
    def test_two_copies_load_as_distinct_modules_that_agree(self, tool, tmp_path):
        roots = [_copy_src(tmp_path / side) for side in ("a", "b")]
        libs = [tool.load_package(root / "src" / "degreewalk", f"degreewalk_copy_{root.name}")
                for root in roots]
        a, b = libs
        assert a is not b and a.detector is not b.detector and a.Graph is not b.Graph
        for lib, root in zip(libs, roots):
            assert Path(lib.detector.__file__).parent == root / "src" / "degreewalk"
        g = a.generate_pa(a.PAConfig(n=2000, seed=3))
        got = []
        for lib in libs:
            graph = lib.Graph(g.offsets.copy(), g.neighbors.copy(), g.original_ids.copy())
            cfg = lib.WalkConfig(alpha=2.0, seed=5, mode=lib.Thinned(transient=100, q=0.5))
            dec = lib.detector.detect_with_rule(graph, cfg, 10, "r2", 7.0)
            got.append((dec.fired, dec.fired_at_samples, dec.raw_steps, dec.final_list.entries()))
        assert got[0] == got[1] and got[0][0]

    def test_byte_identical_trees_skip(self, tool, tmp_path):
        parent, change = (_copy_src(tmp_path / side) for side in ("parent", "change"))
        assert tool.in_process(parent, change) == {
            "skipped": "src/degreewalk is byte-identical on both sides"}

    def test_a_changed_signature_skips(self, tool, tmp_path):
        parent, change = (_copy_src(tmp_path / side) for side in ("parent", "change"))
        detector = change / "src" / "degreewalk" / "detector.py"
        text = detector.read_text()
        assert text.count("threshold: float) -> StopDecision:") == 1
        detector.write_text(text.replace("threshold: float) -> StopDecision:",
                                         "threshold: float, stats: bool) -> StopDecision:"))
        out = tool.in_process(parent, change)
        assert list(out) == ["skipped"]
        assert out["skipped"].startswith("change: ") and "TypeError" in out["skipped"]
