import numpy as np
import pytest

import degreewalk as dw
from degreewalk.experiments import (AccuracyCurvePlan, HittingTimePlan,
                                    StoppingEvalPlan, read_csv_body,
                                    run_accuracy_curve, run_hitting_time,
                                    run_stopping_eval, write_csv)
from degreewalk.walk import EveryStep, Thinned, WalkConfig

from helpers import random_connected_graph


class TestHittingTrials:
    def test_star_mean(self, star4):
        plan = HittingTimePlan(walk=WalkConfig(alpha=0.0, seed=0, max_steps=1000),
                               runs=10_000, master_seed=77)
        rows, summary = run_hitting_time(star4, plan)
        assert len(rows) == 10_000
        assert summary["timeouts"] == 0
        assert abs(summary["mean"] - 0.75) <= 0.02

    def test_disconnected_alpha0_times_out(self):
        g = dw.ingest_edge_list(["0 1", "1 2", "2 0", "3 4", "4 5", "5 3"])
        plan = HittingTimePlan(walk=WalkConfig(alpha=0.0, seed=0, max_steps=3000),
                               runs=40, master_seed=5)
        rows, summary = run_hitting_time(g, plan)
        # target is in the first triangle; starts in the second never arrive
        assert summary["timeouts"] > 0
        for trial, steps in rows:
            assert steps == "timeout" or isinstance(steps, int)

    def test_trial_rows_are_pure_functions_of_master_seed(self, star4):
        mk = lambda runs: HittingTimePlan(
            walk=WalkConfig(alpha=1.0, seed=0, max_steps=1000),
            runs=runs, master_seed=42)
        rows5, _ = run_hitting_time(star4, mk(5))
        rows9, _ = run_hitting_time(star4, mk(9))
        assert rows9[:5] == rows5

    def test_plan_below_one_rejected(self):
        cfg = WalkConfig(alpha=1.0, seed=0, max_steps=100)
        with pytest.raises(ValueError, match="^runs must be >= 1, got 0$"):
            HittingTimePlan(walk=cfg, runs=0)


class TestAccuracyCurve:
    def test_zero_budget_point(self, star4):
        cfg = WalkConfig(alpha=1.0, seed=0, max_steps=500,
                         mode=Thinned(transient=10, q=0.5))
        plan = AccuracyCurvePlan(walk=cfg, k=2, m_grid=(0, 3), runs=20,
                                 master_seed=1)
        rows, _ = run_accuracy_curve(star4, plan)
        m0 = rows[0]
        assert m0[0] == 0 and m0[1] == 0.0 and m0[3] == 0.0 and m0[4] == 0.0

    def test_star_curve_matches_closed_form(self, star4):
        cfg = WalkConfig(alpha=1.0, seed=0, max_steps=200_000,
                         mode=Thinned(transient=50, q=0.02))
        plan = AccuracyCurvePlan(walk=cfg, k=1, m_grid=(1, 2, 4, 6), runs=400,
                                 master_seed=4)
        rows, _ = run_accuracy_curve(star4, plan)
        for m, mean, ci, exact, poisson in rows:
            assert exact == pytest.approx(1.0 - 0.6 ** m, abs=1e-12)
            assert abs(mean - exact) <= ci

    def test_ci_validity_on_star(self, star4):
        # the analytic value should land inside the 95% CI in >= 90% of reps
        grid = (1, 2, 4, 6)
        cover = 0
        total = 0
        for rep in range(100):
            cfg = WalkConfig(alpha=1.0, seed=0, max_steps=100_000,
                             mode=Thinned(transient=50, q=0.02))
            plan = AccuracyCurvePlan(walk=cfg, k=1, m_grid=grid, runs=200,
                                     master_seed=1000 + rep)
            rows, _ = run_accuracy_curve(star4, plan)
            for _m, mean, ci, exact, _p in rows:
                total += 1
                cover += bool(abs(mean - exact) <= ci)
        assert cover / total >= 0.90

    def test_plan_validation(self, star4):
        cfg = WalkConfig(alpha=1.0, seed=0, max_steps=100)
        with pytest.raises(ValueError):
            AccuracyCurvePlan(walk=cfg, k=1, m_grid=(5, 5), runs=10)
        with pytest.raises(ValueError):
            AccuracyCurvePlan(walk=cfg, k=1, m_grid=(), runs=10)
        with pytest.raises(ValueError):
            AccuracyCurvePlan(walk=cfg, k=1, m_grid=(1, 2), runs=0)
        plan = AccuracyCurvePlan(walk=cfg, k=9, m_grid=(1,), runs=1)
        with pytest.raises(ValueError):
            run_accuracy_curve(star4, plan)

    def test_negative_budget_rejected_at_plan(self):
        # rejected before any trial walks, not after every trial ran out
        cfg = WalkConfig(alpha=1.0, seed=0, max_steps=200_000)
        with pytest.raises(ValueError, match="m_grid entries must be >= 0"):
            AccuracyCurvePlan(walk=cfg, k=1, m_grid=(-3, 5), runs=2)


class TestStoppingEval:
    def test_single_trial_single_row(self, star4):
        cfg = WalkConfig(alpha=1.0, seed=0, max_steps=10_000,
                         mode=Thinned(transient=10, q=0.5))
        plan = StoppingEvalPlan(walk=cfg, k=1, rule="r1", threshold=0.5,
                                runs=1, master_seed=3)
        rows, summary = run_stopping_eval(star4, plan)
        assert len(rows) == 1
        assert summary["fired_fraction"] == 1.0

    def test_zero_bar_fires_at_zero_cost(self, star4):
        cfg = WalkConfig(alpha=1.0, seed=0, max_steps=10_000,
                         mode=Thinned(transient=10, q=0.5))
        plan = StoppingEvalPlan(walk=cfg, k=2, rule="r2", threshold=0.0,
                                runs=3, master_seed=0)
        rows, summary = run_stopping_eval(star4, plan)
        for trial, raw_steps, samples, correct, full, fired in rows:
            assert raw_steps == 0 and samples == 0 and correct == 0 and fired == 1

    @pytest.mark.parametrize("field, runs, k", [("runs", 0, 1), ("k", 1, 0)])
    def test_plan_below_one_rejected(self, field, runs, k):
        cfg = WalkConfig(alpha=1.0, seed=0, max_steps=100)
        with pytest.raises(ValueError, match=f"^{field} must be >= 1, got 0$"):
            StoppingEvalPlan(walk=cfg, k=k, rule="r1", threshold=0.5, runs=runs)

    def test_small_graph_detection_quality(self):
        g = random_connected_graph(30, 4.0, seed=1)
        cfg = WalkConfig(alpha=2.0, seed=0, max_steps=200_000,
                         mode=Thinned(transient=50, q=0.5))
        plan = StoppingEvalPlan(walk=cfg, k=3, rule="r2", threshold=2.5,
                                runs=50, master_seed=8)
        rows, summary = run_stopping_eval(g, plan)
        assert summary["fired_fraction"] == 1.0
        assert summary["mean_correct"] >= 2.5


class TestCsvEmission:
    def _write(self, path, master_seed):
        g = dw.ingest_edge_list(["0 1", "0 2", "0 3"])
        plan = HittingTimePlan(walk=WalkConfig(alpha=1.0, seed=0, max_steps=500),
                               runs=25, master_seed=master_seed)
        rows, summary = run_hitting_time(g, plan)
        write_csv(path, ["trial", "steps"], rows, summary=summary)

    def test_bit_reproducible_modulo_timestamp(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write(a, 12)
        self._write(b, 12)
        assert read_csv_body(a) == read_csv_body(b)
        raw_a = a.read_text()
        assert raw_a.startswith("# generated_at=")
        assert "# summary " in raw_a

    def test_seed_changes_rows(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write(a, 12)
        self._write(b, 13)
        assert read_csv_body(a) != read_csv_body(b)

    def test_header_line_present(self, tmp_path):
        path = tmp_path / "c.csv"
        self._write(path, 1)
        body = read_csv_body(path).splitlines()
        assert body[0] == "trial,steps"
