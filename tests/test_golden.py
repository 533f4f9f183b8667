"""Golden-output guard: pinned sha256 of small seeded CLI runs.

A refactor of the graph layer, the generators, the walk or the detector must
leave every hash below unchanged. A change meant to alter an output updates
its hash and says why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

import degreewalk as dw
from degreewalk.cli import main
from degreewalk.experiments import read_csv_body

GOLDEN = {
    "generate_pa":
        "f5ae6191089f384b8a1726f54e06b4acb171ad147e86d5c27dd31f45149777a7",
    "generate_cm":
        "43baf24ab4a4415e19f7d524764cc8780b1efb32e8c4bd8abe4eb3d24ce1fa4f",
    "ingest_out":
        "f5ae6191089f384b8a1726f54e06b4acb171ad147e86d5c27dd31f45149777a7",
    "detect_r2_from_cache":
        "f1776195ea9184d9acdfcd1ab45436679f5ac3cc67022fc0141dc0719e10e4dc",
    "arrays_generate_pa":
        "3c9fd80bd382518226304c26fff80fe24e04bd7aceb90988174c1d05a7c25687",
    "arrays_generate_pa_bench":
        "907048ce936d006b31fa2eebf096aa701868ced279536d4108958f2798f35e4e",
    "text_generate_pa_bench":
        "7c4772da719f7a34dbdd8d78809298b02406bcc0548b0ad4dad35826462ac197",
    "arrays_generate_pa_lemire_reject":
        "bcf2a0f7e7d734c055afb770deb9a3ed33a43933cb5569fd2a4d6c2f6492edb5",
    "arrays_generate_pa_ingest":
        "b667cc4be59ecd2a0cc6f470e9d85c62a98f8abfbc0781f851f504e7f91fab35",
    "arrays_generate_cm":
        "d3e8476c317e13e7cd45ed278b28fb02019ed31c7225dae18ed4136e7ed46bc6",
    "arrays_load_edge_list":
        "3c9fd80bd382518226304c26fff80fe24e04bd7aceb90988174c1d05a7c25687",
    "arrays_load_npz":
        "3c9fd80bd382518226304c26fff80fe24e04bd7aceb90988174c1d05a7c25687",
    "detect_r0_everystep":
        "5be84792f300e2f784118fd42036e106d691f2fcc56198cf6584f8c2d3e75ae2",
    "detect_r0_thinned":
        "a277828ad44363aa92dda6982a7f9f853d5d4de090713f91a3660aae50201b04",
    "detect_r1_everystep":
        "9a34d835bf82b8ab88c3f9425c1c84749b83e0e4a8a3b8809f24d49475b7ea6c",
    "detect_r1_thinned":
        "eff0b1cdf466c4249a3b067f6da6efb412c74ae5441d452b33e3077b685c3fb3",
    "detect_r2_everystep":
        "e2f3f5c61b32f643db8f663bd09394753de2b9aed811b5deb2f0e2151529934a",
    "detect_fixed_everystep":
        "4707d85b12bb6447feabc7c66d26c7438bcdc64d949c42a9503c3b3c432acc07",
    "detect_fixed_thinned":
        "c5f559564424ab058655ba4ddc717903263614df7cae280f357becec5abf450b",
    "timeout_r0":
        "94c7c3e9563cd9d0b4d7ada0c3e582c80ae288f9b7eac025a24ad150ff8a259b",
    "timeout_r1":
        "68cde2d0b7ff4f7d14bd9238e48979ba7ec740e20c8e9cbeb6111a7e4e1d174d",
    "timeout_r2":
        "931801ad8b02d4fbd617af5cf67a449363c7b20eb290742936c2a80dcc8f7e99",
    "timeout_fixed":
        "109eb379f22eb8541c0aeb27edf704886b97947bc65ef7dce7d5891fc24a52a5",
    "k_eq_n_r0":
        "107e7e2754f0c6fd27012c0472c7b3b35a548f24e36d1773edbdc49d63fdba9d",
    "k_eq_n_r1":
        "654064e24dbb25bec6673d80f1ac51f5df1d38b24673ef631ca41a26e07dcac0",
    "k_eq_n_r2":
        "b55932ae3c8b4c5292255e9bb39ef9ad69c716e585fc8571e9b467ac5d95d685",
    "k_eq_n_fixed":
        "c908e660c4028a272348dac6b93f72f0c1d625e880fbbe1edf0a9a33ee422777",
    "experiment_hitting":
        "1d2588539e37298e2b2dd1d228a9fa366834c270072140795879e6fdadeacba8",
    "experiment_accuracy_thinned":
        "791d926539b11d9121085eb4bd8e1e4026c23384adfc738b01976c57f34ec8c2",
    "experiment_accuracy_timeout":
        "6d479d7c810f24e8af0cd0e806bcc78f78afc2698041e4866dbd8f62ecb035c6",
    "experiment_stopping_r2":
        "cc5c796cb4fb8aa59f02b5956df6962422c4e5b2e13fbae3aedb464d392b59e2",
    "isolated_r2_everystep":
        "402100e86f2479c83d7d77ba71e4790c9dd0ab5c193495e8147ff9a1fcaefe3f",
    "isolated_fixed_thinned":
        "7c28f150011408a6d6221ba1abb013aee34fbbed3c2282b5c327a33bb8383919",
    "bench_corpus_query_mix_100k":
        "e65a7e5cb157fec8ac6fe6c847211b3e759cb1920abbe9e2627be89ef32be20d",
    "bench_corpus_ingest_detect_1m":
        "04746341e0ee6e9dfe8a27dd9430541517d74206de7cbec050f6020dedf922e8",
}

PA_ARGS = ["generate", "pa", "--n", "2000", "--seed", "7"]
SMALL_PA_ARGS = ["generate", "pa", "--n", "40", "--seed", "3"]
CM_ARGS = ["generate", "cm", "--n", "2000", "--gamma", "2.5", "--c", "3.7",
           "--xprime", "1.6878", "--seed", "7"]


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def graph_sha(g: dw.Graph) -> str:
    return sha(b"".join(np.ascontiguousarray(a, dtype="<i8").tobytes()
                        for a in (g.offsets, g.neighbors, g.original_ids)))


def run_stdout(capsys, argv) -> str:
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out


def run_detect(capsys, cache, args) -> tuple[int, str]:
    capsys.readouterr()
    code = main(["detect", str(cache), "--alpha", "2", "--seed", "1"] + args)
    return code, capsys.readouterr().out


def ingest_cache(capsys, tmp_path, gen_args):
    text = tmp_path / "graph.txt"
    text.write_text(run_stdout(capsys, gen_args), encoding="utf-8")
    cache = tmp_path / "graph.npz"
    run_stdout(capsys, ["ingest", str(text), "--cache", str(cache)])
    return cache


@pytest.fixture
def pa_text(tmp_path, capsys):
    path = tmp_path / "pa.txt"
    path.write_text(run_stdout(capsys, PA_ARGS), encoding="utf-8")
    return path


RULE_ARGS = {
    "r0": ["--rule", "r0", "--a-bar", "0.5"],
    "r1": ["--rule", "r1", "--a-bar", "0.3"],
    "r2": ["--rule", "r2", "--b-bar", "7"],
    "fixed": ["--rule", "fixed", "--m", "3000"],
}


class TestGoldenOutputs:
    def test_generate_pa_stdout(self, capsys):
        assert sha(run_stdout(capsys, PA_ARGS)) == GOLDEN["generate_pa"]

    def test_generate_cm_stdout(self, capsys):
        assert sha(run_stdout(capsys, CM_ARGS)) == GOLDEN["generate_cm"]

    def test_ingest_out(self, pa_text, tmp_path, capsys):
        out = tmp_path / "ingested.txt"
        run_stdout(capsys, ["ingest", str(pa_text), "--out", str(out)])
        assert sha(out.read_bytes()) == GOLDEN["ingest_out"]

    def test_detect_r2_from_cache(self, pa_text, tmp_path, capsys):
        cache = tmp_path / "pa.npz"
        run_stdout(capsys, ["ingest", str(pa_text), "--cache", str(cache)])
        got = run_stdout(capsys, ["detect", str(cache), "--k", "10", "--rule", "r2",
                                  "--b-bar", "7", "--alpha", "2", "--seed", "1"])
        assert sha(got) == GOLDEN["detect_r2_from_cache"]

    def test_graph_arrays(self, pa_text, tmp_path):
        pa = dw.generate_pa(dw.PAConfig(n=2000, seed=7))
        cm = dw.generate_config_model(dw.ConfigModelConfig(
            n=2000, tail=dw.ParetoTail(gamma=2.5, c=3.7, x_prime=1.6878), seed=7))
        parsed = dw.load_edge_list(pa_text)
        cache = tmp_path / "pa.npz"
        parsed.save_npz(cache)
        assert graph_sha(pa) == GOLDEN["arrays_generate_pa"]
        assert graph_sha(cm) == GOLDEN["arrays_generate_cm"]
        assert graph_sha(parsed) == GOLDEN["arrays_load_edge_list"]
        assert graph_sha(dw.Graph.load_npz(cache)) == GOLDEN["arrays_load_npz"]

    def test_generate_pa_arrays_at_bench_scale(self, pa_graph):
        """The bench and fixture graph, a seed whose uniform picks make a
        Lemire rejection in numpy's bounded-integer draw, and the 1e6-node
        ingest tree, whose rejections fall in several word chunks."""
        reject = dw.generate_pa(dw.PAConfig(n=20_000, seed=184))
        assert graph_sha(pa_graph) == GOLDEN["arrays_generate_pa_bench"]
        assert graph_sha(reject) == GOLDEN["arrays_generate_pa_lemire_reject"]
        ingest = dw.generate_pa(dw.PAConfig(
            n=1_000_000, edges_per_node=1, attractiveness=0.5, seed=7))
        assert graph_sha(ingest) == GOLDEN["arrays_generate_pa_ingest"]

    def test_edge_text_at_bench_scale(self, pa_graph):
        """The bench graph's text, as the bench writes it: two formatting
        chunks and ids of 1 to 6 digits."""
        text = "\n".join(pa_graph.to_edge_lines()) + "\n"
        assert sha(text) == GOLDEN["text_generate_pa_bench"]


class TestGoldenDetect:
    """Every rule and sampling mode on the n=2000 cache, the per-rule
    --max-steps timeouts (exit code 2, fired=False) and k == n."""

    @pytest.mark.parametrize("rule,mode", [
        ("r0", "everystep"), ("r0", "thinned"), ("r1", "everystep"),
        ("r1", "thinned"), ("r2", "everystep"), ("fixed", "everystep"),
        ("fixed", "thinned")])
    def test_rule_and_mode(self, rule, mode, tmp_path, capsys):
        cache = ingest_cache(capsys, tmp_path, PA_ARGS)
        code, out = run_detect(capsys, cache, ["--k", "10", "--mode", mode]
                               + RULE_ARGS[rule])
        assert code == 0 and "fired=True" in out
        assert sha(out) == GOLDEN[f"detect_{rule}_{mode}"]

    @pytest.mark.parametrize("rule", ["r0", "r1", "r2", "fixed"])
    def test_max_steps_timeout(self, rule, tmp_path, capsys):
        cache = ingest_cache(capsys, tmp_path, PA_ARGS)
        code, out = run_detect(capsys, cache, ["--k", "10", "--max-steps", "400"]
                               + RULE_ARGS[rule])
        assert code == 2 and "fired=False" in out and "raw_steps=400 " in out
        assert sha(out) == GOLDEN[f"timeout_{rule}"]

    @pytest.mark.parametrize("rule", ["r0", "r1", "r2", "fixed"])
    def test_k_equals_n(self, rule, tmp_path, capsys):
        cache = ingest_cache(capsys, tmp_path, SMALL_PA_ARGS)
        rule_args = (["--rule", "r2", "--b-bar", "38"] if rule == "r2"
                     else RULE_ARGS[rule])
        code, out = run_detect(capsys, cache, ["--k", "40", "--mode", "everystep"]
                               + rule_args)
        assert code == 0 and "fired=True" in out
        if rule != "r2":  # r2 may fire before the list is full
            assert len(out.splitlines()) == 40 + 2
        assert sha(out) == GOLDEN[f"k_eq_n_{rule}"]


ISOLATED_ARGS = {
    "r2_everystep": ["--rule", "r2", "--b-bar", "2", "--mode", "everystep"],
    "fixed_thinned": ["--rule", "fixed", "--m", "50", "--mode", "thinned",
                      "--transient", "20"],
}

# hitting: low alpha and a short --max-steps, so 11 of 30 trials time out and
# one hits on the last allowed step; accuracy_thinned: a thinning transient
# that ends inside the ninth 512-step move block; accuracy_timeout: every
# trial stops at --max-steps, so the grid points from 801 on hold the counts
# at 800
EXPERIMENT_ARGS = {
    "hitting": ["hitting", "--runs", "30", "--alpha", "0.5", "--max-steps", "150"],
    "accuracy_thinned": ["accuracy", "--runs", "8", "--k", "10", "--alpha", "2",
                         "--mode", "thinned", "--transient", "4500", "--q", "0.3",
                         "--m-grid", "0,100,1000,3000"],
    "accuracy_timeout": ["accuracy", "--runs", "8", "--k", "10", "--alpha", "2",
                         "--mode", "everystep", "--max-steps", "800",
                         "--m-grid", "0,1,799,800,801,5000"],
    "stopping_r2": ["stopping", "--runs", "12", "--k", "10", "--alpha", "2",
                    "--rule", "r2", "--b-bar", "7"],
}


class TestGoldenExperimentsAndIsolated:
    """The experiment CSV bodies on the n=2000 cache and detect on a graph
    whose every node is isolated (alpha > 0, so every step is a jump)."""

    @pytest.mark.parametrize("name", sorted(EXPERIMENT_ARGS))
    def test_experiment_csv_body(self, name, tmp_path, capsys):
        cache = ingest_cache(capsys, tmp_path, PA_ARGS)
        out = tmp_path / f"{name}.csv"
        what, *rest = EXPERIMENT_ARGS[name]
        capsys.readouterr()
        assert main(["experiment", what, str(cache), "--seed", "5",
                     "--out", str(out)] + rest) == 0
        assert sha(read_csv_body(out)) == GOLDEN[f"experiment_{name}"]

    @pytest.mark.parametrize("name", sorted(ISOLATED_ARGS))
    def test_detect_all_isolated(self, name, tmp_path, capsys):
        cache = tmp_path / "isolated.npz"
        dw.Graph.from_edges(np.empty((0, 2), dtype=np.int64), n=6).save_npz(cache)
        code, out = run_detect(capsys, cache, ["--k", "3"] + ISOLATED_ARGS[name])
        assert code == 0 and "fired=True" in out
        assert sha(out) == GOLDEN[f"isolated_{name}"]


# The detect corpora of the two benchmark workloads, with the seeds the
# bench derives for them: query_mix_100k runs 60 queries on the 1e5-node
# bench graph, cycling through 8 r2_k10, 4 fixed_k10, 5 r1_k10 and 3 r0_k50,
# and ingest_detect_1m runs 4 r2_k10 queries on the 1e6-node ingest tree.
# Every query but fixed_k10 thins with transient 100 and q = 0.5; alpha = 2.
BENCH_THINNED = dw.Thinned(transient=100, q=0.5)
BENCH_QUERIES = {
    "r2_k10": (10, "r2", 7.0, BENCH_THINNED),
    "fixed_k10": (10, "fixed", 12000, dw.EveryStep()),
    "r1_k10": (10, "r1", 0.3, BENCH_THINNED),
    "r0_k50": (50, "r0", 0.3, BENCH_THINNED),
}
QUERY_MIX_BLOCK = ["r2_k10"] * 8 + ["fixed_k10"] * 4 + ["r1_k10"] * 5 + ["r0_k50"] * 3


def bench_decisions(g: dw.Graph, tag: int, kinds: list[str]) -> list[tuple]:
    """(fired, fired_at_samples, raw_steps, entries()) of corpus entry j,
    run as the bench runs it, for each kinds[j]."""
    rows = []
    for j, kind in enumerate(kinds):
        k, rule, threshold, mode = BENCH_QUERIES[kind]
        seed = int(np.random.SeedSequence([tag, 0, j]).generate_state(1)[0])
        cfg = dw.WalkConfig(alpha=2.0, seed=seed, mode=mode)
        dec = (dw.detect_fixed_m_decision(g, cfg, k, threshold) if rule == "fixed"
               else dw.detect_with_rule(g, cfg, k, rule, threshold))
        rows.append((dec.fired, dec.fired_at_samples, dec.raw_steps,
                     dec.final_list.entries()))
    return rows


class TestGoldenBenchCorpus:
    """The outputs the bench checks and averages, query for query: the
    walk's segment kernel must leave every one of them as it was."""

    def test_query_mix_100k(self, pa_graph):
        rows = bench_decisions(pa_graph, 2, [QUERY_MIX_BLOCK[j % 20] for j in range(60)])
        assert all(fired for fired, *_ in rows)
        assert np.mean([raw for _, _, raw, _ in rows]) == 50533.25
        assert sha(repr(rows)) == GOLDEN["bench_corpus_query_mix_100k"]

    def test_ingest_detect_1m(self):
        ingest = dw.generate_pa(dw.PAConfig(
            n=1_000_000, edges_per_node=1, attractiveness=0.5, seed=7))
        rows = bench_decisions(ingest, 1, ["r2_k10"] * 4)
        assert np.mean([raw for _, _, raw, _ in rows]) == 60579
        assert sha(repr(rows)) == GOLDEN["bench_corpus_ingest_detect_1m"]
