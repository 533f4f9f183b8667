"""Golden-output guard: pinned sha256 of small seeded CLI runs.

A refactor of the graph layer, the generators or the walk must leave every
hash below unchanged. A change meant to alter an output updates its hash
and says why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

import degreewalk as dw
from degreewalk.cli import main

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
    "arrays_generate_cm":
        "d3e8476c317e13e7cd45ed278b28fb02019ed31c7225dae18ed4136e7ed46bc6",
    "arrays_load_edge_list":
        "3c9fd80bd382518226304c26fff80fe24e04bd7aceb90988174c1d05a7c25687",
    "arrays_load_npz":
        "3c9fd80bd382518226304c26fff80fe24e04bd7aceb90988174c1d05a7c25687",
}

PA_ARGS = ["generate", "pa", "--n", "2000", "--seed", "7"]
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


@pytest.fixture
def pa_text(tmp_path, capsys):
    path = tmp_path / "pa.txt"
    path.write_text(run_stdout(capsys, PA_ARGS), encoding="utf-8")
    return path


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
