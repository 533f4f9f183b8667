import contextlib
import io
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import degreewalk as dw
from degreewalk.cli import build_parser, main
from degreewalk.experiments import read_csv_body

from helpers import _PATH3, CORRUPT_CACHES


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.txt"
    path.write_text("# star on 4 nodes\n0 1\n0 2\n0 3\n")
    return str(path)


@pytest.fixture
def disconnected_file(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n")
    return str(path)


@pytest.fixture
def pa_file(tmp_path):
    g = dw.generate_pa(dw.PAConfig(n=300, edges_per_node=1, seed=1))
    path = tmp_path / "pa.txt"
    path.write_text("\n".join(g.to_edge_lines()) + "\n")
    return str(path)


def _npz_bytes(**members) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **members)
    return buf.getvalue()


# the path 0-1-2 as a cache, with one byte of neighbors.npy's data flipped
_BAD_CRC = _npz_bytes(**_PATH3).replace(np.array([0, 2, 1]).tobytes(),
                                        np.array([0, 2, 0]).tobytes())
_OBJECT_MEMBER = _npz_bytes(**{**_PATH3, "neighbors": np.array(_PATH3["neighbors"], dtype=object)})


class TestExitCodes:
    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == f"degreewalk {dw.__version__}\n"

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_detect_missing_rule_flag(self, star_file, capsys):
        assert main(["detect", star_file, "--k", "1", "--rule", "r1"]) == 1
        assert "requires --a-bar" in capsys.readouterr().err

    def test_detect_conflicting_flags(self, star_file, capsys):
        rc = main(["detect", star_file, "--k", "1", "--rule", "r2",
                   "--b-bar", "1", "--m", "10"])
        assert rc == 1
        assert "does not take" in capsys.readouterr().err

    def test_unreachable_hitting_is_runtime_error(self, disconnected_file, capsys):
        rc = main(["analyze", "hitting", disconnected_file, "--alpha", "0"])
        assert rc == 2
        assert "unreachable" in capsys.readouterr().err

    def test_missing_file_is_runtime_error(self, capsys):
        assert main(["ingest", "/nonexistent/graph.txt"]) == 2

    @pytest.mark.parametrize("command, flags", [
        (["detect"], ["--k", "1", "--rule", "r1"]),
        (["experiment", "stopping"], []),
        (["experiment", "stopping"], ["--rule", "r0"]),
        (["experiment", "stopping"], ["--rule", "r2", "--a-bar", "0.5"]),
        (["experiment", "accuracy"], []),
        (["experiment", "accuracy"], ["--m-grid", "1,x"]),
        (["analyze", "hitting"], ["--nu", "everywhere"]),
    ])
    def test_bad_flags_reported_before_graph_is_read(self, command, flags, capsys):
        """A flag error exits 1 even when the graph file does not exist."""
        assert main(command + ["/nonexistent/graph.txt"] + flags) == 1
        assert "usage error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["detect"], ["experiment", "stopping"]])
    @pytest.mark.parametrize("flags, name", [
        (["--rule", "r2", "--b-bar", "nan"], "b_bar"),
        (["--rule", "r2", "--b-bar=-inf"], "b_bar"),
        (["--rule", "r0", "--a-bar", "inf"], "a_bar"),
        (["--rule", "r0", "--a-bar", "2"], "a_bar"),
        (["--rule", "r1", "--a-bar", "nan"], "a_bar"),
        (["--rule", "r2", "--b-bar", "1e300"], "b_bar"),
        (["--rule", "r2", "--b-bar", "1.5"], "b_bar"),
        (["--rule", "r1", "--a-bar", "0.5", "--transient", "9223372036854775808"],
         "transient"),
        (["--rule", "r2", "--b-bar", "1", "--transient", "50", "--max-steps", "50"],
         "transient"),
        (["--rule", "r2", "--b-bar", "1", "--k", "0"], "k must be >= 1"),
    ])
    def test_bad_threshold_reported_before_graph_is_read(self, command, flags,
                                                         name, capsys):
        """A threshold out of its rule's range for k = 1, a k below 1, or a
        transient that leaves no raw step to sample, exits 2 naming it, even
        when the graph file does not exist."""
        assert main(command + ["/nonexistent/graph.txt", "--k", "1"] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err and "graph.txt" not in err

    @pytest.mark.parametrize("command, flags, name", [
        ("detect", "--k 1 --rule fixed --m 5 --max-steps 0", "max_steps must be"),
        ("detect", "--k 1 --rule fixed --m 5 --max-steps 0 --mode everystep",
         "max_steps must be"),
        ("detect", "--k 1 --rule fixed --m 5 --alpha=-1", "alpha must be"),
        ("detect", "--k 1 --rule r2 --b-bar 1 --alpha nan", "alpha must be"),
        ("experiment hitting", "--alpha=-1", "alpha must be"),
        ("experiment accuracy", "--m-grid 10 --alpha nan", "alpha must be"),
        ("experiment stopping", "--rule r2 --b-bar 1 --alpha=-1", "alpha must be"),
        ("analyze stationary", "--alpha=-1", "alpha must be"),
        ("analyze return-time", "--alpha nan", "alpha must be"),
        ("analyze hitting", "--alpha=-1", "alpha must be"),
        ("experiment hitting", "--runs 0", "runs must be >= 1"),
        ("experiment accuracy", "--m-grid 5,5", "m_grid must be strictly increasing"),
        ("experiment accuracy", "--m-grid 10,100 --k 0", "k must be >= 1"),
        ("experiment accuracy", "--m-grid 10,100 --alpha 2 --max-steps 50",
         "transient must be below max_steps=50"),
    ])
    def test_bad_walk_or_plan_reported_before_graph_is_read(self, command, flags,
                                                            name, capsys):
        """A bad --alpha or --max-steps, or an experiment plan that its
        owner rejects, exits 2 naming it, even when the graph file does not
        exist."""
        argv = command.split() + ["/nonexistent/graph.txt"] + flags.split()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err and "graph.txt" not in err

    def test_bad_k_reported_before_graph_is_read(self, capsys):
        """The fixed rule's --k 0 and --m 0 are reported first."""
        for m, k, msg in (("7", "0", "k must be >= 1"), ("0", "1", "m must be >= 1")):
            assert main(["detect", "/nonexistent/graph.txt", "--rule", "fixed",
                         "--m", m, "--k", k]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {msg}") and "graph.txt" not in err

    def test_malformed_edge_list(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\nnope\n")
        assert main(["ingest", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_id_beyond_int64_is_runtime_error(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        big.write_text("99999999999999999999 1\n")
        assert main(["ingest", str(big)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "out of int64 range" in err

    def test_nan_alpha_is_runtime_error(self, star_file, capsys):
        assert main(["analyze", "stationary", star_file, "--alpha", "nan"]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["-1", "nan", "inf"])
    def test_bad_alpha_hitting_names_alpha(self, alpha, pa_file, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["analyze", "hitting", pa_file, f"--alpha={alpha}"]) == 2
        assert "alpha must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_attract_named(self, value, capsys):
        assert main(["generate", "pa", "--n", "6", "--attract", value, "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "attractiveness must be finite" in captured.err

    @pytest.mark.parametrize("argv, field", [
        (["generate", "cm", "--n", "50", "--gamma", "nan", "--c", "1", "--xprime", "1"],
         "gamma"),
        (["generate", "cm", "--n", "50", "--gamma", "2.5", "--c", "nan", "--xprime", "1"],
         "c"),
        (["generate", "cm", "--n", "50", "--gamma", "2.5", "--c", "1", "--xprime", "nan"],
         "x_prime"),
        (["generate", "cm", "--n", "50", "--gamma", "2.5", "--c", "1", "--xprime", "inf"],
         "x_prime"),
        (["estimate", "evt", "--k", "3", "--n", "1000", "--gamma", "nan", "--c", "1"],
         "gamma"),
    ])
    def test_non_finite_tail_named(self, argv, field, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f" {field} must be finite" in captured.err

    @pytest.mark.parametrize("argv, field", [
        (["estimate", "evt", "--k", "3", "--n", "1000", "--gamma", "0", "--c", "1"],
         "gamma"),
        (["generate", "cm", "--n", "50", "--gamma", "2.5", "--c", "1", "--xprime", "1e300"],
         "x_prime"),
    ])
    def test_tail_arithmetic_error_named(self, argv, field, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and field in captured.err

    def test_k_larger_than_n(self, star_file, capsys):
        rc = main(["detect", star_file, "--k", "10", "--rule", "fixed",
                   "--m", "5"])
        assert rc == 2


class TestDetect:
    def test_happy_path_rule2(self, pa_file, tmp_path, capsys):
        out = tmp_path / "top.csv"
        rc = main(["detect", pa_file, "--k", "3", "--rule", "r2",
                   "--b-bar", "2", "--q", "0.5", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "original_id,degree,hits"
        assert len(lines) == 4
        summary = capsys.readouterr().out
        assert "rule=r2" in summary and "fired=True" in summary

    def test_fixed_budget(self, star_file, capsys):
        rc = main(["detect", star_file, "--k", "1", "--rule", "fixed",
                   "--m", "50", "--alpha", "1", "--seed", "3",
                   "--mode", "everystep"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("0,3")  # center found

    def test_rule_timeout_exits_two(self, star_file, capsys):
        # the default transient of 100 would leave 50 steps nothing to sample,
        # which is rejected before the walk
        rc = main(["detect", star_file, "--k", "4", "--rule", "r1",
                   "--a-bar", "0.0001", "--max-steps", "50", "--transient", "10"])
        assert rc == 2
        assert "timeout" in capsys.readouterr().err

    def test_detect_from_npz_cache(self, star_file, tmp_path, capsys):
        cache = tmp_path / "star.npz"
        assert main(["ingest", star_file, "--cache", str(cache)]) == 0
        rc = main(["detect", str(cache), "--k", "1", "--rule", "fixed",
                   "--m", "20", "--alpha", "1", "--seed", "0"])
        assert rc == 0


    def test_detect_from_compressed_cache(self, pa_file, tmp_path, capsys):
        """Caches written by np.savez_compressed still load, array for array,
        and detect on them prints what it prints on a new cache."""
        g = dw.load_edge_list(pa_file)
        old = tmp_path / "old.npz"
        np.savez_compressed(old, offsets=g.offsets, neighbors=g.neighbors,
                            original_ids=g.original_ids)
        loaded = dw.Graph.load_npz(old)
        for name in ("offsets", "neighbors", "original_ids"):
            assert np.array_equal(getattr(loaded, name), getattr(g, name)), name
        new = tmp_path / "new.npz"
        g.save_npz(new)
        args = ["--k", "3", "--rule", "r2", "--b-bar", "2", "--alpha", "2",
                "--seed", "1"]
        outputs = []
        for cache in (old, new):
            assert main(["detect", str(cache), *args]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


    @pytest.mark.parametrize("case", sorted(CORRUPT_CACHES))
    def test_detect_rejects_corrupt_cache(self, case, tmp_path, capsys):
        members, bad = CORRUPT_CACHES[case]
        path = tmp_path / "g.npz"
        np.savez(path, **members)
        rc = main(["detect", str(path), "--k", "1", "--rule", "fixed",
                   "--m", "5", "--alpha", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert f"g.npz: {bad}:" in captured.err and captured.out == ""

    @pytest.mark.parametrize("content", [b"0 1\n1 2\n", b"PK\x03\x04" + b"junk" * 8,
                                         b"", np.arange(3), _BAD_CRC, _OBJECT_MEMBER],
                             ids=["edge_text", "truncated_zip", "empty", "npy_array",
                                  "member_fails_crc", "member_of_objects"])
    def test_detect_rejects_a_file_that_is_no_cache(self, content, tmp_path, capsys):
        """Edge-list text, a truncated zip, an empty file, a bare .npy
        array behind a .npz name, or a cache with a member that fails its
        CRC or holds objects: exit code 2 and a message that names the
        cache and the fault, not a traceback or numpy's pickle advice."""
        path = tmp_path / "g.npz"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            with open(path, "wb") as fh:
                np.save(fh, content)
        rc = main(["detect", str(path), "--k", "1", "--rule", "fixed",
                   "--m", "5", "--alpha", "1"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert f"graph cache {path}: not a readable npz archive" in captured.err
        assert "pickle" not in captured.err and "Traceback" not in captured.err
        with pytest.raises(ValueError, match=r"^graph cache .*g\.npz: not a readable npz archive$"):
            dw.Graph.load_npz(path)


class TestGenerateAndIngest:
    def test_generate_pa_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["generate", "pa", "--n", "200", "--edges-per-node", "1",
                "--attract", "0.5", "--seed", "5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generate_cm(self, tmp_path, capsys):
        out = tmp_path / "cm.txt"
        rc = main(["generate", "cm", "--n", "500", "--gamma", "2.5",
                   "--c", "3.7", "--xprime", "1.6878", "--seed", "2",
                   "--out", str(out)])
        assert rc == 0
        g = dw.load_edge_list(out)
        assert g.n <= 500 and g.m_edges > 0

    def test_generate_cm_invalid_tail(self, capsys):
        rc = main(["generate", "cm", "--n", "10", "--gamma", "2.5",
                   "--c", "3.7", "--xprime", "1.0", "--seed", "2"])
        assert rc == 2
        assert "exceeds 1" in capsys.readouterr().err

    def test_ingest_summary(self, star_file, capsys):
        assert main(["ingest", star_file]) == 0
        out = capsys.readouterr().out
        assert "n=4" in out and "m_edges=3" in out and "d_max=3" in out

    def test_ingest_cache_must_end_in_npz(self, tmp_path, capsys):
        """detect reads a path as a cache only if it ends in .npz, so ingest
        rejects any other --cache before the graph is read, writing nothing."""
        argv = ["ingest", str(tmp_path / "missing.txt"), "--cache", str(tmp_path / "g.cache")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--cache" in err and "missing.txt" not in err
        assert list(tmp_path.iterdir()) == []

    def test_ingest_symmetrize_flag(self, tmp_path, capsys):
        arcs = tmp_path / "arcs.txt"
        arcs.write_text("0 1\n1 0\n2 0\n")
        assert main(["ingest", str(arcs), "--symmetrize"]) == 0
        assert "m_edges=2" in capsys.readouterr().out


class TestAnalyze:
    def test_stationary_csv(self, star_file, tmp_path):
        out = tmp_path / "pi.csv"
        rc = main(["analyze", "stationary", star_file, "--alpha", "1",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "node,original_id,degree,pi"
        probs = [float(line.split(",")[3]) for line in lines[1:]]
        assert probs == pytest.approx([0.4, 0.2, 0.2, 0.2])

    def test_return_time(self, star_file, capsys):
        rc = main(["analyze", "return-time", star_file, "--alpha", "0"])
        assert rc == 0
        assert "return_time=2.0" in capsys.readouterr().out

    def test_hitting_uniform(self, star_file, capsys):
        rc = main(["analyze", "hitting", star_file, "--alpha", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hitting_time=0.75" in out and "target=0" in out

    def test_hitting_from_node(self, star_file, capsys):
        rc = main(["analyze", "hitting", star_file, "--alpha", "0",
                   "--nu", "node:1"])
        assert rc == 0
        assert "hitting_time=1.0" in capsys.readouterr().out

    def test_hitting_beyond_dense_cap(self, tmp_path, capsys):
        g = dw.generate_pa(dw.PAConfig(n=5000, edges_per_node=1, seed=3))
        path = tmp_path / "pa5000.txt"
        path.write_text("\n".join(g.to_edge_lines()) + "\n")
        assert main(["analyze", "hitting", str(path), "--alpha", "2"]) == 0
        target = dw.exact_top_k(g, 1)[0].node
        want = dw.hitting_time_exact(g, 2.0, target)
        assert f"hitting_time={want!r} target={target}" in capsys.readouterr().out

    @pytest.mark.parametrize("what, line", [("return-time", "return_time=2.0"),
                                            ("hitting", "hitting_time=0.75 target=0")])
    def test_out_file(self, what, line, star_file, tmp_path, capsys):
        out = tmp_path / "out.txt"
        assert main(["analyze", what, star_file, "--alpha", "0", "--out", str(out)]) == 0
        assert out.read_text() == line + "\n"
        assert capsys.readouterr().out == ""

    def test_bad_nu_spec(self, star_file, capsys):
        for spec in ("everywhere", "node:abc"):
            assert main(["analyze", "hitting", star_file, "--nu", spec]) == 1, spec
            assert "usage error: --nu" in capsys.readouterr().err


class TestEstimate:
    def test_evt_pa_parameters(self, capsys, tmp_path):
        out = tmp_path / "evt.csv"
        rc = main(["estimate", "evt", "--gamma", "2.5", "--c", "3.7",
                   "--n", "100000", "--k", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rank,predicted_degree"
        d1 = float(lines[1].split(",")[1])
        d2 = float(lines[2].split(",")[1])
        assert 126.0 <= d1 <= 128.0
        assert d2 == pytest.approx(100.0, abs=1e-6)
        assert "a_n=" in capsys.readouterr().out


class TestExperimentCommand:
    def test_hitting_csv(self, star_file, tmp_path, capsys):
        out = tmp_path / "hits.csv"
        rc = main(["experiment", "hitting", star_file, "--runs", "50",
                   "--alpha", "1", "--seed", "3", "--out", str(out)])
        assert rc == 0
        body = out.read_text().splitlines()
        assert body[1] == "trial,steps"
        assert len([l for l in body if not l.startswith("#")]) == 51
        assert "mean=" in capsys.readouterr().out

    def test_threads_flag_does_not_change_rows(self, star_file, tmp_path, capsys):
        bodies = []
        for threads in ("1", "4"):
            out = tmp_path / f"hits{threads}.csv"
            assert main(["experiment", "hitting", star_file, "--runs", "32",
                         "--alpha", "1", "--seed", "9", "--max-steps", "1000",
                         "--threads", threads, "--out", str(out)]) == 0
            bodies.append(read_csv_body(out))
        assert bodies[0] == bodies[1]

    @pytest.mark.parametrize("flag", [["--q", "0"], ["--q", "1.5"], ["--transient", "-1"]])
    def test_hitting_ignores_sampling_flags(self, pa_file, tmp_path, flag):
        argv = ["experiment", "hitting", pa_file, "--runs", "2", "--alpha", "1"]
        bodies = []
        for extra, name in (([], "plain.csv"), (flag, "flag.csv")):
            out = tmp_path / name
            assert main(argv + extra + ["--out", str(out)]) == 0
            bodies.append(read_csv_body(out))
        assert bodies[0] == bodies[1]

    def test_accuracy_requires_grid(self, star_file, capsys):
        assert main(["experiment", "accuracy", star_file, "--runs", "5"]) == 1
        assert main(["experiment", "accuracy", star_file, "--runs", "5",
                     "--m-grid", "1,x"]) == 1
        assert "usage error: --m-grid" in capsys.readouterr().err

    def test_accuracy_csv(self, star_file, tmp_path, capsys):
        out = tmp_path / "acc.csv"
        rc = main(["experiment", "accuracy", star_file, "--runs", "20",
                   "--k", "1", "--m-grid", "1,3,5", "--alpha", "1",
                   "--q", "0.2", "--transient", "20", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "m,mean_correct,ci95,exact,poisson"

    def test_stopping_requires_matching_threshold(self, star_file, capsys):
        for flags in (["--rule", "r2", "--a-bar", "0.5"],
                      ["--rule", "r0", "--a-bar", "0.5", "--b-bar", "9"]):
            rc = main(["experiment", "stopping", star_file, "--runs", "2", "--k", "1"]
                      + flags)
            assert rc == 1, flags

    def test_stopping_csv(self, star_file, tmp_path, capsys):
        out = tmp_path / "stop.csv"
        rc = main(["experiment", "stopping", star_file, "--runs", "5",
                   "--k", "1", "--rule", "r1", "--a-bar", "0.5",
                   "--alpha", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1].startswith("trial,raw_steps,samples,correct_count")
        assert "mean_correct=" in capsys.readouterr().out


# Every numeric flag of every subcommand, with arguments under which the
# command is quick while no flag is hostile. {txt} and {npz} are a 300-node
# PA graph as text and as a cache, {out} a scratch output file.
_WALK_FLAGS = ["--alpha", "--q", "--transient", "--max-steps", "--seed", "--threads"]
HOSTILE_COMMANDS = [
    ("generate pa --n 300 --out {out}",
     ["--n", "--edges-per-node", "--attract", "--seed", "--threads"]),
    ("generate cm --n 300 --gamma 2.5 --c 1 --xprime 1 --out {out}",
     ["--n", "--gamma", "--c", "--xprime", "--seed", "--threads"]),
    ("ingest {txt}", ["--seed", "--threads"]),
    ("detect {npz} --k 3 --rule fixed --m 200 --max-steps 5000",
     ["--k", "--m"] + _WALK_FLAGS),
    ("detect {npz} --k 3 --rule r0 --a-bar 0.5 --max-steps 5000", ["--k", "--a-bar"]),
    ("detect {npz} --k 3 --rule r1 --a-bar 0.5 --max-steps 5000", ["--k", "--a-bar"]),
    ("detect {npz} --k 3 --rule r2 --b-bar 2 --max-steps 5000",
     ["--k", "--b-bar"] + _WALK_FLAGS),
    ("analyze stationary {npz} --out {out}", ["--alpha", "--seed", "--threads"]),
    ("analyze return-time {npz}", ["--alpha"]),
    ("analyze hitting {npz}", ["--alpha", "--target"]),
    ("estimate evt --gamma 2.5 --c 1 --n 1000 --k 5 --out {out}",
     ["--gamma", "--c", "--xprime", "--n", "--k", "--seed", "--threads"]),
    ("experiment hitting {npz} --runs 3 --max-steps 5000", ["--runs"] + _WALK_FLAGS),
    ("experiment accuracy {npz} --runs 3 --k 3 --m-grid 10,50 --max-steps 5000",
     ["--runs", "--k"] + _WALK_FLAGS),
    ("experiment stopping {npz} --runs 3 --k 3 --rule r2 --b-bar 2 --max-steps 5000",
     ["--runs", "--k", "--b-bar"] + _WALK_FLAGS),
    ("experiment stopping {npz} --runs 3 --k 3 --rule r1 --a-bar 0.5 --max-steps 5000",
     ["--a-bar"]),
]
HOSTILE_CASES = [(base, flag) for base, flags in HOSTILE_COMMANDS for flag in flags]
HOSTILE_VALUES = ["0", "-1", "-7.5", "nan", "inf", "-inf", "1e300", "-1e300", "1e308",
                  str(2 ** 63), str(-2 ** 63 - 1), str(10 ** 309)]
# what a failing command prints: its one message line (argparse's own
# names the command), or the timeout notice of a rule that did not fire
MESSAGE_LINE = re.compile(r"(degreewalk[a-z -]*: error|error|usage error|timeout): ")


@pytest.fixture(scope="module")
def hostile_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    g = dw.generate_pa(dw.PAConfig(n=300, edges_per_node=1, seed=1))
    files = {"txt": root / "pa.txt", "npz": root / "pa.npz", "out": root / "out.txt"}
    files["txt"].write_text("\n".join(g.to_edge_lines()) + "\n")
    g.save_npz(files["npz"])
    return files


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestHostileFlags:
    @settings(max_examples=300, deadline=None)
    @given(case=st.sampled_from(HOSTILE_CASES), value=st.sampled_from(HOSTILE_VALUES))
    def test_no_traceback_one_message(self, hostile_files, case, value):
        base, flag = case
        # 2**63 and 10**309 runs are valid input, only too many to wait for
        assume(not (flag == "--runs" and value in (str(2 ** 63), str(10 ** 309))))
        argv = base.format(**hostile_files).split()
        if flag in argv:
            del argv[argv.index(flag):argv.index(flag) + 2]
        argv.append(f"{flag}={value}")  # "=": argparse reads "-inf" as a flag
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        messages = [line for line in err.getvalue().splitlines()
                    if MESSAGE_LINE.match(line)]
        assert "Traceback" not in err.getvalue()
        assert code in (0, 1, 2)
        assert len(messages) == (code != 0), (argv, err.getvalue())


class TestHelp:
    def test_help_lists_every_interface_flag(self):
        import argparse

        parser = build_parser()
        texts = [parser.format_help()]

        def collect(p):
            for action in p._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sp in action.choices.values():
                        texts.append(sp.format_help())
                        collect(sp)

        collect(parser)
        blob = "\n".join(texts)
        for flag in ["--symmetrize", "--alpha", "--seed", "--max-steps",
                     "--mode", "--q", "--transient", "--k", "--rule", "--m",
                     "--a-bar", "--b-bar", "--n", "--edges-per-node",
                     "--attract", "--gamma", "--c", "--xprime", "--out",
                     "--target", "--nu", "--threads", "--version", "--m-grid",
                     "--runs", "--variant", "--cache"]:
            assert flag in blob, f"{flag} missing from help"

    @pytest.mark.parametrize("path", [["generate", "pa"], ["generate", "cm"], ["ingest"],
                                      ["detect"], ["analyze"], ["estimate", "evt"],
                                      ["experiment"]])
    def test_every_leaf_takes_the_common_flags(self, path, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(path + ["--help"])
        text = capsys.readouterr().out
        for flag in ("--seed", "--threads", "--out"):
            assert flag in text, f"{flag} missing from {' '.join(path)} --help"
