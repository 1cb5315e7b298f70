"""Graph file parsing, command dispatch, artifact determinism."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from eikonal_canon.cli import emit_graph_file, main, parse_graph_file
from eikonal_canon.errors import GraphFormatError

F = Fraction

INTERVAL_TXT = """\
vertex a boundary
vertex b boundary
edge e0 a b 1
"""

STAR_TXT = """\
# unit 3-star
vertex c
vertex g1 boundary
vertex g2 boundary
vertex g3 boundary
edge e1 g1 c 1
edge e2 c g2 1
edge e3 c g3 1
"""


class TestParseGraphFile:
    def test_interval(self):
        g = parse_graph_file(INTERVAL_TXT)
        assert set(g.boundary) == {"a", "b"}
        assert g.edges[0].length == 1

    def test_star_with_comment(self):
        g = parse_graph_file(STAR_TXT)
        assert set(g.boundary) == {"g1", "g2", "g3"}
        assert len(g.edges) == 3

    def test_rational_lengths(self):
        g = parse_graph_file(
            "vertex a boundary\nvertex b boundary\nedge e a b 7/3\n")
        assert g.edges[0].length == F(7, 3)

    def test_zero_length_rejected_with_line(self):
        with pytest.raises(GraphFormatError) as err:
            parse_graph_file(
                "vertex a boundary\nvertex b boundary\nedge e a b 0\n")
        assert err.value.line == 3

    def test_unknown_vertex(self):
        with pytest.raises(GraphFormatError):
            parse_graph_file("vertex a boundary\nedge e a z 1\n")

    def test_duplicate_edge_id(self):
        with pytest.raises(GraphFormatError):
            parse_graph_file(
                "vertex a boundary\nvertex b boundary\n"
                "edge e a b 1\nedge e a b 1\n")

    def test_bad_rational(self):
        with pytest.raises(GraphFormatError):
            parse_graph_file(
                "vertex a boundary\nvertex b boundary\nedge e a b 1.5x\n")

    def test_invalid_graph_reported(self):
        with pytest.raises(GraphFormatError) as err:
            parse_graph_file(
                "vertex a boundary\nvertex m\nvertex b boundary\n"
                "edge e0 a m 1\nedge e1 m b 1\n")
        assert "valence" in str(err.value)

    def test_vertex_on_no_edge_rejected(self):
        for extra in ("vertex x\n", "vertex x boundary\n"):
            with pytest.raises(GraphFormatError, match="vertices on no edge: x"):
                parse_graph_file(STAR_TXT + extra)

    def test_round_trip(self):
        g = parse_graph_file(STAR_TXT)
        g2 = parse_graph_file(emit_graph_file(g))
        assert [e for e in g2.edges] == [e for e in g.edges]
        assert g2.boundary == g.boundary


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.txt"
    path.write_text(STAR_TXT)
    return path


@pytest.fixture
def interval_file(tmp_path):
    path = tmp_path / "interval.txt"
    path.write_text(INTERVAL_TXT)
    return path


def run(args):
    return main([str(a) for a in args])


class TestCommands:
    def test_unknown_command_exit_2(self, star_file, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate", "--graph", star_file, "--sigma", "g1",
                 "--horizon", "1"])
        assert exc.value.code == 2

    def test_canonical_interval_golden(self, interval_file, tmp_path):
        out = tmp_path / "out"
        assert run(["canonical", "--graph", interval_file, "--sigma", "a",
                    "--horizon", "1/2", "--out", out]) == 0
        data = json.loads((out / "canonical.json").read_text())
        assert len(data["blocks"]) == 1
        blk = data["blocks"][0]
        assert blk["kappa"] == 1 and blk["length"] == "1/2"
        assert blk["terms"][0]["tau_shifted"] == {"intercept": "1", "slope": 1}
        assert blk["terms"][0]["tau_unshifted"] == {"intercept": "0", "slope": 1}

    def test_hydra_emits_json_and_dot(self, star_file, tmp_path):
        out = tmp_path / "out"
        assert run(["hydra", "--graph", star_file, "--sigma", "g1,g2",
                    "--horizon", "3/2", "--out", out]) == 0
        for gamma in ("g1", "g2"):
            assert (out / f"hydra_{gamma}.json").exists()
            dot = (out / f"hydra_{gamma}.dot").read_text()
            assert dot.startswith("digraph hydra")

    def test_partition_and_parametric(self, star_file, tmp_path):
        out = tmp_path / "out"
        assert run(["partition", "--graph", star_file, "--sigma", "g1",
                    "--horizon", "3/2", "--out", out]) == 0
        part = json.loads((out / "partition.json").read_text())
        assert len(part["families"]) == 2
        assert run(["parametric", "--graph", star_file, "--sigma", "g1",
                    "--horizon", "3/2", "--out", out]) == 0
        par = json.loads((out / "parametric.json").read_text())
        assert par["shifted"] is True

    def test_unshifted_parametric(self, star_file, tmp_path):
        out = tmp_path / "out"
        assert run(["parametric", "--graph", star_file, "--sigma", "g1",
                    "--horizon", "3/2", "--out", out, "--unshifted"]) == 0
        par = json.loads((out / "parametric.json").read_text())
        assert par["shifted"] is False
        intercepts = {t["tau"]["intercept"]
                      for b in par["blocks"] for t in b["terms"]}
        assert "0" in intercepts

    def test_spectrum_cluster_fan_in_dot(self, star_file, tmp_path):
        out = tmp_path / "out"
        assert run(["spectrum", "--graph", star_file, "--sigma", "g1,g2",
                    "--horizon", "5/4", "--out", out]) == 0
        data = json.loads((out / "spectrum.json").read_text())
        sizes = [seg["clusters"]["end"]["size"] for seg in data["segments"]]
        assert max(sizes) >= 2
        dot = (out / "spectrum.dot").read_text()
        assert "style=dotted" in dot  # the cluster fan

    def test_simulate(self, interval_file, tmp_path):
        out = tmp_path / "out"
        assert run(["simulate", "--graph", interval_file, "--sigma", "a",
                    "--horizon", "1/2", "--out", out]) == 0
        report = json.loads((out / "simulate.json").read_text())
        assert report["relative_l2_error"] <= 1e-2
        csv = (out / "simulate_fd.csv").read_text().splitlines()
        assert csv[0] == "edge,offset,value"

    def test_verify_exit_zero(self, star_file, tmp_path):
        assert run(["verify", "--graph", star_file, "--sigma", "g1",
                    "--horizon", "3/2", "--out", tmp_path / "v"]) == 0

    def test_deterministic_output(self, star_file, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert run(["spectrum", "--graph", star_file, "--sigma", "g1",
                        "--horizon", "3/2", "--out", out]) == 0
        assert (out1 / "spectrum.json").read_bytes() == \
            (out2 / "spectrum.json").read_bytes()
        assert (out1 / "spectrum.dot").read_bytes() == \
            (out2 / "spectrum.dot").read_bytes()

    def test_bad_sigma_exit_1(self, star_file, tmp_path, capsys):
        for sigma, horizon in (("nope", "1"), ("g1", "abc"), ("g1", "1/0")):
            assert run(["canonical", "--graph", star_file, "--sigma", sigma,
                        "--horizon", horizon, "--out", tmp_path / "x"]) == 1
            assert "error:" in capsys.readouterr().err

    def test_bad_tol_exit_1(self, star_file, tmp_path, capsys):
        for tol in ("-1", "0", "nan", "inf"):
            assert run(["spectrum", "--graph", star_file, "--sigma", "g1,g2",
                        "--horizon", "5/4", "--tol", tol,
                        "--out", tmp_path / "x"]) == 1
            assert "error: tol" in capsys.readouterr().err

    def test_bad_emit_exit_1(self, star_file, tmp_path, capsys):
        for emit in ("xml", "", "json,xml"):
            assert run(["spectrum", "--graph", star_file, "--sigma", "g1",
                        "--horizon", "3/2", "--emit", emit,
                        "--out", tmp_path / "x"]) == 1
            assert "error: emit" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_emit_without_json_exit_1(self, star_file, tmp_path, capsys):
        # these commands write JSON only; dot alone leaves them nothing
        for command in ("partition", "parametric", "canonical"):
            assert run([command, "--graph", star_file, "--sigma", "g1",
                        "--horizon", "3/2", "--emit", "dot",
                        "--out", tmp_path / "x"]) == 1
            assert "error: emit 'dot' leaves" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_file_exit_1(self, tmp_path):
        assert run(["canonical", "--graph", tmp_path / "missing.txt",
                    "--sigma", "a", "--horizon", "1",
                    "--out", tmp_path / "x"]) == 1
