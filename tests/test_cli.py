"""Unit tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import re

import pytest

from repro.cli import build_parser, load_graph, main
from repro.decomposition.io import read_pace_td
from repro.graph.generators import cycle_graph
from repro.graph.io import write_edge_list, write_pace_graph


@pytest.fixture
def square_gr(tmp_path):
    path = tmp_path / "square.gr"
    write_pace_graph(cycle_graph(4), path)
    return str(path)


@pytest.fixture
def square_edges(tmp_path):
    path = tmp_path / "square.edges"
    write_edge_list(cycle_graph(4), path)
    return str(path)


class TestLoadGraph:
    def test_extension_inference(self, square_gr, square_edges):
        assert load_graph(square_gr).num_nodes == 4
        assert load_graph(square_edges).num_edges == 4

    def test_explicit_format(self, square_gr):
        assert load_graph(square_gr, "pace").num_nodes == 4

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "graph.bin"
        path.write_text("")
        with pytest.raises(ValueError, match="cannot infer"):
            load_graph(str(path))

    def test_unknown_format(self, square_gr):
        with pytest.raises(ValueError, match="unknown format"):
            load_graph(square_gr, "xml")


class TestEnumerateCommand:
    def test_basic(self, square_gr, capsys):
        assert main(["enumerate", square_gr]) == 0
        out = capsys.readouterr().out
        assert "2 minimal triangulations" in out
        assert "enumeration complete" in out

    def test_show_fill(self, square_gr, capsys):
        main(["enumerate", square_gr, "--show-fill"])
        assert "edges=" in capsys.readouterr().out

    def test_max_results(self, square_gr, capsys):
        assert main(["enumerate", square_gr, "--max-results", "1"]) == 0
        assert "reached --max-results" in capsys.readouterr().out

    def test_td_out(self, square_gr, tmp_path, capsys):
        target = tmp_path / "best.td"
        assert main(["enumerate", square_gr, "--td-out", str(target)]) == 0
        decomposition = read_pace_td(target)
        assert decomposition.width == 2

    def test_triangulator_choice(self, square_gr, capsys):
        assert main(["enumerate", square_gr, "--triangulator", "lb_triang"]) == 0

    def test_reports_covered_candidates(self, tmp_path, capsys):
        path = tmp_path / "c7.edges"
        write_edge_list(cycle_graph(7), path)
        assert main(["enumerate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "42 minimal triangulations" in out
        # One Extend per answer: the 42 answers of one region, out of
        # every candidate the loop met.
        covered = re.search(r"coverage: (\d+) of (\d+) candidates skipped", out)
        assert covered is not None
        assert int(covered[2]) - int(covered[1]) == 42

    def test_atoms_decompose(self, square_gr, capsys):
        assert main(["enumerate", square_gr, "--decompose", "atoms"]) == 0
        assert "2 minimal triangulations" in capsys.readouterr().out


class TestOtherCommands:
    def test_separators(self, square_gr, capsys):
        assert main(["separators", square_gr]) == 0
        captured = capsys.readouterr()
        assert "2 minimal separators" in captured.err
        assert len(captured.out.strip().splitlines()) == 2

    def test_separators_limit(self, square_gr, capsys):
        assert main(["separators", square_gr, "--limit", "1"]) == 0
        assert "1 minimal separators" in capsys.readouterr().err

    def test_stats(self, square_gr, capsys):
        assert main(["stats", square_gr]) == 0
        out = capsys.readouterr().out
        assert "nodes:    4" in out
        assert "chordal:  no" in out
        assert "minseps:  2" in out

    def test_missing_file_is_error(self, capsys):
        assert main(["stats", "/nonexistent/file.gr"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parser_help_lists_commands(self):
        parser = build_parser()
        help_text = parser.format_help()
        for command in ("enumerate", "separators", "stats", "tpch"):
            assert command in help_text


class TestTreewidthCommand:
    def test_exact_on_square(self, square_gr, capsys, tmp_path):
        target = tmp_path / "out.td"
        assert main(["treewidth", square_gr, "--td-out", str(target)]) == 0
        out = capsys.readouterr().out
        assert "treewidth exact: 2" in out
        assert read_pace_td(target).width == 2

    def test_budgeted_run(self, square_gr, capsys):
        assert main(["treewidth", square_gr, "--max-results", "1"]) == 0
        out = capsys.readouterr().out
        assert "treewidth" in out
