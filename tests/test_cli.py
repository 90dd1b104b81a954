"""Command-line surface: subcommands, exit codes, file formats."""

import dataclasses
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from ringpack.cli import main
from ringpack.model import PlacedSolution, parse_instance, parse_solution, write_solution
from ringpack.patterns import dump_patterns, enumerate_patterns
from ringpack.solver import SolveConfig

from conftest import TINY3_TEXT

PLANT_TEXT = "4.5 4.5\n0.2 0.95 3\n2.0 2.2 1\n"


@pytest.fixture
def tiny3_file(tmp_path):
    path = tmp_path / "tiny3.rpa"
    path.write_text(TINY3_TEXT)
    return path


class TestSolve:
    def test_summary_line_and_report(self, tiny3_file, tmp_path, capsys):
        report = tmp_path / "tiny3.report"
        rc = main(["solve", str(tiny3_file), "-o", str(report)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "primal=2 dual=2 gap=0.0%"
        text = report.read_text()
        assert text.startswith("ringpack-report 1\n")
        assert "stat root_lp 1.25\n" in text
        assert "dual-valid 1\n" in text

    def test_default_report_name(self, tiny3_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["solve", str(tiny3_file)]) == 0
        assert (tmp_path / "tiny3.report").exists()

    def test_reports_byte_identical(self, tiny3_file, tmp_path):
        a, b = tmp_path / "a.report", tmp_path / "b.report"
        main(["solve", str(tiny3_file), "-o", str(a)])
        main(["solve", str(tiny3_file), "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_desk_profile(self, tiny3_file, tmp_path, capsys):
        rc = main(["solve", str(tiny3_file), "--profile", "desk",
                   "-o", str(tmp_path / "d.report")])
        assert rc == 0
        assert "primal=2 dual=2" in capsys.readouterr().out

    def test_starved_budgets_leave_gap_open(self, tmp_path, capsys):
        inst = tmp_path / "plant.rpa"
        inst.write_text(PLANT_TEXT)
        rc = main(["solve", str(inst), "-o", str(tmp_path / "p.report"),
                   "--set", "enumeration_limit=1e-7",
                   "--set", "enumeration_budget=1e-6",
                   "--set", "verification_limit=1e-7",
                   "--set", "verification_budget=1e-6"])
        assert rc == 2
        out = capsys.readouterr().out
        assert "gap=100.0%" in out
        assert "dual-valid 0\n" in (tmp_path / "p.report").read_text()

    def test_unknown_config_key_rejected(self, tiny3_file):
        with pytest.raises(SystemExit):
            main(["solve", str(tiny3_file), "--set", "bogus=1"])

    def test_bad_config_value_rejected(self, tiny3_file):
        with pytest.raises(SystemExit, match="bad value for pricing_limit: 'abc'"):
            main(["solve", str(tiny3_file), "--set", "pricing_limit=abc"])

    def test_bad_override_shape_rejected(self, tiny3_file):
        with pytest.raises(SystemExit, match="bad override 'pricing_limit'"):
            main(["solve", str(tiny3_file), "--set", "pricing_limit"])

    @pytest.mark.parametrize("pair", [
        "enumeration_budget=nan",
        "enumeration_budget=-inf",
        "verification_limit=nan",
        "verification_budget=-1",
        "pricing_limit=-inf",
        "ip_node_limit=-5",
    ])
    def test_out_of_range_config_value_rejected(self, tiny3_file, tmp_path, pair):
        with pytest.raises(SystemExit, match="bad config: " + pair.split("=")[0]):
            main(["solve", str(tiny3_file), "-o", str(tmp_path / "x.report"),
                  "--set", pair])

    @pytest.mark.parametrize("header", ["nan 4", "4 inf"])
    def test_non_finite_sides_rejected(self, tmp_path, header):
        inst = tmp_path / "bad.rpa"
        inst.write_text(f"{header}\n0.5 0.7 1\n")
        with pytest.raises(SystemExit, match="positive and finite"):
            main(["solve", str(inst), "-o", str(tmp_path / "x.report")])

    def test_ring_wider_than_rectangle_rejected(self, tmp_path):
        inst = tmp_path / "wide.rpa"
        inst.write_text("4 4\n0.0 3.0 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(inst), "-o", str(tmp_path / "x.report")])
        assert "outer diameter" in str(exc.value) and "\n" not in str(exc.value)

    @pytest.mark.parametrize("pair", ["total_limit=1", "deterministic=0", "tolerance=1e-9"])
    def test_removed_config_keys_rejected(self, tiny3_file, tmp_path, pair):
        with pytest.raises(SystemExit, match="unknown config key"):
            main(["solve", str(tiny3_file), "-o", str(tmp_path / "x.report"),
                  "--set", pair])

    @pytest.mark.parametrize("command, flags", [
        ("solve", ["--no-deterministic"]),
        ("solve", ["--threads", "2"]),
        ("enumerate", ["--threads", "2"]),
    ], ids=["solve-no-deterministic", "solve-threads", "enumerate-threads"])
    def test_removed_flags_rejected(self, tiny3_file, tmp_path, capsys,
                                    command, flags):
        out = ["-o", str(tmp_path / "x.report")] if command == "solve" else []
        with pytest.raises(SystemExit) as exc:
            main([command, str(tiny3_file), *out, *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestValidate:
    def test_report_is_accepted_as_solution(self, tiny3_file, tmp_path, capsys):
        report = tmp_path / "t.report"
        main(["solve", str(tiny3_file), "-o", str(report)])
        capsys.readouterr()
        rc = main(["validate", str(tiny3_file), str(report)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "feasible"

    def test_tampered_solution_fails(self, tiny3_file, tmp_path, capsys):
        report = tmp_path / "t.report"
        main(["solve", str(tiny3_file), "-o", str(report)])
        solution = parse_solution(report.read_text())
        shifted = PlacedSolution(
            solution.rectangle_count,
            tuple(
                dataclasses.replace(r, center_x=r.center_x + 10.0)
                for r in solution.rings
            ),
        )
        bad = tmp_path / "bad.sol"
        bad.write_text(write_solution(shifted))
        capsys.readouterr()
        rc = main(["validate", str(tiny3_file), str(bad)])
        assert rc == 1
        assert "BoundaryX" in capsys.readouterr().out

    def test_non_finite_centers_fail(self, tiny3_file, tmp_path, capsys):
        bad = tmp_path / "nan.sol"
        bad.write_text("rectangles 2\n2 1 -1 nan nan\n1 0 -1 nan nan\n"
                       "0 1 0 nan nan\n0 0 1 inf 1.8\n")
        rc = main(["validate", str(tiny3_file), str(bad)])
        assert rc == 1
        out = capsys.readouterr().out
        assert out.count("ContainmentBreach") == 4 and "magnitude=inf" in out

    def test_malformed_solution_is_one_line_error(self, tiny3_file, tmp_path):
        bad = tmp_path / "bad.sol"
        bad.write_text("rectangles x\n")
        with pytest.raises(SystemExit) as exc:
            main(["validate", str(tiny3_file), str(bad)])
        assert str(exc.value) == f"{bad}: line 1: bad rectangles count"


class TestRender:
    def test_structure_matches_solution(self, tiny3_file, tmp_path):
        report = tmp_path / "t.report"
        main(["solve", str(tiny3_file), "-o", str(report)])
        svg_path = tmp_path / "t.svg"
        assert main(["render", str(report), "-o", str(svg_path)]) == 0
        solution = parse_solution(report.read_text())
        svg = svg_path.read_text()
        assert svg.count("<rect ") == solution.rectangle_count
        assert svg.count('<g class="ring"') == len(solution.rings)
        assert svg.count("<circle ") == 2 * len(solution.rings)
        ET.fromstring(svg)

    def test_bare_solution_needs_instance(self, tiny3_file, tmp_path):
        report = tmp_path / "t.report"
        main(["solve", str(tiny3_file), "-o", str(report)])
        sol = tmp_path / "t.sol"
        sol.write_text(write_solution(parse_solution(report.read_text())))
        with pytest.raises(SystemExit):
            main(["render", str(sol), "-o", str(tmp_path / "x.svg")])
        rc = main(["render", str(sol), "-o", str(tmp_path / "x.svg"),
                   "--instance", str(tiny3_file)])
        assert rc == 0

    def test_malformed_embedded_instance_is_one_line_error(self, tiny3_file, tmp_path):
        report = tmp_path / "t.report"
        main(["solve", str(tiny3_file), "-o", str(report)])
        report.write_text(report.read_text().replace("instance\n4 4\n", "instance\nnan 4\n"))
        with pytest.raises(SystemExit) as exc:
            main(["render", str(report), "-o", str(tmp_path / "x.svg")])
        assert str(exc.value).startswith(f"{report}: ") and "\n" not in str(exc.value)

    @pytest.mark.parametrize("line", [
        "7 0 -1 1 1",  # type 7 of three
        "0 0 5 1 1",  # parent 5 of one ring
        "0 3 -1 1 1",  # rectangle 3 of one
    ])
    def test_bad_index_is_one_line_error(self, tiny3_file, tmp_path, line):
        sol = tmp_path / "bad.sol"
        sol.write_text(f"rectangles 1\nrings 1\n{line}\n")
        svg = tmp_path / "x.svg"
        with pytest.raises(SystemExit) as exc:
            main(["render", str(sol), "-o", str(svg), "--instance", str(tiny3_file)])
        assert str(exc.value).startswith(f"{sol}: ring 0 ")
        assert "\n" not in str(exc.value) and not svg.exists()


class TestGenerate:
    def test_deterministic_and_parseable(self, tmp_path, capsys):
        a, b = tmp_path / "a.rpa", tmp_path / "b.rpa"
        assert main(["generate", "2", "1.5", "2.0", "1.0", "7", "-o", str(a)]) == 0
        assert main(["generate", "2", "1.5", "2.0", "1.0", "7", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        inst = parse_instance(a.read_text())
        assert inst.type_count == 2
        assert "2 types" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["0", "1.5", "2", "1", "1"],
        ["1", "1.5", "2", "1", "1"],
        ["2", "1.5", "nan", "1", "1"],
        ["2", "nan", "2", "1", "1"],
        ["2", "1.5", "2", "inf", "1"],
    ], ids=["no-types", "one-type-alpha", "nan-beta", "nan-alpha", "inf-gamma"])
    def test_bad_parameters_are_one_line_error(self, tmp_path, argv):
        out = tmp_path / "x.rpa"
        with pytest.raises(SystemExit) as exc:
            main(["generate", *argv, "-o", str(out)])
        assert str(exc.value).startswith("generate: ") and "\n" not in str(exc.value)
        assert not out.exists()


class TestEnumerate:
    def test_summary_and_dump_roundtrip(self, tiny3_file, tmp_path, capsys):
        dump = tmp_path / "patterns.txt"
        rc = main(["enumerate", str(tiny3_file), "--dump", str(dump)])
        assert rc == 0
        out = capsys.readouterr().out
        match = re.fullmatch(r"feasible=(\d+) unknown=(\d+) time=\d+\.\d\ds\n", out)
        assert match
        text = dump.read_text()
        statuses = [line.split()[5] for line in text.splitlines()]
        assert statuses.count("Feasible") == int(match.group(1))
        assert statuses.count("Unknown") == int(match.group(2))
        inst = parse_instance(TINY3_TEXT)
        assert text == dump_patterns(inst, enumerate_patterns(inst))

    def test_starved_budget_reports_unknowns(self, tiny3_file, capsys):
        rc = main(["enumerate", str(tiny3_file), "--limit", "1e-7",
                   "--budget", "1e-6"])
        assert rc == 0
        unknown = int(re.search(r"unknown=(\d+)", capsys.readouterr().out).group(1))
        assert unknown > 0

    @pytest.mark.parametrize("flag", [
        "--limit=nan", "--budget=nan", "--limit=-1", "--budget=-inf",
    ])
    def test_out_of_range_seconds_rejected(self, tiny3_file, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", str(tiny3_file), flag])
        assert exc.value.code == 2
        assert "seconds must be >= 0 or inf" in capsys.readouterr().err


class TestReadme:
    def test_set_fields_match_solve_config(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        listed = re.search(r"Fields: (.*?)\.\n", readme, re.S).group(1)
        named = set(re.findall(r"`(\w+)`", listed))
        assert named == {f.name for f in dataclasses.fields(SolveConfig)}


class TestNoCommand:
    def test_bare_invocation_prints_help(self, capsys):
        assert main([]) == 2
        assert "generate" in capsys.readouterr().out
