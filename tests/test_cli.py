from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from nimcash.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_worked_example_win(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "-A", "1,3,4", "-n", "14", "-d", "9", "-e", "9")
        assert code == 0
        assert "Player I wins" in out

    def test_rich_regime_explanation(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "-A", "1,3,4", "-n", "14", "-d", "UF", "-e", "10", "--explain"
        )
        assert code == 0
        assert "Player II wins" in out
        assert "rich" in out
        assert "decided by: rich" in out

    def test_terminal_state(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "-A", "1,3,4", "-n", "0", "-d", "5", "-e", "5")
        assert code == 0
        assert "Player II wins" in out

    def test_critical_explanation_shows_corresponding_state(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "-A", "1,4", "-n", "13", "-d", "8", "-e", "7", "--explain"
        )
        assert code == 0
        assert "decided by: critical" in out
        assert "residue=3" in out

    def test_bad_input_exits_nonzero(self, capsys):
        code, _, err = run_cli(capsys, "solve", "-A", "1,x", "-n", "3", "-d", "1", "-e", "1")
        assert code == 2
        assert "error:" in err

    def test_duplicate_set_rejected(self, capsys):
        code, _, err = run_cli(capsys, "solve", "-A", "3,3,5", "-n", "3", "-d", "9", "-e", "9")
        assert code == 2
        assert "error:" in err

    def test_solver_bound_surfaces_as_error(self, capsys, monkeypatch):
        monkeypatch.setenv("NIMCASH_MAX_N", "64")
        code, _, err = run_cli(capsys, "solve", "-A", "1,4", "-n", "65", "-d", "3", "-e", "3")
        assert code == 2
        assert "exceeds solver bound" in err

    @pytest.mark.parametrize("argv", [
        ("solve", "-A", "1,4", "-n", "5", "-d", "3", "-e", "3"),
        ("table", "-A", "1,4", "--n-max", "5"),
    ])
    def test_malformed_solver_bound_is_bad_input(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("NIMCASH_MAX_N", "abc")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "NIMCASH_MAX_N" in err

    def test_oracle_runs_once_on_a_critical_cell(self, capsys, monkeypatch):
        import nimcash.cli as cli_mod
        import nimcash.engine as engine_mod

        calls = []
        for mod in (cli_mod, engine_mod):
            real = mod.solve_cash
            monkeypatch.setattr(
                mod, "solve_cash", lambda *a, real=real, **k: calls.append(a) or real(*a, **k)
            )
        code, out, _ = run_cli(
            capsys, "solve", "-A", "3,5,6,10,11", "-n", "20", "-d", "12", "-e", "9", "--explain"
        )
        assert code == 0 and "decided by: oracle" in out
        assert "Player I wins (critical regime)" in out
        assert len(calls) == 1

    @pytest.mark.parametrize("flag", ["-d", "-e"])
    def test_non_integer_budget_is_bad_input(self, capsys, flag):
        argv = {"-d": "3", "-e": "3", flag: "abc"}
        code, out, err = run_cli(
            capsys, "solve", "-A", "1,3,4", "-n", "5", "-d", argv["-d"], "-e", argv["-e"]
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_module_entry_point_reports_bad_input(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "nimcash", "solve", "-A", "1,3,4", "-n", "5", "-d", "abc", "-e", "3"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")


class TestTable:
    def test_threshold_rows_include_known_cutoff(self, capsys):
        code, out, _ = run_cli(capsys, "table", "-A", "1,4", "--n-max", "20")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,standard_winner,rich_i,rich_ii,poor_i,poor_ii"
        assert "13,I,10,8,7,7" in lines

    def test_empty_range_is_header_only(self, capsys):
        code, out, _ = run_cli(capsys, "table", "-A", "1,4", "--n-max", "0")
        assert code == 0
        assert out.strip() == "n,standard_winner,rich_i,rich_ii,poor_i,poor_ii"

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "table", "-A", "3,5,6,10,11", "--n-max", "40")
        _, second, _ = run_cli(capsys, "table", "-A", "3,5,6,10,11", "--n-max", "40")
        assert first == second

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "-A", "1,4", "--n-max", "14", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[13] == {
            "n": 13, "standard_winner": "I", "rich_i": 10, "rich_ii": 8,
            "poor_i": 7, "poor_ii": 7,
        }

    def test_cube_records(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "-A", "1,4", "--n-max", "14",
            "--d-max", "14", "--e-max", "14", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 14 * 14 * 14
        by_key = {(r["n"], r["d"], r["e"]): r for r in rows}
        rec = by_key[(13, 8, 7)]
        assert rec["region"] == "critical"
        assert rec["winner"] == "Player I"
        assert rec["cs_residue"] == 3
        assert rec["cs_mover_gap"] == 1 and rec["cs_opp_gap"] == 0
        rich = by_key[(13, 12, 2)]
        assert rich["region"] == "rich-I" and rich["cs_residue"] is None

    # sha256 of the 12^3 cube exports, pinned from the per-cell implementation
    CUBE_DIGESTS = {
        ("1,4,5", "csv"): "19d54a0971cb97e241fe1947a05b1932e45f3170a19f8b1ba56c4d83210bbcf6",
        ("1,4,5", "json"): "184a36e8162386e368e89921323607272dcdbec4e53529c6ddea9da309bf349d",
        ("3,5,6,10,11", "csv"): "be940629eb66821ba3f0f84aed307630319a600c39ef1f3721dbb0e3fa91c707",
        ("3,5,6,10,11", "json"): "6a3bce2f45e59713adbbe499872769a7daf46f3a5a8d458e970c3796890682d2",
    }

    @pytest.mark.parametrize("values,fmt", sorted(CUBE_DIGESTS))
    def test_cube_export_is_byte_identical(self, capsys, values, fmt):
        code, out, _ = run_cli(
            capsys, "table", "-A", values, "--n-max", "12",
            "--d-max", "12", "--e-max", "12", "--format", fmt,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.CUBE_DIGESTS[(values, fmt)]

    def test_cube_csv_schema_and_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "-A", "1,2", "--n-max", "3", "--d-max", "2", "--e-max", "2"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,d,e,region,winner,winning_moves")
        keys = [tuple(line.split(",")[:3]) for line in lines[1:]]
        assert keys == sorted(keys, key=lambda t: (int(t[0]), int(t[1]), int(t[2])))

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys, "table", "-A", "1,4", "--n-max", "5", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("n,standard_winner")

    def test_resource_limit_on_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("NIMCASH_MAX_N", "100")
        code, _, err = run_cli(capsys, "table", "-A", "1,4", "--n-max", "500")
        assert code == 2
        assert "exceeds the configured bound" in err

    def test_resource_limit_on_cube_size(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "-A", "1,4", "--n-max", "1000",
            "--d-max", "1000", "--e-max", "1000",
        )
        assert code == 2
        assert "export limit" in err

    @pytest.mark.parametrize("sizes", [
        ("--n-max", "-1"),
        ("--n-max", "5", "--d-max", "-2", "--e-max", "3"),
        ("--n-max", "5", "--d-max", "3", "--e-max", "-1"),
    ])
    def test_negative_size_is_bad_input(self, capsys, sizes):
        code, out, err = run_cli(capsys, "table", "-A", "1,3,4", *sizes)
        assert code == 2 and out == ""
        assert err.startswith("error:")


class TestPeriod:
    def test_one_four(self, capsys):
        code, out, _ = run_cli(capsys, "period", "-A", "1,4", "--n-check", "400")
        assert code == 0
        assert out.startswith("m=5")

    def test_even_triple(self, capsys):
        code, out, _ = run_cli(capsys, "period", "-A", "1,4,5", "--n-check", "400")
        assert code == 0
        assert out.startswith("m=8")

    def test_aperiodic(self, capsys):
        code, out, _ = run_cli(
            capsys, "period", "-A", "3,5,6,10,11", "--m-max", "16", "--n-check", "400"
        )
        assert code == 0
        assert out.startswith("none found (checked m <= 16, n <= 400)")

    @pytest.mark.parametrize("m_max", ["-1", "0"])
    def test_period_bound_below_one_is_bad_input(self, capsys, m_max):
        code, out, err = run_cli(capsys, "period", "-A", "1,3,4", "--m-max", m_max)
        assert code == 2 and out == ""
        assert err.startswith("error:")


class TestVerify:
    def test_family_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "one-l", "4", "--oracle-box", "40"
        )
        assert code == 0
        assert "PASS" in out

    def test_odd_family_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "one-ll-odd", "5", "--oracle-box", "40"
        )
        assert code == 0
        assert "PASS" in out

    def test_parity_validation(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--family", "one-ll-odd", "4")
        assert code == 2
        assert "odd" in err

    def test_tampered_solution_set_fails(self, capsys, monkeypatch):
        import nimcash.cli as cli_mod
        from nimcash import SolutionSet, family_solution as real_family_solution
        from dataclasses import replace

        def broken(kind):
            sol = real_family_solution(kind)
            return replace(
                sol,
                solution_set=SolutionSet(lambda i, b, b2: False, "tampered"),
            )

        monkeypatch.setattr(cli_mod, "family_solution", broken)
        code, out, _ = run_cli(
            capsys, "verify", "--family", "one-l", "4", "--oracle-box", "20"
        )
        assert code == 1
        assert "FAIL" in out
        assert "violation" in out

    @pytest.mark.parametrize("mode", [("--family", "one-l", "4"), ("-A", "1,4")])
    @pytest.mark.parametrize("size", [("--box", "-3"), ("--oracle-box", "-5")])
    def test_negative_size_is_rejected_before_any_output(self, capsys, mode, size):
        code, out, err = run_cli(capsys, "verify", *mode, *size)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_induced_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "-A", "1,4", "--oracle-box", "60", "--box", "10"
        )
        assert code == 0
        assert "induced candidate" in out and "PASS" in out

    @pytest.mark.parametrize("values, covered", [("1,4,5", 16), ("1,3,4", 13), ("1,2,5", 10)])
    def test_induced_mode_passes_on_the_covered_box(self, capsys, values, covered):
        code, out, _ = run_cli(capsys, "verify", "-A", values)
        assert code == 0
        assert f"closure check on box {covered} (covered: {covered}):" in out
        assert out.endswith("PASS\n")

    def test_box_past_the_covered_box_is_bad_input(self, capsys):
        code, out, err = run_cli(capsys, "verify", "-A", "1,4,5", "--box", "17")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "gap box 16" in err

    def test_map_covering_no_box_fails(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "-A", "1,4", "--oracle-box", "0")
        assert code == 1
        assert out.splitlines()[-1].startswith("FAIL: the induced map covers no gap box")

    def test_tampered_induced_candidate_fails(self, capsys, monkeypatch):
        import nimcash.cli as cli_mod
        from nimcash import CSTriple, Winner

        real = cli_mod.induce_candidate

        def flipped(*args):
            induced, consistent = real(*args)
            w = induced[CSTriple(0, 2, 2)]
            induced[CSTriple(0, 2, 2)] = Winner.MOVER if w is Winner.OPPONENT else Winner.OPPONENT
            return induced, consistent

        monkeypatch.setattr(cli_mod, "induce_candidate", flipped)
        code, out, _ = run_cli(capsys, "verify", "-A", "1,4,5")
        assert code == 1
        assert "violation" in out and out.endswith("FAIL\n")

    @pytest.mark.parametrize("argv", [
        ("verify", "--family", "one-l", "4"),
        ("verify", "-A", "1,4"),
        ("verify", "--family", "one-l", "4", "--oracle-box", "51"),
        ("conjecture", "2", "4", "--n-max", "240"),
    ])
    def test_staircase_past_the_bound_is_refused_up_front(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("NIMCASH_MAX_N", "50")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "exceeds solver bound 50 (NIMCASH_MAX_N)" in err

    def test_staircase_at_the_bound_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("NIMCASH_MAX_N", "50")
        code, out, _ = run_cli(capsys, "verify", "--family", "one-l", "4", "--oracle-box", "50")
        assert code == 0 and "n <= 50" in out
        code, _, _ = run_cli(
            capsys, "conjecture", "2", "4", "--n-max", "240", "--critical-n-max", "50"
        )
        assert code == 0


class TestConjecture:
    def test_report_rendering(self, capsys):
        code, out, _ = run_cli(
            capsys, "conjecture", "2", "4", "--n-max", "240", "--critical-n-max", "60"
        )
        assert code == 0
        assert "offset:" in out
        assert "offset bound 22" in out
        assert "counterexamples" in out

    def test_degenerate_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "conjecture", "1", "1", "--n-max", "100", "--critical-n-max", "20"
        )
        assert code == 0
        assert "offset:" in out


class TestAppendix:
    def test_report_shape_and_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "appendix", "--k-max", "4")
        lines = out.strip().splitlines()
        assert lines[-1] in ("PASS", "FAIL")
        assert (code == 0) == (lines[-1] == "PASS")
        assert any(line.strip().startswith("0 ") for line in lines)  # head row n=0
        # every head row from the patternless range is reported verbatim
        assert sum(1 for line in lines if line.startswith("  ")) >= 64


class TestPlay:
    def test_engine_grinds_out_the_poor_win(self, capsys, monkeypatch):
        feed = iter(["1", "1", "1", "1"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
        code, out, _ = run_cli(
            capsys, "play", "-A", "1,3,4", "-n", "14", "-d", "4", "-e", "4", "--human", "I"
        )
        assert code == 0
        assert out.count("engine removes 1") == 4
        assert "you cannot move; engine wins!" in out

    def test_scripted_line_reaches_the_balanced_state(self, capsys, monkeypatch):
        feed = iter(["1", "1", "resign"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
        code, out, _ = run_cli(
            capsys, "play", "-A", "1,3,4", "-n", "14", "-d", "9", "-e", "9", "--human", "II"
        )
        assert code == 0
        assert "state (13;9,8)" in out
        assert "state (12;8,8)" in out
        assert "state (11;8,7)" in out
        assert "state (10;7,7)" in out
        assert "you resign; engine wins" in out

    def test_illegal_input_reprompts(self, capsys, monkeypatch):
        feed = iter(["7", "banana", "resign"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
        code, out, _ = run_cli(
            capsys, "play", "-A", "1,3,4", "-n", "14", "-d", "4", "-e", "4", "--human", "I"
        )
        assert code == 0
        assert "illegal move 7" in out
        assert "not a move: 'banana'" in out
        assert "you resign" in out


class TestCachedParser:
    """One parser serves every call of the process and keeps nothing between calls."""

    SOLVE = ("solve", "-A", "3,5,6,10,11", "-n", "20", "-d", "12", "-e", "9")

    def test_a_flag_does_not_outlive_its_call(self, capsys):
        code, out, _ = run_cli(capsys, *self.SOLVE, "--explain")
        assert code == 0 and "decided by: oracle" in out
        code, plain, _ = run_cli(capsys, *self.SOLVE)
        assert code == 0 and "decided by:" not in plain
        assert plain == "".join(line for line in out.splitlines(True) if "decided by" not in line)

    def test_a_parse_error_between_valid_calls(self, capsys):
        code, first, _ = run_cli(capsys, *self.SOLVE)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "-A", "1,4", "-n", "five", "-d", "3", "-e", "3"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
        code2, second, err = run_cli(capsys, *self.SOLVE)
        assert code == code2 == 0 and second == first and err == ""

    def test_a_replaced_command_takes_effect(self, capsys, monkeypatch):
        import nimcash.cli as cli_mod

        run_cli(capsys, *self.SOLVE)  # the parser exists before the replacement
        seen = []
        monkeypatch.setattr(cli_mod, "cmd_solve", lambda args: seen.append(args.n) or 7)
        code, out, _ = run_cli(capsys, *self.SOLVE)
        assert code == 7 and seen == [20] and out == ""
