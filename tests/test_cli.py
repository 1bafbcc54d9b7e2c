import os
import subprocess
import sys

import pytest

from ransomecon.cli import main

REFERENCE_DOC = """\
[economics]
ransom = 170404
cost.product = 3000
cost.access = 400
cost.loader = 800
p_success = 0.54
p_pay_given_success = 0.56
"""

DEFAULTS_DOC = """\
[economics]
ransom = 170404
cost.product = 3000
cost.access = 400
cost.loader = 800

[defaults]
paper = true
"""


# ransom 1e30: values past Decimal's default 28 digits must still format exactly
BIG_RANSOM_DOC = """\
[economics]
ransom = 1000000000000000000000000000000
cost.product = 1
cost.access = 1
cost.loader = 1
p_success = 0.5
p_pay_given_success = 0.5
"""


def _huge_doc(ransom, product, p_pay):
    return (
        f"[economics]\nransom = {ransom}\ncost.product = {product}\ncost.access = 0\n"
        f"cost.loader = 0\np_success = 1\np_pay_given_success = {p_pay}\n"
    )


@pytest.fixture
def scenario(tmp_path):
    def write(text, name="scenario.txt"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    return write


class TestEv:
    def test_reference_report(self, scenario, capsys):
        assert main(["ev", str(scenario(REFERENCE_DOC))]) == 0
        assert capsys.readouterr().out == (
            "p_win = 0.302400\n"
            "expected_value = 47330.17\n"
            "break_even_ransom = 13888.89\n"
            "payout_multiple = 12.2691\n"
        )

    def test_defaults_scenario_matches_explicit(self, scenario, capsys):
        assert main(["ev", str(scenario(DEFAULTS_DOC))]) == 0
        first = capsys.readouterr().out
        assert main(["ev", str(scenario(REFERENCE_DOC, "explicit.txt"))]) == 0
        assert capsys.readouterr().out == first

    def test_break_even_scenario_has_zero_ev(self, scenario, capsys):
        doc = REFERENCE_DOC.replace("ransom = 170404", "ransom = 7500").replace(
            "p_success = 0.54", "p_success = 1.0"
        )
        assert main(["ev", str(scenario(doc))]) == 0
        out = capsys.readouterr().out
        assert "expected_value = 0.00\n" in out

    def test_negative_ev_is_still_success(self, scenario, capsys):
        doc = REFERENCE_DOC.replace("ransom = 170404", "ransom = 100")
        assert main(["ev", str(scenario(doc))]) == 0
        assert "expected_value = -4169.76\n" in capsys.readouterr().out

    def test_invalid_scenario_exits_2_with_no_output(self, scenario, capsys):
        bad = scenario(REFERENCE_DOC.replace("0.54", "1.54"))
        assert main(["ev", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 6" in captured.err

    def test_overflowing_literal_exits_2_with_position(self, scenario, capsys):
        bad = scenario(REFERENCE_DOC.replace("ransom = 170404", "ransom = 1" + "0" * 400))
        assert main(["ev", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: line 2, column 10: ransom: ")

    def test_31_digit_ransom_formats_exactly(self, scenario, capsys):
        assert main(["ev", str(scenario(BIG_RANSOM_DOC))]) == 0
        assert capsys.readouterr().out == (
            "p_win = 0.250000\n"
            "expected_value = 250000000000000004971156209664.00\n"
            "break_even_ransom = 12.00\n"
            "payout_multiple = 83333333333333329126323388416.0000\n"
        )

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["ev", str(tmp_path / "nope.txt")]) == 2
        assert "cannot read scenario" in capsys.readouterr().err

    def test_zero_probability_prints_na(self, scenario, capsys):
        doc = REFERENCE_DOC.replace("p_success = 0.54", "p_success = 0")
        assert main(["ev", str(scenario(doc))]) == 0
        out = capsys.readouterr().out
        assert "break_even_ransom = n/a\n" in out
        assert "payout_multiple = n/a\n" in out


class TestBreakeven:
    def test_solve_ransom(self, scenario, capsys):
        doc = REFERENCE_DOC.replace("p_success = 0.54", "p_success = 1.0")
        assert main(["breakeven", str(scenario(doc)), "--solve", "ransom"]) == 0
        assert capsys.readouterr().out == "7500.00\n"

    def test_solve_probability_high(self, scenario, capsys):
        doc = REFERENCE_DOC.replace("ransom = 170404", "ransom = 312493")
        assert main(["breakeven", str(scenario(doc)), "--solve", "probability"]) == 0
        assert capsys.readouterr().out == "0.024889\n"

    def test_solve_probability_low(self, scenario, capsys):
        assert main(["breakeven", str(scenario(REFERENCE_DOC)), "--solve", "probability"]) == 0
        assert capsys.readouterr().out == "0.045643\n"

    def test_solve_cost(self, scenario, capsys):
        assert main(["breakeven", str(scenario(REFERENCE_DOC)), "--solve", "cost"]) == 0
        assert capsys.readouterr().out == "51530.17\n"

    def test_not_achievable_exits_3(self, scenario, capsys):
        doc = REFERENCE_DOC.replace("ransom = 170404", "ransom = 100")
        assert main(["breakeven", str(scenario(doc)), "--solve", "probability"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_zero_probability_exits_3(self, scenario, capsys):
        doc = REFERENCE_DOC.replace("p_success = 0.54", "p_success = 0")
        assert main(["breakeven", str(scenario(doc)), "--solve", "ransom"]) == 3

    def test_missing_solve_flag_exits_2(self, scenario):
        assert main(["breakeven", str(scenario(REFERENCE_DOC))]) == 2


class TestSimulate:
    def test_writes_csv_and_summary(self, scenario, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(
            ["simulate", str(scenario(REFERENCE_DOC)), "--trials", "50", "--seed", "7",
             "--out", str(out)]
        )
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("trial,outcome,profit,bank\n")
        assert len(text.splitlines()) == 51
        captured = capsys.readouterr()
        assert "trials = 50\n" in captured.out
        assert "final_bank = " in captured.out

    def test_repeat_runs_are_byte_identical(self, scenario, tmp_path, capsys):
        args = ["simulate", str(scenario(REFERENCE_DOC)), "--trials", "100", "--seed", "11"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_scenario_simulation_block_supplies_parameters(self, scenario, tmp_path, capsys):
        doc = REFERENCE_DOC + "\n[simulation]\ntrials = 25\nseed = 7\n"
        out = tmp_path / "trace.csv"
        assert main(["simulate", str(scenario(doc)), "--out", str(out)]) == 0
        assert "trials = 25\n" in capsys.readouterr().out

    def test_flags_override_scenario_block(self, scenario, tmp_path, capsys):
        doc = REFERENCE_DOC + "\n[simulation]\ntrials = 25\nseed = 7\n"
        out = tmp_path / "trace.csv"
        assert main(["simulate", str(scenario(doc)), "--trials", "10", "--out", str(out)]) == 0
        assert "trials = 10\n" in capsys.readouterr().out

    def test_scenario_seed_matches_equivalent_flag(self, scenario, tmp_path, capsys):
        doc = REFERENCE_DOC + "\n[simulation]\ntrials = 40\nseed = 7\n"
        from_block, from_flag = tmp_path / "block.csv", tmp_path / "flag.csv"
        assert main(["simulate", str(scenario(doc)), "--out", str(from_block)]) == 0
        assert main(
            ["simulate", str(scenario(REFERENCE_DOC, "plain.txt")), "--trials", "40",
             "--seed", "7", "--out", str(from_flag)]
        ) == 0
        assert from_block.read_bytes() == from_flag.read_bytes()

    def test_missing_trial_count_exits_2(self, scenario, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["simulate", str(scenario(REFERENCE_DOC)), "--out", str(out)]) == 2
        assert "trial count" in capsys.readouterr().err

    def test_unwritable_output_exits_4(self, scenario, tmp_path, capsys):
        out = tmp_path / "not_a_dir" / "trace.csv"
        code = main(
            ["simulate", str(scenario(REFERENCE_DOC)), "--trials", "5", "--out", str(out)]
        )
        assert code == 4

    @pytest.mark.parametrize(
        "doc,trials",
        [
            (_huge_doc("1" + "0" * 308, "0", "1"), "2"),
            # with b0 = 1.7e308 the bank overflows at trial 3 and is finite again at trial 4
            (
                _huge_doc("17" + "0" * 307, "1" + "0" * 308, "0.5")
                + f"\n[simulation]\nb0 = {'17' + '0' * 307}\n",
                "4",
            ),
        ],
        ids=["final", "midway"],
    )
    def test_overflowing_bank_exits_2_without_csv(self, scenario, tmp_path, capsys, doc, trials):
        out = tmp_path / "trace.csv"
        assert main(["simulate", str(scenario(doc)), "--trials", trials, "--out", str(out)]) == 2
        assert "error: the bank overflows binary64" in capsys.readouterr().err
        assert not out.exists()

    def test_31_digit_ransom_writes_csv(self, scenario, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(
            ["simulate", str(scenario(BIG_RANSOM_DOC)), "--trials", "3", "--seed", str(0xDEC0DE),
             "--out", str(out)]
        )
        assert code == 0
        win = "1000000000000000019884624838656.00"  # x - c rounds back to the binary64 nearest 1e30
        assert out.read_text(encoding="utf-8") == (
            "trial,outcome,profit,bank\n"
            "1,0,-3.00,-3.00\n"
            "2,0,-3.00,-6.00\n"
            f"3,1,{win},{win}\n"
        )
        assert f"final_bank = {win}\n" in capsys.readouterr().out

    def test_stdout_csv_moves_summary_to_stderr(self, scenario, capsys):
        code = main(["simulate", str(scenario(REFERENCE_DOC)), "--trials", "5", "--out", "-"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("trial,outcome,profit,bank\n")
        assert "trials = 5" in captured.err
        assert "trials = 5" not in captured.out


class TestSweep:
    SWEEP_DOC = REFERENCE_DOC + "\n[sweep]\naxis.p_pay_given_success = {0.56, 0.28}\n"

    def test_writes_expected_csv(self, scenario, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(scenario(self.SWEEP_DOC)), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == (
            "p_pay_given_success,expected_value\n"
            "0.560000,47330.17\n"
            "0.280000,21565.08\n"
        )
        assert "rows = 2\n" in capsys.readouterr().out

    def test_missing_sweep_section_exits_2(self, scenario, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(scenario(REFERENCE_DOC)), "--out", str(out)]) == 2
        assert "no [sweep] section" in capsys.readouterr().err

    def test_oversized_grid_exits_2(self, scenario, tmp_path, capsys):
        doc = REFERENCE_DOC + (
            "\n[sweep]\naxis.ransom = 0:4000:1\naxis.cost_total = 0:3000:1\n"
        )
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(scenario(doc)), "--out", str(out)]) == 2
        assert "cells" in capsys.readouterr().err
        assert not out.exists()

    def test_stdout_csv(self, scenario, capsys):
        assert main(["sweep", str(scenario(self.SWEEP_DOC)), "--out", "-"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("p_pay_given_success,expected_value\n")
        assert "rows = 2" in captured.err


class TestMitigate:
    HALVING_DOC = REFERENCE_DOC + (
        "\n[mitigation]\naction.1 = BackupAdoption(adoption=1, effectiveness=0.5)\n"
    )

    def test_halving_report(self, scenario, capsys):
        assert main(["mitigate", str(scenario(self.HALVING_DOC))]) == 0
        assert capsys.readouterr().out == (
            "baseline_p_win = 0.302400\n"
            "baseline_ev = 47330.17\n"
            "transformed_p_win = 0.151200\n"
            "transformed_ev = 21565.08\n"
            "ev_reduction = 25765.08\n"
            "still_profitable = true\n"
        )

    def test_insurance_only_portfolio(self, scenario, capsys):
        doc = REFERENCE_DOC + "\n[mitigation]\naction.1 = CyberInsurance()\n"
        assert main(["mitigate", str(scenario(doc))]) == 0
        out = capsys.readouterr().out
        assert "ev_reduction = 0.00\n" in out
        assert "still_profitable = true\n" in out

    def test_perfect_backups(self, scenario, capsys):
        doc = REFERENCE_DOC + (
            "\n[mitigation]\naction.1 = BackupAdoption(adoption=1, effectiveness=1)\n"
        )
        assert main(["mitigate", str(scenario(doc))]) == 0
        out = capsys.readouterr().out
        assert "transformed_ev = -4200.00\n" in out
        assert "still_profitable = false\n" in out

    def test_annualized_lines(self, scenario, capsys):
        doc = self.HALVING_DOC + (
            "\n[annualization]\nattacks_per_year = 10\nsalary_threshold = 100000\n"
        )
        assert main(["mitigate", str(scenario(doc))]) == 0
        out = capsys.readouterr().out
        assert "attacks_per_year = 10\n" in out
        assert "annual_ev = 215650.85\n" in out
        assert "salary_threshold = 100000.00\n" in out
        assert "substitutable = false\n" in out

    def test_missing_mitigation_section_exits_2(self, scenario, capsys):
        assert main(["mitigate", str(scenario(REFERENCE_DOC))]) == 2
        assert "no [mitigation] section" in capsys.readouterr().err


class TestFigure1:
    def test_writes_three_deterministic_csvs(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["figure1", "--out", str(out_a)]) == 0
        assert main(["figure1", "--out", str(out_b)]) == 0
        for name in ("figure1_p0.1.csv", "figure1_p0.3024.csv", "figure1_p0.5.csv"):
            first = (out_a / name).read_bytes()
            second = (out_b / name).read_bytes()
            assert first == second
            assert len(first.decode("utf-8").splitlines()) == 1001

    def test_common_default_seed_orders_final_banks(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main(["figure1", "--out", str(out)]) == 0
        finals = []
        for name in ("figure1_p0.1.csv", "figure1_p0.3024.csv", "figure1_p0.5.csv"):
            last = (out / name).read_text(encoding="utf-8").splitlines()[-1]
            finals.append(float(last.split(",")[-1]))
        assert finals[0] <= finals[1] <= finals[2]

    def test_custom_seeds_accept_hex(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main(["figure1", "--seeds", "0x1,2,3", "--out", str(out)]) == 0
        assert (out / "figure1_p0.1.csv").exists()

    def test_malformed_seeds_exit_2(self, tmp_path):
        assert main(["figure1", "--seeds", "1,2", "--out", str(tmp_path)]) == 2

    def test_output_dir_collides_with_file_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        assert main(["figure1", "--out", str(blocker)]) == 4


class TestInterface:
    @pytest.mark.parametrize("command", ["simulate", "sweep", "figure1"])
    def test_failed_replace_keeps_old_csv_and_leaves_no_temp_file(
        self, scenario, tmp_path, capsys, monkeypatch, command
    ):
        doc = REFERENCE_DOC + "\n[sweep]\naxis.ransom = {1, 2}\n"
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        old = out_dir / ("figure1_p0.1.csv" if command == "figure1" else "old.csv")
        old.write_bytes(b"old,bytes\n")
        args = {
            "simulate": ["simulate", str(scenario(doc)), "--trials", "5", "--out", str(old)],
            "sweep": ["sweep", str(scenario(doc)), "--out", str(old)],
            "figure1": ["figure1", "--out", str(out_dir)],
        }[command]

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        assert main(args) == 4
        assert "replace refused" in capsys.readouterr().err
        assert old.read_bytes() == b"old,bytes\n"
        assert sorted(p.name for p in out_dir.iterdir()) == [old.name]

    def test_unknown_subcommand_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_no_subcommand_exits_2(self):
        assert main([]) == 2

    def test_scenario_file_never_modified(self, scenario, tmp_path):
        path = scenario(REFERENCE_DOC)
        before = path.read_bytes()
        main(["ev", str(path)])
        main(["breakeven", str(path), "--solve", "cost"])
        main(["simulate", str(path), "--trials", "5", "--out", str(tmp_path / "t.csv")])
        assert path.read_bytes() == before

    def test_module_entry_point(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text(REFERENCE_DOC, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "ransomecon", "ev", str(path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "expected_value = 47330.17" in result.stdout
