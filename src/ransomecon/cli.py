"""Command-line interface: scenario files in, reports and CSV out.

Exit codes: 0 success, 2 invalid input (flags or scenario), 3 analytic
infeasibility (no solution in range), 4 output I/O failure. Human
summaries go to stdout; CSV goes to the --out path, or to stdout when
--out is '-', in which case the summary moves to stderr so the two
never interleave.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import breakeven
from . import mitigation
from .economics import Money, Probability, check_seed, check_trials, expected_utility
from .errors import (
    GridTooLargeError,
    NotAchievableError,
    ScenarioError,
    ZeroCostError,
    ZeroDenominatorError,
    ZeroProbabilityError,
)
from .output import (
    format_money,
    format_probability,
    format_ratio,
    write_sweep_csv,
    write_trace_csv,
)
from .scenario import ScenarioFile, SimulationSpec, parse_scenario
from .simulate import (
    FIGURE1_WIN_PROBS,
    TraceSummary,
    replicate_figure1,
    run_trials,
    summarize,
)

DEFAULT_SEED = 0xDEC0DE

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


class _InputError(Exception):
    """Invalid input outside the scenario grammar; maps to exit 2."""


def _seed_value(text: str) -> int:
    try:
        return check_seed(int(text, 0))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}: {exc}") from None


def _seed_triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated seeds")
    return tuple(_seed_value(part.strip()) for part in parts)


def _trial_count(text: str) -> int:
    try:
        return check_trials(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid trial count {text!r}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ransomecon",
        description="Attacker-side ransomware economics: expected value, break-even, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("ev", help="expected-value report for a scenario")
    ev.add_argument("scenario", type=Path)

    solve = sub.add_parser("breakeven", help="solve one break-even quantity")
    solve.add_argument("scenario", type=Path)
    solve.add_argument(
        "--solve",
        choices=("ransom", "probability", "cost"),
        required=True,
        help="which quantity to drive expected value to zero with",
    )

    sim = sub.add_parser("simulate", help="run seeded attack trials and emit a trace CSV")
    sim.add_argument("scenario", type=Path)
    sim.add_argument("--trials", type=_trial_count, help="overrides [simulation] trials")
    sim.add_argument("--seed", type=_seed_value, help="overrides [simulation] seed")
    sim.add_argument("--out", required=True, help="CSV path, or - for stdout")

    sweep = sub.add_parser("sweep", help="evaluate the scenario's sweep grid to CSV")
    sweep.add_argument("scenario", type=Path)
    sweep.add_argument("--out", required=True, help="CSV path, or - for stdout")

    mitigate = sub.add_parser("mitigate", help="evaluate the scenario's mitigation portfolio")
    mitigate.add_argument("scenario", type=Path)

    figure1 = sub.add_parser(
        "figure1",
        help="three canned 1000-trial campaigns at win rates 0.1, 0.3024, 0.5",
    )
    figure1.add_argument(
        "--seeds",
        type=_seed_triple,
        default=(DEFAULT_SEED,) * 3,
        help="s1,s2,s3 (default 0xDEC0DE for all three, coupling the runs)",
    )
    figure1.add_argument("--out", required=True, help="output directory for the three CSVs")
    return parser


def _read_scenario(path: Path) -> ScenarioFile:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read scenario {path}: {exc}") from exc
    return parse_scenario(text)


def _write_output(text: str, out: str | Path) -> None:
    """Write text to stdout for '-', or to the path through a temp file moved
    into place: a failed write leaves the old file, or none, and no temp file."""
    if out == "-":
        sys.stdout.write(text)
        return
    path = Path(out).resolve()  # through a symlink, as a plain write would go
    if path.exists() and not path.is_file():  # a device or pipe cannot be replaced
        path.write_text(text, encoding="utf-8", newline="")
        return
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temp.write_text(text, encoding="utf-8", newline="")  # mode from the umask, as the target's
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _report_stream(out: str):
    return sys.stderr if out == "-" else sys.stdout


def _print_summary(summary: TraceSummary, stream) -> None:
    print(f"trials = {summary.trials}", file=stream)
    print(f"wins = {summary.wins}", file=stream)
    print(f"empirical_win_rate = {format_probability(summary.empirical_win_rate.value)}", file=stream)
    print(f"final_bank = {format_money(summary.final_bank.amount)}", file=stream)
    print(f"mean_per_trial_profit = {format_money(summary.mean_per_trial_profit.amount)}", file=stream)
    print(
        f"sample_std_per_trial_profit = {format_money(summary.sample_std_per_trial_profit.amount)}",
        file=stream,
    )


def _cmd_ev(args: argparse.Namespace) -> int:
    econ = _read_scenario(args.scenario).economics
    ev = expected_utility(econ)
    cost = econ.cost.total()
    print(f"p_win = {format_probability(econ.p_win)}")
    print(f"expected_value = {format_money(ev.amount)}")
    if econ.p_win > 0.0:
        ransom_star = breakeven.break_even_ransom(cost, Probability(econ.p_win))
        print(f"break_even_ransom = {format_money(ransom_star.amount)}")
        if cost.amount > 0.0:
            multiple = breakeven.payout_multiple(econ.ransom, cost, Probability(econ.p_win))
            print(f"payout_multiple = {format_ratio(multiple)}")
        else:
            print("payout_multiple = n/a")
    else:
        print("break_even_ransom = n/a")
        print("payout_multiple = n/a")
    return EXIT_OK


def _cmd_breakeven(args: argparse.Namespace) -> int:
    econ = _read_scenario(args.scenario).economics
    if args.solve == "ransom":
        value = breakeven.break_even_ransom(econ.cost.total(), Probability(econ.p_win))
        print(format_money(value.amount))
    elif args.solve == "probability":
        prob = breakeven.break_even_pay_probability(
            econ.cost.total(), econ.ransom, econ.p_success
        )
        print(format_probability(prob.value))
    else:
        print(format_money(breakeven.break_even_cost(econ).amount))
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _read_scenario(args.scenario)
    sim = scenario.simulation or SimulationSpec()
    trials = args.trials if args.trials is not None else sim.trials
    if trials is None:
        raise _InputError("no trial count: pass --trials or set trials in [simulation]")
    seed = args.seed if args.seed is not None else sim.seed
    if seed is None:
        seed = DEFAULT_SEED
    b0 = sim.b0 if sim.b0 is not None else Money(0.0)
    trace = run_trials(scenario.economics, trials, seed=seed, b0=b0)
    _write_output(write_trace_csv(trace), args.out)
    _print_summary(summarize(trace), _report_stream(args.out))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _read_scenario(args.scenario)
    if scenario.sweep_axes is None:
        raise _InputError("scenario has no [sweep] section")
    grid = breakeven.SweepGrid(axes=scenario.sweep_axes, base=scenario.economics)
    result = breakeven.run_sweep(grid)
    _write_output(write_sweep_csv(result), args.out)
    print(f"rows = {len(result.expected_values)}", file=_report_stream(args.out))
    return EXIT_OK


def _cmd_mitigate(args: argparse.Namespace) -> int:
    scenario = _read_scenario(args.scenario)
    if scenario.mitigation is None:
        raise _InputError("scenario has no [mitigation] section")
    report = mitigation.evaluate(
        scenario.economics, scenario.mitigation, annual=scenario.annualization
    )
    print(f"baseline_p_win = {format_probability(report.baseline.p_win)}")
    print(f"baseline_ev = {format_money(report.baseline_ev.amount)}")
    print(f"transformed_p_win = {format_probability(report.transformed.p_win)}")
    print(f"transformed_ev = {format_money(report.transformed_ev.amount)}")
    print(f"ev_reduction = {format_money(report.ev_reduction.amount)}")
    print(f"still_profitable = {'true' if report.still_profitable else 'false'}")
    if report.annualized is not None:
        annualized = report.annualized
        print(f"attacks_per_year = {annualized.attacks_per_year}")
        print(f"annual_ev = {format_money(annualized.annual_ev.amount)}")
        print(f"salary_threshold = {format_money(annualized.salary_threshold.amount)}")
        print(f"substitutable = {'true' if annualized.substitutable else 'false'}")
    return EXIT_OK


def _cmd_figure1(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    traces = replicate_figure1(args.seeds)
    for p, trace in zip(FIGURE1_WIN_PROBS, traces):
        path = out_dir / f"figure1_p{p:g}.csv"
        _write_output(write_trace_csv(trace), path)
        summary = summarize(trace)
        print(
            f"p = {format_probability(p)} seed = {trace.seed} "
            f"final_bank = {format_money(summary.final_bank.amount)} file = {path}"
        )
    return EXIT_OK


_COMMANDS = {
    "ev": _cmd_ev,
    "breakeven": _cmd_breakeven,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "mitigate": _cmd_mitigate,
    "figure1": _cmd_figure1,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ScenarioError, _InputError, GridTooLargeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NotAchievableError, ZeroProbabilityError, ZeroDenominatorError, ZeroCostError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
