"""Expected CLI output computed without `ransomecon`.

The arithmetic follows the operation order the package documents, and
every value is rounded by a `Decimal` ROUND_HALF_UP reference that
never prints -0. Traces follow the README's reproducibility contract:
uniform draws from PCG64 seeded through SeedSequence, a win when the
draw is below p_success * p_pay_given_success, and the bank as b0 plus
the running sum of per-trial profits.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import PurePath

import numpy as np

from workloads import FIGURE1_TRIALS, Economics, Invocation

CENT = Decimal("0.01")
MICRO = Decimal("0.000001")
TENTH_MILLI = Decimal("0.0001")

PAPER_P_SUCCESS = 0.54
PAPER_P_PAY = 0.56
FIGURE1_RANSOM = 170404.0
FIGURE1_COST = (3000.0 + 400.0) + 800.0
FIGURE1_WIN_PROBS = (0.1, 0.3024, 0.5)
TRACE_HEADER = "trial,outcome,profit,bank\n"


def quantize(value: float, unit: Decimal) -> str:
    q = Decimal(value).quantize(unit, rounding=ROUND_HALF_UP)
    if q.is_zero():
        q = abs(q)
    return format(q, "f")


def money(value: float) -> str:
    return quantize(value, CENT)


def prob(value: float) -> str:
    return quantize(value, MICRO)


def is_tie(value: float, scale: int) -> bool:
    """True when value sits exactly halfway between two printed values.

    A value is a cent tie exactly when 8 * value is an odd integer and
    a six-decimal tie exactly when 128 * value is one.
    """
    scaled = value * scale
    return scaled.is_integer() and int(scaled) % 2 == 1


@dataclass
class Expected:
    """What one invocation must produce: exit code, stdout, CSV files.

    `values` and `ties` count the CSV values formatted and how many of
    them were exact rounding ties.
    """

    exit_code: int
    stdout: str
    files: dict[str, str]
    rows: int = 0
    values: int = 0
    ties: int = 0


def _floats(econ: Economics) -> tuple[float, float, float, float]:
    """ransom, cost total, p_success, p_pay_given_success."""
    cost = (float(econ.product) + float(econ.access)) + float(econ.loader)
    p_s = PAPER_P_SUCCESS if econ.p_success is None else float(econ.p_success)
    p_pay = PAPER_P_PAY if econ.p_pay is None else float(econ.p_pay)
    return float(econ.ransom), cost, p_s, p_pay


def trace_csv(ransom: float, cost: float, p_win: float, trials: int, seed: int, b0: float):
    """The trace CSV text, the summary lines' numbers and the tie count."""
    draws = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))).random(trials)
    wins = (draws < p_win).tolist()
    win_profit, loss_profit = ransom - cost, -cost
    win_text, loss_text = money(win_profit), money(loss_profit)
    ties = 0
    lines = [TRACE_HEADER]
    append = lines.append
    running = 0.0
    for i, won in enumerate(wins, start=1):
        running += win_profit if won else loss_profit
        bank = b0 + running
        if (bank * 8).is_integer():
            ties += is_tie(bank, 8)
        append(f"{i},{1 if won else 0},{win_text if won else loss_text},{money(bank)}\n")
    n_wins = sum(wins)
    ties += n_wins * is_tie(win_profit, 8) + (trials - n_wins) * is_tie(loss_profit, 8)
    profits = np.where(np.asarray(wins), win_profit, loss_profit)
    std = float(profits.std(ddof=1)) if trials > 1 else 0.0
    summary = {
        "wins": n_wins,
        "final_bank": b0 + running,
        "mean": float(profits.mean()),
        "std": std,
    }
    return "".join(lines), summary, ties


def _simulate(inv: Invocation) -> Expected:
    ransom, cost, p_s, p_pay = _floats(inv.econ)
    m = inv.model
    trials = m["trials"]
    text, s, ties = trace_csv(ransom, cost, p_s * p_pay, trials, m["seed"], float(m["b0"]))
    stdout = (
        f"trials = {trials}\n"
        f"wins = {s['wins']}\n"
        f"empirical_win_rate = {prob(s['wins'] / trials)}\n"
        f"final_bank = {money(s['final_bank'])}\n"
        f"mean_per_trial_profit = {money(s['mean'])}\n"
        f"sample_std_per_trial_profit = {money(s['std'])}\n"
    )
    return Expected(0, stdout, {"": text}, rows=trials, values=2 * trials, ties=ties)


def _sweep(inv: Invocation) -> Expected:
    econ = inv.econ
    product, access, loader = float(econ.product), float(econ.access), float(econ.loader)
    base_cost = (product + access) + loader
    axes = dict(inv.model["axes"])
    names = [name for name, _ in inv.model["axes"]]
    if names != ["ransom", "cost_total", "p_success", "p_pay_given_success"]:
        raise ValueError(f"reference expects the generator's axis order, got {names}")

    def column(name: str):
        fmt, scale = (money, 8) if name in ("ransom", "cost_total") else (prob, 128)
        values = [float(v) for v in axes[name]]
        return [(v, fmt(v)) for v in values], sum(is_tie(v, scale) for v in values)

    ransoms, ransom_ties = column("ransom")
    costs, cost_ties = column("cost_total")
    p_ss, p_s_ties = column("p_success")
    p_pays, p_pay_ties = column("p_pay_given_success")

    def scaled_cost(target: float) -> float:
        # CostModel.scaled_to_total followed by CostModel.total.
        if base_cost == 0.0:
            return target
        f = target / base_cost
        return (product * f + access * f) + loader * f

    lines = ["ransom,cost_total,p_success,p_pay_given_success,expected_value\n"]
    ev_ties = 0
    for ransom, ransom_text in ransoms:
        for target, cost_text in costs:
            cost = scaled_cost(target)
            head = f"{ransom_text},{cost_text},"
            for p_s, p_s_text in p_ss:
                mid = f"{head}{p_s_text},"
                for p_pay, p_pay_text in p_pays:
                    ev = p_s * p_pay * ransom - cost
                    ev_ties += is_tie(ev, 8)
                    lines.append(f"{mid}{p_pay_text},{money(ev)}\n")
    rows = len(ransoms) * len(costs) * len(p_ss) * len(p_pays)
    ties = ev_ties + sum(
        count * rows // len(col)
        for count, col in (
            (ransom_ties, ransoms),
            (cost_ties, costs),
            (p_s_ties, p_ss),
            (p_pay_ties, p_pays),
        )
    )
    return Expected(0, f"rows = {rows}\n", {"": "".join(lines)}, rows=rows, values=5 * rows, ties=ties)


def _ev(inv: Invocation) -> Expected:
    ransom, cost, p_s, p_pay = _floats(inv.econ)
    p_win = p_s * p_pay
    ransom_star = (1.0 / p_win) * cost
    stdout = (
        f"p_win = {prob(p_win)}\n"
        f"expected_value = {money(p_win * ransom - cost)}\n"
        f"break_even_ransom = {money(ransom_star)}\n"
        f"payout_multiple = {quantize(ransom / ransom_star, TENTH_MILLI)}\n"
    )
    return Expected(0, stdout, {})


def _breakeven(inv: Invocation) -> Expected:
    ransom, cost, p_s, p_pay = _floats(inv.econ)
    solve = inv.extra_args[1]
    if solve == "ransom":
        text = money((1.0 / (p_s * p_pay)) * cost)
    elif solve == "cost":
        text = money(p_s * p_pay * ransom)
    else:
        required = cost / (p_s * ransom)
        if required > 1.0:
            return Expected(3, "", {})
        text = prob(required)
    return Expected(0, text + "\n", {})


def _mitigate(inv: Invocation) -> Expected:
    ransom, cost, p_s, p_pay = _floats(inv.econ)
    success_factors, pay_factors = [], []
    for kind, params in inv.model["actions"]:
        if kind == "AttackSuccessReduction":
            success_factors.append(1.0 - float(params["reduction"]))
        elif kind == "DecrypterAvailability":
            pay_factors.append(1.0 - float(params["coverage"]))
        elif kind == "BackupAdoption":
            pay_factors.append(1.0 - float(params["adoption"]) * float(params["effectiveness"]))
    # Factors multiply in sorted order, so the portfolio order never matters.
    t_s = p_s * math.prod(sorted(success_factors))
    t_pay = p_pay * math.prod(sorted(pay_factors))
    base_ev = p_s * p_pay * ransom - cost
    new_ev = t_s * t_pay * ransom - cost
    lines = [
        f"baseline_p_win = {prob(p_s * p_pay)}",
        f"baseline_ev = {money(base_ev)}",
        f"transformed_p_win = {prob(t_s * t_pay)}",
        f"transformed_ev = {money(new_ev)}",
        f"ev_reduction = {money(base_ev - new_ev)}",
        f"still_profitable = {'true' if new_ev > 0.0 else 'false'}",
    ]
    if "annual" in inv.model:
        attacks, salary_text = inv.model["annual"]
        salary = float(salary_text)
        annual_ev = attacks * new_ev
        lines += [
            f"attacks_per_year = {attacks}",
            f"annual_ev = {money(annual_ev)}",
            f"salary_threshold = {money(salary)}",
            f"substitutable = {'true' if annual_ev <= salary else 'false'}",
        ]
    return Expected(0, "\n".join(lines) + "\n", {})


def _figure1(inv: Invocation, out: str) -> Expected:
    files, lines = {}, []
    rows = ties = 0
    for p, seed in zip(FIGURE1_WIN_PROBS, inv.model["seeds"]):
        name = f"figure1_p{p:g}.csv"
        text, s, t = trace_csv(FIGURE1_RANSOM, FIGURE1_COST, 1.0 * p, FIGURE1_TRIALS, seed, 0.0)
        files[name] = text
        rows += FIGURE1_TRIALS
        ties += t
        lines.append(
            f"p = {prob(p)} seed = {seed} final_bank = {money(s['final_bank'])} "
            f"file = {PurePath(out) / name}\n"
        )
    return Expected(0, "".join(lines), files, rows=rows, values=2 * rows, ties=ties)


def expected(inv: Invocation, out: str) -> Expected:
    """Expected result of running `inv` with `--out out` (if it takes one).

    For single-file commands the CSV is keyed by ""; for figure1 by the
    file name inside the `out` directory.
    """
    if inv.command == "figure1":
        return _figure1(inv, out)
    return {
        "sweep": _sweep,
        "simulate": _simulate,
        "ev": _ev,
        "breakeven": _breakeven,
        "mitigate": _mitigate,
    }[inv.command](inv)


def check(exp: Expected, exit_code: int, stdout: bytes, stderr: bytes, files: dict[str, bytes]) -> list[str]:
    """Every way an invocation's actual result departs from `exp`."""
    problems = []
    if exit_code != exp.exit_code:
        problems.append(f"exit code {exit_code}, expected {exp.exit_code}")
    if b"Traceback" in stderr:
        problems.append("traceback on stderr")
    if exp.exit_code == 0:
        if stderr:
            problems.append(f"unexpected stderr {stderr[:200]!r}")
    elif not stderr.startswith(b"error: "):
        problems.append(f"expected an 'error: ' message on stderr, got {stderr[:200]!r}")
    if stdout != exp.stdout.encode():
        problems.append(f"stdout differs: {stdout[:200]!r}")
    for name, text in exp.files.items():
        actual = files.get(name)
        if actual is None:
            problems.append(f"missing output file {name!r}")
        elif actual != text.encode():
            problems.append(f"output file {name!r} differs at byte {_first_difference(actual, text.encode())}")
    for name in sorted(files.keys() - exp.files.keys()):
        problems.append(f"unexpected output file {name!r}")
    return problems


def _first_difference(a: bytes, b: bytes) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


def digest(stdout: bytes, files: dict[str, bytes]) -> str:
    """SHA-256 over stdout and each output file, in file-name order."""
    h = hashlib.sha256(stdout)
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name])
    return h.hexdigest()
