"""Presentation-boundary formatting and CSV emitters.

Everything upstream runs at full binary64 precision; this module is the
only place values get rounded. Monetary values print with exactly two
decimals and probabilities with six, ties away from zero, computed on
the exact stored binary value. Output is byte-identical across runs and
platforms for equal inputs; lines end with a bare newline.
"""

from __future__ import annotations

import itertools
from decimal import ROUND_HALF_UP, Decimal

from .breakeven import MONEY_PARAMETERS, SweepResult
from .simulate import TrialTrace

_CENT = Decimal("0.01")
_MICRO = Decimal("0.000001")
_TENTH_MILLI = Decimal("0.0001")


def _quantize(value: float, unit: Decimal) -> str:
    q = Decimal(float(value)).quantize(unit, rounding=ROUND_HALF_UP)
    if q.is_zero():
        q = abs(q)  # never print -0.00
    return format(q, "f")


def format_money(amount: float) -> str:
    """Dollars with exactly two decimals."""
    return _quantize(amount, _CENT)


def format_probability(value: float) -> str:
    """Probabilities with exactly six decimals."""
    return _quantize(value, _MICRO)


def format_ratio(value: float) -> str:
    """Dimensionless ratios with four decimals."""
    return _quantize(value, _TENTH_MILLI)


def write_trace_csv(trace: TrialTrace) -> str:
    """CSV of one trace: trial index, win flag, per-trial profit, bank."""
    profits = trace.profits()
    lines = ["trial,outcome,profit,bank"]
    for i in range(trace.trials):
        outcome = 1 if trace.outcomes[i] else 0
        lines.append(
            f"{i + 1},{outcome},{format_money(profits[i])},{format_money(trace.bank_series[i])}"
        )
    return "\n".join(lines) + "\n"


def write_sweep_csv(result: SweepResult) -> str:
    """CSV of a sweep: one column per swept parameter, then expected_value.

    Rows keep the deterministic row-major order of the result. Money
    columns use two decimals, probability columns six; each axis value
    is formatted once and its text reused in every row.
    """
    columns = [
        tuple(map(format_money if name in MONEY_PARAMETERS else format_probability, values))
        for name, values in result.grid.axes
    ]
    lines = [",".join(result.swept_names + ("expected_value",))]
    for cells, ev in zip(itertools.product(*columns), result.expected_values):
        lines.append(",".join(cells + (format_money(ev),)))
    return "\n".join(lines) + "\n"
