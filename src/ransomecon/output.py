"""Presentation-boundary formatting and CSV emitters.

Everything upstream runs at full binary64 precision; this module is the
only place values get rounded. Monetary values print with exactly two
decimals, ratios with four and probabilities with six, ties away from
zero, computed on the exact stored binary value. Output is
byte-identical across runs and platforms for equal inputs; lines end
with a bare newline.
"""

from __future__ import annotations

import itertools
import math
import sys
from decimal import ROUND_HALF_UP, Context, Decimal
from typing import Sequence

from .breakeven import MONEY_PARAMETERS, SweepResult
from .economics import per_trial_profit
from .simulate import TrialTrace

# Integer digits of the largest finite binary64 value (1.8e308): the
# fallback's own context is exact for every finite input, whatever the
# caller's decimal context.
_INTEGER_DIGITS = sys.float_info.max_10_exp + 1


def _exact(value: float, quantum: Decimal, context: Context) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot format a non-finite value: {value!r}")
    q = Decimal(value).quantize(quantum, context=context)
    return format(q.copy_abs() if q.is_zero() else q, "f")  # never print -0.00


def format_fixed_column(values: Sequence[float], places: int) -> list[str]:
    """Each value with exactly `places` decimals, ties away from zero.

    '%.Nf' already rounds the exact binary value correctly, half to
    even. It differs from rounding half away from zero only on an exact
    binary tie (value * 2**(places+1) an odd integer), on a text that
    reads as negative zero and on a non-finite value; only those go
    through Decimal. A non-finite value raises ValueError.
    """
    fmt = f"%.{places}f"
    texts = list(map(fmt.__mod__, values))
    # Python's float % can round a remainder a hair above -1 up to 1.0 and
    # flag a non-tie; that only costs a trip through the exact fallback.
    scale = 2.0 ** (places + 1)
    patch = [i for i, v in enumerate(values) if v * scale % 2.0 == 1.0]
    special = {fmt % -0.0, "inf", "-inf", "nan"}
    if not special.isdisjoint(texts):
        patch += [i for i, text in enumerate(texts) if text in special]
    if patch:
        quantum = Decimal((0, (1,), -places))
        context = Context(prec=_INTEGER_DIGITS + places, rounding=ROUND_HALF_UP)
        for i in patch:
            texts[i] = _exact(values[i], quantum, context)
    return texts


def format_fixed(value: float, places: int) -> str:
    """One value with exactly `places` decimals, by format_fixed_column's rule."""
    return format_fixed_column((float(value),), places)[0]


def format_money(amount: float) -> str:
    """Dollars with exactly two decimals."""
    return format_fixed(amount, 2)


def format_probability(value: float) -> str:
    """Probabilities with exactly six decimals."""
    return format_fixed(value, 6)


def format_ratio(value: float) -> str:
    """Dimensionless ratios with four decimals."""
    return format_fixed(value, 4)


def write_trace_csv(trace: TrialTrace) -> str:
    """CSV of one trace: trial index, win flag, per-trial profit, bank.

    The profit column has one text per outcome, formatted once; the
    bank column is formatted as one column. Each bank text is replaced
    by its row in place, so the column and the rows are never both held.
    """
    outcome_texts = tuple(
        f",{int(won)},{format_money(per_trial_profit(won, trace.econ).amount)},"
        for won in (False, True)
    )
    rows = format_fixed_column(trace.bank_series.tolist(), 2)
    for i, won in enumerate(trace.outcomes.tolist()):
        rows[i] = f"{i + 1}{outcome_texts[won]}{rows[i]}"
    rows.insert(0, "trial,outcome,profit,bank")
    rows.append("")  # the trailing newline
    return "\n".join(rows)


def write_sweep_csv(result: SweepResult) -> str:
    """CSV of a sweep: one column per swept parameter, then expected_value.

    Rows keep the deterministic row-major order of the result. Money
    columns use two decimals, probability columns six; each axis value
    is formatted once and its text reused in every row.
    """
    columns = [
        format_fixed_column(values, 2 if name in MONEY_PARAMETERS else 6)
        for name, values in result.grid.axes
    ]
    rows = format_fixed_column(result.expected_values, 2)
    for i, cells in enumerate(itertools.product(*columns)):
        rows[i] = ",".join((*cells, rows[i]))
    rows.insert(0, ",".join(result.swept_names + ("expected_value",)))
    rows.append("")  # the trailing newline
    return "\n".join(rows)
