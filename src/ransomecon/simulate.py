"""Seeded Bernoulli-trial simulation of repeated attacks.

Randomness comes from numpy's PCG64 generator, seeded through
SeedSequence, so a trace is fully determined by (econ, k, b0, seed).
Independent streams for batch statistics are derived by hashing
(master seed, stream index) through SeedSequence as well. Draws are
uniform in [0, 1) and a trial wins when its draw falls below the joint
win probability, which couples traces that share a seed monotonically
across probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .economics import (
    AttackEconomics,
    CostModel,
    Money,
    Probability,
    check_seed,
    check_trials,
    per_trial_profit,
)

FIGURE1_RANSOM = 170404.0
FIGURE1_COST = CostModel(Money(3000.0), Money(400.0), Money(800.0))
FIGURE1_WIN_PROBS = (0.1, 0.3024, 0.5)
FIGURE1_TRIALS = 1000


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def _profits(econ: AttackEconomics, outcomes: np.ndarray) -> np.ndarray:
    win, loss = (per_trial_profit(won, econ).amount for won in (True, False))
    return np.where(outcomes, win, loss)


def derive_seed(master_seed: int, stream: int) -> int:
    """Mix (master seed, stream index) into an independent 64-bit seed."""
    check_seed(master_seed)
    if stream != int(stream) or stream < 0:
        raise ValueError(f"stream index must be a nonnegative integer, got {stream!r}")
    sequence = np.random.SeedSequence([int(master_seed), int(stream)])
    return int(sequence.generate_state(1, np.uint64)[0])


@dataclass(frozen=True, eq=False)
class TrialTrace:
    """One simulated attack campaign.

    outcomes[i] is True when trial i both succeeded and was paid;
    bank_series[i] is the capital after trial i, starting from b0.
    Both arrays are read-only.
    """

    seed: int
    econ: AttackEconomics
    b0: Money
    outcomes: np.ndarray
    bank_series: np.ndarray

    @property
    def trials(self) -> int:
        return int(self.outcomes.size)

    @property
    def wins(self) -> int:
        return int(np.count_nonzero(self.outcomes))

    @property
    def final_bank(self) -> Money:
        return Money(float(self.bank_series[-1]))

    def profits(self) -> np.ndarray:
        """Per-trial profit implied by the outcomes: x - c on a win, -c on a loss."""
        return _profits(self.econ, self.outcomes)


def run_trials(econ: AttackEconomics, k: int, *, seed: int, b0: Money = Money(0.0)) -> TrialTrace:
    """Simulate k attacks and return the full trace.

    Identical (econ, k, b0, seed) always produces an identical trace,
    independent of platform or scheduling. A bank that leaves the finite
    binary64 range at any trial raises ValueError.
    """
    k = check_trials(k)
    seed = check_seed(seed)
    draws = _generator(seed).random(k)
    outcomes = draws < econ.p_win
    with np.errstate(over="ignore"):  # reported below as a ValueError
        bank_series = b0.amount + np.cumsum(_profits(econ, outcomes))
    if not np.isfinite(bank_series).all():
        raise ValueError(f"the bank overflows binary64 within {k} trials")
    outcomes.flags.writeable = False
    bank_series.flags.writeable = False
    return TrialTrace(seed=seed, econ=econ, b0=b0, outcomes=outcomes, bank_series=bank_series)


@dataclass(frozen=True)
class TraceSummary:
    """Descriptive statistics of one trace."""

    trials: int
    wins: int
    empirical_win_rate: Probability
    final_bank: Money
    mean_per_trial_profit: Money
    sample_std_per_trial_profit: Money


def summarize(trace: TrialTrace) -> TraceSummary:
    """Summary statistics of a trace; sample std uses the n-1 divisor.

    A single-trial trace has no sample spread; its std is reported as 0.
    """
    profits = trace.profits()
    n = trace.trials
    std = float(profits.std(ddof=1)) if n > 1 else 0.0
    return TraceSummary(
        trials=n,
        wins=trace.wins,
        empirical_win_rate=Probability(trace.wins / n),
        final_bank=trace.final_bank,
        mean_per_trial_profit=Money(float(profits.mean())),
        sample_std_per_trial_profit=Money(std),
    )


def figure1_economics(p_win: float) -> AttackEconomics:
    """The canned reference economics at a bare joint win probability."""
    return AttackEconomics.from_joint(Money(FIGURE1_RANSOM), FIGURE1_COST, Probability(p_win))


def replicate_figure1(
    seeds: Sequence[int], k: int = FIGURE1_TRIALS, b0: Money = Money(0.0)
) -> tuple[TrialTrace, TrialTrace, TrialTrace]:
    """Three campaigns at the reference payout and cost, ascending win rates.

    One seed per win probability, ordered as FIGURE1_WIN_PROBS. Passing
    the same seed three times couples the runs through common random
    numbers, which makes the final banks nondecreasing in the win
    probability.
    """
    if len(seeds) != len(FIGURE1_WIN_PROBS):
        raise ValueError(f"need {len(FIGURE1_WIN_PROBS)} seeds, got {len(seeds)}")
    traces = tuple(
        run_trials(figure1_economics(p), k, seed=seed, b0=b0)
        for p, seed in zip(FIGURE1_WIN_PROBS, seeds)
    )
    return traces
