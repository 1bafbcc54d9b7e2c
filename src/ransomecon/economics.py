"""Core domain types and closed-form expected-value arithmetic.

Money is kept at full binary64 precision everywhere; rounding to cents
happens only at the presentation boundary (see output.py). The attacker
is modeled as risk-neutral, so the utility of a prize is the prize
itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PROBABILITY_SUM_TOLERANCE = 1e-9
MAX_SEED = 2**64 - 1
MAX_COUNT = 2**63 - 1  # largest trial or attack count: a signed 64-bit size


def unit_interval(name: str, value: float) -> float:
    """value as a float; ValueError unless it is finite and within [0, 1]."""
    v = float(value)
    if not 0.0 <= v <= 1.0:  # also rejects NaN and infinities
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")
    return v


def nonnegative(name: str, value: float) -> float:
    """value as a float; ValueError unless it is finite and >= 0."""
    v = float(value)
    if not 0.0 <= v < math.inf:
        raise ValueError(f"{name} must be >= 0 and finite, got {value!r}")
    return v


def whole_number(name: str, value, low: int, high: int) -> int:
    """value as an int; ValueError unless it is a whole number in [low, high]."""
    if value != int(value) or not low <= value <= high:
        raise ValueError(f"{name} must be a whole number in [{low}, {high}], got {value!r}")
    return int(value)


def check_seed(seed) -> int:
    """A generator seed: a whole number that fits in 64 unsigned bits."""
    return whole_number("seed", seed, 0, MAX_SEED)


def check_trials(k) -> int:
    """A simulated trial count: a positive whole number."""
    return whole_number("trial count", k, 1, MAX_COUNT)


@dataclass(frozen=True)
class Probability:
    """A probability in [0, 1]. Construction rejects anything else."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", unit_interval("probability", self.value))

    def complement(self) -> Probability:
        return Probability(1.0 - self.value)


@dataclass(frozen=True)
class Money:
    """A dollar amount at binary64 precision. Never NaN or infinite."""

    amount: float

    def __post_init__(self):
        a = float(self.amount)
        if not math.isfinite(a):
            raise ValueError(f"money must be finite, got {self.amount!r}")
        object.__setattr__(self, "amount", a)


@dataclass(frozen=True)
class CostModel:
    """Per-attack cost split into its purchasable components.

    The decomposition mirrors how the capability is bought: the malware
    product itself, initial access to the target, and a loader to plant
    the payload.
    """

    product: Money
    initial_access: Money
    loader: Money

    def __post_init__(self):
        for name in ("product", "initial_access", "loader"):
            nonnegative(name, getattr(self, name).amount)

    def total(self) -> Money:
        return Money(self.product.amount + self.initial_access.amount + self.loader.amount)

    @classmethod
    def from_total(cls, total: float) -> CostModel:
        """A cost with no known decomposition: everything on the product."""
        return cls(Money(total), Money(0.0), Money(0.0))

    def scaled_to_total(self, target: float) -> CostModel:
        """Rescale all components proportionally so total() lands on target.

        A zero-cost model has no proportions to preserve; the target is
        then placed entirely on the product component.
        """
        target = nonnegative("cost total", target)
        current = self.total().amount
        if current == 0.0:
            return CostModel.from_total(target)
        factor = target / current
        return CostModel(
            Money(self.product.amount * factor),
            Money(self.initial_access.amount * factor),
            Money(self.loader.amount * factor),
        )


@dataclass(frozen=True)
class AttackEconomics:
    """One attack scenario: ransom, cost, and the two probability factors.

    The joint win probability (attack succeeds AND the victim pays) is
    always derived from the factored form, never stored.
    """

    ransom: Money
    cost: CostModel
    p_success: Probability
    p_pay_given_success: Probability

    def __post_init__(self):
        nonnegative("ransom", self.ransom.amount)

    @property
    def p_win(self) -> float:
        """Joint probability that one attack both succeeds and gets paid."""
        return self.p_success.value * self.p_pay_given_success.value

    @property
    def p_lose(self) -> float:
        return 1.0 - self.p_win

    @classmethod
    def from_joint(cls, ransom: Money, cost: CostModel, p_win: Probability) -> AttackEconomics:
        """Model a bare win probability: success is folded in as certain."""
        return cls(ransom, cost, Probability(1.0), p_win)


@dataclass(frozen=True)
class Lottery:
    """A discrete prize set with aligned probabilities and an entry cost.

    Probabilities must sum to 1 within PROBABILITY_SUM_TOLERANCE; the
    prize and probability lists are index-aligned and non-empty.
    """

    prizes: tuple[Money, ...]
    probabilities: tuple[Probability, ...]
    entry_cost: Money

    def __post_init__(self):
        prizes = tuple(self.prizes)
        probs = tuple(self.probabilities)
        object.__setattr__(self, "prizes", prizes)
        object.__setattr__(self, "probabilities", probs)
        if not prizes:
            raise ValueError("lottery needs at least one prize")
        if len(prizes) != len(probs):
            raise ValueError(f"{len(prizes)} prizes vs {len(probs)} probabilities")
        total = math.fsum(p.value for p in probs)
        if abs(total - 1.0) > PROBABILITY_SUM_TOLERANCE:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
        nonnegative("entry cost", self.entry_cost.amount)

    @classmethod
    def from_attack(cls, econ: AttackEconomics) -> Lottery:
        """The two-outcome lottery of a single attack: ransom or nothing."""
        p = Probability(econ.p_win)
        return cls(
            prizes=(econ.ransom, Money(0.0)),
            probabilities=(p, p.complement()),
            entry_cost=econ.cost.total(),
        )


def expected_value(ransom: float, cost: float, p_success: float, p_pay: float) -> float:
    """Mean profit of one attack on bare floats: p_success * p_pay * ransom - cost.

    The one definition of the expected-value arithmetic; expected_utility
    and the sweep both call it, so their results agree bit for bit.
    """
    return p_success * p_pay * ransom - cost


def expected_utility(econ: AttackEconomics) -> Money:
    """Mean profit of one attack: joint win probability times ransom, minus cost."""
    ransom, cost = econ.ransom.amount, econ.cost.total().amount
    return Money(expected_value(ransom, cost, econ.p_success.value, econ.p_pay_given_success.value))


def lottery_expected_utility(lot: Lottery) -> Money:
    """Probability-weighted prize value minus the entry cost.

    On the two-outcome lottery {ransom, 0} this reduces exactly to
    expected_utility.
    """
    gross = math.fsum(p.value * x.amount for p, x in zip(lot.probabilities, lot.prizes))
    return Money(gross - lot.entry_cost.amount)


def expected_bank(b0: Money, k: int, econ: AttackEconomics) -> Money:
    """Expected capital after k attacks starting from b0.

    Linearity of expectation: b0 plus k times the per-attack expected
    utility.
    """
    if k != int(k) or k < 0:
        raise ValueError(f"trial count must be a nonnegative integer, got {k!r}")
    return Money(b0.amount + int(k) * expected_utility(econ).amount)


def per_trial_profit(won: bool, econ: AttackEconomics) -> Money:
    """Realized profit of one attack: ransom minus cost on a win, bare cost on a loss.

    The one definition of the per-trial profit; the simulation and the
    trace CSV both call it.
    """
    cost = econ.cost.total().amount
    return Money(econ.ransom.amount - cost if won else -cost)
