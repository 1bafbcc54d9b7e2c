"""Defensive strategies as parameter transforms on attack economics.

Each strategy multiplies one probability channel (attack success, or
payment given success) by a factor in [0, 1]. Ransom and cost are
attacker-side knobs and are never touched. Factors combine
commutatively, so the effect of a portfolio does not depend on the
order its actions are listed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from .economics import (
    MAX_COUNT,
    AttackEconomics,
    Money,
    Probability,
    expected_utility,
    nonnegative,
    unit_interval,
    whole_number,
)
from .errors import NotAchievableError, ZeroDenominatorError


@dataclass(frozen=True)
class AttackSuccessReduction:
    """Hardening that stops a fraction of launched attacks from succeeding."""

    reduction: float

    def __post_init__(self):
        object.__setattr__(self, "reduction", unit_interval("reduction", self.reduction))


@dataclass(frozen=True)
class DecrypterAvailability:
    """Free decrypters let a fraction of successful attacks go unpaid."""

    coverage: float

    def __post_init__(self):
        object.__setattr__(self, "coverage", unit_interval("coverage", self.coverage))


@dataclass(frozen=True)
class BackupAdoption:
    """Off-site backups: adoption rate times restoration effectiveness.

    Adoption and effectiveness are separate knobs so adoption incentives
    can be varied independently of how well restoration works.
    """

    adoption: float
    effectiveness: float

    def __post_init__(self):
        object.__setattr__(self, "adoption", unit_interval("adoption", self.adoption))
        object.__setattr__(
            self, "effectiveness", unit_interval("effectiveness", self.effectiveness)
        )


@dataclass(frozen=True)
class CyberInsurance:
    """Insurance pays the victim back; the attacker still gets paid.

    Neutral on every attacker-facing parameter by design.
    """


MitigationAction = Union[
    AttackSuccessReduction, DecrypterAvailability, BackupAdoption, CyberInsurance
]


def _success_factor(action: MitigationAction) -> float:
    if isinstance(action, AttackSuccessReduction):
        return 1.0 - action.reduction
    return 1.0


def _pay_factor(action: MitigationAction) -> float:
    if isinstance(action, DecrypterAvailability):
        return 1.0 - action.coverage
    if isinstance(action, BackupAdoption):
        return 1.0 - action.adoption * action.effectiveness
    return 1.0


def apply_action(econ: AttackEconomics, action: MitigationAction) -> AttackEconomics:
    """One action applied to the economics; insurance is the exact identity."""
    return apply_portfolio(econ, (action,))


def apply_portfolio(
    econ: AttackEconomics, actions: Sequence[MitigationAction]
) -> AttackEconomics:
    """A whole portfolio applied at once.

    Per-channel factors are multiplied in a canonical (sorted) order
    before touching the probabilities, so any permutation of the same
    actions yields a bit-identical result.
    """
    success = math.prod(sorted(_success_factor(a) for a in actions))
    pay = math.prod(sorted(_pay_factor(a) for a in actions))
    if success == 1.0 and pay == 1.0:
        return econ
    return replace(
        econ,
        p_success=Probability(econ.p_success.value * success),
        p_pay_given_success=Probability(econ.p_pay_given_success.value * pay),
    )


@dataclass(frozen=True)
class AnnualizationInputs:
    """User-supplied attack rate and the legitimate salary to compare against."""

    attacks_per_year: int
    salary_threshold: Money

    def __post_init__(self):
        whole_number("attacks_per_year", self.attacks_per_year, 0, MAX_COUNT)
        nonnegative("salary_threshold", self.salary_threshold.amount)


@dataclass(frozen=True)
class AnnualizedComparison:
    """Yearly attacker income against a substitutable legitimate salary."""

    attacks_per_year: int
    annual_ev: Money
    salary_threshold: Money
    substitutable: bool


@dataclass(frozen=True)
class MitigationReport:
    """Before/after economics of a portfolio and the incentive it removes."""

    baseline: AttackEconomics
    transformed: AttackEconomics
    baseline_ev: Money
    transformed_ev: Money
    ev_reduction: Money
    still_profitable: bool
    annualized: Optional[AnnualizedComparison] = None


def evaluate(
    econ: AttackEconomics,
    actions: Sequence[MitigationAction],
    annual: Optional[AnnualizationInputs] = None,
) -> MitigationReport:
    """Evaluate a portfolio against the attacker's incentive to operate."""
    transformed = apply_portfolio(econ, actions)
    baseline_ev = expected_utility(econ)
    transformed_ev = expected_utility(transformed)
    annualized = None
    if annual is not None:
        annual_ev = Money(annual.attacks_per_year * transformed_ev.amount)
        annualized = AnnualizedComparison(
            attacks_per_year=annual.attacks_per_year,
            annual_ev=annual_ev,
            salary_threshold=annual.salary_threshold,
            substitutable=annual_ev.amount <= annual.salary_threshold.amount,
        )
    return MitigationReport(
        baseline=econ,
        transformed=transformed,
        baseline_ev=baseline_ev,
        transformed_ev=transformed_ev,
        ev_reduction=Money(baseline_ev.amount - transformed_ev.amount),
        still_profitable=transformed_ev.amount > 0.0,
        annualized=annualized,
    )


def required_pay_probability_for_target_ev(econ: AttackEconomics, target_ev: Money) -> Probability:
    """Conditional payment probability that pins expected value to a target.

    Solves target = p_success * p_pay * ransom - cost for p_pay. With a
    target of zero this coincides with the break-even payment
    probability.
    """
    denom = econ.p_success.value * econ.ransom.amount
    if denom == 0.0:
        raise ZeroDenominatorError("success probability and ransom must both be positive")
    required = (target_ev.amount + econ.cost.total().amount) / denom
    if not 0.0 <= required <= 1.0:
        raise NotAchievableError(
            f"no payment probability in [0, 1] reaches the target (would need {required:.6g})"
        )
    return Probability(required)
