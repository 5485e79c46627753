"""Generalization-bound toolkit for pseudolabel retraining.

Implements the PAC-style arithmetic relating a locally trained model (error
bound ``base_error`` on ``labeled_size`` examples) to its retrained version
after absorbing ``pseudo_size`` pseudolabels produced by a helper ensemble
(error bound ``helper_error``):

* ``labeled_risk_budget(p, e)`` is the quantity that ``labeled_size *
  base_error`` must stay below for the guarantee to apply. With u = p * e it
  evaluates (u!)^(1/u) * e_nat - u and is continued to non-integer u through
  the Gamma function (u! -> Gamma(u + 1)); it increases monotonically on
  u in (0, inf).
* ``retrained_error_bound`` is the retrained model's error bound:
  max(base_error + (pseudo_size / labeled_size) *
  (helper_error - helper_disagreement), 0). Larger disagreement between the
  helper and the retrained model tightens the bound.

These are calculators over supplied or measured quantities; no probabilistic
claim is verified. ``analyze_round`` applies them descriptively to a finished
federation round.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .learners import materialize_bundle


class TheoryError(ValueError):
    """Parameters outside the calculator's domain."""


@dataclass(frozen=True)
class TheoryParams:
    """Inputs to the retraining-bound arithmetic.

    ``pseudo_size`` may be zero (no pseudolabels were absorbed), in which case
    the retrained bound degenerates to ``base_error``; the budget condition is
    only defined for a positive pseudolabel mass.
    """

    labeled_size: int
    pseudo_size: int
    base_error: float
    helper_error: float
    helper_disagreement: float

    def __post_init__(self):
        if self.labeled_size < 1:
            raise TheoryError("labeled_size must be >= 1")
        if self.pseudo_size < 0:
            raise TheoryError("pseudo_size must be >= 0")
        error_rate("base_error", self.base_error)
        error_rate("helper_error", self.helper_error)
        if not 0.0 <= self.helper_disagreement <= 1.0:
            raise TheoryError("helper_disagreement must lie in [0, 1]")


def error_rate(name: str, value: float) -> None:
    """Refuse ``value`` as the error rate ``name`` unless it lies in (0, 1/2)."""
    if not 0.0 < value < 0.5:
        raise TheoryError(f"{name} must lie in (0, 1/2), got {value}")


def prediction_disagreement(a: np.ndarray, b: np.ndarray) -> float:
    """Disagreement between two already-computed prediction vectors."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or len(a) == 0:
        raise TheoryError("prediction vectors must be non-empty and aligned")
    return float(np.mean(a != b))


def labeled_risk_budget(pseudo_size: float, helper_error: float) -> float:
    """Upper bound on labeled_size * base_error for the guarantee to apply.

    Evaluates (u!)^(1/u) * e - u at u = pseudo_size * helper_error via the
    log-Gamma function, which agrees with the exact factorial at integer u and
    continues it in between.
    """
    u = pseudo_size * helper_error
    if u <= 0:
        raise TheoryError("pseudo_size * helper_error must be > 0")
    return math.exp(math.lgamma(u + 1.0) / u) * math.e - u


def retrained_error_bound(params: TheoryParams) -> float:
    """Error bound of the model retrained on labeled data plus pseudolabels."""
    correction = (params.pseudo_size / params.labeled_size) * (
        params.helper_error - params.helper_disagreement
    )
    return max(params.base_error + correction, 0.0)


def guarantee_condition_holds(params: TheoryParams) -> bool:
    """Whether labeled_size * base_error stays inside the budget.

    False when no pseudolabel mass is available (the condition is vacuous).
    """
    if params.pseudo_size * params.helper_error <= 0:
        return False
    return params.labeled_size * params.base_error < labeled_risk_budget(
        params.pseudo_size, params.helper_error
    )


@dataclass(frozen=True)
class ParticipantAnalysis:
    participant: int
    labeled_size: int
    pseudo_size: int
    base_error: float
    helper_error: float
    helper_disagreement: float
    retrained_bound: float
    budget: float | None
    condition_holds: bool


@dataclass(frozen=True)
class RoundAnalysis:
    participants: tuple[ParticipantAnalysis, ...]
    pairwise_disagreement: tuple[tuple[float, ...], ...]

    def to_records(self) -> list[dict]:
        records = [{"record": "analysis", **asdict(p)} for p in self.participants]
        records.append({
            "record": "pairwise_disagreement",
            "matrix": [list(row) for row in self.pairwise_disagreement],
        })
        return records


# Error rates are clipped into the open interval TheoryParams accepts, so a
# participant with perfect (or abysmal) measured accuracy still yields a
# well-defined descriptive bound.
_EPS = 1e-6


def _clip_error(value: float) -> float:
    return min(max(value, _EPS), 0.5 - _EPS)


def analyze_round(result, helper_error: float | None = None) -> RoundAnalysis:
    """Descriptive bound arithmetic over a finished round's ``RoundResult``.

    Per participant, takes the labeled size and the retrained local baseline's
    test accuracy from the report, with one minus that accuracy as the base
    error, and measures the helper disagreement as the fraction of bundled
    public instances where the federated model departs from its bundle's
    labels. ``helper_error`` defaults to the mean base error across
    participants, standing in for the unobservable ensemble error.
    """
    if result is None:
        raise TheoryError("a finished round's result is required for analysis")
    reports = result.report.participants
    n = len(reports)
    local_errors = [1.0 - p.local_accuracy for p in reports]
    if helper_error is None:
        helper_error = _clip_error(float(np.mean(local_errors)))

    participants = []
    for p, error, bundle, federated in zip(reports, local_errors, result.bundles,
                                           result.federated_classifiers):
        pseudo_size = len(bundle)
        if pseudo_size > 0:
            pseudo = materialize_bundle(bundle, result.data.unlabeled)
            disagreement = prediction_disagreement(federated.predict_batch(pseudo.features),
                                                   pseudo.labels)
        else:
            disagreement = 0.0
        params = TheoryParams(
            labeled_size=p.train_size,
            pseudo_size=pseudo_size,
            base_error=_clip_error(error),
            helper_error=helper_error,
            helper_disagreement=disagreement,
        )
        participants.append(ParticipantAnalysis(
            participant=p.participant,
            **asdict(params),
            retrained_bound=retrained_error_bound(params),
            budget=labeled_risk_budget(pseudo_size, helper_error) if pseudo_size > 0 else None,
            condition_holds=guarantee_condition_holds(params),
        ))

    matrix = tuple(
        tuple(prediction_disagreement(result.predictions[i], result.predictions[j])
              if i != j else 0.0
              for j in range(n))
        for i in range(n)
    )
    return RoundAnalysis(participants=tuple(participants), pairwise_disagreement=matrix)
