"""Human- and machine-readable explanations for negotiation outcomes,
the privacy-utility summary score, and the decision-stability probe."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

from .contracts import (
    APPROVE,
    COUNTER_OFFER,
    REJECT,
    ContractRequest,
    Decision,
    NegotiationOutcome,
    ValidatedRequest,
    canonical_json,
    feature_multiset,
)
from .negotiation import (
    BudgetLedger,
    EngineConfig,
    NonPositiveEpsilon,
    derive_counter_offer,
    engine_for,
)


class FactorMismatch(ValueError):
    pass


@dataclass(frozen=True)
class ExplainConfig:
    """Weights for the privacy-utility score and the consumption-warning cut."""

    pu_lambdas: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    high_consumption_threshold: float = 0.5

    def __post_init__(self) -> None:
        if len(self.pu_lambdas) != 4:
            raise ValueError(f"pu_lambdas must have 4 entries, got {len(self.pu_lambdas)}")


def privacy_utility_score(
    eps_star: float,
    sensitivity: float,
    trust: float,
    engine_cfg: EngineConfig,
    explain_cfg: ExplainConfig = ExplainConfig(),
) -> float:
    """Summarize the privacy-utility trade-off of a grant.

    Each objective component is normalized to [0,1] over (0, eps_max] before
    weighting so scores are comparable across requests. A zero-sensitivity
    request has zero normalized risk by convention.
    """
    if eps_star <= 0:
        raise NonPositiveEpsilon("eps_star must be positive")
    l1, l2, l3, l4 = explain_cfg.pu_lambdas
    emax = engine_cfg.eps_max
    x = min(eps_star, emax) / emax
    r_hat = x**1.7 if sensitivity > 0 else 0.0
    return l1 * (1.0 - r_hat) + l2 * math.sqrt(x) + l3 * trust - l4 * x


@dataclass(frozen=True)
class Factors:
    """Snapshot of the exact inputs a negotiation used."""

    s_eff: float
    trust: float
    purpose_score: float
    h_remaining: float
    eps_star: float | None = None
    request: ContractRequest | None = None


def factors_for(
    req: ValidatedRequest,
    ledger: BudgetLedger,
    trust: float,
    outcome: NegotiationOutcome,
) -> Factors:
    """Reconstruct the factor snapshot for an outcome (all inputs are pure)."""
    return Factors(
        s_eff=req.effective_sensitivity,
        trust=trust,
        purpose_score=req.purpose_score,
        h_remaining=ledger.h_remaining,
        eps_star=outcome.epsilon_star,
        request=req.request,
    )


REJECT_SUGGESTIONS = (
    "reduce the temporal resolution of the requested data",
    "shorten the requested reporting duration",
    "reduce the sensitivity of the requested feature set",
)


@dataclass(frozen=True)
class Explanation:
    """Decision record rendered for both machines and people."""

    decision: Decision
    factors: Factors
    pu_score: float | None
    violated: str | None
    suggestions: tuple[str, ...]
    changed_parameters: tuple[str, ...]
    warning_high_consumption: bool
    text: str
    trace_id: str

    def to_dict(self) -> dict:
        return {
            "decision": self.decision.value,
            "factors": {
                "s_eff": self.factors.s_eff,
                "trust": self.factors.trust,
                "purpose_score": self.factors.purpose_score,
                "h_remaining": self.factors.h_remaining,
                "eps_star": self.factors.eps_star,
            },
            "pu_score": self.pu_score,
            "violated": self.violated,
            "suggestions": list(self.suggestions),
            "changed_parameters": list(self.changed_parameters),
            "warning_high_consumption": self.warning_high_consumption,
            "text": self.text,
            "trace_id": self.trace_id,
        }


def _trace_id(payload: dict) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


def explain(
    outcome: NegotiationOutcome,
    factors: Factors,
    ledger: BudgetLedger,
    engine_cfg: EngineConfig,
    explain_cfg: ExplainConfig = ExplainConfig(),
) -> Explanation:
    """Dispatch on the decision and render the explanation record.

    ``factors`` must be the exact values the negotiation used; a disagreement
    with the outcome's embedded epsilon is a FactorMismatch.
    """
    if factors.eps_star != outcome.epsilon_star:
        raise FactorMismatch(
            f"factor eps_star {factors.eps_star} != outcome {outcome.epsilon_star}"
        )
    if outcome.decision is REJECT and outcome.violated is None:
        raise FactorMismatch("reject outcome without a violated constraint")

    pu: float | None = None
    suggestions: tuple[str, ...] = ()
    changed: tuple[str, ...] = ()
    warning = False

    if outcome.decision is APPROVE:
        assert outcome.epsilon_star is not None
        pu = privacy_utility_score(
            outcome.epsilon_star, factors.s_eff, factors.trust, engine_cfg, explain_cfg
        )
        if factors.h_remaining > 0:
            warning = (
                outcome.epsilon_star / factors.h_remaining
                >= explain_cfg.high_consumption_threshold
            )
        text = (
            f"Approved with epsilon {outcome.epsilon_star:.3f}: sensitivity "
            f"{factors.s_eff:.3f} and purpose score {factors.purpose_score:.2f} fit "
            f"the remaining budget {factors.h_remaining:.3f} "
            f"(trust {factors.trust:.2f}, privacy-utility {pu:.3f})."
        )
        if warning:
            text += " Warning: this grant consumes most of the remaining privacy capacity."
    elif outcome.decision is COUNTER_OFFER:
        assert outcome.epsilon_star is not None and outcome.modified_request is not None
        pu = privacy_utility_score(
            outcome.epsilon_star, factors.s_eff, factors.trust, engine_cfg, explain_cfg
        )
        original = factors.request
        mods: list[str] = []
        diffs: list[str] = []
        if original is not None:
            new = outcome.modified_request
            if new.resolution != original.resolution:
                mods.append("resolution")
                diffs.append(
                    f"resolution: {original.resolution.value} -> {new.resolution.value}"
                )
            if feature_multiset(new.features) != feature_multiset(original.features):
                mods.append("features")
                diffs.append(
                    f"features: {list(feature_multiset(original.features))} -> "
                    f"{list(feature_multiset(new.features))}"
                )
            if new.window_hours != original.window_hours:
                mods.append("window_hours")
                diffs.append(
                    f"window_hours: {original.window_hours} -> {new.window_hours}"
                )
        changed = tuple(mods)
        suggestions = tuple(diffs)
        text = (
            f"Counter-offer at epsilon {outcome.epsilon_star:.3f}: the original request "
            f"(sensitivity {factors.s_eff:.3f}) exceeds current privacy limits; "
            f"adjusted {', '.join(mods) if mods else 'parameters'} to fit."
        )
    else:
        suggestions = REJECT_SUGGESTIONS
        text = (
            f"Rejected ({outcome.violated}): sensitivity {factors.s_eff:.3f} against "
            f"remaining budget {factors.h_remaining:.3f} leaves no feasible epsilon. "
            "Consider: " + "; ".join(REJECT_SUGGESTIONS) + "."
        )

    trace = _trace_id(
        {
            "decision": outcome.decision.value,
            "eps_star": outcome.epsilon_star,
            "s_eff": factors.s_eff,
            "trust": factors.trust,
            "purpose": factors.purpose_score,
            "h_remaining": factors.h_remaining,
            "violated": outcome.violated,
        }
    )
    return Explanation(
        decision=outcome.decision,
        factors=factors,
        pu_score=pu,
        violated=outcome.violated,
        suggestions=suggestions,
        changed_parameters=changed,
        warning_high_consumption=warning,
        text=text,
        trace_id=trace,
    )


@dataclass(frozen=True)
class ReplayCase:
    """One frozen negotiation to replay under perturbation."""

    request: ValidatedRequest
    h_remaining: float
    trust: float


@dataclass
class ProbeReport:
    """Outcome of the decision-stability probe."""

    replays: int
    unchanged: int
    flips: int
    stability: float
    flips_at_threshold: int
    mean_eps_drift: float

    @property
    def all_flips_at_threshold(self) -> bool:
        return self.flips == self.flips_at_threshold


def robustness_probe(
    cases: Sequence[ReplayCase],
    perturbation: float,
    trials: int,
    seed: int,
    engine_cfg: EngineConfig,
) -> ProbeReport:
    """Replay negotiations with sensitivity and trust independently scaled by
    uniform factors in [1-p, 1+p] and measure decision-label stability.

    Every flip is attributed: it counts toward ``flips_at_threshold`` when at
    least one of the feasibility predicates (eps >= eps_min, eps <= H,
    H >= safety*S, S' <= counter_factor*S) changed truth value between the
    base and the perturbed run.
    """
    import numpy as np  # imported here so that deciding a request never loads it

    if not 0.0 <= perturbation < 0.5:
        raise ValueError("perturbation must be in [0, 0.5)")
    engine = engine_for(engine_cfg)
    rng = np.random.default_rng(seed)
    unchanged = 0
    flips = 0
    flips_at_threshold = 0
    eps_drift: list[float] = []
    trials = max(1, trials)
    # every trial's sensitivity and trust offsets, drawn in one call in loop order
    offsets = iter(rng.uniform(-perturbation, perturbation, 2 * len(cases) * trials).tolist())

    for case in cases:
        s_eff = case.request.effective_sensitivity
        shape = derive_counter_offer(case.request, engine_cfg)
        counter_s = shape[2] if shape else None
        cap = case.request.request.proposed_epsilon
        purpose = case.request.request.purpose.value
        base_label, base_eps, _, base_preds = engine._decide(
            s_eff, counter_s, engine_cfg.trusted(case.trust),
            case.h_remaining, cap, purpose,
            want_predicates=True,
        )
        for _ in range(trials):
            u = 1.0 + next(offsets)
            v = 1.0 + next(offsets)
            label, eps, _, preds = engine._decide(
                s_eff * u,
                counter_s * u if counter_s is not None else None,
                engine_cfg.trusted(min(1.0, case.trust * v)),
                case.h_remaining,
                cap,
                purpose,
                want_predicates=True,
            )
            if label == base_label:
                unchanged += 1
                if base_eps is not None and eps is not None:
                    eps_drift.append(abs(eps - base_eps))
            else:
                flips += 1
                if base_preds != preds:
                    flips_at_threshold += 1

    total = unchanged + flips
    return ProbeReport(
        replays=total,
        unchanged=unchanged,
        flips=flips,
        stability=unchanged / total if total else 1.0,
        flips_at_threshold=flips_at_threshold,
        mean_eps_drift=float(np.mean(eps_drift)) if eps_drift else 0.0,
    )
