"""The negotiation engine: objective evaluation, budget optimization,
feasibility, the counter-offer pipeline, and the owner budget ledger."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .contracts import (
    Catalog,
    ContractRequest,
    Decision,
    FeatureKind,
    NegotiationOutcome,
    RESOLUTION_ORDER,
    ValidatedRequest,
    validate_request,
)

# Violated-constraint identifiers carried by rejections.
SAFETY_CONDITION = "safety_condition"
BELOW_MINIMUM = "below_minimum"
BUDGET_EXCEEDED = "budget_exceeded"

_TOL = 1e-9


class NonPositiveEpsilon(ValueError):
    pass


class BudgetOverdraft(ValueError):
    pass


@dataclass(frozen=True)
class EpsMinRule:
    """Utility-floor override for one sensitivity band and purpose.

    Matches when sensitivity <= band_max and the purpose equals ``purpose``
    (``"*"`` matches any). First matching rule wins.
    """

    band_max: float
    purpose: str
    value: float


@dataclass(frozen=True)
class EngineConfig:
    """All knobs of the negotiation engine.

    ``objective`` selects the scoring form: "experimental" is the fixed
    closed form 2*sqrt(e) - 1.8*S*e^1.7 + 1.0*T + 0.8*P - 0.15*e; "generic"
    is lambda-weighted pluggable components whose defaults coincide with it.
    ``safety_mode`` places the budget-headroom rule: "upfront" rejects before
    any optimization, "staged" gates each approval path on the sensitivity it
    actually grants (the permissive variant exercised by the low-budget and
    adversary scenarios).
    """

    lambdas: tuple[float, float, float, float, float] = (1.0, 1.0, 1.0, 0.8, 1.0)
    objective: str = "experimental"
    eps_max: float = 10.0
    grid_step: float = 1e-3
    eps_min_default: float = 0.05
    eps_min_rules: tuple[EpsMinRule, ...] = ()
    counter_factor: float = 0.25
    trusted_min_trust: float = 0.8
    trusted_max_sensitivity: float = 0.5
    safety_factor: float = 4.0
    safety_mode: str = "upfront"
    utility_fn: Callable | None = None
    risk_fn: Callable | None = None
    cost_fn: Callable | None = None

    def __post_init__(self) -> None:
        if not self.eps_max > self.grid_step > 0:
            raise ValueError("require eps_max > grid_step > 0")
        if not 0.0 < self.counter_factor < 1.0:
            raise ValueError("counter_factor must be in (0,1)")
        if any(l < 0 for l in self.lambdas):
            raise ValueError("lambdas must be non-negative")
        if self.objective not in ("experimental", "generic"):
            raise ValueError(f"unknown objective mode: {self.objective}")
        if self.safety_mode not in ("upfront", "staged"):
            raise ValueError(f"unknown safety mode: {self.safety_mode}")

    def eps_min(self, sensitivity: float, purpose: str) -> float:
        for rule in self.eps_min_rules:
            if sensitivity <= rule.band_max and rule.purpose in ("*", purpose):
                return rule.value
        return self.eps_min_default


def _default_utility(eps):
    return 2.0 * np.sqrt(eps)


def _default_risk(eps, sensitivity):
    return 1.8 * sensitivity * eps**1.7


def _default_cost(eps):
    return 0.15 * eps


def objective(eps: float, s: float, t: float, p: float, cfg: EngineConfig) -> float:
    """Score one candidate budget. Raises for non-positive epsilon."""
    if eps <= 0:
        raise NonPositiveEpsilon(f"epsilon must be positive, got {eps}")
    if cfg.objective == "experimental":
        return 2.0 * math.sqrt(eps) - 1.8 * s * eps**1.7 + 1.0 * t + 0.8 * p - 0.15 * eps
    l1, l2, l3, l4, l5 = cfg.lambdas
    u = cfg.utility_fn or _default_utility
    r = cfg.risk_fn or _default_risk
    c = cfg.cost_fn or _default_cost
    return float(l1 * u(eps) - l2 * r(eps, s) + l3 * t + l4 * p - l5 * c(eps))


@dataclass
class BudgetLedger:
    """Append-only grant ledger for one owner.

    Invariant: h_remaining = h_max - sum(granted epsilons) and never negative;
    grants are never removed. Single-writer per owner.
    """

    h_max: float
    granted: list[tuple[str, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.h_max <= 0:
            raise ValueError("h_max must be positive")
        self._spent = float(sum(e for _, e in self.granted))
        if self._spent > self.h_max + _TOL:
            raise BudgetOverdraft("granted epsilons exceed h_max")

    @property
    def spent(self) -> float:
        return self._spent

    @property
    def h_remaining(self) -> float:
        remaining = self.h_max - self._spent
        return remaining if remaining > _TOL else 0.0

    @property
    def exhausted(self) -> bool:
        return self.h_remaining <= _TOL

    def settle(self, contract_id: str, eps_star: float) -> "BudgetLedger":
        if eps_star <= 0:
            raise NonPositiveEpsilon("settlement epsilon must be positive")
        if eps_star > self.h_remaining + _TOL:
            raise BudgetOverdraft(
                f"grant {eps_star} exceeds remaining budget {self.h_remaining}"
            )
        self.granted.append((contract_id, eps_star))
        self._spent += eps_star
        return self


def settle(ledger: BudgetLedger, contract_id: str, eps_star: float) -> BudgetLedger:
    """Deduct an approved grant from the owner's budget."""
    return ledger.settle(contract_id, eps_star)


def effective_sensitivity(req: ValidatedRequest) -> float:
    """Resolution-attenuated sensitivity; equals the raw sum at the finest tier."""
    return req.effective_sensitivity


def check_feasibility(
    eps_star: float,
    sensitivity: float,
    purpose: str,
    ledger: BudgetLedger,
    cfg: EngineConfig,
) -> str | None:
    """None when both feasibility inequalities hold, else the violated one."""
    if eps_star <= 0:
        raise NonPositiveEpsilon("eps_star must be positive")
    if eps_star < cfg.eps_min(sensitivity, purpose) - _TOL:
        return BELOW_MINIMUM
    if eps_star > ledger.h_remaining + _TOL:
        return BUDGET_EXCEEDED
    return None


def derive_counter_offer(
    req: ValidatedRequest, cfg: EngineConfig
) -> tuple[ValidatedRequest, float] | None:
    """Reduce a request until its effective sensitivity falls to at most
    counter_factor times the original.

    Transformations apply in fixed order: coarsen the resolution one step at a
    time, then swap features for their aggregate form in descending
    coefficient, then drop features in descending coefficient (never the last
    one). Stops at the first state under the target; None when even the floor
    state stays above it. The result is memoized on ``req`` per counter factor.
    """
    memo = req.counter_offers
    key = cfg.counter_factor
    if key not in memo:
        memo[key] = _reduce(req, key)
    return memo[key]


def _reduce(req: ValidatedRequest, counter_factor: float) -> tuple[ValidatedRequest, float] | None:
    original = req.effective_sensitivity
    if original <= 0:
        return None
    target = counter_factor * original
    catalog = req.catalog
    base = req.request
    features = list(base.features)
    resolution = base.resolution

    def current() -> float:
        att = catalog.attenuations[resolution]
        return att * sum(catalog.alphas[k] for k in features)

    def finish() -> tuple[ValidatedRequest, float]:
        modified = ContractRequest(
            requester_id=base.requester_id, owner_id=base.owner_id,
            features=tuple(features), window_hours=base.window_hours,
            resolution=resolution, purpose=base.purpose,
            proposed_epsilon=base.proposed_epsilon, max_noise=base.max_noise, mode=base.mode,
        )
        revalidated = validate_request(modified, catalog)
        return revalidated, revalidated.effective_sensitivity

    if current() <= target + _TOL:
        return finish()

    order = list(RESOLUTION_ORDER)
    for step in order[order.index(resolution) + 1 :]:
        resolution = step
        if current() <= target + _TOL:
            return finish()

    by_alpha_desc = sorted(
        range(len(features)), key=lambda i: (-catalog.alphas[features[i]], i)
    )
    for i in by_alpha_desc:
        if features[i] is FeatureKind.AGGREGATE:
            continue
        features[i] = FeatureKind.AGGREGATE
        if current() <= target + _TOL:
            return finish()

    while len(features) > 1:
        drop = max(range(len(features)), key=lambda i: (catalog.alphas[features[i]], -i))
        del features[drop]
        if current() <= target + _TOL:
            return finish()

    return None


class NegotiationEngine:
    """Grid-search optimizer with precomputed component arrays.

    Pure with respect to its config: identical inputs give identical outputs,
    so (sensitivity, upper-bound) argmax results are memoized.
    """

    def __init__(self, cfg: EngineConfig):
        self.cfg = cfg
        m_max = int(math.floor(cfg.eps_max / cfg.grid_step + _TOL))
        self._grid = np.arange(1, m_max + 1, dtype=np.float64) * cfg.grid_step
        if cfg.objective == "experimental":
            self._util = 2.0 * np.sqrt(self._grid)
            self._risk_unit = 1.8 * self._grid**1.7
            self._cost = 0.15 * self._grid
        else:
            l1, l2, l3, l4, l5 = cfg.lambdas
            u = cfg.utility_fn or _default_utility
            c = cfg.cost_fn or _default_cost
            self._util = l1 * np.asarray(u(self._grid), dtype=np.float64)
            self._risk_unit = None
            self._cost = l5 * np.asarray(c(self._grid), dtype=np.float64)
        self._argmax_cache: dict[tuple[float, float], float | None] = {}

    def _scores(self, m: int, sensitivity: float) -> np.ndarray:
        if self.cfg.objective == "experimental":
            return self._util[:m] - sensitivity * self._risk_unit[:m] - self._cost[:m]
        l2 = self.cfg.lambdas[1]
        r = self.cfg.risk_fn or _default_risk
        risk = l2 * np.asarray(r(self._grid[:m], sensitivity), dtype=np.float64)
        return self._util[:m] - risk - self._cost[:m]

    def _point_score(self, eps: float, sensitivity: float) -> float:
        return objective(eps, sensitivity, 0.0, 0.0, self.cfg)

    def optimize(self, sensitivity: float, upper: float) -> float | None:
        """Argmax over the grid in (0, min(eps_max, upper)].

        The interval endpoint is always a candidate even when it is not a
        grid multiple, so an increasing objective is clamped exactly at the
        bound. Ties break toward the smaller epsilon.
        """
        upper = min(self.cfg.eps_max, upper)
        if upper <= 0:
            return None
        key = (sensitivity, upper)
        cached = self._argmax_cache.get(key, _MISS)
        if cached is not _MISS:
            return cached
        m = min(
            int(math.floor(upper / self.cfg.grid_step + _TOL)), len(self._grid)
        )
        # float rounding may push the top grid point one ulp past the bound
        if m >= 1 and float(self._grid[m - 1]) > upper:
            m -= 1
        best: float | None = None
        best_score = -math.inf
        if m >= 1:
            scores = self._scores(m, sensitivity)
            i = int(np.argmax(scores))
            best = float(self._grid[i])
            best_score = float(scores[i])
        if m == 0 or upper > float(self._grid[m - 1]) + _TOL:
            end_score = self._point_score(upper, sensitivity)
            if end_score > best_score:
                best = upper
        if len(self._argmax_cache) > 65536:
            self._argmax_cache.clear()
        self._argmax_cache[key] = best
        return best

    def negotiate(
        self, req: ValidatedRequest, ledger: BudgetLedger, trust: float
    ) -> NegotiationOutcome:
        s_eff = req.effective_sensitivity
        counter = derive_counter_offer(req, self.cfg)
        label, eps_star, _, violated, _ = self._decide(
            s_eff=s_eff,
            counter_s=counter[1] if counter else None,
            trust=trust,
            h_remaining=ledger.h_remaining,
            eps_cap=req.request.proposed_epsilon,
            purpose=req.purpose.name.value,
        )
        if label is Decision.APPROVE:
            return NegotiationOutcome(Decision.APPROVE, epsilon_star=eps_star)
        if label is Decision.COUNTER_OFFER:
            assert counter is not None
            return NegotiationOutcome(
                Decision.COUNTER_OFFER,
                epsilon_star=eps_star,
                modified_request=counter[0].request,
            )
        return NegotiationOutcome(Decision.REJECT, violated=violated)

    def _decide(
        self,
        s_eff: float,
        counter_s: float | None,
        trust: float,
        h_remaining: float,
        eps_cap: float | None,
        purpose: str,
        want_predicates: bool = False,
    ) -> tuple[Decision, float | None, bool, str | None, tuple[bool, ...] | None]:
        """Decision core over scalars, shared with the robustness probe.

        Returns (decision, eps_star, used_counter, violated, predicates).
        """
        cfg = self.cfg
        upper = h_remaining if eps_cap is None else min(h_remaining, eps_cap)
        eps_min = cfg.eps_min(s_eff, purpose)
        violated: str | None = None
        safety_ok = h_remaining >= cfg.safety_factor * s_eff

        eps1: float | None = None
        if safety_ok or want_predicates:
            eps1 = self.optimize(s_eff, upper)

        def predicates() -> tuple[bool, ...] | None:
            if not want_predicates:
                return None
            return (
                eps1 is not None and eps1 >= eps_min - _TOL,
                eps1 is not None and eps1 <= h_remaining + _TOL,
                safety_ok,
                counter_s is not None
                and counter_s <= cfg.counter_factor * s_eff + _TOL,
            )

        if cfg.safety_mode == "upfront" and not safety_ok:
            return Decision.REJECT, None, False, SAFETY_CONDITION, predicates()

        if safety_ok or cfg.safety_mode == "upfront":
            if eps1 is None:
                violated = BUDGET_EXCEEDED
            elif eps1 < eps_min - _TOL:
                violated = BELOW_MINIMUM
            else:
                return Decision.APPROVE, eps1, False, None, predicates()
        else:
            violated = SAFETY_CONDITION

        if counter_s is not None and (
            cfg.safety_mode == "upfront"
            or h_remaining >= cfg.safety_factor * counter_s
        ):
            eps2 = self.optimize(counter_s, upper)
            if eps2 is None:
                violated = BUDGET_EXCEEDED
            elif eps2 < cfg.eps_min(counter_s, purpose) - _TOL:
                violated = BELOW_MINIMUM
            else:
                return Decision.COUNTER_OFFER, eps2, True, None, predicates()

        if (
            trust >= cfg.trusted_min_trust
            and s_eff <= cfg.trusted_max_sensitivity
            and eps_min <= h_remaining + _TOL
            and (eps_cap is None or eps_cap >= eps_min - _TOL)
        ):
            return Decision.APPROVE, eps_min, False, None, predicates()

        return Decision.REJECT, None, False, violated or SAFETY_CONDITION, predicates()


_MISS = object()
_ENGINES: dict[EngineConfig, NegotiationEngine] = {}


def engine_for(cfg: EngineConfig) -> NegotiationEngine:
    engine = _ENGINES.get(cfg)
    if engine is None:
        if len(_ENGINES) > 64:
            _ENGINES.clear()
        engine = _ENGINES[cfg] = NegotiationEngine(cfg)
    return engine


def optimize_epsilon(
    s: float, t: float, p: float, cfg: EngineConfig, h_remaining: float
) -> float | None:
    """Grid-search the budget maximizing the objective over
    (0, min(eps_max, h_remaining)].

    Trust and purpose enter the objective without epsilon dependence, so they
    never move the argmax; they are accepted for signature completeness.
    """
    if h_remaining < 0:
        raise ValueError("h_remaining must be non-negative")
    del t, p
    return engine_for(cfg).optimize(s, h_remaining)


def negotiate(
    req: ValidatedRequest, ledger: BudgetLedger, trust: float, cfg: EngineConfig
) -> NegotiationOutcome:
    """Run the full decision pipeline for one validated request.

    Never mutates the ledger; call settle() once the grant is accepted.
    """
    return engine_for(cfg).negotiate(req, ledger, trust)
