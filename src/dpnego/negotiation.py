"""The negotiation engine: objective evaluation, budget optimization,
feasibility, the counter-offer pipeline, and the owner budget ledger."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator

from .contracts import (
    APPROVE,
    COUNTER_OFFER,
    MEMO_LIMIT,
    REJECT,
    RESOLUTION_ORDER,
    Catalog,
    Decision,
    FeatureKind,
    NegotiationOutcome,
    ResolutionKind,
    ValidatedRequest,
    left_sum,
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

    The objective weights five terms by ``lambdas`` (l1..l5):
    l1*2*sqrt(e) - l2*1.8*S*e^1.7 + l3*T + l4*P - l5*0.15*e. The defaults
    (1, 1, 1, 0.8, 1) give 2*sqrt(e) - 1.8*S*e^1.7 + T + 0.8*P - 0.15*e.
    Non-negative lambdas keep it concave in e for S >= 0, which the optimizer
    relies on. Budgets are granted on the grid k*grid_step in (0, eps_max],
    plus the interval's upper end.
    ``safety_mode`` places the budget-headroom rule: "upfront" rejects before
    any optimization, "staged" gates each approval path on the sensitivity it
    actually grants (the permissive variant exercised by the low-budget and
    adversary scenarios).
    """

    lambdas: tuple[float, float, float, float, float] = (1.0, 1.0, 1.0, 0.8, 1.0)
    eps_max: float = 10.0
    grid_step: float = 1e-3
    eps_min_default: float = 0.05
    eps_min_rules: tuple[EpsMinRule, ...] = ()
    counter_factor: float = 0.25
    trusted_min_trust: float = 0.8
    trusted_max_sensitivity: float = 0.5
    safety_factor: float = 4.0
    safety_mode: str = "upfront"

    def __post_init__(self) -> None:
        if not self.eps_max > self.grid_step > 0:
            raise ValueError("require eps_max > grid_step > 0")
        if not 0.0 < self.counter_factor < 1.0:
            raise ValueError("counter_factor must be in (0,1)")
        if len(self.lambdas) != 5:
            raise ValueError(f"lambdas must have 5 entries, got {len(self.lambdas)}")
        if any(l < 0 for l in self.lambdas):
            raise ValueError("lambdas must be non-negative")
        if self.safety_mode not in ("upfront", "staged"):
            raise ValueError(f"unknown safety mode: {self.safety_mode}")
        floors = (self.eps_min_default, *(rule.value for rule in self.eps_min_rules))
        if not all(0.0 < floor <= self.eps_max for floor in floors):
            raise ValueError(f"eps_min_default and eps_min_rules values must be in "
                             f"(0, eps_max={self.eps_max}], got {floors}")

    @property
    def grid_points(self) -> int:
        """Number of grid points k*grid_step in (0, eps_max]."""
        return int(math.floor(self.eps_max / self.grid_step + _TOL))

    def trusted(self, trust):
        """Whether a requester of ``trust`` is trusted: ``trust >=
        trusted_min_trust``, the only form in which a decision reads trust.
        On a numpy array of trusts, the answer for each."""
        return trust >= self.trusted_min_trust

    def eps_min(self, sensitivity: float, purpose: str) -> float:
        for rule in self.eps_min_rules:
            if sensitivity <= rule.band_max and rule.purpose in ("*", purpose):
                return rule.value
        return self.eps_min_default


def objective(eps: float, s: float, t: float, p: float, cfg: EngineConfig) -> float:
    """Score one candidate budget. Raises for non-positive epsilon."""
    if eps <= 0:
        raise NonPositiveEpsilon(f"epsilon must be positive, got {eps}")
    l1, l2, l3, l4, l5 = cfg.lambdas
    u, r, c = 2.0 * math.sqrt(eps), 1.8 * s * eps**1.7, 0.15 * eps
    return l1 * u - l2 * r + l3 * t + l4 * p - l5 * c


@dataclass
class BudgetLedger:
    """Append-only grant ledger for one owner.

    Invariant: h_remaining = h_max - sum(granted epsilons) and never negative;
    grants are never removed. Single-writer per owner. ``h_max`` and every
    grant are positive finite numbers: a negative grant would add budget, and
    an infinite or NaN one would hide an overdraft from every check.
    ``h_max`` and the running total are plain floats, so ``h_remaining``, and
    a grant at the budget's end, are floats even for numpy inputs.
    """

    h_max: float
    granted: list[tuple[str, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 < self.h_max < math.inf:
            raise ValueError(f"h_max must be a positive finite number, got {self.h_max!r}")
        self.h_max = float(self.h_max)
        for contract_id, eps in self.granted:
            if not 0 < eps < math.inf:
                raise NonPositiveEpsilon(
                    f"grant {contract_id!r} must be a positive finite number, got {eps!r}"
                )
        self._spent = float(left_sum(e for _, e in self.granted))
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
        if not 0 < eps_star < math.inf:
            raise NonPositiveEpsilon(
                f"settlement epsilon must be a positive finite number, got {eps_star!r}"
            )
        if eps_star > self.h_remaining + _TOL:
            raise BudgetOverdraft(
                f"grant {eps_star} exceeds remaining budget {self.h_remaining}"
            )
        self.granted.append((contract_id, eps_star))
        self._spent += float(eps_star)
        return self


def derive_counter_offer(
    req: ValidatedRequest, cfg: EngineConfig
) -> tuple[tuple[FeatureKind, ...], ResolutionKind, float] | None:
    """The first reduction of a request (``_shapes``) whose price
    (``Catalog.price``) is at most counter_factor times the request's, as
    (features, resolution, price), or None when none is that cheap. The
    price is the counter-offer's ``effective_sensitivity`` once validated.

    The search depends only on the request's shape, so its result is memoized
    on the catalog per (features, resolution, counter_factor).
    """
    catalog, base = req.catalog, req.request
    key = (base.features, base.resolution, cfg.counter_factor)
    memo = catalog._reductions
    shape = memo.get(key, _MISS)
    if shape is _MISS:
        if len(memo) >= MEMO_LIMIT:
            memo.clear()
        shape = memo[key] = _reduce_shape(catalog, *key)
    return shape


def _reduce_shape(
    catalog: Catalog, features: tuple[FeatureKind, ...], resolution: ResolutionKind, factor: float
) -> tuple[tuple[FeatureKind, ...], ResolutionKind, float] | None:
    """The counter-offer search on a request's shape: the first shape
    ``_shapes`` yields priced within the target, with its price, or None."""
    original = catalog.price(features, resolution)
    if original <= 0:
        return None
    target = factor * original + _TOL
    for shape in _shapes(catalog, features, resolution):
        if (price := catalog.price(*shape)) <= target:
            return *shape, price
    return None


def _shapes(
    catalog: Catalog, features: tuple[FeatureKind, ...], resolution: ResolutionKind
) -> Iterator[tuple[tuple[FeatureKind, ...], ResolutionKind]]:
    """The reductions of a request shape as (features, resolution), in the
    order a counter-offer tries them: the shape at its own resolution and at
    each coarser one up the ladder; then, at the coarsest, each feature
    swapped for the aggregate form in descending coefficient (a stable sort
    keeps equal coefficients in request order); then the aggregates dropped
    one at a time down to one."""
    for resolution in RESOLUTION_ORDER[RESOLUTION_ORDER.index(resolution):]:
        yield features, resolution
    reduced = list(features)
    alphas = [catalog.alphas[f] for f in features]
    for i in sorted(range(len(features)), key=alphas.__getitem__, reverse=True):
        if reduced[i] is not FeatureKind.AGGREGATE:
            reduced[i] = FeatureKind.AGGREGATE
            yield tuple(reduced), resolution
    for n in range(len(features) - 1, 0, -1):
        yield (FeatureKind.AGGREGATE,) * n, resolution


class NegotiationEngine:
    """The decision rule (``_decide``) and the exact grid argmax of the
    objective it grants from, found without building the grid.

    Pure with respect to its config: identical inputs give identical outputs,
    so (sensitivity, upper-bound) argmax results and each sensitivity's peak
    over the whole grid are memoized on the engine; each memo is cleared at
    ``MEMO_LIMIT`` entries.
    """

    def __init__(self, cfg: EngineConfig):
        self.cfg = cfg
        l1, l2, _, _, l5 = cfg.lambdas
        self._weights = (l1, l2, l5)
        self._argmax_cache: dict[tuple[float, float, type], float | None] = {}
        self._peaks: dict[float, tuple[int, float]] = {}

    def _stationary(self, sensitivity: float) -> float:
        """Root of f'(e) = l1/sqrt(e) - 1.7*l2*1.8*S*e^0.7 - 0.15*l5.

        Times sqrt(e), the root solves a*e^1.2 + c*e^0.5 = l1. For S >= 0 the
        left side rises and is convex in ln(e), so Newton's method on ln(e)
        started above the root falls to it without overshooting. 0 when f
        never rises, inf when it never falls.
        """
        l1, l2, l5 = self._weights
        a = 1.7 * l2 * 1.8 * sensitivity
        c = 0.15 * l5
        if l1 <= 0:
            return 0.0
        # each term alone reaching l1 bounds the root from above
        e = min((l1 / a) ** (1 / 1.2) if a > 0 else math.inf,
                (l1 / c) ** 2 if c > 0 else math.inf)
        while e < math.inf:
            p, q = a * e**1.2, c * math.sqrt(e)
            step = (p + q - l1) / (1.2 * p + 0.5 * q)
            e *= math.exp(-step)
            if step <= 1e-12:
                break
        return e

    def _grid_argmax(self, sensitivity: float) -> tuple[int, float]:
        """(k, score) of the first maximum over the whole grid 1..grid_points.

        Starts at the grid point nearest the stationary point and climbs: down
        while the left neighbour is at least as high, else up while the right
        one is higher, which keeps the smaller epsilon on ties.
        """
        step, cfg, m = self.cfg.grid_step, self.cfg, self.cfg.grid_points

        def score(k: int) -> float:
            return objective(k * step, sensitivity, 0.0, 0.0, cfg)

        # an infinite root starts at m; nan (the risk term overflowed) at 1
        k = round(min(m, max(1, self._stationary(sensitivity) / step)))
        here = score(k)
        while k > 1 and (left := score(k - 1)) >= here:
            k, here = k - 1, left
        while k < m and (right := score(k + 1)) > here:
            k, here = k + 1, right
        return k, here

    def optimize(self, sensitivity: float, upper: float) -> float | None:
        """Argmax over the grid in (0, min(eps_max, upper)].

        The interval endpoint is always a candidate even when it is not a
        grid multiple, so an increasing objective is clamped exactly at the
        bound. Ties break toward the smaller epsilon.

        For S >= 0 the objective is concave in epsilon (``EngineConfig``
        keeps the lambdas non-negative), so on the grid it rises strictly up
        to the whole grid's first maximum k*: the first maximum over grid
        points 1..m is min(m, k*). k* and its score are memoized per
        sensitivity in ``_peaks``.
        """
        upper = min(self.cfg.eps_max, upper)
        if upper <= 0:
            return None
        # the bound's type is part of the key: an endpoint grant is the bound
        # itself, so an int cap and an equal float cap get their own entries
        key = (sensitivity, upper, type(upper))
        cached = self._argmax_cache.get(key, _MISS)
        if cached is not _MISS:
            return cached
        step = self.cfg.grid_step
        m = min(int(math.floor(upper / step + _TOL)), self.cfg.grid_points)
        # float rounding may push the top grid point one ulp past the bound
        if m >= 1 and m * step > upper:
            m -= 1
        best: float | None = None
        best_score = -math.inf
        if m >= 1:
            peak = self._peaks.get(sensitivity)
            if peak is None:
                if len(self._peaks) >= MEMO_LIMIT:
                    self._peaks.clear()
                peak = self._peaks[sensitivity] = self._grid_argmax(sensitivity)
            k, best_score = peak
            if k > m:
                k, best_score = m, objective(m * step, sensitivity, 0.0, 0.0, self.cfg)
            best = k * step
        if m == 0 or upper > m * step + _TOL:
            end_score = objective(upper, sensitivity, 0.0, 0.0, self.cfg)
            if end_score > best_score:
                best = upper
        if len(self._argmax_cache) >= MEMO_LIMIT:
            self._argmax_cache.clear()
        self._argmax_cache[key] = best
        return best

    def negotiate(
        self, req: ValidatedRequest, ledger: BudgetLedger, trust: float
    ) -> NegotiationOutcome:
        """The outcome of ``_decide`` for ``req``: a function of the request,
        the ledger's ``h_remaining`` and ``EngineConfig.trusted(trust)`` alone.
        The counter-offer comes from ``derive_counter_offer``, and the modified
        request is built and validated only for a COUNTER_OFFER verdict.
        """
        base = req.request
        shape = derive_counter_offer(req, self.cfg)
        label, eps_star, violated, _ = self._decide(
            req.effective_sensitivity, None if shape is None else shape[2],
            self.cfg.trusted(trust), ledger.h_remaining, base.proposed_epsilon,
            base.purpose.value,
        )
        if label is APPROVE:
            return NegotiationOutcome(APPROVE, epsilon_star=eps_star)
        if label is COUNTER_OFFER:
            features, resolution, _ = shape
            modified = replace(base, features=features, resolution=resolution)
            return NegotiationOutcome(
                COUNTER_OFFER,
                epsilon_star=eps_star,
                modified_request=validate_request(modified, req.catalog).request,
            )
        return _REJECTIONS[violated]

    def _decide(
        self,
        s_eff: float,
        counter_s: float | None,
        trusted: bool,
        h_remaining: float,
        eps_cap: float | None,
        purpose: str,
        want_predicates: bool = False,
    ) -> tuple[Decision, float | None, str | None, tuple[bool, ...] | None]:
        """The decision rule over scalars, for ``negotiate`` and the
        robustness probe: approve as asked, else counter-offer, else approve
        a trusted requester at the minimum, else reject.

        ``counter_s`` is the counter-offer's effective sensitivity, or None
        when there is none. ``trusted`` is ``cfg.trusted(trust)``, the only
        form in which a decision reads the requester's trust.
        Returns (decision, eps_star, violated, predicates).
        """
        cfg = self.cfg
        upper = h_remaining if eps_cap is None else min(h_remaining, eps_cap)
        eps_min = cfg.eps_min(s_eff, purpose)
        safety_ok = h_remaining >= cfg.safety_factor * s_eff
        eps1 = self.optimize(s_eff, upper) if safety_ok or want_predicates else None
        if not safety_ok:
            violated = SAFETY_CONDITION
        elif eps1 is None:
            violated = BUDGET_EXCEEDED
        elif eps1 < eps_min - _TOL:
            violated = BELOW_MINIMUM
        else:
            violated = None

        predicates = (
            eps1 is not None and eps1 >= eps_min - _TOL,
            eps1 is not None and eps1 <= h_remaining + _TOL,
            safety_ok,
            counter_s is not None and counter_s <= cfg.counter_factor * s_eff + _TOL,
        ) if want_predicates else None
        if violated is None:
            return APPROVE, eps1, None, predicates

        if cfg.safety_mode == "upfront" and not safety_ok:
            return REJECT, None, SAFETY_CONDITION, predicates

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
                return COUNTER_OFFER, eps2, None, predicates

        if (
            trusted
            and s_eff <= cfg.trusted_max_sensitivity
            and eps_min <= h_remaining + _TOL
            and (eps_cap is None or eps_cap >= eps_min - _TOL)
        ):
            return APPROVE, eps_min, None, predicates

        return REJECT, None, violated, predicates


_MISS = object()
# one shared, frozen rejection per violated constraint
_REJECTIONS = {
    v: NegotiationOutcome(REJECT, violated=v)
    for v in (SAFETY_CONDITION, BELOW_MINIMUM, BUDGET_EXCEEDED)
}
_ENGINES: dict[EngineConfig, NegotiationEngine] = {}
_last_engine: NegotiationEngine | None = None


def engine_for(cfg: EngineConfig) -> NegotiationEngine:
    """The shared engine for ``cfg``. A repeat of the last config object is
    matched by identity, which skips hashing every field of the config."""
    global _last_engine
    engine = _last_engine
    if engine is not None and engine.cfg is cfg:
        return engine
    engine = _ENGINES.get(cfg)
    if engine is None:
        if len(_ENGINES) > 64:
            _ENGINES.clear()
        engine = _ENGINES[cfg] = NegotiationEngine(cfg)
    _last_engine = engine
    return engine


def negotiate(
    req: ValidatedRequest, ledger: BudgetLedger, trust: float, cfg: EngineConfig
) -> NegotiationOutcome:
    """Decide one validated request with the shared engine for ``cfg``:
    approve as asked, else counter-offer, else approve a trusted requester at
    the minimum, else reject (``NegotiationEngine._decide``).

    Never mutates the ledger; call ``ledger.settle`` once the grant is accepted.
    """
    return engine_for(cfg).negotiate(req, ledger, trust)
