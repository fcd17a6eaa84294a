import copy
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dpnego.negotiation as negotiation_module
from dpnego.config import load_config
from dpnego.explain import ReplayCase, robustness_probe
from dpnego.contracts import (
    MEMO_LIMIT,
    ContractRequest,
    Decision,
    FeatureKind,
    PurposeKind,
    RequestMode,
    ResolutionKind,
    feature_multiset,
    validate_request,
)
from dpnego.negotiation import (
    BELOW_MINIMUM,
    BUDGET_EXCEEDED,
    SAFETY_CONDITION,
    BudgetLedger,
    BudgetOverdraft,
    EngineConfig,
    EpsMinRule,
    NegotiationEngine,
    NonPositiveEpsilon,
    derive_counter_offer,
    engine_for,
    negotiate,
    objective,
)

CFG = load_config()
ENGINE = CFG.engine
CATALOG = CFG.catalog


def validated(features, resolution, purpose=PurposeKind.BILLING, proposed=None, window=24):
    return validate_request(
        ContractRequest(
            requester_id="r",
            owner_id="o",
            features=tuple(features),
            window_hours=window,
            resolution=resolution,
            purpose=purpose,
            proposed_epsilon=proposed,
        ),
        CATALOG,
    )


# --- objective -------------------------------------------------------------

def test_objective_utility_minus_cost_only():
    assert objective(1.0, 0.0, 0.0, 0.0, ENGINE) == pytest.approx(1.85)


def test_objective_full_hand_value():
    # 2 - 0.72 + 0.8 + 0.64 - 0.15
    assert objective(1.0, 0.4, 0.8, 0.8, ENGINE) == pytest.approx(2.57)


def test_objective_rejects_zero_epsilon():
    with pytest.raises(NonPositiveEpsilon):
        objective(0.0, 0.4, 0.5, 0.5, ENGINE)


def test_generic_mode_coincides_with_experimental():
    """The lambda-weighted objective at the default lambdas is, to the bit,
    the closed form the experiments use."""
    rng = np.random.default_rng(3)
    for cfg in (ENGINE, EngineConfig()):
        for _ in range(50):
            eps = float(rng.uniform(0.01, 10))
            s, t, p = rng.uniform(0, 2), rng.uniform(0, 1), rng.uniform(0, 1)
            closed = 2.0 * math.sqrt(eps) - 1.8 * s * eps**1.7 + 1.0 * t + 0.8 * p - 0.15 * eps
            assert objective(eps, s, t, p, cfg).hex() == closed.hex()


# --- optimize --------------------------------------------------------------

def test_optimize_zero_sensitivity_clamped_at_budget():
    # objective is increasing for S=0, so the argmax is the right endpoint
    cfg = EngineConfig(eps_max=4.0)
    assert engine_for(cfg).optimize(0.0, 8.0) == pytest.approx(4.0)


def test_optimize_interior_optimum_pinned():
    # dense 1e-4 oracle over (0, 8] puts the stationary point at ~0.7523
    got = engine_for(ENGINE).optimize(0.4, 8.0)
    assert got == pytest.approx(0.752, abs=1e-9)


def test_optimize_empty_interval():
    assert engine_for(ENGINE).optimize(0.4, 0.0) is None


def test_optimize_endpoint_exact_for_fractional_budget():
    got = engine_for(ENGINE).optimize(0.0, 7.0005)
    assert got == 7.0005


@pytest.mark.parametrize("caps", [(2, 2.0), (2.0, 2)], ids=["int-first", "float-first"])
def test_equal_int_and_float_caps_keep_their_own_type(caps):
    """A grant at the interval end is the cap itself, so its type, and the
    JSON of the outcome, follow the cap whichever came first."""
    cfg = EngineConfig(grid_step=0.3)  # 2 is not a grid point, so the end wins
    engine = NegotiationEngine(cfg)
    for cap in caps:
        got = engine.optimize(0.0, cap)
        assert got == cap and type(got) is type(cap)
    engine = NegotiationEngine(cfg)
    for cap in caps:
        req = validated([FeatureKind.AGGREGATE], ResolutionKind.DAILY, proposed=cap)
        outcome = engine.negotiate(req, BudgetLedger(8.0), 0.5)
        assert outcome.decision is Decision.APPROVE
        assert type(outcome.epsilon_star) is type(cap)
        assert f'"epsilon_star": {cap!r}' in json.dumps(outcome.to_dict())


def test_optimize_matches_finer_oracle_sample():
    rng = np.random.default_rng(42)
    step = ENGINE.grid_step
    for _ in range(50):
        s = float(rng.uniform(0, 2.5))
        h = float(rng.uniform(0.05, 12.0))
        coarse = engine_for(ENGINE).optimize(s, h)
        upper = min(ENGINE.eps_max, h)
        fine_grid = np.arange(1, int(upper / (step / 10)) + 1) * (step / 10)
        scores = 2 * np.sqrt(fine_grid) - 1.8 * s * fine_grid**1.7 - 0.15 * fine_grid
        fine = float(fine_grid[int(np.argmax(scores))])
        end_score = 2 * math.sqrt(upper) - 1.8 * s * upper**1.7 - 0.15 * upper
        if end_score > float(np.max(scores)):
            fine = upper
        assert coarse is not None
        assert abs(coarse - fine) <= step + 1e-12


class GridOracle:
    """Reference argmax: every grid point k*grid_step up to the bound scored
    in numpy, np.argmax's first maximum, then the interval end if higher."""

    def __init__(self, cfg):
        self.cfg = cfg
        m_max = int(math.floor(cfg.eps_max / cfg.grid_step + 1e-9))
        self.grid = np.arange(1, m_max + 1, dtype=np.float64) * cfg.grid_step
        self.root = np.sqrt(self.grid)
        self.power = self.grid**1.7

    def __call__(self, s, upper):
        cfg, grid = self.cfg, self.grid
        upper = min(cfg.eps_max, upper)
        if upper <= 0:
            return None
        m = min(int(math.floor(upper / cfg.grid_step + 1e-9)), len(grid))
        if m >= 1 and grid[m - 1] > upper:
            m -= 1
        g, root, power = grid[:m], self.root[:m], self.power[:m]
        l1, l2, _, _, l5 = cfg.lambdas
        scores = l1 * (2.0 * root) - l2 * (1.8 * s * power) - l5 * (0.15 * g)
        best, best_score = None, -math.inf
        if m >= 1:
            i = int(np.argmax(scores))
            best, best_score = float(grid[i]), float(scores[i])
        if m == 0 or upper > grid[m - 1] + 1e-9:
            if objective(upper, s, 0.0, 0.0, cfg) > best_score:
                best = upper
        return best


ORACLE_CONFIGS = [
    ENGINE,
    EngineConfig(),
    EngineConfig(lambdas=(0.0, 1.0, 1.0, 0.8, 1.0)),
    EngineConfig(lambdas=(1.0, 0.0, 1.0, 0.8, 1.0)),
    EngineConfig(lambdas=(1.0, 1.0, 1.0, 0.8, 0.0)),
    EngineConfig(lambdas=(0.0, 0.0, 0.0, 0.0, 0.0)),
    EngineConfig(lambdas=(2.5, 0.3, 0.0, 0.0, 0.7), eps_max=7.3, grid_step=0.01),
]


def oracle_id(cfg):
    # "experimental": the shipped engine the experiments run on;
    # "generic": an engine config built in code
    return f"{'experimental' if cfg is ENGINE else 'generic'}-{cfg.lambdas}"


def catalog_sensitivities():
    """Every effective sensitivity of a request of up to three features."""
    values = set()
    for n in range(1, 4):
        for kinds in itertools.combinations_with_replacement(list(FeatureKind), n):
            for res in ResolutionKind:
                values.add(validated(kinds, res).effective_sensitivity)
    return sorted(values)


def midpoint_sensitivities(cfg, rng, n):
    """Sensitivities whose unbounded optimum lies halfway between two grid
    points, where the nearest grid point need not be the argmax."""
    l1, l2, _, _, l5 = cfg.lambdas
    if l2 == 0:
        return []
    e = (rng.integers(1, cfg.grid_points, n) + 0.5) * cfg.grid_step
    s = (l1 / np.sqrt(e) - 0.15 * l5) / (1.7 * 1.8 * l2 * e**0.7)
    return [float(x) for x in s if x > 0]


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=oracle_id)
def test_optimize_equals_numpy_grid_oracle(cfg):
    """Exact equality with the full-grid argmax: bounds on, 1e-12 around and
    between grid points, next to the unbounded optimum and above eps_max."""
    rng = np.random.default_rng(11)
    engine, oracle = NegotiationEngine(cfg), GridOracle(cfg)
    step, m_max = cfg.grid_step, cfg.grid_points
    sensitivities = [0.0, *catalog_sensitivities(), *rng.uniform(0.0, 3.0, 10),
                     *midpoint_sensitivities(cfg, rng, 40)]
    mismatches = []
    for s in sensitivities:
        k_star = round(oracle(s, math.inf) / step)
        uppers = [cfg.eps_max + float(rng.uniform(0.0, 5.0))]
        for k in (int(rng.integers(1, m_max + 1)), max(1, k_star - 1), k_star, k_star + 1):
            uppers += [k * step, k * step - 1e-12, k * step + 1e-12,
                       (k + float(rng.uniform())) * step]
        for upper in uppers:
            if engine.optimize(s, upper) != oracle(s, upper):
                mismatches.append((s, upper))
    assert not mismatches


def climb_optimize(cfg, sensitivity, upper):
    """The reference for ``NegotiationEngine.optimize``, with no memo:
    Newton's method for the stationary point, then a climb bounded by the
    bound's top grid point m, on every call."""
    upper = min(cfg.eps_max, upper)
    if upper <= 0:
        return None
    step = cfg.grid_step
    m = min(int(math.floor(upper / step + 1e-9)), cfg.grid_points)
    if m >= 1 and m * step > upper:
        m -= 1
    best, best_score = None, -math.inf
    if m >= 1:
        k, best_score = climb_argmax(cfg, m, sensitivity)
        best = k * step
    if m == 0 or upper > m * step + 1e-9:
        if objective(upper, sensitivity, 0.0, 0.0, cfg) > best_score:
            best = upper
    return best


def climb_argmax(cfg, m, sensitivity):
    step = cfg.grid_step
    l1, l2, _, _, l5 = cfg.lambdas
    a, c = 1.7 * l2 * 1.8 * sensitivity, 0.15 * l5
    if l1 <= 0:
        root = 0.0
    else:
        root = min((l1 / a) ** (1 / 1.2) if a > 0 else math.inf,
                   (l1 / c) ** 2 if c > 0 else math.inf)
        while root < math.inf:
            p, q = a * root**1.2, c * math.sqrt(root)
            newton = (p + q - l1) / (1.2 * p + 0.5 * q)
            root *= math.exp(-newton)
            if newton <= 1e-12:
                break

    def score(k):
        return objective(k * step, sensitivity, 0.0, 0.0, cfg)

    k = round(min(m, max(1, root / step)))
    here = score(k)
    while k > 1 and (left := score(k - 1)) >= here:
        k, here = k - 1, left
    while k < m and (right := score(k + 1)) > here:
        k, here = k + 1, right
    return k, here


PEAK_CONFIGS = [
    ENGINE,
    EngineConfig(grid_step=0.05, eps_max=2.0),
    EngineConfig(lambdas=(2.5, 0.3, 0.0, 0.0, 0.7), eps_max=7.3, grid_step=0.01),
    EngineConfig(lambdas=(1.0, 0.0, 1.0, 0.8, 1.0), grid_step=0.02, eps_max=3.0),
    EngineConfig(lambdas=(0.4, 2.0, 1.0, 0.8, 0.0), grid_step=0.25, eps_max=6.0),
]


@pytest.mark.parametrize("cfg", PEAK_CONFIGS, ids=lambda cfg: f"{cfg.grid_points}-{cfg.lambdas}")
def test_optimize_equals_the_bounded_climb(cfg):
    """The grant from the per-sensitivity peak equals the climb bounded by
    each bound, fresh and from the memos, in value and in type: every bound
    of a grid of up to 600 points, on and between its points, and sampled
    bounds on a larger one; sensitivities of 0, of the catalog, with the
    stationary point past eps_max, and large enough that the risk term
    overflows."""
    rng = np.random.default_rng(7)
    step, m_max = cfg.grid_step, cfg.grid_points
    if m_max <= 600:
        ks = range(1, m_max + 1)
    else:
        ks = rng.integers(1, m_max + 1, 150).tolist()
    uppers = [cfg.eps_max + 0.5, float(math.ceil(cfg.eps_max)) + 1, -1.0, 0, 1, 2, 3]
    for k in ks:
        uppers += [k * step, k * step + step / 2, k * step - 1e-12]
    sensitivities = [0.0, *catalog_sensitivities(), 1e-7, 1e308]
    engine = NegotiationEngine(cfg)
    assert engine._stationary(1e-7) > cfg.eps_max
    assert 1.8 * 1e308 * step**1.7 == math.inf
    mismatches = []
    for s in sensitivities:
        expected = [climb_optimize(cfg, s, upper) for upper in uppers]
        for _ in range(2):  # the second pass reads the argmax memo
            for upper, want in zip(uppers, expected):
                got = engine.optimize(s, upper)
                if got != want or type(got) is not type(want):
                    mismatches.append((s, upper, got, want))
    # a fresh engine per call fills the peak memo from the bounded calls first
    for s in (0.0, 0.35, 1.2):
        for upper in uppers[:40]:
            got = NegotiationEngine(cfg).optimize(s, upper)
            if got != climb_optimize(cfg, s, upper):
                mismatches.append((s, upper, got))
    assert not mismatches


def test_peak_memo_stays_bounded():
    engine = NegotiationEngine(ENGINE)
    largest = 0
    for i in range(MEMO_LIMIT + 100):
        s = 0.05 + i * 1e-4
        assert engine.optimize(s, 2.0 + i * 1e-6) == climb_optimize(ENGINE, s, 2.0 + i * 1e-6)
        largest = max(largest, len(engine._peaks))
        assert len(engine._peaks) <= MEMO_LIMIT
    assert largest == MEMO_LIMIT
    # a bound that is new for a known sensitivity reads its peak
    engine._argmax_cache.clear()
    engine.optimize(0.05 + (MEMO_LIMIT + 99) * 1e-4, 3.5)
    assert len(engine._peaks) == 100


# --- effective sensitivity -------------------------------------------------

def test_effective_sensitivity_finest_resolution():
    req = validated([FeatureKind.LOAD_CURVE], ResolutionKind.MIN5)
    assert req.effective_sensitivity == pytest.approx(0.4)


def test_effective_sensitivity_daily():
    req = validated([FeatureKind.LOAD_CURVE], ResolutionKind.DAILY)
    assert req.effective_sensitivity == pytest.approx(0.12)


def test_effective_sensitivity_hourly_pair():
    req = validated([FeatureKind.LOCATION, FeatureKind.APPLIANCE_LEVEL], ResolutionKind.HOUR1)
    assert req.effective_sensitivity == pytest.approx(1.02)


# --- feasibility -----------------------------------------------------------

def decide(s_eff, h_remaining, eps_cap):
    """``_decide`` for a billing request with no counter-offer and no trust."""
    return engine_for(ENGINE)._decide(
        s_eff=s_eff, counter_s=None, trusted=False, h_remaining=h_remaining,
        eps_cap=eps_cap, purpose="billing", want_predicates=True,
    )


def test_feasibility_ok():
    label, eps_star, violated, predicates = decide(0.4, 8.0, 2.0)
    assert label is Decision.APPROVE and violated is None
    assert 0 < eps_star <= 2.0
    assert predicates[:2] == (True, True)


def test_feasibility_budget_exceeded():
    # a proposal above the remaining budget is capped to it
    label, eps_star, violated, predicates = decide(0.4, 8.0, 9.0)
    assert label is Decision.APPROVE and eps_star <= 8.0 and predicates[1]
    # with nothing left no positive grant fits
    label, eps_star, violated, predicates = decide(0.0, 0.0, None)
    assert (label, eps_star, violated) == (Decision.REJECT, None, BUDGET_EXCEEDED)
    assert predicates[:2] == (False, False)


def test_feasibility_below_minimum():
    label, eps_star, violated, predicates = decide(0.4, 8.0, 0.01)
    assert (label, eps_star, violated) == (Decision.REJECT, None, BELOW_MINIMUM)
    assert predicates[:2] == (False, True)


def test_eps_min_rules_override():
    cfg = EngineConfig(eps_min_rules=(EpsMinRule(band_max=1.0, purpose="profiling", value=0.5),))
    assert cfg.eps_min(0.8, "profiling") == 0.5
    assert cfg.eps_min(0.8, "billing") == cfg.eps_min_default
    assert cfg.eps_min(1.5, "profiling") == cfg.eps_min_default


# --- counter-offer pipeline ------------------------------------------------

def test_counter_load_curve_reaches_aggregate_daily():
    req = validated([FeatureKind.LOAD_CURVE], ResolutionKind.MIN5)
    result = derive_counter_offer(req, ENGINE)
    assert result is not None
    features, resolution, s_new = result
    assert s_new == pytest.approx(0.06)
    assert resolution == ResolutionKind.DAILY
    assert feature_multiset(features) == ("aggregate",)


def test_counter_floor_returns_none():
    req = validated([FeatureKind.AGGREGATE], ResolutionKind.DAILY)
    assert derive_counter_offer(req, ENGINE) is None


def test_counter_two_features():
    # coarsening runs first, so the pipeline lands on {aggregate, appliance}@daily
    req = validated([FeatureKind.LOCATION, FeatureKind.APPLIANCE_LEVEL], ResolutionKind.MIN5)
    result = derive_counter_offer(req, ENGINE)
    assert result is not None
    _, _, s_new = result
    assert s_new <= 0.25 * req.effective_sensitivity + 1e-12
    assert s_new == pytest.approx(0.27)


@given(
    features=st.lists(st.sampled_from(list(FeatureKind)), min_size=1, max_size=4),
    resolution=st.sampled_from(list(ResolutionKind)),
)
@settings(max_examples=100, deadline=None)
def test_counter_target_always_met(features, resolution):
    req = validated(features, resolution)
    result = derive_counter_offer(req, ENGINE)
    if result is not None:
        features, resolution, s_new = result
        assert s_new <= ENGINE.counter_factor * req.effective_sensitivity + 1e-9
        # the sensitivity is the one the reduced request validates to, to the bit
        reduced = dataclasses.replace(req.request, features=features, resolution=resolution)
        assert validate_request(reduced, CATALOG).effective_sensitivity.hex() == s_new.hex()


def reference_reduce_shape(catalog, features, resolution, factor):
    """The counter-offer search as one function with its price written inline
    and three test-and-return steps: the reference ``derive_counter_offer``
    must match to the bit."""
    order = (ResolutionKind.MIN5, ResolutionKind.MIN15, ResolutionKind.MIN30,
             ResolutionKind.HOUR1, ResolutionKind.DAILY)
    features = list(features)

    def current():
        total = 0
        for f in features:
            total += catalog.alphas[f]
        return catalog.attenuations[resolution] * total

    original = current()
    if original <= 0:
        return None
    target = factor * original

    for step in order[order.index(resolution):]:
        resolution = step
        if (s := current()) <= target + 1e-9:
            return tuple(features), resolution, s

    alphas = [catalog.alphas[f] for f in features]
    for i in sorted(range(len(features)), key=alphas.__getitem__, reverse=True):
        if features[i] is FeatureKind.AGGREGATE:
            continue
        features[i] = FeatureKind.AGGREGATE
        if (s := current()) <= target + 1e-9:
            return tuple(features), resolution, s

    while len(features) > 1:
        alphas = [catalog.alphas[f] for f in features]
        del features[alphas.index(max(alphas))]
        if (s := current()) <= target + 1e-9:
            return tuple(features), resolution, s

    return None


TIED_ALPHAS = {FeatureKind.LOCATION: 0.5, FeatureKind.APPLIANCE_LEVEL: 0.5,
               FeatureKind.LOAD_CURVE: 0.5, FeatureKind.AGGREGATE: 0.1}


# a free aggregate prices its shapes at 0, and a near-free location lets a
# shape meet its target at its own resolution
TINY_ALPHAS = {**TIED_ALPHAS, FeatureKind.LOCATION: 1e-10, FeatureKind.AGGREGATE: 0.0}


@pytest.mark.parametrize("alphas", [None, TIED_ALPHAS, TINY_ALPHAS],
                         ids=["shipped", "tied", "tiny"])
def test_counter_offer_matches_the_reference_search_on_every_small_shape(alphas):
    catalog = load_config().catalog
    if alphas is not None:
        catalog = dataclasses.replace(catalog, alphas=alphas)
    shapes = [s for n in range(1, 5) for s in itertools.product(FeatureKind, repeat=n)]
    assert len(shapes) * len(ResolutionKind) == 1700
    kinds = set()
    for factor in (0.05, 0.25, 0.5, 0.9):
        engine = EngineConfig(counter_factor=factor)
        for features in shapes:
            for resolution in ResolutionKind:
                request = ContractRequest("r", "o", features, 24, resolution, PurposeKind.BILLING)
                got = derive_counter_offer(validate_request(request, catalog), engine)
                want = reference_reduce_shape(catalog, features, resolution, factor)
                assert got == want, (features, resolution, factor)
                if got is None:
                    kinds.add("none")
                    continue
                assert got[2].hex() == want[2].hex()
                kinds.add("as asked" if got[:2] == (features, resolution)
                          else "coarsened" if got[0] == features
                          else "swapped" if len(got[0]) == len(features) else "dropped")
    if alphas is TINY_ALPHAS:
        assert {"none", "as asked"} <= kinds
    else:
        assert kinds == {"none", "coarsened", "swapped", "dropped"}


# --- counter-offer memo on the catalog -----------------------------------------

def test_counter_memo_repeats_and_matches_fresh_validation():
    req = validated([FeatureKind.LOCATION, FeatureKind.LOAD_CURVE], ResolutionKind.MIN5)
    first = derive_counter_offer(req, ENGINE)
    assert derive_counter_offer(req, ENGINE) is first
    fresh = validate_request(req.request, CATALOG)
    assert derive_counter_offer(fresh, ENGINE) == first


def test_counter_memo_floor_none_is_remembered():
    req = validated([FeatureKind.AGGREGATE], ResolutionKind.DAILY)
    assert derive_counter_offer(req, ENGINE) is None
    key = (req.request.features, req.request.resolution, ENGINE.counter_factor)
    assert key in CATALOG._reductions and CATALOG._reductions[key] is None
    assert derive_counter_offer(req, ENGINE) is None


def test_counter_memo_does_not_leak_between_requests():
    # one shape, so the second request reuses the catalog's reduction
    cfg = EngineConfig(safety_mode="staged")
    ledger = BudgetLedger(h_max=1.0)
    outcomes = []
    for requester, owner, proposed, window, mode in (
        ("alice", "o1", 2.0, 24, RequestMode.ONE_SHOT),
        ("bob", "o2", 3.0, 48, RequestMode.PERIODIC),
    ):
        req = validate_request(
            ContractRequest(
                requester_id=requester,
                owner_id=owner,
                features=(FeatureKind.LOAD_CURVE,),
                window_hours=window,
                resolution=ResolutionKind.MIN15,
                purpose=PurposeKind.BILLING,
                proposed_epsilon=proposed,
                max_noise=window / 10,
                mode=mode,
            ),
            CATALOG,
        )
        outcomes.append(negotiate(req, ledger, 0.3, cfg))
        got = outcomes[-1].modified_request
        assert (got.requester_id, got.owner_id, got.proposed_epsilon) == (requester, owner, proposed)
        assert (got.window_hours, got.max_noise, got.mode) == (window, window / 10, mode)
    assert [o.decision for o in outcomes] == [Decision.COUNTER_OFFER] * 2
    assert [o.modified_request.requester_id for o in outcomes] == ["alice", "bob"]
    assert [o.modified_request.owner_id for o in outcomes] == ["o1", "o2"]
    assert [o.modified_request.proposed_epsilon for o in outcomes] == [2.0, 3.0]


def test_counter_memo_keyed_by_counter_factor():
    req = validated([FeatureKind.LOCATION, FeatureKind.APPLIANCE_LEVEL], ResolutionKind.MIN5)
    loose = EngineConfig(counter_factor=0.9)
    tight = derive_counter_offer(req, ENGINE)
    relaxed = derive_counter_offer(req, loose)
    shape = (req.request.features, req.request.resolution)
    assert {(*shape, ENGINE.counter_factor), (*shape, 0.9)} <= set(CATALOG._reductions)
    assert relaxed != tight
    assert relaxed == derive_counter_offer(validate_request(req.request, CATALOG), loose)
    assert derive_counter_offer(req, ENGINE) is tight


def test_catalog_memos_stay_bounded():
    catalog = dataclasses.replace(CATALOG)
    shapes = [
        features
        for n in range(1, 7)
        for features in itertools.product(list(FeatureKind), repeat=n)
    ]
    assert len(shapes) > MEMO_LIMIT
    for features in shapes:
        req = validate_request(
            ContractRequest("r", "o", features, 24, ResolutionKind.MIN5, PurposeKind.BILLING),
            catalog,
        )
        last = derive_counter_offer(req, ENGINE)
        assert len(catalog._reductions) <= MEMO_LIMIT
    fresh = validate_request(req.request, CATALOG)
    assert derive_counter_offer(fresh, ENGINE) == last


def test_validation_idempotent_after_negotiating():
    req = validated([FeatureKind.LOAD_CURVE], ResolutionKind.MIN15)
    blank = validate_request(req.request, CATALOG)
    negotiate(req, BudgetLedger(h_max=1.0), 0.3, ENGINE)
    assert req == blank == validate_request(req, CATALOG)
    assert repr(req) == repr(blank)


def test_probe_unchanged_by_memo():
    requests = [
        validated([FeatureKind.LOAD_CURVE], ResolutionKind.MIN5),
        validated([FeatureKind.LOCATION, FeatureKind.APPLIANCE_LEVEL], ResolutionKind.MIN15),
        validated([FeatureKind.AGGREGATE], ResolutionKind.DAILY),
    ]
    cases = [
        ReplayCase(request=req, h_remaining=h, trust=t)
        for req in requests
        for h in (0.3, 1.59, 4.0)
        for t in (0.2, 0.85)
    ]

    def fresh(cases):
        return [
            dataclasses.replace(c, request=validate_request(c.request.request, CATALOG))
            for c in cases
        ]

    reference = robustness_probe(fresh(cases), 0.3, 5, seed=7, engine_cfg=ENGINE)
    assert reference.flips > 0
    for req in requests:
        derive_counter_offer(req, EngineConfig(counter_factor=0.5))
    for _ in range(2):
        assert robustness_probe(cases, 0.3, 5, seed=7, engine_cfg=ENGINE) == reference


# --- negotiate -------------------------------------------------------------

def test_negotiate_budget_clamped_approval():
    # low-sensitivity aggregate request against a nearly spent owner:
    # the unconstrained optimum exceeds the remaining 1.5, so the grant
    # clamps to the full remaining budget exactly
    req = validated([FeatureKind.AGGREGATE], ResolutionKind.HOUR1)
    ledger = BudgetLedger(h_max=1.5)
    outcome = negotiate(req, ledger, 0.9, ENGINE)
    assert outcome.decision is Decision.APPROVE
    assert outcome.epsilon_star == pytest.approx(1.5)


def test_negotiate_safety_rejection_at_low_budget():
    req = validated([FeatureKind.AGGREGATE], ResolutionKind.HOUR1)
    ledger = BudgetLedger(h_max=0.3)
    outcome = negotiate(req, ledger, 0.9, ENGINE)
    assert outcome.decision is Decision.REJECT
    assert outcome.violated == SAFETY_CONDITION


def test_negotiate_zero_sensitivity_takes_whole_budget():
    free = dataclasses.replace(CATALOG, alphas={**CATALOG.alphas, FeatureKind.AGGREGATE: 0.0})
    req = validate_request(validated([FeatureKind.AGGREGATE], ResolutionKind.MIN5), free)
    assert free.price(req.request.features, ResolutionKind.MIN5) == req.effective_sensitivity == 0.0
    outcome = negotiate(req, BudgetLedger(h_max=8.0), 0.5, ENGINE)
    assert outcome.decision is Decision.APPROVE
    assert outcome.epsilon_star == pytest.approx(8.0)


def test_negotiate_is_pure():
    req = validated([FeatureKind.LOAD_CURVE], ResolutionKind.MIN15)
    ledger = BudgetLedger(h_max=5.0)
    first = negotiate(req, ledger, 0.7, ENGINE)
    second = negotiate(req, ledger, 0.7, ENGINE)
    assert first == second
    assert ledger.h_remaining == 5.0


def test_negotiate_staged_trusted_minimal_path():
    cfg = EngineConfig(safety_mode="staged")
    req = validated([FeatureKind.AGGREGATE], ResolutionKind.DAILY)
    ledger = BudgetLedger(h_max=0.2)  # below 4*S for stage 1, no counter available
    trusted = negotiate(req, ledger, 0.9, cfg)
    assert trusted.decision is Decision.APPROVE
    assert trusted.epsilon_star == pytest.approx(cfg.eps_min_default)
    untrusted = negotiate(req, ledger, 0.3, cfg)
    assert untrusted.decision is Decision.REJECT


def test_negotiate_staged_counter_path():
    cfg = EngineConfig(safety_mode="staged")
    req = validated([FeatureKind.LOAD_CURVE], ResolutionKind.MIN15)  # S_eff 0.36
    ledger = BudgetLedger(h_max=1.0)  # 1.0 < 4*0.36 so stage 1 fails
    outcome = negotiate(req, ledger, 0.3, cfg)
    assert outcome.decision is Decision.COUNTER_OFFER
    assert outcome.modified_request is not None
    assert outcome.epsilon_star >= cfg.eps_min_default


def test_negotiate_caps_grant_at_proposal():
    req = validated([FeatureKind.AGGREGATE], ResolutionKind.HOUR1, proposed=0.12)
    outcome = negotiate(req, BudgetLedger(h_max=8.0), 0.5, ENGINE)
    assert outcome.decision is Decision.APPROVE
    assert outcome.epsilon_star == pytest.approx(0.12)


def reference_decision(cfg, s_eff, counter_s, trusted, h, cap, purpose):
    """The decision rule written out once more, over scalars, as a reference:
    the counter-offer's sensitivity is known before deciding, then the
    upfront safety check, approval as asked, the counter-offer and the
    trusted-minimal approval run in that order. Only ``optimize`` is shared
    with the engine. Returns (decision, eps_star, violated, predicates)."""
    tol = 1e-9
    optimize = NegotiationEngine(cfg).optimize
    upper = h if cap is None else min(h, cap)
    eps_min = cfg.eps_min(s_eff, purpose)
    safety_ok = h >= cfg.safety_factor * s_eff
    eps1 = optimize(s_eff, upper)
    predicates = (
        eps1 is not None and eps1 >= eps_min - tol,
        eps1 is not None and eps1 <= h + tol,
        safety_ok,
        counter_s is not None and counter_s <= cfg.counter_factor * s_eff + tol,
    )
    if cfg.safety_mode == "upfront" and not safety_ok:
        return Decision.REJECT, None, SAFETY_CONDITION, predicates
    if not safety_ok:
        violated = SAFETY_CONDITION
    elif eps1 is None:
        violated = BUDGET_EXCEEDED
    elif eps1 < eps_min - tol:
        violated = BELOW_MINIMUM
    else:
        return Decision.APPROVE, eps1, None, predicates
    if counter_s is not None and (
        cfg.safety_mode == "upfront" or h >= cfg.safety_factor * counter_s
    ):
        eps2 = optimize(counter_s, upper)
        if eps2 is None:
            violated = BUDGET_EXCEEDED
        elif eps2 < cfg.eps_min(counter_s, purpose) - tol:
            violated = BELOW_MINIMUM
        else:
            return Decision.COUNTER_OFFER, eps2, None, predicates
    if (
        trusted
        and s_eff <= cfg.trusted_max_sensitivity
        and eps_min <= h + tol
        and (cap is None or cap >= eps_min - tol)
    ):
        return Decision.APPROVE, eps_min, None, predicates
    return Decision.REJECT, None, violated, predicates


def reference_negotiate(req, ledger, trust, cfg):
    """(decision, eps_star, modified request, violated) and the predicates
    of ``reference_decision`` for one request."""
    shape = derive_counter_offer(req, cfg)
    label, eps_star, violated, predicates = reference_decision(
        cfg, req.effective_sensitivity, None if shape is None else shape[2],
        trust >= cfg.trusted_min_trust, ledger.h_remaining,
        req.request.proposed_epsilon, req.request.purpose.value,
    )
    modified = None
    if label is Decision.COUNTER_OFFER:
        modified = dataclasses.replace(req.request, features=shape[0], resolution=shape[1])
    return (label, eps_star, modified, violated), predicates


def counting_derivations(mp):
    """Count ``derive_counter_offer`` calls made through the engine."""
    calls = []
    real = negotiation_module.derive_counter_offer

    def counted(req, cfg):
        calls.append(req)
        return real(req, cfg)

    mp.setattr(negotiation_module, "derive_counter_offer", counted)
    return calls


# both safety modes, an on- and an off-grid step, two counter factors
ORACLE_ENGINES = [
    EngineConfig(safety_mode=mode, grid_step=step, counter_factor=factor)
    for mode in ("upfront", "staged")
    for step in (1e-3, 0.3)
    for factor in (0.25, 0.6)
]
_AT = EngineConfig().trusted_min_trust


@given(
    features=st.lists(st.sampled_from(list(FeatureKind)), min_size=1, max_size=4),
    resolution=st.sampled_from(list(ResolutionKind)),
    purpose=st.sampled_from(sorted(CATALOG.purpose_scores, key=lambda p: p.value)),
    trust=st.floats(min_value=0, max_value=1) | st.sampled_from([_AT, math.nextafter(_AT, 0.0)]),
    h=st.floats(min_value=0.01, max_value=10) | st.integers(min_value=1, max_value=10),
    spent=st.none() | st.floats(min_value=0.001, max_value=0.999),
    cap=st.none() | st.floats(min_value=0.01, max_value=5) | st.integers(min_value=1, max_value=5),
    which=st.sampled_from(range(len(ORACLE_ENGINES))),
)
@settings(max_examples=400, deadline=None)
def test_engine_decides_as_the_reference(
    features, resolution, purpose, trust, h, spent, cap, which
):
    """``negotiate``, called twice, and ``_decide`` with predicates decide as
    the reference does; each call derives the counter-offer exactly once, and
    a counter-offer's request validates to the sensitivity it was derived at."""
    cfg = ORACLE_ENGINES[which]
    req = validated(features, resolution, purpose, proposed=cap)
    ledger = BudgetLedger(h_max=h)
    if spent is not None:
        ledger.settle("c0", spent * h)
    want, want_predicates = reference_negotiate(
        validate_request(req.request, CATALOG), ledger, trust, cfg)
    engine = NegotiationEngine(cfg)
    with pytest.MonkeyPatch.context() as mp:
        calls = counting_derivations(mp)
        fresh = engine.negotiate(req, ledger, trust)
        assert calls == [req]
        again = engine.negotiate(req, ledger, trust)
        assert calls == [req, req]
    for got in (fresh, again):
        # repr also compares the grant's type
        assert repr((got.decision, got.epsilon_star, got.modified_request, got.violated)) == repr(
            want)
    shape = derive_counter_offer(req, cfg)
    if fresh.decision is Decision.COUNTER_OFFER:
        assert validate_request(fresh.modified_request, CATALOG).effective_sensitivity == shape[2]

    label, eps_star, violated, predicates = engine._decide(
        req.effective_sensitivity, None if shape is None else shape[2],
        trust >= cfg.trusted_min_trust, ledger.h_remaining, cap, purpose.value,
        want_predicates=True,
    )
    assert repr((label, eps_star, violated, predicates)) == repr(
        (want[0], want[1], want[3], want_predicates))


@given(
    trust_low=st.floats(min_value=0, max_value=1),
    bump=st.floats(min_value=0, max_value=1),
    h=st.floats(min_value=0.05, max_value=10),
    features=st.lists(st.sampled_from(list(FeatureKind)), min_size=1, max_size=3),
    resolution=st.sampled_from(list(ResolutionKind)),
    mode=st.sampled_from(["upfront", "staged"]),
)
@settings(max_examples=80, deadline=None)
def test_monotone_generosity(trust_low, bump, h, features, resolution, mode):
    # a request approved at trust T is never rejected at higher trust
    cfg = EngineConfig(safety_mode=mode)
    req = validated(features, resolution)
    ledger = BudgetLedger(h_max=h)
    low = negotiate(req, ledger, trust_low, cfg)
    high = negotiate(req, ledger, min(1.0, trust_low + bump), cfg)
    if low.decision is Decision.APPROVE:
        assert high.decision is Decision.APPROVE


# --- settle / budget ledger ------------------------------------------------

def test_settle_subtracts():
    ledger = BudgetLedger(h_max=8.0)
    ledger.settle("c1", 2.0)
    assert ledger.h_remaining == pytest.approx(6.0)


def test_settle_guards_overdraft():
    ledger = BudgetLedger(h_max=0.05)
    with pytest.raises(BudgetOverdraft):
        ledger.settle("c1", 0.10)


def test_eighty_grants_exhaust_then_fail():
    ledger = BudgetLedger(h_max=8.0)
    for i in range(80):
        ledger.settle(f"c{i}", 0.10)
    assert ledger.h_remaining == 0.0
    assert ledger.exhausted
    with pytest.raises(BudgetOverdraft):
        ledger.settle("c80", 0.10)


@given(st.lists(st.floats(min_value=0.01, max_value=3.0), max_size=30))
@settings(max_examples=60, deadline=None)
def test_budget_safety_over_any_sequence(grants):
    ledger = BudgetLedger(h_max=8.0)
    for i, eps in enumerate(grants):
        if eps <= ledger.h_remaining + 1e-9:
            ledger.settle(f"c{i}", eps)
        else:
            with pytest.raises(BudgetOverdraft):
                ledger.settle(f"c{i}", eps)
        assert ledger.h_remaining >= 0.0
        assert ledger.spent <= ledger.h_max + 1e-9


@pytest.mark.parametrize("h_max", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_ledger_rejects_a_budget_that_is_not_positive_and_finite(h_max):
    with pytest.raises(ValueError):
        BudgetLedger(h_max=h_max)


@pytest.mark.parametrize("eps", [-5.0, 0.0, math.inf, -math.inf, math.nan])
def test_ledger_rejects_a_grant_that_is_not_positive_and_finite(eps):
    # a negative grant would add budget: 4.0 - (-5.0) left 9.0 to spend
    with pytest.raises(NonPositiveEpsilon):
        BudgetLedger(h_max=4.0, granted=[("x", eps)])
    ledger = BudgetLedger(h_max=4.0)
    with pytest.raises(NonPositiveEpsilon):
        ledger.settle("x", eps)
    assert ledger.granted == [] and ledger.spent == 0.0 and ledger.h_remaining == 4.0


def test_ledger_spent_is_summed_left_to_right():
    # twenty grants of 0.02 come to 0.4000000000000001 added one by one, as
    # settle adds them; Python 3.12's compensated sum() would give 0.4
    grants = [(f"c{i}", 0.02) for i in range(20)]
    settled = BudgetLedger(h_max=8.0)
    for contract_id, eps in grants:
        settled.settle(contract_id, eps)
    assert BudgetLedger(h_max=8.0, granted=grants).spent.hex() == "0x1.999999999999bp-2"
    assert settled.spent.hex() == "0x1.999999999999bp-2"


# --- shared outcomes and the engine lookup -------------------------------------

@given(
    features=st.lists(st.sampled_from(list(FeatureKind)), min_size=1, max_size=3),
    resolution=st.sampled_from(list(ResolutionKind)),
    h=st.sampled_from([0.2, 0.5, 1.0, 1.5, 3.0, 8.0]),
    trust=st.sampled_from([0.3, 0.9]),
    proposed=st.sampled_from([None, 0.12, 0.7, 2.0]),
    mode=st.sampled_from(["upfront", "staged"]),
)
@settings(max_examples=150, deadline=None)
def test_shared_outcomes_equal_freshly_built_ones(features, resolution, h, trust, proposed, mode):
    cfg = EngineConfig(safety_mode=mode)
    req = validated(features, resolution, proposed=proposed)
    ledger = BudgetLedger(h_max=h)
    shared = negotiate(req, ledger, trust, cfg)  # the engine_for engine, its memos warm
    fresh = NegotiationEngine(cfg).negotiate(req, ledger, trust)
    assert shared == fresh
    assert repr(shared) == repr(fresh)  # same field types too
    assert shared.to_dict() == fresh.to_dict()


def test_approvals_are_not_shared_between_engines():
    other = dataclasses.replace(ENGINE, trusted_min_trust=0.95)
    req = validated([FeatureKind.AGGREGATE], ResolutionKind.HOUR1)
    ledger = BudgetLedger(h_max=1.5)
    mine = negotiate(req, ledger, 0.9, ENGINE)
    theirs = negotiate(req, ledger, 0.9, other)
    assert mine.decision is Decision.APPROVE
    assert mine == theirs and mine is not theirs


def test_grant_keeps_its_type_through_repeated_negotiation():
    # off-grid caps make the interval endpoint the grant, in the cap's own
    # type: an int grant must not come back as an equal float one, first or
    # from the engine's warm argmax memo
    engine = NegotiationEngine(EngineConfig(grid_step=0.3))
    ledger = BudgetLedger(h_max=8.0)
    float_req = validated([FeatureKind.AGGREGATE], ResolutionKind.HOUR1, proposed=2.0)
    int_req = validated([FeatureKind.AGGREGATE], ResolutionKind.DAILY, proposed=2)
    for _ in range(2):
        as_float = engine.negotiate(float_req, ledger, 0.5)
        as_int = engine.negotiate(int_req, ledger, 0.5)
        assert as_float.decision is as_int.decision is Decision.APPROVE
        assert type(as_float.epsilon_star) is float and as_float.epsilon_star == 2.0
        assert type(as_int.epsilon_star) is int and as_int.epsilon_star == 2


def test_argmax_memo_stays_bounded():
    engine = NegotiationEngine(ENGINE)
    keys = [(0.05 + i * 1e-4, 8.0 - i * 1e-4) for i in range(MEMO_LIMIT + 100)]
    results = {}
    largest = 0
    for s, upper in keys:
        results[s, upper] = engine.optimize(s, upper)
        assert results[s, upper] == NegotiationEngine(ENGINE).optimize(s, upper)
        largest = max(largest, len(engine._argmax_cache))
        assert len(engine._argmax_cache) <= MEMO_LIMIT
    assert largest == MEMO_LIMIT
    # after the clear, memoized and recomputed keys alike give the same grant
    for (s, upper), grant in results.items():
        assert engine.optimize(s, upper) == grant


def test_engine_for_alternating_configs():
    upfront, staged = EngineConfig(), EngineConfig(safety_mode="staged")
    upfront_copy = dataclasses.replace(upfront)
    first_upfront, first_staged = engine_for(upfront), engine_for(staged)
    assert first_upfront.cfg == upfront and first_staged.cfg == staged
    assert first_upfront is not first_staged
    # a request only the staged engine approves (its trusted-minimal path)
    req = validated([FeatureKind.AGGREGATE], ResolutionKind.DAILY)
    ledger = BudgetLedger(h_max=0.2)
    for _ in range(3):
        assert engine_for(upfront) is first_upfront
        assert engine_for(staged) is first_staged
        assert engine_for(upfront_copy) is first_upfront
        assert negotiate(req, ledger, 0.9, upfront).decision is Decision.REJECT
        assert negotiate(req, ledger, 0.9, staged).decision is Decision.APPROVE
        assert negotiate(req, ledger, 0.9, upfront_copy).decision is Decision.REJECT


# --- negotiate keeps no state between calls ------------------------------------

# (features, resolution, proposed_epsilon): approvals as asked, clamped at an
# int or a float cap, a staged counter-offer (LOAD_CURVE at MIN15 under a
# budget of 1.0), a trusted-minimal approval (AGGREGATE at DAILY under 0.2)
# and rejections
HISTORY_BUNDLES = [
    ((FeatureKind.AGGREGATE,), ResolutionKind.HOUR1, None),
    ((FeatureKind.AGGREGATE,), ResolutionKind.HOUR1, 2),
    ((FeatureKind.AGGREGATE,), ResolutionKind.HOUR1, 2.0),
    ((FeatureKind.LOAD_CURVE,), ResolutionKind.MIN15, None),
    ((FeatureKind.AGGREGATE,), ResolutionKind.DAILY, None),
    ((FeatureKind.LOCATION, FeatureKind.APPLIANCE_LEVEL), ResolutionKind.MIN5, 0.7),
]
# an off-grid step makes the interval's end, and so the cap's type, the grant
HISTORY_ENGINES = [
    NegotiationEngine(EngineConfig(safety_mode=mode, grid_step=step))
    for mode in ("upfront", "staged")
    for step in (1e-3, 0.3)
]
# int, float and numpy budgets of one value
HISTORY_BUDGETS = [0.2, 1, 1.0, np.float64(1.0), 1.59, 8.0]
_TRUSTED = ENGINE.trusted_min_trust
HISTORY_TRUSTS = [0.0, 0.3, math.nextafter(_TRUSTED, 0.0), _TRUSTED, 0.95]


@given(
    # a few (bundle, budget) pairs, each negotiated again and again under
    # any engine and trust
    pairs=st.lists(
        st.tuples(st.sampled_from(range(len(HISTORY_BUNDLES))), st.sampled_from(HISTORY_BUDGETS)),
        min_size=1, max_size=3,
    ),
    steps=st.lists(
        st.tuples(
            st.integers(0, 2),
            st.sampled_from(range(len(HISTORY_ENGINES))),
            st.sampled_from(HISTORY_TRUSTS),
        ),
        min_size=1, max_size=30,
    ),
)
@settings(max_examples=200, deadline=None)
def test_negotiate_is_independent_of_history(pairs, steps):
    # shared requests and engines, negotiated in any order, decide each call
    # as a fresh request does
    requests = [validated(f, r, proposed=p) for f, r, p in HISTORY_BUNDLES]
    for pair, engine, trust in steps:
        bundle, h = pairs[pair % len(pairs)]
        req, engine = requests[bundle], HISTORY_ENGINES[engine]
        ledger = BudgetLedger(h_max=h)
        got = engine.negotiate(req, ledger, trust)
        want = engine.negotiate(validate_request(req.request, CATALOG), ledger, trust)
        assert got == want
        assert type(got.epsilon_star) is type(want.epsilon_star)


def test_history_sequences_reach_every_path():
    # the property above draws from inputs that reach every decision path,
    # both trust classes and both grant types
    seen = set()
    for (f, r, p), engine, h, trust in itertools.product(
        HISTORY_BUNDLES, HISTORY_ENGINES, HISTORY_BUDGETS, HISTORY_TRUSTS
    ):
        outcome = engine.negotiate(validated(f, r, proposed=p), BudgetLedger(h_max=h), trust)
        seen.add((outcome.decision, type(outcome.epsilon_star)))
    assert seen == {
        (Decision.APPROVE, float), (Decision.APPROVE, int),
        (Decision.COUNTER_OFFER, float), (Decision.REJECT, type(None)),
    }
    req = validated([FeatureKind.AGGREGATE], ResolutionKind.DAILY)
    staged = NegotiationEngine(EngineConfig(safety_mode="staged"))
    at, below = HISTORY_TRUSTS[3], HISTORY_TRUSTS[2]
    assert staged.negotiate(req, BudgetLedger(h_max=0.2), at).decision is Decision.APPROVE
    assert staged.negotiate(req, BudgetLedger(h_max=0.2), below).decision is Decision.REJECT


# a floor out of reach above sensitivity 0.1 turns an upfront approval as
# asked into a counter-offer
_FLOORED = dict(eps_min_default=5.0, eps_min_rules=(EpsMinRule(0.1, "*", 0.05),))


def test_negotiating_leaves_the_request_as_it_was():
    # a validated request is a plain value: no decision, on any path, in
    # either safety mode, writes to it
    seen = set()
    for (f, r, p), mode, floored, h, trust in itertools.product(
        HISTORY_BUNDLES, ("upfront", "staged"), (False, True), (0.2, 1.0, 8.0), (0.3, 0.95)
    ):
        engine = NegotiationEngine(EngineConfig(safety_mode=mode, **(_FLOORED if floored else {})))
        req = validated(f, r, proposed=p)
        before = copy.deepcopy(vars(req))
        outcome = engine.negotiate(req, BudgetLedger(h_max=h), trust)
        assert vars(req) == before
        seen.add((mode, outcome.decision))
    assert seen == set(itertools.product(("upfront", "staged"), Decision))


def test_ledger_keeps_plain_floats():
    ledger = BudgetLedger(h_max=np.float64(3.0))
    ledger.settle("c1", np.float64(0.5))
    assert type(ledger.h_max) is type(ledger.spent) is type(ledger.h_remaining) is float
    assert ledger.h_remaining == 2.5
    assert type(BudgetLedger(h_max=8).h_remaining) is float
