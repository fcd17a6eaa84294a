import numpy as np
import pytest

from dpnego.config import load_config
from dpnego.contracts import ContractRequest, FeatureKind, PurposeKind, ResolutionKind, validate_request
from dpnego.ingest import LoadSeries
from dpnego.negotiation import NonPositiveEpsilon
from dpnego.release import (
    ArityExceeded,
    DataGap,
    DpConfig,
    Mechanism,
    NonPositiveSensitivity,
    NonWhitelistedOp,
    QueryPlan,
    RuntimeBudgetExceeded,
    SanitizedOutput,
    ScopeViolation,
    TokenNotConsumed,
    UnnoisedOutput,
    compliance_check,
    dp_noise,
    execute_plan,
    gaussian_sigma,
    laplace_scale,
    run_release,
    sample_laplace,
    true_report_probability,
    validate_plan,
)
from dpnego.secretshare import ReleaseAuthority

CFG = load_config()
CATALOG = CFG.catalog


def contract(features=(FeatureKind.LOAD_CURVE,), window=24, resolution=ResolutionKind.HOUR1):
    return validate_request(
        ContractRequest(
            requester_id="r",
            owner_id="o",
            features=tuple(features),
            window_hours=window,
            resolution=resolution,
            purpose=PurposeKind.FORECASTING,
        ),
        CATALOG,
    )


def series(values, spacing=3600):
    values = np.asarray(values, dtype=np.float64)
    return LoadSeries(
        source_id="test",
        timestamps=np.arange(len(values), dtype=np.int64) * spacing,
        values=values,
        resolution={3600: ResolutionKind.HOUR1, 300: ResolutionKind.MIN5}[spacing],
    )


def mean_plan(ops=(
    {"op": "select", "features": ["load_curve"]},
    {"op": "window", "hours": 24},
    {"op": "aggregate", "fn": "mean"},
), output_arity=1):
    return QueryPlan(tuple(ops), delta=1.0, output_arity=output_arity)


def consumed_token(contract_id="c-1"):
    authority = ReleaseAuthority()
    shares = authority.enroll(contract_id, secret=99, k=3, n=5, seed=3)
    return authority.authorize_release(contract_id, list(shares[:3])).consume()


# --- validate_plan -----------------------------------------------------------

def test_in_scope_mean_plan_ok():
    validate_plan(mean_plan(), contract())


def test_scope_violation_on_uncontracted_feature():
    plan = mean_plan(ops=[
        {"op": "select", "features": ["location"]},
        {"op": "aggregate", "fn": "mean"},
    ])
    with pytest.raises(ScopeViolation):
        validate_plan(plan, contract())


def test_runtime_budget_enforced():
    ops = [{"op": "clip", "lo": 0, "hi": 1}] * 32 + [{"op": "aggregate", "fn": "mean"}]
    plan = mean_plan(ops=ops)
    with pytest.raises(RuntimeBudgetExceeded):
        validate_plan(plan, contract())
    validate_plan(plan, contract(), DpConfig(max_plan_steps=33))
    with pytest.raises(RuntimeBudgetExceeded):
        validate_plan(mean_plan(ops=ops[-2:]), contract(), DpConfig(max_plan_steps=1))


def test_non_whitelisted_op():
    plan = mean_plan(ops=[{"op": "exfiltrate"}, {"op": "aggregate", "fn": "mean"}])
    with pytest.raises(NonWhitelistedOp):
        validate_plan(plan, contract())


def test_window_beyond_contract_scope():
    plan = mean_plan(ops=[
        {"op": "window", "hours": 48},
        {"op": "aggregate", "fn": "mean"},
    ])
    with pytest.raises(ScopeViolation):
        validate_plan(plan, contract(window=24))


@pytest.mark.parametrize("offset", [-30, -1, 1.5, "6", None, float("nan")])
def test_window_offset_must_be_a_non_negative_int(offset):
    # a negative offset would slice from the end of the series: values[-30:-6]
    plan = mean_plan(ops=[
        {"op": "window", "hours": 24, "offset_hours": offset},
        {"op": "aggregate", "fn": "sum"},
    ])
    with pytest.raises(ScopeViolation, match="offset_hours"):
        validate_plan(plan, contract(window=24))


def test_window_offset_in_range_is_allowed():
    plan = mean_plan(ops=[
        {"op": "window", "hours": 24, "offset_hours": 24},
        {"op": "aggregate", "fn": "sum"},
    ])
    validate_plan(plan, contract(window=24))
    assert execute_plan(plan, series(np.arange(48.0))) == (float(sum(range(24, 48))),)


def test_resample_finer_than_contract_rejected():
    plan = mean_plan(ops=[
        {"op": "resample", "resolution": "min5"},
        {"op": "aggregate", "fn": "mean"},
    ])
    with pytest.raises(ScopeViolation):
        validate_plan(plan, contract(resolution=ResolutionKind.HOUR1))


@pytest.mark.parametrize("contracted", list(ResolutionKind))
@pytest.mark.parametrize("requested", list(ResolutionKind))
def test_resample_refuses_exactly_a_finer_resolution(requested, contracted):
    plan = mean_plan(ops=[
        {"op": "resample", "resolution": requested.value},
        {"op": "aggregate", "fn": "mean"},
    ])
    ladder = list(ResolutionKind)  # finest first
    if ladder.index(requested) < ladder.index(contracted):
        with pytest.raises(ScopeViolation, match="finer than contracted"):
            validate_plan(plan, contract(resolution=contracted))
    else:
        validate_plan(plan, contract(resolution=contracted))


MALFORMED_OPS = {
    "bool-hours": {"op": "window", "hours": True},
    "float-hours": {"op": "window", "hours": 24.0},
    "bool-offset": {"op": "window", "hours": 24, "offset_hours": True},
    "str-clip": {"op": "clip", "lo": "a", "hi": "b"},
    "bool-clip": {"op": "clip", "lo": False, "hi": True},
    "bool-lo": {"op": "clip", "lo": False, "hi": 4.0},
    "bool-hi": {"op": "clip", "lo": 0.0, "hi": True},
    "none-lo": {"op": "clip", "lo": None, "hi": 4.0},
    "nan-hi": {"op": "clip", "lo": 0.0, "hi": float("nan")},
    "inf-hi": {"op": "clip", "lo": 0.0, "hi": float("inf")},
    "tuple-clip": {"op": "clip", "lo": (0,), "hi": (1,)},
    "inverted-clip": {"op": "clip", "lo": 4.0, "hi": 0.0},
}


@pytest.mark.parametrize("op", MALFORMED_OPS.values(), ids=MALFORMED_OPS.keys())
def test_malformed_op_arguments_are_scope_violations(op):
    plan = mean_plan(ops=[op, {"op": "aggregate", "fn": "mean"}])
    with pytest.raises(ScopeViolation):
        validate_plan(plan, contract(window=24))


def test_an_int_window_and_a_numeric_clip_pass():
    plan = mean_plan(ops=[
        {"op": "window", "hours": 24, "offset_hours": 0},
        {"op": "clip", "lo": 0.0, "hi": 4.0},
        {"op": "clip", "lo": -1, "hi": 3},
        {"op": "aggregate", "fn": "mean"},
        {"op": "aggregate", "fn": "max"},
    ], output_arity=2)
    validate_plan(plan, contract(window=24))


def test_arity_over_cap():
    ops = [{"op": "aggregate", "fn": "mean"}] * 10
    plan = mean_plan(ops=ops, output_arity=10)
    with pytest.raises(ArityExceeded):
        validate_plan(plan, contract(), DpConfig(default_output_cap=4))


# --- execute_plan --------------------------------------------------------------

def test_sum_of_constant_series():
    plan = mean_plan(ops=[{"op": "aggregate", "fn": "sum"}])
    got = execute_plan(plan, series([3.0] * 10))
    assert got == (30.0,)


def test_clip_applies_before_aggregation():
    plan = mean_plan(ops=[
        {"op": "clip", "lo": 0.0, "hi": 1.0},
        {"op": "aggregate", "fn": "mean"},
    ])
    got = execute_plan(plan, series([2.0, 0.5, -1.0, 0.5]))
    assert got == (0.5,)


def test_window_beyond_data_is_a_gap():
    plan = mean_plan()
    with pytest.raises(DataGap):
        execute_plan(plan, series([1.0] * 10))  # 24h window, 10 samples


def test_resample_then_max():
    plan = mean_plan(ops=[
        {"op": "window", "hours": 2},
        {"op": "resample", "resolution": "hour1"},
        {"op": "aggregate", "fn": "max"},
    ])
    data = series([1.0] * 24, spacing=300)  # 2h at 5-minute spacing
    got = execute_plan(plan, data)
    assert got == (1.0,)


def test_count_aggregate():
    plan = mean_plan(ops=[{"op": "aggregate", "fn": "count"}])
    assert execute_plan(plan, series([1.0] * 7)) == (7.0,)


@pytest.mark.parametrize("days", [60, 600])
@pytest.mark.parametrize("hours", [1, 7, 168])
def test_clip_and_mean_are_the_bits_of_np_clip_mean(days, hours):
    # execute_plan clips with ndarray.clip and divides np.add.reduce by the
    # length, which is what np.clip and np.mean do; the output must not move
    # by one bit
    rng = np.random.default_rng([days, hours])
    data = series(rng.normal(1.5, 2.0, days * 24))
    lo, hi = 0.0, 4.0
    for offset in rng.integers(0, days * 24 - hours + 1, 25).tolist():
        plan = mean_plan(ops=[
            {"op": "window", "hours": hours, "offset_hours": offset},
            {"op": "clip", "lo": lo, "hi": hi},
            {"op": "aggregate", "fn": "mean"},
            {"op": "aggregate", "fn": "max"},
        ], output_arity=2)
        window = data.values[offset:offset + hours]
        mean, top = execute_plan(plan, data)
        assert mean.hex() == float(np.clip(window, lo, hi).mean()).hex()
        assert top.hex() == float(np.clip(window, lo, hi).max()).hex()


@pytest.mark.parametrize("mechanism", [Mechanism.LAPLACE, Mechanism.GAUSSIAN])
def test_dp_noise_adds_each_value_as_one_float_addition(mechanism):
    # the noise vector is added in one array operation; each output must be
    # the bits of the value plus its draw, for float and int values
    values = (0.1, 3, -2.5e-7, 1e15 + 1, 7)
    out = dp_noise(values, 0.7, 4.0, mechanism, 99, consumed_token())
    rng = np.random.default_rng(99)
    if mechanism is Mechanism.LAPLACE:
        noise = sample_laplace(rng, laplace_scale(4.0, 0.7), len(values))
    else:
        noise = rng.normal(0.0, gaussian_sigma(4.0, 0.7, CFG.dp.gaussian_delta), len(values))
    assert [v.hex() for v in out.values] == [float(v + e).hex() for v, e in zip(values, noise)]
    assert all(type(v) is float for v in out.values)


@pytest.mark.parametrize("seed", [0, 1, 99, 2**32 + 7, 2**40 + 3])
def test_dp_noise_draws_what_default_rng_draws(seed):
    # dp_noise builds its generator from PCG64 directly, without default_rng
    values = (1.0, 2.0, 3.0)
    out = dp_noise(values, 0.7, 4.0, Mechanism.LAPLACE, seed, consumed_token())
    noise = sample_laplace(np.random.default_rng(seed), laplace_scale(4.0, 0.7), len(values))
    assert [v.hex() for v in out.values] == [float(v + e).hex() for v, e in zip(values, noise)]


# --- noise mechanisms ---------------------------------------------------------

def test_laplace_scale_formula():
    assert laplace_scale(1.0, 1.0) == 1.0
    assert laplace_scale(2.0, 4.0) == 0.5


def test_doubling_epsilon_halves_scale():
    assert laplace_scale(1.0, 2.0) == laplace_scale(1.0, 1.0) / 2


def test_gaussian_sigma_formula():
    import math

    expected = 1.0 * math.sqrt(2 * math.log(1.25 / 1e-5)) / 1.0
    assert gaussian_sigma(1.0, 1.0, 1e-5) == pytest.approx(expected)


def test_seeded_laplace_golden_draw():
    rng = np.random.default_rng(12345)
    got = sample_laplace(rng, 1.0, 1)[0]
    assert got == pytest.approx(-0.7881789002823312, abs=1e-15)


def test_laplace_empirical_mad():
    rng = np.random.default_rng(777)
    samples = sample_laplace(rng, 1.0, 1_000_000)
    assert abs(np.abs(samples).mean() - 1.0) < 0.02


def test_randomized_rounding_limit():
    assert true_report_probability(50.0, 4) == pytest.approx(1.0, abs=1e-12)
    p = true_report_probability(1.0, 4)
    assert p == pytest.approx(0.4753668864186717, abs=1e-12)


def test_dp_noise_requires_consumed_token():
    authority = ReleaseAuthority()
    shares = authority.enroll("c-x", secret=1, k=2, n=3, seed=1)
    token = authority.authorize_release("c-x", list(shares[:2]))
    with pytest.raises(TokenNotConsumed):
        dp_noise([1.0], 1.0, 1.0, Mechanism.LAPLACE, seed=1, token=token)


def test_dp_noise_epsilon_and_sensitivity_guards():
    token = consumed_token()
    with pytest.raises(NonPositiveEpsilon):
        dp_noise([1.0], 0.0, 1.0, Mechanism.LAPLACE, seed=1, token=token)
    with pytest.raises(NonPositiveSensitivity):
        dp_noise([1.0], 1.0, 0.0, Mechanism.LAPLACE, seed=1, token=token)


NON_FINITE = pytest.mark.parametrize("bad", [float("inf"), float("nan")], ids=["inf", "nan"])
# Which argument gets the bad value, and what refusing it raises.
CALIBRATION = pytest.mark.parametrize("which", ["epsilon", "sensitivity"])
REFUSAL = {"epsilon": NonPositiveEpsilon, "sensitivity": NonPositiveSensitivity}


@NON_FINITE
@CALIBRATION
@pytest.mark.parametrize("mechanism", list(Mechanism), ids=[m.value for m in Mechanism])
def test_dp_noise_refuses_a_non_finite_epsilon_or_sensitivity(mechanism, which, bad):
    # an infinite epsilon would release the exact values, a NaN one NaN noise
    eps, delta_q = (bad, 20.0) if which == "epsilon" else (1.0, bad)
    with pytest.raises(REFUSAL[which]):
        dp_noise([120.0, 3.0], eps, delta_q, mechanism, seed=7, token=consumed_token(),
                 categories=200)


@NON_FINITE
@CALIBRATION
@pytest.mark.parametrize("calibrate", [laplace_scale, gaussian_sigma])
def test_noise_scales_refuse_a_non_finite_epsilon_or_sensitivity(calibrate, which, bad):
    with pytest.raises(REFUSAL[which]):
        calibrate(*((20.0, bad) if which == "epsilon" else (bad, 1.0)))


@NON_FINITE
def test_validate_plan_refuses_a_non_finite_sensitivity(bad):
    plan = mean_plan()
    with pytest.raises(NonPositiveSensitivity):
        validate_plan(QueryPlan(plan.ops, delta=bad, output_arity=plan.output_arity), contract())


def test_dp_noise_reproducible():
    token = consumed_token()
    a = dp_noise([1.0, 2.0], 1.0, 1.0, Mechanism.LAPLACE, seed=42, token=token)
    b = dp_noise([1.0, 2.0], 1.0, 1.0, Mechanism.LAPLACE, seed=42, token=token)
    assert a == b


def test_randomized_rounding_keeps_category_space():
    token = consumed_token()
    out = dp_noise([2], 1.0, 1.0, Mechanism.RANDOMIZED_ROUNDING, seed=5, token=token, categories=4)
    assert out.values[0] in (0, 1, 2, 3)


@pytest.mark.parametrize("values", [[2.6], [7], [-3], [4], [1, 2, 3, 4], [float("nan")],
                                    [float("inf")], [0.5, 1]])
def test_randomized_rounding_refuses_values_outside_the_categories(values):
    # a kept 7 or -3 would come out unchanged; 2.6 would be cast to 2
    with pytest.raises(ScopeViolation, match="categories"):
        dp_noise(values, 1.0, 1.0, Mechanism.RANDOMIZED_ROUNDING, seed=5,
                 token=consumed_token(), categories=4)


def test_randomized_rounding_takes_integral_floats():
    token = consumed_token()
    ints = dp_noise([0, 3, 1], 1.0, 1.0, Mechanism.RANDOMIZED_ROUNDING, seed=5, token=token,
                    categories=4)
    floats = dp_noise([0.0, 3.0, 1.0], 1.0, 1.0, Mechanism.RANDOMIZED_ROUNDING, seed=5,
                      token=token, categories=4)
    assert ints.values == floats.values
    assert all(type(v) is int and 0 <= v < 4 for v in ints.values)


# --- compliance -----------------------------------------------------------------

def test_compliance_ok():
    token = consumed_token()
    out = dp_noise([1.0], 1.0, 1.0, Mechanism.LAPLACE, seed=1, token=token)
    compliance_check(out, output_cap=4)


def test_compliance_rejects_unnoised():
    fake = SanitizedOutput(values=(1.0,), mechanism=Mechanism.LAPLACE, epsilon_charged=1.0, noise_trace="")
    with pytest.raises(UnnoisedOutput):
        compliance_check(fake, output_cap=4)


def test_compliance_rejects_over_arity():
    token = consumed_token()
    out = dp_noise(list(range(10)), 1.0, 1.0, Mechanism.LAPLACE, seed=1, token=token)
    with pytest.raises(ArityExceeded):
        compliance_check(out, output_cap=4)


# --- end to end ------------------------------------------------------------------

def test_sequential_composition_bounded_by_initial_budget():
    # negotiate -> settle -> authorize -> release, repeatedly against one
    # owner: the sum of charged epsilons never exceeds the initial budget
    from dpnego.negotiation import BudgetLedger, negotiate
    from dpnego.contracts import Decision

    ledger = BudgetLedger(h_max=8.0)
    authority = ReleaseAuthority()
    req = validate_request(
        ContractRequest(
            requester_id="r",
            owner_id="o",
            features=(FeatureKind.AGGREGATE,),
            window_hours=48,
            resolution=ResolutionKind.HOUR1,
            purpose=PurposeKind.BILLING,
            proposed_epsilon=0.9,
        ),
        CATALOG,
    )
    data = series([1.0] * 72)
    plan = mean_plan(ops=[
        {"op": "select", "features": ["aggregate"]},
        {"op": "window", "hours": 24},
        {"op": "aggregate", "fn": "mean"},
    ])
    charged = 0.0
    releases = 0
    for i in range(40):
        outcome = negotiate(req, ledger, 0.5, CFG.engine)
        if outcome.decision is not Decision.APPROVE:
            break
        cid = f"seq-{i}"
        ledger.settle(cid, outcome.epsilon_star)
        shares = authority.enroll(cid, secret=1000 + i, k=3, n=5, seed=i)
        token = authority.authorize_release(cid, list(shares[:3]))
        out = run_release(
            plan, data, req, eps_star=outcome.epsilon_star, token=token, seed=i
        )
        assert out.epsilon_charged == outcome.epsilon_star
        charged += out.epsilon_charged
        releases += 1
        assert ledger.h_remaining >= 0.0
    assert releases > 1
    assert charged <= 8.0 + 1e-9
    assert charged == pytest.approx(ledger.spent)


def test_run_release_refuses_a_gaussian_delta_that_gives_no_noise():
    # delta = 1.25 makes ln(1.25 / delta) = 0, so sigma = 0 and the Gaussian
    # release of a 24 h sum was its exact value
    authority = ReleaseAuthority()
    shares = authority.enroll("c-8", secret=4242, k=3, n=5, seed=8)
    token = authority.authorize_release("c-8", list(shares[:3]))
    plan = QueryPlan(mean_plan().ops[:2] + ({"op": "aggregate", "fn": "sum"},), delta=1.0,
                     output_arity=1, mechanism=Mechanism.GAUSSIAN)
    with pytest.raises(ValueError, match="gaussian_delta"):
        run_release(plan, series([1.0] * 48), contract(), eps_star=1.2, token=token, seed=5,
                    dp_cfg=DpConfig(gaussian_delta=1.25))


def test_run_release_end_to_end():
    authority = ReleaseAuthority()
    shares = authority.enroll("c-9", secret=31337, k=3, n=5, seed=9)
    token = authority.authorize_release("c-9", list(shares[:3]))
    out = run_release(
        mean_plan(),
        series([1.0] * 48),
        contract(),
        eps_star=1.2,
        token=token,
        seed=77,
    )
    assert out.epsilon_charged == 1.2
    assert out.mechanism is Mechanism.LAPLACE
    assert len(out.values) == 1
    assert out.noise_trace
    # same plan, data, seed: bit-identical output
    authority2 = ReleaseAuthority()
    shares2 = authority2.enroll("c-9", secret=31337, k=3, n=5, seed=9)
    token2 = authority2.authorize_release("c-9", list(shares2[:3]))
    again = run_release(
        mean_plan(), series([1.0] * 48), contract(), eps_star=1.2, token=token2, seed=77
    )
    assert again == out
