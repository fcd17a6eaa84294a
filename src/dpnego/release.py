"""The execution sandbox: declarative query plans validated against the
contract, deterministic evaluation, and calibrated DP noise injection."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .config import DpConfig
from .contracts import RESOLUTION_SECONDS, FeatureKind, ResolutionKind, ValidatedRequest, _is_number
from .ingest import LoadSeries
from .negotiation import NonPositiveEpsilon
from .secretshare import ReleaseToken


class ScopeViolation(ValueError):
    pass


class NonWhitelistedOp(ValueError):
    pass


class ArityExceeded(ValueError):
    pass


class RuntimeBudgetExceeded(ValueError):
    pass


class DataGap(ValueError):
    pass


class NonPositiveSensitivity(ValueError):
    pass


class UnnoisedOutput(ValueError):
    pass


class TokenNotConsumed(ValueError):
    pass


class Mechanism(Enum):
    LAPLACE = "laplace"
    GAUSSIAN = "gaussian"
    RANDOMIZED_ROUNDING = "randomized_rounding"


WHITELISTED_OPS = ("select", "window", "resample", "clip", "aggregate")
AGGREGATE_FNS = ("sum", "mean", "max", "count")


@dataclass(frozen=True)
class QueryPlan:
    """An ordered pipeline of whitelisted operations with a declared
    L1 sensitivity per output."""

    ops: tuple[dict, ...]
    delta: float
    output_arity: int
    mechanism: Mechanism = Mechanism.LAPLACE


def validate_plan(
    plan: QueryPlan,
    contract: ValidatedRequest,
    cfg: DpConfig = DpConfig(),
) -> None:
    """Static validation: every referenced feature, window, and resolution must
    sit inside the contract scope, every op must be whitelisted, the step
    count must fit ``cfg.max_plan_steps`` and the arity
    ``cfg.default_output_cap``."""
    cap, budget = cfg.default_output_cap, cfg.max_plan_steps
    if len(plan.ops) > budget:
        raise RuntimeBudgetExceeded(
            f"plan has {len(plan.ops)} steps, budget is {budget}"
        )
    if plan.output_arity < 1:
        raise ScopeViolation("output_arity must be >= 1")
    if plan.output_arity > cap:
        raise ArityExceeded(f"arity {plan.output_arity} exceeds cap {cap}")
    if not 0 < plan.delta < math.inf:
        raise NonPositiveSensitivity("declared sensitivity must be positive and finite")
    contracted_features = set(contract.request.features)
    aggregates = 0
    for op in plan.ops:
        name = op.get("op")
        if name not in WHITELISTED_OPS:
            raise NonWhitelistedOp(f"operation {name!r} is not whitelisted")
        if name == "select":
            try:
                asked = {FeatureKind(f) for f in op.get("features", [])}
            except ValueError as exc:
                raise ScopeViolation(str(exc)) from None
            if not asked <= contracted_features:
                raise ScopeViolation(
                    f"plan selects {sorted(f.value for f in asked - contracted_features)} "
                    "outside the contracted feature set"
                )
        elif name == "window":
            hours = op.get("hours")
            if type(hours) is not int or hours < 1:
                raise ScopeViolation("window hours must be a positive integer")
            if hours > contract.request.window_hours:
                raise ScopeViolation(
                    f"window {hours}h exceeds contracted {contract.request.window_hours}h"
                )
            offset = op.get("offset_hours", 0)
            if type(offset) is not int or offset < 0:
                raise ScopeViolation(
                    f"window offset_hours must be a non-negative integer, got {offset!r}"
                )
        elif name == "resample":
            try:
                res = ResolutionKind(op.get("resolution"))
            except ValueError:
                raise ScopeViolation(f"bad resolution {op.get('resolution')!r}") from None
            if RESOLUTION_SECONDS[res] < RESOLUTION_SECONDS[contract.request.resolution]:
                raise ScopeViolation(
                    f"resample to {res.value} is finer than contracted "
                    f"{contract.request.resolution.value}"
                )
        elif name == "clip":
            lo, hi = op.get("lo"), op.get("hi")
            if not (_is_number(lo) and _is_number(hi) and lo < hi):
                raise ScopeViolation(f"clip needs finite numbers lo < hi, got {lo!r}, {hi!r}")
        elif name == "aggregate":
            if op.get("fn") not in AGGREGATE_FNS:
                raise NonWhitelistedOp(f"aggregate fn {op.get('fn')!r} not whitelisted")
            aggregates += 1
    if aggregates != plan.output_arity:
        raise ScopeViolation(
            f"plan produces {aggregates} outputs but declares {plan.output_arity}"
        )


def execute_plan(plan: QueryPlan, data: LoadSeries) -> tuple[float, ...]:
    """Deterministically evaluate the pipeline over local data.

    Missing samples fail closed with DataGap rather than being imputed, since
    imputation would silently change the declared sensitivity.
    """
    values = data.values
    spacing = data.spacing_seconds
    outputs: list[float] = []
    for op in plan.ops:
        name = op["op"]
        if name == "select":
            continue
        if name == "window":
            hours = op["hours"]
            offset = op.get("offset_hours", 0)
            start = int(offset * 3600 // spacing)
            needed = int(hours * 3600 // spacing)
            if needed < 1:
                raise DataGap("window shorter than one sample")
            if start + needed > len(values):
                raise DataGap(
                    f"window needs {start + needed} samples, series has {len(values)}"
                )
            values = values[start : start + needed]
        elif name == "resample":
            target = RESOLUTION_SECONDS[ResolutionKind(op["resolution"])]
            factor = target // spacing
            if factor < 1 or target % spacing != 0:
                raise DataGap("resample target finer than data spacing")
            if len(values) % factor != 0:
                raise DataGap("window not divisible by resample factor")
            values = values.reshape(-1, factor).mean(axis=1)
            spacing = target
        elif name == "clip":
            values = values.clip(op["lo"], op["hi"])
        elif name == "aggregate":
            if len(values) == 0:
                raise DataGap("aggregate over empty window")
            fn = op["fn"]
            if fn == "sum":
                outputs.append(float(values.sum()))
            elif fn == "mean":
                # the reduction and division np.mean makes, without its wrappers
                outputs.append(float(np.add.reduce(values) / len(values)))
            elif fn == "max":
                outputs.append(float(values.max()))
            else:
                outputs.append(float(len(values)))
    return tuple(outputs)


@dataclass(frozen=True)
class SanitizedOutput:
    """The only thing allowed to leave the sandbox."""

    values: tuple[float | int, ...]
    mechanism: Mechanism
    epsilon_charged: float
    noise_trace: str


def _check_calibration(delta_q: float, eps: float) -> None:
    """Refuse an epsilon or a sensitivity that is not positive and finite: an
    infinite epsilon gives zero noise, and a NaN gives NaN noise."""
    if not 0 < eps < math.inf:
        raise NonPositiveEpsilon("epsilon must be positive and finite")
    if not 0 < delta_q < math.inf:
        raise NonPositiveSensitivity("sensitivity must be positive and finite")


def laplace_scale(delta_q: float, eps: float) -> float:
    """Per-coordinate Laplace scale b = delta/eps."""
    _check_calibration(delta_q, eps)
    return delta_q / eps


def gaussian_sigma(delta_q: float, eps: float, delta: float = 1e-5) -> float:
    """Classic Gaussian-mechanism sigma = delta_q * sqrt(2 ln(1.25/delta)) / eps.

    This is the bound of Dwork & Roth (Theorem A.1), proven only for eps < 1;
    it is not the analytic Gaussian mechanism of Balle & Wang, and the engine
    grants budgets above 1.
    """
    _check_calibration(delta_q, eps)
    return delta_q * math.sqrt(2.0 * math.log(1.25 / delta)) / eps


def sample_laplace(rng: np.random.Generator, scale: float, n: int) -> np.ndarray:
    """Inverse-CDF Laplace sampler pinned to this package (stable goldens)."""
    u = rng.random(n) - 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def true_report_probability(eps: float, categories: int) -> float:
    """Randomized-rounding probability of reporting the true category."""
    return math.exp(eps) / (math.exp(eps) + categories - 1)


def dp_noise(
    values: Sequence[float | int],
    eps_star: float,
    delta_q: float,
    mechanism: Mechanism,
    seed: int,
    token: ReleaseToken,
    dp_cfg: DpConfig = DpConfig(),
    categories: int | None = None,
) -> SanitizedOutput:
    """Inject calibrated noise and stamp the output with its noise trace.

    Requires an already-consumed ReleaseToken: consumption is recorded before
    any sanitized value exists, so no release path can skip authorization.
    """
    if not token.consumed:
        raise TokenNotConsumed("release token must be consumed before noising")
    _check_calibration(delta_q, eps_star)
    # default_rng builds this same generator inside numpy's errstate wrapper
    rng = np.random.Generator(np.random.PCG64(seed))
    arr = list(values)
    if mechanism is Mechanism.LAPLACE:
        noise = sample_laplace(rng, laplace_scale(delta_q, eps_star), len(arr))
        noisy: tuple[float | int, ...] = tuple(np.add(arr, noise).tolist())
    elif mechanism is Mechanism.GAUSSIAN:
        sigma = gaussian_sigma(delta_q, eps_star, dp_cfg.gaussian_delta)
        noise = rng.normal(0.0, sigma, len(arr))
        noisy = tuple(np.add(arr, noise).tolist())
    else:
        if categories is None or categories < 2:
            raise ValueError("randomized rounding needs a category count >= 2")
        # Only a category can be reported: a value outside [0, categories)
        # that is kept would come out as no noisy draw can, revealing it.
        vals = np.asarray(arr, dtype=np.float64)
        if not np.all((vals == np.floor(vals)) & (vals >= 0) & (vals < categories)):
            raise ScopeViolation(
                f"randomized rounding needs integer categories in [0, {categories})"
            )
        vals = vals.astype(np.int64)
        p_true = true_report_probability(eps_star, categories)
        keep = rng.random(len(vals)) < p_true
        others = rng.integers(0, categories - 1, size=len(vals))
        others = np.where(others < vals, others, others + 1)
        noisy = tuple(int(v) for v in np.where(keep, vals, others))
    trace = hashlib.sha256(
        f"{token.token_id}|{mechanism.value}|{seed}|{len(arr)}|{eps_star}".encode()
    ).hexdigest()[:16]
    return SanitizedOutput(
        values=noisy,
        mechanism=mechanism,
        epsilon_charged=eps_star,
        noise_trace=trace,
    )


def compliance_check(
    output: SanitizedOutput,
    output_cap: int,
) -> None:
    """Final gate before anything leaves the box: arity within the contract
    cap and every value stamped by a noise mechanism."""
    if len(output.values) > output_cap:
        raise ArityExceeded(
            f"output arity {len(output.values)} exceeds cap {output_cap}"
        )
    if not output.noise_trace:
        raise UnnoisedOutput("output carries no noise trace")


def run_release(
    plan: QueryPlan,
    data: LoadSeries,
    contract: ValidatedRequest,
    eps_star: float,
    token: ReleaseToken,
    seed: int,
    dp_cfg: DpConfig = DpConfig(),
    categories: int | None = None,
) -> SanitizedOutput:
    """Validate, execute, consume the token, noise, and compliance-check."""
    validate_plan(plan, contract, dp_cfg)
    raw = execute_plan(plan, data)
    token.consume()
    sanitized = dp_noise(
        raw, eps_star, plan.delta, plan.mechanism, seed, token, dp_cfg, categories
    )
    compliance_check(sanitized, dp_cfg.default_output_cap)
    return sanitized
