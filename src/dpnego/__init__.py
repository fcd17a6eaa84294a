"""Adaptive differential-privacy budget negotiation for prosumer data exchange.

The stack: contract validation, sensitivity/trust/purpose scoring, the
budget-optimizing negotiation engine with counter-offers, explainable
decisions with a hash-chained audit log, threshold-share release
authorization, DP-sanitized query execution, and experiment runners.
"""

from .config import AppConfig, load_config
from .contracts import (
    ContractRequest,
    Decision,
    FeatureKind,
    NegotiationOutcome,
    PurposeKind,
    RequestMode,
    ResolutionKind,
    ValidatedRequest,
    validate_request,
)
from .negotiation import (
    BudgetLedger,
    EngineConfig,
    derive_counter_offer,
    negotiate,
    objective,
)
from .explain import Explanation, factors_for, privacy_utility_score
from .scoring import TrustConfig, TrustLedger, trust_score

__version__ = "0.1.0"

__all__ = [
    "AppConfig",
    "BudgetLedger",
    "ContractRequest",
    "Decision",
    "EngineConfig",
    "Explanation",
    "FeatureKind",
    "NegotiationOutcome",
    "PurposeKind",
    "RequestMode",
    "ResolutionKind",
    "TrustConfig",
    "TrustLedger",
    "ValidatedRequest",
    "derive_counter_offer",
    "factors_for",
    "load_config",
    "negotiate",
    "objective",
    "privacy_utility_score",
    "trust_score",
    "validate_request",
]
