"""Local weight module: closed-form per-scale relevance weights.

Each local temporal scale gets a weight 1 + C(p) where C(p) is the negated
softmax entropy of that scale's prediction divided by log C, so weights stay
in [0, 1]. Weights are coefficients, not variables: they are computed from
the current logits with plain numpy and never differentiated through, which
closes the shortcut of shrinking losses by shrinking weights.
"""

from __future__ import annotations

import numpy as np

from .model import aggregate_overall
from .tensor import Tensor, log_softmax_rows

__all__ = [
    "confidence",
    "local_relevance_weight",
    "apply_weights",
]

FEATURE_SITE = "feature"
PREDICTION_SITE = "prediction"


def confidence(logits: np.ndarray) -> np.ndarray:
    """Negated softmax entropy over the last axis divided by log C, in [-1, 0]."""
    logits = np.asarray(logits, dtype=np.float64)
    n_classes = logits.shape[-1]
    if n_classes < 2:
        raise ValueError("confidence: need at least two classes")
    p = log_softmax_rows(logits)[1]
    neg_entropy = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0).sum(axis=-1)
    return neg_entropy / np.log(n_classes)


def local_relevance_weight(local_logits: Tensor) -> np.ndarray:
    """Residual weights 1 + C(p), one per (video, scale), gradient-detached:
    a (B, S) float array from the (S, B, C) stack of local logits."""
    return 1.0 + confidence(local_logits.data).T


def apply_weights(lts: Tensor, weights: np.ndarray, sites) -> tuple[Tensor, np.ndarray | None]:
    """Apply (B, S) relevance weights at the requested sites.

    Returns the overall temporal feature (weighted when ``feature`` is in
    ``sites``, plain mean otherwise) and the weights that scale the local
    logits in ``losses.prediction_objective`` (None unless ``prediction`` is
    in ``sites``).
    """
    sites = set(sites)
    if not sites:
        raise ValueError("apply_weights: sites must be a nonempty subset")
    unknown = sites - {FEATURE_SITE, PREDICTION_SITE}
    if unknown:
        raise ValueError(f"apply_weights: unknown sites {sorted(unknown)}")
    weights = np.asarray(weights, dtype=np.float64)
    overall = aggregate_overall(lts, weights if FEATURE_SITE in sites else None)
    return overall, weights if PREDICTION_SITE in sites else None
