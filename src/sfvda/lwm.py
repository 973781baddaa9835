"""Local weight module: closed-form per-scale relevance weights.

Each local temporal scale gets a weight 1 + C(p) where C(p) is the negated
softmax entropy of that scale's prediction divided by log C, so weights stay
in [0, 1]. Weights are coefficients, not variables: they are computed from
the current logits with plain numpy and never differentiated through, which
closes the shortcut of shrinking losses by shrinking weights. They act at
the sites a variant names: ``feature`` and ``prediction`` (the local logits).
"""

from __future__ import annotations

import numpy as np

from .model import aggregate_overall
from .tensor import Tensor, log_softmax_rows

__all__ = ["confidence", "local_relevance_weight", "apply_weights"]


def confidence(logits: np.ndarray) -> np.ndarray:
    """Negated softmax entropy over the last axis divided by log C, in [-1, 0]."""
    logits = np.asarray(logits, dtype=np.float64)
    n_classes = logits.shape[-1]
    if n_classes < 2:
        raise ValueError("confidence: need at least two classes")
    p = log_softmax_rows(logits)[1]
    neg_entropy = (p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1)
    return neg_entropy / np.log(n_classes)


def local_relevance_weight(local_logits: Tensor) -> np.ndarray:
    """Residual weights 1 + C(p), one per (video, scale), gradient-detached:
    a (B, S) float array from the (S, B, C) stack of local logits."""
    return 1.0 + confidence(local_logits.data).T


def apply_weights(lts: Tensor, local_logits: Tensor | None, sites) -> tuple[Tensor, np.ndarray | None]:
    """The overall feature of the (S, B, d) stack ``lts`` and the (B, S)
    relevance weights of the (S, B, C) ``local_logits``, computed only if a
    site reads them: ``feature`` weights the mean over scales, ``prediction``
    returns them for ``losses.prediction_objective`` (else None)."""
    weights = local_relevance_weight(local_logits) if sites else None
    overall = aggregate_overall(lts, weights if "feature" in sites else None)
    return overall, weights if "prediction" in sites else None
