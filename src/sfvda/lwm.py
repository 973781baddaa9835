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

__all__ = ["confidence", "local_relevance_weight", "apply_weights"]

# where the weights can act: the overall feature and the local logits
SITES = frozenset({"feature", "prediction"})


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


def apply_weights(lts: Tensor, local_logits: Tensor | None, sites) -> tuple[Tensor, np.ndarray | None]:
    """The overall feature of the (S, B, d) stack ``lts``, weighted by the
    relevance of the (S, B, C) ``local_logits`` when ``feature`` is in
    ``sites``, and those (B, S) weights when ``prediction`` is (they scale
    the local logits in ``losses.prediction_objective``), else None. With
    no sites: the plain mean and None, and the logits are not read."""
    if not sites:
        return aggregate_overall(lts), None
    weights = local_relevance_weight(local_logits)
    overall = aggregate_overall(lts, weights if "feature" in sites else None)
    return overall, weights if "prediction" in sites else None
