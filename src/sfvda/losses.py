"""Training objectives: smoothed source classification, feature consistency
across local temporal scales, source prediction consistency, information
maximization, and pseudo-label cross-entropy.

All functions take tensors from :mod:`sfvda.tensor`, return scalar tensors,
and reduce over the batch with an arithmetic mean. Cross-correlation uses a
1/B factor so that the self-correlation diagonal of well-spread features is
1 and "close to the identity" is batch-size independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import aggregate_overall
from .tensor import (
    Tensor,
    absolute,
    add,
    log,
    log_softmax,
    mean,
    mul,
    reshape,
    scale,
    softmax,
    sub,
    tensor_sum,
)

__all__ = [
    "PredictionSet",
    "smoothed_cross_entropy",
    "pseudo_label_cross_entropy",
    "feature_consistency_total",
    "make_prediction_set",
    "local_prediction_consistency",
    "overall_prediction_consistency",
    "information_maximization",
]


@dataclass
class PredictionSet:
    """Scale-major (S*B, C) local logits, their (B, C) logit average over
    scales, and the (B, C) overall logits."""

    local: Tensor
    average: Tensor
    overall: Tensor


def smoothed_cross_entropy(logits: Tensor, labels: np.ndarray, eps_smooth: float) -> Tensor:
    """Mean cross-entropy against smoothed one-hot targets.

    Targets are (1 - eps) * onehot + eps / C.
    """
    if not 0.0 <= eps_smooth < 1.0:
        raise ValueError(f"eps_smooth must lie in [0, 1), got {eps_smooth}")
    labels = np.asarray(labels, dtype=np.int64)
    batch, n_classes = logits.shape
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError("smoothed_cross_entropy: label out of range")
    target = np.full((batch, n_classes), eps_smooth / n_classes)
    target[np.arange(batch), labels] += 1.0 - eps_smooth
    logp = log_softmax(logits)
    return scale(tensor_sum(mul(Tensor(target), logp)), -1.0 / batch)


def pseudo_label_cross_entropy(logits: Tensor, pseudo: np.ndarray) -> Tensor:
    """Unsmoothed mean cross-entropy against pseudo-labels."""
    return smoothed_cross_entropy(logits, pseudo, 0.0)


def feature_consistency_total(lts: Tensor, n_scales: int, lam: float, eps_norm: float) -> Tensor:
    """Mean pair penalty over all ordered pairs of local-feature scales.

    ``lts`` is the scale-major (S*B, d) stack of local features with
    S = ``n_scales``, rows s*B ... (s+1)*B - 1 holding scale s+2; the pair
    count is S(S-1). One fused op: the stack is viewed as Z (S, B, d) and
    normalized over the batch. With K_s = Z_s Z_s^T the per-scale B x B
    Gram, the cross-correlation C_st = Z_s^T Z_t / B has diagonal
    D[s,t,i] = sum_b Z[s,b,i] Z[t,b,i] / B and squared Frobenius norm
    <K_s, K_t> / B^2, so the off-diagonal mass of all pairs together is
    (||sum_s K_s||^2 - sum_s ||K_s||^2) / B^2 - sum_{s != t} ||D[s,t]||^2.
    No pair loop and no d x d matrix is formed; the VJP is closed form.
    """
    if n_scales < 2:
        raise ValueError("feature_consistency_total: need at least two scales")
    rows, d = lts.shape
    if rows % n_scales:
        raise ValueError(f"feature_consistency_total: {rows} rows do not split into {n_scales} scales")
    batch = rows // n_scales
    if batch < 2:
        raise ValueError("feature_consistency_total: need a batch of at least 2")
    x = lts.data.reshape(n_scales, batch, d)
    centered = x - x.mean(axis=1, keepdims=True)
    sigma = np.sqrt((centered * centered).mean(axis=1, keepdims=True) + eps_norm)
    z = centered / sigma  # (S, B, d)
    by_dim = z.transpose(2, 0, 1)  # (d, S, B)
    grams = z @ z.transpose(0, 2, 1)  # (S, B, B)
    gram_sum = grams.sum(axis=0)
    diag = by_dim @ by_dim.transpose(0, 2, 1) / batch  # (d, S, S): D[s,t,i] at [i,s,t]
    pairs = 1.0 - np.eye(n_scales)
    diag_dev = pairs * (1.0 - diag)
    off_mass = (np.sum(gram_sum * gram_sum) - np.sum(grams * grams)) / (batch * batch) - np.sum(
        pairs * diag * diag
    )
    norm = 1.0 / (n_scales * (n_scales - 1))
    value = (np.sum(diag_dev * diag_dev) + lam * off_mass) * norm

    def vjp(g):
        g = float(g) * norm
        # d value / d D over ordered pairs; symmetric in (s, t), so each D
        # entry reaches Z_s and Z_t alike and the pair sum doubles it
        g_diag = -2.0 * g * (diag_dev + lam * pairs * diag)
        dz_by_dim = (2.0 / batch) * (g_diag @ by_dim)  # (d, S, B)
        dz = dz_by_dim.transpose(1, 2, 0) + (4.0 * g * lam / (batch * batch)) * ((gram_sum - grams) @ z)
        # back through z = (x - mean) / sigma, both taken over the batch
        dx = (dz - dz.mean(axis=1, keepdims=True) - z * (dz * z).mean(axis=1, keepdims=True)) / sigma
        return (dx.reshape(rows, d),)

    return Tensor._from_op(np.asarray(value), "feature_consistency_total", (lts,), vjp)


def make_prediction_set(local: Tensor, overall: Tensor) -> PredictionSet:
    """Bundle the scale-major (S*B, C) local logits with their per-video
    logit mean over scales and the (B, C) overall logits."""
    batch, rows = overall.shape[0], local.shape[0]
    if rows == 0 or rows % batch or local.shape[1:] != overall.shape[1:]:
        raise ValueError(
            f"make_prediction_set: local logits {local.shape} are not whole scale blocks of {overall.shape}"
        )
    return PredictionSet(local=local, average=aggregate_overall(local, rows // batch), overall=overall)


def local_prediction_consistency(preds: PredictionSet) -> Tensor:
    """Divergence of each scale's prediction from the scales' average: the
    mean over scales and batch of KL(softmax(p_r) || softmax(p_avg)), taken
    over the (S, B, C) view of the stack against the broadcast average."""
    batch, n_classes = preds.average.shape
    local = reshape(preds.local, (preds.local.shape[0] // batch, batch, n_classes))
    lq = log_softmax(preds.average)
    lp = log_softmax(local)
    return mean(tensor_sum(mul(softmax(local), sub(lp, lq)), axis=2))


def overall_prediction_consistency(preds: PredictionSet) -> Tensor:
    """Mean L1 distance between overall and average log-probability vectors."""
    if preds.overall.shape != preds.average.shape:
        raise ValueError(
            f"overall_prediction_consistency: shape mismatch "
            f"{preds.overall.shape} vs {preds.average.shape}"
        )
    gap = absolute(sub(log_softmax(preds.overall), log_softmax(preds.average)))
    return mean(tensor_sum(gap, axis=1))


def information_maximization(logits: Tensor) -> Tensor:
    """Mean per-sample softmax entropy plus KL of the batch marginal to uniform.

    Low when each prediction is certain and the batch covers classes evenly;
    log C on a uniform batch; bounded by 2 log C.
    """
    batch, n_classes = logits.shape
    probs = softmax(logits)
    logp = log_softmax(logits)
    entropy = scale(mean(tensor_sum(mul(probs, logp), axis=1)), -1.0)
    marginal = mean(probs, axis=0)
    diversity = tensor_sum(mul(marginal, add(log(marginal), Tensor(np.full(n_classes, np.log(n_classes))))))
    return add(entropy, diversity)
