"""Training objectives: smoothed source classification, feature consistency
across local temporal scales, source prediction consistency, information
maximization, and pseudo-label cross-entropy.

Each objective is one op with a closed-form VJP on :mod:`sfvda.tensor`
tensors, reducing over the batch with an arithmetic mean. Feature
consistency acts on the local features; every other term acts on logits and
goes through ``prediction_objective``, which evaluates the terms a variant
asks for in one pass and returns their weighted sum. Cross-correlation uses
a 1/B factor so that the self-correlation diagonal of well-spread features
is 1 and "close to the identity" is batch-size independent.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _ensure_finite, _scale_mean, _standardize, _standardize_vjp, log_softmax_rows

__all__ = [
    "PREDICTION_TERMS",
    "prediction_objective",
    "smoothed_cross_entropy",
    "pseudo_label_cross_entropy",
    "feature_consistency_total",
    "local_prediction_consistency",
    "overall_prediction_consistency",
    "information_maximization",
]

# the terms of ``prediction_objective``; ``ce`` and ``pl_ce`` are one
# cross-entropy against ``labels``, named for source training and adaptation
PREDICTION_TERMS = ("pc_local", "pc_overall", "im", "ce", "pl_ce")


def feature_consistency_total(lts: Tensor, lam: float, eps_norm: float) -> Tensor:
    """Mean pair penalty over all ordered pairs of local-feature scales.

    ``lts`` is the (S, B, d) stack of local features, index s holding scale
    s+2; the pair count is S(S-1). One fused op: the stack is normalized
    over the batch to Z (S, B, d). With K_s = Z_s Z_s^T the per-scale B x B
    Gram, the cross-correlation C_st = Z_s^T Z_t / B has diagonal
    D[s,t,i] = sum_b Z[s,b,i] Z[t,b,i] / B and squared Frobenius norm
    <K_s, K_t> / B^2, so the off-diagonal mass of all pairs together is
    (||sum_s K_s||^2 - sum_s ||K_s||^2) / B^2 - sum_{s != t} ||D[s,t]||^2.
    No pair loop and no d x d matrix is formed; the VJP is closed form.
    """
    n_scales, batch, _ = lts.shape
    if n_scales < 2:
        raise ValueError("feature_consistency_total: need at least two scales")
    if batch < 2:
        raise ValueError("feature_consistency_total: need a batch of at least 2")
    z, _, _, sigma = _standardize(lts.data, eps_norm)  # (S, B, d)
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
        return (_standardize_vjp(dz, z, sigma),)

    return Tensor._from_op(np.asarray(value), "feature_consistency_total", (lts,), vjp)


def prediction_objective(
    local: Tensor | None,
    overall: Tensor | None,
    coeffs: dict[str, float],
    weights: np.ndarray | None = None,
    labels=None,
    eps_smooth: float = 0.0,
) -> tuple[Tensor, dict[str, float]]:
    """Every term on the logits as one op: returns sum_n coeffs[n] * term_n
    and each term's value, for the terms named in ``coeffs``.

    ``local`` holds the (S, B, C) local logits, scaled per
    (video, scale) by the (B, S) prediction-site ``weights`` when given, and
    A is their logit mean over scales. With p = softmax, lp = log_softmax:
      * pc_local: mean over scales and videos of KL(p(local) || p(A));
      * pc_overall: mean over videos of |lp(overall) - lp(A)|_1;
      * im: mean entropy of p(overall) plus KL of its batch marginal to
        uniform;
      * ce / pl_ce: mean cross-entropy of ``overall`` against the
        ``labels`` one-hot; ce smooths it to (1 - eps) * onehot + eps / C,
        and pl_ce never does.
    Only pc_local leaves the (B, C) ``overall`` logits unread; they may be
    None then. The op's parents are the logit sets the terms read, and its
    VJP sums the terms' closed-form input gradients, each scaled by its
    coefficient.
    """
    unknown = set(coeffs) - set(PREDICTION_TERMS)
    if unknown:
        raise ValueError(f"prediction_objective: unknown terms {sorted(unknown)}")
    if not 0.0 <= eps_smooth < 1.0:
        raise ValueError(f"eps_smooth must lie in [0, 1), got {eps_smooth}")
    reads_overall = sorted(set(coeffs) - {"pc_local"})
    if overall is None and reads_overall:
        raise ValueError(f"prediction_objective: {reads_overall} read the overall logits, and none were given")
    batch, n_classes = local.shape[-2:] if overall is None else overall.shape
    grads = []  # (parent, the gradient of the total with respect to it)
    values: dict[str, float] = {}
    if reads_overall:
        lo, po = log_softmax_rows(overall.data)
        g_over = np.zeros_like(po)
        grads.append((overall, g_over))
    if "pc_local" in coeffs or "pc_overall" in coeffs:
        n_scales = local.shape[0]
        if n_scales == 0 or local.shape[1:] != (batch, n_classes):
            raise ValueError(f"local logits {local.shape} are not a stack of {(batch, n_classes)} logits")
        scaled, column, average = _scale_mean(local.data, weights)
        la, pa = log_softmax_rows(average)
        g_stack = np.zeros_like(scaled)
        g_avg = np.zeros_like(pa)
        if "pc_local" in coeffs:
            ls, ps = log_softmax_rows(scaled)
            kl = np.sum(ps * (ls - la), axis=2)
            values["pc_local"] = float(kl.mean())
            c = coeffs["pc_local"] / (n_scales * batch)
            g_stack += c * ps * (ls - la - kl[:, :, None])
            g_avg += c * (n_scales * pa - ps.sum(axis=0))
        if "pc_overall" in coeffs:
            gap = lo - la
            values["pc_overall"] = float(np.abs(gap).sum(axis=1).mean())
            sign = np.sign(gap) * (coeffs["pc_overall"] / batch)
            sign_sum = sign.sum(axis=1, keepdims=True)
            g_over += sign - po * sign_sum
            g_avg -= sign - pa * sign_sum
        g_stack += g_avg * (1.0 / n_scales)
        grads.append((local, g_stack if column is None else g_stack * column))
    if "im" in coeffs:
        marginal = po.mean(axis=0)
        with np.errstate(divide="ignore"):
            log_marginal = _ensure_finite(np.log(marginal), "log")
        entropy = -np.sum(po * lo, axis=1).mean()
        values["im"] = float(entropy + np.sum(marginal * (log_marginal + np.log(n_classes))))
        # d/dlogits of both parts: p * (u - sum(p * u)) / B, u = log marginal - lp
        u = log_marginal - lo
        g_over += (coeffs["im"] / batch) * po * (u - np.sum(po * u, axis=1, keepdims=True))
    for name, eps in (("ce", eps_smooth), ("pl_ce", 0.0)):
        if name in coeffs:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (batch,):
                raise ValueError(f"{name}: labels of shape {labels.shape} for a batch of {batch}")
            if labels.min() < 0 or labels.max() >= n_classes:
                raise ValueError(f"{name}: label out of range")
            target = np.full((batch, n_classes), eps / n_classes)
            target[np.arange(batch), labels] += 1.0 - eps
            values[name] = float(np.sum(target * lo) * (-1.0 / batch))
            g_over += (coeffs[name] / batch) * (po - target)
    total = sum(coeffs[name] * values[name] for name in coeffs)

    def vjp(g):
        return tuple(float(g) * grad for _, grad in grads)

    return Tensor._from_op(np.asarray(total), "prediction_objective", tuple(p for p, _ in grads), vjp), values


def local_prediction_consistency(local: Tensor, overall: Tensor) -> Tensor:
    """Mean KL of each scale's prediction to that of the scales' logit average,
    from the (S, B, C) local and the (B, C) overall logits."""
    return prediction_objective(local, overall, {"pc_local": 1.0})[0]


def overall_prediction_consistency(local: Tensor, overall: Tensor) -> Tensor:
    """Mean L1 distance between overall and average log-probability vectors."""
    return prediction_objective(local, overall, {"pc_overall": 1.0})[0]


def information_maximization(logits: Tensor) -> Tensor:
    """Mean per-sample softmax entropy plus KL of the batch marginal to uniform.

    Low when each prediction is certain and the batch covers classes evenly;
    log C on a uniform batch; bounded by 2 log C.
    """
    return prediction_objective(None, logits, {"im": 1.0})[0]


def smoothed_cross_entropy(logits: Tensor, labels: np.ndarray, eps_smooth: float) -> Tensor:
    """Mean cross-entropy against (1 - eps) * onehot + eps / C targets."""
    return prediction_objective(None, logits, {"ce": 1.0}, labels=labels, eps_smooth=eps_smooth)[0]


def pseudo_label_cross_entropy(logits: Tensor, pseudo: np.ndarray) -> Tensor:
    """Unsmoothed mean cross-entropy against pseudo-labels."""
    return prediction_objective(None, logits, {"pl_ce": 1.0}, labels=pseudo)[0]
