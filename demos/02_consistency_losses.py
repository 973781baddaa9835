"""Show the adaptation objectives on synthetic inputs: cross-correlation
feature consistency, prediction consistency, entropy-based local weights,
and information maximization.
"""

import math

import numpy as np

from sfvda import losses, lwm
from sfvda.tensor import Tensor

rng = np.random.default_rng(1)
batch, dim, n_classes = 64, 8, 4

# Feature consistency: identical scales score ~0, independent scales do not.
# Scales travel as one (S, B, d) stack.
shared = rng.normal(0.0, 3.0, size=(batch, dim))
consistent = Tensor(np.stack([shared, shared, shared]))
independent = Tensor(rng.normal(0.0, 3.0, size=(3, batch, dim)))
print("feature consistency, identical scales :", f"{losses.feature_consistency_total(consistent, 5e-3, 1e-5).item():.5f}")
print("feature consistency, independent ones :", f"{losses.feature_consistency_total(independent, 5e-3, 1e-5).item():.5f}")


def prediction_consistency(local, overall):
    """Local plus overall prediction consistency, both weighted 1, of the
    (S, B, C) local logits and the (B, C) overall logits."""
    return (
        losses.local_prediction_consistency(local, overall).item()
        + losses.overall_prediction_consistency(local, overall).item()
    )


# Prediction consistency vanishes when every scale agrees.
agreeing = Tensor(rng.normal(size=(batch, n_classes)))
both_scales = Tensor(np.stack([agreeing.data, agreeing.data]))
print("prediction consistency when agreeing  :", f"{prediction_consistency(both_scales, agreeing):.2e}")

disagreeing = prediction_consistency(
    Tensor(rng.normal(size=(2, batch, n_classes))),
    Tensor(rng.normal(size=(batch, n_classes))),
)
print("prediction consistency when disagreeing:", f"{disagreeing:.4f}")

# Local weights: confident scales keep weight 1, uniform ones drop to 0.
confident = np.zeros((1, n_classes)); confident[0, 2] = 40.0
uniform = np.zeros((1, n_classes))
w = lwm.local_relevance_weight(Tensor(np.stack([confident, uniform])))
print("weights [confident, uniform] scales    :", np.round(w[0], 4))

# Information maximization: log C for a uniform batch, ~0 for a balanced
# one-hot batch.
print("IM on uniform batch                    :", f"{losses.information_maximization(Tensor(np.zeros((8, n_classes)))).item():.4f}  (log C = {math.log(n_classes):.4f})")
one_hot = np.zeros((8, n_classes))
one_hot[np.arange(8), np.arange(8) % n_classes] = 40.0
print("IM on balanced one-hot batch           :", f"{losses.information_maximization(Tensor(one_hot)).item():.2e}")
