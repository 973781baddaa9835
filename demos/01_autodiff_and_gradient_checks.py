"""Walk through the tensor core: build a loss from the fused ops the model
trains with, run backward, and verify every analytic gradient against
central finite differences.
"""

import numpy as np

from sfvda import losses
from sfvda import model as M
from sfvda.tensor import Tensor, finite_diff_check, stack, weighted_sum

rng = np.random.default_rng(0)
params = M.init_model(k=3, d_in=4, n_classes=4, d=6, d_b=5, seed=0)

# A toy classification loss: smoothed cross-entropy of the classifier head
# (bottleneck, batch norm and weight-normalized affine, one op) on 8 features.
x = rng.normal(size=(8, 6))
labels = rng.integers(0, 4, size=8)


def head_loss(features):
    return losses.smoothed_cross_entropy(M.classify(features, params, batch_stats=True), labels, 0.1)


features = Tensor(x, requires_grad=True)
loss = head_loss(features)
loss.backward()
print(f"loss value        : {loss.item():.6f}")
print(f"gradient norm     : {np.linalg.norm(features.grad):.6f}")

# The same loss as a function of the features, checked against finite differences.
report = finite_diff_check(head_loss, Tensor(x), rel_tol=1e-4)
print(f"finite differences: max rel err {report.max_rel_error:.2e} -> passed={report.passed}")

# The prediction objective evaluates several terms on the logits in one op
# and returns their weighted sum; weighted_sum adds further terms.
other_scale = Tensor(rng.normal(size=(6, 4)))
overall = Tensor(rng.normal(size=(6, 4)))


def objective(local):
    scales = stack([local, other_scale])
    pred, _ = losses.prediction_objective(scales, overall, {"pc_local": 1.0, "pc_overall": 0.5, "im": 0.25})
    return weighted_sum([(1.0, pred), (0.1, losses.information_maximization(local))])


report = finite_diff_check(objective, Tensor(rng.normal(size=(6, 4))), rel_tol=1e-4)
print(f"objective check   : max rel err {report.max_rel_error:.2e} -> passed={report.passed}")

# Gradients accumulate until cleared, which the optimizer relies on.
v = Tensor([[1.0, 2.0]], requires_grad=True)
losses.pseudo_label_cross_entropy(v, [0]).backward()
once = v.grad.copy()
losses.pseudo_label_cross_entropy(v, [0]).backward()
print(f"accumulated grad  : {np.round(v.grad, 6)} (two backward passes of {np.round(once, 6)})")
