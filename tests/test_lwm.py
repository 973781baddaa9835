import math

import numpy as np
import pytest

from sfvda import lwm
from sfvda.tensor import Tensor, log_softmax_rows, stack


def test_confidence_one_hot_is_near_zero():
    logits = np.zeros(6)
    logits[2] = 40.0
    assert abs(lwm.confidence(logits)) < 1e-12


def test_confidence_uniform_normalized():
    for n_classes in range(2, 13):
        assert lwm.confidence(np.zeros(n_classes)) == pytest.approx(-1.0, abs=1e-12)


def test_confidence_of_underflowed_probabilities_is_exactly_zero():
    # the other probabilities of the first two rows underflow to exactly 0,
    # and each such term adds 0 * log 1: bit for bit what the formula that
    # also zeroed those terms in an outer ``where`` gave
    logits = np.array([[0.0, -800.0, -800.0], [-800.0, 0.0, -800.0], [0.0, 0.0, -800.0]])
    p = log_softmax_rows(logits)[1]
    assert np.count_nonzero(p == 0.0) == 5
    two_wheres = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0).sum(axis=-1) / np.log(3)
    got = lwm.confidence(logits)
    assert got.tobytes() == two_wheres.tobytes()
    assert got[:2].tobytes() == np.zeros(2).tobytes()  # +0.0, not -0.0


def test_confidence_needs_two_classes():
    with pytest.raises(ValueError):
        lwm.confidence(np.zeros(1))


def test_weight_one_hot_is_one():
    logits = np.zeros((3, 4))
    logits[:, 1] = 40.0
    w = lwm.local_relevance_weight(stack([Tensor(logits)]))
    assert np.allclose(w, 1.0, atol=1e-12)


def test_weight_uniform_normalized_is_zero():
    w = lwm.local_relevance_weight(stack([Tensor(np.zeros((2, 4)))]))
    assert np.allclose(w, 0.0, atol=1e-12)


def test_weight_two_class_is_one_minus_entropy_in_bits():
    # p = (1/4, 3/4): entropy 0.8112781244591328 bits
    w = lwm.local_relevance_weight(stack([Tensor([[0.0, math.log(3.0)]])]))
    assert w[0, 0] == pytest.approx(1.0 - (0.25 * math.log2(4.0) + 0.75 * math.log2(4.0 / 3.0)), abs=1e-12)
    assert w[0, 0] == pytest.approx(0.1887218755408672, abs=1e-10)


def test_weight_ranges():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n_classes = int(rng.integers(2, 9))
        logits = [Tensor(rng.normal(size=(4, n_classes)) * 5.0)]
        w = lwm.local_relevance_weight(stack(logits))
        assert np.all((w >= 0.0) & (w <= 1.0))


def test_monotonicity_in_entropy():
    # lower softmax entropy must never get the smaller weight
    rng = np.random.default_rng(1)
    for _ in range(1000):
        a = rng.normal(size=4) * rng.uniform(0.1, 6.0)
        b = rng.normal(size=4) * rng.uniform(0.1, 6.0)
        ent = []
        for x in (a, b):
            e = np.exp(x - x.max())
            p = e / e.sum()
            ent.append(float(-(p * np.log(p)).sum()))
        w = lwm.local_relevance_weight(stack([Tensor(a[None, :]), Tensor(b[None, :])]))
        if ent[0] < ent[1]:
            assert w[0, 0] > w[0, 1]
        elif ent[0] > ent[1]:
            assert w[0, 0] < w[0, 1]


def test_weighted_logits_preserve_argmax():
    rng = np.random.default_rng(2)
    for _ in range(200):
        logits = rng.normal(size=(1, 5))
        w = rng.uniform(0.01, 1.0)
        assert np.argmax(logits) == np.argmax(logits * w)


def one_hot_logits(rng, n_scales, batch, n_classes):
    """(S, B, C) logits confident enough that every relevance weight is 1."""
    logits = np.zeros((n_scales, batch, n_classes))
    logits[:, np.arange(batch), rng.integers(0, n_classes, size=batch)] = 40.0
    return Tensor(logits)


def test_apply_weights_identity_when_all_one():
    rng = np.random.default_rng(3)
    lts = [Tensor(rng.normal(size=(3, 4))) for _ in range(2)]
    overall, weights = lwm.apply_weights(stack(lts), one_hot_logits(rng, 2, 3, 5), {"feature", "prediction"})
    plain = (lts[0].data + lts[1].data) / 2.0
    assert np.max(np.abs(overall.data - plain)) < 1e-12
    assert np.allclose(weights, np.ones((3, 2)), atol=1e-12)


def test_apply_weights_zero_scale():
    lts = [Tensor([[2.0, 0.0]]), Tensor([[0.0, 4.0]])]
    # scale 0 is one-hot (weight 1) and scale 1 uniform (weight 0)
    logits = stack([Tensor([[40.0, 0.0]]), Tensor([[0.0, 0.0]])])
    overall, weights = lwm.apply_weights(stack(lts), logits, {"feature", "prediction"})
    assert np.allclose(overall.data, [[1.0, 0.0]], atol=1e-12)
    assert np.allclose(weights, [[1.0, 0.0]], atol=1e-12)  # scale 1 of the one video scales its logits to 0


def test_apply_weights_scripted_feature_site():
    lts = [Tensor([[2.0, 0.0]]), Tensor([[0.0, 4.0]])]
    # p = (1/4, 3/4) on scale 1: weight 1 - 0.8112781244591328 bits
    w = 0.1887218755408672
    logits = stack([Tensor([[40.0, 0.0]]), Tensor([[0.0, math.log(3.0)]])])
    overall, weights = lwm.apply_weights(stack(lts), logits, {"feature"})
    assert np.allclose(overall.data, [[1.0, 2.0 * w]], atol=1e-10)
    assert weights is None


def test_apply_weights_site_selection():
    rng = np.random.default_rng(4)
    lts = stack([Tensor(rng.normal(size=(2, 3))) for _ in range(2)])
    logits = Tensor(rng.normal(size=(2, 2, 4)))
    plain = lts.data.mean(axis=0)
    overall_p, weights_p = lwm.apply_weights(lts, logits, {"prediction"})
    assert np.max(np.abs(overall_p.data - plain)) < 1e-12
    assert np.array_equal(weights_p, lwm.local_relevance_weight(logits))
    # no sites: the plain mean, and the local logits are not read
    overall_none, weights_none = lwm.apply_weights(lts, None, ())
    assert np.max(np.abs(overall_none.data - plain)) < 1e-12
    assert weights_none is None


def test_weights_are_detached():
    rng = np.random.default_rng(5)
    logits = [Tensor(rng.normal(size=(2, 3)), requires_grad=True)]
    w = lwm.local_relevance_weight(stack(logits))
    assert isinstance(w, np.ndarray)


def test_one_hot_confident_weighting_equals_plain_mean():
    rng = np.random.default_rng(6)
    lts = [Tensor(rng.normal(size=(3, 4))) for _ in range(3)]
    overall, _ = lwm.apply_weights(stack(lts), one_hot_logits(rng, 3, 3, 5), {"feature"})
    plain = np.mean([lt.data for lt in lts], axis=0)
    assert np.max(np.abs(overall.data - plain)) < 1e-12
