import math
import warnings

import numpy as np
import pytest

import oracles
from sfvda import losses
from sfvda.config import VARIANTS, RunConfig
from sfvda.losses import prediction_objective
from sfvda.tensor import Tensor, finite_diff_check, log_softmax_rows, stack


def leaf_coefficients(variant, **cfg):
    return VARIANTS[variant].coefficients(RunConfig(**cfg))


def test_loss_weights_validation():
    RunConfig()
    with pytest.raises(ValueError, match="beta_fc"):
        RunConfig(beta_fc=-1.0)
    with pytest.raises(ValueError, match="eps_norm"):
        RunConfig(eps_norm=0.0)
    with pytest.raises(ValueError, match="eps_smooth"):
        RunConfig(eps_smooth=1.0)


class TestSmoothedCrossEntropy:
    def test_smoothed_target_values(self):
        # eps 0.1, C=12: correct class 0.9 + 0.1/12, others 0.1/12.
        logits = Tensor(np.zeros((1, 12)))
        loss = losses.smoothed_cross_entropy(logits, [3], 0.1)
        expected = -(0.9 + 0.1 / 12) * math.log(1 / 12) - 11 * (0.1 / 12) * math.log(1 / 12)
        assert abs(loss.item() - expected) < 1e-12

    def test_confident_prediction_vanishes(self):
        logits = np.zeros((2, 4))
        logits[0, 1] = 40.0
        logits[1, 2] = 40.0
        loss = losses.smoothed_cross_entropy(Tensor(logits), [1, 2], 0.0)
        assert loss.item() < 1e-10

    def test_uniform_two_class(self):
        loss = losses.smoothed_cross_entropy(Tensor(np.zeros((1, 2))), [0], 0.1)
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            losses.smoothed_cross_entropy(Tensor(np.zeros((1, 2))), [2], 0.1)


class TestNormalizeFeatures:
    """The per-pair reference in tests/oracles.py, pinned to scripted values."""

    def test_constant_column_goes_to_zero(self):
        out = oracles.normalize_features(np.full((4, 3), 7.0).tolist(), 1e-5)
        assert np.allclose(out, 0.0, atol=0)

    def test_already_standardized(self):
        out = oracles.normalize_features([[-1.0], [1.0]], 1e-12)
        assert np.allclose(out, [[-1.0], [1.0]], atol=1e-6)

    def test_scripted_column(self):
        out = oracles.normalize_features([[0.0], [2.0], [4.0]], 1e-5)
        expected = [-1.2247425750014138, 0.0, 1.2247425750014138]
        assert np.allclose(np.reshape(out, -1), expected, atol=1e-12)

    def test_needs_batch(self):
        # the fused op standardizes each scale over the batch
        with pytest.raises(ValueError, match="batch"):
            losses.feature_consistency_total(Tensor(np.ones((2, 1, 3))), 5e-3, 1e-5)

    def test_overflow_names_the_stage(self):
        # the squared deviations overflow, so sigma is infinite; unchecked,
        # the normalized features would be silently zero
        lts = Tensor(np.random.default_rng(23).normal(size=(3, 4, 5)) * 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # one report: the error, and no numpy warning before it
            with pytest.raises(ValueError, match="^variance: output contains non-finite values$"):
                losses.feature_consistency_total(lts, 5e-3, 1e-5)


class TestCrossCorrelation:
    def test_self_correlation_diagonal_is_one(self):
        rng = np.random.default_rng(0)
        lt = rng.normal(0.0, 5.0, size=(64, 8)).tolist()
        c = oracles.cross_correlation(lt, lt, 1e-5)
        assert np.max(np.abs(np.diag(c) - 1.0)) < 1e-6

    def test_anti_correlation_diagonal(self):
        rng = np.random.default_rng(1)
        lt = rng.normal(0.0, 5.0, size=(32, 4))
        c = oracles.cross_correlation(lt.tolist(), (-lt).tolist(), 1e-5)
        assert np.max(np.abs(np.diag(c) + 1.0)) < 1e-6

    def test_scripted_value(self):
        rng = np.random.default_rng(20)
        x = rng.normal(0, 2.0, size=(4, 2))
        y = rng.normal(0, 2.0, size=(4, 2))
        c = oracles.cross_correlation(x.tolist(), y.tolist(), 1e-5)
        expected = [
            [0.9951322622839691, 0.10066994755945012],
            [0.19317235906572144, 0.9573168976609328],
        ]
        assert np.allclose(c, expected, atol=1e-12)


class TestFeatureConsistency:
    def test_identity_matrix_gives_zero(self):
        assert oracles.feature_consistency_pair(np.eye(5).tolist(), 5e-3) == 0.0

    def test_zero_matrix_diagonal_only(self):
        assert oracles.feature_consistency_pair(np.zeros((3, 3)).tolist(), 1.0) == 3.0

    def test_offdiagonal_term(self):
        c = [[1.0, 0.5], [0.5, 1.0]]
        assert abs(oracles.feature_consistency_pair(c, 5e-3) - 2.5e-3) < 1e-15

    def test_pair_count(self):
        assert len(oracles.ordered_scale_pairs(5)) == 12
        assert len(oracles.ordered_scale_pairs(3)) == 2

    def test_identical_decorrelated_scales_near_zero(self):
        rng = np.random.default_rng(2)
        lt = rng.normal(0.0, 5.0, size=(512, 3))
        total = losses.feature_consistency_total(stack([Tensor(lt)] * 4), 5e-3, 1e-5)
        assert total.item() < 5e-3

    def test_k3_matches_scripted_mean_of_both_orders(self):
        rng = np.random.default_rng(21)
        lt2 = rng.normal(0, 3.0, size=(6, 4))
        lt3 = rng.normal(0, 3.0, size=(6, 4))
        total = losses.feature_consistency_total(stack([Tensor(lt2), Tensor(lt3)]), 5e-3, 1e-5)
        assert abs(total.item() - 1.6389019778958684) < 1e-12

    def test_nonnegative_and_zero_iff_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            lts = [Tensor(rng.normal(size=(8, 4))) for _ in range(3)]
            assert losses.feature_consistency_total(stack(lts), 5e-3, 1e-5).item() >= 0.0


class TestFusedFeatureConsistency:
    """The fused op against the definition in tests/oracles.py: one
    cross-correlation matrix and one pair penalty per ordered scale pair,
    averaged."""

    @staticmethod
    def scales(k, seed):
        rng = np.random.default_rng(seed)
        lts = [rng.normal(0.0, rng.uniform(0.5, 3.0), size=(12, 5)) for _ in range(k - 1)]
        lts[1][:, 3] = 2.5  # a constant dimension takes the eps_norm path
        return lts

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_equals_mean_of_pair_penalties(self, k):
        lam, eps = 5e-3, 1e-5
        lts = self.scales(k, 30 + k)
        reference = oracles.per_pair_feature_consistency([lt.tolist() for lt in lts], lam, eps)
        fused = losses.feature_consistency_total(stack([Tensor(lt) for lt in lts]), lam, eps).item()
        assert abs(fused - reference) <= 1e-12 * abs(reference)

    def test_gradient_at_k8(self):
        others = [Tensor(lt) for lt in self.scales(8, 40)]

        # a large lam weights the Gram (off-diagonal) path as much as the
        # diagonal one, so an error in either shows in the gradient
        def f(x):
            return losses.feature_consistency_total(stack(others[:3] + [x] + others[4:]), 0.5, 1e-5)

        point = Tensor(np.random.default_rng(41).normal(size=(12, 5)))
        assert finite_diff_check(f, point, rel_tol=1e-4).passed


class TestPredictionConsistency:
    def test_equal_logits_give_zero(self):
        p = Tensor(np.array([[0.3, -0.2, 1.0]] * 4))
        preds = (stack([p, p, p]), p)
        # the logit average reintroduces ~1 ulp of rounding noise
        assert abs(losses.local_prediction_consistency(*preds).item()) < 1e-12
        assert abs(losses.overall_prediction_consistency(*preds).item()) < 1e-12

    def test_scripted_two_scale_value(self):
        p2 = Tensor([[math.log(2.0), 0.0]])
        p3 = Tensor([[0.0, math.log(2.0)]])
        value = losses.local_prediction_consistency(stack([p2, p3]), p2).item()
        assert abs(value - 0.0566330122651324) < 1e-12

    def test_local_consistency_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            local = [Tensor(rng.normal(size=(5, 3))) for _ in range(4)]
            assert losses.local_prediction_consistency(stack(local), local[0]).item() >= 0.0

    def test_overall_scripted_value(self):
        # one scale, so the average is [0, 1]: the log-softmaxes differ by 1 per class
        assert abs(losses.overall_prediction_consistency(Tensor([[[0.0, 1.0]]]), Tensor([[1.0, 0.0]])).item() - 2.0) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        local = [rng.normal(size=(3, 4)) for _ in range(3)]
        overall = rng.normal(size=(3, 4))
        base = (stack([Tensor(p) for p in local]), Tensor(overall))
        shifted = (
            stack([Tensor(p + 2.5) for p in local]), Tensor(overall + 2.5)
        )
        for fn in (losses.local_prediction_consistency, losses.overall_prediction_consistency):
            assert abs(fn(*base).item() - fn(*shifted).item()) < 1e-9

    def test_weighted_sum(self):
        p = Tensor(np.array([[0.5, -0.5]]))
        q = Tensor(np.array([[1.5, 0.5]]))
        pair = stack([p, q])
        local = losses.local_prediction_consistency(pair, q).item()
        overall = losses.overall_prediction_consistency(pair, q).item()
        coeffs = leaf_coefficients("pc", alpha_local=2.0, alpha_overall=0.5)
        combined, values = prediction_objective(pair, q, coeffs)
        assert values == {"pc_local": local, "pc_overall": overall}
        assert abs(combined.item() - (2.0 * local + 0.5 * overall)) < 1e-12
        only_local = prediction_objective(pair, q, leaf_coefficients("pc", alpha_overall=0.0))[0]
        assert only_local.item() == pytest.approx(local)

    def test_average_is_mean_of_local_rows(self):
        # overall logits equal to the mean of the local rows leave no gap
        rng = np.random.default_rng(6)
        local = [Tensor(rng.normal(size=(4, 3))) for _ in range(5)]
        manual = np.mean([p.data for p in local], axis=0)
        assert losses.overall_prediction_consistency(stack(local), Tensor(manual)).item() < 1e-10


def test_stacked_local_consistency_is_mean_of_per_scale_kls():
    rng = np.random.default_rng(22)
    blocks = [rng.normal(size=(6, 4)) for _ in range(5)]
    stacked = losses.local_prediction_consistency(Tensor(np.stack(blocks)), Tensor(rng.normal(size=(6, 4)))).item()
    reference = oracles.per_scale_prediction_consistency([b.tolist() for b in blocks])
    assert abs(stacked - reference) <= 1e-12 * max(1.0, abs(reference))


def test_local_consistency_is_finite_on_a_certain_class():
    # a class probability of 1 is a log-probability of 0; the KL weighs it
    # by the probability, not through log(lp / lq), so it stays finite
    local = Tensor([[[800.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]])
    assert np.isfinite(losses.local_prediction_consistency(local, Tensor([[1.0, 0.0, 0.0]])).item())


def test_temporal_consistency_weighting():
    # prediction consistency 0.1 + 0.2 = 0.3 at unit alphas
    components = {"fc": 0.2, "pc_local": 0.1, "pc_overall": 0.2}

    def tc(beta_fc, beta_pc):
        coeffs = leaf_coefficients("tc", beta_fc=beta_fc, beta_pc=beta_pc)
        return sum(c * components[name] for name, c in coeffs.items())

    assert tc(1.0, 1.0) == pytest.approx(0.5)
    assert tc(0.0, 1.0) == pytest.approx(0.3)
    assert tc(2.0, 4.0) == pytest.approx(1.6)


class TestInformationMaximization:
    def test_uniform_rows_give_log_c(self):
        for n_classes in (2, 8, 12):
            logits = Tensor(np.zeros((6, n_classes)))
            value = losses.information_maximization(logits).item()
            assert abs(value - math.log(n_classes)) < 1e-10

    def test_balanced_one_hot_rows_vanish(self):
        n_classes = 4
        logits = np.zeros((8, n_classes))
        for i in range(8):
            logits[i, i % n_classes] = 40.0
        assert losses.information_maximization(Tensor(logits)).item() < 1e-10

    def test_scripted_value(self):
        logits = Tensor([[math.log(3.0), 0.0], [0.0, math.log(3.0)]])
        value = losses.information_maximization(logits).item()
        assert abs(value - 0.5623351446188083) < 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            batch = rng.integers(1, 9)
            n_classes = rng.integers(2, 6)
            logits = Tensor(rng.normal(size=(batch, n_classes)) * 3.0)
            value = losses.information_maximization(logits).item()
            assert -1e-12 <= value <= 2.0 * math.log(n_classes) + 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(5, 4))
        a = losses.information_maximization(Tensor(logits)).item()
        b = losses.information_maximization(Tensor(logits + 3.0)).item()
        assert abs(a - b) < 1e-9


class TestPseudoLabelCrossEntropy:
    def test_aligned_logits_vanish(self):
        logits = np.zeros((3, 4))
        pseudo = np.array([0, 1, 2])
        logits[np.arange(3), pseudo] = 40.0
        assert losses.pseudo_label_cross_entropy(Tensor(logits), pseudo).item() < 1e-10

    def test_uniform_logits_give_log_c(self):
        loss = losses.pseudo_label_cross_entropy(Tensor(np.zeros((4, 8))), [0, 1, 2, 3])
        assert abs(loss.item() - math.log(8.0)) < 1e-12

    def test_scripted_value(self):
        loss = losses.pseudo_label_cross_entropy(Tensor([[1.0, 0.0, 0.0]]), [0])
        assert abs(loss.item() - 0.5514447139320511) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(6, 5))
        pseudo = rng.integers(0, 5, size=6)
        a = losses.pseudo_label_cross_entropy(Tensor(logits), pseudo).item()
        b = losses.pseudo_label_cross_entropy(Tensor(logits - 1.25), pseudo).item()
        assert abs(a - b) < 1e-9


class TestGradients:
    """Central finite differences against every loss, random small shapes."""

    def test_smoothed_cross_entropy(self):
        rng = np.random.default_rng(10)
        labels = rng.integers(0, 4, size=6)

        def f(x):
            return losses.smoothed_cross_entropy(x, labels, 0.1)

        assert finite_diff_check(f, Tensor(rng.normal(size=(6, 4))), rel_tol=1e-4).passed

    def test_feature_consistency(self):
        rng = np.random.default_rng(11)
        others = [rng.normal(size=(8, 4)) for _ in range(2)]

        def f(x):
            lts = [x] + [Tensor(o) for o in others]
            return losses.feature_consistency_total(stack(lts), 5e-3, 1e-5)

        assert finite_diff_check(f, Tensor(rng.normal(size=(8, 4))), rel_tol=1e-4).passed

    def test_prediction_consistency(self):
        rng = np.random.default_rng(12)
        other = rng.normal(size=(5, 3))
        overall = rng.normal(size=(5, 3))

        def f(x):
            return prediction_objective(stack([x, Tensor(other)]), Tensor(overall), leaf_coefficients("pc"))[0]

        assert finite_diff_check(f, Tensor(rng.normal(size=(5, 3))), rel_tol=1e-4).passed

    def test_overall_consistency_through_overall_logits(self):
        rng = np.random.default_rng(13)
        local = [Tensor(rng.normal(size=(4, 3))) for _ in range(2)]

        def f(x):
            return losses.overall_prediction_consistency(stack(local), x)

        assert finite_diff_check(f, Tensor(rng.normal(size=(4, 3))), rel_tol=1e-4).passed

    def test_information_maximization(self):
        rng = np.random.default_rng(14)

        def f(x):
            return losses.information_maximization(x)

        assert finite_diff_check(f, Tensor(rng.normal(size=(8, 4))), rel_tol=1e-4).passed

    def test_pseudo_label_cross_entropy(self):
        rng = np.random.default_rng(15)
        pseudo = rng.integers(0, 4, size=8)

        def f(x):
            return losses.pseudo_label_cross_entropy(x, pseudo)

        assert finite_diff_check(f, Tensor(rng.normal(size=(8, 4))), rel_tol=1e-4).passed



class TestFusedPredictionObjective:
    """The fused op against ``oracles.unfused_prediction_objective``, which
    takes every term and gradient one operation at a time."""

    @staticmethod
    def assert_close(got, want, what):
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= 1e-12, f"{what}: relative error {err:.1e}"

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "prediction-site"])
    @pytest.mark.parametrize("zero", [None, "pc_overall", "im"], ids=["all-terms", "pc_overall-zero", "im-zero"])
    def test_values_and_input_gradients_match_the_unfused_chain(self, weighted, zero):
        rng = np.random.default_rng(50)
        n_scales, batch, n_classes = 4, 6, 5
        local = rng.normal(size=(n_scales, batch, n_classes)) * 2.0
        overall = rng.normal(size=(batch, n_classes)) * 2.0
        weights = rng.uniform(0.1, 1.0, size=(batch, n_scales)) if weighted else None
        labels = rng.integers(0, n_classes, size=batch)
        coeffs = {"pc_local": 0.7, "pc_overall": 1.3, "im": 0.9, "pl_ce": 1.1}
        if zero:
            coeffs[zero] = 0.0
        total, values, grads = oracles.unfused_prediction_objective(local, overall, coeffs, weights, labels)
        local_t, overall_t = Tensor(local, requires_grad=True), Tensor(overall, requires_grad=True)
        loss, got = prediction_objective(local_t, overall_t, coeffs, weights, labels)
        loss.backward()
        for name, value in values.items():
            assert abs(got[name] - value) <= 1e-12 * abs(value), name
        assert abs(loss.item() - total) <= 1e-12 * abs(total)
        self.assert_close(local_t.grad, grads["local"], "local logits")
        self.assert_close(overall_t.grad, grads["overall"], "overall logits")

    def test_smoothed_cross_entropy_matches_the_unfused_chain(self):
        rng = np.random.default_rng(51)
        logits = rng.normal(size=(7, 4))
        labels = rng.integers(0, 4, size=7)
        total, _, grads = oracles.unfused_prediction_objective(None, logits, {"ce": 1.0}, labels=labels, eps_smooth=0.1)
        leaf = Tensor(logits, requires_grad=True)
        loss = losses.smoothed_cross_entropy(leaf, labels, 0.1)
        loss.backward()
        assert abs(loss.item() - total) <= 1e-12 * abs(total)
        self.assert_close(leaf.grad, grads["overall"], "logits")

    def test_only_the_source_cross_entropy_is_smoothed(self):
        # pl_ce ignores eps_smooth, value and gradient; ce smooths by it
        rng = np.random.default_rng(54)
        logits = rng.normal(size=(6, 4)) * 2.0
        labels = rng.integers(0, 4, size=6)
        results = {}
        for name in ("ce", "pl_ce"):
            for eps in (0.0, 0.1):
                leaf = Tensor(logits, requires_grad=True)
                loss = prediction_objective(None, leaf, {name: 1.0}, labels=labels, eps_smooth=eps)[0]
                loss.backward()
                results[name, eps] = (loss.item(), leaf.grad.tobytes())
        assert results["pl_ce", 0.1] == results["pl_ce", 0.0]
        assert results["ce", 0.0] == results["pl_ce", 0.0]
        assert results["ce", 0.1][0] != results["ce", 0.0][0]
        assert results["ce", 0.1][1] != results["ce", 0.0][1]
        coeffs = {"ce": 0.6, "pl_ce": 1.3}
        total, values, grads = oracles.unfused_prediction_objective(None, logits, coeffs, labels=labels, eps_smooth=0.1)
        leaf = Tensor(logits, requires_grad=True)
        loss, got = prediction_objective(None, leaf, coeffs, labels=labels, eps_smooth=0.1)
        loss.backward()
        for name, value in values.items():
            assert abs(got[name] - value) <= 1e-12 * abs(value), name
        assert abs(loss.item() - total) <= 1e-12 * abs(total)
        self.assert_close(leaf.grad, grads["overall"], "logits")

    def test_each_named_loss_is_its_term(self):
        rng = np.random.default_rng(52)
        local, overall = Tensor(rng.normal(size=(3, 3, 4))), Tensor(rng.normal(size=(3, 4)))
        pseudo = rng.integers(0, 4, size=3)
        coeffs = {"pc_local": 1.0, "pc_overall": 1.0, "im": 1.0, "pl_ce": 1.0}
        _, values = prediction_objective(local, overall, coeffs, labels=pseudo)
        assert values == {
            "pc_local": losses.local_prediction_consistency(local, overall).item(),
            "pc_overall": losses.overall_prediction_consistency(local, overall).item(),
            "im": losses.information_maximization(overall).item(),
            "pl_ce": losses.pseudo_label_cross_entropy(overall, pseudo).item(),
        }

    def test_local_logits_and_weights_must_fit_the_overall_shape(self):
        overall = Tensor(np.zeros((3, 4)))
        for local in (np.zeros((9, 4)), np.zeros((2, 4, 4)), np.zeros((0, 3, 4))):
            with pytest.raises(ValueError, match="are not a stack of"):
                prediction_objective(Tensor(local), overall, {"pc_local": 1.0})
        # a (B, 1) array would broadcast over every scale
        for weights in (np.ones((3, 1)), np.ones((2, 3))):
            with pytest.raises(ValueError, match="does not match batch 3 x scales 2"):
                prediction_objective(Tensor(np.zeros((2, 3, 4))), overall, {"pc_local": 1.0}, weights)

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "prediction-site"])
    def test_local_term_alone_needs_no_overall_logits(self, weighted):
        # pc_local reads only the local stack, so without overall logits it
        # gives the same value and local gradient, and has no other parent
        rng = np.random.default_rng(53)
        local = rng.normal(size=(3, 5, 4)) * 2.0
        weights = rng.uniform(0.1, 1.0, size=(5, 3)) if weighted else None
        results = []
        for overall in (Tensor(rng.normal(size=(5, 4)), requires_grad=True), None):
            local_t = Tensor(local, requires_grad=True)
            loss, values = prediction_objective(local_t, overall, {"pc_local": 0.7}, weights)
            loss.backward()
            results.append((loss.item(), values, local_t.grad))
            if overall is not None:
                assert overall.grad is None
        (with_value, with_values, with_grad), (value, values, grad) = results
        assert value == with_value and values == with_values
        assert grad.tobytes() == with_grad.tobytes()
        _, _, oracle_grads = oracles.unfused_prediction_objective(
            local, rng.normal(size=(5, 4)), {"pc_local": 0.7}, weights
        )
        self.assert_close(grad, oracle_grads["local"], "local logits")

    def test_terms_on_the_overall_logits_need_them(self):
        local = Tensor(np.zeros((2, 3, 4)))
        for term in ("pc_overall", "im", "pl_ce"):
            with pytest.raises(ValueError, match=rf"\['{term}'\] read the overall logits, and none were given"):
                prediction_objective(local, None, {"pc_local": 1.0, term: 1.0}, labels=np.zeros(3, dtype=int))

    def test_unknown_term_rejected(self):
        with pytest.raises(ValueError, match="unknown terms"):
            prediction_objective(None, Tensor(np.zeros((2, 3))), {"fc": 1.0})


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(5)
    for _ in range(20):
        logp, p = log_softmax_rows(rng.uniform(-20.0, 20.0, size=(6, 8)))
        assert np.max(np.abs(logp - np.log(p))) < 1e-12
