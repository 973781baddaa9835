import numpy as np
import pytest

from sfvda import pseudolabel as PL
from oracles import brute_force_pseudo_labels


class TestInitCentroids:
    def test_single_sample_centroids_equal_its_feature(self):
        feature = np.array([[1.5, -2.0, 0.25]])
        logits = np.array([[3.0, -1.0]])
        centroids = PL.init_centroids(feature, logits)
        # weights cancel up to the eps denominator guard
        assert np.allclose(centroids, feature[0], rtol=1e-5, atol=1e-6)

    def test_uniform_logits_give_global_mean(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(10, 4))
        centroids = PL.init_centroids(features, np.zeros((10, 3)))
        mean = features.mean(axis=0)
        assert np.max(np.abs(centroids - mean)) < 1e-6

    def test_scripted_weighted_mean(self):
        features = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        logits = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        centroids = PL.init_centroids(features, logits)
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        for c in range(2):
            w = probs[:, c]
            expected = (w[:, None] * features).sum(axis=0) / (w.sum() + 1e-8)
            assert np.max(np.abs(centroids[c] - expected)) < 1e-12

    def test_convex_hull_membership(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(20, 3))
        logits = rng.normal(size=(20, 4))
        centroids = PL.init_centroids(features, logits)
        lo, hi = features.min(axis=0), features.max(axis=0)
        assert np.all(centroids >= lo - 1e-9)
        assert np.all(centroids <= hi + 1e-9)


class TestAssignLabels:
    def test_feature_equal_to_centroid(self):
        centroids = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0]])
        labels = PL.assign_labels(np.array([[-1.0, 1.0]]), centroids)
        assert labels.tolist() == [2]

    def test_tie_breaks_to_lowest_index(self):
        centroids = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = PL.assign_labels(np.array([[1.0, 1.0]]), centroids)
        assert labels.tolist() == [0]

    def test_cosine_scale_invariance(self):
        centroids = np.array([[1.0, 2.0], [2.0, -1.0]])
        labels = PL.assign_labels(3.0 * centroids[1][None, :], centroids)
        assert labels.tolist() == [1]

    def test_scaling_all_features_keeps_assignments(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(30, 5))
        centroids = PL.init_centroids(features, rng.normal(size=(30, 3)))
        base = PL.assign_labels(features, centroids)
        for factor in (0.01, 7.0, 1234.5):
            assert np.array_equal(base, PL.assign_labels(factor * features, centroids))


class TestUpdateCentroids:
    def test_all_one_class_keeps_others(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(6, 2))
        prev = rng.normal(size=(3, 2))
        centroids = PL.update_centroids(features, np.ones(6, dtype=int), prev)
        assert np.max(np.abs(centroids[1] - features.mean(axis=0))) < 1e-12
        assert np.array_equal(centroids[0], prev[0])
        assert np.array_equal(centroids[2], prev[2])

    def test_perfect_clusters_recover_means(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 3)) + 10.0
        b = rng.normal(size=(4, 3)) - 10.0
        features = np.concatenate([a, b])
        labels = np.array([0] * 5 + [1] * 4)
        prev = np.zeros((2, 3))
        centroids = PL.update_centroids(features, labels, prev)
        assert np.max(np.abs(centroids[0] - a.mean(axis=0))) < 1e-12
        assert np.max(np.abs(centroids[1] - b.mean(axis=0))) < 1e-12

    def test_seeded_case_matches_brute_force_means(self):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(6, 2))
        labels = np.array([0, 1, 0, 1, 0, 1])
        prev = rng.normal(size=(2, 2))
        centroids = PL.update_centroids(features, labels, prev)
        for c in range(2):
            members = [i for i in range(6) if labels[i] == c]
            expected = [
                sum(features[i][j] for i in members) / len(members) for j in range(2)
            ]
            assert np.max(np.abs(centroids[c] - expected)) < 1e-12

    def test_label_out_of_range(self):
        prev = np.zeros((2, 2))
        with pytest.raises(ValueError, match="out of range"):
            PL.update_centroids(np.zeros((1, 2)), np.array([5]), prev)


class TestGeneratePseudoLabels:
    def test_well_separated_clusters_with_informative_logits(self):
        rng = np.random.default_rng(6)
        n_classes, per = 3, 12
        centers = rng.normal(size=(n_classes, 6)) * 8.0
        features, truth = [], []
        for c in range(n_classes):
            features.append(centers[c] + rng.normal(scale=0.2, size=(per, 6)))
            truth += [c] * per
        features = np.concatenate(features)
        truth = np.array(truth)
        logits = np.eye(n_classes)[truth] * 4.0 + rng.normal(scale=0.2, size=(len(truth), n_classes))
        labels = PL.generate_pseudo_labels(features, logits)
        assert np.array_equal(labels, truth)

    def test_fixed_point_is_stable(self):
        rng = np.random.default_rng(7)
        centers = np.array([[10.0, 0.0], [0.0, 10.0]])
        features = np.concatenate(
            [centers[0] + rng.normal(scale=0.1, size=(8, 2)), centers[1] + rng.normal(scale=0.1, size=(8, 2))]
        )
        logits = np.concatenate([np.tile([4.0, 0.0], (8, 1)), np.tile([0.0, 4.0], (8, 1))])
        one = PL.generate_pseudo_labels(features, logits, rounds=1)
        two = PL.generate_pseudo_labels(features, logits, rounds=2)
        five = PL.generate_pseudo_labels(features, logits, rounds=5)
        assert np.array_equal(one, two)
        assert np.array_equal(one, five)

    def test_single_sample(self):
        labels = PL.generate_pseudo_labels(np.array([[1.0, 2.0]]), np.array([[0.0, 3.0]]))
        assert labels.shape == (1,)

    def test_rounds_validation(self):
        with pytest.raises(ValueError):
            PL.generate_pseudo_labels(np.ones((2, 2)), np.ones((2, 2)), rounds=0)


def test_matches_brute_force_oracle_on_random_instances():
    rng = np.random.default_rng(8)
    for trial in range(100):
        n = int(rng.integers(2, 65))
        dim = int(rng.integers(2, 9))
        n_classes = int(rng.integers(2, 5))
        # quantized features provoke genuine cosine ties now and then
        features = np.round(rng.normal(size=(n, dim)) * 2.0) / 2.0
        logits = np.round(rng.normal(size=(n, n_classes)) * 2.0) / 2.0
        rounds = int(rng.integers(1, 3))
        got = PL.generate_pseudo_labels(features, logits, rounds=rounds)
        want = brute_force_pseudo_labels(features.tolist(), logits.tolist(), rounds=rounds)
        assert got.tolist() == want, f"trial {trial} diverged"


def test_tie_cases_match_oracle():
    features = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    logits = np.array([[1.0, 1.0], [2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    got = PL.generate_pseudo_labels(features, logits)
    want = brute_force_pseudo_labels(features.tolist(), logits.tolist())
    assert got.tolist() == want
