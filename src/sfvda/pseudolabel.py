"""Self-supervised pseudo-labels from centroid clustering in feature space.

Initial class centroids are softmax-weighted means of the overall temporal
features over the whole unlabeled set; samples are assigned to the nearest
centroid under cosine distance (ties to the lowest class index), centroids
are recomputed as plain means of their assigned samples, and the assignment
is renewed. Everything here is plain numpy; pseudo-labels never carry
gradients.
"""

from __future__ import annotations

import numpy as np

from .tensor import _ensure_finite, log_softmax_rows

__all__ = [
    "init_centroids",
    "assign_labels",
    "update_centroids",
    "generate_pseudo_labels",
]

EPS = 1e-8


def init_centroids(features: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """Softmax-probability-weighted mean per class over the whole set, as a
    (C, D) array of class centroids in overall-feature space."""
    features = np.asarray(features, dtype=np.float64)
    logits = np.asarray(logits, dtype=np.float64)
    if features.shape[0] != logits.shape[0]:
        raise ValueError("init_centroids: features and logits disagree on sample count")
    if features.shape[0] < 1:
        raise ValueError("init_centroids: need at least one sample")
    probs = log_softmax_rows(logits)[1]
    weighted = probs.T @ features
    mass = probs.sum(axis=0) + EPS
    return _ensure_finite(weighted / mass[:, None], "init_centroids")


def assign_labels(features: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid under cosine distance; ties go to the lowest index."""
    features = np.asarray(features, dtype=np.float64)
    f_norm = np.maximum(np.linalg.norm(features, axis=1), EPS)
    c_norm = np.maximum(np.linalg.norm(centroids, axis=1), EPS)
    cosine = (features @ centroids.T) / (f_norm[:, None] * c_norm[None, :])
    return np.argmin(1.0 - cosine, axis=1)


def update_centroids(features: np.ndarray, labels: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Per-class mean of assigned samples; empty classes keep their previous centroid."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = previous.shape[0]
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError("update_centroids: label out of range")
    centroids = np.array(previous, dtype=np.float64)
    for c in range(n_classes):
        mask = labels == c
        if mask.any():
            centroids[c] = features[mask].mean(axis=0)
    return _ensure_finite(centroids, "update_centroids")


def generate_pseudo_labels(
    features: np.ndarray, logits: np.ndarray, rounds: int = 1
) -> np.ndarray:
    """Init from softmax-weighted centroids, then ``rounds`` update/assign passes."""
    if rounds < 1:
        raise ValueError(f"generate_pseudo_labels: need rounds >= 1, got {rounds}")
    centroids = init_centroids(features, logits)
    labels = assign_labels(features, centroids)
    for _ in range(rounds):
        centroids = update_centroids(features, labels, centroids)
        labels = assign_labels(features, centroids)
    return labels
