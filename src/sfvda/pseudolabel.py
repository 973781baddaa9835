"""Self-supervised pseudo-labels from centroid clustering in feature space.

Initial class centroids are softmax-weighted means of the overall temporal
features over the whole unlabeled set; samples are assigned to the nearest
centroid under cosine distance (ties to the lowest class index), centroids
are recomputed as plain means of their assigned samples, and the assignment
is renewed. Everything here is plain numpy; pseudo-labels never carry
gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import softmax_rows

__all__ = [
    "CentroidTable",
    "init_centroids",
    "assign_labels",
    "update_centroids",
    "generate_pseudo_labels",
]

EPS = 1e-8


@dataclass
class CentroidTable:
    """C class centroids in overall-feature space, generation 0 or 1."""

    generation: int
    centroids: np.ndarray
    counts: np.ndarray | None = None

    def __post_init__(self):
        if self.generation not in (0, 1):
            raise ValueError(f"CentroidTable.generation must be 0 or 1, got {self.generation}")
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        if not np.all(np.isfinite(self.centroids)):
            raise ValueError("CentroidTable: centroids must be finite")


def init_centroids(features: np.ndarray, logits: np.ndarray) -> CentroidTable:
    """Softmax-probability-weighted mean per class over the whole set."""
    features = np.asarray(features, dtype=np.float64)
    logits = np.asarray(logits, dtype=np.float64)
    if features.shape[0] != logits.shape[0]:
        raise ValueError("init_centroids: features and logits disagree on sample count")
    if features.shape[0] < 1:
        raise ValueError("init_centroids: need at least one sample")
    probs = softmax_rows(logits)
    weighted = probs.T @ features
    mass = probs.sum(axis=0) + EPS
    return CentroidTable(generation=0, centroids=weighted / mass[:, None])


def assign_labels(features: np.ndarray, table: CentroidTable) -> np.ndarray:
    """Nearest centroid under cosine distance; ties go to the lowest index."""
    features = np.asarray(features, dtype=np.float64)
    f_norm = np.maximum(np.linalg.norm(features, axis=1), EPS)
    c_norm = np.maximum(np.linalg.norm(table.centroids, axis=1), EPS)
    cosine = (features @ table.centroids.T) / (f_norm[:, None] * c_norm[None, :])
    return np.argmin(1.0 - cosine, axis=1)


def update_centroids(
    features: np.ndarray, labels: np.ndarray, previous: CentroidTable
) -> CentroidTable:
    """Per-class mean of assigned samples; empty classes keep their previous centroid."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = previous.centroids.shape[0]
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError("update_centroids: label out of range")
    centroids = previous.centroids.copy()
    counts = np.zeros(n_classes, dtype=np.int64)
    for c in range(n_classes):
        mask = labels == c
        counts[c] = int(mask.sum())
        if counts[c] > 0:
            centroids[c] = features[mask].mean(axis=0)
    return CentroidTable(generation=1, centroids=centroids, counts=counts)


def generate_pseudo_labels(
    features: np.ndarray, logits: np.ndarray, rounds: int = 1
) -> np.ndarray:
    """Init from softmax-weighted centroids, then ``rounds`` update/assign passes."""
    if rounds < 1:
        raise ValueError(f"generate_pseudo_labels: need rounds >= 1, got {rounds}")
    table = init_centroids(features, logits)
    labels = assign_labels(features, table)
    for _ in range(rounds):
        table = update_centroids(features, labels, table)
        labels = assign_labels(features, table)
    return labels
