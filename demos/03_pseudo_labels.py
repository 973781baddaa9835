"""Centroid pseudo-labeling on a toy mixture: weighted initial centroids,
cosine assignment, one update round, and accuracy against the true labels.
"""

import numpy as np

from sfvda import pseudolabel as PL

rng = np.random.default_rng(2)
n_classes, per_class, dim = 4, 40, 6

centers = rng.normal(size=(n_classes, dim)) * 6.0
features = np.concatenate(
    [centers[c] + rng.normal(scale=0.8, size=(per_class, dim)) for c in range(n_classes)]
)
truth = np.repeat(np.arange(n_classes), per_class)

# Logits from a "noisy classifier": right 70% of the time.
noisy = truth.copy()
flip = rng.random(len(truth)) < 0.3
noisy[flip] = rng.integers(0, n_classes, size=flip.sum())
logits = np.eye(n_classes)[noisy] * 3.0 + rng.normal(scale=0.3, size=(len(truth), n_classes))

print("classifier argmax accuracy:", round(float((logits.argmax(1) == truth).mean()), 3))

centroids = PL.init_centroids(features, logits)  # (C, D)
initial = PL.assign_labels(features, centroids)
print("after weighted centroids  :", round(float((initial == truth).mean()), 3))

labels = PL.generate_pseudo_labels(features, logits, rounds=1)
print("after one update round    :", round(float((labels == truth).mean()), 3))

for rounds in (2, 4):
    again = PL.generate_pseudo_labels(features, logits, rounds=rounds)
    print(f"rounds={rounds} changes vs rounds=1:", int((again != labels).sum()))
