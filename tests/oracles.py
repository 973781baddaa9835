"""Independent brute-force references used by the test suite.

Written with plain Python loops and math so they share no code path with
the library implementations they check. The one exception is
``unfused_relation_chain``: a numpy reference for the fused relation op that
runs its arithmetic one operation at a time, so it can be compared with the
library bit for bit where the arithmetic is the same.
"""

import base64
import hashlib
import itertools
import json
import math
import struct

import numpy as np


def json_checkpoint_text(doc):
    """The checkpoint bytes as the one-shot encoder writes them."""
    return json.dumps(doc, sort_keys=True) + "\n"


def float64_base64(values):
    """Base64 text of ``values`` (any nesting, read in C order) packed by
    ``struct`` as little-endian float64s: the array encoding of the file
    formats."""
    flat = np.asarray(values, dtype=float).ravel().tolist()
    return base64.b64encode(struct.pack(f"<{len(flat)}d", *flat)).decode("ascii")


def floats_of_base64(text):
    """The float64 values ``float64_base64`` packed, as a flat list."""
    raw = base64.b64decode(text)
    return list(struct.unpack(f"<{len(raw) // 8}d", raw))


def brute_force_pseudo_labels(features, logits, rounds=1, eps=1e-8):
    """Reference centroid clustering: loops only, no numpy vector paths."""
    n = len(features)
    dim = len(features[0])
    n_classes = len(logits[0])

    probs = []
    for row in logits:
        m = max(row)
        exps = [math.exp(x - m) for x in row]
        s = sum(exps)
        probs.append([e / s for e in exps])

    centroids = []
    for c in range(n_classes):
        num = [0.0] * dim
        den = 0.0
        for i in range(n):
            w = probs[i][c]
            den += w
            for j in range(dim):
                num[j] += w * features[i][j]
        centroids.append([x / (den + eps) for x in num])

    def cosine_distance(a, b):
        dot = sum(x * y for x, y in zip(a, b))
        na = max(math.sqrt(sum(x * x for x in a)), eps)
        nb = max(math.sqrt(sum(x * x for x in b)), eps)
        return 1.0 - dot / (na * nb)

    def assign(cents):
        labels = []
        for i in range(n):
            best_c, best_d = 0, None
            for c in range(n_classes):
                d = cosine_distance(features[i], cents[c])
                if best_d is None or d < best_d:
                    best_c, best_d = c, d
            labels.append(best_c)
        return labels

    labels = assign(centroids)
    for _ in range(rounds):
        new_centroids = [list(c) for c in centroids]
        for c in range(n_classes):
            members = [i for i in range(n) if labels[i] == c]
            if members:
                new_centroids[c] = [
                    sum(features[i][j] for i in members) / len(members) for j in range(dim)
                ]
        centroids = new_centroids
        labels = assign(centroids)
    return labels


def _log_softmax(row):
    top = max(row)
    lse = top + math.log(sum(math.exp(x - top) for x in row))
    return [x - lse for x in row]


def per_scale_prediction_consistency(local_blocks):
    """Mean over scales of each scale's mean KL to the logit average, one
    scale and one video at a time. ``local_blocks[s][b]`` is the logit row
    of video b at scale s."""
    n_scales, batch = len(local_blocks), len(local_blocks[0])
    n_classes = len(local_blocks[0][0])
    average = [
        [sum(block[b][c] for block in local_blocks) / n_scales for c in range(n_classes)] for b in range(batch)
    ]
    per_scale = []
    for block in local_blocks:
        total = 0.0
        for b in range(batch):
            lp, lq = _log_softmax(block[b]), _log_softmax(average[b])
            total += sum(math.exp(p) * (p - q) for p, q in zip(lp, lq))
        per_scale.append(total / batch)
    return sum(per_scale) / n_scales


def per_scale_head(local_blocks, head, running, batch_stats, eps=1e-5):
    """Reference classifier head, one scale block at a time: bottleneck,
    batch norm, weight-normalized affine.

    ``head`` maps bot_w, bot_b, bn_gamma, bn_beta, wn_v, wn_g, wn_b to
    nested lists. ``running`` is [mean, var, momentum]; with
    ``batch_stats`` each block is normalized by its own statistics and the
    running ones are updated in place, block by block, otherwise the running
    statistics normalize. Returns the logit rows of every block in order."""
    bot_w, bot_b = head["bot_w"], head["bot_b"]
    d, d_b = len(bot_w), len(bot_b)
    w_eff = []
    for v_row, (g,) in zip(head["wn_v"], head["wn_g"]):
        norm = math.sqrt(sum(v * v for v in v_row))
        w_eff.append([v * g / norm for v in v_row])
    logits = []
    for block in local_blocks:
        h = [[bot_b[j] + sum(row[i] * bot_w[i][j] for i in range(d)) for j in range(d_b)] for row in block]
        if batch_stats:
            n = len(h)
            mu = [sum(r[j] for r in h) / n for j in range(d_b)]
            var = [sum((r[j] - mu[j]) ** 2 for r in h) / n for j in range(d_b)]
            m = running[2]
            running[0] = [m * a + (1.0 - m) * b for a, b in zip(running[0], mu)]
            running[1] = [m * a + (1.0 - m) * b for a, b in zip(running[1], var)]
        else:
            mu, var = running[0], running[1]
        for r in h:
            normed = [
                (r[j] - mu[j]) / math.sqrt(var[j] + eps) * head["bn_gamma"][j] + head["bn_beta"][j]
                for j in range(d_b)
            ]
            logits.append([sum(x * w for x, w in zip(normed, w_row)) + b for w_row, b in zip(w_eff, head["wn_b"])])
    return logits



def normalize_features(rows, eps_norm):
    """Standardize each column over the batch: population variance, with
    eps_norm under the square root so a constant column becomes zero."""
    columns = []
    for column in zip(*rows):
        mu = sum(column) / len(column)
        sd = math.sqrt(sum((x - mu) ** 2 for x in column) / len(column) + eps_norm)
        columns.append([(x - mu) / sd for x in column])
    return [list(row) for row in zip(*columns)]


def cross_correlation(a, b, eps_norm):
    """(1/B) normalize(a)^T normalize(b), a d x d matrix as rows."""
    za, zb = normalize_features(a, eps_norm), normalize_features(b, eps_norm)
    return [[sum(x * y for x, y in zip(ca, cb)) / len(za) for cb in zip(*zb)] for ca in zip(*za)]


def feature_consistency_pair(m, lam):
    """Squared diagonal deviations of one cross-correlation matrix from 1
    plus lam times its squared off-diagonal entries."""
    d = len(m)
    diag = sum((1.0 - m[i][i]) ** 2 for i in range(d))
    off = sum(m[i][j] ** 2 for i in range(d) for j in range(d) if i != j)
    return diag + lam * off


def ordered_scale_pairs(k):
    """All ordered pairs of distinct scales (r1, r2), r in [2, k]."""
    return [(r1, r2) for r1 in range(2, k + 1) for r2 in range(2, k + 1) if r1 != r2]


def per_pair_feature_consistency(scales, lam, eps_norm):
    """Mean pair penalty over every ordered pair of scales; ``scales[s]`` is
    the (B, d) batch of scale s + 2 as rows."""
    pairs = ordered_scale_pairs(len(scales) + 1)
    cross = [cross_correlation(scales[i - 2], scales[j - 2], eps_norm) for i, j in pairs]
    return sum(feature_consistency_pair(m, lam) for m in cross) / len(pairs)


def unfused_relation_chain(x, rows, w1, b1, w2, b2, g):
    """The relation MLP of one scale as separate numpy operations: gather the
    clip rows, affine, ReLU and affine per clip, then sum each group's M clips.

    ``x`` is the frame-major (n, d_x) input, ``rows`` an int array (G, M, r)
    of row indices, ``g`` the (G, d) gradient of the output. Returns the
    output and the gradients of x, w1, b1, w2 and b2 by the chain rule, each
    step in the order the unfused autograd ops took; the gradient of x is
    scattered with ``np.add.at``.
    """
    groups, m, _ = rows.shape
    inputs = x[rows].reshape(groups * m, -1)
    pre = inputs @ w1 + b1
    hidden = np.maximum(pre, 0.0)
    per_clip = hidden @ w2 + b2
    out = per_clip.reshape(groups, m, -1).sum(axis=1)

    g_clip = np.array(np.broadcast_to(g[:, None, :], (groups, m, g.shape[1]))).reshape(groups * m, -1)
    g_pre = (g_clip @ w2.T) * (pre > 0.0)
    g_x = np.zeros_like(x)
    np.add.at(g_x, rows, (g_pre @ w1.T).reshape(rows.shape + (x.shape[1],)))
    grads = {
        "x": g_x,
        "w1": inputs.T @ g_pre,
        "b1": g_pre.sum(axis=0),
        "w2": hidden.T @ g_clip,
        "b2": g_clip.sum(axis=0),
    }
    return out, grads


_MOD64 = 1 << 64


def _splitmix64_finalizer(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % _MOD64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % _MOD64
    return z ^ (z >> 31)


def eval_clips_reference(video_id, k, m_max):
    """One video's eval clips, {r: list of index tuples}, with Python ints
    mod 2**64: the key is the first 8 bytes of blake2s("eval-clips|" + id),
    combination c of scale r hashes to f(key ^ f((r << 32) | c)) with f the
    splitmix64 finalizer, and the smallest min(m_max, C(k, r)) hashes win,
    ties to the lower index, listed in lexicographic order."""
    digest = hashlib.blake2s(f"eval-clips|{video_id}".encode()).digest()
    key = int.from_bytes(digest[:8], "little")
    clips = {}
    for r in range(2, k + 1):
        combos = list(itertools.combinations(range(k), r))
        hashes = [_splitmix64_finalizer(key ^ _splitmix64_finalizer((r << 32) | c)) for c in range(len(combos))]
        ranked = sorted(range(len(combos)), key=lambda c: (hashes[c], c))
        clips[r] = [combos[c] for c in sorted(ranked[: min(m_max, len(combos))])]
    return clips


def domain_pair_reference(spec):
    """The source and target frame arrays of ``generate_domain_pair``, one
    video at a time. Class c's phases, phase offsets and source and target
    noise are the first values of generators whose spawn keys are (1, c),
    (3, c), (4, 0, c) and (4, 1, c) under ``spec.seed``; video i takes the
    i-th phase, the i-th offset and the i-th (k, d) block of each noise draw.
    The class parameters and the shift transform come from the library."""
    from sfvda.data import PHASE_OFFSET_RANGE, PHASE_WINDOW, _class_params, _shift_transform

    def draws(*key):
        return np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=key))

    n, k, d, s = spec.videos_per_class, spec.frames, spec.frame_dim, spec.shift_severity
    if s > 0.0:
        rotation, gain, bias = _shift_transform(spec)
    source, target = [], []
    for c in range(spec.classes):
        cp = _class_params(spec, c)
        period = 2.0 * np.pi / cp["freq"]
        phases = draws(1, c).uniform(0.0, PHASE_WINDOW, n) * period
        offsets = s * draws(3, c).uniform(*PHASE_OFFSET_RANGE, n) * period
        noise = [draws(4, domain, c).normal(0.0, spec.noise_std, (n, k, d)) for domain in (0, 1)]

        def clean(phase):
            t = np.arange(k)[:, None] + phase
            return cp["base"][None, :] + cp["amp"][None, :] * np.sin(cp["freq"] * t + cp["dim_phase"][None, :])

        for i in range(n):
            src = clean(phases[i])
            tgt = clean(phases[i] + offsets[i]) @ rotation.T * gain[None, :] + bias[None, :] if s > 0.0 else src
            if spec.noise_std > 0.0:
                src, tgt = src + noise[0][i], tgt + noise[1][i]
            source.append(src)
            target.append(tgt)
    return np.stack(source), np.stack(target)
