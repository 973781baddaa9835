"""Independent brute-force references used by the test suite.

Written with plain Python loops and math so they share no code path with
the library implementations they check. The exceptions are the
``unfused_*`` references: numpy references for the fused ops (relation MLP,
classifier head, prediction objective) that run their arithmetic one
operation at a time and take each gradient by the chain rule through those
operations, so they can be compared with the library's closed forms.
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


def unfused_head(x, head, running, batch_stats, g, eps=1e-5):
    """The classifier head as separate numpy operations: bottleneck affine,
    batch norm, then the weight-normalized affine w = v * g / |v| per class.

    ``x`` is a (B, d) batch or an (S, B, d) stack of them. ``head`` maps
    bot_w, bot_b, bn_gamma, bn_beta, wn_v, wn_g, wn_b to arrays; ``running``
    is [mean, var, momentum]. With ``batch_stats`` each batch is normalized
    by its own statistics and the running ones are updated in place, batch
    by batch; otherwise the running statistics normalize. ``g`` is the
    gradient of the logits, of their shape. Returns the logits and the
    gradients of x and of every head parameter, each by the chain rule
    through the operations in forward order.
    """
    shape = x.shape
    x, g = x.reshape(-1, shape[-1]), g.reshape(-1, g.shape[-1])
    h = x @ head["bot_w"] + head["bot_b"]
    if batch_stats:
        grouped = h.reshape(-1, shape[-2], h.shape[1])
        n = grouped.shape[1]
        mu = grouped.mean(axis=1, keepdims=True)
        centered = grouped - grouped.mean(axis=1, keepdims=True)
        var = (centered * centered).mean(axis=1, keepdims=True)
        diff = grouped - mu
        denom = np.sqrt(var + eps)
        hat = (diff / denom).reshape(h.shape)
        for block_mu, block_var in zip(mu, var):
            running[0] = running[2] * running[0] + (1.0 - running[2]) * block_mu.reshape(-1)
            running[1] = running[2] * running[1] + (1.0 - running[2]) * block_var.reshape(-1)
    else:
        denom = np.sqrt(running[1] + eps)
        hat = (h - running[0]) / denom
    normed = hat * head["bn_gamma"] + head["bn_beta"]
    v, gain_num = head["wn_v"], head["wn_g"]
    norms = np.sqrt((v * v).sum(axis=1, keepdims=True))
    gain = gain_num / norms
    w_eff = v * gain
    logits = normed @ w_eff.T + head["wn_b"]

    grads = {"wn_b": g.sum(axis=0)}
    g_normed = g @ w_eff
    g_w = (normed.T @ g).T
    g_v = g_w * gain
    g_gain = (g_w * v).sum(axis=1, keepdims=True)
    grads["wn_g"] = g_gain / norms
    g_norms = -g_gain * gain_num / (norms * norms)
    g_sq = g_norms * 0.5 / norms
    grads["wn_v"] = g_v + g_sq * 2.0 * v
    grads["bn_gamma"] = (g_normed * hat).sum(axis=0)
    grads["bn_beta"] = g_normed.sum(axis=0)
    g_hat = g_normed * head["bn_gamma"]
    if batch_stats:
        g_hat = g_hat.reshape(grouped.shape)
        g_diff = g_hat / denom
        g_denom = (-g_hat * diff / (denom * denom)).sum(axis=1, keepdims=True)
        g_var = g_denom * 0.5 / denom
        g_grouped = g_var * 2.0 * centered / n + g_diff
        g_mu = -g_diff.sum(axis=1, keepdims=True)
        g_grouped = g_grouped + np.broadcast_to(g_mu / n, grouped.shape)
        g_h = g_grouped.reshape(h.shape)
    else:
        g_h = g_hat / denom
    grads["bot_w"] = x.T @ g_h
    grads["bot_b"] = g_h.sum(axis=0)
    grads["x"] = (g_h @ head["bot_w"].T).reshape(shape)
    return logits.reshape(shape[:-1] + (-1,)), grads


def _unfused_log_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _unfused_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax_vjp(out, g):
    return g - np.exp(out) * g.sum(axis=-1, keepdims=True)


def _softmax_vjp(out, g):
    return out * (g - (g * out).sum(axis=-1, keepdims=True))


def unfused_prediction_objective(local, overall, coeffs, weights=None, labels=None, eps_smooth=0.0):
    """The terms on the logits as separate numpy operations, each term's
    gradient by the chain rule through them, scaled by its coefficient.

    ``local`` is the (S, B, C) stack, scaled per (video, scale)
    by the (B, S) ``weights`` when given; A is its logit mean over scales.
    pc_local is the mean over scales and videos of KL(softmax(local) ||
    softmax(A)), pc_overall the mean L1 distance of the log-softmaxes of
    ``overall`` and A, im the mean entropy of softmax(overall) plus the KL of
    its batch marginal to uniform, ce the mean cross-entropy of ``overall``
    against (1 - eps) * onehot(labels) + eps / C, and pl_ce the same with
    eps = 0. Returns the weighted sum, each term's value, and the gradients
    of local and overall.
    """
    batch, n_classes = overall.shape
    values = {}
    g_overall = np.zeros_like(overall)
    g_local = None
    if "pc_local" in coeffs or "pc_overall" in coeffs:
        n_scales = local.shape[0]
        column = None if weights is None else weights.T.reshape(n_scales, batch, 1)
        scaled = local if column is None else local * column
        average = scaled.sum(axis=0) * (1.0 / n_scales)
        lq = _unfused_log_softmax(average)
        g_scaled = np.zeros_like(scaled)
        g_average = np.zeros_like(average)
        if "pc_local" in coeffs:
            lp = _unfused_log_softmax(scaled)
            sp = _unfused_softmax(scaled)
            diff = lp - lq
            per = (sp * diff).sum(axis=2)
            values["pc_local"] = per.mean()
            g_prod = np.broadcast_to((coeffs["pc_local"] / per.size) * np.ones(per.shape)[:, :, None], scaled.shape)
            g_diff = g_prod * sp
            g_scaled = g_scaled + _softmax_vjp(sp, g_prod * diff) + _log_softmax_vjp(lp, g_diff)
            g_average = g_average + _log_softmax_vjp(lq, -g_diff.sum(axis=0))
        if "pc_overall" in coeffs:
            lo = _unfused_log_softmax(overall)
            gap = lo - lq
            values["pc_overall"] = np.abs(gap).sum(axis=1).mean()
            g_gap = (coeffs["pc_overall"] / batch) * np.ones(gap.shape) * np.sign(gap)
            g_overall = g_overall + _log_softmax_vjp(lo, g_gap)
            g_average = g_average + _log_softmax_vjp(lq, -g_gap)
        g_scaled = g_scaled + np.broadcast_to(g_average * (1.0 / n_scales), scaled.shape)
        g_local = g_scaled if column is None else g_scaled * column
    if "im" in coeffs:
        probs = _unfused_softmax(overall)
        logp = _unfused_log_softmax(overall)
        plogp = (probs * logp).sum(axis=1)
        marginal = probs.mean(axis=0)
        shifted = np.log(marginal) + np.log(n_classes)
        values["im"] = -plogp.mean() + (marginal * shifted).sum()
        c = coeffs["im"]
        g_plogp = np.full((batch, 1), -c / batch)
        g_marginal = c * shifted + c * marginal / marginal
        g_probs = g_plogp * logp + np.broadcast_to(g_marginal / batch, probs.shape)
        g_overall = g_overall + _softmax_vjp(probs, g_probs) + _log_softmax_vjp(logp, g_plogp * probs)
    for name, eps in (("ce", eps_smooth), ("pl_ce", 0.0)):
        if name in coeffs:
            target = np.full((batch, n_classes), eps / n_classes)
            target[np.arange(batch), labels] += 1.0 - eps
            logp = _unfused_log_softmax(overall)
            values[name] = (target * logp).sum() * (-1.0 / batch)
            g_overall = g_overall + _log_softmax_vjp(logp, target * (-coeffs[name] / batch))
    total = sum(coeffs[name] * values[name] for name in coeffs)
    return total, values, {"local": g_local, "overall": g_overall}


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
