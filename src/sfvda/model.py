"""Temporal relation model: per-frame encoder, multi-scale local temporal
features from sampled frame clips, mean (or entropy-weighted) aggregation,
and a bottleneck + batch-norm + weight-normalized classifier head.

The per-frame encoder is a 2-layer ReLU MLP (d_in -> 64 -> d_enc), one
relation MLP per clip scale r maps the concatenated clip encodings
(r * d_enc -> 128 -> d), and the head is d -> d_b -> batch norm -> C with
weight normalization on the final affine. Weights are stored (fan_in,
fan_out) except the weight-normalized direction matrix, which keeps one row
per class so the per-row norm invariant is directly checkable.

Each layer runs on stacked rows as one op with a closed-form VJP: the
encoder, each scale's relation MLP, the aggregation over scales and the
head. The encoder sees all B*k frames of a batch as one
frame-major (k*B, d_in) matrix, fed to its GEMM as it is. Scale r gathers
its M_r clips of every video from that output into one (B*M_r, r*d_enc)
matrix and sums each video's hidden rows before the output layer, which is
affine: sum_m (h_m W2 + b2) = (sum_m h_m) W2 + M_r b2, so that GEMM has B
rows; with M_r = 1 the hidden rows are the sum. Backward scatters a scale's
clip gradients onto the frame rows with one batched one-hot GEMM, in the
order np.add.at would add them, for shared and per-video clips alike. The
S = k-1 local features of a batch travel as one (S, B, d) stack, index s
holding scale s+2: the head classifies the whole stack in one pass, and the
aggregation, the local weights and the consistency losses each act on it as
one operation.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import _SPEC_BOUNDS, _choice, _in_range, _require_fields, _require_version
from .data import check_float_text, decode_floats, encode_floats, parse_json, read_text
from .tensor import Tensor, _ensure_finite, _scale_mean, _standardize, _standardize_vjp, stack

__all__ = [
    "ModelParams",
    "parameter_layout",
    "init_model",
    "sample_clips",
    "eval_clip_set",
    "encode_frames",
    "local_temporal_features",
    "aggregate_overall",
    "classify",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_FORMAT_VERSION",
]

ENCODER_HIDDEN = 64
RELATION_HIDDEN = 128
BN_EPS = 1e-5
CHECKPOINT_FORMAT_VERSION = 3


@functools.cache
def _combinations(k: int, r: int) -> np.ndarray:
    """Every strictly increasing r-tuple in [0, k), in lexicographic order,
    as one read-only (C(k, r), r) int array."""
    combos = np.array(list(itertools.combinations(range(k), r)), dtype=np.intp)
    combos.flags.writeable = False
    return combos


def sample_clips(k: int, m_max: int, rng: np.random.Generator) -> dict[int, np.ndarray]:
    """Draw min(m_max, C(k, r)) distinct increasing index tuples per scale r,
    as an (M_r, r) array that the whole batch shares.

    Tuples are drawn uniformly without replacement from all combinations and
    listed in lexicographic order so the summation order is reproducible.
    """
    _in_range(k, "sample_clips: k", *_SPEC_BOUNDS["frames"])
    _in_range(m_max, "sample_clips: m_max", *_HYPERPARAMS["m_max"][1])
    clips = {}
    for r in range(2, k + 1):
        combos = _combinations(k, r)
        chosen = rng.choice(len(combos), size=min(m_max, len(combos)), replace=False)
        clips[r] = combos[np.sort(chosen)]
    return clips


_HASH_CHUNK = 1 << 20  # most hash entries built at once


def _mix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in wrapping uint64 arithmetic."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def eval_clip_set(ids, k: int, m_max: int) -> dict[int, np.ndarray]:
    """Each video's evaluation clips, derived from its id alone: per scale r
    an (n, M_r, r) array, M_r = min(m_max, C(k, r)).

    A video's key is the first 8 bytes of blake2s("eval-clips|" + id). Each
    combination c of scale r hashes to mix64(key ^ mix64((r << 32) | c)), and
    the video keeps the M_r combinations with the smallest hashes (ties to
    the lower index), listed in lexicographic order. The clips depend only on
    (id, k, m_max), so a batch derives them in one array pass.
    """
    keys = np.frombuffer(b"".join(hashlib.blake2s(f"eval-clips|{i}".encode()).digest()[:8] for i in ids), "<u8")
    clips = {}
    for r in range(2, k + 1):
        combos = _combinations(k, r)
        take = min(m_max, len(combos))
        salts = _mix64((np.uint64(r) << np.uint64(32)) | np.arange(len(combos), dtype=np.uint64))
        chosen = np.empty((len(keys), take), dtype=np.intp)
        step = max(1, _HASH_CHUNK // len(combos))
        for start in range(0, len(keys), step):
            hashes = _mix64(keys[start : start + step, None] ^ salts)
            chosen[start : start + step] = np.sort(np.argsort(hashes, axis=1, kind="stable")[:, :take], axis=1)
        clips[r] = combos[chosen]
    return clips


# head parameter name prefixes per freeze scope
HEAD_SCOPES = {"head_all": ("bot_", "bn_", "wn_"), "last_layer_only": ("wn_",)}
# a model's aggregation -> the sites its eval pass weights; an eval pass has only
# the feature site, so an adapted model gets the entry equal to its variant's
# sites & {"feature"}
AGGREGATIONS = {"mean": (), "entropy_weighted": ("feature",)}


@dataclass
class ModelParams:
    """All parameters plus batch-norm state and forward-time configuration.

    ``tensors`` maps each parameter name to its tensor in ``init_model``'s
    draw order; copy, freeze, save and load all go through it.
    """

    k: int
    d_in: int
    d_enc: int
    d: int
    d_b: int
    n_classes: int
    m_max: int
    seed: int
    tensors: dict[str, Tensor] = field(repr=False)
    bn_mean: np.ndarray = field(repr=False)
    bn_var: np.ndarray = field(repr=False)
    bn_initialized: bool = False
    bn_momentum: float = 0.9
    aggregation: str = "mean"

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.tensors.items())

    def head_parameters(self, scope: str = "head_all") -> list[tuple[str, Tensor]]:
        if scope not in HEAD_SCOPES:
            raise ValueError(f"unknown freeze scope {scope!r}")
        return [(name, t) for name, t in self.tensors.items() if name.startswith(HEAD_SCOPES[scope])]

    def trainable_parameters(self) -> list[Tensor]:
        return [t for t in self.tensors.values() if t.requires_grad]

    def freeze_head(self, scope: str = "head_all") -> None:
        for _, t in self.head_parameters(scope):
            t.requires_grad = False

    def copy(self) -> "ModelParams":
        """Bitwise copy; used to initialize the target model from the source."""
        return replace(
            self,
            tensors={name: Tensor(t.data.copy(), requires_grad=True) for name, t in self.tensors.items()},
            bn_mean=self.bn_mean.copy(),
            bn_var=self.bn_var.copy(),
        )


def parameter_layout(
    k: int, d_in: int, n_classes: int, d_enc: int, d: int, d_b: int, m_max: int
):
    """Yield (name, shape, init) for every parameter in ``init_model``'s draw order.

    The only place that names parameters. ``init`` is (bound, divisor) for a
    uniform draw in [-bound, bound] divided by divisor, or a fill: "ones",
    "zeros", or "row_norm" (the row norms of ``wn_v``). A generator, so a
    reader comparing a checkpoint against it stops at the first mismatch
    without listing, let alone allocating, the rest.
    """

    def affine(prefix: str, layer, fan_in: int, fan_out: int, divisor: int = 1):
        bound = 1.0 / math.sqrt(fan_in)
        yield f"{prefix}_w{layer}", (fan_in, fan_out), (bound, divisor)
        yield f"{prefix}_b{layer}", (fan_out,), (bound, divisor)

    yield from affine("enc", 1, d_in, ENCODER_HIDDEN)
    yield from affine("enc", 2, ENCODER_HIDDEN, d_enc)
    for r in range(2, k + 1):
        yield from affine(f"rel{r}", 1, r * d_enc, RELATION_HIDDEN)
        # local features sum over min(m_max, C(k, r)) clips; scaling the
        # output layer by that count starts every scale at a comparable
        # magnitude, so the shared head reads all of them sensibly
        yield from affine(f"rel{r}", 2, RELATION_HIDDEN, d, min(m_max, math.comb(k, r)))
    yield from affine("bot", "", d, d_b)
    yield "bn_gamma", (d_b,), "ones"
    yield "bn_beta", (d_b,), "zeros"
    yield "wn_v", (n_classes, d_b), (1.0 / math.sqrt(d_b), 1)
    yield "wn_g", (n_classes, 1), "row_norm"
    yield "wn_b", (n_classes,), "zeros"


def init_model(
    k: int,
    d_in: int,
    n_classes: int,
    d_enc: int = 64,
    d: int = 64,
    d_b: int = 64,
    m_max: int = 3,
    seed: int = 0,
) -> ModelParams:
    """Uniform fan-in initialization of every layer from one seed, drawn in
    ``parameter_layout`` order, which fixes every seeded byte."""
    _in_range(k, "init_model: k", *_SPEC_BOUNDS["frames"])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    dims = dict(k=k, d_in=d_in, n_classes=n_classes, d_enc=d_enc, d=d, d_b=d_b, m_max=m_max)
    tensors: dict[str, Tensor] = {}
    for name, shape, init in parameter_layout(**dims):
        if init == "ones":
            data = np.ones(shape)
        elif init == "zeros":
            data = np.zeros(shape)
        elif init == "row_norm":
            data = np.linalg.norm(tensors["wn_v"].data, axis=1, keepdims=True)
        else:
            bound, divisor = init
            data = rng.uniform(-bound, bound, size=shape) / divisor
        tensors[name] = Tensor(data, requires_grad=True)
    return ModelParams(**dims, seed=seed, tensors=tensors, bn_mean=np.zeros(d_b), bn_var=np.ones(d_b))


def _pooled_mlp(x: Tensor, rows: np.ndarray | None, params: ModelParams, prefix: str) -> Tensor:
    """One op, with a closed-form VJP, for the two-layer ReLU MLP ``prefix``
    over gathered rows of ``x``: with ``rows`` an int array (G, M, r), input
    m of group g concatenates rows rows[g, m, :] of ``x``, and output row g
    is (sum_m relu(in_gm W1 + b1)) W2 + M b2; with ``rows`` None, row g of
    ``x`` is group g's one input, ungathered. Every GEMM and bias add output
    is checked for finiteness, the last one by ``Tensor._from_op``.
    Precondition: ``x`` has F*G rows and rows[g] = g (mod G). The input
    gradient is then one batched GEMM with a (G, M*r, F) one-hot; OpenBLAS
    adds each row's clip positions in (m, j) order from 0, np.add.at's
    order, whenever ``x`` has more than one column (one column is a gemv).
    """
    if rows is not None and (rows.min() < 0 or rows.max() >= x.shape[0]):
        raise ValueError(f"{prefix}: frame index out of range")
    w1, b1, w2, b2 = (params.tensors[f"{prefix}_{n}"] for n in ("w1", "b1", "w2", "b2"))
    groups, m = (x.shape[0], 1) if rows is None else rows.shape[:2]
    inputs = x.data if rows is None else x.data[rows].reshape(groups * m, -1)
    hidden = _ensure_finite(inputs @ w1.data, "matmul")
    hidden += b1.data
    np.maximum(_ensure_finite(hidden, "add"), 0.0, out=hidden)
    pooled = hidden if m == 1 else hidden.reshape(groups, m, -1).sum(axis=1)
    out = _ensure_finite(pooled @ w2.data, "matmul")
    out += m * b2.data

    def vjp(g):
        active = (hidden > 0.0).reshape(groups, m, -1)
        g_pre = ((g @ w2.data.T)[:, None, :] * active).reshape(groups * m, -1)
        grads = [None, inputs.T @ g_pre, g_pre.sum(axis=0), pooled.T @ g, m * g.sum(axis=0)]
        if x.requires_grad:
            grads[0] = g_pre @ w1.data.T
            if rows is not None:
                # onehot[g, p, f] = 1 iff clip position p of group g reads row f*G + g
                onehot = (rows.reshape(groups, -1, 1) // groups == np.arange(x.shape[0] // groups)).astype(np.float64)
                g_in = grads[0].reshape(groups, onehot.shape[1], -1).transpose(0, 2, 1) @ onehot
                grads[0] = g_in.transpose(2, 0, 1).reshape(x.shape)
        return grads

    return Tensor._from_op(out, "add", (x, w1, b1, w2, b2), vjp)


def encode_frames(frames: np.ndarray, params: ModelParams) -> Tensor:
    """Encode a (B, k, d_in) batch as one frame-major (k*B, d_enc) tensor.

    All B*k frames go through the encoder as one matrix, whose row j*B + b
    is frame j of video b.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3 or frames.shape[1] != params.k or frames.shape[2] != params.d_in:
        raise ValueError(
            f"encode_frames: expected (B, {params.k}, {params.d_in}), got {frames.shape}"
        )
    stacked = Tensor(frames.transpose(1, 0, 2).reshape(-1, params.d_in))
    return _pooled_mlp(stacked, None, params, "enc")


def local_temporal_features(encodings: Tensor, clips: dict[int, np.ndarray], params: ModelParams) -> Tensor:
    """The local temporal features of a batch as one (S, B, d) stack,
    S = k-1, index s holding scale s+2. A scale's feature sums, over its
    clips, the relation MLP applied to the clip's frame encodings in
    temporal order.

    ``encodings`` is the frame-major output of ``encode_frames``. ``clips``
    maps each scale r to an int array of frame indices: (M_r, r) when the
    batch shares its clips (training, from ``sample_clips``), or (B, M_r, r)
    with each video's own clips (evaluation, from ``eval_clip_set``). Each
    scale is one ``_pooled_mlp`` op over all B*M_r clip inputs.
    """
    batch = encodings.shape[0] // params.k
    videos = np.arange(batch).reshape(batch, 1, 1)
    scales = []
    for r in range(2, params.k + 1):
        index = clips[r]
        if index.ndim not in (2, 3) or index.shape[-1] != r or index.shape[:-2] not in ((), (batch,)):
            raise ValueError(f"rel{r}: clip array of shape {index.shape} does not fit a batch of {batch}")
        scales.append(_pooled_mlp(encodings, index * batch + videos, params, f"rel{r}"))
    return stack(scales)


def aggregate_overall(lts: Tensor, weights: np.ndarray | None = None) -> Tensor:
    """Mean over scales of the (S, B, d) local features, optionally
    per-scale weighted, as one op.

    With weights w of shape (B, S): (1/S) * sum_s w[:, s] * lt_s.
    """
    _, column, mean = _scale_mean(lts.data, weights)
    inv = 1.0 / lts.shape[0]

    def vjp(g):
        g_stack = np.broadcast_to(g * inv, lts.shape)
        return (g_stack.copy() if column is None else g_stack * column,)

    # scaling a finite sum by 1/S keeps it finite, so one scan covers both
    return Tensor._from_op(mean, "sum", (lts,), vjp)


_HEAD = ("bot_w", "bot_b", "bn_gamma", "bn_beta", "wn_v", "wn_g", "wn_b")


@np.errstate(all="ignore")  # every stage is checked, so a warning would be a second report
def classify(features: Tensor, params: ModelParams, *, batch_stats: bool) -> Tensor:
    """Logits from bottleneck -> batch norm -> weight-normalized affine, as
    one op with a closed-form VJP.

    ``features`` is a (B, d) batch or an (S, B, d) stack of them, and the
    whole stack goes through one head pass: one bottleneck GEMM and one
    weight-norm matrix. With ``batch_stats`` each batch is normalized with
    its own batch statistics and the running ones are updated once per
    batch, in stack order (source training, and adaptation under
    ``last_layer_only``); otherwise the running statistics normalize
    and stay as they are (evaluation, and a head frozen with its batch norm),
    while gradients still flow to ``features``. Every stage is checked for
    finiteness under the name of the operation it once was.
    """
    head = [params.tensors[name] for name in _HEAD]
    bot_w, bot_b, gamma, beta, v, g, wn_b = (t.data for t in head)
    # the GEMMs run on the 2-D view of every batch's rows, one pass for a whole stack
    x = features.data.reshape(-1, features.shape[-1])
    rows, batch = x.shape[0], features.shape[-2]
    h = _ensure_finite(x @ bot_w, "matmul")
    h += bot_b
    _ensure_finite(h, "add")
    if batch_stats:
        z, mu, var, sigma = _standardize(h.reshape(-1, batch, h.shape[1]), BN_EPS)
        hat = z.reshape(rows, -1)
        m = params.bn_momentum
        for batch_mu, batch_var in zip(mu, var):
            params.bn_mean = m * params.bn_mean + (1.0 - m) * batch_mu.reshape(-1)
            params.bn_var = m * params.bn_var + (1.0 - m) * batch_var.reshape(-1)
        params.bn_initialized = True
    else:
        if not params.bn_initialized:
            raise RuntimeError("classify: running statistics requested before any train-mode pass")
        mu = _ensure_finite(params.bn_mean, "tensor")
        sigma = _ensure_finite(np.sqrt(params.bn_var + BN_EPS), "tensor")
        hat = _ensure_finite(_ensure_finite(h - mu, "sub") / sigma, "div")
    normed = _ensure_finite(hat * gamma, "mul")
    normed += beta
    _ensure_finite(normed, "add")
    squares = _ensure_finite(v * v, "square")
    norms = _ensure_finite(np.sqrt(_ensure_finite(squares.sum(axis=1, keepdims=True), "sum")), "sqrt")
    gain = _ensure_finite(g / norms, "div")
    w_eff = _ensure_finite(v * gain, "mul")
    logits = _ensure_finite(normed @ w_eff.T, "matmul")
    logits += wn_b

    def vjp(grad):
        # parents: features, then the head in _HEAD order
        grad = grad.reshape(rows, -1)
        needs = [features.requires_grad] + [t.requires_grad for t in head]
        grads = [None] * 8
        if needs[7]:
            grads[7] = grad.sum(axis=0)
        if needs[5] or needs[6]:
            # w_eff = v * g / |v| per class row
            g_w = grad.T @ normed
            g_gain = np.sum(g_w * v, axis=1, keepdims=True)
            grads[5] = g_w * gain - (g_gain * gain / (norms * norms)) * v
            grads[6] = g_gain / norms
        if not any(needs[:5]):
            return grads
        g_normed = grad @ w_eff
        if needs[3]:
            grads[3] = np.sum(g_normed * hat, axis=0)
        grads[4] = g_normed.sum(axis=0)
        g_hat = g_normed * gamma
        if batch_stats:
            g_h = _standardize_vjp(g_hat.reshape(z.shape), z, sigma).reshape(rows, -1)
        else:
            g_h = g_hat / sigma
        if needs[0]:
            grads[0] = (g_h @ bot_w.T).reshape(features.shape)
        if needs[1]:
            grads[1] = x.T @ g_h
        grads[2] = g_h.sum(axis=0)
        return grads

    return Tensor._from_op(logits.reshape(features.shape[:-1] + (-1,)), "add", (features, *head), vjp)


# -- checkpoints --------------------------------------------------------------

# ModelParams attribute -> (checkpoint hyperparams key, bounds as ``_in_range``
# takes them): init_model takes the attributes as keyword arguments, and the
# data sizes share the bounds of the DomainSpec fields they come from
_HYPERPARAMS = {
    "k": ("k", _SPEC_BOUNDS["frames"]), "d_in": ("d_in", _SPEC_BOUNDS["frame_dim"]), "d_enc": ("d_enc", (1,)),
    "d": ("d", (1,)), "d_b": ("d_b", (1,)), "n_classes": ("C", _SPEC_BOUNDS["classes"]), "m_max": ("M_max", (1,)),
}
_CHECKPOINT_FIELDS = ("format_version", "hyperparams", "aggregation", "rng_seed", "parameters", "batch_norm")
_BATCH_NORM_FIELDS = ("running_mean", "running_var", "initialized", "momentum")


def save_checkpoint(params: ModelParams, path) -> None:
    """Write a versioned JSON checkpoint whose arrays are ``encode_floats``
    text, so every value round-trips bit for bit.

    The bytes are ``json.dumps(doc, sort_keys=True)`` plus a newline.
    """
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "hyperparams": {key: getattr(params, attr) for attr, (key, _) in _HYPERPARAMS.items()},
        "aggregation": params.aggregation,
        "rng_seed": params.seed,
        "parameters": {name: encode_floats(t.data) for name, t in params.tensors.items()},
        "batch_norm": {
            "running_mean": encode_floats(params.bn_mean),
            "running_var": encode_floats(params.bn_var),
            "initialized": params.bn_initialized,
            "momentum": params.bn_momentum,
        },
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint. The text length of every stored array is compared
    with the element count its hyperparams give in ``parameter_layout``, and
    every scalar is checked, before any array is decoded; nothing is drawn,
    and every tensor must be finite."""
    where = f"{path}: checkpoint"
    doc = parse_json(read_text(path), where, "malformed JSON at line {exc.lineno}, column {exc.colno}")
    _require_version(doc, CHECKPOINT_FORMAT_VERSION, where)
    _require_fields(doc, _CHECKPOINT_FIELDS, where)
    hp = _require_fields(doc["hyperparams"], (key for key, _ in _HYPERPARAMS.values()), where, "hyperparams")
    dims = {
        attr: _in_range(hp[key], f"{where}: field 'hyperparams.{key}'", *bounds)
        for attr, (key, bounds) in _HYPERPARAMS.items()
    }
    seed = _in_range(doc["rng_seed"], f"{where}: field 'rng_seed'", *_SPEC_BOUNDS["seed"])
    aggregation = _choice(doc["aggregation"], tuple(AGGREGATIONS), f"{where}: field 'aggregation'")
    stored = _require_fields(doc["parameters"], (name for name, _, _ in parameter_layout(**dims)), where, "parameters")
    bn = _require_fields(doc["batch_norm"], _BATCH_NORM_FIELDS, where, "batch_norm")
    # ModelParams name -> (checkpoint field, stored text, shape), parameters first
    arrays = {name: (f"parameters.{name}", stored[name], shape) for name, shape, _ in parameter_layout(**dims)}
    arrays |= {f"bn_{s}": (f"batch_norm.running_{s}", bn[f"running_{s}"], (dims["d_b"],)) for s in ("mean", "var")}
    for field_name, text, shape in arrays.values():
        check_float_text(text, math.prod(shape), f"{where}: field {field_name!r}")
    initialized = _choice(bn["initialized"], (True, False), f"{where}: field 'batch_norm.initialized'")
    momentum = _in_range(bn["momentum"], f"{where}: field 'batch_norm.momentum'", 0.0, 1.0)
    values = {name: decode_floats(text, shape, f"{where}: field {f!r}") for name, (f, text, shape) in arrays.items()}
    return ModelParams(
        **dims,
        seed=seed,
        bn_mean=values.pop("bn_mean"),
        bn_var=values.pop("bn_var"),
        tensors={name: Tensor(data, requires_grad=True) for name, data in values.items()},
        bn_initialized=initialized,
        bn_momentum=float(momentum),
        aggregation=aggregation,
    )
