"""Temporal relation model: per-frame encoder, multi-scale local temporal
features from sampled frame clips, mean (or entropy-weighted) aggregation,
and a bottleneck + batch-norm + weight-normalized classifier head.

The per-frame encoder is a 2-layer ReLU MLP (d_in -> 64 -> d_enc), one
relation MLP per clip scale r maps the concatenated clip encodings
(r * d_enc -> 128 -> d), and the head is d -> d_b -> batch norm -> C with
weight normalization on the final affine. Weights are stored (fan_in,
fan_out) except the weight-normalized direction matrix, which keeps one row
per class so the per-row norm invariant is directly checkable.

Each layer runs on stacked rows: the encoder sees all B*k frames of a batch
as one (B*k, d_in) matrix, and scale r gathers its M_r clips of every video
into one (B*M_r, r*d_enc) matrix, so the relation MLP runs once per scale
and the clip sum is one reduction.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .tensor import (
    Tensor,
    add,
    div,
    gather_concat,
    matmul,
    mean,
    mul,
    relu,
    reshape,
    scale,
    slice_rows,
    sqrt,
    square,
    sub,
    tensor_sum,
    transpose,
    variance,
)

__all__ = [
    "ClipIndexSet",
    "ModelParams",
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
CHECKPOINT_FORMAT_VERSION = 1


@dataclass
class ClipIndexSet:
    """Per scale r in [2, k]: distinct strictly increasing frame-index tuples."""

    k: int
    clips: dict[int, list[tuple[int, ...]]]

    def __post_init__(self):
        if set(self.clips) != set(range(2, self.k + 1)):
            raise ValueError(f"ClipIndexSet: need every scale in [2, {self.k}]")
        for r, tuples in self.clips.items():
            if not tuples:
                raise ValueError(f"ClipIndexSet: scale {r} has no clips")
            if len(set(tuples)) != len(tuples):
                raise ValueError(f"ClipIndexSet: duplicate clip at scale {r}")
            for tup in tuples:
                if len(tup) != r:
                    raise ValueError(f"ClipIndexSet: tuple {tup} is not of length {r}")
                if any(not 0 <= i < self.k for i in tup):
                    raise ValueError(f"ClipIndexSet: index out of range in {tup}")
                if any(b <= a for a, b in zip(tup, tup[1:])):
                    raise ValueError(f"ClipIndexSet: tuple {tup} is not strictly increasing")


@functools.cache
def _combinations(k: int, r: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.combinations(range(k), r))


def sample_clips(k: int, m_max: int, rng: np.random.Generator) -> ClipIndexSet:
    """Draw min(m_max, C(k, r)) distinct increasing index tuples per scale.

    Tuples are drawn uniformly without replacement from all combinations and
    listed in lexicographic order so the summation order is reproducible.
    """
    if k < 3:
        raise ValueError(f"sample_clips: need k >= 3, got {k}")
    if m_max < 1:
        raise ValueError(f"sample_clips: need m_max >= 1, got {m_max}")
    clips: dict[int, list[tuple[int, ...]]] = {}
    for r in range(2, k + 1):
        combos = _combinations(k, r)
        take = min(m_max, len(combos))
        chosen = rng.choice(len(combos), size=take, replace=False)
        clips[r] = [combos[i] for i in sorted(chosen)]
    return ClipIndexSet(k=k, clips=clips)


@functools.lru_cache(maxsize=None)
def eval_clip_set(video_id: str, k: int, m_max: int) -> ClipIndexSet:
    """Deterministic per-video clip choice for evaluation, derived from the id.

    Built once per (video_id, k, m_max) and then served from a cache that
    holds one entry per distinct video seen; the returned set is shared and
    must not be mutated.
    """
    digest = hashlib.blake2s(f"eval-clips|{video_id}".encode()).digest()
    seed = int.from_bytes(digest[:8], "little")
    return sample_clips(k, m_max, np.random.default_rng(np.random.SeedSequence(seed)))


def _init_affine(rng: np.random.Generator, fan_in: int, fan_out: int) -> tuple[Tensor, Tensor]:
    bound = 1.0 / math.sqrt(fan_in)
    w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    b = rng.uniform(-bound, bound, size=fan_out)
    return Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)


@dataclass
class ModelParams:
    """All parameters plus batch-norm state and forward-time configuration."""

    k: int
    d_in: int
    d_enc: int
    d: int
    d_b: int
    n_classes: int
    m_max: int
    seed: int
    enc_w1: Tensor = field(repr=False, default=None)
    enc_b1: Tensor = field(repr=False, default=None)
    enc_w2: Tensor = field(repr=False, default=None)
    enc_b2: Tensor = field(repr=False, default=None)
    relation: dict[int, tuple[Tensor, Tensor, Tensor, Tensor]] = field(repr=False, default=None)
    bot_w: Tensor = field(repr=False, default=None)
    bot_b: Tensor = field(repr=False, default=None)
    bn_gamma: Tensor = field(repr=False, default=None)
    bn_beta: Tensor = field(repr=False, default=None)
    bn_mean: np.ndarray = field(repr=False, default=None)
    bn_var: np.ndarray = field(repr=False, default=None)
    bn_initialized: bool = False
    bn_momentum: float = 0.9
    wn_v: Tensor = field(repr=False, default=None)
    wn_g: Tensor = field(repr=False, default=None)
    wn_b: Tensor = field(repr=False, default=None)
    aggregation: str = "mean"
    confidence_mode: str = "normalized"

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [
            ("enc_w1", self.enc_w1),
            ("enc_b1", self.enc_b1),
            ("enc_w2", self.enc_w2),
            ("enc_b2", self.enc_b2),
        ]
        for r in sorted(self.relation):
            w1, b1, w2, b2 = self.relation[r]
            out += [(f"rel{r}_w1", w1), (f"rel{r}_b1", b1), (f"rel{r}_w2", w2), (f"rel{r}_b2", b2)]
        out += self.head_parameters()
        return out

    def head_parameters(self, scope: str = "head_all") -> list[tuple[str, Tensor]]:
        last = [("wn_v", self.wn_v), ("wn_g", self.wn_g), ("wn_b", self.wn_b)]
        if scope == "last_layer_only":
            return last
        if scope == "head_all":
            return [
                ("bot_w", self.bot_w),
                ("bot_b", self.bot_b),
                ("bn_gamma", self.bn_gamma),
                ("bn_beta", self.bn_beta),
            ] + last
        raise ValueError(f"unknown freeze scope {scope!r}")

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def trainable_parameters(self) -> list[Tensor]:
        return [t for t in self.parameters() if t.requires_grad]

    def zero_grad(self) -> None:
        for t in self.parameters():
            t.grad = None

    def freeze_head(self, scope: str = "head_all") -> None:
        for _, t in self.head_parameters(scope):
            t.requires_grad = False

    def copy(self) -> "ModelParams":
        """Bitwise copy; used to initialize the target model from the source."""
        tensors = dict(self.named_parameters())
        new = replace(self, bn_mean=self.bn_mean.copy(), bn_var=self.bn_var.copy())
        return new._with_parameters(lambda name: tensors[name].data.copy())

    def _with_parameters(self, value_of) -> "ModelParams":
        """Set every parameter that named_parameters() lists to a fresh
        trainable tensor of ``value_of(name)``, in that order; returns self."""
        # placeholder slots, so that named_parameters() lists every scale's names
        self.relation = {r: (None,) * 4 for r in range(2, self.k + 1)}
        relation: dict[int, list[Tensor]] = {r: [] for r in self.relation}
        for name, _ in self.named_parameters():
            t = Tensor(value_of(name), requires_grad=True)
            if name.startswith("rel"):
                relation[int(name[3 : name.index("_")])].append(t)
            else:
                setattr(self, name, t)
        self.relation = {r: tuple(ts) for r, ts in relation.items()}
        return self


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
    """Uniform fan-in initialization of every layer from one seed."""
    if k < 3:
        raise ValueError(f"init_model: need k >= 3, got {k}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    params = ModelParams(
        k=k, d_in=d_in, d_enc=d_enc, d=d, d_b=d_b, n_classes=n_classes, m_max=m_max, seed=seed
    )
    params.enc_w1, params.enc_b1 = _init_affine(rng, d_in, ENCODER_HIDDEN)
    params.enc_w2, params.enc_b2 = _init_affine(rng, ENCODER_HIDDEN, d_enc)
    params.relation = {}
    for r in range(2, k + 1):
        w1, b1 = _init_affine(rng, r * d_enc, RELATION_HIDDEN)
        w2, b2 = _init_affine(rng, RELATION_HIDDEN, d)
        # local features sum over min(m_max, C(k, r)) clips; scaling the
        # output layer by that count starts every scale at a comparable
        # magnitude, so the shared head reads all of them sensibly
        clip_count = min(m_max, math.comb(k, r))
        w2 = Tensor(w2.data / clip_count, requires_grad=True)
        b2 = Tensor(b2.data / clip_count, requires_grad=True)
        params.relation[r] = (w1, b1, w2, b2)
    params.bot_w, params.bot_b = _init_affine(rng, d, d_b)
    params.bn_gamma = Tensor(np.ones(d_b), requires_grad=True)
    params.bn_beta = Tensor(np.zeros(d_b), requires_grad=True)
    params.bn_mean = np.zeros(d_b)
    params.bn_var = np.ones(d_b)
    bound = 1.0 / math.sqrt(d_b)
    v = rng.uniform(-bound, bound, size=(n_classes, d_b))
    params.wn_v = Tensor(v, requires_grad=True)
    params.wn_g = Tensor(np.linalg.norm(v, axis=1, keepdims=True), requires_grad=True)
    params.wn_b = Tensor(np.zeros(n_classes), requires_grad=True)
    return params


def _mlp2(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    return add(matmul(relu(add(matmul(x, w1), b1)), w2), b2)


def encode_frames(frames: np.ndarray, params: ModelParams) -> list[Tensor]:
    """Encode a (B, k, d_in) batch into k per-frame (B, d_enc) tensors.

    All B*k frames go through the encoder as one frame-major matrix, whose
    row block j is frame j of every video.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3 or frames.shape[1] != params.k or frames.shape[2] != params.d_in:
        raise ValueError(
            f"encode_frames: expected (B, {params.k}, {params.d_in}), got {frames.shape}"
        )
    batch = frames.shape[0]
    stacked = Tensor(frames.transpose(1, 0, 2).reshape(params.k * batch, params.d_in))
    enc = _mlp2(stacked, params.enc_w1, params.enc_b1, params.enc_w2, params.enc_b2)
    return [slice_rows(enc, j * batch, (j + 1) * batch) for j in range(params.k)]


def _clip_index_arrays(clips, batch: int, k: int) -> dict[int, np.ndarray]:
    """Normalize shared or per-video clip sets to (B, M_r, r) index arrays."""
    if isinstance(clips, ClipIndexSet):
        if clips.k != k:
            raise ValueError(f"clip set built for k={clips.k}, model has k={k}")
        return {
            r: np.broadcast_to(np.asarray(tuples), (batch, len(tuples), r))
            for r, tuples in clips.clips.items()
        }
    clip_list = list(clips)
    if len(clip_list) != batch:
        raise ValueError(f"need one clip set per video: {len(clip_list)} for batch {batch}")
    return {r: np.array([c.clips[r] for c in clip_list]) for r in range(2, k + 1)}


def local_temporal_features(
    encodings: list[Tensor], clips, params: ModelParams
) -> list[Tensor]:
    """One local temporal feature per scale: sum over the scale's clips of the
    relation MLP applied to the clip's frame encodings in temporal order.

    ``clips`` is either one ClipIndexSet shared by the batch (training) or a
    sequence with one ClipIndexSet per video (evaluation). Returns a list of
    (B, d) tensors ordered by scale, index 0 being scale 2. Each scale
    gathers all B*M_r clip inputs into one matrix and runs its relation MLP
    once.
    """
    batch = encodings[0].shape[0]
    index_arrays = _clip_index_arrays(clips, batch, params.k)
    features = []
    for r in range(2, params.k + 1):
        idx = index_arrays[r]
        per_clip = _mlp2(gather_concat(encodings, idx), *params.relation[r])
        features.append(tensor_sum(reshape(per_clip, (batch, idx.shape[1], params.d)), axis=1))
    return features


def aggregate_overall(lts: list[Tensor], weights: np.ndarray | None = None) -> Tensor:
    """Mean of the local features over scales, optionally per-scale weighted.

    With weights w of shape (B, k-1): (1/(k-1)) * sum_r w_r * lt_r.
    """
    if weights is None:
        acc = lts[0]
        for lt in lts[1:]:
            acc = add(acc, lt)
        return scale(acc, 1.0 / len(lts))
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (lts[0].shape[0], len(lts)):
        raise ValueError(
            f"aggregate_overall: weights shape {weights.shape} does not match "
            f"batch {lts[0].shape[0]} x scales {len(lts)}"
        )
    acc = None
    for i, lt in enumerate(lts):
        term = mul(lt, Tensor(weights[:, i : i + 1]))
        acc = term if acc is None else add(acc, term)
    return scale(acc, 1.0 / len(lts))


def _weight_norm_logits(x: Tensor, params: ModelParams) -> Tensor:
    norms = sqrt(tensor_sum(square(params.wn_v), axis=1, keepdims=True))
    w_eff = mul(params.wn_v, div(params.wn_g, norms))
    return add(matmul(x, transpose(w_eff)), params.wn_b)


def classify(
    features: Tensor, params: ModelParams, mode: str = "train", frozen: bool = False
) -> Tensor:
    """Logits from bottleneck -> batch norm -> weight-normalized affine.

    ``mode="train"`` normalizes with batch statistics and updates the running
    ones; ``mode="eval"`` uses the running statistics. A frozen head always
    uses running statistics and never updates them (the classifier is a fixed
    function regardless of mode), but gradients still flow to ``features``.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"classify: unknown mode {mode!r}")
    h = add(matmul(features, params.bot_w), params.bot_b)
    use_batch_stats = mode == "train" and not frozen
    if use_batch_stats:
        mu = mean(h, axis=0, keepdims=True)
        var = variance(h, axis=0, keepdims=True)
        hat = div(sub(h, mu), sqrt(add(var, Tensor(np.array([[BN_EPS]])))))
        m = params.bn_momentum
        params.bn_mean = m * params.bn_mean + (1.0 - m) * mu.data.reshape(-1)
        params.bn_var = m * params.bn_var + (1.0 - m) * var.data.reshape(-1)
        params.bn_initialized = True
    else:
        if not params.bn_initialized:
            raise RuntimeError("classify: eval requested before any train-mode pass")
        hat = div(
            sub(h, Tensor(params.bn_mean[None, :])),
            Tensor(np.sqrt(params.bn_var + BN_EPS)[None, :]),
        )
    normed = add(mul(hat, params.bn_gamma), params.bn_beta)
    return _weight_norm_logits(normed, params)


# -- checkpoints --------------------------------------------------------------


def save_checkpoint(params: ModelParams, path) -> None:
    """Write a versioned JSON checkpoint; floats round-trip exactly."""
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "hyperparams": {
            "k": params.k,
            "d_in": params.d_in,
            "d_enc": params.d_enc,
            "d": params.d,
            "d_b": params.d_b,
            "C": params.n_classes,
            "M_max": params.m_max,
        },
        "aggregation": params.aggregation,
        "confidence_mode": params.confidence_mode,
        "rng_seed": params.seed,
        "parameters": {name: t.data.tolist() for name, t in params.named_parameters()},
        "batch_norm": {
            "running_mean": params.bn_mean.tolist(),
            "running_var": params.bn_var.tolist(),
            "initialized": params.bn_initialized,
            "momentum": params.bn_momentum,
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def _field(mapping, name: str, path, where: str = ""):
    if not isinstance(mapping, dict) or name not in mapping:
        raise ValueError(f"{path}: checkpoint has no field {where + name!r}")
    return mapping[name]


def load_checkpoint(path) -> ModelParams:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed checkpoint JSON") from exc
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"{path}: checkpoint format_version {version} is not supported")
    hp = _field(doc, "hyperparams", path)

    def hyper(name):
        return _field(hp, name, path, "hyperparams.")

    params = ModelParams(
        k=hyper("k"),
        d_in=hyper("d_in"),
        d_enc=hyper("d_enc"),
        d=hyper("d"),
        d_b=hyper("d_b"),
        n_classes=hyper("C"),
        m_max=hyper("M_max"),
        seed=_field(doc, "rng_seed", path),
        aggregation=doc.get("aggregation", "mean"),
        confidence_mode=doc.get("confidence_mode", "normalized"),
    )
    raw = _field(doc, "parameters", path)
    params._with_parameters(lambda name: _field(raw, name, path, "parameters."))
    bn = _field(doc, "batch_norm", path)

    def stat(name):
        return _field(bn, name, path, "batch_norm.")

    params.bn_mean = np.asarray(stat("running_mean"), dtype=np.float64)
    params.bn_var = np.asarray(stat("running_var"), dtype=np.float64)
    params.bn_initialized = bool(stat("initialized"))
    params.bn_momentum = float(stat("momentum"))
    return params
