"""Source training, source-free adaptation, evaluation, ablations, export.

The adaptation loop never reads target labels except to fill the diagnostic
accuracy columns; deleting labels from the target dataset changes no model
parameter. The classifier head is frozen per ``freeze_scope`` and checked
bitwise after every run. All randomness derives from the config seed, so a
(config, seed) pair fully determines every output byte.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import lwm, pseudolabel
from .config import VARIANTS, RunConfig
from .data import Dataset, batch_iterator, generate_domain_pair
from .losses import feature_consistency_total, prediction_objective
from .model import (
    AGGREGATIONS,
    ModelParams,
    classify,
    encode_frames,
    eval_clip_set,
    init_model,
    local_temporal_features,
    sample_clips,
)
from .tensor import Tensor, no_grad, weighted_sum

__all__ = [
    "SGD",
    "MetricsRow",
    "EvalResult",
    "train_source",
    "adapt_target",
    "evaluate",
    "run_ablation",
    "export_embeddings",
    "write_metrics",
    "check_compatible",
]

# (shuffle, clip) spawn tags of each training loop's random streams
_STREAM_TAGS = {"train_source": (101, 102), "adapt_target": (201, 202)}

EVAL_BATCH = 64


class SGD:
    """Plain SGD with momentum and L2 weight decay, deterministic in order.
    ``update`` steps one parameter and drops its gradient; ``_epoch`` hands
    it to the backward sweep, so each parameter steps as soon as its
    gradient is complete and no gradient outlives its backward."""

    def __init__(self, params: list[Tensor], lr: float, momentum: float = 0.9, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity = {p: np.zeros_like(p.data) for p in self.params}

    def update(self, p: Tensor) -> None:
        """Step ``p`` on its gradient and drop it; a parameter without a
        gradient, or one this optimizer does not own, is left as it is."""
        v = self.velocity.get(p)
        if v is None or p.grad is None:
            return
        g = self.weight_decay * p.data
        g += p.grad
        p.grad = None
        v *= self.momentum
        v += g
        p.data -= np.multiply(v, self.lr, out=g)

    def step(self) -> None:
        for p in self.params:
            self.update(p)


@dataclass
class MetricsRow:
    epoch: int
    ce: float = 0.0
    fc: float = 0.0
    pc_local: float = 0.0
    pc_overall: float = 0.0
    im: float = 0.0
    pl_ce: float = 0.0
    total: float = 0.0
    accuracy: float | None = None
    pl_accuracy: float | None = None


METRICS_COLUMNS = tuple(f.name for f in fields(MetricsRow))


def write_metrics(rows: list[MetricsRow], path) -> None:
    """CSV, one row per epoch; byte-identical across reruns."""
    with open(path, "w") as fh:
        fh.write(",".join(METRICS_COLUMNS) + "\n")
        for row in rows:
            cells = []
            for col in METRICS_COLUMNS:
                value = getattr(row, col)
                if value is None:
                    cells.append("")
                elif col == "epoch":
                    cells.append(str(value))
                else:
                    cells.append(repr(float(value)))
            fh.write(",".join(cells) + "\n")


@dataclass
class EvalResult:
    accuracy: float
    per_class: dict[int, tuple[int, int]]
    eval_pass: tuple = field(repr=False)  # (overall features, logits), dataset order


def check_compatible(params: ModelParams, ds: Dataset, where: str = "") -> None:
    """``where`` prefixes a mismatch error, to name the files."""
    for field, have, want in (
        ("k", params.k, ds.k),
        ("d_in", params.d_in, ds.d_in),
        ("C", params.n_classes, ds.n_classes),
    ):
        if have != want:
            raise ValueError(f"{where}checkpoint/dataset mismatch on {field}: checkpoint {have}, dataset {want}")


def _check_batch_size(batch_size: int, ds: Dataset, caller: str) -> None:
    """Training drops short batches, so a batch larger than the dataset
    would leave every epoch without a single step."""
    if batch_size > len(ds):
        raise ValueError(
            f"{caller}: batch_size {batch_size} exceeds the {len(ds)} videos "
            f"of the {ds.domain} dataset, so no training batch can be formed"
        )


def _head(model: ModelParams, lts: Tensor, *, batch_stats: bool, sites=(), local=False, overall=True):
    """The one path from an (S, B, d) local stack to (local logits, site
    weights, overall feature, overall logits). The local head pass runs if
    ``local`` or a site reads it, the overall one if ``overall``, else None."""
    local_logits = classify(lts, model, batch_stats=batch_stats) if local or sites else None
    feature, weights = lwm.apply_weights(lts, local_logits, sites)
    overall_logits = classify(feature, model, batch_stats=batch_stats) if overall else None
    return local_logits, weights, feature, overall_logits


def _eval_batches(model: ModelParams, ds: Dataset):
    """(rows, (S, B, d) local features) per eval batch, in order, with each video's eval clips."""
    for start in range(0, len(ds), EVAL_BATCH):
        rows = slice(start, start + EVAL_BATCH)
        enc = encode_frames(ds.frames[rows], model)
        yield rows, local_temporal_features(enc, eval_clip_set(ds.ids[rows], model.k, model.m_max), model)


def _full_eval_pass(model: ModelParams, ds: Dataset):
    """Overall features and logits for every video, in dataset order."""
    feats, logits = [], []
    with no_grad():
        for _, lts in _eval_batches(model, ds):
            _, _, overall, out = _head(model, lts, batch_stats=False, sites=AGGREGATIONS[model.aggregation])
            feats.append(overall.data)
            logits.append(out.data)
    return np.concatenate(feats, axis=0), np.concatenate(logits, axis=0)


def evaluate(model: ModelParams, ds: Dataset) -> EvalResult:
    """Top-1 accuracy with per-class breakdown, deterministic eval forward."""
    if ds.labels is None:
        raise ValueError("evaluate: dataset has no labels")
    check_compatible(model, ds)
    eval_pass = _full_eval_pass(model, ds)
    predicted = np.argmax(eval_pass[1], axis=1)
    per_class: dict[int, tuple[int, int]] = {}
    for c in range(ds.n_classes):
        mask = ds.labels == c
        per_class[c] = (int((predicted[mask] == c).sum()), int(mask.sum()))
    return EvalResult(float((predicted == ds.labels).mean()), per_class, eval_pass)


def _epoch(
    model: ModelParams, ds: Dataset, cfg: RunConfig, opt: SGD, epoch: int, caller: str, coeffs: dict, labels,
    *, batch_stats: bool, sites=(),
):
    """One epoch of mini-batch SGD over ``ds`` with ``caller``'s random
    streams, each step on ``_batch_loss`` of its batch with ``coeffs``
    against the batch's rows of ``labels``, the epoch's (N,) targets or
    None. Returns each component's and the ``total`` loss's batch mean."""
    shuffle_tag, clips_tag = _STREAM_TAGS[caller]
    sums: dict[str, float] = defaultdict(float)
    n_batches = 0
    shuffle_seed = np.random.SeedSequence(cfg.seed, spawn_key=(shuffle_tag, epoch))
    for b, idx in enumerate(batch_iterator(ds, cfg.batch_size, shuffle_seed)):
        clip_seed = np.random.SeedSequence(cfg.seed, spawn_key=(clips_tag, epoch, b))
        clips = sample_clips(model.k, model.m_max, np.random.default_rng(clip_seed))
        lts = local_temporal_features(encode_frames(ds.frames[idx], model), clips, model)
        batch_labels = None if labels is None else labels[idx]
        loss, components = _batch_loss(model, cfg, coeffs, lts, batch_labels, batch_stats=batch_stats, sites=sites)
        total = loss.item()
        if not np.isfinite(total):
            raise RuntimeError(f"{caller}: non-finite loss at epoch {epoch} batch {b}")
        loss.backward(opt.update)
        for name, value in components.items():
            sums[name] += value
        sums["total"] += total
        n_batches += 1
    return {name: value / max(1, n_batches) for name, value in sums.items()}


def _batch_loss(model: ModelParams, cfg: RunConfig, coeffs: dict, lts: Tensor, labels, *, batch_stats: bool, sites=()):
    """The batch objective ``_epoch`` minimizes in both training loops: the
    components ``coeffs`` weights, from ``feature_consistency_total`` and one
    ``prediction_objective`` (ce / pl_ce against ``labels``), running only the
    head passes its terms read. Returns the loss and each component's value."""
    terms, components = [], {}
    if "fc" in coeffs:
        fc = feature_consistency_total(lts, cfg.lam, cfg.eps_norm)
        terms.append((coeffs["fc"], fc))
        components["fc"] = fc.item()
    on_logits = {name: c for name, c in coeffs.items() if name != "fc"}
    if on_logits:
        local_logits, weights, _, overall_logits = _head(
            model, lts, batch_stats=batch_stats, sites=sites,
            local="pc_local" in on_logits or "pc_overall" in on_logits, overall=on_logits.keys() != {"pc_local"})
        loss, values = prediction_objective(local_logits, overall_logits, on_logits, weights, labels, cfg.eps_smooth)
        terms.append((1.0, loss))
        components |= values
    return weighted_sum(terms), components


def train_source(source: Dataset, cfg: RunConfig) -> tuple[ModelParams, list[MetricsRow]]:
    """Minimize smoothed cross-entropy; return the best-by-source-accuracy model."""
    if source.labels is None:
        raise ValueError("train_source: source dataset must be labeled")
    _check_batch_size(cfg.batch_size, source, "train_source")
    model = init_model(
        k=source.k,
        d_in=source.d_in,
        n_classes=source.n_classes,
        d_enc=cfg.d_enc,
        d=cfg.d,
        d_b=cfg.d_b,
        m_max=cfg.m_max,
        seed=cfg.seed,
    )
    opt = SGD(model.trainable_parameters(), cfg.lr_source, cfg.momentum, cfg.weight_decay)

    rows: list[MetricsRow] = []
    best_acc, best_model = -1.0, None
    for epoch in range(1, cfg.epochs_source + 1):
        means = _epoch(model, source, cfg, opt, epoch, "train_source", {"ce": 1.0}, source.labels, batch_stats=True)
        acc = evaluate(model, source).accuracy
        rows.append(MetricsRow(epoch=epoch, accuracy=acc, **means))
        # ties prefer the later epoch: accuracy saturates early while the
        # smoothed objective keeps calibrating per-scale predictions
        if acc >= best_acc:
            best_acc, best_model = acc, model.copy()
    return best_model, rows


def _frozen_state(model: ModelParams, scope: str) -> dict[str, bytes]:
    """Bytes of the head parameters frozen under ``scope``, plus the
    batch-norm running statistics when ``scope`` freezes them too."""
    state = {name: t.data.tobytes() for name, t in model.head_parameters(scope)}
    if scope == "head_all":
        state["batch-norm running stats"] = model.bn_mean.tobytes() + model.bn_var.tobytes()
    return state


def adapt_target(source_model: ModelParams, target: Dataset, cfg: RunConfig) -> tuple[ModelParams, list[MetricsRow]]:
    """Source-free adaptation with the variant's objective; head stays frozen.

    Per epoch: regenerate pseudo-labels over the full target set (when the
    variant uses them), then mini-batch steps on the variant's loss. Target
    labels feed only the diagnostic accuracy columns.
    """
    check_compatible(source_model, target)
    model = source_model.copy()
    variant = VARIANTS[cfg.variant]
    coeffs = variant.coefficients(cfg)
    # source_only, or a variant whose coefficients are all zero, optimizes
    # nothing: it returns the source model as it is, with no metrics rows
    if not any(c > 0.0 for c in coeffs.values()):
        return model, []
    _check_batch_size(cfg.batch_size, target, "adapt_target")

    model.freeze_head(cfg.freeze_scope)
    frozen = _frozen_state(model, cfg.freeze_scope)
    use_pl = "pl_ce" in coeffs
    # a head frozen with its batch norm normalizes with the running statistics
    batch_stats = cfg.freeze_scope != "head_all"
    opt = SGD(model.trainable_parameters(), cfg.lr_adapt, cfg.momentum, cfg.weight_decay)
    model.aggregation = next(name for name, sites in AGGREGATIONS.items() if set(sites) == variant.sites & {"feature"})

    rows: list[MetricsRow] = []
    last_eval = None  # the previous epoch's evaluation, of the model as it still is
    for epoch in range(1, cfg.epochs_adapt + 1):
        pseudo, pl_acc = None, None
        if use_pl:
            feats, logits_all = _full_eval_pass(model, target) if last_eval is None else last_eval.eval_pass
            pseudo = pseudolabel.generate_pseudo_labels(feats, logits_all, rounds=cfg.pl_rounds)
            if target.labels is not None:
                pl_acc = float((pseudo == target.labels).mean())

        means = _epoch(
            model, target, cfg, opt, epoch, "adapt_target", coeffs, pseudo, batch_stats=batch_stats, sites=variant.sites
        )
        last_eval = evaluate(model, target) if target.labels is not None else None
        accuracy = None if last_eval is None else last_eval.accuracy
        rows.append(MetricsRow(epoch=epoch, accuracy=accuracy, pl_accuracy=pl_acc, **means))

    after = _frozen_state(model, cfg.freeze_scope)
    for name, data in frozen.items():
        if after[name] != data:
            raise RuntimeError(f"frozen parameter drift detected: {name}")
    return model, rows


def export_embeddings(model: ModelParams, ds: Dataset, level: str, path) -> None:
    """CSV of deterministic eval-mode features: one row per (video, scale) at
    level=local, one per video at level=overall."""
    if level not in ("local", "overall"):
        raise ValueError(f"export_embeddings: unknown level {level!r}")
    check_compatible(model, ds)
    labels = [""] * len(ds) if ds.labels is None else [str(label) for label in ds.labels.tolist()]
    with open(path, "w") as fh:
        fh.write("id,scale,label," + ",".join(f"f{i}" for i in range(model.d)) + "\n")
        with no_grad():
            for rows, lts in _eval_batches(model, ds):
                if level == "local":
                    columns = [(str(r), scale.tolist()) for r, scale in enumerate(lts.data, start=2)]
                else:
                    head = _head(model, lts, batch_stats=False, sites=AGGREGATIONS[model.aggregation], overall=False)
                    columns = [("overall", head[2].data.tolist())]
                for row, (video_id, label) in enumerate(zip(ds.ids[rows], labels[rows])):
                    for scale_name, values in columns:
                        fh.write(f"{video_id},{scale_name},{label},{','.join(map(repr, values[row]))}\n")


def run_ablation(cfg: RunConfig, variants: list[str], seeds: list[int]):
    """Adapt every variant on every seed; one source model per seed is shared.

    Returns {variant: {seed: target accuracy}}; datasets and training both
    derive from the seed, so rows are paired replicates.
    """
    # every name and seed is checked before the first seed trains a source model
    for variant in variants:
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
    for kind, values in (("variant", variants), ("seed", seeds)):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"{kind} {value!r} is listed twice")
    run_cfgs = [replace(cfg, seed=seed) for seed in seeds]
    results: dict[str, dict[int, float]] = {v: {} for v in variants}
    for run_cfg in run_cfgs:
        source, target = generate_domain_pair(run_cfg.domain_spec())
        source_model, _ = train_source(source, run_cfg)
        unlabeled = target.without_labels()  # no per-epoch target evaluation
        for variant in variants:
            adapted, _ = adapt_target(source_model, unlabeled, replace(run_cfg, variant=variant))
            results[variant][run_cfg.seed] = evaluate(adapted, target).accuracy
    return results


def ablation_csv(results: dict[str, dict[int, float]], seeds: list[int]) -> str:
    lines = ["variant," + ",".join(f"seed{s}" for s in seeds) + ",mean"]
    for variant, per_seed in results.items():
        accs = [per_seed[s] for s in seeds]
        cells = [variant] + [repr(a) for a in accs] + [repr(float(np.mean(accs)))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
