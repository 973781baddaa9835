import hashlib
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sfvda import lwm, pseudolabel
from sfvda import model as M
from sfvda import pipeline as P
from sfvda import tensor as T
from sfvda.config import VARIANTS, RunConfig
from sfvda.data import generate_domain_pair
from sfvda.tensor import Tensor, finite_diff_check


def tiny_cfg(**kw):
    defaults = dict(
        classes=3,
        videos_per_class=8,
        frames=4,
        frame_dim=6,
        noise_std=0.05,
        epochs_source=3,
        epochs_adapt=2,
        batch_size=6,
        d_enc=8,
        d=8,
        d_b=8,
        seed=3,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


@pytest.fixture(scope="module")
def trained():
    cfg = tiny_cfg()
    source, target = generate_domain_pair(cfg.domain_spec())
    model, rows = P.train_source(source, cfg)
    return cfg, source, target, model, rows


def params_bytes(params):
    return b"".join(t.data.tobytes() for _, t in params.named_parameters())


class TestTrainSource:
    def test_zero_learning_rate_keeps_parameters(self):
        cfg = tiny_cfg(lr_source=0.0, epochs_source=1)
        source, _ = generate_domain_pair(cfg.domain_spec())
        before = M.init_model(
            k=source.k, d_in=source.d_in, n_classes=source.n_classes,
            d_enc=cfg.d_enc, d=cfg.d, d_b=cfg.d_b, m_max=cfg.m_max, seed=cfg.seed,
        )
        model, _ = P.train_source(source, cfg)
        assert params_bytes(model) == params_bytes(before)

    def test_determinism(self):
        cfg = tiny_cfg()
        source, _ = generate_domain_pair(cfg.domain_spec())
        a, rows_a = P.train_source(source, cfg)
        b, rows_b = P.train_source(source, cfg)
        assert params_bytes(a) == params_bytes(b)
        for ra, rb in zip(rows_a, rows_b):
            assert (ra.ce, ra.accuracy) == (rb.ce, rb.accuracy)

    def test_metrics_rows(self, trained):
        cfg, _, _, _, rows = trained
        assert [r.epoch for r in rows] == list(range(1, cfg.epochs_source + 1))
        for r in rows:
            assert np.isfinite(r.ce)
            assert 0.0 <= r.accuracy <= 1.0

    def test_requires_labels(self, trained):
        cfg, _, target, _, _ = trained
        with pytest.raises(ValueError, match="label"):
            P.train_source(target.without_labels(), cfg)


class TestAdaptTarget:
    def test_source_only_returns_input_model(self, trained):
        cfg, _, target, model, _ = trained
        adapted, rows = P.adapt_target(model, target, replace(cfg, variant="source_only"))
        assert params_bytes(adapted) == params_bytes(model)
        assert rows == []

    # The RunConfig weights that, set to zero, zero every term of a
    # variant's objective.
    ZEROED_WEIGHTS = {
        "full": ("beta_tc", "beta_im", "beta_ce"),
        "fc": ("beta_fc",),
        "pc": ("alpha_local", "alpha_overall"),
        "pc_no_overall": ("alpha_local",),
        "tc": ("beta_fc", "beta_pc"),
        "na": ("beta_tc", "beta_im", "beta_ce"),
        "a_at_f": ("beta_tc", "beta_im", "beta_ce"),
        "a_at_p": ("beta_tc", "beta_im", "beta_ce"),
        "shot_baseline": ("beta_im", "beta_ce"),
    }

    @pytest.mark.parametrize("scope", ["head_all", "last_layer_only"])
    @pytest.mark.parametrize("variant", list(ZEROED_WEIGHTS))
    def test_all_zero_weights_change_nothing(self, trained, variant, scope):
        cfg, _, target, model, _ = trained
        zeroed = replace(cfg, variant=variant, freeze_scope=scope, **{f: 0.0 for f in self.ZEROED_WEIGHTS[variant]})
        adapted, rows = P.adapt_target(model, target, zeroed)
        assert params_bytes(adapted) == params_bytes(model)
        # a head pass with batch statistics would move the running ones
        assert adapted.bn_mean.tobytes() == model.bn_mean.tobytes()
        assert adapted.bn_var.tobytes() == model.bn_var.tobytes()
        assert rows == []
        acc_a = P.evaluate(adapted, target).accuracy
        acc_b = P.evaluate(model, target).accuracy
        assert acc_a == acc_b

    def test_frozen_head_is_bitwise_unchanged(self, trained):
        cfg, _, target, model, _ = trained
        adapted, _ = P.adapt_target(model, target, cfg)
        for (name, a), (_, b) in zip(
            model.head_parameters("head_all"), adapted.head_parameters("head_all")
        ):
            assert a.data.tobytes() == b.data.tobytes(), name
        assert adapted.bn_mean.tobytes() == model.bn_mean.tobytes()
        assert adapted.bn_var.tobytes() == model.bn_var.tobytes()
        # the feature extractor did move
        assert adapted.tensors["enc_w1"].data.tobytes() != model.tensors["enc_w1"].data.tobytes()

    @pytest.mark.parametrize(
        "scope, nudged",
        [("head_all", "wn_v"), ("last_layer_only", "wn_v"), ("head_all", "batch-norm running stats")],
        ids=["head_all-wn_v", "last_layer_only-wn_v", "head_all-bn_stats"],
    )
    def test_frozen_head_drift_is_detected(self, trained, monkeypatch, scope, nudged):
        cfg, _, target, model, _ = trained
        adapted = []
        freeze_head, update = M.ModelParams.freeze_head, P.SGD.update

        def capturing_freeze_head(params, freeze_scope):
            adapted.append(params)
            freeze_head(params, freeze_scope)

        def nudging_update(opt, p):
            update(opt, p)
            if nudged == "wn_v":
                adapted[0].tensors["wn_v"].data[0, 0] += 1e-3
            else:
                adapted[0].bn_mean = adapted[0].bn_mean + 1e-3

        monkeypatch.setattr(M.ModelParams, "freeze_head", capturing_freeze_head)
        monkeypatch.setattr(P.SGD, "update", nudging_update)
        with pytest.raises(RuntimeError, match=f"frozen parameter drift detected: {nudged}"):
            P.adapt_target(model, target, replace(cfg, freeze_scope=scope))

    def test_last_layer_only_scope(self, trained):
        cfg, _, target, model, _ = trained
        adapted, _ = P.adapt_target(model, target, replace(cfg, freeze_scope="last_layer_only"))
        for (name, a), (_, b) in zip(
            model.head_parameters("last_layer_only"), adapted.head_parameters("last_layer_only")
        ):
            assert a.data.tobytes() == b.data.tobytes(), name
        assert adapted.tensors["bot_w"].data.tobytes() != model.tensors["bot_w"].data.tobytes()

    def test_unlabeled_target_gives_same_checkpoint(self, trained, tmp_path):
        cfg, _, target, model, _ = trained
        with_labels, _ = P.adapt_target(model, target, cfg)
        without, _ = P.adapt_target(model, target.without_labels(), cfg)
        M.save_checkpoint(with_labels, tmp_path / "a.json")
        M.save_checkpoint(without, tmp_path / "b.json")
        digest_a = hashlib.sha256((tmp_path / "a.json").read_bytes()).hexdigest()
        digest_b = hashlib.sha256((tmp_path / "b.json").read_bytes()).hexdigest()
        assert digest_a == digest_b

    def test_without_labels_shares_frames_and_changes_no_parameter(self, trained):
        cfg, _, target, model, _ = trained
        stripped = target.without_labels()
        assert stripped.frames is target.frames and stripped.ids == target.ids
        assert stripped.labels is None and target.labels is not None
        with_labels, _ = P.adapt_target(model, target, cfg)
        without, _ = P.adapt_target(model, stripped, cfg)
        for (name, a), (_, b) in zip(with_labels.named_parameters(), without.named_parameters()):
            assert a.data.tobytes() == b.data.tobytes(), name
        assert with_labels.bn_mean.tobytes() == without.bn_mean.tobytes()
        assert with_labels.bn_var.tobytes() == without.bn_var.tobytes()

    @pytest.mark.parametrize("labeled", [True, False])
    def test_one_eval_pass_per_epoch(self, trained, monkeypatch, labeled):
        # pseudo-labels reuse the previous epoch's evaluation; only the
        # first epoch, or a target without labels, needs a pass of its own
        cfg, _, target, model, _ = trained
        calls = []
        original = P._full_eval_pass
        monkeypatch.setattr(P, "_full_eval_pass", lambda *a, **kw: calls.append(1) or original(*a, **kw))
        _, rows = P.adapt_target(model, target if labeled else target.without_labels(), cfg)
        assert len(calls) == cfg.epochs_adapt + (1 if labeled else 0)
        assert len(rows) == cfg.epochs_adapt

    def test_last_row_accuracy_is_that_of_the_returned_model(self, trained):
        cfg, _, target, model, _ = trained
        adapted, rows = P.adapt_target(model, target, cfg)
        assert rows[-1].accuracy == P.evaluate(adapted, target).accuracy

    def test_objective_decomposition(self, trained):
        cfg, _, target, model, _ = trained
        _, rows = P.adapt_target(model, target, cfg)
        for r in rows:
            pc = r.pc_local * cfg.alpha_local + r.pc_overall * cfg.alpha_overall
            tc = r.fc * cfg.beta_fc + pc * cfg.beta_pc
            total = tc * cfg.beta_tc + r.im * cfg.beta_im + r.pl_ce * cfg.beta_ce
            assert abs(total - r.total) < 1e-10

    def test_determinism(self, trained):
        cfg, _, target, model, _ = trained
        a, rows_a = P.adapt_target(model, target, cfg)
        b, rows_b = P.adapt_target(model, target, cfg)
        assert params_bytes(a) == params_bytes(b)
        assert [r.total for r in rows_a] == [r.total for r in rows_b]

    def test_variant_aggregation_modes(self, trained):
        cfg, _, target, model, _ = trained
        for variant, aggregation in (
            ("full", "entropy_weighted"),
            ("na", "mean"),
            ("a_at_f", "entropy_weighted"),
            ("a_at_p", "mean"),
            ("shot_baseline", "mean"),
        ):
            adapted, _ = P.adapt_target(
                model, target, replace(cfg, variant=variant, epochs_adapt=1)
            )
            assert adapted.aggregation == aggregation, variant

    def test_unknown_variant_rejected(self, trained):
        cfg, _, target, model, _ = trained
        with pytest.raises(ValueError):
            P.adapt_target(model, target, replace(cfg, variant="bogus"))

    def test_batch_size_larger_than_target_rejected(self, trained):
        cfg, _, target, model, _ = trained
        with pytest.raises(ValueError, match=f"batch_size 25 exceeds the {len(target)} videos"):
            P.adapt_target(model, target, replace(cfg, batch_size=25))

    def test_one_step_graph_stays_small(self, monkeypatch):
        # one full-variant step at k=8, batch 16 traced 919 nodes when every
        # scale pair and every clip was its own subgraph
        cfg = tiny_cfg(classes=2, frames=8, epochs_source=1, epochs_adapt=1, batch_size=16)
        source, target = generate_domain_pair(cfg.domain_spec())
        model, _ = P.train_source(source, cfg)
        sizes = []
        trace = T.Graph.trace

        def counting_trace(root):
            graph = trace(root)
            sizes.append(len(graph.nodes))
            return graph

        monkeypatch.setattr(T.Graph, "trace", staticmethod(counting_trace))
        P.adapt_target(model, target, cfg)
        assert len(sizes) == 1
        assert sizes[0] < 400

    def test_one_step_graph_of_the_stacked_scales(self, monkeypatch):
        # the scales travel as one (S, B, d) stack through the head, the local
        # weights and the consistency losses (277 nodes when each of those
        # looped over the 7 scales), and the encoder and each scale's relation
        # MLP are one op each (160 nodes as chains of 5 and 8 ops): 107 nodes.
        # The head and the prediction terms are one op each (75 op nodes as
        # chains of primitives), so 32 trainable leaves and 15 ops remain:
        # encoder, 7 relation scales, stack, 2 heads, aggregation,
        # feature consistency, prediction objective and their weighted sum
        cfg = tiny_cfg(classes=2, frames=8, epochs_source=1, epochs_adapt=1, batch_size=16)
        source, target = generate_domain_pair(cfg.domain_spec())
        model, _ = P.train_source(source, cfg)
        sizes = []
        trace = T.Graph.trace

        def counting_trace(root):
            graph = trace(root)
            sizes.append(len(graph.nodes))
            return graph

        monkeypatch.setattr(T.Graph, "trace", staticmethod(counting_trace))
        P.adapt_target(model, target, cfg)
        assert len(sizes) == 1
        assert sizes[0] == 32 + 15

    @pytest.mark.parametrize("variant", ["pc", "tc", "na", "full"])
    def test_pc_overall_vanishes_without_a_weighting_site(self, trained, variant):
        # under head_all batch norm uses running statistics, so the frozen
        # head is affine: classifying the mean local feature gives the mean
        # of the local logits, which is the average pc_overall compares with
        cfg, _, target, model, _ = trained
        _, rows = P.adapt_target(model, target, replace(cfg, variant=variant))
        largest = max(abs(row.pc_overall) for row in rows)
        if VARIANTS[variant].sites:
            assert largest > 0.0
        else:
            assert largest <= 1e-12

    @pytest.mark.parametrize(
        "variant, passes",
        [("full", 2), ("pc", 2), ("tc", 2), ("na", 2), ("a_at_f", 2), ("a_at_p", 2),
         ("pc_no_overall", 1), ("shot_baseline", 1), ("fc", 0)],
    )
    @pytest.mark.parametrize("scope", list(M.HEAD_SCOPES))
    def test_a_step_runs_only_the_head_passes_its_terms_read(self, trained, monkeypatch, variant, passes, scope):
        # the local pass runs for a pc term or a weighting site, the overall
        # pass for any term but pc_local; eval passes run without a graph
        cfg, _, target, model, _ = trained
        graph_passes, steps = [], []
        classify, backward = P.classify, Tensor.backward
        monkeypatch.setattr(P, "classify", lambda *a, **kw: graph_passes.append(T._grad_enabled) or classify(*a, **kw))
        monkeypatch.setattr(Tensor, "backward", lambda loss, *a: steps.append(loss) or backward(loss, *a))
        P.adapt_target(model, target, replace(cfg, variant=variant, freeze_scope=scope))
        assert steps
        assert sum(graph_passes) == passes * len(steps)

    def test_mismatched_dataset_rejected(self, trained):
        cfg, _, _, model, _ = trained
        other_cfg = tiny_cfg(frame_dim=9)
        _, other_target = generate_domain_pair(other_cfg.domain_spec())
        with pytest.raises(ValueError, match="d_in"):
            P.adapt_target(model, other_target, cfg)


def test_adaptation_draws_training_clips_with_the_models_m_max(trained):
    # training and evaluation both use the checkpoint's clip count, so a
    # config m_max other than the model's changes no adapted parameter
    cfg, _, target, model, _ = trained
    assert model.m_max == cfg.m_max == 3
    adapted = [P.adapt_target(model, target, replace(cfg, m_max=m_max))[0] for m_max in (1, 3)]
    assert params_bytes(adapted[0]) == params_bytes(adapted[1])


def test_no_gradient_outlives_its_backward(trained, monkeypatch):
    # the backward sweep steps each parameter and drops its gradient, so after
    # every backward of an epoch no trainable parameter holds a gradient, and
    # the returned model holds none, labeled target or not
    cfg, source, target, model, _ = trained
    optimizers, backwards = [], []

    class RecordingSGD(P.SGD):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)

    backward = Tensor.backward

    def checked_backward(loss, *args):
        backward(loss, *args)
        backwards.append(all(p.grad is None for p in optimizers[-1].params))

    monkeypatch.setattr(P, "SGD", RecordingSGD)
    monkeypatch.setattr(Tensor, "backward", checked_backward)
    trained_model, _ = P.train_source(source, replace(cfg, epochs_source=1))
    models = [trained_model] + [P.adapt_target(model, ds, cfg)[0] for ds in (target, target.without_labels())]
    assert len(optimizers) == 3 and backwards and all(backwards)
    for m in models:
        assert [name for name, t in m.tensors.items() if t.grad is not None] == []


class TestEpochLabels:
    """The labels ``_epoch`` hands to ``_batch_loss``: each batch's rows of the
    epoch's targets, or None for an objective without a label term."""

    @staticmethod
    def steps(monkeypatch):
        """Record, per step, (the pseudo-labels last generated, the batch's
        rows, the labels ``_batch_loss`` received), filled in as training runs."""
        steps, state = [], {"pseudo": None}
        batch_iterator, batch_loss, generate = P.batch_iterator, P._batch_loss, pseudolabel.generate_pseudo_labels

        def recording_iterator(*args, **kwargs):
            for idx in batch_iterator(*args, **kwargs):
                state["idx"] = idx
                yield idx

        def recording_loss(model, cfg, coeffs, lts, labels, **kwargs):
            steps.append((state["pseudo"], state["idx"], None if labels is None else labels.copy()))
            return batch_loss(model, cfg, coeffs, lts, labels, **kwargs)

        def recording_generate(*args, **kwargs):
            state["pseudo"] = generate(*args, **kwargs).copy()
            return state["pseudo"]

        monkeypatch.setattr(P, "batch_iterator", recording_iterator)
        monkeypatch.setattr(P, "_batch_loss", recording_loss)
        monkeypatch.setattr(pseudolabel, "generate_pseudo_labels", recording_generate)
        return steps

    @pytest.mark.parametrize("labeled", [True, False])
    def test_adaptation_batches_get_the_epochs_pseudo_labels_at_their_rows(self, trained, monkeypatch, labeled):
        cfg, _, target, model, _ = trained
        steps = self.steps(monkeypatch)
        P.adapt_target(model, target if labeled else target.without_labels(), replace(cfg, epochs_adapt=3))
        assert len(steps) == 3 * (len(target) // cfg.batch_size)
        for pseudo, idx, labels in steps:
            assert labels.dtype == pseudo.dtype and np.array_equal(labels, pseudo[idx])
        # the pseudo-labels move between epochs, so a stale epoch's would show
        assert len({pseudo.tobytes() for pseudo, _, _ in steps}) > 1

    def test_source_batches_get_their_labels(self, trained, monkeypatch):
        cfg, source, _, _, _ = trained
        steps = self.steps(monkeypatch)
        P.train_source(source, replace(cfg, epochs_source=2))
        assert len(steps) == 2 * (len(source) // cfg.batch_size)
        for pseudo, idx, labels in steps:
            assert pseudo is None and np.array_equal(labels, source.labels[idx])

    def test_an_objective_without_pl_ce_gets_none(self, trained, monkeypatch):
        cfg, _, target, model, _ = trained
        steps = self.steps(monkeypatch)
        P.adapt_target(model, target, replace(cfg, variant="tc"))
        assert len(steps) == cfg.epochs_adapt * (len(target) // cfg.batch_size)
        assert all(pseudo is None and labels is None for pseudo, _, labels in steps)


class TestStepInBackward:
    """``_epoch`` steps each parameter from the backward sweep, as soon as its
    gradient is complete: that gives the bits of a whole backward followed by
    ``SGD.step``, over every step of a run."""

    @staticmethod
    def backward_then_step(monkeypatch):
        backward = Tensor.backward

        def whole_backward_then_step(loss, on_leaf):
            backward(loss)
            on_leaf.__self__.step()  # on_leaf is the optimizer's bound ``update``

        monkeypatch.setattr(Tensor, "backward", whole_backward_then_step)

    @staticmethod
    def same_bits(a, b):
        assert params_bytes(a) == params_bytes(b)
        assert a.bn_mean.tobytes() == b.bn_mean.tobytes() and a.bn_var.tobytes() == b.bn_var.tobytes()

    # full under last_layer_only: the bot_ and bn_ parameters feed both head
    # passes; fc under last_layer_only: they are trainable but get no gradient
    @pytest.mark.parametrize(
        "variant, scope", [("full", "last_layer_only"), ("full", "head_all"), ("fc", "last_layer_only")]
    )
    def test_adaptation_matches_backward_then_step(self, trained, monkeypatch, variant, scope):
        cfg, _, target, model, _ = trained
        run_cfg = replace(cfg, variant=variant, freeze_scope=scope, epochs_adapt=3)
        inside, inside_rows = P.adapt_target(model, target, run_cfg)
        self.backward_then_step(monkeypatch)
        after, after_rows = P.adapt_target(model, target, run_cfg)
        self.same_bits(inside, after)
        assert inside_rows == after_rows
        assert inside.tensors["enc_w1"].data.tobytes() != model.tensors["enc_w1"].data.tobytes()
        if variant == "fc":
            # weight decay would move a parameter the optimizer stepped
            assert run_cfg.weight_decay > 0.0
            for name in ("bot_w", "bot_b", "bn_gamma", "bn_beta"):
                assert inside.tensors[name].requires_grad, name
                assert inside.tensors[name].data.tobytes() == model.tensors[name].data.tobytes(), name

    def test_source_training_matches_backward_then_step(self, trained, monkeypatch):
        cfg, source, _, _, _ = trained
        inside, inside_rows = P.train_source(source, cfg)
        self.backward_then_step(monkeypatch)
        after, after_rows = P.train_source(source, cfg)
        self.same_bits(inside, after)
        assert inside_rows == after_rows


class TestPeakMemory:
    """At the deployed shape (k = 8, d_enc = 64, batch 16, 320 videos, the
    ``adapt_unlabeled`` benchmark's), neither one backward nor one eval pass
    allocates as much as the trainable parameters take (2.81 MB). They took
    3.07 and 5.94 MB when a step held every gradient at once and the eval
    pass ran 256 videos at a time, and take 0.32 and 1.89 MB now."""

    @pytest.fixture(scope="class")
    def deployed(self):
        cfg = RunConfig(classes=8, videos_per_class=40, frames=8, frame_dim=32, batch_size=16, variant="full", seed=1)
        _, target = generate_domain_pair(cfg.domain_spec())
        model = M.init_model(k=8, d_in=32, n_classes=8, d_enc=64, seed=1)
        # one train-mode pass, as source training leaves it, for the running statistics
        M.classify(Tensor(np.random.default_rng(0).normal(size=(16, 64))), model, batch_stats=True)
        model.freeze_head(cfg.freeze_scope)
        opt = P.SGD(model.trainable_parameters(), cfg.lr_adapt, cfg.momentum, cfg.weight_decay)
        trainable = sum(p.data.nbytes for p in opt.params)
        assert (len(target), cfg.batch_size, trainable) == (320, 16, 2_813_440)
        return cfg, target, model, opt, trainable

    @staticmethod
    def traced_peak(run, prepare=lambda: None):
        """Bytes ``run(prepare())`` allocates at its peak above what was live
        when it began; ``prepare`` is traced too, so what ``run`` frees of
        its allocations counts."""
        tracemalloc.start()
        try:
            prepared = prepare()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run(prepared)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_one_backward(self, deployed):
        cfg, target, model, opt, trainable = deployed
        variant = VARIANTS[cfg.variant]
        clips = M.sample_clips(model.k, model.m_max, np.random.default_rng(0))

        def batch_loss():
            lts = M.local_temporal_features(M.encode_frames(target.frames[:16], model), clips, model)
            labels = np.zeros(16, dtype=np.int64)
            coeffs = variant.coefficients(cfg)
            return P._batch_loss(model, cfg, coeffs, lts, labels, batch_stats=False, sites=variant.sites)[0]

        # the parameters holding a gradient each time the sweep hands one over
        holding = []

        def update(p):
            holding.append(sum(q.grad is not None for q in opt.params))
            opt.update(p)

        peak = self.traced_peak(lambda loss: loss.backward(update), batch_loss)
        assert holding == [1] * len(opt.params)
        assert all(p.grad is None for p in opt.params)
        assert peak < trainable

    def test_one_eval_pass(self, deployed):
        _, target, model, _, trainable = deployed
        assert self.traced_peak(lambda _: P._full_eval_pass(model, target)) < trainable


class TestSGD:
    def test_step_matches_the_update_formula_bitwise(self):
        rng = np.random.default_rng(4)
        p = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
        opt = P.SGD([p], lr=0.03, momentum=0.9, weight_decay=1e-3)
        data, velocity = p.data.copy(), np.zeros_like(p.data)
        for _ in range(4):
            p.grad = rng.normal(size=p.shape)
            velocity = 0.9 * velocity + (p.grad + 1e-3 * data)
            data = data - 0.03 * velocity
            opt.step()
            assert p.data.tobytes() == data.tobytes()
            assert opt.velocity[p].tobytes() == velocity.tobytes()

    def test_parameter_without_gradient_is_skipped(self):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = P.SGD([p], lr=0.1, weight_decay=0.5)
        opt.step()
        assert np.array_equal(p.data, np.ones(3))

    def test_update_leaves_a_parameter_it_does_not_own_as_it_is(self):
        p, other = Tensor(np.ones(3), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
        opt = P.SGD([p], lr=0.1, weight_decay=0.5)
        other.grad = np.ones(3)
        opt.update(other)
        assert np.array_equal(other.data, np.ones(3)) and np.array_equal(other.grad, np.ones(3))


class TestEvaluate:
    def test_chance_level_on_random_labels(self):
        from sfvda.data import Dataset

        big = tiny_cfg(videos_per_class=64, epochs_source=1, seed=9)
        source, _ = generate_domain_pair(big.domain_spec())
        model, _ = P.train_source(source, big)
        labels = np.random.default_rng(0).integers(0, big.classes, len(source))
        shuffled = Dataset(source.frames, source.ids, labels, "scrambled", source.n_classes)
        acc = P.evaluate(model, shuffled).accuracy
        assert abs(acc - 1.0 / big.classes) < 0.12

    def test_clip_cap_above_every_scale_count_changes_no_logit(self, trained, tmp_path):
        # M_max only caps the clips drawn per scale, C(k, r) at most, so any
        # cap at or above the largest C(k, r) gives the same eval clips
        _, _, target, model, _ = trained
        capped = model.copy()
        capped.m_max = max(math.comb(model.k, r) for r in range(2, model.k + 1))
        M.save_checkpoint(capped, tmp_path / "capped.json")
        doc = json.loads((tmp_path / "capped.json").read_text())
        doc["hyperparams"]["M_max"] = 10**12
        (tmp_path / "huge.json").write_text(json.dumps(doc, sort_keys=True))
        logits = [
            P.evaluate(M.load_checkpoint(tmp_path / name), target).eval_pass[1] for name in ("capped.json", "huge.json")
        ]
        assert logits[0].tobytes() == logits[1].tobytes()

    def test_needs_labels(self, trained):
        cfg, _, target, model, _ = trained
        with pytest.raises(ValueError, match="labels"):
            P.evaluate(model, target.without_labels())

    def test_repeatable(self, trained):
        cfg, _, target, model, _ = trained
        assert P.evaluate(model, target).accuracy == P.evaluate(model, target).accuracy

    def test_per_class_counts(self, trained):
        cfg, _, target, model, _ = trained
        res = P.evaluate(model, target)
        assert sum(n for _, n in res.per_class.values()) == len(target)
        correct = sum(c for c, _ in res.per_class.values())
        assert res.accuracy == pytest.approx(correct / len(target))


class TestExport:
    def test_local_row_count(self, trained, tmp_path):
        cfg, _, target, model, _ = trained
        path = tmp_path / "local.csv"
        P.export_embeddings(model, target, "local", path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + (cfg.frames - 1) * len(target)

    def test_overall_row_count_and_fields(self, trained, tmp_path):
        cfg, _, target, model, _ = trained
        path = tmp_path / "overall.csv"
        P.export_embeddings(model, target, "overall", path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(target)
        assert len(lines[1].split(",")) == cfg.d + 3

    def test_re_export_identical_bytes(self, trained, tmp_path):
        cfg, _, target, model, _ = trained
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        P.export_embeddings(model, target, "overall", a)
        P.export_embeddings(model, target, "overall", b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_level(self, trained, tmp_path):
        cfg, _, target, model, _ = trained
        with pytest.raises(ValueError, match="level"):
            P.export_embeddings(model, target, "bogus", tmp_path / "x.csv")

    def test_unlabeled_rows_have_empty_label_field(self, trained, tmp_path):
        cfg, _, target, model, _ = trained
        path = tmp_path / "unlabeled.csv"
        P.export_embeddings(model, target.without_labels(), "overall", path)
        line = path.read_text().splitlines()[1]
        cells = line.split(",")
        assert cells[1] == "overall"
        assert cells[2] == ""


class TestMetricsFile:
    def test_write_metrics_format(self, trained, tmp_path):
        *_, rows = trained
        path = tmp_path / "metrics.csv"
        P.write_metrics(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,ce,fc,pc_local,pc_overall,im,pl_ce,total,accuracy,pl_accuracy"
        assert len(lines) == 1 + len(rows)
        # wall time never reaches the file, so bytes are reproducible
        again = tmp_path / "again.csv"
        P.write_metrics(rows, again)
        assert path.read_bytes() == again.read_bytes()


class TestRunAblation:
    def test_single_variant_single_seed_matches_direct_path(self):
        # run_ablation adapts on the unlabeled target, so the pseudo-label
        # variants (full, shot_baseline) make each epoch's eval pass
        # themselves instead of reusing the previous epoch's evaluation
        cfg = tiny_cfg()
        results = P.run_ablation(cfg, ["source_only", "fc", "full", "shot_baseline"], [cfg.seed])
        source, target = generate_domain_pair(cfg.domain_spec())
        model, _ = P.train_source(source, cfg)
        direct = P.evaluate(model, target).accuracy
        assert results["source_only"][cfg.seed] == direct
        for variant in ("fc", "full", "shot_baseline"):
            adapted, _ = P.adapt_target(model, target, replace(cfg, variant=variant))
            assert results[variant][cfg.seed] == P.evaluate(adapted, target).accuracy, variant

    def test_unknown_variant_fails_before_any_training(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("run_ablation trained a source model")

        monkeypatch.setattr(P, "train_source", no_training)
        with pytest.raises(ValueError, match="^unknown variant 'bogus'$"):
            P.run_ablation(tiny_cfg(), ["full", "bogus"], [1, 2])

    def test_csv_mean_column(self):
        results = {"full": {1: 0.5, 2: 0.7}}
        text = P.ablation_csv(results, [1, 2])
        lines = text.splitlines()
        assert lines[0] == "variant,seed1,seed2,mean"
        cells = lines[1].split(",")
        assert cells[0] == "full"
        assert float(cells[3]) == pytest.approx(0.6)


def _unread(objective):
    """Name prefixes of the parameters no term of ``objective`` reads: fc
    acts on the local features alone and runs no head pass."""
    return M.HEAD_SCOPES["head_all"] if objective == "fc" else ()


def _gradient_cases():
    """(objective, freeze scope, parameter) for every trainable parameter of
    the tiny model that the objective reads: five adaptation variants under
    both scopes, and the source objective, which freezes nothing."""
    names = [name for name, _, _ in M.parameter_layout(k=4, d_in=5, n_classes=3, d_enc=4, d=6, d_b=5, m_max=3)]
    for variant in ("full", "tc", "shot_baseline", "fc", "pc_no_overall"):
        for scope in M.HEAD_SCOPES:
            for name in names:
                if not name.startswith(M.HEAD_SCOPES[scope] + _unread(variant)):
                    yield variant, scope, name
    for name in names:
        yield "ce", None, name


class TestWholeModelGradient:
    """Central differences through encoder, relation MLPs and head, for each
    trainable parameter, of ``_batch_loss``, the loss ``_epoch`` steps on:
    with each adaptation variant's ``Variant.coefficients`` and sites, and
    with source training's ``{"ce": 1.0}``. The LWM weights
    are coefficients (never differentiated), so they are taken once at the
    base point and held fixed."""

    @staticmethod
    def tiny_batch():
        model = M.init_model(k=4, d_in=5, n_classes=3, d_enc=4, d=6, d_b=5, seed=17)
        # one train-mode pass, as source training leaves it, for the running statistics
        M.classify(Tensor(np.random.default_rng(19).normal(size=(8, 6))), model, batch_stats=True)
        rng = np.random.default_rng(18)
        frames = rng.normal(size=(6, 4, 5))
        labels = rng.integers(0, 3, size=6)
        return model, frames, labels, M.sample_clips(4, model.m_max, rng)

    @staticmethod
    def vanishes(objective, scope, name):
        """Batch norm over a block with batch statistics cancels a shift
        shared by every row of the block. ``bot_b`` shifts every row of
        every block; ``rel<r>_b2`` shifts all of scale r's rows, which the
        overall feature passes on to every video alike unless the feature
        site weights it per video. Feature consistency normalizes each
        scale over the batch, so it cancels ``rel<r>_b2`` under any scope."""
        if objective == "fc":
            return name.startswith("rel") and name.endswith("_b2")
        if scope == "head_all":
            return False
        if name == "bot_b":
            return True
        return name.startswith("rel") and name.endswith("_b2") and objective != "full"

    @pytest.mark.parametrize("objective, scope, name", list(_gradient_cases()))
    def test_gradient_matches_central_differences(self, monkeypatch, objective, scope, name):
        model, frames, labels, clips = self.tiny_batch()
        cfg = tiny_cfg(variant=objective if scope else "full", freeze_scope=scope or "head_all")
        if objective == "pc_no_overall":
            # pc_local alone is quadratic in the small logit gaps of the
            # untrained head, so some of its gradients are of order 1e-8
            cfg = replace(cfg, alpha_local=100.0)

        def features():
            return M.local_temporal_features(M.encode_frames(frames, model), clips, model)

        if scope:
            model.freeze_head(scope)
            # the weights at the base point, as pipeline's lwm calls them
            fixed = lwm.local_relevance_weight(M.classify(features(), model, batch_stats=True))
            monkeypatch.setattr(lwm, "local_relevance_weight", lambda logits: fixed)

            variant = VARIANTS[objective]
            coeffs = variant.coefficients(cfg)

            def loss():
                return P._batch_loss(
                    model, cfg, coeffs, features(), labels, batch_stats=scope != "head_all", sites=variant.sites
                )[0]
        else:

            def loss():
                return P._batch_loss(model, cfg, {"ce": 1.0}, features(), labels, batch_stats=True)[0]

        original = model.tensors[name]
        # probe the first two columns (entries of a bias); the rest stays fixed
        rest = original.data[..., 2:]

        def f(x):
            # one op that puts the probed columns in front of the fixed rest
            joined = np.concatenate([x.data, rest], axis=-1)
            model.tensors[name] = Tensor._from_op(joined, "probe", (x,), lambda g: (g[..., :2].copy(),))
            return loss()

        report = finite_diff_check(f, Tensor(original.data[..., :2]), rel_tol=1e-4)
        model.tensors[name] = original
        assert report.passed, f"{name}: rel err {report.max_rel_error:.2e}"
        if self.vanishes(objective, scope, name):
            assert np.abs(report.analytic).max() < 1e-12, f"{name}: gradient should vanish"
        else:
            assert np.abs(report.analytic).max() > 1e-6, f"{name}: gradient vanished"
        loss().backward()
        for other, t in model.tensors.items():
            unread = other.startswith(_unread(objective))
            assert (t.grad is None) == (not t.requires_grad or unread), f"{other}: frozen or unread iff no gradient"
