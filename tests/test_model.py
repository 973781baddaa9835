import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from oracles import (
    eval_clips_reference,
    float64_base64,
    json_checkpoint_text,
    per_scale_head,
    unfused_head,
    unfused_relation_chain,
)
from probes import inner, squared_norm
from sfvda import model as M
from sfvda.tensor import Tensor, finite_diff_check, no_grad, stack


_DELETE = object()


def tiny_model(k=3, d_in=4, n_classes=3, seed=0, **kw):
    return M.init_model(k=k, d_in=d_in, n_classes=n_classes, seed=seed, **kw)


def per_frame(enc, k=3):
    """The frame-major (k*B, d) encoder output as k per-frame (B, d) arrays."""
    return enc.data.reshape(k, -1, enc.shape[1])


class TestSampleClips:
    def test_k3_is_exhaustive_at_top_scale(self):
        clips = M.sample_clips(3, 3, np.random.default_rng(0))
        assert clips[3].tolist() == [[0, 1, 2]]
        assert clips[2].shape == (3, 2)  # all of C(3,2)

    def test_fixed_seed_is_deterministic(self):
        a = M.sample_clips(5, 3, np.random.default_rng(77))
        b = M.sample_clips(5, 3, np.random.default_rng(77))
        assert all(np.array_equal(a[r], b[r]) for r in range(2, 6))

    def test_large_m_max_enumerates_all(self):
        clips = M.sample_clips(5, 100, np.random.default_rng(1))
        assert [tuple(c) for c in clips[2].tolist()] == list(itertools.combinations(range(5), 2))

    def test_tuples_strictly_increasing_and_distinct(self):
        for seed in range(20):
            clips = M.sample_clips(6, 4, np.random.default_rng(seed))
            assert sorted(clips) == list(range(2, 7))
            for r, tuples in clips.items():
                assert tuples.shape == (min(4, math.comb(6, r)), r)
                assert len({tuple(t) for t in tuples.tolist()}) == len(tuples)
                assert np.all(np.diff(tuples, axis=1) > 0) and tuples.min() >= 0 and tuples.max() < 6

    def test_validation(self):
        with pytest.raises(ValueError):
            M.sample_clips(2, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            M.sample_clips(3, 0, np.random.default_rng(0))


class TestEvalClipSet:
    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_equals_the_pure_python_reference(self, k):
        ids = [f"target-c{i % 8:02d}-v{i:04d}" for i in range(300)]
        clips = M.eval_clip_set(ids, k, 3)
        assert sorted(clips) == list(range(2, k + 1))
        for r, got in clips.items():
            assert got.shape == (300, min(3, math.comb(k, r)), r)
        want = [eval_clips_reference(i, k, 3) for i in ids]
        for r in clips:
            assert clips[r].tolist() == [[list(t) for t in w[r]] for w in want], f"scale {r}"

    def test_clips_are_batch_independent(self):
        # an id's clips are the same alone, inside a batch, or at another position
        ids = [f"v{i}" for i in range(7)]
        batch = M.eval_clip_set(ids, 5, 3)
        shuffled = M.eval_clip_set(ids[::-1], 5, 3)
        for pos, video_id in enumerate(ids):
            alone = M.eval_clip_set([video_id], 5, 3)
            for r in range(2, 6):
                assert np.array_equal(batch[r][pos], alone[r][0])
                assert np.array_equal(batch[r][pos], shuffled[r][len(ids) - 1 - pos])
        assert any(not np.array_equal(batch[r][0], batch[r][1]) for r in range(2, 6))

    def test_choice_is_uniform_without_replacement(self):
        n = 20_000
        clips = M.eval_clip_set([f"u{i}" for i in range(n)], 5, 3)
        for r, got in clips.items():
            combos = math.comb(5, r)
            take = min(3, combos)
            assert np.all(np.diff(got, axis=2) > 0)
            index = {c: i for i, c in enumerate(itertools.combinations(range(5), r))}
            codes = np.array([[index[tuple(t)] for t in video] for video in got.tolist()])
            assert np.all(np.diff(codes, axis=1) > 0)  # distinct, in lexicographic order
            freq = np.bincount(codes.ravel(), minlength=combos) / n
            assert np.max(np.abs(freq - take / combos)) < 0.02, f"scale {r}: {freq}"

    def test_large_m_max_takes_every_combination(self):
        clips = M.eval_clip_set(["a", "b"], 4, 10**12)
        for r in range(2, 5):
            every = np.array(list(itertools.combinations(range(4), r)))
            assert np.array_equal(clips[r], np.stack([every, every]))

    def test_chunked_hash_matrix_gives_the_same_clips(self, monkeypatch):
        ids = [f"v{i}" for i in range(9)]
        whole = M.eval_clip_set(ids, 5, 3)
        monkeypatch.setattr(M, "_HASH_CHUNK", 1)
        chunked = M.eval_clip_set(ids, 5, 3)
        assert all(np.array_equal(whole[r], chunked[r]) for r in whole)


class TestEncoder:
    def test_identity_initialized_encoder_passes_frames_through(self):
        params = tiny_model(d_in=4, d_enc=4)
        w1 = np.zeros((4, M.ENCODER_HIDDEN))
        w1[:4, :4] = np.eye(4)
        w2 = np.zeros((M.ENCODER_HIDDEN, 4))
        w2[:4, :4] = np.eye(4)
        params.tensors["enc_w1"] = Tensor(w1, requires_grad=True)
        params.tensors["enc_b1"] = Tensor(np.zeros(M.ENCODER_HIDDEN), requires_grad=True)
        params.tensors["enc_w2"] = Tensor(w2, requires_grad=True)
        params.tensors["enc_b2"] = Tensor(np.zeros(4), requires_grad=True)
        frames = np.abs(np.random.default_rng(0).normal(size=(2, 3, 4)))
        enc = per_frame(M.encode_frames(frames, params))
        for j in range(3):
            assert np.allclose(enc[j], frames[:, j], atol=1e-12)

    def test_equal_frames_equal_encodings(self):
        params = tiny_model()
        frame = np.random.default_rng(1).normal(size=4)
        frames = np.stack([np.stack([frame, frame, frame])])
        enc = per_frame(M.encode_frames(frames, params))
        assert np.array_equal(enc[0], enc[1])
        assert np.array_equal(enc[1], enc[2])

    def test_matches_scripted_forward(self):
        params = tiny_model(seed=9)
        frames = np.random.default_rng(2).normal(size=(3, 3, 4))
        enc = per_frame(M.encode_frames(frames, params))
        t = params.tensors
        for j in range(3):
            h = np.maximum(frames[:, j] @ t["enc_w1"].data + t["enc_b1"].data, 0.0)
            expected = h @ t["enc_w2"].data + t["enc_b2"].data
            assert np.max(np.abs(enc[j] - expected)) < 1e-12

    def test_dimension_mismatch(self):
        params = tiny_model()
        with pytest.raises(ValueError, match="encode_frames"):
            M.encode_frames(np.zeros((2, 3, 5)), params)


def scripted_relation(params, r, clip_input):
    w1, b1, w2, b2 = (params.tensors[f"rel{r}_{n}"] for n in ("w1", "b1", "w2", "b2"))
    h = np.maximum(clip_input @ w1.data + b1.data, 0.0)
    return h @ w2.data + b2.data


def assert_close(got, want, what, tol=1e-12):
    err = np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))
    assert err <= tol, f"{what}: relative error {err:.1e}"


class TestLocalTemporalFeatures:
    def test_single_clip_is_no_summation(self):
        params = tiny_model()
        clips = {2: np.array([[0, 2]]), 3: np.array([[0, 1, 2]])}
        frames = np.random.default_rng(3).normal(size=(2, 3, 4))
        enc = M.encode_frames(frames, params)
        lts = M.local_temporal_features(enc, clips, params)
        enc_np = per_frame(enc).transpose(1, 0, 2)
        clip_in = np.concatenate([enc_np[:, 0], enc_np[:, 2]], axis=1)
        assert np.max(np.abs(lts.data[0] - scripted_relation(params, 2, clip_in))) < 1e-12

    def test_zero_relation_map_gives_zero(self):
        params = tiny_model()
        for r in range(2, params.k + 1):
            for name in (f"rel{r}_w2", f"rel{r}_b2"):
                params.tensors[name] = Tensor(np.zeros_like(params.tensors[name].data), requires_grad=True)
        frames = np.random.default_rng(4).normal(size=(2, 3, 4))
        enc = M.encode_frames(frames, params)
        lts = M.local_temporal_features(enc, M.sample_clips(3, 3, np.random.default_rng(0)), params)
        assert lts.shape == (2, 2, params.d)
        assert np.allclose(lts.data, 0.0, atol=0)

    def test_two_clips_sum(self):
        params = tiny_model()
        clips = {2: np.array([[0, 1], [1, 2]]), 3: np.array([[0, 1, 2]])}
        frames = np.random.default_rng(5).normal(size=(2, 3, 4))
        enc = M.encode_frames(frames, params)
        lts = M.local_temporal_features(enc, clips, params)
        enc_np = per_frame(enc).transpose(1, 0, 2)
        first = scripted_relation(params, 2, np.concatenate([enc_np[:, 0], enc_np[:, 1]], axis=1))
        second = scripted_relation(params, 2, np.concatenate([enc_np[:, 1], enc_np[:, 2]], axis=1))
        assert np.max(np.abs(lts.data[0] - (first + second))) < 1e-12

    def test_per_video_clip_sets(self):
        params = tiny_model()
        frames = np.random.default_rng(6).normal(size=(2, 3, 4))
        enc = M.encode_frames(frames, params)
        per_video = {2: np.array([[[0, 1]], [[1, 2]]]), 3: np.array([[[0, 1, 2]], [[0, 1, 2]]])}
        lts = M.local_temporal_features(enc, per_video, params)
        enc_np = per_frame(enc).transpose(1, 0, 2)
        want0 = scripted_relation(params, 2, np.concatenate([enc_np[:1, 0], enc_np[:1, 1]], axis=1))
        want1 = scripted_relation(params, 2, np.concatenate([enc_np[1:, 1], enc_np[1:, 2]], axis=1))
        assert np.max(np.abs(lts.data[0, 0] - want0[0])) < 1e-12
        assert np.max(np.abs(lts.data[0, 1] - want1[0])) < 1e-12

    @staticmethod
    def clip_sets(per_video, batch, k):
        if per_video:
            return M.eval_clip_set([f"v{b}" for b in range(batch)], k, 3)
        return M.sample_clips(k, 3, np.random.default_rng(40))

    @pytest.mark.parametrize("per_video", [False, True])
    def test_fused_relation_op_matches_the_unfused_chain(self, per_video):
        # the fused op sums each video's clips before the output layer, so
        # it rounds differently from the per-clip chain, by far less than 1e-12
        params = tiny_model(k=4, d_in=5, d_enc=6, d=7, seed=8)
        t = params.tensors
        rng = np.random.default_rng(9)
        batch = 5
        frames = rng.normal(size=(batch, 4, 5))
        clips = self.clip_sets(per_video, batch, 4)
        enc = Tensor(M.encode_frames(frames, params).data, requires_grad=True)
        lts = M.local_temporal_features(enc, clips, params)
        assert lts.shape == (params.k - 1, batch, params.d)
        g = rng.normal(size=lts.shape)
        inner(lts, g).backward()
        grad_enc = 0.0
        for s, (r, idx) in enumerate(clips.items()):
            rows = np.broadcast_to(idx, (batch, *idx.shape[-2:])) * batch + np.arange(batch).reshape(batch, 1, 1)
            weights = [t[f"rel{r}_{n}"] for n in ("w1", "b1", "w2", "b2")]
            out, grads = unfused_relation_chain(enc.data, rows, *(w.data for w in weights), g[s])
            assert_close(lts.data[s], out, f"rel{r}")
            for name, w in zip(("w1", "b1", "w2", "b2"), weights):
                assert_close(w.grad, grads[name], f"rel{r}_{name}")
            grad_enc = grad_enc + grads["x"]
        assert_close(enc.grad, grad_enc, "encodings")

    @pytest.mark.parametrize("k, d_enc", [(4, 6), (8, 3)])
    def test_shared_clip_scatter_equals_the_per_video_scatter(self, k, d_enc):
        # both clip layouts scatter their input gradient by one path, which
        # adds each frame row's clip positions in np.add.at's (video, clip,
        # position) order, so the two layouts of one clip set agree bitwise;
        # with 3 columns the GEMM that scatters must be oriented so that
        # OpenBLAS does not split the sum
        params = tiny_model(k=k, d_in=5, d_enc=d_enc, d=7, seed=8)
        frames = np.random.default_rng(14).normal(size=(5, k, 5))
        encoded = M.encode_frames(frames, params).data
        shared = M.sample_clips(k, 3, np.random.default_rng(40))
        layouts = (shared, {r: np.stack([index] * 5) for r, index in shared.items()}, self.clip_sets(True, 5, k))
        grads = []
        for clips in layouts:
            enc = Tensor(encoded, requires_grad=True)
            squared_norm(M.local_temporal_features(enc, clips, params)).backward()
            grads.append(enc.grad.tobytes())
            for r, index in clips.items():
                w1, b1, w2 = (params.tensors[f"rel{r}_{n}"].data for n in ("w1", "b1", "w2"))
                rows = index * 5 + np.arange(5).reshape(5, 1, 1)
                enc = Tensor(encoded, requires_grad=True)
                out = M._pooled_mlp(enc, rows, params, f"rel{r}")
                g = np.random.default_rng(r).normal(size=out.shape)
                inner(out, g).backward()
                hidden = encoded[rows].reshape(-1, r * d_enc) @ w1 + b1
                active = (hidden > 0.0).reshape(5, -1, w1.shape[1])
                g_pre = ((g @ w2.T)[:, None, :] * active).reshape(hidden.shape)
                want = np.zeros_like(encoded)
                np.add.at(want, rows.reshape(-1), (g_pre @ w1.T).reshape(-1, d_enc))
                assert enc.grad.tobytes() == want.tobytes(), f"rel{r}"
        assert grads[0] == grads[1]

    def test_fused_encoder_equals_the_unfused_chain(self):
        # one frame per group: pooling is a copy and M * b2 is b2, so the
        # encoder keeps every bit of the per-row chain
        params = tiny_model(k=4, d_in=5, d_enc=6, seed=10)
        rng = np.random.default_rng(11)
        frames = rng.normal(size=(3, 4, 5))
        enc = M.encode_frames(frames, params)
        g = rng.normal(size=enc.shape)
        inner(enc, g).backward()
        stacked = frames.transpose(1, 0, 2).reshape(12, 5)
        weights = [params.tensors[f"enc_{n}"] for n in ("w1", "b1", "w2", "b2")]
        out, grads = unfused_relation_chain(stacked, np.arange(12).reshape(12, 1, 1), *(w.data for w in weights), g)
        assert enc.data.tobytes() == out.tobytes()
        for name, w in zip(("w1", "b1", "w2", "b2"), weights):
            assert w.grad.tobytes() == grads[name].tobytes(), f"enc_{name}"

    def test_per_video_clip_gradient_matches_central_differences(self):
        params = tiny_model(k=4, d_in=5, d_enc=3, d=4, seed=12)
        frames = np.random.default_rng(13).normal(size=(3, 4, 5))
        clips = self.clip_sets(True, 3, 4)
        enc = M.encode_frames(frames, params)

        def f(x):
            return squared_norm(M.local_temporal_features(x, clips, params))

        report = finite_diff_check(f, Tensor(enc.data), rel_tol=1e-4)
        assert report.passed, f"rel err {report.max_rel_error:.2e}"
        assert np.abs(report.analytic).max() > 1e-6

    @pytest.mark.parametrize("shape", [(3, 1, 2), (1, 3), (2,)], ids=["batch", "width", "flat"])
    def test_clip_array_that_does_not_fit_is_named(self, shape):
        params = tiny_model()
        enc = M.encode_frames(np.zeros((2, 3, 4)), params)
        clips = {2: np.zeros(shape, dtype=int), 3: np.array([[0, 1, 2]])}
        with pytest.raises(ValueError, match=re.escape(f"rel2: clip array of shape {shape} does not fit a batch of 2")):
            M.local_temporal_features(enc, clips, params)

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_frame_index_out_of_range(self, bad):
        params = tiny_model()
        enc = M.encode_frames(np.zeros((2, 3, 4)), params)
        with pytest.raises(ValueError, match="rel2: frame index out of range"):
            M._pooled_mlp(enc, np.array([[[0, bad]]]), params, "rel2")

    def test_output_bias_overflow_names_the_add(self):
        # M b2 overflows for two clips per video; the output is scanned once
        params = tiny_model()
        params.tensors["rel2_b2"].data[...] = 1e308
        enc = M.encode_frames(np.zeros((2, 3, 4)), params)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^add: output contains non-finite values$"):
            M._pooled_mlp(enc, np.array([[[0, 1], [1, 2]]]), params, "rel2")


class TestAggregate:
    def test_unit_weights_match_unweighted(self):
        rng = np.random.default_rng(7)
        lts = [Tensor(rng.normal(size=(3, 4))) for _ in range(2)]
        plain = M.aggregate_overall(stack(lts))
        weighted = M.aggregate_overall(stack(lts), np.ones((3, 2)))
        assert np.max(np.abs(plain.data - weighted.data)) < 1e-12

    def test_mean_example(self):
        lts = [Tensor([[2.0, 0.0]]), Tensor([[0.0, 2.0]])]
        assert np.allclose(M.aggregate_overall(stack(lts)).data, [[1.0, 1.0]])

    def test_weighted_example(self):
        lts = [Tensor([[2.0, 0.0]]), Tensor([[0.0, 2.0]])]
        out = M.aggregate_overall(stack(lts), np.array([[2.0, 0.0]]))
        assert np.allclose(out.data, [[2.0, 0.0]])

    def test_overflowing_sum_names_the_sum(self):
        lts = stack([Tensor(np.full((2, 3), 1.5e308))] * 2)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^sum: output contains non-finite values$"):
            M.aggregate_overall(lts)

    def test_weights_must_be_batch_by_scales(self):
        lts = stack([Tensor(np.ones((3, 2))), Tensor(np.ones((3, 2)))])
        with pytest.raises(ValueError, match=r"weights shape \(2, 3\) does not match batch 3 x scales 2"):
            M.aggregate_overall(lts, np.ones((2, 3)))


class TestClassify:
    def test_eval_before_train_raises(self):
        params = tiny_model()
        with pytest.raises(RuntimeError, match="train-mode"):
            M.classify(Tensor(np.zeros((2, params.d))), params, batch_stats=False)

    def test_zero_features_zero_bias_uniform(self):
        params = tiny_model()
        params.tensors["bot_b"] = Tensor(np.zeros_like(params.tensors["bot_b"].data), requires_grad=True)
        params.bn_initialized = True  # fresh running stats: mean 0, var 1
        logits = M.classify(Tensor(np.zeros((2, params.d))), params, batch_stats=False)
        assert np.allclose(logits.data, logits.data[:, :1], atol=1e-12)

    def test_eval_matches_scripted_forward(self):
        params = tiny_model(seed=11)
        rng = np.random.default_rng(8)
        params.bn_mean = rng.normal(size=params.d_b)
        params.bn_var = rng.uniform(0.5, 2.0, size=params.d_b)
        params.bn_initialized = True
        x = rng.normal(size=(4, params.d))
        logits = M.classify(Tensor(x), params, batch_stats=False)
        t = params.tensors
        h = x @ t["bot_w"].data + t["bot_b"].data
        hat = (h - params.bn_mean) / np.sqrt(params.bn_var + M.BN_EPS)
        normed = hat * t["bn_gamma"].data + t["bn_beta"].data
        v = t["wn_v"].data
        w_eff = v * (t["wn_g"].data / np.linalg.norm(v, axis=1, keepdims=True))
        expected = normed @ w_eff.T + t["wn_b"].data
        assert np.max(np.abs(logits.data - expected)) < 1e-12

    def test_train_mode_updates_running_stats_frozen_does_not(self):
        params = tiny_model()
        x = Tensor(np.random.default_rng(9).normal(size=(8, params.d)))
        before = params.bn_mean.copy()
        M.classify(x, params, batch_stats=True)
        assert not np.array_equal(params.bn_mean, before)
        frozen_before = params.bn_mean.copy()
        M.classify(x, params, batch_stats=False)
        assert np.array_equal(params.bn_mean, frozen_before)

    def test_weight_norm_row_norms_equal_magnitude(self):
        params = tiny_model(seed=13)
        v, g = params.tensors["wn_v"].data, params.tensors["wn_g"].data
        w_eff = v * (g / np.linalg.norm(v, axis=1, keepdims=True))
        assert np.max(np.abs(np.linalg.norm(w_eff, axis=1) - g.reshape(-1))) < 1e-10


class TestStackedClassify:
    """One head pass over the (S, B, d) stack against the head run on each
    scale by itself."""

    @pytest.mark.parametrize("frozen", [True, False], ids=["head_all", "last_layer_only"])
    def test_equals_per_scale_reference(self, frozen):
        params = tiny_model(k=4, d_in=5, n_classes=3, d=6, d_b=5, seed=19)
        rng = np.random.default_rng(20)
        params.bn_mean = rng.normal(size=params.d_b)
        params.bn_var = rng.uniform(0.5, 2.0, size=params.d_b)
        params.bn_initialized = True
        scales = [rng.normal(size=(4, params.d)) for _ in range(params.k - 1)]
        head = {name: t.data.tolist() for name, t in params.head_parameters("head_all")}
        running = [params.bn_mean.tolist(), params.bn_var.tolist(), params.bn_momentum]
        want = per_scale_head([b.tolist() for b in scales], head, running, batch_stats=not frozen)
        logits = M.classify(Tensor(np.stack(scales)), params, batch_stats=not frozen)
        assert np.max(np.abs(logits.data - np.reshape(want, logits.shape))) < 1e-12
        # last_layer_only updates the running statistics once per scale, in
        # scale order; head_all leaves them as they were
        assert np.max(np.abs(params.bn_mean - running[0])) < 1e-12
        assert np.max(np.abs(params.bn_var - running[1])) < 1e-12


class TestFusedHead:
    """The one-op head against ``oracles.unfused_head``, which runs it one
    operation at a time and takes every gradient by the chain rule."""

    @staticmethod
    def setup(seed):
        params = tiny_model(k=4, d_in=5, n_classes=4, d=6, d_b=5, seed=seed)
        rng = np.random.default_rng(seed + 1)
        for t in params.tensors.values():
            t.data[...] = rng.normal(size=t.shape)
        params.bn_mean = rng.normal(size=params.d_b)
        params.bn_var = rng.uniform(0.5, 2.0, size=params.d_b)
        params.bn_initialized = True
        x = rng.normal(size=(12, params.d)) * 2.0
        return params, x, rng.normal(size=(12, params.n_classes))

    @pytest.mark.parametrize(
        "mode, frozen, lead",
        [("train", False, (3, 4)), ("train", False, (12,)), ("eval", False, (12,)), ("train", True, (3, 4))],
        ids=["train-blocks", "train-one-block", "eval", "frozen"],
    )
    def test_matches_the_unfused_chain(self, mode, frozen, lead):
        # lead: the (S, B) of a stack, or the B of one batch
        params, x, g = self.setup(23)
        x, g = x.reshape(lead + (-1,)), g.reshape(lead + (-1,))
        if frozen:
            params.freeze_head("head_all")
        batch_stats = mode == "train" and not frozen
        head = {name: t.data.copy() for name, t in params.head_parameters("head_all")}
        running = [params.bn_mean.copy(), params.bn_var.copy(), params.bn_momentum]
        want, grads = unfused_head(x, head, running, batch_stats, g)
        features = Tensor(x, requires_grad=True)
        logits = M.classify(features, params, batch_stats=batch_stats)
        inner(logits, g).backward()
        # relative to the largest entry, at least 1: with batch statistics
        # bot_b's gradient is zero up to rounding
        assert_close(logits.data, want, "logits")
        assert_close(features.grad, grads["x"], "features")
        for name, t in params.head_parameters("head_all"):
            if frozen:
                assert t.grad is None, name
            else:
                assert_close(t.grad, grads[name], name)
        # running statistics move once per batch in train mode only
        assert np.max(np.abs(params.bn_mean - running[0])) <= 1e-12 * np.max(np.abs(running[0]))
        assert np.max(np.abs(params.bn_var - running[1])) <= 1e-12 * np.max(np.abs(running[1]))

    def test_overflow_names_the_stage(self):
        params, x, _ = self.setup(24)
        params.tensors["wn_v"].data[0] = 0.0  # a zero direction row has no norm
        with pytest.raises(ValueError, match="^div: output contains non-finite values$"):
            M.classify(Tensor(x), params, batch_stats=False)
        params, x, _ = self.setup(24)
        params.tensors["bot_w"].data[...] = 1e300
        with pytest.raises(ValueError, match="^matmul: output contains non-finite values$"):
            M.classify(Tensor(x * 1e10), params, batch_stats=True)


class TestModelState:
    def test_copy_is_bitwise(self):
        params = tiny_model(seed=21)
        M.classify(Tensor(np.random.default_rng(0).normal(size=(4, params.d))), params, batch_stats=True)
        clone = params.copy()
        for (name_a, a), (name_b, b) in zip(params.named_parameters(), clone.named_parameters()):
            assert name_a == name_b
            assert a.data.tobytes() == b.data.tobytes()
        assert params.bn_mean.tobytes() == clone.bn_mean.tobytes()
        clone.tensors["enc_w1"].data[0, 0] += 1.0
        assert params.tensors["enc_w1"].data[0, 0] != clone.tensors["enc_w1"].data[0, 0]

    def test_freeze_scopes(self):
        params = tiny_model()
        params.freeze_head("last_layer_only")
        assert not params.tensors["wn_v"].requires_grad
        assert params.tensors["bot_w"].requires_grad
        params = tiny_model()
        params.freeze_head("head_all")
        for _, t in params.head_parameters("head_all"):
            assert not t.requires_grad
        assert params.tensors["enc_w1"].requires_grad
        with pytest.raises(ValueError):
            params.head_parameters("bogus")

    def test_checkpoint_roundtrip_value_exact(self, tmp_path):
        params = tiny_model(k=4, d_in=6, n_classes=5, seed=33)
        M.classify(Tensor(np.random.default_rng(1).normal(size=(4, params.d))), params, batch_stats=True)
        params.aggregation = "entropy_weighted"
        path = tmp_path / "model.json"
        M.save_checkpoint(params, path)
        loaded = M.load_checkpoint(path)
        for (name_a, a), (_, b) in zip(params.named_parameters(), loaded.named_parameters()):
            assert a.data.tobytes() == b.data.tobytes(), name_a
        assert loaded.bn_mean.tobytes() == params.bn_mean.tobytes()
        assert loaded.bn_var.tobytes() == params.bn_var.tobytes()
        assert loaded.bn_initialized == params.bn_initialized
        assert loaded.aggregation == "entropy_weighted"
        assert (loaded.k, loaded.d_in, loaded.n_classes) == (4, 6, 5)
        M.save_checkpoint(loaded, tmp_path / "again.json")
        assert (tmp_path / "model.json").read_bytes() == (tmp_path / "again.json").read_bytes()

    @pytest.mark.parametrize(
        "section, field, value",
        [
            pytest.param("parameters", "wn_g", _DELETE, id="parameters-wn_g"),
            pytest.param("parameters", "rel3_b1", _DELETE, id="parameters-rel3_b1"),
            pytest.param("hyperparams", "k", _DELETE, id="hyperparams-k"),
            pytest.param("batch_norm", "running_var", _DELETE, id="batch_norm-running_var"),
            pytest.param(None, "rng_seed", _DELETE, id="None-rng_seed"),
            # values that used to broadcast, crash later or end in a traceback
            pytest.param("parameters", "enc_b1", float64_base64([0.0]), id="parameters-enc_b1-broadcast"),
            pytest.param("batch_norm", "running_var", float64_base64([1.0]), id="batch_norm-running_var-broadcast"),
            pytest.param("parameters", "enc_w1", float64_base64([[0.0, 0.0]]), id="parameters-enc_w1-shape"),
            pytest.param("parameters", "wn_b", "x!" + float64_base64([0.0] * 3)[2:], id="parameters-wn_b-string"),
            pytest.param("parameters", "wn_b", float64_base64([float("nan"), 0.0, 0.0]), id="parameters-wn_b-nan"),
            # the array encoding: length, alphabet, padding and type
            pytest.param("parameters", "wn_b", float64_base64([0.0] * 2), id="parameters-wn_b-one-value-short"),
            pytest.param("parameters", "wn_b", float64_base64([0.0] * 4), id="parameters-wn_b-one-value-long"),
            pytest.param("parameters", "wn_b", float64_base64([0.0] * 3)[:-2] + "==", id="parameters-wn_b-padding"),
            pytest.param("parameters", "wn_b", [0.0, 0.0, 0.0], id="parameters-wn_b-json-list"),
            pytest.param(
                "batch_norm", "running_mean", "-" + float64_base64([0.0] * 64)[1:], id="batch_norm-running_mean-url-safe"
            ),
            # 64 values are 512 bytes, so the text ends in "AAA=": "AAB=" sets a
            # bit past the last byte and decodes to the same bytes
            pytest.param(
                "batch_norm",
                "running_mean",
                float64_base64([0.0] * 64)[:-2] + "B=",
                id="batch_norm-running_mean-non-canonical",
            ),
            pytest.param("batch_norm", "momentum", float("inf"), id="batch_norm-momentum-inf"),
            pytest.param("batch_norm", "momentum", 10**400, id="batch_norm-momentum-huge-int"),
            pytest.param("hyperparams", "k", "4", id="hyperparams-k-string"),
            pytest.param("hyperparams", "k", 2, id="hyperparams-k-too-small"),
            pytest.param("hyperparams", "d", True, id="hyperparams-d-bool"),
            pytest.param(None, "rng_seed", 1.5, id="None-rng_seed-float"),
            pytest.param("batch_norm", "momentum", "fast", id="batch_norm-momentum-string"),
            pytest.param("batch_norm", "initialized", None, id="batch_norm-initialized-null"),
            # every format-3 writer stores these fields exactly, so none may be
            # missing, extra or of another type
            pytest.param(None, "aggregation", _DELETE, id="None-aggregation"),
            pytest.param(None, "format_version", 3.0, id="None-format_version-float"),
            pytest.param(None, "bogus", 1, id="None-bogus-unknown"),
            pytest.param("hyperparams", "bogus", 1, id="hyperparams-bogus-unknown"),
            pytest.param("batch_norm", "bogus", 1, id="batch_norm-bogus-unknown"),
            pytest.param("batch_norm", "initialized", 1, id="batch_norm-initialized-int"),
            pytest.param("batch_norm", "momentum", 1.5, id="batch_norm-momentum-above-one"),
        ],
    )
    def test_checkpoint_missing_field_names_file_and_field(self, tmp_path, section, field, value):
        import json

        path = tmp_path / "model.json"
        M.save_checkpoint(tiny_model(), path)
        doc = json.loads(path.read_text())
        where = doc[section] if section else doc
        if value is _DELETE:
            del where[field]
        else:
            where[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            M.load_checkpoint(path)
        message = str(info.value)
        assert str(path) in message
        assert (f"{section}.{field}" if section else field) in message

    def test_checkpoint_bytes_equal_the_one_shot_encoder(self, tmp_path):
        params = tiny_model(k=4, d_in=5, n_classes=3, seed=8)
        M.classify(Tensor(np.random.default_rng(3).normal(size=(4, params.d))), params, batch_stats=True)
        doc = {
            "format_version": M.CHECKPOINT_FORMAT_VERSION,
            "hyperparams": {"k": 4, "d_in": 5, "d_enc": params.d_enc, "d": params.d, "d_b": params.d_b,
                            "C": 3, "M_max": params.m_max},
            "aggregation": params.aggregation,
            "rng_seed": 8,
            "parameters": {name: float64_base64(t.data) for name, t in params.named_parameters()},
            "batch_norm": {
                "running_mean": float64_base64(params.bn_mean),
                "running_var": float64_base64(params.bn_var),
                "initialized": True,
                "momentum": params.bn_momentum,
            },
        }
        path = tmp_path / "model.json"
        M.save_checkpoint(params, path)
        assert path.read_text() == json_checkpoint_text(doc)

    def test_checkpoint_extreme_values_roundtrip_bit_equal(self, tmp_path):
        params = tiny_model(k=4, d_in=6, n_classes=5, seed=12)
        M.classify(Tensor(np.random.default_rng(5).normal(size=(4, params.d))), params, batch_stats=True)
        params.tensors["wn_b"].data[:4] = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        params.bn_mean[:2] = [-0.0, 5e-324]
        M.save_checkpoint(params, tmp_path / "a.json")
        M.save_checkpoint(params, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        loaded = M.load_checkpoint(tmp_path / "a.json")
        for (name, a), (_, b) in zip(params.named_parameters(), loaded.named_parameters()):
            assert a.data.tobytes() == b.data.tobytes(), name
            # SGD.step updates parameters in place
            assert b.data.dtype == np.float64 and b.data.flags.writeable, name
        for a, b in ((params.bn_mean, loaded.bn_mean), (params.bn_var, loaded.bn_var)):
            assert a.tobytes() == b.tobytes()
            assert b.flags.writeable
        assert np.signbit(loaded.tensors["wn_b"].data[0])

    def test_checkpoint_save_streams_its_text(self, tmp_path):
        # at the seed_cli model size (a 1.7 MB file) the save holds the encoded
        # arrays, and never the whole JSON text as well
        params = tiny_model(k=5, d_in=32, n_classes=8)
        path = tmp_path / "model.json"
        tracemalloc.start()
        try:
            M.save_checkpoint(params, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * path.stat().st_size, (peak, path.stat().st_size)

    def test_checkpoint_parameter_of_other_hyperparams_is_named(self, tmp_path):
        import json

        path = tmp_path / "model.json"
        M.save_checkpoint(tiny_model(k=4), path)
        doc = json.loads(path.read_text())
        doc["hyperparams"]["k"] = 3  # rel4_* now belong to no scale
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{path}: checkpoint: unknown field 'parameters.rel4_b1'")):
            M.load_checkpoint(path)

    def test_checkpoint_version_check(self, tmp_path):
        params = tiny_model()
        path = tmp_path / "model.json"
        M.save_checkpoint(params, path)
        stored = f'"format_version": {M.CHECKPOINT_FORMAT_VERSION}'
        doc = path.read_text().replace(stored, '"format_version": 99')
        path.write_text(doc)
        with pytest.raises(ValueError, match="format_version"):
            M.load_checkpoint(path)


def test_eval_forward_is_permutation_invariant():
    params = tiny_model(k=4, d_in=5, n_classes=3, seed=3)
    M.classify(Tensor(np.random.default_rng(2).normal(size=(6, params.d))), params, batch_stats=True)
    rng = np.random.default_rng(10)
    frames = rng.normal(size=(5, 4, 5))
    ids = [f"v{i}" for i in range(5)]

    def forward(frames, ids):
        with no_grad():
            enc = M.encode_frames(frames, params)
            lts = M.local_temporal_features(enc, M.eval_clip_set(ids, params.k, params.m_max), params)
            overall = M.aggregate_overall(lts)
            return M.classify(overall, params, batch_stats=False).data

    base = forward(frames, ids)
    perm = np.array([3, 0, 4, 1, 2])
    permuted = forward(frames[perm], [ids[i] for i in perm])
    # BLAS kernels pick lanes by row position, so equality holds to rounding,
    # not bitwise
    assert np.max(np.abs(base[perm] - permuted)) < 1e-12
