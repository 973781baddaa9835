import json
import re

import numpy as np
import pytest

from oracles import domain_pair_reference, float64_base64, floats_of_base64
from sfvda import data as D

_DELETE = object()
BASE64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def set_unused_bit(text):
    """``text``, canonical base64 ending in one ``=``, with the lowest of the
    two bits its last data character has left over set: the same bytes, and
    no longer the text ``encode_floats`` writes."""
    assert text.endswith("=") and not text.endswith("==")
    return text[:-2] + BASE64_ALPHABET[BASE64_ALPHABET.index(text[-2]) + 1] + "="


def small_spec(**kw):
    defaults = dict(classes=3, videos_per_class=4, frames=4, frame_dim=6, shift_severity=0.5, noise_std=0.05, seed=5)
    defaults.update(kw)
    return D.DomainSpec(**defaults)


class TestGenerator:
    def test_determinism_bitwise(self):
        a_src, a_tgt = D.generate_domain_pair(small_spec())
        b_src, b_tgt = D.generate_domain_pair(small_spec())
        for a, b in ((a_src, b_src), (a_tgt, b_tgt)):
            assert len(a) == len(b)
            assert a.ids == b.ids
            assert a.labels.tobytes() == b.labels.tobytes()
            assert a.frames.tobytes() == b.frames.tobytes()

    def test_zero_shift_zero_noise_matches_source_exactly(self):
        spec = small_spec(shift_severity=0.0, noise_std=0.0)
        source, target = D.generate_domain_pair(spec)
        assert source.labels.tobytes() == target.labels.tobytes()
        assert source.frames.tobytes() == target.frames.tobytes()

    def test_class_balance_matches_manifest(self):
        source, target = D.generate_domain_pair(small_spec())
        for ds in (source, target):
            assert ds.labels.dtype == np.int64
            assert np.bincount(ds.labels).tolist() == [4, 4, 4]

    def test_domains_and_ids(self):
        source, target = D.generate_domain_pair(small_spec())
        assert (source.domain, target.domain) == ("source", "target")
        assert len(set(source.ids) | set(target.ids)) == 2 * len(source)

    def test_shift_changes_target_only(self):
        base_src, base_tgt = D.generate_domain_pair(small_spec(shift_severity=0.2))
        hard_src, hard_tgt = D.generate_domain_pair(small_spec(shift_severity=0.9))
        assert base_src.frames.tobytes() == hard_src.frames.tobytes()
        assert any(a.tobytes() != b.tobytes() for a, b in zip(base_tgt.frames, hard_tgt.frames))

    @pytest.mark.parametrize(
        "shift, noise", [(0.5, 0.05), (0.5, 0.0), (0.0, 0.05), (0.0, 0.0), (1.0, 0.3)],
        ids=["shift-noise", "shift", "noise", "neither", "full-shift"],
    )
    def test_equals_the_per_video_reference(self, shift, noise):
        for frames, frame_dim in ((4, 6), (8, 1), (3, 32)):
            spec = small_spec(shift_severity=shift, noise_std=noise, frames=frames, frame_dim=frame_dim)
            source, target = D.generate_domain_pair(spec)
            ref_source, ref_target = domain_pair_reference(spec)
            assert source.frames.tobytes() == ref_source.tobytes()
            assert target.frames.tobytes() == ref_target.tobytes()

    def test_first_videos_of_a_class_do_not_depend_on_videos_per_class(self):
        short = D.generate_domain_pair(small_spec(videos_per_class=3))
        long = D.generate_domain_pair(small_spec(videos_per_class=10))
        for few, many in zip(short, long):
            for c in range(3):
                assert few.frames[3 * c : 3 * c + 3].tobytes() == many.frames[10 * c : 10 * c + 3].tobytes()
                assert few.ids[3 * c : 3 * c + 3] == many.ids[10 * c : 10 * c + 3]

    def test_a_class_does_not_depend_on_the_class_count(self):
        three = D.generate_domain_pair(small_spec(classes=3))
        five = D.generate_domain_pair(small_spec(classes=5))
        for few, many in zip(three, five):
            assert few.frames.tobytes() == many.frames[: len(few)].tobytes()
            assert few.ids == many.ids[: len(few)]
            assert few.labels.tolist() == many.labels[: len(few)].tolist()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            small_spec(classes=1)
        with pytest.raises(ValueError):
            small_spec(frames=2)
        with pytest.raises(ValueError):
            small_spec(shift_severity=1.5)
        with pytest.raises(ValueError, match=r"DomainSpec\.seed: must be >= 0, got -1"):
            small_spec(seed=-1)
        with pytest.raises(ValueError, match=r"DomainSpec\.frame_dim: must be >= 1, got 0"):
            small_spec(frame_dim=0)


class TestFileFormat:
    def test_roundtrip_value_exact(self, tmp_path):
        source, _ = D.generate_domain_pair(small_spec())
        path = tmp_path / "source.jsonl"
        D.write_dataset(source, path)
        loaded = D.read_dataset(path)
        assert loaded.domain == source.domain
        assert loaded.ids == source.ids
        assert loaded.labels.dtype == np.int64 and loaded.labels.tolist() == source.labels.tolist()
        assert loaded.frames.shape == source.frames.shape
        assert loaded.frames.tobytes() == source.frames.tobytes()
        again = tmp_path / "again.jsonl"
        D.write_dataset(loaded, again)
        assert path.read_bytes() == again.read_bytes()

    @pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
    def test_records_are_the_sort_keys_json_text(self, tmp_path, labeled):
        ids = ["back\\slash", "café-日本", "tab\there", "ctrl\x01\x7f", "emoji-\U0001f3ac", "plain"]
        frames = np.random.default_rng(0).normal(size=(len(ids), 3, 2))
        labels = np.array([0, 1, 2, 0, 1, 2]) if labeled else None
        ds = D.Dataset(frames, ids, labels, "target", 3)
        path = tmp_path / "ids.jsonl"
        D.write_dataset(ds, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[-1] == "" and len(lines) == len(ids) + 2
        for line, video_id, label, video in zip(lines[1:], ids, [None] * 6 if labels is None else labels, frames):
            record = {"id": video_id, "label": None if label is None else int(label), "frames": float64_base64(video)}
            assert line == json.dumps(record, sort_keys=True)

    def test_malformed_line_reports_line_number(self, tmp_path):
        source, _ = D.generate_domain_pair(small_spec())
        path = tmp_path / "broken.jsonl"
        D.write_dataset(source, path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3][:-10]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 4"):
            D.read_dataset(path)

    def test_wrong_frame_count_reports_line(self, tmp_path):
        source, _ = D.generate_domain_pair(small_spec())
        path = tmp_path / "short.jsonl"
        D.write_dataset(source, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["frames"] = float64_base64(floats_of_base64(record["frames"])[:-6])  # one frame of 6 values
        lines[2] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"short\.jsonl: line 3: field 'frames'"):
            D.read_dataset(path)

    def test_non_finite_frames_name_file_and_line(self, tmp_path):
        source, _ = D.generate_domain_pair(small_spec())
        path = tmp_path / "nan.jsonl"
        D.write_dataset(source, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[3])
        values = floats_of_base64(record["frames"])
        values[1 * 6 + 2] = float("nan")  # frame 1, dimension 2
        record["frames"] = float64_base64(values)
        lines[3] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"nan\.jsonl: line 4: field 'frames': must hold only finite values"):
            D.read_dataset(path)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda text: float64_base64(floats_of_base64(text)[:-1]), id="one-value-short"),
            pytest.param(lambda text: float64_base64(floats_of_base64(text) + [0.0]), id="one-value-long"),
            pytest.param(lambda text: "!" + text[1:], id="bad-character"),
            pytest.param(lambda text: text.replace("+", "-").replace("/", "_"), id="url-safe-alphabet"),
            pytest.param(lambda text: text[:-2] + "==", id="padding-in-place-of-data"),
            pytest.param(lambda text: np.reshape(floats_of_base64(text), (4, 7)).tolist(), id="json-list"),
            pytest.param(set_unused_bit, id="non-canonical-last-character"),
        ],
    )
    def test_bad_frames_payload_names_file_line_and_field(self, tmp_path, edit):
        # 4 x 7 values are 224 bytes, whose base64 ends in one '=': the
        # last data character then has two bits left over
        source, _ = D.generate_domain_pair(small_spec(frame_dim=7))
        path = tmp_path / "payload.jsonl"
        D.write_dataset(source, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["frames"] = edit(record["frames"])
        lines[2] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            D.read_dataset(path)
        assert str(info.value).startswith(f"{path}: line 3: field 'frames': ")

    def test_extreme_values_roundtrip_bit_equal(self, tmp_path):
        source, _ = D.generate_domain_pair(small_spec())
        edge = np.random.default_rng(4).normal(size=(4, 6))
        edge.flat[:4] = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        frames = source.frames.copy()
        frames[0] = edge
        ds = D.Dataset(frames, ("edge", *source.ids[1:]), source.labels, "source", source.n_classes)
        D.write_dataset(ds, tmp_path / "a.jsonl")
        D.write_dataset(ds, tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        loaded = D.read_dataset(tmp_path / "a.jsonl")
        assert loaded.frames.tobytes() == ds.frames.tobytes()
        assert loaded.frames.dtype == np.float64 and loaded.frames.flags.writeable
        assert np.signbit(loaded.frames[0].flat[0])

    def test_previous_format_names_file_and_format_version(self, tmp_path):
        source, _ = D.generate_domain_pair(small_spec())
        path = tmp_path / "format-1.jsonl"
        D.write_dataset(source, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["format_version"] = 1
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 1: unsupported format_version 1$"):
            D.read_dataset(path)

    def test_null_label_in_source_rejected(self, tmp_path):
        source, _ = D.generate_domain_pair(small_spec())
        path = tmp_path / "bad.jsonl"
        D.write_dataset(source, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["label"] = None
        lines[1] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="source requires labels"):
            D.read_dataset(path)

    def test_header_count_mismatch(self, tmp_path):
        source, _ = D.generate_domain_pair(small_spec())
        path = tmp_path / "count.jsonl"
        D.write_dataset(source, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="count"):
            D.read_dataset(path)

    @pytest.mark.parametrize(
        "line, field, value",
        [
            pytest.param(0, "count", _DELETE, id="0-count"),
            pytest.param(0, "k", _DELETE, id="0-k"),
            pytest.param(1, "frames", _DELETE, id="1-frames"),
            pytest.param(2, "label", _DELETE, id="2-label"),
            # mistyped values
            pytest.param(0, "C", "3", id="0-C-string"),
            pytest.param(0, "k", "4", id="0-k-string"),
            pytest.param(0, "d_in", 6.0, id="0-d_in-float"),
            pytest.param(0, "count", True, id="0-count-bool"),
            pytest.param(2, "label", "1", id="2-label-string"),
            pytest.param(2, "label", 1.0, id="2-label-float"),
            pytest.param(2, "id", 7, id="2-id-int"),
            # an id is the first cell of its export rows, written unquoted
            pytest.param(2, "id", "a,b", id="2-id-comma"),
            pytest.param(2, "id", 'a"b', id="2-id-quote"),
            pytest.param(2, "id", "a\rb", id="2-id-cr"),
            pytest.param(2, "id", "a,b\nc", id="2-id-newline"),
            # header sizes below what a model can use
            pytest.param(0, "C", 1, id="0-C-one"),
            pytest.param(0, "k", 2, id="0-k-two"),
            pytest.param(0, "d_in", 0, id="0-d_in-zero"),
            pytest.param(0, "count", 0, id="0-count-zero"),
            # the header domain is one of two names; records hold no domain
            pytest.param(0, "domain", "bogus", id="0-domain-bogus"),
            pytest.param(0, "domain", 5, id="0-domain-int"),
            pytest.param(1, "domain", "source", id="1-domain-unknown"),
            pytest.param(2, "domain", 5, id="2-domain-int-unknown"),
        ],
    )
    def test_missing_field_names_file_line_and_field(self, tmp_path, line, field, value):
        source, _ = D.generate_domain_pair(small_spec())
        path = tmp_path / "schema.jsonl"
        D.write_dataset(source, path)
        lines = path.read_text().splitlines()
        doc = json.loads(lines[line])
        if value is _DELETE:
            del doc[field]
        else:
            doc[field] = value
        lines[line] = json.dumps(doc, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            D.read_dataset(path)
        message = str(info.value)
        assert str(path) in message
        assert f"line {line + 1}" in message
        assert repr(field) in message

    def test_duplicate_id_names_file_both_lines_and_id(self, tmp_path):
        _, target = D.generate_domain_pair(small_spec())
        path = tmp_path / "dup.jsonl"
        D.write_dataset(target, path)
        lines = path.read_text().splitlines()
        first_id = json.loads(lines[1])["id"]
        record = json.loads(lines[4])
        record["id"] = first_id
        lines[4] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            D.read_dataset(path)
        assert str(info.value) == f"{path}: line 5: duplicate id {first_id!r}, first on line 2"

    def test_unlabeled_target_roundtrip(self, tmp_path):
        _, target = D.generate_domain_pair(small_spec())
        stripped = target.without_labels()
        assert stripped.labels is None
        path = tmp_path / "unlabeled.jsonl"
        D.write_dataset(stripped, path)
        assert all(json.loads(line)["label"] is None for line in path.read_text().splitlines()[1:])
        loaded = D.read_dataset(path)
        assert loaded.labels is None
        assert loaded.frames.tobytes() == target.frames.tobytes()

    @pytest.mark.parametrize("labeled", [True, False], ids=["null-in-labeled", "label-in-unlabeled"])
    def test_mixed_labels_name_file_line_and_field(self, tmp_path, labeled):
        _, target = D.generate_domain_pair(small_spec())
        path = tmp_path / "mixed.jsonl"
        D.write_dataset(target if labeled else target.without_labels(), path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[4])
        record["label"] = None if labeled else 1
        lines[4] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            D.read_dataset(path)
        first = json.loads(lines[1])["label"]
        expected = f"{path}: line 5: field 'label' is {json.dumps(record['label'])}, but line 2's is {json.dumps(first)}"
        assert str(info.value) == expected


class TestBatchIterator:
    def test_same_seed_same_order(self):
        source, _ = D.generate_domain_pair(small_spec())
        a = [idx.tolist() for idx in D.batch_iterator(source, 4, shuffle_seed=9)]
        b = [idx.tolist() for idx in D.batch_iterator(source, 4, shuffle_seed=9)]
        c = [idx.tolist() for idx in D.batch_iterator(source, 4, shuffle_seed=10)]
        assert a == b
        assert a != c

    def test_batches_are_the_seeded_permutations_full_batch_prefix(self):
        source, _ = D.generate_domain_pair(small_spec())  # 12 videos
        order = np.random.default_rng(np.random.SeedSequence(7)).permutation(12)
        batches = list(D.batch_iterator(source, 5, shuffle_seed=np.random.SeedSequence(7)))
        assert all(idx.dtype.kind == "i" for idx in batches)
        assert [idx.tolist() for idx in batches] == [order[:5].tolist(), order[5:10].tolist()]

    def test_train_drops_last_short_batch(self):
        source, _ = D.generate_domain_pair(small_spec())  # 12 videos
        batches = list(D.batch_iterator(source, 5, shuffle_seed=0))
        assert [len(idx) for idx in batches] == [5, 5]

    def test_train_rejects_batch_of_one(self):
        source, _ = D.generate_domain_pair(small_spec())
        with pytest.raises(ValueError, match="batch_size"):
            list(D.batch_iterator(source, 1, shuffle_seed=0))
