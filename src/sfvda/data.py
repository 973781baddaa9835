"""Seeded synthetic cross-domain "video" generator plus dataset file I/O.

Each video is an ordered sequence of per-frame feature vectors. A class is
a spatial base vector plus a class-specific sinusoidal motion pattern; a
video samples a temporal phase and adds Gaussian noise. Classes come in
pairs that share the spatial base and differ only in motion, so frame
ordering carries real information. The target domain applies a fixed
orthogonal rotation whose angle grows with ``shift_severity``, a
per-dimension gain/bias, and an extra per-video temporal phase offset, so
the shift is partly spatial and partly temporal. Everything is a pure
function of the DomainSpec.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainSpec",
    "Dataset",
    "generate_domain_pair",
    "write_dataset",
    "read_dataset",
    "batch_iterator",
    "read_text",
    "parse_json",
    "encode_floats",
    "check_float_text",
    "decode_floats",
    "DATASET_FORMAT_VERSION",
]

DATASET_FORMAT_VERSION = 2

# Generator shape constants; calibrated once against the default pipeline so
# that shift_severity 0.7 costs a source model >= 15 accuracy points.
# Videos start inside a restricted phase window of their class's motion
# period; the target's extra per-video phase offset (in period units) pushes
# them outside the window the source model was trained on, so a large part
# of the shift is temporal rather than spatial.
BASE_SCALE = 0.8
AMP_SCALE = 1.6
FREQ_RANGE = (0.6, 1.4)
PHASE_WINDOW = 0.35
ROTATION_ANGLE_RANGE = (0.2, 0.55)
GAIN_STD = 0.17
BIAS_STD = 0.2
PHASE_OFFSET_RANGE = (0.18, 0.52)

_TAGS = {"class": 0, "video": 1, "shift": 2, "tphase": 3, "noise": 4}


def _rng(seed: int, tag: str, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_TAGS[tag], *key)))


# DomainSpec field -> (least,) or (least, most), as ``_in_range`` takes them;
# RunConfig checks its data keys, and the readers the sizes they store, by it
_SPEC_BOUNDS = {
    "classes": (2,), "videos_per_class": (1,), "frames": (3, 16), "frame_dim": (1,),
    "shift_severity": (0.0, 1.0), "noise_std": (0.0,), "seed": (0,),
}


@dataclass
class DomainSpec:
    """Shape and severity parameters of one synthetic domain pair."""

    classes: int = 8
    videos_per_class: int = 200
    frames: int = 5
    frame_dim: int = 32
    shift_severity: float = 0.7
    noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name, bounds in _SPEC_BOUNDS.items():
            _in_range(getattr(self, name), f"DomainSpec.{name}", *bounds)


@dataclass
class Dataset:
    """One domain's videos as columns: row i of ``frames`` (N, k, d_in) is video
    ``ids[i]``, labeled ``labels[i]`` (an int64 array, or None when unlabeled).
    ``without_labels`` returns a dataset that shares ``frames``."""

    frames: np.ndarray
    ids: tuple[str, ...]
    labels: np.ndarray | None
    domain: str
    n_classes: int

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        self.ids = tuple(self.ids)
        least = _SPEC_BOUNDS["frames"][0]
        if self.frames.ndim != 3 or self.frames.shape[0] != len(self.ids) or self.frames.shape[1] < least:
            raise ValueError(f"frames shape {self.frames.shape} is not ({len(self.ids)} videos, k >= {least}, d_in)")
        if self.labels is None:
            if self.domain == "source":
                raise ValueError("source requires labels")
        else:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (len(self.ids),) or ((self.labels < 0) | (self.labels >= self.n_classes)).any():
                raise ValueError(f"labels must be {len(self.ids)} classes in [0, {self.n_classes})")

    def __len__(self):
        return len(self.ids)

    @property
    def k(self) -> int:
        return self.frames.shape[1]

    @property
    def d_in(self) -> int:
        return self.frames.shape[2]

    def without_labels(self) -> "Dataset":
        return Dataset(self.frames, self.ids, None, self.domain, self.n_classes)


def _class_params(spec: DomainSpec, c: int) -> dict:
    # Classes 2p and 2p+1 share the spatial base of pair p and differ in motion.
    pair_rng = _rng(spec.seed, "class", c // 2, 0)
    base = pair_rng.normal(0.0, BASE_SCALE, spec.frame_dim)
    motion_rng = _rng(spec.seed, "class", c, 1)
    amp = motion_rng.uniform(0.5, 1.5, spec.frame_dim) * AMP_SCALE
    freq = motion_rng.uniform(*FREQ_RANGE)
    dim_phase = motion_rng.uniform(0.0, 2.0 * np.pi, spec.frame_dim)
    return {"base": base, "amp": amp, "freq": freq, "dim_phase": dim_phase}


def _shift_transform(spec: DomainSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotation, gain, and bias of the target domain at the spec's severity."""
    s = spec.shift_severity
    d = spec.frame_dim
    rng = _rng(spec.seed, "shift")
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    angles = rng.uniform(*ROTATION_ANGLE_RANGE, size=d // 2) * s
    block = np.eye(d)
    for p, theta in enumerate(angles):
        i, j = 2 * p, 2 * p + 1
        c, snt = np.cos(theta), np.sin(theta)
        block[i, i], block[i, j], block[j, i], block[j, j] = c, -snt, snt, c
    rotation = q @ block @ q.T
    gain = 1.0 + s * GAIN_STD * rng.normal(size=d)
    bias = s * BIAS_STD * rng.normal(size=d)
    return rotation, gain, bias


def _clean_frames(spec: DomainSpec, cp: dict, phase: np.ndarray) -> np.ndarray:
    """The noiseless (n, k, d) frames of one class's videos at their ``n`` phases."""
    t = np.arange(spec.frames)[None, :, None] + phase[:, None, None]
    return cp["base"] + cp["amp"] * np.sin(cp["freq"] * t + cp["dim_phase"])


def generate_domain_pair(spec: DomainSpec) -> tuple[Dataset, Dataset]:
    """The labeled source and shifted target datasets. A class's phases, phase
    offsets and noise each come from one generator keyed by (tag, class), drawn
    in video order: its first n videos hold for any ``videos_per_class`` >= n."""
    s, n = spec.shift_severity, spec.videos_per_class
    if s > 0.0:
        rotation, gain, bias = _shift_transform(spec)
    source = np.empty((spec.classes * n, spec.frames, spec.frame_dim))
    target = np.empty_like(source)
    for c in range(spec.classes):
        cp = _class_params(spec, c)
        period = 2.0 * np.pi / cp["freq"]
        phase = _rng(spec.seed, "video", c).uniform(0.0, PHASE_WINDOW, n) * period
        src = tgt = _clean_frames(spec, cp, phase)
        if s > 0.0:
            offset = s * _rng(spec.seed, "tphase", c).uniform(*PHASE_OFFSET_RANGE, n) * period
            tgt = _clean_frames(spec, cp, phase + offset) @ rotation.T * gain + bias
        if spec.noise_std > 0.0:
            src = src + _rng(spec.seed, "noise", 0, c).normal(0.0, spec.noise_std, src.shape)
            tgt = tgt + _rng(spec.seed, "noise", 1, c).normal(0.0, spec.noise_std, tgt.shape)
        source[c * n : (c + 1) * n], target[c * n : (c + 1) * n] = src, tgt
    names = [f"c{c:02d}-v{i:04d}" for c in range(spec.classes) for i in range(n)]
    labels = np.repeat(np.arange(spec.classes, dtype=np.int64), n)
    return (
        Dataset(source, [f"source-{name}" for name in names], labels, "source", spec.classes),
        Dataset(target, [f"target-{name}" for name in names], labels.copy(), "target", spec.classes),
    )


# -- field checks -----------------------------------------------------------------
# An error names where the value is (a file and line, a checkpoint field, a
# config key), then what the value must be.


def _require_fields(obj, names, where: str, parent: str = "") -> dict:
    """``obj`` if it is a JSON object whose fields are exactly ``names`` (a
    generator stops at the first missing one), named ``parent.name`` in errors."""
    prefix = f"{parent}." if parent else ""
    if not isinstance(obj, dict):
        label = f"{where}: field {parent!r}" if parent else where
        raise ValueError(f"{label}: must be a JSON object, got {type(obj).__name__}")
    known = []
    for name in names:
        if name not in obj:
            raise ValueError(f"{where}: missing field {prefix + name!r}")
        known.append(name)
    if len(obj) > len(known):
        raise ValueError(f"{where}: unknown field {prefix + min(set(obj) - set(known))!r}")
    return obj


def _in_range(value, label: str, least, most=math.inf):
    """``value`` if it lies in [least, most]: an integer, not a bool, when
    ``least`` is an int, and otherwise a finite int or float."""
    if type(least) is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{label}: must be an integer, got {value!r}")
    # compared, not converted: an integer too large for a float is rejected too
    elif isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{label}: must be a finite number, got {value!r}")
    if not least <= value <= most:
        bound = f"be >= {least}" if most == math.inf else f"lie in [{least}, {most}]"
        raise ValueError(f"{label}: must {bound}, got {value!r}")
    return value


def _choice(value, choices: tuple, label: str):
    """``value`` if it is one of ``choices``, of the same type: 2.0 is not 2."""
    if not any(type(value) is type(choice) and value == choice for choice in choices):
        raise ValueError(f"{label}: must be one of {choices}, got {value!r}")
    return value


def _require_version(obj, version: int, where: str) -> None:
    """Check ``obj``'s format first, so that a file of another one is named as such."""
    found = obj.get("format_version") if isinstance(obj, dict) else None
    if type(found) is not int or found != version:
        raise ValueError(f"{where}: unsupported format_version {found!r}")


# -- file format ----------------------------------------------------------------


def read_text(path) -> str:
    """The whole file as UTF-8 text; a byte that is not UTF-8 is one
    ValueError naming the file, the byte's line and its offset."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: byte {exc.start} (0x{raw[exc.start]:02x}) is not UTF-8") from None


def parse_json(text: str, where: str, malformed: str):
    """``json.loads`` whose failures are one ValueError that starts with
    ``where``: a syntax error is ``malformed``, formatted with the error as
    ``exc``, and nesting deeper than the interpreter's recursion limit says so."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: {malformed.format(exc=exc)}") from exc
    except RecursionError:
        raise ValueError(f"{where}: JSON nested too deeply") from None


def encode_floats(values: np.ndarray) -> str:
    """Base64 text of the little-endian float64 bytes of ``values``, C order."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def check_float_text(text, count: int, where: str) -> None:
    """Check that ``text`` is a string exactly as long as the base64 of
    ``count`` float64 values, without decoding it."""
    if not isinstance(text, str):
        raise ValueError(f"{where}: must be a base64 string, got {type(text).__name__}")
    expected = (8 * count + 2) // 3 * 4
    if len(text) != expected:
        raise ValueError(f"{where}: must be {expected} base64 characters for {count} float64 values, got {len(text)}")


def decode_floats(text, shape: tuple, where: str) -> np.ndarray:
    """The writable, finite, native float64 array of ``shape`` that
    ``encode_floats`` wrote as ``text``; ``where`` starts every error.

    The length is checked before decoding, and only the canonical text is
    accepted: the standard alphabet, trailing padding, and zero bits where
    the last character before the padding has bits left over.
    """
    count = math.prod(shape)
    check_float_text(text, count, where)
    try:
        raw = base64.b64decode(text, validate=True)
        tail = len(raw) % 3
        # padding in place of data characters, or bits set past the last byte
        if len(raw) != 8 * count or (tail and base64.b64encode(raw[-tail:]).decode("ascii") != text[-4:]):
            raise binascii.Error
    except binascii.Error:
        raise ValueError(f"{where}: must be canonical base64") from None
    values = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(values).all():
        raise ValueError(f"{where}: must hold only finite values")
    return values


def write_dataset(ds: Dataset, path) -> None:
    """Line-delimited JSON: one header line, then one record per video whose
    ``frames`` is the ``encode_floats`` text of its (k, d_in) matrix, written
    as the text ``json.dumps(record, sort_keys=True)`` gives."""
    header = {
        "format_version": DATASET_FORMAT_VERSION,
        "domain": ds.domain,
        "C": ds.n_classes,
        "k": ds.k,
        "d_in": ds.d_in,
        "count": len(ds),
    }
    labels = [None] * len(ds) if ds.labels is None else ds.labels.tolist()
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True))
        fh.write("\n")
        for video_id, label, frames in zip(ds.ids, labels, ds.frames):
            label_text = "null" if label is None else str(label)
            fh.write(f'{{"frames": "{encode_floats(frames)}", "id": {json.dumps(video_id)}, "label": {label_text}}}\n')


# header size -> its bounds: those of the DomainSpec field it records
_HEADER_SIZES = {
    "C": _SPEC_BOUNDS["classes"], "k": _SPEC_BOUNDS["frames"], "d_in": _SPEC_BOUNDS["frame_dim"], "count": (1,)
}


def read_dataset(path) -> Dataset:
    lines = read_text(path).splitlines()
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    where = f"{path}: line 1"
    header = parse_json(lines[0], where, "malformed header")
    _require_version(header, DATASET_FORMAT_VERSION, where)
    _require_fields(header, ("format_version", "domain", *_HEADER_SIZES), where)
    domain = _choice(header["domain"], ("source", "target"), f"{where}: field 'domain'")
    for name, bounds in _HEADER_SIZES.items():
        _in_range(header[name], f"{where}: field {name!r}", *bounds)
    shape = (header["k"], header["d_in"])
    # allocated once the first record's text has vouched for k * d_in, so an
    # edited header size fails on its length instead of allocating
    frames = None
    labels = []
    id_lines: dict[str, int] = {}
    for row, line in enumerate(lines[1:]):
        where = f"{path}: line {row + 2}"
        rec = parse_json(line, where, "malformed record")
        _require_fields(rec, ("id", "label", "frames"), where)
        video_id = rec["id"]
        if not isinstance(video_id, str):
            raise ValueError(f"{where}: field 'id': must be a string, got {video_id!r}")
        # an id names its video's export rows, unquoted, and seeds its eval clips
        if any(ch in video_id for ch in ',"\r\n'):
            raise ValueError(f"{where}: field 'id': must hold no comma, double quote or line break, got {video_id!r}")
        first = id_lines.setdefault(video_id, row + 2)
        if first != row + 2:
            raise ValueError(f"{where}: duplicate id {video_id!r}, first on line {first}")
        values = decode_floats(rec["frames"], shape, f"{where}: field 'frames'")
        if frames is None:
            frames = np.empty((len(lines) - 1, *shape))  # the line count, not the header count
        frames[row] = values
        label = rec["label"]
        if label is not None:
            _in_range(label, f"{where}: field 'label'", 0, header["C"] - 1)
        elif domain == "source":
            raise ValueError(f"{where}: source requires labels")
        if labels and (label is None) != (labels[0] is None):
            raise ValueError(f"{where}: field 'label' is {json.dumps(label)}, but line 2's is {json.dumps(labels[0])}")
        labels.append(label)
    if len(labels) != header["count"]:
        raise ValueError(f"{path}: line 1: field 'count': must match the {len(labels)} records, got {header['count']}")
    labels = None if labels[0] is None else np.array(labels, dtype=np.int64)
    return Dataset(frames, list(id_lines), labels, domain, header["C"])


# -- batching ---------------------------------------------------------------------


def batch_iterator(ds: Dataset, batch_size: int, shuffle_seed):
    """Row indices of ``ds``, one int array per full batch of a seeded
    permutation; the final short batch is dropped.

    ``shuffle_seed`` is an int or a prepared numpy SeedSequence.
    """
    if batch_size < 2:
        raise ValueError("batch_iterator: training needs batch_size >= 2 for batch statistics")
    order = np.random.default_rng(shuffle_seed).permutation(len(ds))
    for start in range(0, len(order) - batch_size + 1, batch_size):
        yield order[start : start + batch_size]
