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
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "VideoSample",
    "DomainSpec",
    "Dataset",
    "Batch",
    "generate_domain_pair",
    "write_dataset",
    "read_dataset",
    "batch_iterator",
    "read_text",
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


@dataclass
class VideoSample:
    """One video: ordered per-frame feature vectors plus an optional label."""

    id: str
    frames: np.ndarray
    label: int | None

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] < 3:
            raise ValueError(f"VideoSample {self.id}: need a (k >= 3, d_in) frame matrix")


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
        if self.classes < 2:
            raise ValueError(f"DomainSpec.classes must be >= 2, got {self.classes}")
        if self.frames < 3:
            raise ValueError(f"DomainSpec.frames must be >= 3, got {self.frames}")
        if not 0.0 <= self.shift_severity <= 1.0:
            raise ValueError(f"DomainSpec.shift_severity must lie in [0, 1], got {self.shift_severity}")
        if self.videos_per_class < 1:
            raise ValueError("DomainSpec.videos_per_class must be >= 1")
        if self.noise_std < 0.0:
            raise ValueError("DomainSpec.noise_std must be >= 0")


@dataclass
class Dataset:
    """Ordered samples from one domain, with a per-class count manifest."""

    samples: list[VideoSample]
    domain: str
    n_classes: int
    k: int
    d_in: int
    manifest: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for s in self.samples:
            if s.frames.shape != (self.k, self.d_in):
                raise ValueError(f"sample {s.id}: frames shape {s.frames.shape} != ({self.k}, {self.d_in})")
            if s.label is not None and not 0 <= s.label < self.n_classes:
                raise ValueError(f"sample {s.id}: label {s.label} out of range")
        if self.domain == "source" and any(s.label is None for s in self.samples):
            raise ValueError("source requires labels")
        counted: dict[int, int] = {}
        for s in self.samples:
            if s.label is not None:
                counted[s.label] = counted.get(s.label, 0) + 1
        if self.manifest:
            if counted != dict(self.manifest):
                raise ValueError("dataset manifest does not match label counts")
        else:
            self.manifest = counted

    def __len__(self):
        return len(self.samples)

    @property
    def labeled(self) -> bool:
        return all(s.label is not None for s in self.samples)

    def labels_array(self) -> np.ndarray | None:
        if not self.labeled:
            return None
        return np.array([s.label for s in self.samples], dtype=np.int64)

    def without_labels(self) -> "Dataset":
        stripped = [VideoSample(s.id, s.frames.copy(), None) for s in self.samples]
        return Dataset(stripped, self.domain, self.n_classes, self.k, self.d_in)


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


def _clean_frames(spec: DomainSpec, cp: dict, phase: float) -> np.ndarray:
    t = np.arange(spec.frames)[:, None] + phase
    return cp["base"][None, :] + cp["amp"][None, :] * np.sin(cp["freq"] * t + cp["dim_phase"][None, :])


def generate_domain_pair(spec: DomainSpec) -> tuple[Dataset, Dataset]:
    """Generate the labeled source dataset and the shifted target dataset."""
    s = spec.shift_severity
    if s > 0.0:
        rotation, gain, bias = _shift_transform(spec)
    source, target = [], []
    for c in range(spec.classes):
        cp = _class_params(spec, c)
        period = 2.0 * np.pi / cp["freq"]
        for i in range(spec.videos_per_class):
            phase = _rng(spec.seed, "video", c, i).uniform(0.0, PHASE_WINDOW) * period
            src = _clean_frames(spec, cp, phase)
            if spec.noise_std > 0.0:
                src = src + _rng(spec.seed, "noise", 0, c, i).normal(0.0, spec.noise_std, src.shape)
            source.append(VideoSample(f"source-c{c:02d}-v{i:04d}", src, c))

            if s > 0.0:
                offset = s * _rng(spec.seed, "tphase", c, i).uniform(*PHASE_OFFSET_RANGE) * period
                tgt = _clean_frames(spec, cp, phase + offset) @ rotation.T * gain[None, :] + bias[None, :]
            else:
                tgt = _clean_frames(spec, cp, phase)
            if spec.noise_std > 0.0:
                tgt = tgt + _rng(spec.seed, "noise", 1, c, i).normal(0.0, spec.noise_std, tgt.shape)
            target.append(VideoSample(f"target-c{c:02d}-v{i:04d}", tgt, c))
    common = dict(n_classes=spec.classes, k=spec.frames, d_in=spec.frame_dim)
    return (
        Dataset(source, domain="source", **common),
        Dataset(target, domain="target", **common),
    )


# -- file format ----------------------------------------------------------------


def read_text(path) -> str:
    """The whole file as UTF-8 text; a byte that is not UTF-8 is one
    ValueError naming the file and the byte's offset."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: byte {exc.start} (0x{raw[exc.start]:02x}) is not UTF-8") from None


def encode_floats(values: np.ndarray) -> str:
    """Base64 text of the little-endian float64 bytes of ``values``, C order."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def check_float_text(text, count: int, where: str) -> None:
    """Check that ``text`` is a string exactly as long as the base64 of
    ``count`` float64 values, without decoding it."""
    if not isinstance(text, str):
        raise ValueError(f"{where} must be a base64 string, got {type(text).__name__}")
    expected = (8 * count + 2) // 3 * 4
    if len(text) != expected:
        raise ValueError(
            f"{where} has {len(text)} base64 characters, expected {expected} for {count} float64 values"
        )


def decode_floats(text, shape: tuple, where: str) -> np.ndarray:
    """The writable, finite, native float64 array of ``shape`` that
    ``encode_floats`` wrote as ``text``; ``where`` starts every error.

    The length is checked before decoding, and only the standard base64
    alphabet with trailing padding is accepted.
    """
    count = math.prod(shape)
    check_float_text(text, count, where)
    try:
        raw = base64.b64decode(text, validate=True)
        if len(raw) != 8 * count:  # padding in place of data characters
            raise binascii.Error
    except binascii.Error:
        raise ValueError(f"{where} is not valid base64") from None
    values = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(values).all():
        raise ValueError(f"{where} has non-finite values")
    return values


def write_dataset(ds: Dataset, path) -> None:
    """Line-delimited JSON: one header line, then one record per video whose
    ``frames`` is the ``encode_floats`` text of its (k, d_in) matrix."""
    if ds.domain == "source" and not ds.labeled:
        raise ValueError("source requires labels")
    header = {
        "format_version": DATASET_FORMAT_VERSION,
        "domain": ds.domain,
        "C": ds.n_classes,
        "k": ds.k,
        "d_in": ds.d_in,
        "count": len(ds.samples),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True))
        fh.write("\n")
        for s in ds.samples:
            record = {
                "id": s.id,
                "label": None if s.label is None else int(s.label),
                "frames": encode_floats(s.frames),
            }
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")


DOMAINS = ("source", "target")
HEADER_FIELDS = ("domain", "C", "k", "d_in", "count")
RECORD_FIELDS = ("id", "label", "frames")


def _require_fields(obj, names, where: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object")
    for name in names:
        if name not in obj:
            raise ValueError(f"{where}: missing field {name!r}")


def _reject_unknown_fields(obj: dict, names, where: str) -> None:
    if len(obj) > len(names):
        unknown = sorted(set(obj) - set(names))
        raise ValueError(f"{where}: unknown field {unknown[0]!r}")


def _require_int(obj, name: str, where: str) -> None:
    if not isinstance(obj[name], int) or isinstance(obj[name], bool):
        raise ValueError(f"{where}: field {name!r} must be an integer, got {obj[name]!r}")


def read_dataset(path) -> Dataset:
    lines = read_text(path).splitlines()
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line 1: malformed header") from exc
    _require_fields(header, ("format_version",), f"{path}: line 1")
    version = header["format_version"]
    if version != DATASET_FORMAT_VERSION:
        raise ValueError(f"{path}: line 1: unsupported format_version {version}")
    _require_fields(header, HEADER_FIELDS, f"{path}: line 1")
    _reject_unknown_fields(header, ("format_version", *HEADER_FIELDS), f"{path}: line 1")
    if header["domain"] not in DOMAINS:
        raise ValueError(f"{path}: line 1: field 'domain' must be one of {DOMAINS}, got {header['domain']!r}")
    for name, least in (("C", 2), ("k", 3), ("d_in", 1), ("count", 1)):
        _require_int(header, name, f"{path}: line 1")
        if header[name] < least:
            raise ValueError(f"{path}: line 1: field {name!r} must be >= {least}, got {header[name]}")
    shape = (header["k"], header["d_in"])
    samples = []
    id_lines: dict[str, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {lineno}: malformed record") from exc
        _require_fields(rec, RECORD_FIELDS, f"{path}: line {lineno}")
        _reject_unknown_fields(rec, RECORD_FIELDS, f"{path}: line {lineno}")
        video_id = rec["id"]
        if not isinstance(video_id, str):
            raise ValueError(f"{path}: line {lineno}: field 'id' must be a string, got {video_id!r}")
        # pseudo-labels are looked up by id: a repeat would take another's label
        first = id_lines.setdefault(video_id, lineno)
        if first != lineno:
            raise ValueError(f"{path}: line {lineno}: duplicate id {video_id!r}, first on line {first}")
        frames = decode_floats(rec["frames"], shape, f"{path}: line {lineno}: field 'frames'")
        label = rec["label"]
        if label is not None:
            _require_int(rec, "label", f"{path}: line {lineno}")
        if header["domain"] == "source" and label is None:
            raise ValueError(f"{path}: line {lineno}: source requires labels")
        if label is not None and not 0 <= label < header["C"]:
            raise ValueError(f"{path}: line {lineno}: label {label} out of range")
        samples.append(VideoSample(video_id, frames, label))
    if len(samples) != header["count"]:
        raise ValueError(
            f"{path}: header count {header['count']} does not match {len(samples)} records"
        )
    return Dataset(samples, header["domain"], header["C"], header["k"], header["d_in"])


# -- batching ---------------------------------------------------------------------


@dataclass
class Batch:
    frames: np.ndarray
    labels: np.ndarray | None
    ids: list[str]


def batch_iterator(ds: Dataset, batch_size: int, shuffle_seed, train: bool = True):
    """Seeded permutation into batches; training drops the final short batch.

    ``shuffle_seed`` is an int or a prepared numpy SeedSequence.
    """
    if train and batch_size < 2:
        raise ValueError("batch_iterator: training needs batch_size >= 2 for batch statistics")
    if batch_size < 1:
        raise ValueError("batch_iterator: batch_size must be >= 1")
    if not isinstance(shuffle_seed, np.random.SeedSequence):
        shuffle_seed = np.random.SeedSequence(shuffle_seed)
    order = np.random.default_rng(shuffle_seed).permutation(len(ds.samples))
    labeled = ds.labeled
    for start in range(0, len(order), batch_size):
        chunk = order[start : start + batch_size]
        if train and len(chunk) < batch_size:
            break
        picked = [ds.samples[i] for i in chunk]
        yield Batch(
            frames=np.stack([s.frames for s in picked], axis=0),
            labels=np.array([s.label for s in picked], dtype=np.int64) if labeled else None,
            ids=[s.id for s in picked],
        )
