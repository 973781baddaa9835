"""Run configuration: documented defaults, a line-oriented ``key = value``
file format, and the precedence rule inline flags > file > defaults.

Unknown keys are rejected, every key has a default, and
``parse_config(emit_config(cfg)) == cfg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .data import _SPEC_BOUNDS, DomainSpec, _choice, _in_range, read_text
from .lwm import SITES
from .model import _HYPERPARAMS, HEAD_SCOPES

__all__ = ["RunConfig", "Variant", "VARIANTS", "parse_config", "emit_config", "load_config"]

# Each adaptation variant is a subtree of the full objective
#   beta_tc*(beta_fc*fc + beta_pc*(alpha_local*pc_local + alpha_overall*pc_overall))
#     + beta_im*im + beta_ce*pl_ce
# written as a tuple of (RunConfig weight field, child) terms, where a child is a
# nested tuple or a component name (a metrics column). A variant's sites say
# where it applies the entropy weights. The consistency-only variants train
# unweighted: without the entropy-minimizing IM term, the weight feedback
# (uncertain scale -> small weight -> flatter prediction -> smaller weight)
# degenerates, so entropy weighting is only active alongside the full objective.
_PC = (("alpha_local", "pc_local"), ("alpha_overall", "pc_overall"))
_TC = (("beta_fc", "fc"), ("beta_pc", _PC))
_FULL = (("beta_tc", _TC), ("beta_im", "im"), ("beta_ce", "pl_ce"))


@dataclass(frozen=True)
class Variant:
    objective: tuple
    sites: frozenset = frozenset()

    def __post_init__(self):
        if not SITES.issuperset(self.sites):
            raise ValueError(f"variant sites {sorted(set(self.sites) - SITES)} are not among {sorted(SITES)}")

    def coefficients(self, cfg: RunConfig) -> dict[str, float]:
        """Each component's coefficient under ``cfg``: the product of the
        weights on its path, components left to right."""

        def leaves(tree, coeff):
            for name, child in tree:
                c = coeff * getattr(cfg, name)
                if isinstance(child, str):
                    yield child, c
                else:
                    yield from leaves(child, c)

        return dict(leaves(self.objective, 1.0))


VARIANTS = {
    "full": Variant(_FULL, frozenset({"feature", "prediction"})),
    "fc": Variant(_TC[:1]),
    "pc": Variant(_PC),
    "pc_no_overall": Variant(_PC[:1]),
    "tc": Variant(_TC),
    "na": Variant(_FULL),
    "a_at_f": Variant(_FULL, frozenset({"feature"})),
    "a_at_p": Variant(_FULL, frozenset({"prediction"})),
    "shot_baseline": Variant(_FULL[1:]),
    "source_only": Variant(()),
}


@dataclass
class RunConfig:
    """Everything a reproducible experiment depends on, one flat namespace."""

    # synthetic data
    classes: int = 8
    videos_per_class: int = 200
    frames: int = 5
    frame_dim: int = 32
    shift_severity: float = 0.7
    noise_std: float = 0.1
    # model
    d_enc: int = 64
    d: int = 64
    d_b: int = 64
    m_max: int = 3
    # loss weights and guards
    lam: float = 5e-3
    alpha_local: float = 1.0
    alpha_overall: float = 1.0
    beta_fc: float = 1.0
    beta_pc: float = 1.0
    beta_tc: float = 1.0
    beta_im: float = 1.0
    beta_ce: float = 1.0
    eps_norm: float = 1e-5
    eps_smooth: float = 0.1
    # optimizer
    lr_source: float = 1e-2
    lr_adapt: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 1e-3
    # schedule
    epochs_source: int = 30
    epochs_adapt: int = 15
    batch_size: int = 64
    # adaptation behavior
    variant: str = "full"
    freeze_scope: str = "head_all"
    pl_rounds: int = 1
    # reproducibility
    seed: int = 42

    def __post_init__(self):
        for key, bounds in _BOUNDS.items():
            _in_range(getattr(self, key), f"config key {key!r}", *bounds)
        for key, choices in _CHOICES.items():
            _choice(getattr(self, key), choices, f"config key {key!r}")
        if self.eps_norm == 0.0:
            raise ValueError(f"config key 'eps_norm': must be > 0, got {self.eps_norm}")
        if self.eps_smooth >= 1.0:
            raise ValueError(f"config key 'eps_smooth': must lie in [0, 1), got {self.eps_smooth}")

    def domain_spec(self) -> DomainSpec:
        return DomainSpec(**{f.name: getattr(self, f.name) for f in fields(DomainSpec)})


_CHOICES = {"variant": tuple(VARIANTS), "freeze_scope": tuple(HEAD_SCOPES)}
_FIELDS = {f.name: f.type for f in fields(RunConfig)}
# key -> (least,) or (least, most), as ``_in_range`` takes them: every float key
# is finite and >= 0, the data keys take DomainSpec's bounds, and the model
# sizes those a checkpoint is read with
_BOUNDS = {
    **{key: (0.0,) for key, kind in _FIELDS.items() if kind == "float"},
    **_SPEC_BOUNDS,
    **{attr: bounds for attr, (_, bounds) in _HYPERPARAMS.items() if attr in _FIELDS},
    **dict.fromkeys(("epochs_source", "epochs_adapt", "pl_rounds"), (1,)),
    "batch_size": (2,),
}


def _parse_value(key: str, raw: str):
    kind = _FIELDS[key]
    raw = raw.strip()
    if kind not in ("int", "float"):
        return raw
    try:
        value = int(raw) if kind == "int" else float(raw)
    except ValueError:
        expected = "an integer" if kind == "int" else "a number"
        raise ValueError(f"config key {key!r}: expected {expected}, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"config key {key!r}: expected a finite number, got {raw!r}")
    return value


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse ``key = value`` lines on top of ``base`` (defaults when absent)."""
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ValueError(f"config line {lineno}: unknown config key {key!r}")
        try:
            updates[key] = _parse_value(key, raw)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
    return apply_overrides(base or RunConfig(), updates)


def apply_overrides(cfg: RunConfig, updates: dict) -> RunConfig:
    values = {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}
    for key, value in updates.items():
        if key not in _FIELDS:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = _parse_value(key, value) if isinstance(value, str) and _FIELDS[key] != "str" else value
    return RunConfig(**values)


def emit_config(cfg: RunConfig) -> str:
    lines = [f"{f.name} = {_format(getattr(cfg, f.name))}" for f in fields(RunConfig)]
    return "\n".join(lines) + "\n"


def _format(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    text = read_text(path)
    try:
        return parse_config(text, base=base)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
