"""Flat key=value configuration with dotted keys.

Every training-protocol constant and model shape is a `TrainConfig` field
and can be overridden by a config file line like `optim.lr_backbone = 1e-3`
or `# comment`. A field's dotted key is its section, a dot, and its name
without the section prefix: `text_width` in section `text` is `text.width`.
Unknown keys and untypeable values raise ConfigError.
"""

from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .losses import MODES


def _knob(section, default):
    return field(default=default, metadata={"section": section})


@dataclass
class TrainConfig:
    data_path: str = _knob("data", "")
    image_size: int = _knob("model", 64)
    patch: int = _knob("model", 8)
    d_model: int = _knob("model", 64)
    blocks: int = _knob("model", 4)
    heads: int = _knob("model", 4)
    mlp_ratio: int = _knob("model", 4)
    text_width: int = _knob("text", 64)
    text_layers: int = _knob("text", 2)
    text_heads: int = _knob("text", 4)
    max_len: int = _knob("text", 40)
    groups: int = _knob("law", 4)
    rank_dw: int = _knob("law", 8)
    reduction_r: int = _knob("law", 16)
    pool_dim: int = _knob("head", 32)
    threshold: float = _knob("head", 0.35)
    loss_l1: float = _knob("loss", 1.0)
    loss_giou: float = _knob("loss", 1.0)
    loss_focal: float = _knob("loss", 4.0)
    loss_dice: float = _knob("loss", 4.0)
    focal_alpha: float = _knob("loss", 0.25)
    focal_gamma: float = _knob("loss", 2.0)
    lr_backbone: float = _knob("optim", 4e-5)
    lr_rest: float = _knob("optim", 4e-4)
    weight_decay: float = _knob("optim", 1e-4)
    decay_factor: float = _knob("optim", 0.1)
    decay_step: int = _knob("optim", 0)  # 0 -> two thirds of train.steps
    steps: int = _knob("train", 3000)
    batch_size: int = _knob("train", 16)
    seed: int = _knob("train", 0)
    mode: str = _knob("train", "multitask")
    eval_every: int = _knob("train", 250)
    log_every: int = _knob("train", 50)
    flip_prob: float = _knob("train", 0.5)
    lawg_enabled: bool = _knob("ablation", True)
    lap_enabled: bool = _knob("ablation", True)
    mth_enabled: bool = _knob("ablation", True)


def _dotted_key(f):
    section = f.metadata["section"]
    return f"{section}.{f.name.removeprefix(section + '_')}"


# dotted config key -> dataclass field, in field order
_FIELDS = {_dotted_key(f): f for f in fields(TrainConfig)}


def _parse_value(key, raw):
    kind = type(_FIELDS[key].default)
    raw = raw.strip()
    try:
        if kind is bool:
            lowered = raw.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(
            f"bad value for {key}: {raw!r} (expected {kind.__name__})") from None


def parse_config_text(text, base=None):
    cfg = base or TrainConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        setattr(cfg, _FIELDS[key].name, _parse_value(key, raw))
    return cfg


def load_config(path, base=None):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, base=base)


def config_to_text(cfg):
    """Canonical serialization (checkpoint echo); field order is fixed."""
    lines = []
    for key, f in _FIELDS.items():
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def validate(cfg):
    for key, f in _FIELDS.items():  # every other integer key counts something
        value = getattr(cfg, f.name)
        if f.type is int and f.name not in ("seed", "steps", "decay_step") and value < 1:
            raise ConfigError(f"{key} must be >= 1, got {value}")
    if cfg.mode not in MODES:
        raise ConfigError(f"train.mode must be one of {MODES}, got {cfg.mode!r}")
    if not cfg.mth_enabled and cfg.mode != "rec":
        cfg.mode = "rec"  # no mask branch, nothing to segment
    if cfg.image_size % cfg.patch:
        raise ConfigError("model.image_size must be divisible by model.patch")
    if cfg.d_model % cfg.heads:
        raise ConfigError("model.heads must divide model.d_model")
    if cfg.text_width % cfg.text_heads:
        raise ConfigError("text.heads must divide text.width")
    if cfg.text_width % cfg.groups:
        raise ConfigError("law.groups must divide text.width")
    if cfg.text_width % cfg.reduction_r:
        raise ConfigError("law.reduction_r must divide text.width")
    if not 0.0 < cfg.threshold < 1.0:
        raise ConfigError("head.threshold must lie in (0, 1)")
    if not 0.0 <= cfg.flip_prob <= 1.0:
        raise ConfigError("train.flip_prob must lie in [0, 1]")
    if cfg.steps < 0:
        raise ConfigError("train.steps must be >= 0")
    if cfg.decay_step == 0:
        cfg.decay_step = (2 * cfg.steps) // 3
    return cfg
