"""key=value config files covering the whole pipeline.

Lines look like ``train.learning_rate = 0.0001``; blank lines and ``#``
comments are ignored.  Only the 15 keys of `_SETTERS` exist, and a bad value
(a float key refuses NaN and infinity) is refused naming its key and value.
Every key has a default mirroring the standard recipe, so an empty file is a valid config.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ConfigError
from .model import ModelCfg, ResidualBlockCfg
from .training import TrainConfig

@dataclass
class PipelineConfig:
    train: TrainConfig = field(default_factory=TrainConfig)
    em_iterations: int = 30
    bank_orders: list[int] = field(default_factory=lambda: [64, 128, 256, 512, 1024])
    target_frames: int = 400
    n_groups: int = 8
    n_blocks: int = 6
    channels: int = 256
    mfa: bool = True
    improved_blocks: bool = True
    grouping: str = "lineage"
    grouping_seed: int = 0

    def model_cfg(self) -> ModelCfg:
        total = sum(self.bank_orders)
        if self.n_groups < 1:  # before the modulo below
            raise ConfigError(f"model.n_groups must be >= 1, got {self.n_groups}")
        # every bank order is split into n_groups equal groups, as the groupings require
        if self.n_groups & (self.n_groups - 1):
            raise ConfigError(f"model.n_groups must be a power of 2, got {self.n_groups}")
        if self.n_groups > min(self.bank_orders):
            raise ConfigError(
                f"model.n_groups {self.n_groups} exceeds the smallest bank order {min(self.bank_orders)}"
            )
        if total % self.n_groups:
            raise ConfigError(
                f"total component count {total} is not divisible by n_groups {self.n_groups}"
            )
        return ModelCfg(
            n_groups=self.n_groups,
            n_blocks=self.n_blocks,
            block=ResidualBlockCfg(channels=self.channels),
            group_input_dim=total // self.n_groups,
            mfa=self.mfa,
            improved_blocks=self.improved_blocks,
        )


def _parse(typ, raw: str, key: str):
    """raw as a value of key's type typ; ConfigError naming key and raw if it is not one."""
    if typ is bool:
        lowered = raw.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if typ in (int, float):
        try:
            value = typ(raw)
        except ValueError:
            raise ConfigError(f"{key} expects {typ.__name__}, got {raw!r}") from None
        if typ is float and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {raw!r}")
        return value
    return typ(raw)


def _orders(raw: str) -> list[int]:
    """A non-empty list of distinct positive powers of 2, in any order."""
    try:
        orders = [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"bank.orders: expected integers, got {raw!r}") from None
    if not orders or len(set(orders)) != len(orders) or any(o < 1 or o & (o - 1) for o in orders):
        raise ConfigError(f"bank.orders: expected distinct positive powers of 2, got {raw!r}")
    return orders


_SETTERS = {
    "em.n_iterations": (None, "em_iterations", int),
    "train.learning_rate": ("train", "learning_rate", float),
    "train.batch_size": ("train", "batch_size", int),
    "train.epochs": ("train", "epochs", int),
    "train.seed": ("train", "seed", int),
    "train.ensemble_aware": ("train", "ensemble_aware", bool),
    "bank.orders": (None, "bank_orders", _orders),
    "features.target_frames": (None, "target_frames", int),
    "model.n_groups": (None, "n_groups", int),
    "model.n_blocks": (None, "n_blocks", int),
    "model.channels": (None, "channels", int),
    "model.mfa": (None, "mfa", bool),
    "model.improved_blocks": (None, "improved_blocks", bool),
    "grouping.method": (None, "grouping", str),
    "grouping.seed": (None, "grouping_seed", int),
}


def load_config(path: str | Path | None = None) -> PipelineConfig:
    cfg = PipelineConfig()
    if path is None:
        return cfg
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _SETTERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        section, attr, typ = _SETTERS[key]
        try:
            value = _parse(typ, raw, key)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        target = cfg if section is None else getattr(cfg, section)
        setattr(target, attr, value)
    for key, least in (("features.target_frames", 1), ("em.n_iterations", 1), ("grouping.seed", 0)):
        value = getattr(cfg, _SETTERS[key][1])
        if value < least:
            raise ConfigError(f"{key} must be >= {least}, got {value}")
    if cfg.grouping not in ("lineage", "random"):
        raise ConfigError(f"grouping.method must be 'lineage' or 'random', got {cfg.grouping!r}")
    # re-run the dataclass validations that setattr bypassed; model_cfg() checks the model keys
    cfg.model_cfg()
    cfg.train = TrainConfig(**asdict(cfg.train))
    return cfg
