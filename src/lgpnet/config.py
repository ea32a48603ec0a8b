"""key=value config files covering the whole pipeline.

Lines look like ``train.learning_rate = 0.0001``; blank lines and ``#``
comments are ignored.  Only the 12 keys of `_SETTERS` exist, each may be
set once, and a bad value (a float key refuses NaN and infinity) is refused
naming its key and value.  Every key has a default mirroring the standard
recipe, so an empty file is a valid config.  EM's iteration count is not a
key: `train-gmm --iters` sets it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .model import ModelCfg, ResidualBlockCfg
from .training import TrainConfig

@dataclass
class PipelineConfig:
    train: TrainConfig = field(default_factory=TrainConfig)
    bank_orders: list[int] = field(default_factory=lambda: [64, 128, 256, 512, 1024])
    target_frames: int = 400
    n_groups: int = 8
    n_blocks: int = 6
    channels: int = 256
    mfa: bool = True
    improved_blocks: bool = True

    def __post_init__(self):
        self.model_cfg()  # _check(), then ModelCfg's own refusals of n_blocks and channels

    def _check(self) -> None:
        """Refuse a value out of range, naming its key: every order of the bank
        is split into n_groups equal groups, so the orders are distinct
        positive powers of 2 and n_groups a power of 2 no larger than the
        smallest.  A refusal of the form ``<key>: ...`` echoes the value as
        a config line writes it."""
        orders = self.bank_orders
        if not orders or len(set(orders)) != len(orders) or any(o < 1 or o & (o - 1) for o in orders):
            shown = " ".join(str(o) for o in orders)
            raise ConfigError(f"bank.orders: expected distinct positive powers of 2, got {shown!r}")
        if self.target_frames < 1:
            raise ConfigError(f"features.target_frames must be >= 1, got {self.target_frames}")
        if self.n_groups < 1:  # 0 & -1 == 0 would pass as a power of 2
            raise ConfigError(f"model.n_groups must be >= 1, got {self.n_groups}")
        if self.n_groups & (self.n_groups - 1):
            raise ConfigError(f"model.n_groups must be a power of 2, got {self.n_groups}")
        if self.n_groups > min(orders):
            raise ConfigError(f"model.n_groups {self.n_groups} exceeds the smallest bank order {min(orders)}")

    def model_cfg(self) -> ModelCfg:
        self._check()  # again, for a config mutated since it was made
        return ModelCfg(
            n_groups=self.n_groups,
            n_blocks=self.n_blocks,
            block=ResidualBlockCfg(channels=self.channels),
            group_input_dim=sum(self.bank_orders) // self.n_groups,
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
    """The integers of a comma- or space-separated list, in any order."""
    try:
        return [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"bank.orders: expected integers, got {raw!r}") from None


_SETTERS = {
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
}


def load_config(path: str | Path | None = None) -> PipelineConfig:
    """The config of a file, or the defaults for None.  A line that does not
    parse, or repeats a key, is refused as ``<file>:<line>: ...``, and so is
    a ``<key>: ...`` refusal of `PipelineConfig._check`."""
    if path is None:
        return PipelineConfig()
    values, train, lines = {}, {}, {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _SETTERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: {key} is already set on line {lines[key]}")
        lines[key] = lineno
        section, attr, typ = _SETTERS[key]
        try:
            value = _parse(typ, raw, key)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        (train if section == "train" else values)[attr] = value
    try:
        return PipelineConfig(train=TrainConfig(**train), **values)
    except ConfigError as exc:
        key = str(exc).partition(":")[0]
        if key not in lines:  # a range refusal names its key and value, not a line
            raise
        raise ConfigError(f"{path}:{lines[key]}: {exc}") from None
