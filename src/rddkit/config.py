"""Run configuration: nested dataclasses with their defaults and checks, and
JSON parsing with unknown-key rejection. The CLI archives the resolved
config, every defaulted field included, so it fully reproduces a run.

The sections are also the library's parameter objects: init_params takes a
NetSection, train_ddpm a NetSection and a PretrainSection, finetune and
weighted_epoch a FinetuneSection, svdd_generate an SvddSection,
rewards.from_section a RewardSection, and make_schedule the fields of a
ScheduleSection. Each section holds the one default and the one check() of
its fields; validate runs them all and the library entry points run their
own.
"""

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass

from rddkit.exceptions import ConfigError
from rddkit.hull import LOA_RANGE


def _list_of(value, types):
    """True for a non-empty list or tuple of non-bool instances of types."""
    return isinstance(value, (list, tuple)) and bool(value) and not any(
        isinstance(x, bool) or not isinstance(x, types) for x in value)


def _check_finite(section, name):
    """Reject NaN and infinite values in every float field of a section.

    The range checks of check() are comparisons, and every comparison with
    NaN is false; JSON files may spell NaN and Infinity.
    """
    for f in fields(section):
        value = getattr(section, f.name)
        if f.type is float and not -math.inf < value < math.inf:
            raise ConfigError(f"{name}.{f.name}: must be finite, got {value!r}")


# the largest schedule length: 100 times the default T, 10 times the usual
# DDPM T; it bounds the schedule tables of a config and of a model file
MAX_T = 10_000


@dataclass
class ScheduleSection:
    T: int = 100
    beta_start: float = 1e-4
    beta_end: float = 0.02

    def check(self):
        _check_finite(self, "schedule")
        if not 1 <= self.T <= MAX_T:
            raise ConfigError(f"schedule.T: must lie in [1, {MAX_T}], got {self.T}")
        if not (0.0 < self.beta_start < 1.0) or not (0.0 < self.beta_end < 1.0):
            raise ConfigError("schedule.beta_start/beta_end: must lie in (0, 1)")
        if self.beta_start > self.beta_end:
            raise ConfigError("schedule.beta_start: must not exceed schedule.beta_end")


@dataclass
class NetSection:
    embed_dim: int = 32
    hidden_dims: list = field(default_factory=lambda: [256, 256])

    def check(self):
        _check_finite(self, "net")
        if self.embed_dim <= 0 or self.embed_dim % 2:
            raise ConfigError("net.embed_dim: must be a positive even integer")
        if not _list_of(self.hidden_dims, int) or min(self.hidden_dims) < 1:
            raise ConfigError("net.hidden_dims: expected a non-empty list of integers >= 1, "
                              f"got {self.hidden_dims!r}")


@dataclass
class PretrainSection:
    epochs: int = 200
    batch_size: int = 128
    learning_rate: float = 1e-3
    seed: int = 0

    def check(self):
        _check_finite(self, "pretrain")
        if self.epochs < 0:
            raise ConfigError("pretrain.epochs: must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("pretrain.batch_size: must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("pretrain.learning_rate: must be > 0")
        if self.seed < 0:
            raise ConfigError("pretrain.seed: must be >= 0")


@dataclass
class FinetuneSection:
    S: int = 50
    m: int = 256
    alpha: float = 1.0
    gamma: float = 1e-3
    kl_anchor: bool = True
    anchor_kappa: float = 0.01
    batch_size: int = 64
    seed: int = 1

    def check(self):
        _check_finite(self, "finetune")
        # S = 0 is permitted as the do-nothing identity
        if self.S < 0:
            raise ConfigError("finetune.S: must be >= 0")
        if self.m < 2:
            raise ConfigError("finetune.m: must be >= 2")
        if self.alpha <= 0:
            raise ConfigError("finetune.alpha: must be > 0")
        if self.gamma <= 0:
            raise ConfigError("finetune.gamma: must be > 0")
        # a negative kappa would silently switch the KL anchor off
        if self.anchor_kappa < 0:
            raise ConfigError("finetune.anchor_kappa: must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("finetune.batch_size: must be >= 1")
        if self.seed < 0:
            raise ConfigError("finetune.seed: must be >= 0")


@dataclass
class SvddSection:
    M: int = 5
    alpha: float = 0.2
    n_traj: int = 1000
    seed: int = 2

    def check(self):
        _check_finite(self, "svdd")
        if self.M < 1:
            raise ConfigError("svdd.M: must be >= 1")
        if self.alpha < 0:
            raise ConfigError("svdd.alpha: must be >= 0")
        if self.n_traj < 1:
            raise ConfigError("svdd.n_traj: must be >= 1")
        if self.seed < 0:
            raise ConfigError("svdd.seed: must be >= 0")


_REWARD_KINDS = ("synthetic", "hull", "surrogate", "airfoil")


@dataclass
class RewardSection:
    kind: str = "synthetic"        # synthetic | hull | surrogate | airfoil
    target: list = None            # synthetic: target point; None = benchmark default
    loa: float = 80.0              # hull: overall length in metres
    scale: float = 1e-6            # hull: resistance-to-reward scale
    surrogate_path: str = None     # surrogate / airfoil: fitted tree file
    lambda_range: float = 10.0     # airfoil: out-of-range penalty weight
    lambda_intersect: float = 1.0  # airfoil: self-intersection penalty weight

    def check(self):
        _check_finite(self, "reward")
        if self.kind not in _REWARD_KINDS:
            raise ConfigError(
                f"reward.kind: must be one of {_REWARD_KINDS}, got '{self.kind}'")
        if self.target is not None and not _list_of(self.target, (int, float)):
            raise ConfigError("reward.target: expected a non-empty list of numbers")
        if self.target is not None and not all(map(math.isfinite, self.target)):
            raise ConfigError(f"reward.target: must be finite, got {self.target!r}")
        if self.kind == "hull" and not LOA_RANGE[0] <= self.loa <= LOA_RANGE[1]:
            raise ConfigError(f"reward.loa: must lie in [{LOA_RANGE[0]}, {LOA_RANGE[1]:g}] m, "
                              f"got {self.loa}")
        # a scale <= 0 would reward more drag, or give every hull the same reward
        if self.kind == "hull" and self.scale <= 0:
            raise ConfigError("reward.scale: must be > 0")
        if self.kind in ("surrogate", "airfoil") and not self.surrogate_path:
            raise ConfigError("reward.surrogate_path: required for surrogate rewards")
        if self.kind == "airfoil":
            # a negative weight would reward overshoot or self-intersection
            for key in ("lambda_range", "lambda_intersect"):
                if getattr(self, key) < 0:
                    raise ConfigError(f"reward.{key}: must be >= 0")


@dataclass
class RunConfig:
    schedule: ScheduleSection = field(default_factory=ScheduleSection)
    net: NetSection = field(default_factory=NetSection)
    pretrain: PretrainSection = field(default_factory=PretrainSection)
    finetune: FinetuneSection = field(default_factory=FinetuneSection)
    svdd: SvddSection = field(default_factory=SvddSection)
    reward: RewardSection = field(default_factory=RewardSection)
    dataset: str = None
    outdir: str = "runs"


# declared field type -> (accepted value types, name in errors); bools are
# accepted only for bool fields, although bool is a subclass of int
_ACCEPTED = {bool: (bool, "true/false"), int: (int, "an integer"),
             float: ((int, float), "a number"), str: (str, "a string"),
             list: (list, "a list")}


def _checked(value, f, path):
    """value, if it has the field's declared type; null only where null is the default."""
    if value is None and f.default is None:
        return value
    types, name = _ACCEPTED[f.type]
    if not isinstance(value, types) or (isinstance(value, bool) and f.type is not bool):
        raise ConfigError(f"{path}: expected {name}, got {value!r}")
    return value


def _merge(section, data, path=""):
    if not isinstance(data, dict):
        raise ConfigError(f"{path.rstrip('.') or 'config'}: expected an object")
    declared = {f.name: f for f in fields(section)}
    for key, value in data.items():
        here = f"{path}{key}"
        if key not in declared:
            raise ConfigError(f"{here}: unknown key")
        f = declared[key]
        if is_dataclass(f.type):
            _merge(getattr(section, key), value, path=f"{here}.")
        else:
            setattr(section, key, _checked(value, f, here))
    return section


def validate(cfg):
    """Run every section's check; errors name the offending key path."""
    for section in (cfg.schedule, cfg.net, cfg.pretrain, cfg.finetune, cfg.svdd, cfg.reward):
        section.check()
    return cfg


def parse_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text")
    except RecursionError:
        raise ConfigError(f"{path}: invalid JSON (nested too deeply)") from None
    except OSError as e:
        raise ConfigError(f"{path}: cannot read the config ({e.strerror})")
    cfg = _merge(RunConfig(), raw)
    return validate(cfg)

