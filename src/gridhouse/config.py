"""Run configuration: sectioned key-value text files plus run manifests.

Each section is one dataclass (`SECTIONS`) and its keys are the fields
with a default, so a field's default is its key's and the default's type
parses the key's text.  One mapping is left: the inherited fields that are
no keys, and `[multitask] lr_high`, which is `ScheduleConfig.lr`.  Loading
rejects an unknown section, key or value by name; a key that names an
entry of a table (`CHOICES`) takes only that table's names.  Some
tunables are no keys but constants of the modules that use them: the
skill sampler's teleport radius and step budgets, the focal-loss
exponents and kernel width (`nn.FOCAL_ALPHA`, `nn.SIGMA_MIN`, ...), the
gradient clip and the optimizer betas and epsilon (`nn.ADAM_BETAS`,
`nn.ADAM_EPS`).
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
from dataclasses import MISSING, dataclass, fields, make_dataclass
from enum import Enum
from functools import partialmethod

from .agents import ModelConfig
from .tasks import FAMILIES
from .trainer import (SKILL_GROUPS, LossWeights, PPOConfig, RewardConfig,
                      ScheduleConfig)
from .world import InteractionMode, WorldConfig


@dataclass
class Pretrain(ScheduleConfig):
    grouping: str = "joint"
    qa_fraction: float = 0.08
    mode: InteractionMode = InteractionMode.HARD


@dataclass
class Multitask(ScheduleConfig):
    tf_steps: int = 50_000
    sf_steps: int = 50_000
    ppo_steps: int = 0
    eps_end: float = 0.6
    episodes_per_update: int = 2
    mode: InteractionMode = InteractionMode.HARD
    single_family: str = ""


# the sections whose fields no module's dataclass holds
Tasks = make_dataclass("Tasks", [("scale", int, 30), ("n_unseen", int, 2)])
Eval = make_dataclass("Eval", [("greedy", bool, True)])
Runtime = make_dataclass("Runtime", [("seed", int, 0)])


# section -> (its dataclass, {field: its key where the names differ, or
# None for a field that is no key}); [model] obs_size is [world]'s
SECTIONS = {
    "world": (WorldConfig, {}), "tasks": (Tasks, {}),
    "model": (ModelConfig, {"obs_size": None}),
    "rewards": (RewardConfig, {}), "loss": (LossWeights, {}),
    "ppo": (PPOConfig, {}), "pretrain": (Pretrain, {"lr_sub": None}),
    "multitask": (Multitask, {"lr": "lr_high", "ppo_steps": None,
                              "reset_period": None, "update_every": None}),
    "eval": (Eval, {}), "runtime": (Runtime, {}),
}
# (section, field) -> the values a string key takes
CHOICES = {("pretrain", "grouping"): tuple(SKILL_GROUPS),
           ("multitask", "single_family"): ("", *FAMILIES)}
# section -> {field: default}, for every field that has one
_DEFAULT_VALUES = {s: {f.name: f.default for f in fields(cls) if f.default is not MISSING}
                   for s, (cls, _) in SECTIONS.items()}
# section -> {key: field}
KEYS = {s: {named.get(f, f): f for f in _DEFAULT_VALUES[s] if named.get(f, f)}
        for s, (_, named) in SECTIONS.items()}


def _text(value) -> str:
    """A value as the INI file and the manifest spell it."""
    if isinstance(value, Enum):
        return value.value
    return str(value).lower() if isinstance(value, bool) else str(value)


@dataclass
class RunConfig:
    values: dict   # section -> {field: value}, the file's over the defaults

    def get(self, section, key, cast=str):
        return cast(self.values[section][KEYS[section][key]])

    def _view(self, cls, section, **given):
        """`cls` filled from a section's values, `given` ones over them."""
        values = {**self.values[section], **given}
        return cls(**{f.name: values[f.name] for f in fields(cls)})

    world = partialmethod(_view, WorldConfig, "world")
    rewards = partialmethod(_view, RewardConfig, "rewards")
    loss_weights = partialmethod(_view, LossWeights, "loss")
    ppo = partialmethod(_view, PPOConfig, "ppo")
    pretrain_schedule = partialmethod(_view, ScheduleConfig, "pretrain")
    multitask_schedule = partialmethod(_view, ScheduleConfig, "multitask")

    def model(self, num_classes, vocab_size) -> ModelConfig:
        return self._view(ModelConfig, "model", num_classes=num_classes,
                          vocab_size=vocab_size,
                          obs_size=self.values["world"]["obs_size"])

    def mode(self, section) -> InteractionMode:
        return self.values[section]["mode"]

    def to_dict(self) -> dict:
        """{section: {key: text}} of the resolved values, for the manifest."""
        return {s: {k: _text(self.values[s][f]) for k, f in keys.items()}
                for s, keys in KEYS.items()}


DEFAULTS = RunConfig(_DEFAULT_VALUES).to_dict()


def load_config(path=None) -> RunConfig:
    values = {s: dict(d) for s, d in _DEFAULT_VALUES.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        with open(path) as f:
            try:
                parser.read_file(f)
            except configparser.Error as e:
                # a missing section header reports over several lines
                raise ValueError(f"{path}: {e}".replace("\n", " ")) from None
        for section in parser.sections():
            if section not in KEYS:
                raise ValueError(f"{path}: unknown section [{section}]")
            for key, text in parser.items(section):
                if key not in KEYS[section]:
                    raise ValueError(f"{path}: unknown key [{section}] {key}")
                field = KEYS[section][key]
                default = values[section][field]
                allowed = CHOICES.get((section, field))
                if allowed is not None and text not in allowed:
                    raise ValueError(f"{path}: [{section}] {key}: {text!r} is not one of "
                                     f"{allowed}")
                try:
                    values[section][field] = (parser.getboolean(section, key)
                                              if isinstance(default, bool)
                                              else type(default)(text))
                except ValueError as e:
                    raise ValueError(f"{path}: [{section}] {key}: {e}") from None
    return RunConfig(values)


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(run_dir, config: RunConfig, seed, extra=None,
                   dataset_paths=()):
    os.makedirs(run_dir, exist_ok=True)
    manifest = {
        "seed": int(seed),
        "config": config.to_dict(),
        "datasets": {os.path.basename(p): file_sha256(p) for p in dataset_paths},
    }
    if extra:
        manifest.update(extra)
    path = os.path.join(run_dir, "manifest.json")
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return path
