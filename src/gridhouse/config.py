"""Run configuration: sectioned key-value text files plus run manifests.

Each key is read by a typed view below or by the CLI, and the manifest
records the resolved values.  Not every tunable is a key: the skill
sampler's teleport radius and step budgets, the focal-loss kernel
(`FocalConfig`), the gradient clip and the optimizer betas are constants
of the modules that use them.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
from dataclasses import dataclass

from .agents import ModelConfig
from .trainer import LossWeights, PPOConfig, RewardConfig, ScheduleConfig
from .world import InteractionMode, WorldConfig

DEFAULTS = {
    "world": {
        "obs_size": "32", "upsample": "2", "view_depth": "8",
        "pitch_shift": "3", "interaction_range": "2.0", "standard_box": "3",
    },
    "tasks": {
        "scale": "30", "n_unseen": "2",
    },
    "model": {
        "d": "64", "grid": "8", "hidden": "128", "task_dim": "64",
        "token_dim": "32", "ctx_dim": "16", "cond_dim": "64",
        "trunk_dim": "128", "point_dim": "48", "enc_mid": "24",
        "share_sub_encoder": "true",
    },
    "rewards": {
        "w_success": "20.0", "w_visible": "1.0", "w_act": "1.0",
        "w_point": "0.5", "sigma_point": "1.0",
    },
    "loss": {
        "action_ce": "1.0", "grid_ce": "1.0", "lambda_g": "0.1",
        "focal": "1.0", "l1": "1.0",
    },
    "ppo": {
        "clip": "0.2", "gamma": "0.99", "lam": "0.95", "value_weight": "0.5",
        "entropy_weight": "0.01", "epochs": "4", "minibatch": "64",
        "horizon": "512",
    },
    "pretrain": {
        "tf_steps": "200000", "sf_steps": "200000", "ppo_steps": "400000",
        "eps_start": "1.0", "eps_end": "0.0", "lr": "3e-4",
        "reset_period": "10", "update_every": "64", "grouping": "joint",
        "qa_fraction": "0.08", "mode": "hard",
    },
    "multitask": {
        "tf_steps": "50000", "sf_steps": "50000", "eps_start": "1.0",
        "eps_end": "0.6", "lr_high": "3e-4", "lr_sub": "3e-5",
        "episodes_per_update": "2", "mode": "hard", "single_family": "",
    },
    "eval": {
        "greedy": "true",
    },
    "runtime": {
        "seed": "0",
    },
}


@dataclass
class RunConfig:
    raw: configparser.ConfigParser

    def get(self, section, key, cast=str):
        val = self.raw.get(section, key)
        if cast is bool:
            return val.strip().lower() in ("1", "true", "yes", "on")
        return cast(val)

    # -- typed views ---------------------------------------------------------

    def world(self) -> WorldConfig:
        g = self.get
        return WorldConfig(
            obs_size=g("world", "obs_size", int),
            upsample=g("world", "upsample", int),
            view_depth=g("world", "view_depth", int),
            pitch_shift=g("world", "pitch_shift", int),
            interaction_range=g("world", "interaction_range", float),
            standard_box=g("world", "standard_box", int))

    def model(self, num_classes, vocab_size) -> ModelConfig:
        g = self.get
        return ModelConfig(
            num_classes=num_classes, vocab_size=vocab_size,
            obs_size=g("world", "obs_size", int),
            d=g("model", "d", int), grid=g("model", "grid", int),
            hidden=g("model", "hidden", int),
            task_dim=g("model", "task_dim", int),
            token_dim=g("model", "token_dim", int),
            ctx_dim=g("model", "ctx_dim", int),
            cond_dim=g("model", "cond_dim", int),
            trunk_dim=g("model", "trunk_dim", int),
            point_dim=g("model", "point_dim", int),
            enc_mid=g("model", "enc_mid", int),
            share_sub_encoder=g("model", "share_sub_encoder", bool))

    def rewards(self) -> RewardConfig:
        g = self.get
        return RewardConfig(
            weights=(g("rewards", "w_success", float),
                     g("rewards", "w_visible", float),
                     g("rewards", "w_act", float),
                     g("rewards", "w_point", float)),
            sigma_point=g("rewards", "sigma_point", float))

    def loss_weights(self) -> LossWeights:
        g = self.get
        return LossWeights(
            action_ce=g("loss", "action_ce", float),
            grid_ce=g("loss", "grid_ce", float),
            gaussian=g("loss", "lambda_g", float),
            focal=g("loss", "focal", float),
            l1=g("loss", "l1", float))

    def ppo(self) -> PPOConfig:
        g = self.get
        return PPOConfig(
            clip=g("ppo", "clip", float), gamma=g("ppo", "gamma", float),
            lam=g("ppo", "lam", float),
            value_weight=g("ppo", "value_weight", float),
            entropy_weight=g("ppo", "entropy_weight", float),
            epochs=g("ppo", "epochs", int),
            minibatch=g("ppo", "minibatch", int),
            horizon=g("ppo", "horizon", int))

    def pretrain_schedule(self) -> ScheduleConfig:
        g = self.get
        return ScheduleConfig(
            tf_steps=g("pretrain", "tf_steps", int),
            sf_steps=g("pretrain", "sf_steps", int),
            ppo_steps=g("pretrain", "ppo_steps", int),
            eps_start=g("pretrain", "eps_start", float),
            eps_end=g("pretrain", "eps_end", float),
            lr=g("pretrain", "lr", float),
            reset_period=g("pretrain", "reset_period", int),
            update_every=g("pretrain", "update_every", int))

    def multitask_schedule(self) -> ScheduleConfig:
        g = self.get
        return ScheduleConfig(
            tf_steps=g("multitask", "tf_steps", int),
            sf_steps=g("multitask", "sf_steps", int),
            ppo_steps=0,
            eps_start=g("multitask", "eps_start", float),
            eps_end=g("multitask", "eps_end", float),
            lr=g("multitask", "lr_high", float),
            lr_sub=g("multitask", "lr_sub", float))

    def mode(self, section) -> InteractionMode:
        return (InteractionMode.HARD if self.get(section, "mode") == "hard"
                else InteractionMode.STANDARD)

    def to_dict(self) -> dict:
        return {s: dict(self.raw.items(s)) for s in self.raw.sections()}


def load_config(path=None) -> RunConfig:
    parser = configparser.ConfigParser()
    parser.read_dict(DEFAULTS)
    if path is not None:
        with open(path) as f:
            parser.read_file(f)
    return RunConfig(raw=parser)


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
