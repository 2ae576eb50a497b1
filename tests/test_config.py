"""Run configuration: every key reaches a consumer, and no other key loads."""

from __future__ import annotations

import ast
import builtins
import dataclasses
import pathlib
import re

import numpy as np
import pytest

from gridhouse import config as C
from gridhouse.agents import (NONE_ACTION, ForwardMemo, HierarchicalAgent, encode,
                              high_level_step, sub_policy_step, subgoal_ids)
from gridhouse.classes import desk_registry
from gridhouse.cli import main
from gridhouse.scenes import builtin_templates
from gridhouse.skills import Skill, SubGoal
from gridhouse.tasks import build_vocab
from gridhouse.verification import micro_model_config
from gridhouse.world import InteractionMode, randomize_scene

CLI = pathlib.Path(C.__file__).with_name("cli.py")
ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
BENCH_CONFIGS = ROOT / "perfbench" / "configs"


def _views(config):
    """Every typed view the CLI and the benchmark build from a config."""
    return (config.world(), config.model(5, 7), config.rewards(),
            config.loss_weights(), config.ppo(), config.pretrain_schedule(),
            config.multitask_schedule(), config.mode("pretrain"),
            config.mode("multitask"))


def _config_reads(path):
    """(section, key, cast name) of each `config.get` in a source file."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and len(node.args) >= 2
                and all(isinstance(a, ast.Constant) for a in node.args[:2])):
            cast = node.args[2].id if len(node.args) > 2 else "str"
            out.add((node.args[0].value, node.args[1].value, cast))
    return out


def _perturbed(value, choices=()):
    if choices:
        return next(c for c in choices if c != value)
    if value in ("true", "false"):
        return "false" if value == "true" else "true"
    if value == "hard":
        return "standard"
    try:
        return str(int(value) + 1)
    except ValueError:
        pass
    try:
        return repr(float(value) / 2 if float(value) else 0.5)
    except ValueError:
        return value + "x"


def _load_text(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return C.load_config(path)


def test_every_default_key_has_an_effect(tmp_path):
    base = _views(C.load_config())
    read_by_cli = {(s, k) for s, k, _cast in _config_reads(CLI)}
    dead = []
    for section, keys in C.DEFAULTS.items():
        for key, value in keys.items():
            choices = C.CHOICES.get((section, key), ())
            config = _load_text(tmp_path,
                                f"[{section}]\n{key} = {_perturbed(value, choices)}\n")
            if _views(config) == base and (section, key) not in read_by_cli:
                dead.append((section, key))
    assert not dead, f"keys that change no typed view and that cli.py never reads: {dead}"


# the narrow model widths of the gradient checks, as INI values
MICRO_WIDTHS = {k: str(getattr(micro_model_config(), k)) for k in C.DEFAULTS["model"]}


@pytest.mark.parametrize("section, key, text", [
    *((s, k, None) for s in ("world", "model") for k in C.DEFAULTS[s]),
    ("world", "obs_size", "24")])
def test_every_world_and_model_key_builds_a_model_that_steps_both_levels(tmp_path,
                                                                          section, key,
                                                                          text):
    # the encoder's map, and so the pointing grid, follows [world] obs_size
    # with no other key to edit; None perturbs the key's micro or default value
    values = {"world": {}, "model": dict(MICRO_WIDTHS)}
    values[section][key] = text or _perturbed(
        values[section].get(key, C.DEFAULTS[section][key]))
    config = _load_text(tmp_path, "".join(
        f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
        for s, kv in values.items()))
    registry = desk_registry()
    cfg = config.model(len(registry), len(build_vocab(registry)))
    agent = HierarchicalAgent(np.random.default_rng(0), cfg)
    obs = randomize_scene(builtin_templates()[0], 1, registry, config.world()).observation
    assert obs.class_map.shape == (cfg.obs_size, cfg.obs_size)
    assert encode(agent.hl_encoder, [obs]).shape == (1, cfg.d, cfg.grid, cfg.grid)
    rng = np.random.default_rng(0)
    memo = ForwardMemo(agent.task_enc([[2, 5]]))
    sub, _h = high_level_step(agent, obs, None, None, agent.high.initial_hidden(), rng,
                              memo=memo)
    pickup = SubGoal(Skill.Pickup, registry.id_of("Apple"))
    for subgoal in (SubGoal(Skill.GoTo, registry.id_of("Fridge")), sub, pickup):
        sub_policy_step(agent, subgoal, obs, None, rng, memo=memo)
    grid_logits = memo.sub_policy(agent, "interact", obs, NONE_ACTION,
                                  *subgoal_ids(cfg, pickup))[2][0]
    assert grid_logits.shape == (1, cfg.grid * cfg.grid)


# --------------------------------------------------------------------------
# the resolved values, as the hand-written loader gave them


def _resolved(config):
    """Every typed view, and every `config.get` that cli.py and the
    benchmark's workloads make, flattened to {name: value}."""
    out = {}
    views = dict(zip(("world", "model", "rewards", "loss_weights", "ppo",
                      "pretrain_schedule", "multitask_schedule"), _views(config)))
    for name, view in views.items():
        out.update({f"{name}.{k}": v for k, v in dataclasses.asdict(view).items()})
    for name in ("pretrain_schedule", "multitask_schedule"):
        out[f"{name}.grad_clip"] = views[name].grad_clip
    out["mode.pretrain"], out["mode.multitask"] = _views(config)[-2:]
    for section, key, cast in _config_reads(CLI) | _config_reads(WORKLOADS):
        out[f"get.{section}.{key}"] = config.get(section, key, getattr(builtins, cast))
    return out


DEFAULT_VALUES = {
    "world.obs_size": 32, "world.upsample": 2, "world.view_depth": 8,
    "world.pitch_shift": 3, "world.interaction_range": 2.0, "world.standard_box": 3,
    "model.num_classes": 5, "model.vocab_size": 7, "model.obs_size": 32,
    "model.d": 64, "model.hidden": 128, "model.task_dim": 64,
    "model.token_dim": 32, "model.ctx_dim": 16, "model.cond_dim": 64,
    "model.trunk_dim": 128, "model.point_dim": 48, "model.enc_mid": 24,
    "rewards.w_success": 20.0, "rewards.w_visible": 1.0, "rewards.w_act": 1.0,
    "rewards.w_point": 0.5, "rewards.sigma_point": 1.0,
    "loss_weights.action_ce": 1.0, "loss_weights.grid_ce": 1.0,
    "loss_weights.lambda_g": 0.1, "loss_weights.focal": 1.0, "loss_weights.l1": 1.0,
    "ppo.clip": 0.2, "ppo.gamma": 0.99, "ppo.lam": 0.95, "ppo.value_weight": 0.5,
    "ppo.entropy_weight": 0.01, "ppo.epochs": 4, "ppo.minibatch": 64, "ppo.horizon": 512,
    "pretrain_schedule.tf_steps": 200000, "pretrain_schedule.sf_steps": 200000,
    "pretrain_schedule.ppo_steps": 400000, "pretrain_schedule.eps_start": 1.0,
    "pretrain_schedule.eps_end": 0.0, "pretrain_schedule.lr": 0.0003,
    "pretrain_schedule.reset_period": 10, "pretrain_schedule.update_every": 64,
    "pretrain_schedule.grad_clip": 0.5,
    "multitask_schedule.tf_steps": 50000, "multitask_schedule.sf_steps": 50000,
    "multitask_schedule.eps_start": 1.0, "multitask_schedule.eps_end": 0.6,
    "multitask_schedule.lr_high": 0.0003, "multitask_schedule.lr_sub": 3e-05,
    "multitask_schedule.grad_clip": 0.5,
    "mode.pretrain": InteractionMode.HARD, "mode.multitask": InteractionMode.HARD,
    "get.runtime.seed": 0, "get.tasks.scale": 30, "get.tasks.n_unseen": 2,
    "get.pretrain.grouping": "joint", "get.pretrain.qa_fraction": 0.08,
    "get.pretrain.update_every": 64, "get.multitask.single_family": "",
    "get.multitask.episodes_per_update": 2, "get.eval.greedy": True,
}
# each benchmark input's values that differ from the defaults
BENCH_VALUES = {
    "expert_data.ini": {"get.tasks.scale": 3000},
    "skill_pretrain.ini": {"ppo.horizon": 256, "pretrain_schedule.tf_steps": 384,
                           "pretrain_schedule.sf_steps": 384,
                           "pretrain_schedule.ppo_steps": 256},
    "task_finetune.ini": {"multitask_schedule.tf_steps": 192,
                          "multitask_schedule.sf_steps": 320, "get.tasks.scale": 1000,
                          "get.multitask.episodes_per_update": 1},
}


@pytest.mark.parametrize("name", [None, *BENCH_VALUES])
def test_resolved_values_are_the_recorded_ones(name):
    config = C.load_config(None if name is None else BENCH_CONFIGS / name)
    want = {**DEFAULT_VALUES, **BENCH_VALUES.get(name, {})}
    got = _resolved(config)
    assert got == want
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}


def test_defaults_are_the_fields_of_the_section_dataclasses():
    assert sum(map(len, C.DEFAULTS.values())) == 57
    assert C.DEFAULTS["multitask"]["lr_high"] == "0.0003"
    assert C.DEFAULTS["eval"] == {"greedy": "true"}
    assert not {"obs_size", "grid"} & set(C.DEFAULTS["model"])
    view = {f.name for f in dataclasses.fields(C.load_config().multitask_schedule())}
    assert "lr_high" in view
    assert not {"lr", "ppo_steps", "reset_period", "update_every"} & view
    assert C.load_config().to_dict() == C.DEFAULTS


def test_manifest_records_the_resolved_values(tmp_path):
    config = _load_text(tmp_path, "[pretrain]\nlr = 3e-4\ntf_steps = 10\n[eval]\ngreedy = no\n")
    assert config.to_dict() == {**C.DEFAULTS,
                                "pretrain": {**C.DEFAULTS["pretrain"], "lr": "0.0003",
                                             "tf_steps": "10"},
                                "eval": {"greedy": "false"}}


# --------------------------------------------------------------------------
# strict loading


@pytest.mark.parametrize("text, named", [
    ("[pretrain]\ntf_step = 10\n", "[pretrain] tf_step"),
    ("[multi_task]\ntf_steps = 10\n", "[multi_task]"),
    ("[pretrain]\nmode = Hard\n", "[pretrain] mode"),
    ("[eval]\ngreedy = ture\n", "[eval] greedy"),
    ("[tasks]\nscale = 1e3\n", "[tasks] scale"),
    ("[pretrain]\ngrouping = jiont\n", "[pretrain] grouping: 'jiont'"),
    ("[multitask]\nsingle_family = shif\n", "[multitask] single_family: 'shif'"),
    ("[model]\ngrid = 8\n", "[model] grid"),
    ("[pretrain]\ntf_steps = 10\ntf_steps = 20\n", "'tf_steps' in section 'pretrain'"),
    ("tf_steps = 10\n", "no section headers"),
])
def test_unknown_sections_keys_and_values_stop_the_cli_in_one_line(tmp_path, capsys,
                                                                    text, named):
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{ini}: ")):
        C.load_config(ini)
    assert main(["gen-episodes", "--config", str(ini), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err
    assert not (tmp_path / "out").exists()


def test_values_parse_by_the_default_type(tmp_path):
    config = _load_text(tmp_path, "[eval]\ngreedy = Off\n[multitask]\nmode = standard\n"
                        "lr_high = 1e-3\n")
    assert config.get("eval", "greedy", bool) is False
    assert config.mode("multitask") is InteractionMode.STANDARD
    assert config.multitask_schedule().lr_high == 1e-3


def test_eval_skills_honours_the_pretrain_mode_and_eval_greedy(tmp_path, monkeypatch):
    # both rows of the skill table, the sub-policy skills and Answer, run
    # in the [pretrain] mode, and the sub-policy skills decode per [eval]
    from gridhouse import harness, nn
    from gridhouse.cli import _agent_for, _setup

    ini = tmp_path / "run.ini"
    ini.write_text("[pretrain]\nmode = standard\n[eval]\ngreedy = false\n"
                   "[model]\nd = 4\nhidden = 6\ntask_dim = 4\ntoken_dim = 3\n"
                   "ctx_dim = 2\ncond_dim = 4\ntrunk_dim = 8\npoint_dim = 4\nenc_mid = 3\n")
    args = type("Args", (), {"config": str(ini), "seed": 0})()
    config, seed, registry, vocab, _ = _setup(args)
    agent, _cfg = _agent_for(config, registry, vocab, seed)
    ckpt = tmp_path / "model.ckpt"
    nn.save_checkpoint(ckpt, {"model": agent.state_arrays()})

    calls = []

    def eval_skills(*args, **kwargs):
        calls.append(("skills", kwargs))
        return {"GoTo": 50.0}

    def eval_answer_skill(*args, **kwargs):
        calls.append(("answer", kwargs))
        return 25.0

    monkeypatch.setattr(harness, "eval_skills", eval_skills)
    monkeypatch.setattr(harness, "eval_answer_skill", eval_answer_skill)
    assert main(["eval-skills", "--config", str(ini), "--ckpt", str(ckpt),
                 "--out", str(tmp_path / "out")]) == 0
    assert [name for name, _ in calls] == ["skills", "answer"] * 2   # seen, unseen
    for name, kwargs in calls:
        assert kwargs["mode"] is InteractionMode.STANDARD, name
    assert all(kwargs["greedy"] is False for name, kwargs in calls if name == "skills")
    assert (tmp_path / "out" / "skills.csv").read_text().splitlines()[1] == "seen,50.0,25.0"
