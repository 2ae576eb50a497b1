"""Command-line orchestration: dataset generation, training, evaluation."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np


def _build_parser():
    p = argparse.ArgumentParser(prog="gridhouse",
                                description="household gridworld skill lab")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, handler, help, data=False, ckpt=False):
        """A sub-command running `handler(args)`, with the run arguments."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler)
        sp.add_argument("--config", default=None, help="run config (INI)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the manifest seed")
        sp.add_argument("--out", default="runs/latest", help="run directory")
        if data:
            sp.add_argument("--data", required=True, help="dataset directory")
        if ckpt:
            sp.add_argument("--ckpt", default=None, help="checkpoint path")
        return sp

    command("gen-scenes", cmd_gen_scenes, "write builtin scene templates")
    command("gen-episodes", cmd_gen_episodes, "build dataset splits")
    command("pretrain", cmd_pretrain, "skill pre-training (TF->SF->PPO)")
    command("train", cmd_train, "joint multi-task training", data=True).add_argument(
        "--init", default=None, help="pre-trained checkpoint")
    command("eval", cmd_eval, "evaluate a checkpoint on a split", data=True,
            ckpt=True).add_argument("--split", default="test_seen")
    command("eval-skills", cmd_eval_skills, "per-skill success table", ckpt=True)
    command("plan-check", cmd_plan_check, "expert replay success rate",
            data=True).add_argument("--split", default="train")
    sp = sub.add_parser("replay", help="render a trajectory log as a table")
    sp.set_defaults(handler=cmd_replay)
    sp.add_argument("log", help="trajectory JSONL")
    command("grad-check", cmd_grad_check, "finite-difference suite")
    return p


def _setup(args):
    from .classes import desk_registry
    from .config import load_config
    from .scenes import builtin_templates
    from .tasks import build_vocab

    config = load_config(args.config)
    seed = args.seed if args.seed is not None else config.get("runtime", "seed", int)
    registry = desk_registry()
    vocab = build_vocab(registry)
    templates = builtin_templates()
    return config, seed, registry, vocab, templates


def _agent_for(config, registry, vocab, seed):
    from .agents import HierarchicalAgent

    cfg = config.model(len(registry), len(vocab))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 12001]))
    return HierarchicalAgent(rng, cfg), cfg


def _load_model(agent, path):
    """Load the model section of checkpoint `path` into `agent`."""
    from . import nn
    from .harness import MissingCheckpoint

    if not path or not os.path.exists(path):
        raise MissingCheckpoint(path or "(no checkpoint given)")
    agent.load_state_arrays(nn.load_checkpoint(path)["model"])


def _skill_table(agent, config, pool, vocab, seed, registry):
    """Per-skill success rates over the templates `pool`, Answer included,
    in the `[pretrain]` interaction mode and with `[eval] greedy`
    decoding."""
    from .harness import eval_answer_skill, eval_skills

    mode = config.mode("pretrain")
    table = eval_skills(agent, pool, n_per_skill=20, seed=seed, mode=mode,
                        greedy=config.get("eval", "greedy", bool),
                        registry=registry, config=config.world())
    table["Answer"] = eval_answer_skill(agent, pool, vocab, n=20, seed=seed, mode=mode,
                                        registry=registry, config=config.world())
    return table


def cmd_gen_scenes(args):
    from .scenes import builtin_templates
    from .world import save_template

    os.makedirs(args.out, exist_ok=True)
    for t in builtin_templates():
        save_template(t, os.path.join(args.out, f"{t['template_id']}.json"))
    print(f"wrote {len(builtin_templates())} templates to {args.out}")
    return 0


def cmd_gen_episodes(args):
    from .config import write_manifest
    from .tasks import build_splits, desk_split_counts, write_splits

    config, seed, registry, vocab, templates = _setup(args)
    counts = desk_split_counts(config.get("tasks", "scale", int))
    splits = build_splits(templates, counts=counts, seed=seed,
                          registry=registry, config=config.world(),
                          n_unseen=config.get("tasks", "n_unseen", int))
    manifest = write_splits(splits, args.out)
    write_manifest(args.out, config, seed, extra={"splits": manifest})
    total = sum(m["episodes"] for m in manifest.values())
    print(f"wrote {total} episodes across {len(splits)} splits to {args.out}")
    return 0


def cmd_pretrain(args):
    from . import nn
    from .config import write_manifest
    from .tasks import split_templates
    from .trainer import pretrain

    config, seed, registry, vocab, templates = _setup(args)
    train_templates, _ = split_templates(templates, config.get("tasks", "n_unseen", int))
    agent, cfg = _agent_for(config, registry, vocab, seed)
    sched = config.pretrain_schedule()
    opt, progress = pretrain(
        agent, train_templates, sched, cfg, seed=seed,
        mode=config.mode("pretrain"),
        grouping=config.get("pretrain", "grouping"),
        qa_fraction=config.get("pretrain", "qa_fraction", float),
        vocab=vocab, reward_cfg=config.rewards(), ppo_cfg=config.ppo(),
        weights=config.loss_weights(), registry=registry,
        world_config=config.world())
    os.makedirs(args.out, exist_ok=True)
    ckpt = os.path.join(args.out, "pretrain.ckpt")
    nn.save_checkpoint(ckpt, {"model": agent.state_arrays(),
                              "opt": opt.state_arrays(),
                              "meta": {"steps": np.array(
                                  [progress.steps_done[s] for s in ("tf", "sf", "ppo")])}})
    table = _skill_table(agent, config, train_templates, vocab, seed, registry)
    with open(os.path.join(args.out, "skill_metrics.csv"), "w") as f:
        f.write("skill,success\n")
        for k, v in table.items():
            f.write(f"{k},{v:.1f}\n")
    write_manifest(args.out, config, seed, extra={"checkpoint": "pretrain.ckpt"})
    print(json.dumps(table, indent=2))
    return 0


def _load_split(data_dir, name):
    from .tasks import load_split

    path = os.path.join(data_dir, f"{name}.jsonl")
    if not os.path.exists(path):
        raise FileNotFoundError(f"split not found: {path}")
    return load_split(path, name)


def cmd_train(args):
    from . import nn
    from .config import write_manifest
    from .trainer import train_multitask

    config, seed, registry, vocab, templates = _setup(args)
    agent, cfg = _agent_for(config, registry, vocab, seed)
    if args.init:
        _load_model(agent, args.init)
    split = _load_split(args.data, "train")
    tby = {t["template_id"]: t for t in templates}
    single = config.get("multitask", "single_family") or None
    train_multitask(agent, split, tby, config.multitask_schedule(),
                    cfg, vocab, seed=seed, mode=config.mode("multitask"),
                    weights=config.loss_weights(), registry=registry,
                    world_config=config.world(), single_family=single,
                    episodes_per_update=config.get("multitask",
                                                   "episodes_per_update", int))
    os.makedirs(args.out, exist_ok=True)
    ckpt = os.path.join(args.out, "multitask.ckpt")
    nn.save_checkpoint(ckpt, {"model": agent.state_arrays()})
    write_manifest(args.out, config, seed,
                   extra={"checkpoint": "multitask.ckpt",
                          "init": args.init or "scratch"},
                   dataset_paths=[os.path.join(args.data, "train.jsonl")])
    print("saved", ckpt)
    return 0


def cmd_eval(args):
    from .harness import evaluate

    config, seed, registry, vocab, templates = _setup(args)
    agent, _cfg = _agent_for(config, registry, vocab, seed)
    _load_model(agent, args.ckpt)
    split = _load_split(args.data, args.split)
    tby = {t["template_id"]: t for t in templates}
    table = evaluate(agent, split, tby, vocab,
                     mode=config.mode("multitask"),
                     greedy=config.get("eval", "greedy", bool),
                     registry=registry, config=config.world(), seed=seed)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, f"metrics_{args.split}.csv"), "w") as f:
        f.write(table.to_csv())
    print(table.to_csv().strip())
    return 0


def cmd_eval_skills(args):
    from .tasks import split_templates

    config, seed, registry, vocab, templates = _setup(args)
    pools = split_templates(templates, config.get("tasks", "n_unseen", int))
    agent, _cfg = _agent_for(config, registry, vocab, seed)
    _load_model(agent, args.ckpt)
    rows = [(split_name, _skill_table(agent, config, pool, vocab, seed, registry))
            for split_name, pool in zip(("seen", "unseen"), pools)]
    os.makedirs(args.out, exist_ok=True)
    skills = list(rows[0][1].keys())
    with open(os.path.join(args.out, "skills.csv"), "w") as f:
        f.write("split," + ",".join(skills) + "\n")
        for name, table in rows:
            f.write(name + "," + ",".join(f"{table[s]:.1f}" for s in skills) + "\n")
    for name, table in rows:
        print(name, json.dumps({k: round(v, 1) for k, v in table.items()}))
    return 0


def cmd_plan_check(args):
    from .harness import plan_check

    config, seed, registry, vocab, templates = _setup(args)
    split = _load_split(args.data, args.split)
    tby = {t["template_id"]: t for t in templates}
    rate = plan_check(split.episodes, tby, mode=config.mode("multitask"),
                      registry=registry, config=config.world())
    print(f"{rate:.1f}")
    return 0 if rate == 100.0 else 1


def cmd_replay(args):
    from .episodes import read_trajectory

    rows, meta = read_trajectory(args.log)
    header = f"{'t':>4} {'skill':<10} {'object':<12} {'action':<12} " \
             f"{'point':<14} {'ok':<3} reason"
    print(header)
    print("-" * len(header))
    for r in rows:
        point = "-" if not r.get("point") else \
            f"({r['point'][0]:.1f},{r['point'][1]:.1f})"
        print(f"{r['t']:>4} {r['skill']:<10} {str(r.get('object')):<12} "
              f"{r['action']:<12} {point:<14} "
              f"{'y' if r['success'] else 'n':<3} {r.get('reason') or ''}")
    if meta:
        print(f"terminated: {meta.get('terminated')}  answer: {meta.get('answer')}")
    return 0


def cmd_grad_check(args):
    from .verification import gradient_suite

    report = gradient_suite(seed=0)
    worst = 0.0
    for name, err in report.items():
        print(f"{name:<40} max rel err {err:.3e}")
        worst = max(worst, err)
    print(f"worst: {worst:.3e}")
    return 0 if worst < 1e-4 else 1


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FileNotFoundError, ValueError, RuntimeError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
