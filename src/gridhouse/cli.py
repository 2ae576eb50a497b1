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

    def common(sp, data=False, ckpt=False):
        sp.add_argument("--config", default=None, help="run config (INI)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the manifest seed")
        sp.add_argument("--out", default="runs/latest", help="run directory")
        if data:
            sp.add_argument("--data", required=True, help="dataset directory")
        if ckpt:
            sp.add_argument("--ckpt", default=None, help="checkpoint path")

    common(sub.add_parser("gen-scenes", help="write builtin scene templates"))
    common(sub.add_parser("gen-episodes", help="build dataset splits"))
    sp = sub.add_parser("pretrain", help="skill pre-training (TF->SF->PPO)")
    common(sp)
    sp = sub.add_parser("train", help="joint multi-task training")
    common(sp, data=True)
    sp.add_argument("--init", default=None, help="pre-trained checkpoint")
    sp = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    common(sp, data=True, ckpt=True)
    sp.add_argument("--split", default="test_seen")
    sp = sub.add_parser("eval-skills", help="per-skill success table")
    common(sp, ckpt=True)
    sp = sub.add_parser("plan-check", help="expert replay success rate")
    common(sp, data=True)
    sp.add_argument("--split", default="train")
    sp = sub.add_parser("replay", help="render a trajectory log as a table")
    sp.add_argument("log", help="trajectory JSONL")
    common(sub.add_parser("grad-check", help="finite-difference suite"))
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
    from .harness import eval_skills, eval_answer_skill
    from .trainer import pretrain

    config, seed, registry, vocab, templates = _setup(args)
    agent, cfg = _agent_for(config, registry, vocab, seed)
    n_unseen = config.get("tasks", "n_unseen", int)
    train_templates = templates[:-n_unseen]
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
    table = eval_skills(agent, train_templates, n_per_skill=20, seed=seed,
                        mode=config.mode("pretrain"), registry=registry,
                        config=config.world())
    table["Answer"] = eval_answer_skill(agent, train_templates, vocab, n=20,
                                        seed=seed, registry=registry,
                                        config=config.world())
    with open(os.path.join(args.out, "skill_metrics.csv"), "w") as f:
        f.write("skill,success\n")
        for k, v in table.items():
            f.write(f"{k},{v:.1f}\n")
    write_manifest(args.out, config, seed, extra={"checkpoint": "pretrain.ckpt"})
    print(json.dumps(table, indent=2))
    return 0


def _load_splits(data_dir, names):
    from .tasks import load_split

    out = {}
    for name in names:
        path = os.path.join(data_dir, f"{name}.jsonl")
        if os.path.exists(path):
            out[name] = load_split(path, name)
    return out


def cmd_train(args):
    from . import nn
    from .config import write_manifest
    from .trainer import train_multitask

    config, seed, registry, vocab, templates = _setup(args)
    agent, cfg = _agent_for(config, registry, vocab, seed)
    if args.init:
        if not os.path.exists(args.init):
            raise MissingInit(args.init)
        sections = nn.load_checkpoint(args.init)
        agent.load_state_arrays(sections["model"])
    splits = _load_splits(args.data, ["train"])
    if "train" not in splits:
        print("error: no train split found in", args.data, file=sys.stderr)
        return 1
    tby = {t["template_id"]: t for t in templates}
    single = config.get("multitask", "single_family") or None
    train_multitask(agent, splits["train"], tby, config.multitask_schedule(),
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


class MissingInit(FileNotFoundError):
    pass


def cmd_eval(args):
    from . import nn
    from .harness import MissingCheckpoint, evaluate

    config, seed, registry, vocab, templates = _setup(args)
    if not args.ckpt or not os.path.exists(args.ckpt or ""):
        raise MissingCheckpoint(args.ckpt or "(no checkpoint given)")
    agent, cfg = _agent_for(config, registry, vocab, seed)
    agent.load_state_arrays(nn.load_checkpoint(args.ckpt)["model"])
    splits = _load_splits(args.data, [args.split])
    if args.split not in splits:
        print("error: split not found:", args.split, file=sys.stderr)
        return 1
    tby = {t["template_id"]: t for t in templates}
    table = evaluate(agent, splits[args.split], tby, vocab,
                     mode=config.mode("multitask"),
                     greedy=config.get("eval", "greedy", bool),
                     registry=registry, config=config.world(), seed=seed)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, f"metrics_{args.split}.csv"), "w") as f:
        f.write(table.to_csv())
    print(table.to_csv().strip())
    return 0


def cmd_eval_skills(args):
    from . import nn
    from .harness import MissingCheckpoint, eval_answer_skill, eval_skills

    config, seed, registry, vocab, templates = _setup(args)
    if not args.ckpt or not os.path.exists(args.ckpt or ""):
        raise MissingCheckpoint(args.ckpt or "(no checkpoint given)")
    agent, cfg = _agent_for(config, registry, vocab, seed)
    agent.load_state_arrays(nn.load_checkpoint(args.ckpt)["model"])
    n_unseen = config.get("tasks", "n_unseen", int)
    rows = []
    for split_name, pool in (("seen", templates[:-n_unseen]),
                             ("unseen", templates[-n_unseen:])):
        table = eval_skills(agent, pool, n_per_skill=20, seed=seed,
                            mode=config.mode("pretrain"), registry=registry,
                            config=config.world())
        table["Answer"] = eval_answer_skill(agent, pool, vocab, n=20, seed=seed,
                                            registry=registry,
                                            config=config.world())
        rows.append((split_name, table))
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
    splits = _load_splits(args.data, [args.split])
    if args.split not in splits:
        print("error: split not found:", args.split, file=sys.stderr)
        return 1
    tby = {t["template_id"]: t for t in templates}
    rate = plan_check(splits[args.split], tby, mode=config.mode("multitask"),
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen-scenes": cmd_gen_scenes,
        "gen-episodes": cmd_gen_episodes,
        "pretrain": cmd_pretrain,
        "train": cmd_train,
        "eval": cmd_eval,
        "eval-skills": cmd_eval_skills,
        "plan-check": cmd_plan_check,
        "replay": cmd_replay,
        "grad-check": cmd_grad_check,
    }
    try:
        return handlers[args.command](args)
    except (FileNotFoundError, ValueError, RuntimeError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
