"""Each correctness check accepts a good output and rejects a broken one."""

import math
from types import SimpleNamespace

import numpy as np

import checks


def _split(name, families):
    return SimpleNamespace(name=name, episodes=[SimpleNamespace(family=f) for f in families])


def test_plan_rates_reject_anything_below_100():
    assert checks.plan_rates({"train": 100.0, "val_seen": 100.0}) == []
    assert checks.plan_rates({"train": 100.0, "val_seen": 99.9})


def test_split_sizes_match_requested_counts_per_family():
    counts = {"train": {"SHIF": 1, "IQA": 2}, "val_seen": {"SHIF": 1, "IQA": 0}}
    good = [_split("train", ["SHIF", "IQA", "IQA"]), _split("val_seen", ["SHIF"])]
    assert checks.split_sizes(good, counts) == []
    short = [_split("train", ["SHIF", "IQA"]), _split("val_seen", ["SHIF"])]
    assert checks.split_sizes(short, counts)
    missing = [_split("train", ["SHIF", "IQA", "IQA"])]
    assert checks.split_sizes(missing, counts)
    extra_family = [_split("train", ["SHIF", "IQA", "IQA", "EXIN"]),
                    _split("val_seen", ["SHIF"])]
    assert checks.split_sizes(extra_family, counts)


def test_pretrain_must_finish_every_stage_budget():
    budgets = {"tf": 10, "sf": 10, "ppo": 20}
    done = SimpleNamespace(stage="done", steps_done={"tf": 12, "sf": 10, "ppo": 25})
    assert checks.pretrain_done(done, budgets) == []
    stopped = SimpleNamespace(stage="ppo", steps_done={"tf": 12, "sf": 10, "ppo": 25})
    assert checks.pretrain_done(stopped, budgets)
    short = SimpleNamespace(stage="done", steps_done={"tf": 12, "sf": 10, "ppo": 19})
    assert checks.pretrain_done(short, budgets)


def test_stage_budgets_reject_a_short_or_missing_stage():
    budgets = {"mt_tf": 5, "mt_sf": 5}
    assert checks.stage_budgets({"mt_tf": 5, "mt_sf": 7}, budgets) == []
    assert checks.stage_budgets({"mt_tf": 5, "mt_sf": 4}, budgets)
    assert checks.stage_budgets({"mt_tf": 5}, budgets)


def test_params_must_be_finite_and_changed():
    before = [np.zeros(3), np.ones((2, 2))]
    moved = [np.array([0.0, 1e-9, 0.0]), np.ones((2, 2))]
    assert checks.params_trained(before, moved) == []
    assert checks.params_trained(before, [b.copy() for b in before])
    nan = [np.array([0.0, np.nan, 0.0]), np.ones((2, 2))]
    assert checks.params_trained(before, nan)
    assert checks.params_trained(before, moved[:1])


def test_losses_must_be_finite():
    assert checks.finite("loss", 2.5) == []
    assert checks.finite("loss", math.nan)
    assert checks.finite("loss", math.inf)


def test_eval_episodes_end_cleanly_within_budget():
    good = [("end", 3, 100), ("budget", 100, 100), ("irrecoverable", 7, 200)]
    assert checks.eval_episodes(good) == []
    assert checks.eval_episodes([("end", 101, 100)])
    assert checks.eval_episodes([("crashed", 3, 100)])
    assert checks.eval_episodes([])


def test_same_inputs_must_give_the_same_outputs():
    assert checks.same_outputs({"a": [("h1", 1.0), ("h1", 1.0)], "b": [("h2",)]}) == []
    assert checks.same_outputs({"a": [("h1", 1.0), ("h1", 1.0000001)]})
