"""Task families: templates, decompositions, goals, dataset splits."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from gridhouse import tasks as TK, world as W
from gridhouse.classes import desk_registry
from gridhouse.episodes import Trajectory, rollout, run_expert_episode
from gridhouse.planner import ExpertController
from gridhouse.scenes import builtin_templates
from gridhouse.skills import Skill, SubGoal
from gridhouse.tasks import (FULL_SPLIT_COUNTS, TEMPLATES, DatasetSplit,
                             InsufficientScenes, TaskInstance,
                             UnsatisfiableTemplate, build_splits, build_vocab,
                             desk_split_counts, generate_task, load_split,
                             remaining_fn, replay_expert, split_content_hash,
                             task_initial_state, task_success, tokenize,
                             verify_episode, write_splits)
from gridhouse.world import (Cleanliness, Openness, Temperature, state_hash)

from conftest import REG, make_state

TEMPLATES_ALL = builtin_templates()
TBY = {t["template_id"]: t for t in TEMPLATES_ALL}


def plan(task, state):
    """The expert's remaining sub-goals from `state`, ending in End."""
    return [sub for sub, _hint in remaining_fn(task)(state)]


def test_template_surface_forms_match_task_table():
    assert TEMPLATES["SHIF"]["clean"] == ["clean {obj}"]
    assert "put a {obj} in {recep}" in TEMPLATES["LHIF"]["pick_place"]
    assert "look at {obj} under the {toggle}" in TEMPLATES["LHIF"]["examine"]
    assert "is the {obj} {state}?" in TEMPLATES["IQA"]["state"]
    assert "pick up {obj}" in TEMPLATES["EXIN"]["pickup"]
    assert len(TEMPLATES["LHIF"]) == 7  # the seven long-horizon task types
    # surface instantiation of the pick&place form
    assert "put a {obj} in {recep}".format(obj="plunger", recep="cabinet") == \
        "put a plunger in cabinet"


def test_instantiate_clean_template():
    rng = np.random.default_rng(0)
    for _ in range(20):
        form = TEMPLATES["SHIF"]["clean"].index("clean {obj}")
        task = generate_task("SHIF", "clean", form, TEMPLATES_ALL[0],
                             int(rng.integers(2 ** 60)), rng)
        assert task.instruction.startswith("clean ")
        obj = REG[task.bindings["obj"]]
        assert task.instruction == f"clean {obj.name.lower()}"
        state = task_initial_state(task, TEMPLATES_ALL[0])
        assert state.agent.held == task.target_iid
        assert state.obj(task.target_iid).cleanliness is Cleanliness.DIRTY
        break


def test_iqa_counting_answer_is_scene_truth():
    rng = np.random.default_rng(4)
    task = generate_task("IQA", "counting", 0, TEMPLATES_ALL[1],
                         987, rng, want_answer="2")
    assert task.answer == "2"
    state = task_initial_state(task, TEMPLATES_ALL[1])
    inside = [o for o in state.instances_of(task.bindings["obj"])
              if task.target_iid in W.ancestors(state, o.instance_id)]
    assert len(inside) == 2


def test_decompose_clean_apple_matches_canonical_chain():
    # apple already in hand, sink/faucet unreached: the canonical sequence
    state = make_state([
        {"class": "Sink", "pos": (4, 3)},
        {"class": "Faucet", "pos": (3, 3)},
        {"class": "Apple", "pos": None, "container": None,
         "cleanliness": Cleanliness.DIRTY},
    ], agent_cell=(8, 11), held=2, width=14, height=14)
    task = TaskInstance(
        family="SHIF", task_type="clean", instruction="clean apple",
        bindings={"obj": REG.id_of("Apple")},
        goal={"kind": "state_held", "cls": REG.id_of("Apple"),
              "require": {"cleanliness": "clean"}},
        scene_template_id="adhoc", scene_seed=0, target_iid=2)
    want = [SubGoal(Skill.GoTo, REG.id_of("Sink")),
            SubGoal(Skill.Put, REG.id_of("Sink")),
            SubGoal(Skill.ToggleOn, REG.id_of("Faucet")),
            SubGoal(Skill.ToggleOff, REG.id_of("Faucet")),
            SubGoal(Skill.Pickup, REG.id_of("Apple")),
            SubGoal(Skill.End)]
    assert plan(task, state) == want
    # the executed stream may insert extra GoTo hops (dynamic replanning)
    # but must contain the canonical chain in order
    traj = run_expert_episode(state, remaining_fn(task), max_steps=100)
    seq = list(traj.subgoal_sequence)
    it = iter(seq)
    assert all(any(step == w for step in it) for w in want), seq
    assert task_success(task, traj)


def test_exin_slice_fetches_a_slicer_with_instance_id_0():
    state = make_state([
        {"class": "Knife", "pos": None, "container": 2},
        {"class": "Apple", "pos": None, "container": 2},
        {"class": "CounterTop", "pos": (4, 5)},
    ], agent_cell=(5, 9))
    apple = REG.id_of("Apple")
    task = TaskInstance(
        family="EXIN", task_type="slice", instruction="slice the apple",
        bindings={"obj": apple},
        goal={"kind": "class_state", "cls": apple, "attr": "sliced", "value": True},
        scene_template_id="adhoc", scene_seed=0)
    assert TK.remaining_milestones(task, state)[-1] == \
        (SubGoal(Skill.Pickup, REG.id_of("Knife")), 0)
    traj = run_expert_episode(state, remaining_fn(task), max_steps=100)
    assert task_success(task, traj)


def test_decompose_exin_pickup_is_goto_pickup_end():
    rng = np.random.default_rng(7)
    task = generate_task("EXIN", "pickup", 0, TEMPLATES_ALL[0], 41, rng)
    ok, traj = verify_episode(task, TBY)
    assert ok
    skills = [s.skill for s in traj.subgoal_sequence]
    dedup = [s for i, s in enumerate(skills) if i == 0 or skills[i - 1] != s]
    assert dedup in ([Skill.GoTo, Skill.Pickup, Skill.End],
                     [Skill.GoTo, Skill.Open, Skill.GoTo, Skill.Pickup, Skill.End],
                     [Skill.Pickup, Skill.End])


def test_decompose_heat_contains_open_microwave():
    rng = np.random.default_rng(11)
    for seed in range(50):
        task = generate_task("SHIF", "heat", 0, TEMPLATES_ALL[0],
                             1000 + seed, rng)
        state = task_initial_state(task, TEMPLATES_ALL[0])
        micro = REG.id_of("Microwave")
        if state.obj([o for o in state.instances_of(micro)][0].instance_id).openness \
                is Openness.CLOSED:
            subs = plan(task, state)
            assert SubGoal(Skill.Open, micro) in subs
            ok, traj = verify_episode(task, TBY)
            assert ok
            assert (Skill.Open, micro) in [(s.skill, s.object_class)
                                           for s in traj.subgoal_sequence]
            return
    pytest.skip("no closed-microwave draw")


def test_task_success_iqa_answer_match():
    rng = np.random.default_rng(2)
    task = generate_task("IQA", "existence", 0, TEMPLATES_ALL[2], 77, rng)
    state = task_initial_state(task, TEMPLATES_ALL[2])
    good = Trajectory(final_state=state, answer=task.answer)
    bad = Trajectory(final_state=state,
                     answer="No" if task.answer == "Yes" else "Yes")
    assert task_success(task, good)
    assert not task_success(task, bad)


def test_task_success_pick_two_requires_both():
    rng = np.random.default_rng(3)
    task = None
    for seed in range(60):
        try:
            task = generate_task("LHIF", "pick_two", 0, TEMPLATES_ALL[0],
                                 3000 + seed, rng)
            break
        except UnsatisfiableTemplate:
            continue
    assert task is not None
    state = task_initial_state(task, TEMPLATES_ALL[0])
    # place exactly one instance inside: goal unmet
    recep = state.obj(task.target_iid) if task.target_iid else None
    obj_cls = task.bindings["obj"]
    recep_cls = task.bindings["recep"]
    recep_iid = min(o.instance_id for o in state.instances_of(recep_cls)
                    if o.anchor is not None)
    one = state.instances_of(obj_cls)[0]
    state1 = state.with_object(
        __import__("dataclasses").replace(one, anchor=None, container=recep_iid))
    assert not task_success(task, Trajectory(final_state=state1))
    two = [o for o in state1.instances_of(obj_cls) if o.container != recep_iid][0]
    state2 = state1.with_object(
        __import__("dataclasses").replace(two, anchor=None, container=recep_iid))
    assert task_success(task, Trajectory(final_state=state2))


def test_task_success_heat_predicate_on_built_state():
    # derived: hand-built final state with target hot and held
    state = make_state([{"class": "Potato", "pos": None, "container": None}],
                       agent_cell=(5, 8), held=0)
    hot = state.with_object(
        __import__("dataclasses").replace(state.obj(0),
                                          temperature=Temperature.HOT))
    goal = {"kind": "state_held", "cls": REG.id_of("Potato"),
            "require": {"temperature": "hot"}}
    assert TK.goal_satisfied(goal, hot)
    assert not TK.goal_satisfied(goal, state)


def test_overrides_regenerate_identically():
    rng = np.random.default_rng(8)
    task = generate_task("LHIF", "stack_place", 0, TEMPLATES_ALL[3], 55, rng)
    s1 = task_initial_state(task, TEMPLATES_ALL[3])
    s2 = task_initial_state(TaskInstance.from_json(task.to_json()), TEMPLATES_ALL[3])
    assert state_hash(s1) == state_hash(s2)


# --------------------------------------------------------------------------
# splits


SMALL_COUNTS = {
    "train": {"SHIF": 6, "LHIF": 14, "IQA": 24, "EXIN": 6},
    "val_seen": {"SHIF": 1, "LHIF": 2, "IQA": 8, "EXIN": 1},
    "val_unseen": {"SHIF": 1, "LHIF": 2, "IQA": 8, "EXIN": 1},
    "test_seen": {"SHIF": 2, "LHIF": 2, "IQA": 8, "EXIN": 2},
    "test_unseen": {"SHIF": 2, "LHIF": 2, "IQA": 8, "EXIN": 2},
}


@pytest.fixture(scope="module")
def small_splits():
    return build_splits(TEMPLATES_ALL, counts=SMALL_COUNTS, seed=21, n_unseen=2)


def test_splits_deterministic(small_splits):
    again = build_splits(TEMPLATES_ALL, counts=SMALL_COUNTS, seed=21, n_unseen=2)
    for a, b in zip(small_splits, again):
        assert split_content_hash(a) == split_content_hash(b)


def test_unseen_templates_disjoint(small_splits):
    train = next(s for s in small_splits if s.name == "train")
    unseen = next(s for s in small_splits if s.name == "test_unseen")
    train_scenes = {e.scene_template_id for e in train.episodes}
    unseen_scenes = {e.scene_template_id for e in unseen.episodes}
    assert not (train_scenes & unseen_scenes)
    assert unseen_scenes <= set(t["template_id"] for t in TEMPLATES_ALL[-2:])


def test_iqa_balance_within_one(small_splits):
    for split in small_splits:
        cells = {}
        for e in split.episodes:
            if e.family != "IQA":
                continue
            key = (e.task_type, e.instruction.split("{")[0][:12], e.answer)
            # balance is per (surface template, answer): reconstruct the
            # form index from the instruction shape
            cells.setdefault((e.task_type, e.answer), 0)
            cells[(e.task_type, e.answer)] += 1
        per_type = {}
        for (tt, ans), n in cells.items():
            per_type.setdefault(tt, []).append(n)
        for tt, ns in per_type.items():
            assert max(ns) - min(ns) <= 1, (split.name, tt, ns)


def test_desk_scale_counts_preserve_proportions():
    counts = desk_split_counts(30)
    train = counts["train"]
    total = sum(train.values())
    paper_total = sum(FULL_SPLIT_COUNTS["train"].values())
    for fam, n in FULL_SPLIT_COUNTS["train"].items():
        assert abs(train[fam] / total - n / paper_total) < 0.002
    # the documented ratio example: 1000-episode budget gives ~589 IQA
    assert round(1000 * 19728 / 33487) == 589


def test_build_splits_rejects_overrides_that_delete_a_bound_instance():
    # at this seed an LHIF clean_place draw (kitchen_d) has its target Cup
    # in the Sink; vacating the Sink finds no free receptacle and deletes
    # the Cup, which made remaining_milestones raise UnknownInstance
    splits = build_splits(TEMPLATES_ALL, counts=desk_split_counts(3000), seed=3,
                          n_unseen=2)
    for split in splits:
        for e in split.episodes:
            state = task_initial_state(e, TBY[e.scene_template_id])
            for iid in (e.target_iid, e.bindings.get("mrecep_iid")):
                assert iid is None or state.has(iid), (split.name, e.task_type, iid)


def test_build_splits_draws_enough_scenes_for_a_rare_slot(monkeypatch):
    # at this seed (perfbench task_finetune seed 2812, operation 3) an LHIF
    # pick_two slot of the train split finds a scene on its 14th draw
    counts = desk_split_counts(1000)
    splits = build_splits(TEMPLATES_ALL, counts=counts, seed=2106129568, n_unseen=2)
    assert [len(s.episodes) for s in splits] == [sum(counts[s.name].values()) for s in splits]
    monkeypatch.setattr(TK, "GENERATE_ATTEMPTS", 12)
    with pytest.raises(RuntimeError, match="LHIF/pick_two for train"):
        build_splits(TEMPLATES_ALL, counts=counts, seed=2106129568, n_unseen=2)


def test_split_cycles_are_pinned():
    # the (task type, form, forced answer) cells build_splits cycles
    # through, in order; the golden digest's splits reach only the first
    # seven IQA cells
    assert TK._family_cycle("SHIF") == [("clean", 0, None), ("heat", 0, None),
                                        ("cool", 0, None)]
    assert TK._family_cycle("LHIF") == [
        (t, f, None) for t, forms in (("pick_place", 2), ("clean_place", 2),
                                      ("heat_place", 2), ("cool_place", 2),
                                      ("pick_two", 2), ("examine", 2),
                                      ("stack_place", 3))
        for f in range(forms)]
    assert TK._family_cycle("IQA") == [
        ("state", 0, "Yes"), ("state", 0, "Yes"), ("state", 0, "No"), ("state", 0, "No"),
        ("existence", 0, "Yes"), ("existence", 0, "No"),
        ("existence", 1, "Yes"), ("existence", 1, "No"),
        ("counting", 0, "0"), ("counting", 0, "1"), ("counting", 0, "2"),
        ("counting", 0, "3"), ("counting", 1, "0"), ("counting", 1, "1"),
        ("counting", 1, "2"), ("counting", 1, "3")]
    assert TK._family_cycle("EXIN") == [
        (t, 0, None) for t in ("pickup", "put", "toggleon", "toggleoff", "open",
                               "close", "slice")]


def test_an_unknown_task_type_is_a_value_error():
    # a split file can name a (family, task type) the code does not know
    task = generate_task("EXIN", "pickup", 0, TEMPLATES_ALL[0], 41,
                         np.random.default_rng(0))
    state = task_initial_state(task, TEMPLATES_ALL[0])
    with pytest.raises(ValueError, match="EXIN/juggle"):
        TK.remaining_milestones(TaskInstance.from_json({**task.to_json(),
                                                        "task_type": "juggle"}), state)
    with pytest.raises(ValueError, match="EXIN/juggle"):
        generate_task("EXIN", "juggle", 0, TEMPLATES_ALL[0], 41, np.random.default_rng(0))


def test_split_reserved_templates_guard():
    with pytest.raises(InsufficientScenes):
        build_splits(TEMPLATES_ALL[:1], counts=SMALL_COUNTS, seed=0, n_unseen=2)
    assert TK.split_templates(TEMPLATES_ALL, 2) == (TEMPLATES_ALL[:-2], TEMPLATES_ALL[-2:])


@pytest.mark.parametrize("n_unseen", [0, len(TEMPLATES_ALL)])
@pytest.mark.parametrize("command", ["gen-episodes", "pretrain", "eval-skills"])
def test_every_command_that_splits_templates_refuses_an_empty_part_in_one_line(
        tmp_path, capsys, command, n_unseen):
    from gridhouse.cli import main

    ini = tmp_path / "run.ini"
    ini.write_text(f"[tasks]\nn_unseen = {n_unseen}\n")
    assert main([command, "--config", str(ini), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "InsufficientScenes" in err
    assert not (tmp_path / "out").exists()


def test_splits_roundtrip_and_soundness(small_splits, tmp_path):
    write_splits(small_splits, tmp_path)
    loaded = load_split(tmp_path / "train.jsonl", "train")
    assert len(loaded.episodes) == len(small_splits[0].episodes)
    # every generated episode is expert-verified at generation; replay a few
    for task in loaded.episodes[:10]:
        ok, _ = verify_episode(task, TBY)
        assert ok


def test_shif_precondition_initialized(small_splits):
    train = next(s for s in small_splits if s.name == "train")
    for e in train.episodes:
        if e.family != "SHIF":
            continue
        state = task_initial_state(e, TBY[e.scene_template_id])
        assert state.agent.held == e.target_iid  # pre-condition fulfilled


def test_tokenizer_and_vocab():
    toks = tokenize("Is the fridge open?")
    assert toks == ["is", "the", "fridge", "open"]
    vocab = build_vocab(REG)
    assert vocab["<pad>"] == 0 and vocab["<unk>"] == 1
    for t in toks:
        assert t in vocab
    assert "diningtable" in vocab


# --------------------------------------------------------------------------
# golden task content


def _generated_tasks():
    """Every (family, task type, form) generated on two fixed scenes:
    yields (key, template, task), where task is the UnsatisfiableTemplate
    raised when generation refuses."""
    for family, types in TEMPLATES.items():
        for task_type, forms in types.items():
            for form in range(len(forms)):
                for seed in (11, 12):
                    template = TEMPLATES_ALL[(seed + form) % len(TEMPLATES_ALL)]
                    key = (family, task_type, form, seed)
                    try:
                        task = generate_task(family, task_type, form, template,
                                             seed, np.random.default_rng(seed))
                    except UnsatisfiableTemplate as e:
                        task = e
                    yield key, template, task


def _task_content_digest():
    """SHA-256 over the tasks of `_generated_tasks` and over the content
    hashes of the scale-3000 splits at seed 0."""
    h = hashlib.sha256()

    def put(*xs):
        h.update(repr(xs).encode())

    for key, _template, task in _generated_tasks():
        put(*key)
        if isinstance(task, UnsatisfiableTemplate):
            put("unsatisfiable", str(task))
        else:
            put(json.dumps(task.to_json(), sort_keys=True))
    for split in build_splits(TEMPLATES_ALL, counts=desk_split_counts(3000), seed=0,
                              n_unseen=2):
        put(split.name, split_content_hash(split))
    return h.hexdigest()


def _expert_replay_digest():
    """SHA-256 over the expert's replay of each task of `_generated_tasks`:
    every step, the ending and the answer."""
    h = hashlib.sha256()

    def put(*xs):
        h.update(repr(xs).encode())

    for key, template, task in _generated_tasks():
        if isinstance(task, UnsatisfiableTemplate):
            continue
        put(*key)
        traj = run_expert_episode(task_initial_state(task, template),
                                  remaining_fn(task), max_steps=task.max_steps,
                                  expected_answer=task.answer)
        for r in traj.steps:
            put(r.t, r.subgoal, r.action.name, r.point, r.success,
                r.reason, r.target, r.state_hash)
        put(traj.terminated, traj.answer)
    return h.hexdigest()


# Any change to task generation, expert milestones or split sampling moves
# TASK_CONTENT_SHA256; any change to how the expert plays a task moves
# EXPERT_REPLAY_SHA256.  A change that means to must say so.
TASK_CONTENT_SHA256 = "5b84b1a5a60a443e33b6413632b62eb839c5798e408fda131805989e959a600c"
EXPERT_REPLAY_SHA256 = "b2f0dfa2eecc9f7d28e9abfd7ff1e374b5cac2d148c69b360538870d15412d44"


def test_task_content_is_bit_identical_to_the_golden_digest():
    assert _task_content_digest() == TASK_CONTENT_SHA256


def test_expert_replays_are_bit_identical_to_the_golden_digest():
    assert _expert_replay_digest() == EXPERT_REPLAY_SHA256


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_an_iqa_replay_stops_at_its_answer_where_running_on_changes_nothing(seed):
    # what a replay's callers read (the final state and frame, the answer
    # and the collapsed sub-goal trace) is what an expert that never ends
    # reaches at its step budget: every step past the answer is a Done
    # from a settled state
    def never_ends(traj, state, ex):
        if ex.subgoal.skill is Skill.Answer:
            traj.answer = task.answer
        return ex.subgoal, ex.action, ex.point, False

    episodes = [task for split in build_splits(TEMPLATES_ALL, desk_split_counts(3000),
                                               seed=seed, n_unseen=2)
                for task in split.episodes]
    for task in episodes:
        template = TBY[task.scene_template_id]
        traj = replay_expert(task, template, W.InteractionMode.HARD, None, None)
        assert traj.terminated == "end", (task.family, task.task_type)
        if task.family != "IQA":
            continue
        assert traj.steps[-1].subgoal == SubGoal(Skill.Answer)
        assert traj.answer == task.answer
        longest = rollout(task_initial_state(task, template), never_ends,
                          W.InteractionMode.HARD, task.max_steps,
                          ExpertController(remaining_fn(task), W.InteractionMode.HARD))
        assert longest.terminated == "budget"
        assert state_hash(traj.final_state) == state_hash(longest.final_state)
        assert traj.final_state.observation.key == longest.final_state.observation.key
        assert traj.answer == longest.answer
        assert traj.subgoal_sequence == longest.subgoal_sequence
