"""Task families: instruction templates, goals, expert decompositions, splits.

Four families: short-horizon instruction following (SHIF), long-horizon
instruction following (LHIF), interactive question answering (IQA) and
exploratory interaction (EXIN).  Episodes are fully regenerable from
(scene template, seed, overrides); goals are small serializable dicts.

Each (family, task type) is one `TaskType` record in `TASK_TYPES`: its
instruction forms, the answers `build_splits` forces, its sampler (run by
`generate_task`) and its milestone function (run by
`remaining_milestones`).  Records share two tables: `STATE_CHANGES` (EXIN
state-change type -> skill) and `TREATMENTS` (SHIF treatments, also the
LHIF `<treatment>_place` types).  Other modules replay a task's expert
through `replay_expert` and read its token ids from `instruction_tokens`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Callable

import numpy as np

from . import planner, world as W
from .episodes import run_expert_episode
from .skills import Skill, SubGoal, reached, state_change
from .world import (Cleanliness, Openness, Power, Temperature, WorldState,
                    randomize_scene)

FAMILIES = ("SHIF", "LHIF", "IQA", "EXIN")

# per-split step budgets; LHIF chains are long
MAX_STEPS = {"SHIF": 100, "LHIF": 200, "IQA": 100, "EXIN": 100}

# EXIN state-change task type -> its skill
STATE_CHANGES = {"toggleon": Skill.ToggleOn, "toggleoff": Skill.ToggleOff,
                 "open": Skill.Open, "close": Skill.Close}

# SHIF task type, and LHIF `<type>_place` -> (appliance, attribute, start
# value, goal value, switch turned off at the start)
TREATMENTS = {
    "clean": ("Sink", "cleanliness", Cleanliness.DIRTY, Cleanliness.CLEAN, "Faucet"),
    "heat": ("Microwave", "temperature", Temperature.ROOM, Temperature.HOT, "Microwave"),
    "cool": ("Fridge", "temperature", Temperature.ROOM, Temperature.COLD, None),
}


class UnsatisfiableTemplate(RuntimeError):
    pass


class InfeasibleTask(RuntimeError):
    pass


class InsufficientScenes(ValueError):
    pass


# --------------------------------------------------------------------------
# instruction surface forms


STATE_WORDS = {
    ("openness", "open"): "open",
    ("openness", "closed"): "closed",
    ("power", "on"): "turned on",
    ("power", "off"): "turned off",
    ("cleanliness", "dirty"): "dirty",
    ("cleanliness", "clean"): "clean",
    ("sliced", True): "sliced",
}


def tokenize(text: str) -> list[str]:
    return [t for t in re.sub(r"[^a-z0-9 ]", " ", text.lower()).split() if t]


def instruction_tokens(task, vocab) -> list[int]:
    """The task instruction's token ids; 1 (`<unk>`) for a word outside
    `vocab`."""
    return [vocab.get(t, 1) for t in tokenize(task.instruction)]


def build_vocab(registry) -> dict[str, int]:
    words = {"<pad>": 0, "<unk>": 1}
    pool = set()
    for record in TASK_TYPES.values():
        for form in record.forms:
            pool.update(tokenize(re.sub(r"\{[a-z]+\}", " ", form)))
    for name in registry.names():
        pool.add(name.lower())
    for word in STATE_WORDS.values():
        pool.update(tokenize(word))
    for w in sorted(pool):
        words.setdefault(w, len(words))
    return words


# --------------------------------------------------------------------------
# task instances


@dataclass
class TaskInstance:
    family: str
    task_type: str
    instruction: str
    bindings: dict
    goal: dict
    scene_template_id: str
    scene_seed: int
    overrides: list = field(default_factory=list)
    answer: str | None = None
    target_iid: int | None = None
    expert_decomposition: list = field(default_factory=list)
    max_steps: int = 100

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, d: dict) -> "TaskInstance":
        return cls(**{f.name: d[f.name] for f in fields(cls)})


# --------------------------------------------------------------------------
# state overrides (recorded per episode; make episodes regenerable)


def _free_receptacle(state, exclude_classes=(), exclude_iids=()):
    """Deterministic relocation target: roomy plain surfaces first, task
    machinery (sinks, fridges, microwaves) only as a last resort."""
    cands = []
    for o in W.free_fixtures(state):
        if o.class_id in exclude_classes or o.instance_id in exclude_iids:
            continue
        cls = state.cls(o)
        free = W.capacity(o) - len(state.contents_of(o.instance_id))
        machinery = cls.sink_basin or cls.heats or cls.cools
        cands.append((machinery, -free, o.instance_id))
    if not cands:
        return None
    return min(cands)[2]


def apply_overrides(state: WorldState, ops) -> WorldState:
    """Deterministic post-randomization episode setup."""
    for op in ops:
        kind = op[0]
        if kind == "hold":
            state = W.hold(state, op[1])
        elif kind == "set":
            _, iid, attr, value = op
            enum_map = {"openness": Openness, "power": Power,
                        "cleanliness": Cleanliness, "temperature": Temperature}
            val = enum_map[attr](value) if attr in enum_map else bool(value)
            state = state.with_object(replace(state.obj(iid), **{attr: val}))
        elif kind == "move":
            _, iid, dest = op
            state = state.with_object(replace(state.obj(iid), anchor=None, container=dest))
        elif kind == "spawn":
            _, cls_name, dest = op
            reg = state.registry
            cid = reg.id_of(cls_name)
            cls = reg[cid]
            nid = max((o.instance_id for o in state.objects), default=-1) + 1
            openness, power, clean = W.initial_states(cls, None, False)
            new = W.ObjectInstance(
                instance_id=nid, class_id=cid, anchor=None, container=dest,
                size=1, openness=openness, power=power, cleanliness=clean)
            state = replace(state, objects=state.objects + (new,))
        elif kind == "vacate":
            recep_iid, n_free = op[1], op[2]
            protected = tuple(op[3]) if len(op) > 3 else ()
            recep = state.obj(recep_iid)
            contents = sorted(state.contents_of(recep_iid), key=lambda o: o.instance_id)
            while W.capacity(recep) - len(contents) < n_free and contents:
                moved = contents.pop(0)
                dest = _free_receptacle(state, exclude_iids=(recep_iid,) + protected)
                if dest is None:
                    state = replace(state, objects=tuple(
                        o for o in state.objects if o.instance_id != moved.instance_id))
                else:
                    state = state.with_object(replace(moved, container=dest))
        else:
            raise ValueError(f"unknown override {kind!r}")
    return state


def task_initial_state(task: TaskInstance, template, registry=None, config=None) -> WorldState:
    state = randomize_scene(template, task.scene_seed, registry=registry, config=config)
    return apply_overrides(state, [tuple(op) for op in task.overrides])


# --------------------------------------------------------------------------
# goal predicates


def _inside_class(state, obj, recep_cls, require=None):
    """obj transitively contained in an instance of recep_cls."""
    for cur in W.ancestors(state, obj.instance_id):
        if state.obj(cur).class_id == recep_cls:
            if require:
                return _attrs_match(obj, require)
            return True
    return False


def _value(obj, attr):
    """An attribute as goals and answers spell it: an enum's value."""
    actual = getattr(obj, attr)
    return actual.value if hasattr(actual, "value") else actual


def _attrs_match(obj, require):
    return all(_value(obj, attr) == value for attr, value in require.items())


def goal_satisfied(goal: dict, state: WorldState) -> bool:
    """Whether the state meets a non-IQA goal; an IQA goal is met by the
    answer (`task_success`), not by a state."""
    kind = goal["kind"]
    if kind == "state_held":
        held = state.held_object()
        return (held is not None and held.class_id == goal["cls"]
                and _attrs_match(held, goal.get("require", {})))
    if kind == "contained":
        n = sum(1 for o in state.instances_of(goal["obj"])
                if _inside_class(state, o, goal["recep"], goal.get("require")))
        return n >= goal.get("min_count", 1)
    if kind == "chain":
        for o in state.instances_of(goal["obj"]):
            cur = o.container
            if cur is None:
                continue
            holder = state.obj(cur)
            if holder.class_id == goal["mrecep"] and \
                    _inside_class(state, holder, goal["recep"]):
                return True
        return False
    if kind == "any_container":
        return any(o.container is not None for o in state.instances_of(goal["obj"]))
    if kind == "class_state":
        return any(_value(o, goal["attr"]) == goal["value"]
                   for o in state.instances_of(goal["cls"]))
    if kind == "held_and_on":
        held = state.held_object()
        if held is None or held.class_id != goal["obj"]:
            return False
        return any(o.power is Power.ON for o in state.instances_of(goal["toggle"]))
    raise ValueError(f"unknown goal kind {goal['kind']!r}")


def task_success(task: TaskInstance, trajectory) -> bool:
    """Goal predicate over the final state, or answer correctness for IQA."""
    if task.family == "IQA":
        return trajectory.answer is not None and trajectory.answer == task.answer
    return goal_satisfied(task.goal, trajectory.final_state)


# --------------------------------------------------------------------------
# expert decompositions (Markovian: remaining milestones from any state)


def _goto_if_needed(state, iid):
    if reached(state, iid):
        return []
    return [(SubGoal(Skill.GoTo, state.obj(iid).class_id), iid)]


def _open_blocker(state, iid):
    """GoTo + Open of the innermost closed container hiding `iid`; None
    when no closed container holds it."""
    for cur in W.ancestors(state, iid):
        holder = state.obj(cur)
        if state.cls(holder).enclosed and holder.openness is Openness.CLOSED:
            return (_goto_if_needed(state, cur)
                    + [(SubGoal(Skill.Open, holder.class_id), cur)])
    return None


def _retrieve_from(state, iid):
    """Open the container hiding `iid` if needed, then pick it up."""
    return _open_blocker(state, iid) or (
        _goto_if_needed(state, iid)
        + [(SubGoal(Skill.Pickup, state.obj(iid).class_id), iid)])


def _acquire(state, iid):
    """Milestones making `iid` held: free the hands, reveal, go to, pick up."""
    if state.agent.held == iid:
        return []
    if state.agent.held is not None:
        return _free_hands(state)
    return _retrieve_from(state, iid)


def _with_pickup(fetch, state, iid):
    """`fetch`'s milestones for `iid` projected on to its Pickup: a head
    that opens a container or frees the hands is followed by it."""
    steps = fetch(state, iid)
    if not steps or steps[-1][0].skill is not Skill.Pickup:
        steps = steps + [(SubGoal(Skill.Pickup, state.obj(iid).class_id), iid)]
    return steps


def _free_hands(state):
    """Milestones putting the held object on a free receptacle."""
    dest = _free_receptacle(state)
    if dest is None:
        raise InfeasibleTask("no receptacle frees the hands")
    return _deposit(state, dest)


def _deposit(state, recep_iid):
    """Milestones putting the held object into `recep_iid`."""
    blocker = _open_blocker(state, recep_iid)
    if blocker is not None:
        return blocker
    recep = state.obj(recep_iid)
    steps = _goto_if_needed(state, recep_iid)
    if state.cls(recep).enclosed and recep.openness is not Openness.OPEN:
        steps.append((SubGoal(Skill.Open, recep.class_id), recep_iid))
    steps.append((SubGoal(Skill.Put, recep.class_id), recep_iid))
    return steps


def _single(state, cls_id, pred=None, nearest=False):
    """Deterministic instance choice for a class: the lowest id, or with
    `nearest` the nearest displayed instance first."""
    cands = [o for o in state.instances_of(cls_id) if pred is None or pred(o)]
    if not cands:
        return None
    if nearest:
        shown = state.geometry.display_cells
        return min(cands, key=lambda o: (W.instance_distance(state, o.instance_id)
                                         if o.instance_id in shown else 1e9,
                                         o.instance_id)).instance_id
    return min(cands, key=lambda o: o.instance_id).instance_id


def _fixture(state, cls_id, error):
    """The lowest-id anchored instance of a class; raises `error` when
    there is none."""
    iid = _single(state, cls_id, pred=lambda o: o.anchor is not None)
    if iid is None:
        raise error
    return iid


def _needed_fixture(state, cls_id):
    return _fixture(state, cls_id, InfeasibleTask(f"no fixture of class {cls_id}"))


def _switch_off(state, kind):
    """GoTo + ToggleOff of a running switch of the treatment that is not
    its appliance (the faucet); [] when none runs."""
    appliance, _attr, _start, _goal, switch = TREATMENTS[kind]
    if switch in (None, appliance):
        return []
    sid = state.registry.id_of(switch)
    iid = _single(state, sid, pred=lambda o: o.power is Power.ON)
    if iid is None:
        return []
    return _goto_if_needed(state, iid) + [(SubGoal(Skill.ToggleOff, sid), iid)]


def _treatment_remaining(task, state):
    """SHIF, and LHIF `<treatment>_place` until treated: give the target the
    treatment's goal value and hold it again.  The head milestone is exact;
    the tail projects the nominal chain, recomputed at every step."""
    kind, target_iid = task.task_type.removesuffix("_place"), task.target_iid
    appliance, attr, _start, goal, switch = TREATMENTS[kind]
    reg = state.registry
    target = state.obj(target_iid)
    if getattr(target, attr) is goal:
        steps = _switch_off(state, kind)
        if state.agent.held == target_iid:
            return steps
        return steps + _with_pickup(_retrieve_from, state, target_iid)
    acid = reg.id_of(appliance)
    appl = _needed_fixture(state, acid)
    # the appliance's cycle once the target is in it, ending with its Pickup
    if switch is None:
        cycle = [(SubGoal(Skill.Close, acid), appl)]
    else:
        sid = reg.id_of(switch)
        sw = _needed_fixture(state, sid)
        cycle = [(SubGoal(Skill.ToggleOn, sid), sw), (SubGoal(Skill.ToggleOff, sid), sw)]
    if reg[acid].enclosed:
        cycle.append((SubGoal(Skill.Open, acid), appl))
    pick = [(SubGoal(Skill.Pickup, target.class_id), target_iid)]
    cycle += pick
    if kind == "clean" and target.container == appl:
        return _goto_if_needed(state, sw) + (
            cycle if state.obj(sw).power is Power.OFF else pick)
    if kind != "clean" and _inside_class(state, target, acid):
        a = state.obj(appl)
        if kind == "heat":
            if a.power is Power.ON:
                cycle = cycle[1:]
            elif a.openness is Openness.OPEN:
                cycle = [(SubGoal(Skill.Close, acid), appl)] + cycle
        elif a.openness is not Openness.OPEN:
            # closed fridge: cooling lands on the next successful step, so
            # retrieving the target is enough
            return _with_pickup(_retrieve_from, state, target_iid)
        return _goto_if_needed(state, appl) + cycle
    if state.agent.held == target_iid:
        return _deposit(state, appl) + cycle
    return _acquire(state, target_iid) + [(SubGoal(Skill.Put, acid), appl)] + cycle


def _question_milestones(task, state):
    """IQA: reach the target, open a closed receptacle asked about, Answer.

    Never `[]`: the expert's own Answer step ends the episode
    (`episodes.run_expert_episode`), so no End follows it."""
    t_iid = task.target_iid
    if not state.has(t_iid):
        raise InfeasibleTask("question target vanished")
    steps = _goto_if_needed(state, t_iid)
    target = state.obj(t_iid)
    if (task.task_type != "state" and state.cls(target).enclosed
            and target.openness is Openness.CLOSED):
        steps.append((SubGoal(Skill.Open, target.class_id), t_iid))
    return steps + [(SubGoal(Skill.Answer), None)]


def _until_goal(milestones):
    """A goal-state type's milestone function: none once the goal holds."""
    return lambda task, state: ([] if goal_satisfied(task.goal, state)
                                else milestones(task, state))


def _pickup_milestones(task, state):
    return _with_pickup(_acquire, state,
                        _single(state, task.bindings["obj"], nearest=True))


def _put_milestones(task, state):
    if state.agent.held is None:
        return _acquire(state, _single(state, task.bindings["obj"], nearest=True))
    return _free_hands(state)


def _slice_milestones(task, state):
    cls_id = task.bindings["obj"]
    iid = _single(state, cls_id, pred=lambda o: not o.sliced, nearest=True)
    if iid is None:
        raise InfeasibleTask("nothing left to slice")
    held = state.held_object()
    if held is None or not state.cls(held).slicer:
        knife = _single(state, state.registry.id_of("Knife"))
        if knife is None:
            knife = _single(state, state.registry.id_of("ButterKnife"))
        if knife is None:
            raise InfeasibleTask("no slicer available")
        return _acquire(state, knife)
    return _open_blocker(state, iid) or (
        _goto_if_needed(state, iid) + [(SubGoal(Skill.Slice, cls_id), iid)])


def _state_change_milestones(task, state):
    cls_id = task.bindings["obj"]
    skill = STATE_CHANGES[task.task_type]
    attr, start, _left = state_change(skill)
    iid = _single(state, cls_id,
                  pred=lambda o: getattr(o, attr) is start, nearest=True)
    if iid is None:
        raise InfeasibleTask("no instance in the pre-goal state")
    return _goto_if_needed(state, iid) + [(SubGoal(skill, cls_id), iid)]


def _place_milestones(task, state):
    """pick_place and pick_two: one instance into the receptacle at a time."""
    obj_cls, recep_cls = task.bindings["obj"], task.bindings["recep"]
    recep = _needed_fixture(state, recep_cls)
    held = state.held_object()
    if held is not None and held.class_id == obj_cls:
        return _deposit(state, recep)
    iid = _single(state, obj_cls,
                  pred=lambda o: not _inside_class(state, o, recep_cls),
                  nearest=True)
    if iid is None:
        raise InfeasibleTask("not enough instances to place")
    return _with_pickup(_acquire, state, iid) + \
        [(SubGoal(Skill.Put, recep_cls), recep)]


def _treatment_place_milestones(task, state):
    kind = task.task_type.removesuffix("_place")
    _appliance, attr, _start, goal, _switch = TREATMENTS[kind]
    t_iid, recep_cls = task.target_iid, task.bindings["recep"]
    if getattr(state.obj(t_iid), attr) is not goal:
        return _treatment_remaining(task, state)
    steps = _switch_off(state, kind)
    if steps:
        return steps
    recep = _needed_fixture(state, recep_cls)
    if state.agent.held == t_iid:
        return _deposit(state, recep)
    return _with_pickup(_retrieve_from, state, t_iid) + \
        [(SubGoal(Skill.Put, recep_cls), recep)]


def _examine_milestones(task, state):
    obj_cls, toggle_cls = task.bindings["obj"], task.bindings["toggle"]
    lamp = _single(state, toggle_cls, pred=lambda o: o.power is Power.OFF,
                   nearest=True)
    switch_on = [] if lamp is None else [(SubGoal(Skill.ToggleOn, toggle_cls), lamp)]
    held = state.held_object()
    if held is None or held.class_id != obj_cls:
        iid = _single(state, obj_cls, nearest=True)
        return _with_pickup(_acquire, state, iid) + switch_on
    if lamp is None:
        raise InfeasibleTask("no lamp to switch on")
    return _goto_if_needed(state, lamp) + switch_on


def _stack_place_milestones(task, state):
    b, t_iid = task.bindings, task.target_iid
    recep_cls, mrecep_cls, m_iid = b["recep"], b["mrecep"], b["mrecep_iid"]
    recep = _needed_fixture(state, recep_cls)
    to_recep = [(SubGoal(Skill.Put, recep_cls), recep)]
    if state.obj(t_iid).container != m_iid:
        chain_tail = [(SubGoal(Skill.Pickup, mrecep_cls), m_iid)] + to_recep
        if state.agent.held == t_iid:
            return _deposit(state, m_iid) + chain_tail
        return _with_pickup(_acquire, state, t_iid) + \
            [(SubGoal(Skill.Put, mrecep_cls), m_iid)] + chain_tail
    if state.agent.held == m_iid:
        return _deposit(state, recep)
    return _with_pickup(_retrieve_from, state, m_iid) + to_recep


def remaining_milestones(task: TaskInstance, state: WorldState) -> list:
    """(SubGoal, target instance) list still needed; [] means emit End."""
    record = _task_type(task.family, task.task_type)
    return record.milestones(task, state)


def remaining_fn(task: TaskInstance):
    """ExpertController callback: the `(SubGoal, instance hint or None)`
    pairs still needed, ending in End.  An IQA list holds Answer before its
    End; the expert's episode ends on its Answer step, so it never reaches
    that End."""

    def fn(state):
        return remaining_milestones(task, state) + [(SubGoal(Skill.End), None)]

    return fn


def replay_expert(task: TaskInstance, template, mode, registry, config):
    """The expert's episode on `task` from its initial state.  It ends as
    "end" on the expert's own End step, or for an IQA task on its own
    Answer step with `traj.answer` set to `task.answer`."""
    state = task_initial_state(task, template, registry=registry, config=config)
    return run_expert_episode(state, remaining_fn(task), mode, max_steps=task.max_steps,
                              expected_answer=task.answer)


# --------------------------------------------------------------------------
# episode generation


@dataclass
class _Draft:
    """An episode being sampled: the scene as its overrides so far leave
    it, and what is bound.  `want` is the answer to force, or None."""
    state: WorldState
    rng: np.random.Generator
    want: str | None
    ops: list = field(init=False, default_factory=list)
    bindings: dict = field(init=False, default_factory=dict)
    words: dict = field(init=False, default_factory=dict)   # slots naming no class
    goal: dict | None = field(init=False, default=None)
    answer: str | None = field(init=False, default=None)
    target_iid: int | None = field(init=False, default=None)

    def apply(self, op):
        """Record an override and apply it."""
        self.ops.append(op)
        self.state = apply_overrides(self.state, [op])

    def set_all(self, cls_id, attr, value):
        """Set an attribute of every instance of a class."""
        for o in self.state.instances_of(cls_id):
            self.apply(("set", o.instance_id, attr, value))

    def fixture(self, cls_id):
        return _fixture(self.state, cls_id, UnsatisfiableTemplate("fixture missing"))


def _present_classes(state, pred):
    reg = state.registry
    return [cid for cid in range(len(reg)) if pred(reg[cid]) and state.instances_of(cid)]


def _pickupable(state):
    return _present_classes(state, lambda c: c.pickupable)


def _treatable(state, kind):
    """Classes a treatment applies to: dirtiable pickupables, or foods."""
    if kind == "clean":
        return _present_classes(state, lambda c: c.pickupable and c.can_dirty)
    return _present_classes(state, lambda c: c.pickupable
                            and (c.sliceable or c.name == "Egg"))


def _fixture_recep_classes(state):
    return sorted({o.class_id for o in state.objects
                   if state.cls(o).receptacle and o.anchor is not None})


def _choice(rng, seq):
    if not seq:
        raise UnsatisfiableTemplate("empty binding domain")
    return seq[int(rng.integers(len(seq)))]


def _move_out(d, obj_cls, recep_cls, protect=()):
    """Relocate every obj-class instance out of recep-class containers."""
    recep_iids = {o.instance_id for o in d.state.instances_of(recep_cls)}
    for o in d.state.instances_of(obj_cls):
        if any(cur in recep_iids for cur in W.ancestors(d.state, o.instance_id)):
            dest = _free_receptacle(d.state, exclude_classes=(recep_cls,),
                                    exclude_iids=tuple(recep_iids) + tuple(protect))
            if dest is None:
                raise UnsatisfiableTemplate("nowhere to relocate bound object")
            d.apply(("move", o.instance_id, dest))


def _goal_receptacle(d):
    """Bind an LHIF goal receptacle: (fixture class, its lowest-id instance)."""
    recep_cls = _choice(d.rng, _fixture_recep_classes(d.state))
    d.bindings["recep"] = recep_cls
    return recep_cls, d.fixture(recep_cls)


def _sample_treatment(kind, d):
    """SHIF: the target is held untreated; the appliance is free, its switch off."""
    appliance, attr, start, want, switch = TREATMENTS[kind]
    reg = d.state.registry
    d.bindings["obj"] = obj_cls = _choice(d.rng, _treatable(d.state, kind))
    d.target_iid = _choice(d.rng, d.state.instances_of(obj_cls)).instance_id
    appl = d.fixture(reg.id_of(appliance))
    d.apply(("hold", d.target_iid))
    d.apply(("set", d.target_iid, attr, start.value))
    if switch is not None:
        d.apply(("set", d.fixture(reg.id_of(switch)), "power", "off"))
    d.apply(("vacate", appl, 1))
    d.goal = {"kind": "state_held", "cls": obj_cls, "require": {attr: want.value}}


def _sample_pickup(d):
    d.bindings["obj"] = obj_cls = _choice(d.rng, _pickupable(d.state))
    d.goal = {"kind": "state_held", "cls": obj_cls}


def _sample_put(d):
    d.bindings["obj"] = obj_cls = _choice(d.rng, _pickupable(d.state))
    d.target_iid = _choice(d.rng, d.state.instances_of(obj_cls)).instance_id
    d.apply(("hold", d.target_iid))
    d.goal = {"kind": "any_container", "obj": obj_cls}


def _sample_slice(d):
    reg = d.state.registry
    if not any(reg[o.class_id].slicer for o in d.state.objects):
        raise UnsatisfiableTemplate("no slicer in scene")
    d.bindings["obj"] = obj_cls = _choice(d.rng, _present_classes(
        d.state, lambda c: c.sliceable and c.pickupable))
    slicers = [o.instance_id for o in d.state.objects
               if reg[o.class_id].slicer and o.class_id != obj_cls]
    if not slicers:
        raise UnsatisfiableTemplate("no slicer distinct from target")
    d.apply(("hold", slicers[0]))
    d.set_all(obj_cls, "sliced", False)
    d.goal = {"kind": "class_state", "cls": obj_cls, "attr": "sliced", "value": True}


def _sample_state_change(kind, d):
    """EXIN toggleon/toggleoff/open/close: every instance of the class
    starts in the state the skill needs."""
    attr, start, want = state_change(STATE_CHANGES[kind])
    d.bindings["obj"] = obj_cls = _choice(d.rng, _present_classes(
        d.state, lambda c: (c.toggleable if attr == "power" else c.enclosed)))
    d.set_all(obj_cls, attr, start.value)
    d.goal = {"kind": "class_state", "cls": obj_cls, "attr": attr, "value": want.value}


def _sample_place(count, d):
    """pick_place (count 1) and pick_two (count 2, of a class that is no
    receptacle): the empty receptacle and the scene have room for `count`."""
    reg = d.state.registry
    recep_cls, recep = _goal_receptacle(d)
    if W.capacity(d.state.obj(recep)) < count:
        raise UnsatisfiableTemplate("receptacle too small for two")
    obj_cls = _choice(d.rng, [c for c in _pickupable(d.state) if c != recep_cls
                              and (count == 1 or not reg[c].receptacle)])
    _move_out(d, obj_cls, recep_cls)
    for _ in range(count - len(d.state.instances_of(obj_cls))):
        dest = _free_receptacle(d.state, exclude_classes=(recep_cls,))
        if dest is None:
            raise UnsatisfiableTemplate("no slot for second instance")
        d.apply(("spawn", reg[obj_cls].name, dest))
    d.apply(("vacate", recep, count))
    d.bindings["obj"] = obj_cls
    d.goal = {"kind": "contained", "obj": obj_cls, "recep": recep_cls,
              "min_count": count}


def _sample_treatment_place(kind, d):
    """LHIF `<kind>_place`: every instance starts untreated and outside the
    receptacle; the receptacle and the appliance have room."""
    appliance_cls, attr, start, want, switch = TREATMENTS[kind]
    reg = d.state.registry
    recep_cls, recep = _goal_receptacle(d)
    obj_cls = _choice(d.rng, [c for c in _treatable(d.state, kind) if c != recep_cls])
    appliance = d.fixture(reg.id_of(appliance_cls))
    _move_out(d, obj_cls, recep_cls, protect=(appliance,))
    d.target_iid = d.state.instances_of(obj_cls)[0].instance_id
    d.bindings["obj"] = obj_cls
    d.set_all(obj_cls, attr, start.value)
    # the goal receptacle and the treatment appliance must both stay
    # free, so each vacate protects the other
    d.apply(("vacate", recep, 1, [appliance]))
    if switch is not None:
        d.apply(("set", d.fixture(reg.id_of(switch)), "power", "off"))
    d.apply(("vacate", appliance, 1, [recep]))
    d.goal = {"kind": "contained", "obj": obj_cls, "recep": recep_cls,
              "min_count": 1, "require": {attr: want.value}}


def _sample_examine(d):
    # every LHIF type draws a goal receptacle; examine binds none
    _choice(d.rng, _fixture_recep_classes(d.state))
    obj_cls = _choice(d.rng, _pickupable(d.state))
    toggle_cls = _choice(d.rng, _present_classes(
        d.state, lambda c: c.toggleable and not c.water_source and not c.heats))
    d.bindings.update(obj=obj_cls, toggle=toggle_cls)
    d.set_all(toggle_cls, "power", "off")
    d.goal = {"kind": "held_and_on", "obj": obj_cls, "toggle": toggle_cls}


def _sample_stack_place(d):
    """LHIF stack_place: the target starts outside the free movable receptacle."""
    reg = d.state.registry
    recep_cls, recep = _goal_receptacle(d)
    mrecep_cls = _choice(d.rng, _present_classes(
        d.state, lambda c: c.pickupable and c.receptacle))
    obj_cls = _choice(d.rng, [c for c in _pickupable(d.state)
                              if c != mrecep_cls and not reg[c].receptacle])
    mrecep = d.state.instances_of(mrecep_cls)[0].instance_id
    target = d.state.instances_of(obj_cls)[0]
    d.target_iid = target.instance_id
    d.bindings.update(obj=obj_cls, mrecep=mrecep_cls, mrecep_iid=mrecep)
    before = d.state
    d.apply(("vacate", mrecep, 1, [recep]))
    d.apply(("vacate", recep, 1, [mrecep]))
    if target.container == mrecep:
        d.apply(("move", d.target_iid, _free_receptacle(before, exclude_iids=(mrecep,))))
    d.goal = {"kind": "chain", "obj": obj_cls, "mrecep": mrecep_cls,
              "recep": recep_cls}


def _answer(d, answer, want):
    """Record a question's answer, which must be the one asked for."""
    if answer != want:
        raise UnsatisfiableTemplate("forced answer unreachable")
    d.answer = answer
    d.goal = {"kind": "answer", "expected": answer}


def _state_question_candidates(state):
    """(iid, attr, asked_value, word) for single-instance classes with an
    observable mutable attribute."""
    reg = state.registry
    by_cls = {}
    for o in state.objects:
        by_cls.setdefault(o.class_id, []).append(o)
    out = []
    for cid, objs in sorted(by_cls.items()):
        if len(objs) != 1:
            continue
        cls = reg[cid]
        asked = {"openness": cls.enclosed, "power": cls.toggleable,
                 "cleanliness": cls.can_dirty and cls.pickupable,
                 "sliced": cls.sliceable}
        out += [(objs[0].instance_id, attr, value, word)
                for (attr, value), word in STATE_WORDS.items() if asked[attr]]
    return out


def _sample_state_question(d):
    cands = _state_question_candidates(d.state)
    if not cands:
        raise UnsatisfiableTemplate("no state-question candidate")
    iid, attr, asked, word = _choice(d.rng, cands)
    want = d.want or _choice(d.rng, ["Yes", "No"])
    if want not in ("Yes", "No"):
        raise UnsatisfiableTemplate("state answers are yes/no")
    # a No sets the attribute's other worded value (False for sliced)
    value = asked if want == "Yes" else next(
        (v for a, v in STATE_WORDS if a == attr and v != asked), False)
    before = d.state
    d.apply(("set", iid, attr, value))
    if iid not in d.state.geometry.display_cells:
        dest = _free_receptacle(before)
        if dest is None:
            raise UnsatisfiableTemplate("cannot surface question target")
        d.apply(("move", iid, dest))
    d.target_iid = iid
    d.bindings.update(obj=before.obj(iid).class_id, attr=attr, asked=asked)
    d.words["state"] = word
    _answer(d, "Yes" if _value(d.state.obj(iid), attr) == asked else "No", want)


def _question_receptacle(d, slots):
    """Bind a non-receptacle class and a fixture receptacle of at least
    `slots` slots that holds none of it; returns (class, receptacle)."""
    reg = d.state.registry
    obj_cls = _choice(d.rng, [c for c in _pickupable(d.state) if not reg[c].receptacle])
    recep_cls = _choice(d.rng, [c for c in _fixture_recep_classes(d.state)
                                if W.capacity(d.state.obj(d.fixture(c))) >= slots])
    recep = d.fixture(recep_cls)
    _move_out(d, obj_cls, recep_cls)
    d.target_iid = recep
    d.bindings.update(obj=obj_cls, recep=recep_cls)
    return obj_cls, recep


def _put_inside(d, obj_cls, recep, k):
    """Make room for `k` instances in the receptacle and spawn them there;
    returns how many instances of the class it then holds."""
    if k > 0:
        d.apply(("vacate", recep, k))
        for _ in range(k):
            d.apply(("spawn", d.state.registry[obj_cls].name, recep))
    return sum(1 for o in d.state.instances_of(obj_cls)
               if recep in W.ancestors(d.state, o.instance_id))


def _sample_existence(d):
    obj_cls, recep = _question_receptacle(d, 1)
    want = d.want or _choice(d.rng, ["Yes", "No"])
    n = _put_inside(d, obj_cls, recep, 1 if want == "Yes" else 0)
    _answer(d, "Yes" if n >= 1 else "No", want)


def _sample_counting(d):
    obj_cls, recep = _question_receptacle(d, 3)
    want = d.want if d.want is not None else str(int(d.rng.integers(0, 4)))
    _answer(d, str(min(_put_inside(d, obj_cls, recep, int(want)), 3)), want)


@dataclass(frozen=True)
class TaskType:
    """One (family, task type).  `answers`: what `build_splits` forces for
    each form, in cycle order.  `sample(draft)` binds an episode on a
    `_Draft`; `milestones(task, state)` is `remaining_milestones`, reading
    the state's `geometry` where a milestone needs the scene."""
    family: str
    name: str
    forms: tuple
    answers: tuple
    sample: Callable
    milestones: Callable


_ONCE = (None,)   # one cycle cell per form, with no answer forced
TASK_TYPES = {(t.family, t.name): t for t in (
    *(TaskType("SHIF", kind, (f"{kind} {{obj}}",), _ONCE, partial(_sample_treatment, kind),
               _treatment_remaining) for kind in TREATMENTS),
    TaskType("LHIF", "pick_place", ("put a {obj} in {recep}", "put some {obj} on {recep}"),
             _ONCE, partial(_sample_place, 1), _until_goal(_place_milestones)),
    *(TaskType("LHIF", f"{kind}_place", forms, _ONCE, partial(_sample_treatment_place, kind),
               _until_goal(_treatment_place_milestones)) for kind, forms in (
        ("clean", ("put a clean {obj} in {recep}", "clean some {obj} and put it in {recep}")),
        ("heat", ("put a hot {obj} in {recep}", "heat some {obj} and put it in {recep}")),
        ("cool", ("put a cold {obj} in {recep}", "cool some {obj} and put it in {recep}")))),
    TaskType("LHIF", "pick_two", ("put two {obj} in {recep}",
                                  "find two {obj} and put them in {recep}"),
             _ONCE, partial(_sample_place, 2), _until_goal(_place_milestones)),
    TaskType("LHIF", "examine", ("look at {obj} under the {toggle}",
                                 "examine the {obj} with the {toggle}"),
             _ONCE, _sample_examine, _until_goal(_examine_milestones)),
    TaskType("LHIF", "stack_place", ("put {obj} in a {mrecep} and then put them in {recep}",
                                     "put a {mrecep} of {obj} in {recep}",
                                     "put {obj} {mrecep} in {recep}"),
             _ONCE, _sample_stack_place, _until_goal(_stack_place_milestones)),
    # state questions weigh twice as much as existence and counting
    TaskType("IQA", "state", ("is the {obj} {state}?",), ("Yes", "Yes", "No", "No"),
             _sample_state_question, _question_milestones),
    TaskType("IQA", "existence", ("is any {obj} in or on the {recep}?",
                                  "does the {recep} contain or support at least one {obj}?"),
             ("Yes", "No"), _sample_existence, _question_milestones),
    TaskType("IQA", "counting", ("how many {obj} are in or on the {recep}?",
                                 "count the number of {obj} in or on the {recep}"),
             ("0", "1", "2", "3"), _sample_counting, _question_milestones),
    TaskType("EXIN", "pickup", ("pick up {obj}",), _ONCE, _sample_pickup,
             _until_goal(_pickup_milestones)),
    TaskType("EXIN", "put", ("put {obj}",), _ONCE, _sample_put, _until_goal(_put_milestones)),
    *(TaskType("EXIN", kind, (form,), _ONCE, partial(_sample_state_change, kind),
               _until_goal(_state_change_milestones))
      for kind, form in (("toggleon", "toggle on {obj}"), ("toggleoff", "toggle off {obj}"),
                         ("open", "open {obj}"), ("close", "close {obj}"))),
    TaskType("EXIN", "slice", ("slice {obj}",), _ONCE, _sample_slice,
             _until_goal(_slice_milestones)),
)}

# family -> task type -> instruction forms
TEMPLATES = {family: {t.name: list(t.forms) for t in TASK_TYPES.values()
                      if t.family == family} for family in FAMILIES}


def _task_type(family, name) -> TaskType:
    """The record of a (family, task type) named by a split file or a caller."""
    record = TASK_TYPES.get((family, name))
    if record is None:
        raise ValueError(f"unknown task type {family}/{name}")
    return record


def generate_task(family, task_type, form_index, scene_template, scene_seed,
                  rng, registry=None, config=None, want_answer=None) -> TaskInstance:
    """Instantiate one episode on a freshly randomized scene.

    Raises UnsatisfiableTemplate when the scene cannot host the template
    (missing classes, no capacity, unachievable forced answer, overrides
    that delete the target or the movable receptacle).
    """
    record = _task_type(family, task_type)
    d = _Draft(randomize_scene(scene_template, scene_seed, registry=registry,
                               config=config), rng, want_answer)
    record.sample(d)
    # a vacate that finds no free receptacle deletes what it moves out
    for iid in (d.target_iid, d.bindings.get("mrecep_iid")):
        if iid is not None and not d.state.has(iid):
            raise UnsatisfiableTemplate("overrides remove a bound instance")
    reg = d.state.registry
    slots = dict(d.words)
    for slot in ("obj", "recep", "mrecep", "toggle"):
        if slot in d.bindings:
            slots[slot] = reg[d.bindings[slot]].name.lower()
    return TaskInstance(
        family=family, task_type=task_type,
        instruction=record.forms[form_index % len(record.forms)].format(**slots),
        bindings=d.bindings, goal=d.goal,
        scene_template_id=scene_template["template_id"],
        scene_seed=int(scene_seed), overrides=[list(op) for op in d.ops],
        answer=d.answer, target_iid=d.target_iid,
        max_steps=MAX_STEPS[family])


# --------------------------------------------------------------------------
# dataset splits


@dataclass
class DatasetSplit:
    name: str
    episodes: list
    scene_template_ids: list

    def to_jsonl(self) -> str:
        return "".join(json.dumps(t.to_json(), sort_keys=True) + "\n"
                       for t in self.episodes)


SPLIT_NAMES = ("train", "val_seen", "val_unseen", "test_seen", "test_unseen")

FULL_SPLIT_COUNTS = {
    "train": {"SHIF": 2739, "LHIF": 8763, "IQA": 19728, "EXIN": 2257},
    "val_seen": {"SHIF": 130, "LHIF": 350, "IQA": 798, "EXIN": 113},
    "val_unseen": {"SHIF": 118, "LHIF": 350, "IQA": 794, "EXIN": 96},
    "test_seen": {"SHIF": 349, "LHIF": 1050, "IQA": 1592, "EXIN": 226},
    "test_unseen": {"SHIF": 187, "LHIF": 640, "IQA": 1565, "EXIN": 192},
}


def desk_split_counts(scale: int) -> dict:
    """Paper-shaped split sizes scaled down, proportions preserved."""
    return {split: {fam: max(1, round(n / scale)) for fam, n in fams.items()}
            for split, fams in FULL_SPLIT_COUNTS.items()}


def _family_cycle(family):
    """The (task type, form, forced answer) cells `build_splits` cycles
    through: every form of every type of the family, once per answer."""
    return [(t.name, form, answer) for t in TASK_TYPES.values() if t.family == family
            for form in range(len(t.forms)) for answer in t.answers]


def verify_episode(task: TaskInstance, templates_by_id, registry=None, config=None):
    """Run the expert in HARD mode; returns (success, trajectory)."""
    traj = replay_expert(task, templates_by_id[task.scene_template_id],
                         W.InteractionMode.HARD, registry, config)
    return task_success(task, traj), traj


# scene draws per episode before build_splits gives up on a task type: the
# scale-1,000 build at seed 2106129568 needs 14 for a slot, and 150 other
# scale-1,000 seeds needed at most 7
GENERATE_ATTEMPTS = 32


def split_templates(templates, n_unseen):
    """(train templates, unseen templates): the last `n_unseen` are held
    out.  Raises InsufficientScenes unless both parts are nonempty."""
    if n_unseen < 1 or n_unseen >= len(templates):
        raise InsufficientScenes(f"need at least one train and one unseen template: "
                                 f"n_unseen = {n_unseen} of {len(templates)}")
    return templates[:-n_unseen], templates[-n_unseen:]


def build_splits(scene_templates, counts, seed=0, registry=None, config=None, *,
                 n_unseen) -> list[DatasetSplit]:
    """Deterministic dataset construction.

    Unseen splits draw only from the reserved templates; seen splits reuse
    the train templates with fresh seeds.  Every episode is verified at
    generation time: the expert's replay must succeed, and its sub-goal
    trace is stored as the episode's expert decomposition.  An episode
    slot that fails `GENERATE_ATTEMPTS` scene draws raises RuntimeError.
    """
    train_templates, unseen_templates = split_templates(scene_templates, n_unseen)
    templates_by_id = {t["template_id"]: t for t in scene_templates}
    root = np.random.SeedSequence(seed)
    split_seeds = root.spawn(len(SPLIT_NAMES))
    out = []
    for sname, sseed in zip(SPLIT_NAMES, split_seeds):
        rng = np.random.default_rng(sseed)
        pool = unseen_templates if sname.endswith("unseen") else train_templates
        episodes = []
        for family in FAMILIES:
            quota = counts[sname][family]
            cycle = _family_cycle(family)
            made = 0
            ci = 0
            while made < quota:
                task_type, form, want = cycle[ci % len(cycle)]
                ci += 1
                for _ in range(GENERATE_ATTEMPTS):
                    template = pool[int(rng.integers(len(pool)))]
                    scene_seed = int(rng.integers(2 ** 62))
                    try:
                        task = generate_task(family, task_type, form, template,
                                             scene_seed, rng, registry=registry,
                                             config=config, want_answer=want)
                    except UnsatisfiableTemplate:
                        continue
                    try:
                        good, traj = verify_episode(task, templates_by_id,
                                                    registry, config)
                    except (InfeasibleTask, planner.Unreachable,
                            planner.InfeasibleSubgoal):
                        continue
                    if not good:
                        continue
                    task.expert_decomposition = [
                        [sub.skill.name, (None if sub.object_class is None
                                          else int(sub.object_class))]
                        for sub in traj.subgoal_sequence]
                    episodes.append(task)
                    made += 1
                    break
                else:
                    raise RuntimeError(
                        f"could not generate {family}/{task_type} for {sname}")
        out.append(DatasetSplit(name=sname, episodes=episodes,
                                scene_template_ids=[t["template_id"] for t in pool]))
    return out


def split_content_hash(split: DatasetSplit) -> str:
    return hashlib.sha256(split.to_jsonl().encode()).hexdigest()


def write_splits(splits, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    manifest = {}
    for s in splits:
        path = f"{out_dir}/{s.name}.jsonl"
        with open(path, "w") as f:
            f.write(s.to_jsonl())
        manifest[s.name] = {
            "episodes": len(s.episodes),
            "scene_templates": s.scene_template_ids,
            "sha256": split_content_hash(s),
        }
    with open(f"{out_dir}/splits_manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return manifest


def load_split(path, name) -> DatasetSplit:
    with open(path) as f:
        episodes = [TaskInstance.from_json(json.loads(line)) for line in f]
    return DatasetSplit(name=name, episodes=episodes, scene_template_ids=[])
