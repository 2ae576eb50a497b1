"""Task families: instruction templates, goals, expert decompositions, splits.

Four families: short-horizon instruction following (SHIF), long-horizon
instruction following (LHIF), interactive question answering (IQA) and
exploratory interaction (EXIN).  Episodes are fully regenerable from
(scene template, seed, overrides); goals are small serializable dicts.
The per-task-type facts are two tables: `STATE_CHANGES` maps each EXIN
state-change task type to its skill, whose effect `world.STATE_CHANGE`
states, and `TREATMENTS` holds the SHIF treatments and their LHIF
`<treatment>_place` types.  Episode generation and the expert's
milestones both read them.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, replace

import numpy as np

from . import planner, world as W
from .skills import Skill, SubGoal, state_change
from .world import (Cleanliness, Openness, Power, Temperature, WorldState,
                    cached_geometry, randomize_scene)

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


TEMPLATES = {
    "SHIF": {
        "clean": ["clean {obj}"],
        "heat": ["heat {obj}"],
        "cool": ["cool {obj}"],
    },
    "LHIF": {
        "pick_place": ["put a {obj} in {recep}", "put some {obj} on {recep}"],
        "clean_place": ["put a clean {obj} in {recep}",
                        "clean some {obj} and put it in {recep}"],
        "heat_place": ["put a hot {obj} in {recep}",
                       "heat some {obj} and put it in {recep}"],
        "cool_place": ["put a cold {obj} in {recep}",
                       "cool some {obj} and put it in {recep}"],
        "pick_two": ["put two {obj} in {recep}",
                     "find two {obj} and put them in {recep}"],
        "examine": ["look at {obj} under the {toggle}",
                    "examine the {obj} with the {toggle}"],
        "stack_place": ["put {obj} in a {mrecep} and then put them in {recep}",
                        "put a {mrecep} of {obj} in {recep}",
                        "put {obj} {mrecep} in {recep}"],
    },
    "IQA": {
        "state": ["is the {obj} {state}?"],
        "existence": ["is any {obj} in or on the {recep}?",
                      "does the {recep} contain or support at least one {obj}?"],
        "counting": ["how many {obj} are in or on the {recep}?",
                     "count the number of {obj} in or on the {recep}"],
    },
    "EXIN": {
        "pickup": ["pick up {obj}"],
        "put": ["put {obj}"],
        "toggleon": ["toggle on {obj}"],
        "toggleoff": ["toggle off {obj}"],
        "open": ["open {obj}"],
        "close": ["close {obj}"],
        "slice": ["slice {obj}"],
    },
}

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


def build_vocab(registry) -> dict[str, int]:
    words = {"<pad>": 0, "<unk>": 1}
    pool = set()
    for fam in TEMPLATES.values():
        for forms in fam.values():
            for form in forms:
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
        return {
            "family": self.family, "task_type": self.task_type,
            "instruction": self.instruction, "bindings": self.bindings,
            "goal": self.goal, "scene_template_id": self.scene_template_id,
            "scene_seed": self.scene_seed, "overrides": self.overrides,
            "answer": self.answer, "target_iid": self.target_iid,
            "expert_decomposition": self.expert_decomposition,
            "max_steps": self.max_steps,
        }

    @classmethod
    def from_json(cls, d: dict) -> "TaskInstance":
        return cls(**{k: d[k] for k in (
            "family", "task_type", "instruction", "bindings", "goal",
            "scene_template_id", "scene_seed", "overrides", "answer",
            "target_iid", "expert_decomposition", "max_steps")})


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
            new = W.ObjectInstance(
                instance_id=nid, class_id=cid, anchor=None, container=dest,
                size=1, is_receptacle=cls.receptacle,
                openness=Openness.NOT_OPENABLE,
                power=Power.OFF if cls.toggleable else Power.NOT_TOGGLEABLE,
                cleanliness=Cleanliness.CLEAN if cls.can_dirty else Cleanliness.NA)
            state = replace(state, objects=state.objects + (new,))
        elif kind == "remove":
            _, iid = op
            state = replace(state, objects=tuple(
                o for o in state.objects if o.instance_id != iid))
            if state.agent.held == iid:
                state = replace(state, agent=replace(state.agent, held=None))
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


def _reached(state, geom, iid) -> bool:
    cells = geom.display_cells.get(iid)
    if not cells:
        return False
    cfg = state.config
    if W.instance_distance(state, geom, iid) > cfg.interaction_range:
        return False
    return any(W.cell_visible_from(geom, cfg, state.agent, c) for c in cells)


def _goto_if_needed(state, geom, iid):
    if _reached(state, geom, iid):
        return []
    return [(SubGoal(Skill.GoTo, state.obj(iid).class_id), iid)]


def _open_blocker(state, geom, iid):
    """GoTo + Open of the innermost closed container hiding `iid`; None
    when no closed container holds it."""
    for cur in W.ancestors(state, iid):
        holder = state.obj(cur)
        if state.cls(holder).enclosed and holder.openness is Openness.CLOSED:
            return (_goto_if_needed(state, geom, cur)
                    + [(SubGoal(Skill.Open, holder.class_id), cur)])
    return None


def _retrieve_from(state, geom, iid):
    """Open the container hiding `iid` if needed, then pick it up."""
    return _open_blocker(state, geom, iid) or (
        _goto_if_needed(state, geom, iid)
        + [(SubGoal(Skill.Pickup, state.obj(iid).class_id), iid)])


def _acquire(state, geom, iid):
    """Milestones making `iid` held: free the hands, reveal, go to, pick up."""
    if state.agent.held == iid:
        return []
    if state.agent.held is not None:
        return _free_hands(state, geom)
    return _retrieve_from(state, geom, iid)


def _with_pickup(fetch, state, geom, iid):
    """`fetch`'s milestones for `iid` projected on to its Pickup: a head
    that opens a container or frees the hands is followed by it."""
    steps = fetch(state, geom, iid)
    if not steps or steps[-1][0].skill is not Skill.Pickup:
        steps = steps + [(SubGoal(Skill.Pickup, state.obj(iid).class_id), iid)]
    return steps


def _free_hands(state, geom):
    """Milestones putting the held object on a free receptacle."""
    dest = _free_receptacle(state)
    if dest is None:
        raise InfeasibleTask("no receptacle frees the hands")
    return _deposit(state, geom, dest)


def _deposit(state, geom, recep_iid):
    """Milestones putting the held object into `recep_iid`."""
    blocker = _open_blocker(state, geom, recep_iid)
    if blocker is not None:
        return blocker
    recep = state.obj(recep_iid)
    steps = _goto_if_needed(state, geom, recep_iid)
    if state.cls(recep).enclosed and recep.openness is not Openness.OPEN:
        steps.append((SubGoal(Skill.Open, recep.class_id), recep_iid))
    steps.append((SubGoal(Skill.Put, recep.class_id), recep_iid))
    return steps


def _single(state, cls_id, pred=None, near_geom=None):
    """Deterministic instance choice for a class: nearest, then lowest id."""
    cands = [o for o in state.instances_of(cls_id) if pred is None or pred(o)]
    if not cands:
        return None
    if near_geom is not None:
        return min(cands, key=lambda o: (W.instance_distance(state, near_geom, o.instance_id)
                                         if o.instance_id in near_geom.display_cells else 1e9,
                                         o.instance_id)).instance_id
    return min(cands, key=lambda o: o.instance_id).instance_id


def _fixture(state, cls_id):
    iid = _single(state, cls_id, pred=lambda o: o.anchor is not None)
    if iid is None:
        raise InfeasibleTask(f"no fixture of class {cls_id}")
    return iid


def _switch_off(state, geom, kind):
    """GoTo + ToggleOff of a running switch of the treatment that is not
    its appliance (the faucet); [] when none runs."""
    appliance, _attr, _start, _goal, switch = TREATMENTS[kind]
    if switch in (None, appliance):
        return []
    sid = state.registry.id_of(switch)
    iid = _single(state, sid, pred=lambda o: o.power is Power.ON)
    if iid is None:
        return []
    return _goto_if_needed(state, geom, iid) + [(SubGoal(Skill.ToggleOff, sid), iid)]


def _treatment_remaining(state, geom, target_iid, kind):
    """Milestones giving the target instance the treatment's goal value
    and ending with it back in hand.

    The head milestone is exact; the tail projects the nominal remaining
    chain (recomputed as the episode advances, so later GoTo insertions
    stay dynamic)."""
    appliance, attr, _start, goal, switch = TREATMENTS[kind]
    reg = state.registry
    target = state.obj(target_iid)
    if getattr(target, attr) is goal:
        steps = _switch_off(state, geom, kind)
        if state.agent.held == target_iid:
            return steps
        return steps + _with_pickup(_retrieve_from, state, geom, target_iid)
    acid = reg.id_of(appliance)
    appl = _fixture(state, acid)
    # the appliance's cycle once the target is in it, ending with its Pickup
    if switch is None:
        cycle = [(SubGoal(Skill.Close, acid), appl)]
    else:
        sid = reg.id_of(switch)
        sw = _fixture(state, sid)
        cycle = [(SubGoal(Skill.ToggleOn, sid), sw), (SubGoal(Skill.ToggleOff, sid), sw)]
    if reg[acid].enclosed:
        cycle.append((SubGoal(Skill.Open, acid), appl))
    pick = [(SubGoal(Skill.Pickup, target.class_id), target_iid)]
    cycle += pick
    if kind == "clean" and target.container == appl:
        return _goto_if_needed(state, geom, sw) + (
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
            return _with_pickup(_retrieve_from, state, geom, target_iid)
        return _goto_if_needed(state, geom, appl) + cycle
    if state.agent.held == target_iid:
        return _deposit(state, geom, appl) + cycle
    return _acquire(state, geom, target_iid) + [(SubGoal(Skill.Put, acid), appl)] + cycle


def remaining_milestones(task: TaskInstance, state: WorldState) -> list:
    """(SubGoal, target instance) list still needed; [] means emit End."""
    geom = cached_geometry(state)
    fam, tt = task.family, task.task_type
    b = task.bindings

    if fam == "IQA":
        t_iid = task.target_iid
        if not state.has(t_iid):
            raise InfeasibleTask("question target vanished")
        steps = []
        if tt in ("existence", "counting"):
            recep = state.obj(t_iid)
            if state.cls(recep).enclosed and recep.openness is Openness.CLOSED:
                steps = _goto_if_needed(state, geom, t_iid) \
                    + [(SubGoal(Skill.Open, recep.class_id), t_iid)]
            else:
                steps = _goto_if_needed(state, geom, t_iid)
        else:
            steps = _goto_if_needed(state, geom, t_iid)
        return steps + [(SubGoal(Skill.Answer), None)]

    if fam == "SHIF":
        return _treatment_remaining(state, geom, task.target_iid, tt)

    if goal_satisfied(task.goal, state):
        return []

    if fam == "EXIN":
        cls_id = b["obj"]
        if tt == "pickup":
            iid = _single(state, cls_id, near_geom=geom)
            return _with_pickup(_acquire, state, geom, iid)
        if tt == "put":
            if state.agent.held is None:
                return _acquire(state, geom, _single(state, cls_id, near_geom=geom))
            return _free_hands(state, geom)
        if tt == "slice":
            iid = _single(state, cls_id, pred=lambda o: not o.sliced, near_geom=geom)
            if iid is None:
                raise InfeasibleTask("nothing left to slice")
            held = state.held_object()
            if held is None or not state.cls(held).slicer:
                knife = _single(state, state.registry.id_of("Knife"))
                if knife is None:
                    knife = _single(state, state.registry.id_of("ButterKnife"))
                if knife is None:
                    raise InfeasibleTask("no slicer available")
                return _acquire(state, geom, knife)
            return _open_blocker(state, geom, iid) or (
                _goto_if_needed(state, geom, iid) + [(SubGoal(Skill.Slice, cls_id), iid)])
        skill = STATE_CHANGES[tt]
        attr, start, _left = state_change(skill)
        iid = _single(state, cls_id,
                      pred=lambda o: getattr(o, attr) is start, near_geom=geom)
        if iid is None:
            raise InfeasibleTask("no instance in the pre-goal state")
        return _goto_if_needed(state, geom, iid) + [(SubGoal(skill, cls_id), iid)]

    # LHIF
    obj_cls, recep_cls = b.get("obj"), b.get("recep")
    kind = tt.removesuffix("_place")
    if tt in ("pick_place", "pick_two"):
        recep = _fixture(state, recep_cls)
        held = state.held_object()
        if held is not None and held.class_id == obj_cls:
            return _deposit(state, geom, recep)
        iid = _single(state, obj_cls,
                      pred=lambda o: not _inside_class(state, o, recep_cls),
                      near_geom=geom)
        if iid is None:
            raise InfeasibleTask("not enough instances to place")
        return _with_pickup(_acquire, state, geom, iid) + \
            [(SubGoal(Skill.Put, recep_cls), recep)]
    if kind in TREATMENTS:
        _appliance, attr, _start, goal, _switch = TREATMENTS[kind]
        t_iid = task.target_iid
        if getattr(state.obj(t_iid), attr) is not goal:
            return _treatment_remaining(state, geom, t_iid, kind)
        steps = _switch_off(state, geom, kind)
        if steps:
            return steps
        recep = _fixture(state, recep_cls)
        if state.agent.held == t_iid:
            return _deposit(state, geom, recep)
        return _with_pickup(_retrieve_from, state, geom, t_iid) + \
            [(SubGoal(Skill.Put, recep_cls), recep)]
    if tt == "examine":
        toggle_cls = b["toggle"]
        lamp = _single(state, toggle_cls, pred=lambda o: o.power is Power.OFF,
                       near_geom=geom)
        switch_on = [] if lamp is None else [(SubGoal(Skill.ToggleOn, toggle_cls), lamp)]
        held = state.held_object()
        if held is None or held.class_id != obj_cls:
            iid = _single(state, obj_cls, near_geom=geom)
            return _with_pickup(_acquire, state, geom, iid) + switch_on
        if lamp is None:
            raise InfeasibleTask("no lamp to switch on")
        return _goto_if_needed(state, geom, lamp) + switch_on
    if tt == "stack_place":
        mrecep_cls, m_iid, t_iid = b["mrecep"], b["mrecep_iid"], task.target_iid
        recep = _fixture(state, recep_cls)
        to_recep = [(SubGoal(Skill.Put, recep_cls), recep)]
        if state.obj(t_iid).container != m_iid:
            chain_tail = [(SubGoal(Skill.Pickup, mrecep_cls), m_iid)] + to_recep
            if state.agent.held == t_iid:
                return _deposit(state, geom, m_iid) + chain_tail
            return _with_pickup(_acquire, state, geom, t_iid) + \
                [(SubGoal(Skill.Put, mrecep_cls), m_iid)] + chain_tail
        if state.agent.held == m_iid:
            return _deposit(state, geom, recep)
        return _with_pickup(_retrieve_from, state, geom, m_iid) + to_recep
    raise ValueError(f"unknown task type {fam}/{tt}")


def remaining_fn(task: TaskInstance):
    """ExpertController callback: the `(SubGoal, instance hint or None)`
    pairs still needed, ending in End."""

    def fn(state):
        return remaining_milestones(task, state) + [(SubGoal(Skill.End), None)]

    return fn


# --------------------------------------------------------------------------
# episode generation


def _present_classes(state, pred):
    out = []
    for cid in range(len(state.registry)):
        if pred(state.registry[cid]) and state.instances_of(cid):
            out.append(cid)
    return out


def _food_classes(state):
    return _present_classes(state, lambda c: c.pickupable
                            and (c.sliceable or c.name == "Egg"))


def _fixture_recep_classes(state):
    return sorted({o.class_id for o in state.objects
                   if o.is_receptacle and o.anchor is not None})


def _lamp_classes(state):
    return _present_classes(state, lambda c: c.toggleable and not c.water_source
                            and not c.heats)


def _choice(rng, seq):
    if not seq:
        raise UnsatisfiableTemplate("empty binding domain")
    return seq[int(rng.integers(len(seq)))]


def _move_out_ops(state, obj_cls, recep_cls, protect=()):
    """Relocate every obj-class instance out of recep-class containers."""
    ops = []
    recep_iids = {o.instance_id for o in state.instances_of(recep_cls)}
    for o in state.instances_of(obj_cls):
        if any(cur in recep_iids for cur in W.ancestors(state, o.instance_id)):
            dest = _free_receptacle(state, exclude_classes=(recep_cls,),
                                    exclude_iids=tuple(recep_iids) + tuple(protect))
            if dest is None:
                raise UnsatisfiableTemplate("nowhere to relocate bound object")
            ops.append(("move", o.instance_id, dest))
            state = apply_overrides(state, [ops[-1]])
    return ops, state


def _state_question_candidates(state, geom):
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
        o = objs[0]
        cls = reg[cid]
        if cls.enclosed:
            out.append((o.instance_id, "openness", "open", "open"))
            out.append((o.instance_id, "openness", "closed", "closed"))
        if cls.toggleable:
            out.append((o.instance_id, "power", "on", "turned on"))
            out.append((o.instance_id, "power", "off", "turned off"))
        if cls.can_dirty and cls.pickupable:
            out.append((o.instance_id, "cleanliness", "dirty", "dirty"))
            out.append((o.instance_id, "cleanliness", "clean", "clean"))
        if cls.sliceable:
            out.append((o.instance_id, "sliced", True, "sliced"))
    return out


def compute_answer(task_type, state, obj_cls=None, recep_iid=None,
                   target_iid=None, attr=None, asked=None):
    if task_type == "state":
        return "Yes" if _value(state.obj(target_iid), attr) == asked else "No"
    n = sum(1 for o in state.instances_of(obj_cls)
            if recep_iid in W.ancestors(state, o.instance_id))
    if task_type == "existence":
        return "Yes" if n >= 1 else "No"
    if task_type == "counting":
        return str(min(n, 3))
    raise ValueError(task_type)


def _displayed(state, iid):
    return iid in cached_geometry(state).display_cells


def generate_task(family, task_type, form_index, scene_template, scene_seed,
                  rng, registry=None, config=None, want_answer=None) -> TaskInstance:
    """Instantiate one episode on a freshly randomized scene.

    Raises UnsatisfiableTemplate when the scene cannot host the template
    (missing classes, no capacity, unachievable forced answer, overrides
    that delete the target or the movable receptacle).
    """
    state = initial = randomize_scene(scene_template, scene_seed,
                                      registry=registry, config=config)
    reg = state.registry
    forms = TEMPLATES[family][task_type]
    form = forms[form_index % len(forms)]
    ops = []
    bindings = {}
    goal = None
    answer = None
    target_iid = None

    pickupable = _present_classes(state, lambda c: c.pickupable)
    cleanable = _present_classes(state, lambda c: c.pickupable and c.can_dirty)
    foods = _food_classes(state)
    fixed_receps = _fixture_recep_classes(state)
    words = {}

    def fixture_of(cls_id):
        objs = [o for o in state.instances_of(cls_id) if o.anchor is not None]
        if not objs:
            raise UnsatisfiableTemplate("fixture missing")
        return min(objs, key=lambda o: o.instance_id).instance_id

    if family == "SHIF":
        appliance, attr, start, want, switch = TREATMENTS[task_type]
        obj_cls = _choice(rng, cleanable if task_type == "clean" else foods)
        target = _choice(rng, sorted(state.instances_of(obj_cls),
                                     key=lambda o: o.instance_id))
        target_iid = target.instance_id
        bindings = {"obj": obj_cls}
        appl = fixture_of(reg.id_of(appliance))
        ops.append(("hold", target_iid))
        ops.append(("set", target_iid, attr, start.value))
        if switch is not None:
            ops.append(("set", fixture_of(reg.id_of(switch)), "power", "off"))
        ops.append(("vacate", appl, 1))
        goal = {"kind": "state_held", "cls": obj_cls, "require": {attr: want.value}}

    elif family == "EXIN":
        if task_type in ("pickup", "put", "slice"):
            domain = {"pickup": pickupable, "put": pickupable,
                      "slice": _present_classes(
                          state, lambda c: c.sliceable and c.pickupable)}[task_type]
            if task_type == "slice":
                slicers = [o for o in state.objects if reg[o.class_id].slicer]
                if not slicers:
                    raise UnsatisfiableTemplate("no slicer in scene")
            obj_cls = _choice(rng, domain)
            bindings = {"obj": obj_cls}
            if task_type == "pickup":
                goal = {"kind": "state_held", "cls": obj_cls}
            elif task_type == "put":
                target = _choice(rng, sorted(state.instances_of(obj_cls),
                                             key=lambda o: o.instance_id))
                ops.append(("hold", target.instance_id))
                target_iid = target.instance_id
                goal = {"kind": "any_container", "obj": obj_cls}
            else:
                slicers = sorted((o for o in state.objects if reg[o.class_id].slicer
                                  and o.class_id != obj_cls),
                                 key=lambda o: o.instance_id)
                if not slicers:
                    raise UnsatisfiableTemplate("no slicer distinct from target")
                ops.append(("hold", slicers[0].instance_id))
                for o in state.instances_of(obj_cls):
                    ops.append(("set", o.instance_id, "sliced", False))
                goal = {"kind": "class_state", "cls": obj_cls,
                        "attr": "sliced", "value": True}
        else:
            attr, start, want = state_change(STATE_CHANGES[task_type])
            domain = _present_classes(
                state, lambda c: (c.toggleable if attr == "power" else c.enclosed))
            obj_cls = _choice(rng, domain)
            bindings = {"obj": obj_cls}
            for o in state.instances_of(obj_cls):
                ops.append(("set", o.instance_id, attr, start.value))
            goal = {"kind": "class_state", "cls": obj_cls, "attr": attr,
                    "value": want.value}

    elif family == "LHIF":
        recep_cls = _choice(rng, fixed_receps)
        recep_inst = fixture_of(recep_cls)
        bindings = {"recep": recep_cls}
        kind = task_type.removesuffix("_place")
        if task_type == "pick_place":
            obj_cls = _choice(rng, [c for c in pickupable if c != recep_cls])
            mops, state = _move_out_ops(state, obj_cls, recep_cls)
            ops += mops
            ops.append(("vacate", recep_inst, 1))
            bindings["obj"] = obj_cls
            goal = {"kind": "contained", "obj": obj_cls, "recep": recep_cls,
                    "min_count": 1}
        elif kind in TREATMENTS:
            appliance_cls, attr, start, want, switch = TREATMENTS[kind]
            domain = cleanable if kind == "clean" else foods
            obj_cls = _choice(rng, [c for c in domain if c != recep_cls])
            appliance = fixture_of(reg.id_of(appliance_cls))
            mops, state = _move_out_ops(state, obj_cls, recep_cls,
                                        protect=(appliance,))
            ops += mops
            target = sorted(state.instances_of(obj_cls),
                            key=lambda o: o.instance_id)[0]
            target_iid = target.instance_id
            bindings["obj"] = obj_cls
            for o in state.instances_of(obj_cls):
                ops.append(("set", o.instance_id, attr, start.value))
            # the goal receptacle and the treatment appliance must both stay
            # free, so each vacate protects the other
            ops.append(("vacate", recep_inst, 1, [appliance]))
            if switch is not None:
                ops.append(("set", fixture_of(reg.id_of(switch)), "power", "off"))
            ops.append(("vacate", appliance, 1, [recep_inst]))
            goal = {"kind": "contained", "obj": obj_cls, "recep": recep_cls,
                    "min_count": 1, "require": {attr: want.value}}
        elif task_type == "pick_two":
            if W.capacity(state.obj(recep_inst)) < 2:
                raise UnsatisfiableTemplate("receptacle too small for two")
            obj_cls = _choice(rng, [c for c in pickupable if c != recep_cls
                                    and not reg[c].receptacle])
            mops, state = _move_out_ops(state, obj_cls, recep_cls)
            ops += mops
            have = len(state.instances_of(obj_cls))
            for _ in range(2 - have):
                dest = _free_receptacle(state, exclude_classes=(recep_cls,))
                if dest is None:
                    raise UnsatisfiableTemplate("no slot for second instance")
                ops.append(("spawn", reg[obj_cls].name, dest))
                state = apply_overrides(state, [ops[-1]])
            ops.append(("vacate", recep_inst, 2))
            bindings["obj"] = obj_cls
            goal = {"kind": "contained", "obj": obj_cls, "recep": recep_cls,
                    "min_count": 2}
        elif task_type == "examine":
            obj_cls = _choice(rng, [c for c in pickupable])
            toggle_cls = _choice(rng, _lamp_classes(state))
            bindings = {"obj": obj_cls, "toggle": toggle_cls}
            for o in state.instances_of(toggle_cls):
                ops.append(("set", o.instance_id, "power", "off"))
            goal = {"kind": "held_and_on", "obj": obj_cls, "toggle": toggle_cls}
        elif task_type == "stack_place":
            mrecep_domain = _present_classes(
                state, lambda c: c.pickupable and c.receptacle)
            mrecep_cls = _choice(rng, mrecep_domain)
            obj_cls = _choice(rng, [c for c in pickupable
                                    if c != mrecep_cls and not reg[c].receptacle])
            mrecep = sorted(state.instances_of(mrecep_cls),
                            key=lambda o: o.instance_id)[0]
            target = sorted(state.instances_of(obj_cls),
                            key=lambda o: o.instance_id)[0]
            target_iid = target.instance_id
            bindings = {"obj": obj_cls, "recep": recep_cls,
                        "mrecep": mrecep_cls, "mrecep_iid": mrecep.instance_id}
            ops.append(("vacate", mrecep.instance_id, 1, [recep_inst]))
            ops.append(("vacate", recep_inst, 1, [mrecep.instance_id]))
            if target.container == mrecep.instance_id:
                dest = _free_receptacle(state, exclude_iids=(mrecep.instance_id,))
                ops.append(("move", target_iid, dest))
            goal = {"kind": "chain", "obj": obj_cls, "mrecep": mrecep_cls,
                    "recep": recep_cls}
        else:
            raise ValueError(task_type)

    elif family == "IQA":
        if task_type == "state":
            geom = cached_geometry(state)
            cands = _state_question_candidates(state, geom)
            if not cands:
                raise UnsatisfiableTemplate("no state-question candidate")
            iid, attr, asked, word = _choice(rng, cands)
            want = want_answer or _choice(rng, ["Yes", "No"])
            if want not in ("Yes", "No"):
                raise UnsatisfiableTemplate("state answers are yes/no")
            if attr == "sliced":
                ops.append(("set", iid, "sliced", asked if want == "Yes" else False))
            else:
                complement = {"open": "closed", "closed": "open", "on": "off",
                              "off": "on", "dirty": "clean", "clean": "dirty"}
                value = asked if want == "Yes" else complement[asked]
                ops.append(("set", iid, attr, value))
            if not _displayed(apply_overrides(state, ops[-1:]), iid):
                dest = _free_receptacle(state)
                if dest is None:
                    raise UnsatisfiableTemplate("cannot surface question target")
                ops.append(("move", iid, dest))
            state2 = apply_overrides(state, ops)
            target_iid = iid
            bindings = {"obj": state.obj(iid).class_id, "attr": attr,
                        "asked": asked}
            words["state"] = word
            answer = compute_answer("state", state2, target_iid=iid,
                                    attr=attr, asked=asked)
            if want_answer and answer != want_answer:
                raise UnsatisfiableTemplate("forced answer unreachable")
        else:
            obj_cls = _choice(rng, [c for c in pickupable
                                    if not reg[c].receptacle])
            if task_type == "counting":
                doms = [c for c in fixed_receps
                        if W.capacity(state.obj(fixture_of(c))) >= 3]
            else:
                doms = fixed_receps
            recep_cls = _choice(rng, doms)
            recep_inst = fixture_of(recep_cls)
            mops, state = _move_out_ops(state, obj_cls, recep_cls)
            ops += mops
            if task_type == "existence":
                want = want_answer or _choice(rng, ["Yes", "No"])
                k = 1 if want == "Yes" else 0
            else:
                want = want_answer if want_answer is not None \
                    else str(int(rng.integers(0, 4)))
                k = int(want)
            if k > 0:
                ops.append(("vacate", recep_inst, k))
                state = apply_overrides(state, ops[-1:])
                for _ in range(k):
                    ops.append(("spawn", reg[obj_cls].name, recep_inst))
                    state = apply_overrides(state, ops[-1:])
            target_iid = recep_inst
            bindings = {"obj": obj_cls, "recep": recep_cls}
            answer = compute_answer(task_type, state, obj_cls=obj_cls,
                                    recep_iid=recep_inst)
            if answer != want:
                raise UnsatisfiableTemplate("forced answer unreachable")
        goal = {"kind": "answer", "expected": answer}

    else:
        raise ValueError(family)

    # a vacate that finds no free receptacle deletes what it moves out
    final = apply_overrides(initial, ops)
    for iid in (target_iid, bindings.get("mrecep_iid")):
        if iid is not None and not final.has(iid):
            raise UnsatisfiableTemplate("overrides remove a bound instance")

    def name_of(cls_id):
        return reg[cls_id].name.lower()

    slot_words = dict(words)
    for slot in ("obj", "recep", "mrecep", "toggle"):
        if slot in bindings and isinstance(bindings[slot], int):
            slot_words[slot] = name_of(bindings[slot])
    instruction = form.format(**slot_words)

    return TaskInstance(
        family=family, task_type=task_type, instruction=instruction,
        bindings=bindings, goal=goal,
        scene_template_id=scene_template["template_id"],
        scene_seed=int(scene_seed), overrides=[list(op) for op in ops],
        answer=answer, target_iid=target_iid,
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


def _iqa_cells():
    """Balanced (task_type, form_index, answer) cycle; state questions get
    twice the weight of existence and counting."""
    cells = []
    for form in range(len(TEMPLATES["IQA"]["state"])):
        for ans in ("Yes", "No"):
            cells.append(("state", form, ans))
            cells.append(("state", form, ans))
    for form in range(len(TEMPLATES["IQA"]["existence"])):
        for ans in ("Yes", "No"):
            cells.append(("existence", form, ans))
    for form in range(len(TEMPLATES["IQA"]["counting"])):
        for ans in ("0", "1", "2", "3"):
            cells.append(("counting", form, ans))
    return cells


def _family_cycle(family):
    if family == "IQA":
        return _iqa_cells()
    out = []
    for task_type, forms in TEMPLATES[family].items():
        for form in range(len(forms)):
            out.append((task_type, form, None))
    return out


def verify_episode(task: TaskInstance, templates_by_id, registry=None, config=None):
    """Run the expert in HARD mode; returns (success, trajectory)."""
    from .episodes import run_expert_episode

    template = templates_by_id[task.scene_template_id]
    state = task_initial_state(task, template, registry=registry, config=config)
    traj = run_expert_episode(state, remaining_fn(task), W.InteractionMode.HARD,
                              max_steps=task.max_steps,
                              expected_answer=task.answer)
    return task_success(task, traj), traj


# scene draws per episode before build_splits gives up on a task type
GENERATE_ATTEMPTS = 12


def build_splits(scene_templates, counts, seed=0, registry=None, config=None, *,
                 n_unseen) -> list[DatasetSplit]:
    """Deterministic dataset construction.

    Unseen splits draw only from the reserved templates; seen splits reuse
    the train templates with fresh seeds.  Every episode is verified at
    generation time: the expert's replay must succeed, and its sub-goal
    trace is stored as the episode's expert decomposition.  An episode
    slot that fails `GENERATE_ATTEMPTS` scene draws raises RuntimeError.
    """
    if n_unseen < 1 or n_unseen >= len(scene_templates):
        raise InsufficientScenes("need at least one reserved unseen template")
    train_templates = scene_templates[:-n_unseen]
    unseen_templates = scene_templates[-n_unseen:]
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
                            planner.InfeasibleSubgoal, planner.Irrecoverable):
                        continue
                    if not good:
                        continue
                    from .episodes import expert_subgoal_trace
                    task.expert_decomposition = [
                        [s, (None if o is None else int(o))]
                        for s, o in expert_subgoal_trace(traj)]
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
    import os

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


def load_split(path, name=None) -> DatasetSplit:
    episodes = []
    with open(path) as f:
        for line in f:
            episodes.append(TaskInstance.from_json(json.loads(line)))
    return DatasetSplit(name=name or "split", episodes=episodes,
                        scene_template_ids=[])
