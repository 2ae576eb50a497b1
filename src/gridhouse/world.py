"""Deterministic symbolic household simulator.

World cells are unit squares addressed (x, y) with y growing southward.
The agent observes an egocentric cell grid (default 32x32): a 16x16-cell
world window rendered at 2x2 observation cells per world cell, facing-up,
with occlusion ray casting.  Interaction points are continuous
observation coordinates resolved against the rendered instance map.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum, IntEnum
from functools import cache, cached_property

import numpy as np

from .classes import ClassRegistry, desk_registry

# observation class-map codes below object classes
SENTINEL = 0
FLOOR = 1
WALL = 2
CLASS_BASE = 3  # class k renders as CLASS_BASE + k
NO_INSTANCE = -1


class Heading(IntEnum):
    NORTH = 0
    EAST = 1
    SOUTH = 2
    WEST = 3


HEADING_VEC = {
    Heading.NORTH: (0, -1),
    Heading.EAST: (1, 0),
    Heading.SOUTH: (0, 1),
    Heading.WEST: (-1, 0),
}


class PrimitiveAction(IntEnum):
    MoveAhead = 0
    RotateLeft = 1
    RotateRight = 2
    LookUp = 3
    LookDown = 4
    Open = 5
    Close = 6
    Pickup = 7
    Put = 8
    ToggleOn = 9
    ToggleOff = 10
    Slice = 11
    Done = 12


NAV_ACTION_SPACE = (PrimitiveAction.MoveAhead, PrimitiveAction.RotateLeft,
                    PrimitiveAction.RotateRight, PrimitiveAction.LookUp,
                    PrimitiveAction.LookDown, PrimitiveAction.Done)
INTERACTIVE_ACTIONS = frozenset({
    PrimitiveAction.Open, PrimitiveAction.Close, PrimitiveAction.Pickup,
    PrimitiveAction.Put, PrimitiveAction.ToggleOn, PrimitiveAction.ToggleOff,
    PrimitiveAction.Slice,
})


class InteractionMode(Enum):
    STANDARD = "standard"
    HARD = "hard"


class Openness(Enum):
    OPEN = "open"
    CLOSED = "closed"
    NOT_OPENABLE = "n/a"


class Power(Enum):
    ON = "on"
    OFF = "off"
    NOT_TOGGLEABLE = "n/a"


# what each state-change action needs and leaves on its target:
# (attribute, value needed, value left)
STATE_CHANGE = {
    PrimitiveAction.ToggleOn: ("power", Power.OFF, Power.ON),
    PrimitiveAction.ToggleOff: ("power", Power.ON, Power.OFF),
    PrimitiveAction.Open: ("openness", Openness.CLOSED, Openness.OPEN),
    PrimitiveAction.Close: ("openness", Openness.OPEN, Openness.CLOSED),
}


class Cleanliness(Enum):
    CLEAN = "clean"
    DIRTY = "dirty"
    NA = "n/a"


class Temperature(Enum):
    HOT = "hot"
    COLD = "cold"
    ROOM = "room"


class FailureReason(Enum):
    BLOCKED = "Blocked"
    NO_TARGET_HIT = "NoTargetHit"
    OUT_OF_RANGE = "OutOfRange"
    PRECONDITION_UNMET = "PreconditionUnmet"
    HANDS_FULL = "HandsFull"
    HANDS_EMPTY = "HandsEmpty"


class InvalidAction(Exception):
    """Interactive action issued without an interaction point."""


class UnknownInstance(KeyError):
    pass


class PlacementInfeasible(RuntimeError):
    pass


@dataclass(frozen=True)
class WorldConfig:
    obs_size: int = 32
    upsample: int = 2           # observation cells per world cell
    view_depth: int = 8         # frustum depth at pitch 0
    pitch_shift: int = 3        # band shift per pitch unit
    interaction_range: float = 2.0
    standard_box: int = 3       # Standard-mode box width, observation cells

    @property
    def window(self):
        return self.obs_size // self.upsample  # world cells per side


@dataclass(frozen=True)
class ObjectInstance:
    instance_id: int
    class_id: int
    anchor: tuple[int, int] | None   # top-level footprint anchor, or None
    container: int | None            # containing instance id, or None
    size: int = 1
    is_receptacle: bool = False
    openness: Openness = Openness.NOT_OPENABLE
    power: Power = Power.NOT_TOGGLEABLE
    cleanliness: Cleanliness = Cleanliness.NA
    sliced: bool = False
    temperature: Temperature = Temperature.ROOM


@dataclass(frozen=True)
class AgentPose:
    cell: tuple[int, int]
    heading: Heading = Heading.NORTH
    pitch: int = 0
    held: int | None = None


@dataclass(frozen=True)
class ActionResult:
    success: bool
    reason: FailureReason | None = None
    target: int | None = None


@dataclass
class WorldState:
    """A world state.  States are never mutated: `dataclasses.replace`
    always yields a fresh object without memos, so a memo cannot go stale.

    The scene-derived data below is memoized on the instance when first
    read: `by_id`, `geometry` and `effects` depend only on `walls` and
    `objects`, and `observation` also on the agent pose, so a step hands
    each to a successor for which it still holds (`_carry`).  Memos are
    shared between states and are read-only too."""
    width: int
    height: int
    walls: np.ndarray                 # bool (height, width); treated immutable
    objects: tuple[ObjectInstance, ...]
    agent: AgentPose
    registry: ClassRegistry = field(default_factory=desk_registry)
    config: WorldConfig = field(default_factory=WorldConfig)

    # the bodies look `build_geometry`, `render` and `_propagation_effects`
    # up in the module per build, so a rebinding of the module name (a
    # tracer, a test counter) sees every build
    @cached_property
    def geometry(self) -> "SceneGeometry":
        return build_geometry(self)

    @cached_property
    def observation(self) -> "Observation":
        return render(self)

    @cached_property
    def effects(self) -> dict:
        return _propagation_effects(self)

    @cached_property
    def by_id(self) -> dict:
        """{instance_id: object}"""
        return {o.instance_id: o for o in self.objects}

    def obj(self, instance_id) -> ObjectInstance:
        try:
            return self.by_id[instance_id]
        except KeyError:
            raise UnknownInstance(instance_id) from None

    def has(self, instance_id) -> bool:
        return instance_id in self.by_id

    def cls(self, obj_or_id):
        cid = obj_or_id.class_id if isinstance(obj_or_id, ObjectInstance) else obj_or_id
        return self.registry[cid]

    def instances_of(self, class_id):
        return [o for o in self.objects if o.class_id == class_id]

    def contents_of(self, instance_id):
        return [o for o in self.objects if o.container == instance_id]

    def held_object(self) -> ObjectInstance | None:
        return self.obj(self.agent.held) if self.agent.held is not None else None

    def with_object(self, new_obj: ObjectInstance) -> "WorldState":
        objs = tuple(new_obj if o.instance_id == new_obj.instance_id else o
                     for o in self.objects)
        return replace(self, objects=objs)


def capacity(obj: ObjectInstance) -> int:
    return max(1, obj.size - 1)


def has_room(state: WorldState, obj: ObjectInstance) -> bool:
    """A receptacle a held object can be put into now: no closed door in
    the way and a free slot."""
    return (obj.is_receptacle
            and not (state.cls(obj).enclosed and obj.openness is not Openness.OPEN)
            and len(state.contents_of(obj.instance_id)) < capacity(obj))


def free_fixtures(state: WorldState) -> list[ObjectInstance]:
    """Anchored receptacles with room: where a free object can go."""
    return [o for o in state.objects if o.anchor is not None and has_room(state, o)]


def hold(state: WorldState, instance_id) -> WorldState:
    """The state with the instance lifted off its support into the hand."""
    new = state.with_object(replace(state.obj(instance_id), anchor=None, container=None))
    return replace(new, agent=replace(new.agent, held=instance_id))


def with_agent(state: WorldState, **pose) -> WorldState:
    """The state with only fields of its `AgentPose` changed; it keeps the
    scene memos, as a step's successor does (see `_carry`)."""
    out = replace(state, agent=replace(state.agent, **pose))
    _carry(state, out)
    return out


def footprint_cells(anchor, size):
    x, y = anchor
    w = math.ceil(math.sqrt(size))
    return [(x + i % w, y + i // w) for i in range(size)]


def state_hash(state: WorldState) -> str:
    """SHA-256 of `repr([width, height, cell, heading, pitch, held, *objs])`,
    one tuple of fields per object in instance-id order."""
    a = state.agent
    head = repr([state.width, state.height, a.cell, int(a.heading), a.pitch, a.held])
    objs = "".join(", " + repr((o.instance_id, o.class_id, o.anchor, o.container,
                                o.size, o.openness.value, o.power.value,
                                o.cleanliness.value, o.sliced, o.temperature.value))
                   for o in sorted(state.objects, key=lambda o: o.instance_id))
    return hashlib.sha256((head[:-1] + objs + "]").encode()).hexdigest()


# --------------------------------------------------------------------------
# geometry


@dataclass
class SceneGeometry:
    class_grid: np.ndarray    # int16 (h, w): SENTINEL/FLOOR/WALL/CLASS_BASE+k
    inst_grid: np.ndarray     # int32 (h, w): display instance per cell or -1
    state_grid: np.ndarray    # uint8 (4, h, w): open, on, dirty, sliced bits
    opaque: np.ndarray        # bool (h, w)
    blocked: np.ndarray       # bool (h, w): non-traversable for the agent
    display_cells: dict       # iid -> list[(x, y)]


def build_geometry(state: WorldState) -> SceneGeometry:
    h, w = state.height, state.width
    class_grid = np.full((h, w), FLOOR, dtype=np.int16)
    class_grid[state.walls] = WALL
    inst_grid = np.full((h, w), NO_INSTANCE, dtype=np.int32)
    state_grid = np.zeros((4, h, w), dtype=np.uint8)
    opaque = state.walls.copy()
    blocked = state.walls.copy()
    display: dict[int, list] = {}
    defs = state.registry.defs

    # gather one row per displayed cell, then scatter layer by layer
    rows_x, rows_y, rows_cls, rows_iid = [], [], [], []
    rows_bits, rows_opq = [], []
    children: dict[int, list] = {}
    for o in state.objects:
        if o.container is not None:
            children.setdefault(o.container, []).append(o)

    def paint(obj, cells):
        display.setdefault(obj.instance_id, []).extend(cells)
        cls = defs[obj.class_id]
        opq = cls.occludes and obj.openness is not Openness.OPEN
        bits = (obj.openness is Openness.OPEN, obj.power is Power.ON,
                obj.cleanliness is Cleanliness.DIRTY, obj.sliced)
        for (cx, cy) in cells:
            rows_x.append(cx)
            rows_y.append(cy)
            rows_cls.append(CLASS_BASE + obj.class_id)
            rows_iid.append(obj.instance_id)
            rows_bits.append(bits)
            rows_opq.append(opq)

    for obj in state.objects:
        if obj.anchor is None:
            continue  # contained or held; rendered via its container chain
        cells = footprint_cells(obj.anchor, obj.size)
        blocked[[c[1] for c in cells], [c[0] for c in cells]] = True
        cls = defs[obj.class_id]
        if cls.enclosed and obj.openness is Openness.CLOSED:
            paint(obj, cells)
            continue
        # open/surface receptacle: anchor cell stays the receptacle,
        # contents take the remaining footprint cells in slot order
        contents = sorted(children.get(obj.instance_id, ()),
                          key=lambda o: o.instance_id)
        slots = cells[1:]
        used = set()
        for k, item in enumerate(contents):
            if k < len(slots):
                paint(item, [slots[k]])
                used.add(slots[k])
        paint(obj, [cells[0]] + [c for c in slots if c not in used])

    if rows_x:
        xs = np.array(rows_x)
        ys = np.array(rows_y)
        class_grid[ys, xs] = rows_cls
        inst_grid[ys, xs] = rows_iid
        state_grid[:, ys, xs] = np.array(rows_bits, dtype=np.uint8).T
        opaque[ys, xs] |= np.array(rows_opq, dtype=bool)
    return SceneGeometry(class_grid, inst_grid, state_grid, opaque, blocked, display)


@cache
def _ray_offsets(dx, dy):
    """Integer cell offsets strictly between (0,0) and (dx,dy) along the
    center-to-center segment, sampled densely.  This sampling IS the
    visibility rule."""
    n = 2 * max(abs(dx), abs(dy), 1)
    pts = []
    for i in range(1, n):
        t = i / n
        ox = math.floor(0.5 + t * dx)
        oy = math.floor(0.5 + t * dy)
        if (ox, oy) not in ((0, 0), (dx, dy)) and (ox, oy) not in pts:
            pts.append((ox, oy))
    return np.array(pts, dtype=np.int32).reshape(-1, 2)


def line_of_sight(opaque, from_cell, to_cell):
    # a ray samples a few cells, so scalar reads beat one fancy-index gather
    x, y = from_cell
    for ox, oy in _ray_offsets(to_cell[0] - x, to_cell[1] - y).tolist():
        if opaque[y + oy, x + ox]:
            return False
    return True


def right_vec(heading: Heading):
    fx, fy = HEADING_VEC[heading]
    return (-fy, fx)


def depth_band(cfg: WorldConfig, pitch: int):
    lo = max(0, 1 + cfg.pitch_shift * pitch)
    hi = cfg.view_depth + cfg.pitch_shift * pitch
    return lo, hi


def _in_wedge(cfg: WorldConfig, pitch: int, r: int, l: int) -> bool:
    """Whether the offset r cells ahead and l cells to the right lies in
    the view wedge at this pitch (before occlusion): inside the depth band
    and the window, and no wider than it is deep."""
    lo, hi = depth_band(cfg, pitch)
    half = cfg.window // 2
    return lo <= r <= min(hi, cfg.window - 1) and abs(l) <= r and -half <= l < half


@cache
def frustum_offsets(cfg: WorldConfig, pitch: int):
    """(r, l) pairs in the view wedge for this pitch, r ascending, then l."""
    half = cfg.window // 2
    return [(r, l) for r in range(cfg.window) for l in range(-half, half)
            if _in_wedge(cfg, pitch, r, l)]


def cell_in_frustum(cfg: WorldConfig, pose: AgentPose, cell):
    fx, fy = HEADING_VEC[pose.heading]
    rx, ry = right_vec(pose.heading)
    dx, dy = cell[0] - pose.cell[0], cell[1] - pose.cell[1]
    return _in_wedge(cfg, pose.pitch, dx * fx + dy * fy, dx * rx + dy * ry)


def cell_visible_from(state: WorldState, pose: AgentPose, cell):
    """Whether `cell` is in view from `pose` in the state's scene."""
    return (cell_in_frustum(state.config, pose, cell)
            and line_of_sight(state.geometry.opaque, pose.cell, cell))


# --------------------------------------------------------------------------
# observation


@dataclass
class Observation:
    width: int
    height: int
    class_map: np.ndarray     # int16 (H, W)
    instance_map: np.ndarray  # int32 (H, W), NO_INSTANCE where none
    depth_map: np.ndarray     # float32 (H, W), -1 where not visible
    state_bits: np.ndarray    # uint8 (4, H, W)
    # every map is constant on the aligned block x block squares
    block: int = 1

    @cached_property
    def key(self) -> bytes:
        """The bytes of every map: observations with equal keys are equal."""
        return b"".join(m.tobytes() for m in (self.class_map, self.instance_map,
                                              self.depth_map, self.state_bits))

    def visible_instance_cells(self):
        """iid -> list of (col, row) observation cells."""
        out: dict[int, list] = {}
        rows, cols = np.nonzero(self.instance_map != NO_INSTANCE)
        iids = self.instance_map[rows, cols].tolist()
        for iid, row, col in zip(iids, rows.tolist(), cols.tolist()):
            out.setdefault(iid, []).append((col, row))
        return out


class _RenderTable:
    """Precomputed frustum geometry for one (config, pitch, heading): cell
    offsets and ray samples in world frame, plus the observation pixels
    each frustum cell paints.  Ray samples are computed directly in world
    frame: flooring does not commute with rotation at exact cell-boundary
    hits, so rotating canonical samples would change visibility."""

    def __init__(self, cfg: WorldConfig, pitch: int, heading: Heading):
        n, up, half = cfg.obs_size, cfg.upsample, cfg.window // 2
        cells = frustum_offsets(cfg, pitch)
        fx, fy = HEADING_VEC[heading]
        rx, ry = right_vec(heading)
        rel = np.array([(r * fx + l * rx, r * fy + l * ry) for (r, l) in cells],
                       dtype=np.int64).reshape(-1, 2)
        self.rel = rel
        self.dist = np.hypot(rel[:, 0], rel[:, 1]).astype(np.float32)
        samples, counts = [], []
        for (dx, dy) in rel:
            if (dx, dy) == (0, 0):
                offs = np.empty((0, 2), dtype=np.int32)
            else:
                offs = _ray_offsets(int(dx), int(dy))
            samples.append(offs)
            counts.append(len(offs))
        self.ray = (np.concatenate(samples, axis=0) if samples
                    else np.empty((0, 2), dtype=np.int32)).astype(np.int64)
        self.counts = np.array(counts, dtype=np.int64)
        self.splits = np.concatenate([[0], np.cumsum(self.counts)])
        pix = []
        for (r, l) in cells:
            v0 = n - up - up * r
            u0 = up * (l + half)
            pix.append([(v0 + dv) * n + (u0 + du)
                        for dv in range(up) for du in range(up)])
        self.pix = np.array(pix, dtype=np.int64).reshape(len(cells), up * up)


_render_table = cache(_RenderTable)


def render(state: WorldState) -> Observation:
    """Egocentric projection of the agent's view wedge (pure in state)."""
    cfg = state.config
    geom = state.geometry
    n = cfg.obs_size
    table = _render_table(cfg, state.agent.pitch, state.agent.heading)
    ax, ay = state.agent.cell

    wx = table.rel[:, 0] + ax
    wy = table.rel[:, 1] + ay
    ok = (wx >= 0) & (wx < state.width) & (wy >= 0) & (wy < state.height)

    if table.ray.shape[0]:
        sx = np.clip(table.ray[:, 0] + ax, 0, state.width - 1)
        sy = np.clip(table.ray[:, 1] + ay, 0, state.height - 1)
        hit = geom.opaque[sy, sx].astype(np.int64)
        blocked_counts = np.add.reduceat(
            np.concatenate([hit, [0]]), table.splits[:-1])
        blocked_counts[table.counts == 0] = 0
        ok &= blocked_counts == 0

    idx = np.nonzero(ok)[0]
    vx, vy = wx[idx], wy[idx]
    class_map = np.full((n * n,), SENTINEL, dtype=np.int16)
    inst_map = np.full((n * n,), NO_INSTANCE, dtype=np.int32)
    depth = np.full((n * n,), -1.0, dtype=np.float32)
    bits = np.zeros((4, n * n), dtype=np.uint8)
    pix = table.pix[idx]
    repeat = pix.shape[1]
    flat = pix.reshape(-1)
    class_map[flat] = np.repeat(geom.class_grid[vy, vx], repeat)
    inst_map[flat] = np.repeat(geom.inst_grid[vy, vx], repeat)
    depth[flat] = np.repeat(table.dist[idx], repeat)
    for b in range(4):
        bits[b, flat] = np.repeat(geom.state_grid[b, vy, vx], repeat)
    # a cell paints up x up pixels from row n - up * (r + 1) and column
    # up * (l + half): squares of gcd(n, up) pixels aligned at 0
    return Observation(n, n, class_map.reshape(n, n), inst_map.reshape(n, n),
                       depth.reshape(n, n), bits.reshape(4, n, n), math.gcd(n, cfg.upsample))


def instance_distance(state: WorldState, instance_id) -> float:
    """Distance from the agent to the object's physical extent: footprint
    for anchored objects (regardless of what its cells currently display),
    the slot cell for contained ones, and the nearest anchored ancestor's
    footprint for objects hidden inside closed containers."""
    obj = state.obj(instance_id)
    outer = ancestors(state, instance_id)
    while obj.anchor is None:
        cells = state.geometry.display_cells.get(obj.instance_id)
        if cells:
            break
        holder = next(outer, None)
        if holder is None:
            return math.inf  # held (or orphaned): no spatial location
        obj = state.obj(holder)
    else:
        cells = footprint_cells(obj.anchor, obj.size)
    ax, ay = state.agent.cell
    return min(math.hypot(cx - ax, cy - ay) for cx, cy in cells)


def ancestors(state: WorldState, instance_id):
    """Ids of the containers holding the instance, innermost first.  The
    walk stops at the first id it has already yielded, so a containment
    cycle cannot loop."""
    seen = set()
    cur = state.obj(instance_id).container
    while cur is not None and cur not in seen:
        yield cur
        seen.add(cur)
        cur = state.obj(cur).container


def is_visible(state: WorldState, instance_id) -> bool:
    if not state.has(instance_id):
        raise UnknownInstance(instance_id)
    cells = state.geometry.display_cells.get(instance_id, [])
    return any(cell_visible_from(state, state.agent, c) for c in cells)


# --------------------------------------------------------------------------
# target resolution


def _point_cell(obs: Observation, x, y):
    col = min(max(int(x), 0), obs.width - 1)
    row = min(max(int(y), 0), obs.height - 1)
    return col, row


def _hit_ignoring_range(obs, point):
    col, row = _point_cell(obs, point[0], point[1])
    iid = int(obs.instance_map[row, col])
    return None if iid == NO_INSTANCE else iid


def resolve_target(state: WorldState, point, mode: InteractionMode):
    """Instance the point on the state's observation selects, or None.

    Hard: exact observation-cell hit, within interaction range.
    Standard: k x k box vote among visible in-range instances; ties broken
    by nearer instance, then lower instance id.
    """
    cfg = state.config
    obs = state.observation
    if mode is InteractionMode.HARD:
        iid = _hit_ignoring_range(obs, point)
        if iid is None:
            return None
        if instance_distance(state, iid) <= cfg.interaction_range:
            return iid
        return None
    col, row = _point_cell(obs, point[0], point[1])
    k = cfg.standard_box // 2
    box = obs.instance_map[max(0, row - k):row + k + 1, max(0, col - k):col + k + 1]
    box_area = box.size
    ids, counts = np.unique(box[box != NO_INSTANCE], return_counts=True)
    visible_sizes = {iid: len(cells) for iid, cells in obs.visible_instance_cells().items()}
    best = None
    for iid, cnt in zip(ids.tolist(), counts.tolist()):
        dist = instance_distance(state, iid)
        if dist > cfg.interaction_range:
            continue
        # overlap scored as IoU between the box and the instance's visible
        # cells, so compact objects beat sprawling receptacles behind them
        iou = cnt / (box_area + visible_sizes[iid] - cnt)
        key = (-iou, dist, iid)
        if best is None or key < best[0]:
            best = (key, iid)
    return best[1] if best else None


# --------------------------------------------------------------------------
# dynamics


def _propagation_effects(state: WorldState) -> dict:
    """{instance_id: {attr: value}} for heat/cool/clean conditions holding
    in this state configuration: an item inside a running heater becomes
    hot, inside a closed cooler cold (the innermost such container
    decides), and a dirty item inside a basin beside a running faucet
    clean."""
    temperature, taps, basins = {}, [], []
    for o in state.objects:
        cls = state.cls(o)
        if cls.heats and o.power is Power.ON:
            temperature[o.instance_id] = Temperature.HOT
        if cls.cools and o.openness is Openness.CLOSED:
            temperature[o.instance_id] = Temperature.COLD
        if cls.water_source and o.power is Power.ON and o.anchor is not None:
            taps.append(o.anchor)
        if cls.sink_basin and o.anchor is not None:
            basins.append(o)
    washing = {b.instance_id for b in basins
               if any(math.hypot(cx - fx, cy - fy) <= 1.5 for fx, fy in taps
                      for cx, cy in footprint_cells(b.anchor, b.size))}
    effects: dict[int, dict] = {}
    for obj in state.objects:
        if obj.container is None:
            continue
        marks = {}
        for holder in ancestors(state, obj.instance_id):
            if holder in temperature:
                marks.setdefault("temperature", temperature[holder])
            if holder in washing and obj.cleanliness is Cleanliness.DIRTY:
                marks["cleanliness"] = Cleanliness.CLEAN
        if marks:
            effects[obj.instance_id] = marks
    return effects


def _apply_effects(state: WorldState, effects: dict) -> WorldState:
    changed = False
    new_objs = list(state.objects)
    for i, o in enumerate(new_objs):
        wanted = effects.get(o.instance_id)
        if not wanted:
            continue
        updates = {a: v for a, v in wanted.items() if getattr(o, a) is not v}
        if updates:
            new_objs[i] = replace(o, **updates)
            changed = True
    return replace(state, objects=tuple(new_objs)) if changed else state


# memos that depend only on walls and objects (and on width, height,
# registry and config, which no step changes)
_SCENE_MEMOS = ("by_id", "geometry", "effects", "_settled")


def _carry(before: WorldState, after: WorldState):
    """Hand `after` what `before` already derived from its scene when both
    hold the very same walls and objects: the instance index, geometry,
    effects and the settled mark, plus the observation when the pose is
    unchanged too."""
    if after.walls is not before.walls or after.objects is not before.objects:
        return
    src, dst = before.__dict__, after.__dict__
    for key in _SCENE_MEMOS:
        if key in src:
            dst[key] = src[key]
    if "observation" in src and after.agent == before.agent:
        dst["observation"] = src["observation"]


def _ok(before: WorldState, after: WorldState, target=None):
    """Successful step: apply heat/cool/clean effects from conditions that
    held when the step began and when it ended.  `_apply_effects` returns
    its input when nothing changes, so carrying the memos to `after` first
    covers every unchanged scene.

    Every output is settled, a fixpoint of its own effects: effects set
    temperatures and clean dirty items, and `_propagation_effects` reads
    neither, except that a cleaned item drops its own clean mark.  So a
    successor that inherits the settled mark with the scene (a pose-only
    step from an output of this function) skips both passes, and a Done
    step from a settled state returns that state itself."""
    _carry(before, after)
    if "_settled" not in after.__dict__:
        after = _apply_effects(after, before.effects)
        after = _apply_effects(after, after.effects)
        after.__dict__["_settled"] = True
    return after, ActionResult(True, None, target)


# navigation action -> (cells ahead, quarter turns clockwise, pitch change)
_NAV_MOTION = {
    PrimitiveAction.MoveAhead: (1, 0, 0),
    PrimitiveAction.RotateLeft: (0, -1, 0),
    PrimitiveAction.RotateRight: (0, 1, 0),
    PrimitiveAction.LookUp: (0, 0, 1),
    PrimitiveAction.LookDown: (0, 0, -1),
}
_HEADINGS = tuple(Heading)


def nav_pose(state: WorldState, pose, action: PrimitiveAction):
    """The `(cell, heading, pitch)` a navigation action leads to from
    `pose`, or None when the move is blocked: by the map edge or a
    non-traversable cell ahead of the state's geometry, or by the pitch
    limits of +-1."""
    cell, heading, pitch = pose
    ahead, turn, tilt = _NAV_MOTION[action]
    if ahead:
        fx, fy = HEADING_VEC[heading]
        nx, ny = cell[0] + fx, cell[1] + fy
        if not (0 <= nx < state.width and 0 <= ny < state.height):
            return None
        if state.geometry.blocked[ny, nx]:
            return None
        return (nx, ny), heading, pitch
    if turn:
        return cell, _HEADINGS[(heading + turn) % 4], pitch
    return (cell, heading, pitch + tilt) if -1 <= pitch + tilt <= 1 else None


def _fail(state: WorldState, reason: FailureReason):
    return state, ActionResult(False, reason, None)


def step(state: WorldState, action: PrimitiveAction, point=None,
         mode: InteractionMode = InteractionMode.STANDARD):
    """Apply one primitive action.  Failures never mutate state (the same
    object is returned).  Interactive actions require a point in both
    interaction modes.

    A successful step hands the successor every memo that still holds for
    it: the instance index, geometry, effects and the settled mark (see
    `_ok`) depend only on `walls` and `objects`, and the observation also
    on the agent pose."""
    agent = state.agent
    if action is PrimitiveAction.Done:
        return _ok(state, state)
    if action not in INTERACTIVE_ACTIONS:
        pose = nav_pose(state, (agent.cell, agent.heading, agent.pitch), action)
        if pose is None:
            return _fail(state, FailureReason.BLOCKED)
        cell, heading, pitch = pose
        return _ok(state, replace(state, agent=replace(agent, cell=cell, heading=heading,
                                                       pitch=pitch)))

    # interactive actions
    if point is None:
        raise InvalidAction(f"{action.name} requires an interaction point")
    target_id = resolve_target(state, point, mode)
    if target_id is None:
        raw = _hit_ignoring_range(state.observation, point)
        reason = FailureReason.OUT_OF_RANGE if raw is not None else FailureReason.NO_TARGET_HIT
        return _fail(state, reason)
    target = state.obj(target_id)
    cls = state.cls(target)

    if action in STATE_CHANGE:
        attr, needed, left = STATE_CHANGE[action]
        if getattr(target, attr) is not needed:
            return _fail(state, FailureReason.PRECONDITION_UNMET)
        return _ok(state, state.with_object(replace(target, **{attr: left})), target_id)

    if action is PrimitiveAction.Pickup:
        if agent.held is not None:
            return _fail(state, FailureReason.HANDS_FULL)
        if not cls.pickupable:
            return _fail(state, FailureReason.PRECONDITION_UNMET)
        return _ok(state, hold(state, target_id), target_id)

    if action is PrimitiveAction.Put:
        if agent.held is None:
            return _fail(state, FailureReason.HANDS_EMPTY)
        if not has_room(state, target):
            return _fail(state, FailureReason.PRECONDITION_UNMET)
        held = state.obj(agent.held)
        if target_id == held.instance_id or held.instance_id in ancestors(state, target_id):
            return _fail(state, FailureReason.PRECONDITION_UNMET)
        new = state.with_object(replace(held, anchor=None, container=target_id))
        return _ok(state, replace(new, agent=replace(agent, held=None)), target_id)

    if action is PrimitiveAction.Slice:
        held = state.held_object()
        if held is None or not state.cls(held).slicer:
            return _fail(state, FailureReason.PRECONDITION_UNMET)
        if not cls.sliceable or target.sliced:
            return _fail(state, FailureReason.PRECONDITION_UNMET)
        return _ok(state, state.with_object(replace(target, sliced=True)), target_id)

    raise InvalidAction(f"unhandled action {action!r}")


# --------------------------------------------------------------------------
# scene templates and randomization


def _border_walls(width, height):
    walls = np.zeros((height, width), dtype=bool)
    walls[0, :] = walls[-1, :] = True
    walls[:, 0] = walls[:, -1] = True
    return walls


def initial_states(cls, rng, randomize):
    """(openness, power, cleanliness) of a new instance of `cls`: the
    closed, off and clean defaults, or drawn from `rng` when `randomize`."""
    openness = Openness.NOT_OPENABLE
    if cls.enclosed:
        openness = Openness.CLOSED
        if randomize and rng.random() < 0.25:
            openness = Openness.OPEN
    power = Power.NOT_TOGGLEABLE
    if cls.toggleable:
        power = Power.OFF
        if randomize and not cls.water_source and rng.random() < 0.3:
            power = Power.ON
    clean = Cleanliness.NA
    if cls.can_dirty:
        clean = Cleanliness.DIRTY if (randomize and rng.random() < 0.5) else Cleanliness.CLEAN
    return openness, power, clean


def randomize_scene(template: dict, seed: int,
                    registry: ClassRegistry | None = None,
                    config: WorldConfig | None = None) -> WorldState:
    """Instantiate a scene template deterministically from a seed.

    Fixtures keep their listed positions; movables are assigned uniformly
    among receptacles compatible with their placement rules; the agent
    starts at a random traversable cell.
    """
    registry = registry or desk_registry()
    config = config or WorldConfig()
    rng = np.random.default_rng(np.uint64(seed))
    width, height = template["width"], template["height"]
    walls = _border_walls(width, height)
    for (x, y) in template.get("interior_walls", []):
        walls[y, x] = True
    randomize = template.get("randomize_states", True)

    objects: list[ObjectInstance] = []
    occupied = set()
    next_id = 0
    for fx in template["fixtures"]:
        cls_id = registry.id_of(fx["class"])
        cls = registry[cls_id]
        size = fx.get("size", cls.size)
        cells = footprint_cells(tuple(fx["pos"]), size)
        for c in cells:
            if not (0 < c[0] < width - 1 and 0 < c[1] < height - 1) or walls[c[1], c[0]]:
                raise PlacementInfeasible(f"fixture {fx['class']} at {fx['pos']} off-floor")
            if c in occupied:
                raise PlacementInfeasible(f"fixture overlap at {c}")
            occupied.add(c)
        openness, power, clean = initial_states(cls, rng, randomize)
        objects.append(ObjectInstance(
            instance_id=next_id, class_id=cls_id, anchor=tuple(fx["pos"]),
            container=None, size=size, is_receptacle=cls.receptacle,
            openness=openness, power=power, cleanliness=clean))
        next_id += 1

    recs = [o for o in objects if o.is_receptacle]
    # expand (class, count) specs, most-constrained classes first so tight
    # receptacles are not starved; retry whole assignments on dead ends
    wanted = []
    for spec in template.get("movables", []):
        cls_id = registry.id_of(spec["class"])
        for _ in range(spec.get("count", 1)):
            wanted.append(cls_id)
    wanted.sort(key=lambda cid: (len(registry[cid].placements), registry[cid].name))
    assignment = None
    for _attempt in range(20):
        load = {o.instance_id: 0 for o in recs}
        trial = []
        for cls_id in wanted:
            cls = registry[cls_id]
            slots = [r for r in recs
                     if registry[r.class_id].name in cls.placements
                     and load[r.instance_id] < capacity(r)]
            if not slots:
                trial = None
                break
            pick = slots[int(rng.integers(len(slots)))]
            load[pick.instance_id] += 1
            trial.append((cls_id, pick.instance_id))
        if trial is not None:
            assignment = trial
            break
    if assignment is None and wanted:
        raise PlacementInfeasible("movable placement unsatisfiable for template "
                                  f"{template.get('template_id')}")
    for cls_id, container in assignment or []:
        cls = registry[cls_id]
        openness, power, clean = initial_states(cls, rng, randomize)
        objects.append(ObjectInstance(
            instance_id=next_id, class_id=cls_id, anchor=None,
            container=container, size=1, is_receptacle=cls.receptacle,
            openness=openness, power=power, cleanliness=clean))
        next_id += 1

    free = [(x, y) for y in range(1, height - 1) for x in range(1, width - 1)
            if not walls[y, x] and (x, y) not in occupied]
    if not free:
        raise PlacementInfeasible("no traversable cell for the agent")
    cell = free[int(rng.integers(len(free)))]
    heading = Heading(int(rng.integers(4)))
    return WorldState(width=width, height=height, walls=walls,
                      objects=tuple(objects),
                      agent=AgentPose(cell=cell, heading=heading),
                      registry=registry, config=config)


def save_template(template: dict, path):
    with open(path, "w") as f:
        json.dump(template, f, indent=2, sort_keys=True)
