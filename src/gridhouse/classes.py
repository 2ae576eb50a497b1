"""Object class registry: names, interaction flags, placement rules.

Class ids index [0, C).  The desk registry is the curated set the built-in
scenes use.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ObjectClassDef:
    name: str
    pickupable: bool = False
    receptacle: bool = False
    enclosed: bool = False      # openable container hiding contents when closed
    toggleable: bool = False
    sliceable: bool = False
    slicer: bool = False        # can be used to slice (knife family)
    occludes: bool = False      # tall enough to block line of sight when closed
    heats: bool = False         # contents of a powered-on instance become hot
    cools: bool = False         # contents of a closed instance become cold
    sink_basin: bool = False
    water_source: bool = False  # running instance cleans adjacent sink contents
    can_dirty: bool = False
    size: int = 1
    placements: tuple[str, ...] = ()


class ClassRegistry:
    def __init__(self, defs):
        self.defs: list[ObjectClassDef] = list(defs)
        self.by_name = {d.name: i for i, d in enumerate(self.defs)}
        if len(self.by_name) != len(self.defs):
            raise ValueError("duplicate class names")

    def __len__(self):
        return len(self.defs)

    def __getitem__(self, class_id) -> ObjectClassDef:
        return self.defs[class_id]

    def id_of(self, name) -> int:
        return self.by_name[name]

    def names(self):
        return [d.name for d in self.defs]


_FOOD_SPOTS = ("CounterTop", "DiningTable", "Fridge", "Sink")
_UTENSIL_SPOTS = ("CounterTop", "DiningTable", "Drawer", "Sink")
_DISH_SPOTS = ("CounterTop", "DiningTable", "Cabinet", "Sink", "Shelf")
_DESK_SPOTS = ("DiningTable", "SideTable", "Shelf")


def desk_registry() -> ClassRegistry:
    """Curated class set used by the built-in desk-scale scenes."""
    defs = [
        # fixed receptacles / appliances
        ObjectClassDef("CounterTop", receptacle=True, size=6),
        ObjectClassDef("DiningTable", receptacle=True, size=6),
        ObjectClassDef("SideTable", receptacle=True, size=3),
        ObjectClassDef("Shelf", receptacle=True, size=3),
        ObjectClassDef("Sink", receptacle=True, sink_basin=True, size=2),
        ObjectClassDef("GarbageCan", receptacle=True, size=2),
        ObjectClassDef("Fridge", receptacle=True, enclosed=True, occludes=True,
                       cools=True, size=4),
        ObjectClassDef("Microwave", receptacle=True, enclosed=True, toggleable=True,
                       heats=True, size=2),
        ObjectClassDef("Cabinet", receptacle=True, enclosed=True, occludes=True, size=3),
        ObjectClassDef("Drawer", receptacle=True, enclosed=True, size=2),
        ObjectClassDef("Faucet", toggleable=True, water_source=True),
        ObjectClassDef("DeskLamp", toggleable=True),
        ObjectClassDef("FloorLamp", toggleable=True),
        # movable food
        ObjectClassDef("Apple", pickupable=True, sliceable=True, can_dirty=True,
                       placements=_FOOD_SPOTS + ("GarbageCan",)),
        ObjectClassDef("Orange", pickupable=True, sliceable=True, can_dirty=True,
                       placements=_FOOD_SPOTS),
        ObjectClassDef("Bread", pickupable=True, sliceable=True, placements=_FOOD_SPOTS),
        ObjectClassDef("Potato", pickupable=True, sliceable=True, can_dirty=True,
                       placements=_FOOD_SPOTS),
        ObjectClassDef("Tomato", pickupable=True, sliceable=True, can_dirty=True,
                       placements=_FOOD_SPOTS),
        ObjectClassDef("Lettuce", pickupable=True, sliceable=True, placements=_FOOD_SPOTS),
        ObjectClassDef("Egg", pickupable=True, placements=("Fridge", "CounterTop", "Sink")),
        # movable receptacles (dishes)
        ObjectClassDef("Mug", pickupable=True, receptacle=True, can_dirty=True,
                       placements=_DISH_SPOTS),
        ObjectClassDef("Cup", pickupable=True, receptacle=True, can_dirty=True,
                       placements=_DISH_SPOTS),
        ObjectClassDef("Bowl", pickupable=True, receptacle=True, can_dirty=True,
                       placements=_DISH_SPOTS),
        ObjectClassDef("Plate", pickupable=True, receptacle=True, can_dirty=True,
                       placements=_DISH_SPOTS),
        # utensils
        ObjectClassDef("Knife", pickupable=True, slicer=True, placements=_UTENSIL_SPOTS),
        ObjectClassDef("ButterKnife", pickupable=True, slicer=True, placements=_UTENSIL_SPOTS),
        ObjectClassDef("Fork", pickupable=True, can_dirty=True, placements=_UTENSIL_SPOTS),
        ObjectClassDef("Spoon", pickupable=True, can_dirty=True, placements=_UTENSIL_SPOTS),
        # small household items
        ObjectClassDef("Book", pickupable=True, placements=_DESK_SPOTS),
        ObjectClassDef("Pencil", pickupable=True, placements=_DESK_SPOTS),
        ObjectClassDef("CellPhone", pickupable=True, placements=_DESK_SPOTS),
        ObjectClassDef("CreditCard", pickupable=True, placements=_DESK_SPOTS),
        ObjectClassDef("SoapBar", pickupable=True, can_dirty=True,
                       placements=("Sink", "CounterTop", "GarbageCan", "Drawer", "Shelf")),
        ObjectClassDef("Cloth", pickupable=True, can_dirty=True,
                       placements=("Sink", "CounterTop", "Shelf", "Drawer", "SideTable")),
    ]
    return ClassRegistry(defs)
