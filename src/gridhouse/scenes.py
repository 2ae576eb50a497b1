"""Built-in desk-scale scene templates.

Each template is a plain JSON-able dict (see `randomize_scene` for the
schema): border walls are implicit, fixtures sit at fixed positions, and
movables are assigned to compatible receptacles per seed.  Six kitchen
layouts ship by default; the last two are reserved for unseen splits.
"""

from __future__ import annotations

_STANDARD_MOVABLES = [
    {"class": "Apple", "count": 1},
    {"class": "Orange", "count": 1},
    {"class": "Bread", "count": 1},
    {"class": "Potato", "count": 1},
    {"class": "Tomato", "count": 1},
    {"class": "Lettuce", "count": 1},
    {"class": "Egg", "count": 2},
    {"class": "Mug", "count": 1},
    {"class": "Cup", "count": 1},
    {"class": "Bowl", "count": 1},
    {"class": "Plate", "count": 1},
    {"class": "Knife", "count": 1},
    {"class": "ButterKnife", "count": 1},
    {"class": "Fork", "count": 1},
    {"class": "Book", "count": 1},
    {"class": "Pencil", "count": 1},
    {"class": "CellPhone", "count": 1},
    {"class": "SoapBar", "count": 1},
]


def _kitchen(template_id, width, height, fixtures, interior_walls=()):
    return {
        "template_id": template_id,
        "width": width,
        "height": height,
        "interior_walls": [list(c) for c in interior_walls],
        "fixtures": fixtures,
        "movables": list(_STANDARD_MOVABLES),
        "randomize_states": True,
    }


def builtin_templates() -> list[dict]:
    a = _kitchen("kitchen_a", 12, 12, [
        {"class": "Fridge", "pos": [1, 1]},
        {"class": "CounterTop", "pos": [4, 1]},
        {"class": "Microwave", "pos": [8, 1]},
        {"class": "Sink", "pos": [1, 4]},
        {"class": "Faucet", "pos": [1, 3]},
        {"class": "Cabinet", "pos": [9, 4]},
        {"class": "DiningTable", "pos": [4, 6]},
        {"class": "GarbageCan", "pos": [1, 9]},
        {"class": "Drawer", "pos": [8, 9]},
        {"class": "Shelf", "pos": [4, 9]},
        {"class": "DeskLamp", "pos": [10, 1]},
        {"class": "SideTable", "pos": [8, 7]},
    ])
    b = _kitchen("kitchen_b", 12, 12, [
        {"class": "Fridge", "pos": [9, 1]},
        {"class": "CounterTop", "pos": [1, 1]},
        {"class": "Microwave", "pos": [1, 4]},
        {"class": "Sink", "pos": [9, 5]},
        {"class": "Faucet", "pos": [9, 4]},
        {"class": "Cabinet", "pos": [1, 6]},
        {"class": "DiningTable", "pos": [4, 7]},
        {"class": "GarbageCan", "pos": [9, 9]},
        {"class": "Drawer", "pos": [1, 9]},
        {"class": "Shelf", "pos": [4, 4]},
        {"class": "FloorLamp", "pos": [10, 8]},
        {"class": "SideTable", "pos": [7, 4]},
    ])
    c = _kitchen("kitchen_c", 13, 11, [
        {"class": "Fridge", "pos": [1, 7]},
        {"class": "CounterTop", "pos": [1, 1]},
        {"class": "Microwave", "pos": [5, 1]},
        {"class": "Sink", "pos": [8, 1]},
        {"class": "Faucet", "pos": [10, 1]},
        {"class": "Cabinet", "pos": [10, 4]},
        {"class": "DiningTable", "pos": [5, 4]},
        {"class": "GarbageCan", "pos": [3, 8]},
        {"class": "Drawer", "pos": [8, 8]},
        {"class": "Shelf", "pos": [10, 7]},
        {"class": "DeskLamp", "pos": [4, 1]},
        {"class": "SideTable", "pos": [5, 7]},
    ])
    d = _kitchen("kitchen_d", 11, 13, [
        {"class": "Fridge", "pos": [8, 10]},
        {"class": "CounterTop", "pos": [1, 10]},
        {"class": "Microwave", "pos": [8, 8]},
        {"class": "Sink", "pos": [1, 8]},
        {"class": "Faucet", "pos": [3, 8]},
        {"class": "Cabinet", "pos": [8, 1]},
        {"class": "DiningTable", "pos": [3, 4]},
        {"class": "GarbageCan", "pos": [1, 1]},
        {"class": "Drawer", "pos": [4, 1]},
        {"class": "Shelf", "pos": [8, 5]},
        {"class": "FloorLamp", "pos": [1, 6]},
        {"class": "SideTable", "pos": [1, 3]},
    ], interior_walls=[(6, 1), (6, 2)])
    e = _kitchen("kitchen_e", 12, 12, [
        {"class": "Fridge", "pos": [5, 1]},
        {"class": "CounterTop", "pos": [1, 8]},
        {"class": "Microwave", "pos": [1, 1]},
        {"class": "Sink", "pos": [9, 8]},
        {"class": "Faucet", "pos": [9, 9]},
        {"class": "Cabinet", "pos": [9, 1]},
        {"class": "DiningTable", "pos": [4, 5]},
        {"class": "GarbageCan", "pos": [1, 5]},
        {"class": "Drawer", "pos": [9, 4]},
        {"class": "Shelf", "pos": [1, 3]},
        {"class": "DeskLamp", "pos": [10, 6]},
        {"class": "SideTable", "pos": [6, 7]},
    ])
    f = _kitchen("kitchen_f", 13, 12, [
        {"class": "Fridge", "pos": [10, 4]},
        {"class": "CounterTop", "pos": [4, 9]},
        {"class": "Microwave", "pos": [1, 9]},
        {"class": "Sink", "pos": [1, 6]},
        {"class": "Faucet", "pos": [1, 5]},
        {"class": "Cabinet", "pos": [4, 1]},
        {"class": "DiningTable", "pos": [7, 1]},
        {"class": "GarbageCan", "pos": [10, 9]},
        {"class": "Drawer", "pos": [1, 1]},
        {"class": "Shelf", "pos": [10, 1]},
        {"class": "FloorLamp", "pos": [7, 6]},
        {"class": "SideTable", "pos": [4, 5]},
    ])
    return [a, b, c, d, e, f]
