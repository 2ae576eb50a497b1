"""Shared scene-building helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from gridhouse import tensor as T
from gridhouse.classes import desk_registry
from gridhouse.scenes import builtin_templates
from gridhouse.world import (AgentPose, Heading, ObjectInstance, Openness,
                             Power, Cleanliness, WorldConfig, WorldState)

# property tests draw the same examples on every run, with no time limit
# and no example database; each test sets only its `max_examples`
settings.register_profile("fixed", deadline=None, derandomize=True, database=None)
settings.load_profile("fixed")

REG = desk_registry()
TEMPLATES_BY_ID = {t["template_id"]: t for t in builtin_templates()}


def make_state(objects=(), agent_cell=(5, 8), heading=Heading.NORTH, pitch=0,
               held=None, width=16, height=16, config=None):
    """Empty-walled room with the given objects; ids assigned by order."""
    walls = np.zeros((height, width), dtype=bool)
    walls[0, :] = walls[-1, :] = True
    walls[:, 0] = walls[:, -1] = True
    built = []
    for i, spec in enumerate(objects):
        cls = REG[REG.id_of(spec["class"])]
        built.append(ObjectInstance(
            instance_id=i,
            class_id=REG.id_of(spec["class"]),
            anchor=tuple(spec["pos"]) if spec.get("pos") is not None else None,
            container=spec.get("container"),
            size=spec.get("size", cls.size),
            is_receptacle=cls.receptacle,
            openness=spec.get("openness",
                              Openness.CLOSED if cls.enclosed else Openness.NOT_OPENABLE),
            power=spec.get("power",
                           Power.OFF if cls.toggleable else Power.NOT_TOGGLEABLE),
            cleanliness=spec.get("cleanliness",
                                 Cleanliness.CLEAN if cls.can_dirty else Cleanliness.NA),
            sliced=spec.get("sliced", False),
        ))
    return WorldState(
        width=width, height=height, walls=walls, objects=tuple(built),
        agent=AgentPose(cell=agent_cell, heading=heading, pitch=pitch, held=held),
        registry=REG, config=config or WorldConfig(),
    )


@pytest.fixture
def reg():
    return REG


@pytest.fixture
def float64():
    """Build and compute the test's tensors in float64: finite-difference
    checks and identities pinned at float64 tolerances run in this scope."""
    with T.precision(np.float64):
        yield
