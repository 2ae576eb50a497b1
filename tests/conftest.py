"""Shared scene-building helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from gridhouse import planner, tensor as T, world
from gridhouse.classes import desk_registry
from gridhouse.scenes import builtin_templates
from gridhouse.world import (AgentPose, Heading, ObjectInstance, Openness,
                             Power, Cleanliness, WorldConfig, WorldState)

# property tests draw the same examples on every run, with no time limit
# and no example database; each test sets only its `max_examples`
settings.register_profile("fixed", deadline=None, derandomize=True, database=None)
settings.load_profile("fixed")

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pytest_report_header(config):
    """The numpy build and BLAS settings the golden digests depend on (see
    the comment above MICRO_PRETRAIN_SHA256), printed so that a failing pin
    shows its environment in the log."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ", ".join(f"{v}={os.environ.get(v, 'unset')}" for v in BLAS_THREAD_VARIABLES)
    return [f"numpy {np.__version__}; BLAS {blas.get('name')} {blas.get('version')}",
            f"BLAS threads: {threads}"]

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


@pytest.fixture(autouse=True)
def cold_scene_caches():
    """Empty the scene caches before each test, so that no test passes on
    entries an earlier test left behind."""
    for memo in (world._compile_template, world.footprint_cells, planner._distance_field):
        memo.cache_clear()


@pytest.fixture
def reg():
    return REG


@pytest.fixture
def float64():
    """Build and compute the test's tensors in float64: finite-difference
    checks and identities pinned at float64 tolerances run in this scope."""
    with T.precision(np.float64):
        yield
