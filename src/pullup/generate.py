"""Seeded synthetic model generator for scaling and property-test runs.

Three families, all pure functions of the spec (family, scale, seed):

* ``FLAT_SHARED`` - groups of top-level classes sharing a group-specific
  property set, plus occasional cross-group shared properties. Exercises
  rule 3 and leaves leftovers for the multiple-inheritance pass.
* ``STAR_HIERARCHIES`` - one superclass with several subclasses sharing
  properties across all of them (rule 1) and across strict subsets (rule 2).
* ``MIXED`` - a seeded interleaving of both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .model import ClassModel, PropKey

_TYPE_POOL = ("T1", "T2", "T3", "T4")


class Family(Enum):
    FLAT_SHARED = "flat"
    STAR_HIERARCHIES = "star"
    MIXED = "mixed"


@dataclass(frozen=True)
class GeneratorSpec:
    family: Family
    scale: int
    seed: int


def element_count(model: ClassModel) -> int:
    """Entities + property declarations + generalizations."""
    return (
        len(model)
        + model.declared_property_count
        + sum(map(len, model.parent_map().values()))
    )


def generate_model(spec: GeneratorSpec) -> ClassModel:
    """Build the model for ``spec``; equal specs yield equal models."""
    if spec.scale < 1:
        raise ValueError(f"scale must be >= 1, got {spec.scale}")
    rng = random.Random(spec.seed)
    model = ClassModel()
    for t in _TYPE_POOL:
        model.add_type(t)

    flat_groups: list[list[int]] = []
    for i in range(spec.scale):
        family = spec.family
        if family is Family.MIXED:
            family = rng.choice((Family.FLAT_SHARED, Family.STAR_HIERARCHIES))
        if family is Family.FLAT_SHARED:
            flat_groups.append(_flat_group(model, rng, i))
        else:
            _star(model, rng, i)

    # Cross-group shared properties: duplicates the core rules cannot remove
    # once the groups have been pulled under different parents.
    for j in range(1, len(flat_groups)):
        if rng.random() < 0.4:
            key = PropKey(f"x{j}", rng.choice(_TYPE_POOL))
            model.add_property(rng.choice(flat_groups[j - 1]), key)
            model.add_property(rng.choice(flat_groups[j]), key)
    return model


def _flat_group(model: ClassModel, rng: random.Random, i: int) -> list[int]:
    k = rng.randint(2, 5)
    members = [model.add_entity(f"G{i}C{j}") for j in range(k)]
    shared = [
        PropKey(f"g{i}s{m}", rng.choice(_TYPE_POOL))
        for m in range(rng.randint(1, 3))
    ]
    for eid in members:
        for key in shared:
            model.add_property(eid, key)
        for p in range(rng.randint(0, 2)):
            model.add_property(
                eid, PropKey(f"g{i}c{members.index(eid)}p{p}", rng.choice(_TYPE_POOL))
            )
    if k >= 3 and rng.random() < 0.5:
        key = PropKey(f"g{i}o", rng.choice(_TYPE_POOL))
        for eid in rng.sample(members, 2):
            model.add_property(eid, key)
    return members


def _star(model: ClassModel, rng: random.Random, i: int) -> None:
    sup = model.add_entity(f"S{i}")
    for m in range(rng.randint(1, 2)):
        model.add_property(sup, PropKey(f"s{i}own{m}", rng.choice(_TYPE_POOL)))
    k = rng.randint(2, 5)
    subs = [model.add_entity(f"S{i}C{j}") for j in range(k)]
    for eid in subs:
        model.add_generalization(eid, sup)
    for m in range(rng.randint(1, 2)):
        key = PropKey(f"s{i}all{m}", rng.choice(_TYPE_POOL))
        for eid in subs:
            model.add_property(eid, key)
    if k >= 3 and rng.random() < 0.7:
        key = PropKey(f"s{i}sub", rng.choice(_TYPE_POOL))
        for eid in rng.sample(subs, rng.randint(2, k - 1)):
            model.add_property(eid, key)
    for j, eid in enumerate(subs):
        for p in range(rng.randint(0, 2)):
            model.add_property(eid, PropKey(f"s{i}c{j}p{p}", rng.choice(_TYPE_POOL)))
