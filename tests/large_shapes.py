"""Seeded builders for shapes at a size the generators never reach.

``shapes.py`` draws awkward shapes of a few entities; the builders here scale
one shape each to a chosen size, so a ladder of them can gate how a run's
time grows.
"""

import random

from pullup.model import ClassModel, PropKey

_TYPES = ("T", "U")


def wide_model(p, seed):
    """Wide classes: ``S`` with three subclasses that share ``p`` keys, plus
    three top-level classes that share ``p`` other keys, ``6 * p``
    declarations in all. The seed picks the keys' types; each class declares
    its keys in index order. Rule 1 and rule 3 each fire once, each moving
    ``p`` keys."""
    rng = random.Random(seed)
    model = ClassModel()
    for t in _TYPES:
        model.add_type(t)
    below = [PropKey(f"s{i}", rng.choice(_TYPES)) for i in range(p)]
    top = [PropKey(f"t{i}", rng.choice(_TYPES)) for i in range(p)]
    s = model.add_entity("S")
    for prefix, keys in (("S", below), ("W", top)):
        for j in range(3):
            eid = model.add_entity(f"{prefix}{j}")
            if prefix == "S":
                model.add_generalization(eid, s)
            for key in keys:
                model.add_property(eid, key)
    return model


def fanout_model(p, seed):
    """A wide class ``A`` that shares each of its ``p`` keys with a different
    one-key class ``B<i>``. Every class sits below a root of its own, so the
    core rules find nothing and the multiple-inheritance pass fires ``p``
    times, each time on ``A``. The seed picks the keys' types."""
    rng = random.Random(seed)
    model = ClassModel()
    for t in _TYPES:
        model.add_type(t)
    keys = [PropKey(f"k{i}", rng.choice(_TYPES)) for i in range(p)]
    wide = model.add_entity("A")
    model.add_generalization(wide, model.add_entity("R"))
    for key in keys:
        model.add_property(wide, key)
    for i, key in enumerate(keys):
        eid = model.add_entity(f"B{i}")
        model.add_generalization(eid, model.add_entity(f"R{i}"))
        model.add_property(eid, key)
    return model
