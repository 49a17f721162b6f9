"""Seeded builders for shapes at a size the generators never reach.

``shapes.py`` draws awkward shapes of a few entities; the builders here scale
one shape each to a chosen size, so a ladder of them can gate how a run's
time grows.
"""

import random

from pullup.generate import Family, GeneratorSpec, generate_model
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


def rooted_model(family, scale, seed):
    """The seeded ``generate_model`` model of ``family`` (``flat`` or
    ``mixed``) with one class ``Root`` above every top-level class, the
    single base class over everything that real class diagrams have. Rule 2
    then fires on ``Root`` where rule 3 fires on the model without it."""
    model = generate_model(GeneratorSpec(Family(family), scale, seed))
    tops = [eid for eid in model.entity_ids() if model.is_top_level(eid)]
    root = model.add_entity("Root")
    for eid in tops:
        model.add_generalization(eid, root)
    return model


def _link_chain(model, chain, below):
    """Make each class of ``chain`` a subclass of the one before it, and
    each class of ``below[i]`` a subclass of ``chain[i]``. The edges go in
    deepest first, while the superclass has no ancestors yet, so adding each
    one walks no chain and the build stays linear in the depth."""
    for i in reversed(range(len(chain))):
        for eid in below.get(i, ()):
            model.add_generalization(eid, chain[i])
        if i:
            model.add_generalization(chain[i], chain[i - 1])


def climbing_chain_model(depth, others):
    """A chain ``P0 <- P1 <- ... <- P<depth-1>`` in which every ``P<i>`` has
    a second subclass ``Q<i>`` declaring ``a:T``, and the last one a third,
    ``Q<depth>``, declaring it too; beside it, ``others`` top-level classes
    declaring a key each that no other class declares. Rule 1 hoists ``a``
    into ``P<depth-1>`` in the first pass and climbs one level per pass, so
    the core fixpoint takes ``depth + 1`` passes."""
    model = ClassModel()
    model.add_type("T")
    key = PropKey("a", "T")
    chain = [model.add_entity(f"P{i}") for i in range(depth)]
    below = {}
    for i in range(depth + 1):
        q = model.add_entity(f"Q{i}")
        model.add_property(q, key)
        below.setdefault(min(i, depth - 1), []).append(q)
    _link_chain(model, chain, below)
    for i in range(others):
        model.add_property(model.add_entity(f"O{i}"), PropKey(f"o{i}", "T"))
    return model


def deep_bottom(depth, pairs):
    """A bare chain ``C0 <- C1 <- ... <- C<depth-1>`` with ``pairs`` pairs
    ``A<j>``, ``B<j>`` below its last class that share ``k<j>:T``, a key no
    other class declares. Each pass of the core fixpoint fires rule 2 there
    once, ``depth`` classes deep."""
    model = ClassModel()
    model.add_type("T")
    chain = [model.add_entity(f"C{i}") for i in range(depth)]
    bottom = []
    for j in range(pairs):
        for name in ("A", "B"):
            bottom.append(model.add_entity(f"{name}{j}"))
            model.add_property(bottom[-1], PropKey(f"k{j}", "T"))
    _link_chain(model, chain, {depth - 1: bottom})
    return model


def comb(depth):
    """A chain ``C0 <- C1 <- ... <- C<depth-1>`` in which every ``C<i>`` has
    its own pair ``A<i>``, ``B<i>`` sharing ``k<i>:T``, ``8 * depth - 1``
    elements. Rule 2 fires below every chain class, at every depth, in the
    first pass."""
    model = ClassModel()
    model.add_type("T")
    chain, pairs = [], {}
    for i in range(depth):
        chain.append(model.add_entity(f"C{i}"))
        pairs[i] = [model.add_entity(f"{name}{i}") for name in ("A", "B")]
        for eid in pairs[i]:
            model.add_property(eid, PropKey(f"k{i}", "T"))
    _link_chain(model, chain, pairs)
    return model


def shadowed_diamond_model(p, seed):
    """``p`` superclasses ``S<i>`` that each declare ``a:T``, each with 2-4
    subclasses ``C<i>_<j>`` that declare ``a`` as ``T`` or ``U`` and the key
    ``k<i + j>:T``, which the subclasses of the neighbouring stars declare
    too. About half of the ``C<i>_0`` also sit below ``S<i-1>``, a diamond
    whose two parents both declare ``a``. Every superclass declares the name
    its subclasses share, so rule 2 fires where rule 1 cannot, and rule 3
    then takes ``a`` from every superclass at once. The seed picks the
    subclass counts, the types of ``a`` and the diamonds."""
    rng = random.Random(seed)
    model = ClassModel()
    for t in _TYPES:
        model.add_type(t)
    supers = []
    for i in range(p):
        s = model.add_entity(f"S{i}")
        model.add_property(s, PropKey("a", "T"))
        for j in range(rng.randint(2, 4)):
            eid = model.add_entity(f"C{i}_{j}")
            model.add_property(eid, PropKey("a", rng.choice(_TYPES)))
            model.add_property(eid, PropKey(f"k{i + j}", "T"))
            model.add_generalization(eid, s)
            if j == 0 and supers and rng.random() < 0.5:
                model.add_generalization(eid, supers[-1])
        supers.append(s)
    return model


def many_parents(p):
    """A class ``X`` below ``P0 ... P<p-1>``, where every ``P<i>`` has a
    second subclass ``Y<i>`` and ``X`` and ``Y<i>`` share ``k<i>:T``, a key
    no other class declares: ``6 * p + 1`` elements. In the first pass each
    ``P<i>`` fires once on ``{X, Y<i>}``, rule 1 under ``min_subclasses`` 1
    or 2 and rule 2 under 3, so ``X`` is a member of ``p`` small sets that
    each fire."""
    model = ClassModel()
    model.add_type("T")
    x = model.add_entity("X")
    for i in range(p):
        key = PropKey(f"k{i}", "T")
        sup, y = model.add_entity(f"P{i}"), model.add_entity(f"Y{i}")
        model.add_property(x, key)
        model.add_property(y, key)
        model.add_generalization(x, sup)
        model.add_generalization(y, sup)
    return model
