"""In-memory class-model representation.

A :class:`ClassModel` holds named types, an ordered list of entities (classes
with declared properties), and generalization edges forming a DAG: each
entity's direct superclasses in a parent map, mirrored by a child map.
The public mutations check their preconditions and leave the model untouched
on failure; ``ClassModel._link``, the one unchecked writer (of an edge), is
for callers that have checked already. :meth:`ClassModel.validate` re-checks
every invariant from the data itself. ``ClassModel._kept_depth`` alone keeps
the longest chain, peeled once after an edge change. :class:`ModelBuilder`
fills a fresh model for the loader, whose cycle check is that peel.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from types import MappingProxyType
from typing import AbstractSet, Iterator, Mapping, NamedTuple, Optional

from .errors import (
    CycleError,
    DuplicateNameError,
    GeneralizationError,
    InvalidNameError,
    ModelError,
    PropertyNotFoundError,
    UnknownEntityError,
    UnknownTypeError,
)

# Names double as tokens in the text model format, so no whitespace and no
# comment character; and no lone surrogate, which UTF-8 cannot encode.
_NAME_RE = re.compile(r"[^\s#\ud800-\udfff]+")


def _check_name(name: str, what: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise InvalidNameError(f"invalid {what} name: {name!r}")
    return name


class PropKey(NamedTuple):
    """The (property-name, type-name) identity of a property declaration.

    A plain tuple underneath, so hashing, comparing and sorting keys run in C.
    """

    prop_name: str
    type_name: str


class Origin(Enum):
    ORIGINAL = "original"
    SYNTHESIZED = "synthesized"


@dataclass
class Entity:
    """A class: a name, the keys it declares filed by property name in
    declaration order, and an origin marker."""

    id: int
    name: str
    properties: dict[str, PropKey] = field(default_factory=dict)
    origin: Origin = Origin.ORIGINAL

    def prop_keys(self) -> set[PropKey]:
        return set(self.properties.values())


def _walk(edges: Mapping[int, AbstractSet[int]], start: int) -> Iterator[int]:
    """Every entity reachable from ``start`` along ``edges``, once each."""
    seen, stack = {start}, [start]
    while stack:
        for nxt in edges.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
                yield nxt


class ClassModel:
    """Root container of types, entities, and generalization edges.

    Entities keep insertion order (synthesized ones are appended), which is
    the canonical iteration order everywhere. No entity is ever removed, so
    ids are dense: the ``k``-th entity has id ``k``. Mutation is
    single-writer; the object is a plain value with no internal locking. Two
    models are the same model when ``save_model`` writes the same bytes for
    both.
    """

    def __init__(self) -> None:
        self._types: set[str] = set()
        self._entities: dict[int, Entity] = {}  # in entity order, never removed
        self._by_name: dict[str, int] = {}
        # The generalizations: direct superclasses per entity, and the
        # mirror, direct subclasses per entity.
        self._parents: dict[int, set[int]] = {}
        self._children: dict[int, set[int]] = {}
        self._newclass_cursor = 1
        self._decl_count = 0
        # Owners per declared key, built on first use, then kept by
        # add_property and delete_property; a key with no owner is absent.
        self._owner_count: Optional[Counter[PropKey]] = None
        self._depth: Optional[int] = None  # the longest chain; see _kept_depth

    # -- types ------------------------------------------------------------

    def add_type(self, name: str) -> None:
        _check_name(name, "type")
        if name in self._types:
            raise DuplicateNameError(f"duplicate type name {name}")
        self._types.add(name)

    def type_names(self) -> list[str]:
        return sorted(self._types)

    # -- entities ---------------------------------------------------------

    def add_entity(self, name: str, origin: Origin = Origin.ORIGINAL) -> int:
        _check_name(name, "entity")
        if name in self._by_name:
            raise DuplicateNameError(f"duplicate entity name {name}")
        return self._append_entity(name, origin).id

    def _append_entity(self, name: str, origin: Origin) -> Entity:
        eid = len(self._entities) + 1
        e = self._entities[eid] = Entity(eid, name, {}, origin)
        self._by_name[name] = eid
        return e

    def create_entity(self) -> int:
        """Add a fresh synthesized, top-level, property-less entity.

        The name is ``NewClass<k>`` with the smallest positive ``k`` that is
        still free. Names are never released, so the cursor only moves up.
        """
        k = self._newclass_cursor
        while f"NewClass{k}" in self._by_name:
            k += 1
        self._newclass_cursor = k
        return self.add_entity(f"NewClass{k}", Origin.SYNTHESIZED)

    def entity(self, eid: int) -> Entity:
        try:
            return self._entities[eid]
        except KeyError:
            raise UnknownEntityError(f"unknown entity id {eid}") from None

    def entity_id(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownEntityError(f"unknown entity name {name}") from None

    def entity_ids(self) -> list[int]:
        return list(self._entities)

    def entities(self) -> Iterator[Entity]:
        return iter(self._entities.values())

    def __len__(self) -> int:
        return len(self._entities)

    # -- properties -------------------------------------------------------

    @property
    def declared_property_count(self) -> int:
        """Running total of property declarations (kept incrementally)."""
        return self._decl_count

    def _count_owners(self) -> Counter[PropKey]:
        # An entity declares a key at most once, so counting every
        # declaration counts the owners.
        return Counter(
            chain.from_iterable(e.properties.values() for e in self._entities.values())
        )

    @property
    def duplication_count(self) -> int:
        """Sum over keys of (declaring entities - 1): declarations less
        distinct keys."""
        if self._owner_count is None:
            self._owner_count = self._count_owners()
        return self._decl_count - len(self._owner_count)

    def duplicated_keys(self) -> set[PropKey]:
        """Keys declared by at least two entities."""
        if not self.duplication_count:
            return set()
        return {k for k, n in self._owner_count.items() if n > 1}

    def add_property(self, eid: int, key: PropKey) -> None:
        e = self.entity(eid)
        _check_name(key.prop_name, "property")
        if key.type_name not in self._types:
            raise UnknownTypeError(
                f"unknown type {key.type_name} for property {key.prop_name} "
                f"in entity {e.name}"
            )
        if key.prop_name in e.properties:
            raise DuplicateNameError(
                f"entity {e.name} already declares property {key.prop_name}"
            )
        e.properties[key.prop_name] = key
        self._decl_count += 1
        owners = self._owner_count
        if owners is not None:
            owners[key] = owners.get(key, 0) + 1

    def delete_property(self, eid: int, prop_name: str) -> None:
        e = self.entity(eid)
        key = e.properties.pop(prop_name, None)
        if key is None:
            raise PropertyNotFoundError(
                f"entity {e.name} declares no property {prop_name}"
            )
        self._decl_count -= 1
        owners = self._owner_count
        if owners is not None:
            n = owners[key] - 1
            if n:
                owners[key] = n
            else:
                del owners[key]

    # -- generalizations --------------------------------------------------

    def add_generalization(self, sub: int, sup: int) -> None:
        e_sub, e_sup = self.entity(sub), self.entity(sup)
        if sub == sup:
            raise GeneralizationError(f"self-generalization {e_sub.name}")
        if self.has_generalization(sub, sup):
            raise GeneralizationError(
                f"duplicate generalization {e_sub.name} -> {e_sup.name}"
            )
        # A cycle needs ``sub`` above ``sup`` already. Search up from ``sup``
        # and down from ``sub`` in step: the first side to run out settles it,
        # so extending a chain at either end walks nothing.
        if self._parents.get(sup) and self._children.get(sub):
            up, down = _walk(self._parents, sup), _walk(self._children, sub)
            if any(above == sub or below == sup for above, below in zip(up, down)):
                raise CycleError(
                    f"generalization {e_sub.name} -> {e_sup.name} would create a cycle"
                )
        self._link(sub, sup)

    def _link(self, sub: int, sup: int) -> None:
        """Write ``sub -> sup`` into both maps, unchecked; a second write is a no-op."""
        self._parents.setdefault(sub, set()).add(sup)
        self._children.setdefault(sup, set()).add(sub)
        self._depth = None

    def delete_generalization(self, sub: int, sup: int) -> None:
        if not self.has_generalization(sub, sup):
            raise GeneralizationError(
                f"no generalization {self.entity(sub).name} -> {self.entity(sup).name}"
            )
        self._parents[sub].discard(sup)
        self._children[sup].discard(sub)
        self._depth = None

    def has_generalization(self, sub: int, sup: int) -> bool:
        return sup in self._parents.get(sub, ())

    def generalizations(self) -> set[tuple[int, int]]:
        """Every (specific, general) edge, read off the parent map."""
        return {(sub, sup) for sub, sups in self._parents.items() for sup in sups}

    def parent_map(self) -> Mapping[int, AbstractSet[int]]:
        """Read-only live view of every entity's direct superclasses by id.

        An entity without superclasses may be absent or map to an empty set.
        """
        return MappingProxyType(self._parents)

    def child_map(self) -> Mapping[int, AbstractSet[int]]:
        """Read-only live view of every entity's direct subclasses by id.

        An entity without subclasses may be absent or map to an empty set.
        """
        return MappingProxyType(self._children)

    def is_top_level(self, eid: int) -> bool:
        self.entity(eid)
        return not self._parents.get(eid)

    def ancestors(self, eid: int) -> set[int]:
        """All transitive superclasses of ``eid`` (not including itself)."""
        self.entity(eid)
        return set(_walk(self._parents, eid))

    def flattened_props(self, eid: int) -> set[PropKey]:
        """Own plus all transitively inherited property keys."""
        keys = self.entity(eid).prop_keys()
        for anc in self.ancestors(eid):
            keys |= self._entities[anc].prop_keys()
        return keys

    # -- integrity --------------------------------------------------------

    def validate(self) -> list[str]:
        """Re-check every model invariant; return violation descriptions."""
        violations: list[str] = []
        seen_names: set[str] = set()
        declared = 0
        for e in self.entities():
            declared += len(e.properties)
            if not _NAME_RE.fullmatch(e.name or ""):
                violations.append(f"invalid entity name {e.name!r}")
            if e.name in seen_names:
                violations.append(f"duplicate entity name {e.name}")
            seen_names.add(e.name)
            for name, p in e.properties.items():
                if p.prop_name != name:
                    violations.append(
                        f"property {p.prop_name} filed under name {name} "
                        f"in entity {e.name}"
                    )
                if p.type_name not in self._types:
                    violations.append(
                        f"unknown type {p.type_name} in entity {e.name} "
                        f"property {p.prop_name}"
                    )
        if declared != self._decl_count:
            violations.append(
                f"declaration counter reads {self._decl_count}, "
                f"entities declare {declared}"
            )
        owners = self._owner_count
        if owners is not None:
            counted = self._count_owners()
            for key in sorted(k for k in owners.keys() | counted.keys()
                              if owners.get(k) != counted.get(k)):
                violations.append(
                    f"owner count of {key[0]}:{key[1]} reads "
                    f"{owners.get(key, 'nothing')}, "
                    f"{counted.get(key, 0)} entities declare it"
                )
        edges = self.generalizations()
        for sub, sup in sorted(edges):
            if sub not in self._entities or sup not in self._entities:
                violations.append(f"generalization references unknown entity ({sub} -> {sup})")
            elif sub == sup:
                violations.append(f"self-generalization {self._entities[sub].name}")
        mirrored = {(sub, sup) for sup, subs in self._children.items() for sub in subs}
        for sub, sup in sorted(edges ^ mirrored):
            side = "parent" if (sub, sup) in edges else "child"
            violations.append(f"generalization ({sub} -> {sup}) is only in the {side} map")
        stuck, depth = self._peel()
        if stuck:
            names = ", ".join(sorted(self._entities[i].name for i in stuck))
            violations.append(f"generalization cycle through {names}")
        elif self._depth not in (None, depth):
            violations.append(f"kept depth reads {self._depth}, the longest chain is {depth}")
        return violations

    def _peel(self) -> tuple[set[int], int]:
        """Kahn's peel from the leaves up, a layer at a time (a class leaves once
        its subclasses have): the classes on or behind a cycle, and the layer
        count less one, the longest chain when there is no cycle."""
        entities, parents = self._entities, self._parents
        waiting = dict.fromkeys(entities, 0)  # subclasses yet to leave
        waiting.update(Counter(sup for sub, sups in parents.items() if sub in entities
                               for sup in sups if sup in entities and sup != sub))
        layer, depth = [eid for eid, n in waiting.items() if not n], -1
        while layer:
            depth, above = depth + 1, []
            for eid in layer:
                del waiting[eid]
                for sup in parents.get(eid, ()):
                    if sup in waiting:
                        n = waiting[sup] = waiting[sup] - 1
                        if not n:
                            above.append(sup)
            layer = above
        return set(waiting), max(depth, 0)

    def _kept_depth(self) -> Optional[int]:
        """The longest chain, ``None`` on a cycle. The one method that stores a
        peeled depth: it peels only after an edge change reset ``_depth``,
        and keeps the result until the next."""
        if self._depth is None:
            stuck, depth = self._peel()
            self._depth = None if stuck else depth
        return self._depth

    # -- copying ----------------------------------------------------------

    def clone(self) -> "ClassModel":
        """An independent copy. Its owner count is built again when asked."""
        new = ClassModel()
        new._types = set(self._types)
        new._entities = {
            eid: Entity(eid, e.name, dict(e.properties), e.origin)
            for eid, e in self._entities.items()
        }
        new._by_name = dict(self._by_name)
        new._parents = {eid: set(sups) for eid, sups in self._parents.items()}
        new._children = {eid: set(subs) for eid, subs in self._children.items()}
        new._newclass_cursor = self._newclass_cursor
        new._decl_count = self._decl_count
        new._depth = self._depth
        return new

    def __repr__(self) -> str:
        edges = sum(map(len, self._parents.values()))
        return (
            f"<ClassModel {len(self._entities)} entities, "
            f"{self._decl_count} properties, {edges} generalizations>"
        )


# Builds a PropKey without running its Python-level __new__, on the
# loader's hottest line.
_new_tuple = tuple.__new__


class ModelBuilder:
    """Builds a :class:`ClassModel` in one pass over a document's directives:
    entities, each followed by its properties; types go to the model's own
    ``add_type``. Generalizations are collected and added by :meth:`finish`,
    so they may name entities declared later.

    Names are not matched against ``_NAME_RE`` again: the loader passes only
    tokens that ``str.split`` returned from a line of decoded UTF-8 without
    its ``#`` comment, and every such token matches. Anything else that is
    wrong goes to the checked :class:`ClassModel` primitive, which raises the
    error it always raises.
    """

    def __init__(self) -> None:
        self.model = ClassModel()
        self._supers: list[tuple[int, str, int]] = []  # (sub id, super name, line)

    def add_entity(self, name: str, origin: Origin) -> Entity:
        """Add an entity and return it, for :meth:`add_property`."""
        model = self.model
        if name in model._by_name:
            model.add_entity(name, origin)  # raises DuplicateNameError
        return model._append_entity(name, origin)

    def add_property(self, entity: Entity, name: str, type_name: str) -> None:
        """Declare a property of ``entity``, which :meth:`add_entity` returned."""
        key = _new_tuple(PropKey, (name, type_name))
        props = entity.properties
        if type_name in self.model._types and name not in props:
            props[name] = key
        else:  # raises UnknownTypeError or DuplicateNameError
            self.model.add_property(entity.id, key)

    def add_super(self, sub: int, name: str, line: int) -> None:
        """Note the generalization ``sub -> name`` of document line ``line``."""
        self._supers.append((sub, name, line))

    def finish(self) -> ClassModel:
        """Add the generalizations, check for cycles once and return the model.

        An error names the first generalization, in the order they were
        noted, that is unresolved, a self edge or a duplicate, or that closes
        a cycle with the ones before it.
        """
        model = self.model
        # Declarations were appended directly; the owner count stays unbuilt
        # until something asks for it.
        model._decl_count = sum(len(e.properties) for e in model._entities.values())
        by_name, parents, children = model._by_name, model._parents, model._children

        def link(noted: list[tuple[int, str, int]]) -> int:
            """Make ``noted``'s edges the model's, up to the first unresolved,
            self or duplicate one; return how many there are."""
            parents.clear()
            children.clear()
            model._depth = None
            for good, (sub, name, _) in enumerate(noted):
                sup = by_name.get(name)
                if sup is None or sup == sub or sup in parents.get(sub, ()):
                    return good
                model._link(sub, sup)
            return len(noted)

        supers = self._supers
        good = link(supers)
        if good == len(supers) and model._kept_depth() is not None:
            return model
        # The edge at fault is the last of the shortest prefix that holds a
        # cycle, if a prefix of the good edges does, else the first bad edge.
        def cyclic(count: int) -> bool:
            link(supers[:count])
            return model._kept_depth() is None

        fault = bisect_left(range(good + 1), True, key=cyclic) - 1
        link(supers[:fault])
        sub, name, line = supers[fault]
        try:  # the checked primitive raises the error the edge always raised
            model.add_generalization(sub, model.entity_id(name))
        except ModelError as exc:
            raise type(exc)(f"line {line}: {exc}") from None
        raise AssertionError(f"line {line}: no fault found")
