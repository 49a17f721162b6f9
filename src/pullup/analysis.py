"""Read-only sharing analysis: which property keys are declared by which
entities, and the ranked candidate list that drives every restructuring rule.

Ranking order (``rank_key``): larger owner sets first; among equal sizes,
owner sets that occur more often among the per-key pairs first; ties broken
canonically by sorted owner names. All keys with the same owner set form one
candidate, in sorted key order. ``top_candidate`` finds the first candidate
of a class set, when two of its classes share it, without ranking the others.

``SharingIndex`` keeps the same ranking over one class set, the direct
subclasses of a parent or the top-level classes, up to date as rules fire,
so the fixpoint engine need not re-rank a large set after each firing.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Collection, Iterable, Optional

from .model import ClassModel, PropKey


@dataclass(frozen=True)
class Candidate:
    """A maximal set of property keys shared by one set of owner entities."""

    keys: tuple[PropKey, ...]
    owners: frozenset[int]


def rank_key(
    model: ClassModel, owners: frozenset[int], freq: int
) -> tuple[int, int, tuple[str, ...]]:
    """Sort key of the candidate whose ``owners`` share ``freq`` keys.

    Entity names are unique, so two owner sets never tie.
    """
    return (-len(owners), -freq, tuple(sorted(model.entity(i).name for i in owners)))


def _groups(
    model: ClassModel, classes: Iterable[int]
) -> dict[frozenset[int], list[PropKey]]:
    """The keys declared among ``classes``, grouped by the exact set of
    classes that declare each. A class listed twice counts once."""
    owners_by_key: dict[PropKey, list[int]] = {}
    for eid in classes:
        for key in model.entity(eid).properties.values():  # distinct within an entity
            owners_by_key.setdefault(key, []).append(eid)
    keys_by_owners: dict[frozenset[int], list[PropKey]] = {}
    for key, owners in owners_by_key.items():
        keys_by_owners.setdefault(frozenset(owners), []).append(key)
    return keys_by_owners


def common_props(model: ClassModel, classes: Iterable[int]) -> list[Candidate]:
    """Rank and collapse the shared-property candidates of ``classes``.

    Pure: the model is untouched and the result depends only on names and
    declarations, never on entity-list order or set iteration order.
    """
    ranked = sorted(
        _groups(model, classes).items(),
        key=lambda group: rank_key(model, group[0], len(group[1])),
    )
    return [Candidate(tuple(sorted(keys)), owners) for owners, keys in ranked]


def top_candidate(model: ClassModel, classes: Iterable[int]) -> Optional[Candidate]:
    """``common_props(model, classes)[0]`` if ``classes`` hold one distinct
    class or two of them share that candidate; otherwise ``None``.

    Only a key that some class other than the widest declares can have two
    owners, so the widest class's keys are never read, only probed by name.
    ``rank_key`` orders by owner count, then by key count, so the first
    candidate is among the groups largest by both; only those build the
    name tuple that breaks their tie.
    """
    ids = set(classes)
    if len(ids) < 2:
        groups = _groups(model, ids)
    else:
        wide = max(ids, key=lambda eid: len(model.entity(eid).properties))
        ids.remove(wide)
        owners_by_key: dict[PropKey, list[int]] = {}
        for eid in ids:
            for key in model.entity(eid).properties.values():
                owners_by_key.setdefault(key, []).append(eid)
        probe, groups = model.entity(wide).properties, {}
        for key, owners in owners_by_key.items():
            if probe.get(key.prop_name) == key:
                owners.append(wide)
            if len(owners) > 1:
                groups.setdefault(frozenset(owners), []).append(key)
    if not groups:
        return None
    best = max((len(owners), len(keys)) for owners, keys in groups.items())
    tied = [g for g in groups.items() if (len(g[0]), len(g[1])) == best]
    owners, keys = (
        tied[0]
        if len(tied) == 1
        else min(tied, key=lambda group: rank_key(model, group[0], len(group[1])))
    )
    return Candidate(tuple(sorted(keys)), owners)


def sharing_classes(model: ClassModel) -> list[int]:
    """The entities, in entity order, that declare a key some other entity
    also declares. Without a duplicated key no entity is read."""
    shared = model.duplicated_keys()
    if not shared:
        return []
    return [e.id for e in model.entities() if not shared.isdisjoint(e.properties.values())]


class SharingIndex:
    """The top candidate of ``common_props`` over the direct subclasses of
    ``parent``, or over the top-level classes when ``parent`` is ``None``,
    kept up to date as the model changes.

    It holds each key's owners in the set, the keys of every owner set of
    two or more entities (only those can fire a rule), and a heap of those
    owner sets by ``rank_key``. It keeps no copy of its members' keys: an
    update reads them from the model and is told the keys they lost. It
    pushes a fresh entry for every owner set whose key count changed; an
    entry whose count is no longer current is stale and dropped when it
    reaches the top.

    The top level files only the classes that declare a duplicated key
    (``sharing_classes``). No firing gives a key another owner, so another
    top-level class joins no shared group until a firing changes it, and
    then ``update`` files it.
    """

    def __init__(self, model: ClassModel, parent: Optional[int] = None) -> None:
        self._model, self._parent = model, parent
        if parent is None:
            parents = model.parent_map()
            members = [eid for eid in sharing_classes(model) if not parents.get(eid)]
        else:
            members = model.child_map().get(parent, ())
        groups = _groups(model, members)
        self._owners = {key: ids for ids, keys in groups.items() for key in keys}
        self._groups = {ids: set(keys) for ids, keys in groups.items() if len(ids) > 1}
        self._heap = [self._entry(ids) for ids in self._groups]
        heapify(self._heap)

    def _entry(self, ids: frozenset[int]):
        freq = len(self._groups[ids])
        return rank_key(self._model, ids, freq), ids, freq

    def top(self) -> Optional[Candidate]:
        """``common_props`` over the set, first entry, if it is shared by two
        or more classes; otherwise ``None``."""
        heap, groups = self._heap, self._groups
        while heap:
            _, ids, freq = heap[0]
            keys = groups.get(ids)
            if keys is not None and len(keys) == freq:
                return Candidate(tuple(sorted(keys)), ids)
            heappop(heap)
        return None

    def update(self, eids: Iterable[int], lost: Collection[PropKey]) -> None:
        """Re-read whether each of ``eids`` is in the set, and its declarations,
        given every key ``lost`` that one of them ceased to declare since the
        last update. A class without parents sits below ``None``."""
        model, parents, owners = self._model, self._model.parent_map(), self._owners
        gone: dict[PropKey, set[int]] = {}
        came: dict[PropKey, set[int]] = {}
        for eid in eids:
            own = model.entity(eid).prop_keys()
            member = self._parent in (parents.get(eid) or (None,))
            for key in own.union(lost):
                filed = eid in owners.get(key, ())
                if filed != (member and key in own):
                    (gone if filed else came).setdefault(key, set()).add(eid)

        changed: set[frozenset[int]] = set()
        for key in gone.keys() | came.keys():
            before = owners.pop(key, frozenset())
            after = before.difference(gone.get(key, ())).union(came.get(key, ()))
            if after:
                owners[key] = after
            if len(before) > 1:
                self._groups[before].discard(key)
                changed.add(before)
            if len(after) > 1:
                self._groups.setdefault(after, set()).add(key)
                changed.add(after)
        for ids in changed:
            if self._groups[ids]:
                heappush(self._heap, self._entry(ids))
            else:
                del self._groups[ids]
