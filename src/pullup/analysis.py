"""Read-only sharing analysis: which property keys are declared by which
entities, and the ranked candidate list that drives every restructuring rule.

Ranking order (``rank_key``): larger owner sets first; among equal sizes,
owner sets that occur more often among the per-key pairs first; ties broken
canonically by sorted owner names. All keys with the same owner set form one
candidate, in sorted key order.

``SharingIndex`` keeps the same ranking over the top-level classes up to
date as rules fire, so the fixpoint engine need not re-rank the whole
top-level set after each firing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Optional

from .model import ClassModel, PropKey


@dataclass(frozen=True)
class Candidate:
    """A maximal set of property keys shared by one set of owner entities."""

    keys: tuple[PropKey, ...]
    owners: frozenset[int]


def prop_type_set(model: ClassModel, eid: int) -> set[PropKey]:
    """The entity's own declared property keys (inherited ones excluded)."""
    return model.entity(eid).prop_keys()


def filter_by_properties(
    model: ClassModel, keys: Iterable[PropKey], entities: Iterable[int]
) -> set[int]:
    """Entities declaring every given key with the exact same type."""
    keys = list(keys)
    out = set()
    for eid in entities:
        own = prop_type_set(model, eid)
        if all(k in own for k in keys):
            out.add(eid)
    return out


def entity_set_frequency(
    pairs: Iterable[tuple[PropKey, frozenset[int]]],
) -> Mapping[frozenset[int], int]:
    """How often each exact owner set occurs among the (key, owners) pairs."""
    return Counter(frozenset(owners) for _, owners in pairs)


def rank_key(
    model: ClassModel, owners: frozenset[int], freq: int
) -> tuple[int, int, tuple[str, ...]]:
    """Sort key of the candidate whose ``owners`` share ``freq`` keys.

    Entity names are unique, so two owner sets never tie.
    """
    return (-len(owners), -freq, tuple(sorted(model.entity(i).name for i in owners)))


def common_props(model: ClassModel, classes: Iterable[int]) -> list[Candidate]:
    """Rank and collapse the shared-property candidates of ``classes``.

    Pure: the model is untouched and the result depends only on names and
    declarations, never on entity-list order or set iteration order.
    """
    owners_by_key: dict[PropKey, list[int]] = {}
    for eid in set(classes):
        for key in model.entity(eid).properties:  # distinct within an entity
            owners_by_key.setdefault(key, []).append(eid)

    keys_by_owners: dict[frozenset[int], list[PropKey]] = {}
    for key, owners in owners_by_key.items():
        keys_by_owners.setdefault(frozenset(owners), []).append(key)
    ranked = sorted(
        keys_by_owners.items(), key=lambda group: rank_key(model, group[0], len(group[1]))
    )
    return [Candidate(tuple(sorted(keys)), owners) for owners, keys in ranked]


class SharingIndex:
    """The top candidate of ``common_props`` over the top-level classes,
    kept up to date as the model changes.

    It holds each key's top-level owners, the keys of every owner set of two
    or more entities (only those can fire a rule), and a heap of those owner
    sets by ``rank_key``. An update pushes a fresh entry for every owner set
    whose key count changed; an entry whose count is no longer current is
    stale and dropped when it reaches the top.
    """

    def __init__(self, model: ClassModel) -> None:
        self._model = model
        self._keys: dict[int, set[PropKey]] = {}
        owners: dict[PropKey, list[int]] = {}
        for eid in model.entity_ids():
            if model.is_top_level(eid):
                keys = self._keys[eid] = prop_type_set(model, eid)
                for key in keys:
                    owners.setdefault(key, []).append(eid)
        self._owners = {key: frozenset(ids) for key, ids in owners.items()}
        self._groups: dict[frozenset[int], set[PropKey]] = {}
        for key, ids in self._owners.items():
            if len(ids) > 1:
                self._groups.setdefault(ids, set()).add(key)
        self._heap = [self._entry(ids) for ids in self._groups]
        heapify(self._heap)

    def _entry(self, ids: frozenset[int]):
        freq = len(self._groups[ids])
        return rank_key(self._model, ids, freq), ids, freq

    def top(self) -> Optional[Candidate]:
        """``common_props`` over the top-level classes, first entry, if it is
        shared by two or more classes; otherwise ``None``."""
        heap, groups = self._heap, self._groups
        while heap:
            _, ids, freq = heap[0]
            keys = groups.get(ids)
            if keys is not None and len(keys) == freq:
                return Candidate(tuple(sorted(keys)), ids)
            heappop(heap)
        return None

    def update(self, eids: Iterable[int]) -> None:
        """Re-read the top-level status and the declarations of ``eids``."""
        model = self._model
        gone: dict[PropKey, set[int]] = {}
        came: dict[PropKey, set[int]] = {}
        for eid in eids:
            old = self._keys.pop(eid, set())
            new = prop_type_set(model, eid) if model.is_top_level(eid) else set()
            if new:
                self._keys[eid] = new
            for key in old - new:
                gone.setdefault(key, set()).add(eid)
            for key in new - old:
                came.setdefault(key, set()).add(eid)

        changed: set[frozenset[int]] = set()
        for key in gone.keys() | came.keys():
            before = self._owners.pop(key, frozenset())
            after = before.difference(gone.get(key, ())).union(came.get(key, ()))
            if after:
                self._owners[key] = after
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
