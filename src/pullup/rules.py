"""The restructuring rules.

``apply_shared_superclass_rule`` finds the top-ranked candidate among some
classes and ``apply_candidate`` fires the rule it calls for; together they
cover the three core rules:

* rule 1 - the top candidate is shared by *all* given classes and a common
  superclass exists: move the keys into that superclass. A superclass that
  already declares one of the key names keeps its declarations; rule 2 then
  gives all of its subclasses a new intermediate superclass instead.
* rule 2 - a strict subset (>= 2) of a superclass's direct subclasses shares
  the keys: insert a new intermediate superclass below the old one.
* rule 3 - no superclass given (top-level classes): create a new common
  superclass for the sharing subset.

``exploit_multiple_inheritance`` is the optional final pass that removes all
remaining declared duplication by giving entities additional parents, reusing
a synthesized top-level class that declares exactly the shared keys where
one exists.

Every application is atomic: preconditions are checked before the first
mutation, so a raised :class:`~pullup.errors.RuleError` leaves the model
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import AbstractSet, Iterable, Optional, Sequence

from .analysis import (
    Candidate,
    common_props,
    shares_a_key,
    sharing_classes,
    top_candidate,
)
from .errors import RuleError
from .model import ClassModel, Origin, PropKey


class RuleKind(Enum):
    RULE1 = "rule1"
    RULE2 = "rule2"
    RULE3 = "rule3"
    MULTI_INHERIT_REUSE = "multi-inherit-reuse"
    MULTI_INHERIT_NEW = "multi-inherit-new"


@dataclass(frozen=True)
class RuleApplication:
    """Audit record of one successful rule firing."""

    rule: RuleKind
    keys: tuple[PropKey, ...]
    sources: frozenset[int]
    target: int
    created: Optional[int] = None


def pull_up_props(
    model: ClassModel,
    keys: Iterable[PropKey],
    sources: Iterable[int],
    target: int,
) -> None:
    """Move ``keys`` from every source entity onto ``target``.

    Preconditions: every source declares every key, the target declares none
    of the key names, and the target is not itself a source.
    """
    keys = list(keys)
    source_ids = set(sources)
    if target in source_ids:
        raise RuleError(
            f"pull-up target {model.entity(target).name} is among the sources"
        )
    target_names = model.entity(target).prop_names()
    for key in keys:
        if key.prop_name in target_names:
            raise RuleError(
                f"target {model.entity(target).name} already declares "
                f"property {key.prop_name}"
            )
    _check_sources(model, keys, source_ids)
    _move_keys(model, keys, source_ids, target)


def _check_sources(
    model: ClassModel, keys: Sequence[PropKey], sources: AbstractSet[int]
) -> None:
    for sid in sources:
        own = model.entity(sid).prop_keys()
        for key in keys:
            if key not in own:
                raise RuleError(
                    f"source {model.entity(sid).name} does not declare "
                    f"({key.prop_name}, {key.type_name})"
                )


def _move_keys(
    model: ClassModel, keys: Sequence[PropKey], sources: AbstractSet[int], target: int
) -> None:
    for key in keys:
        model.add_property(target, key)
        for sid in sorted(sources):
            model.delete_property(sid, key.prop_name)


def apply_shared_superclass_rule(
    model: ClassModel,
    super_id: Optional[int],
    classes: Iterable[int],
    min_subclasses: int = 2,
) -> Optional[RuleApplication]:
    """Try the top-ranked candidate among ``classes``; report what fired.

    With ``super_id`` set, ``classes`` must be exactly its direct subclasses
    (rules 1 and 2); with ``super_id`` absent they are the top-level classes
    (rule 3). ``classes`` is copied before anything changes, so it may be a
    live set of the model. Returns ``None`` when no rule applies. The firing
    itself is :func:`apply_candidate`'s.
    """
    if min_subclasses < 1:
        raise RuleError("min_subclasses must be >= 1")
    class_ids = frozenset(classes)
    if super_id is not None:
        target = model.entity(super_id)
        if class_ids != model.child_map().get(super_id, frozenset()):
            raise RuleError(f"classes are not the direct subclasses of {target.name}")
    if len(class_ids) > 1 and not shares_a_key(model, class_ids):
        # Every rule needs a key that two of the classes declare.
        return None
    candidate = top_candidate(model, class_ids)
    if candidate is None:
        return None
    return apply_candidate(model, super_id, candidate, min_subclasses)


def apply_candidate(
    model: ClassModel,
    super_id: Optional[int],
    candidate: Candidate,
    min_subclasses: int = 2,
) -> Optional[RuleApplication]:
    """Fire the rule that ``candidate``, the top-ranked candidate among the
    direct subclasses of ``super_id`` (or among the top-level classes when
    ``super_id`` is absent), calls for; ``None`` when it calls for none.

    Rule 1 hoists the keys into ``super_id`` when the candidate's owners are
    all of its direct subclasses, at least ``min_subclasses`` of them (value 1
    also hoists from an only child), and ``super_id`` declares none of the
    key names. Otherwise two or more owners get a fresh common superclass:
    rule 2 places it below ``super_id``, rule 3 at the top level.
    """
    keys, owners = candidate.keys, candidate.owners
    if super_id is not None:
        target = model.entity(super_id)
        subs = model.child_map().get(super_id, frozenset())
        if not owners <= subs:
            raise RuleError(
                f"candidate owners are not direct subclasses of {target.name}"
            )
        if (
            owners == subs
            and len(owners) >= min_subclasses
            and target.prop_names().isdisjoint([k.prop_name for k in keys])
        ):
            pull_up_props(model, keys, owners, super_id)
            return RuleApplication(RuleKind.RULE1, keys, owners, super_id)

    if len(owners) <= 1:
        return None
    _check_sources(model, keys, owners)  # before the first mutation
    nc = model.create_entity()
    _move_keys(model, keys, owners, nc)
    for sid in sorted(owners):
        if super_id is not None:
            model.delete_generalization(sid, super_id)
        model.add_generalization(sid, nc)
    if super_id is not None:
        model.add_generalization(nc, super_id)
        return RuleApplication(RuleKind.RULE2, keys, owners, nc, created=nc)
    return RuleApplication(RuleKind.RULE3, keys, owners, nc, created=nc)


def exploit_multiple_inheritance(
    model: ClassModel, on_apply=None
) -> list[RuleApplication]:
    """Remove all remaining declared duplication in one pass.

    Candidates are computed once and processed in ranking order until the
    first one owned by a single entity. Only the entities that declare a key
    some other entity also declares are ranked: every candidate with two or
    more owners lies among them, in the order ranking all entities gives.
    Per candidate, owners that no longer declare all keys are dropped against
    the live model; a candidate with fewer than two remaining owners is
    skipped. A top-level synthesized owner that declares exactly the
    candidate's keys is reused as the common superclass when one exists
    (one declaring more would hand its other keys to the other owners),
    otherwise a new entity is created.

    ``on_apply``, when given, is called with each application right after it
    mutated the model.
    """
    applications: list[RuleApplication] = []
    for candidate in common_props(model, sharing_classes(model)):
        if len(candidate.owners) <= 1:
            break
        keys = set(candidate.keys)
        owners = {
            oid for oid in candidate.owners if model.entity(oid).prop_keys() >= keys
        }
        if len(owners) < 2:
            continue

        reusable = [
            oid
            for oid in owners
            if model.is_top_level(oid)
            and model.entity(oid).origin is Origin.SYNTHESIZED
            and model.entity(oid).prop_keys() == keys
        ]
        if reusable:
            target = min(reusable, key=lambda oid: model.entity(oid).name)
            sources = sorted(owners - {target})
            kind, created = RuleKind.MULTI_INHERIT_REUSE, None
        else:
            target = created = model.create_entity()
            sources = sorted(owners)
            kind = RuleKind.MULTI_INHERIT_NEW
            for key in candidate.keys:
                model.add_property(target, key)
        for oid in sources:
            for key in candidate.keys:
                model.delete_property(oid, key.prop_name)
            if not model.has_generalization(oid, target):
                model.add_generalization(oid, target)
        app = RuleApplication(kind, candidate.keys, frozenset(sources), target, created)
        applications.append(app)
        if on_apply is not None:
            on_apply(app)
    return applications
