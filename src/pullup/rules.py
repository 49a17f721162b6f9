"""The restructuring rules.

``apply_shared_superclass_rule`` fires the rule that the top-ranked
candidate among some classes calls for. It does not rank: the fixpoint
engine ranks the classes (``pullup.analysis``) and hands it the first
candidate. It covers the three core rules:

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
one exists. It reports each firing only by calling ``on_apply`` with its
:class:`RuleApplication`, which is how the engine records it.

Every firing, of any rule, is one call of the private primitive ``_hoist``:
create the target class unless one is given (below the old superclass for
rule 2), move the keys onto it, and attach the sources to it. Rule 1 hands
it the existing superclass, rules 2 and 3 and the new-class branch of the
multiple-inheritance pass let it create one, and the reuse branch hands it
the reused class. Only ``_hoist`` changes the model here.

Every application is atomic: preconditions are checked before the first
mutation, so a raised :class:`~pullup.errors.RuleError` leaves the model
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

from .analysis import Candidate, common_props, sharing_classes
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


def _hoist(
    model: ClassModel,
    keys: Sequence[PropKey],
    sources: Iterable[int],
    target: Optional[int] = None,
    below: Optional[int] = None,
) -> int:
    """Move ``keys`` from every source onto ``target`` and make each source a
    direct subclass of it; return the target.

    Without a ``target`` a fresh class is created. The target gets the keys
    it lacks; each source, in id order, loses the keys, leaves ``below``
    when that is given and gains the edge to the target unless it has it
    already. The target then takes the sources' place below ``below``. Every
    source must declare every key, which is checked before the first
    mutation.
    """
    sources = sorted(sources)
    for sid in sources:
        own = model.entity(sid).properties
        for key in keys:
            if own.get(key.prop_name) != key:
                raise RuleError(
                    f"source {model.entity(sid).name} does not declare "
                    f"({key.prop_name}, {key.type_name})"
                )
    if target is None:
        target = model.create_entity()
    have = model.entity(target).properties
    for key in keys:
        if have.get(key.prop_name) != key:
            model.add_property(target, key)
    # The edges go in unchecked, as none can close a cycle: a fresh target has
    # no ancestors and nothing below it but the sources' subtrees, which cannot
    # hold ``below``, their direct superclass. Rule 1's target has the edges
    # already, and a reused target is top-level.
    for sid in sources:
        for key in keys:
            model.delete_property(sid, key.prop_name)
        if below is not None:
            model.delete_generalization(sid, below)
        model._link(sid, target)
    if below is not None:
        # Last, so that ``below``'s child set has shrunk before it grows: a
        # set resized on the way up keeps the larger table.
        model._link(target, below)
    return target


def apply_shared_superclass_rule(
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
    if min_subclasses < 1:
        raise RuleError("min_subclasses must be >= 1")
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
            and target.properties.keys().isdisjoint(k.prop_name for k in keys)
        ):
            _hoist(model, keys, owners, target=super_id)
            return RuleApplication(RuleKind.RULE1, keys, owners, super_id)

    if len(owners) <= 1:
        return None
    nc = _hoist(model, keys, owners, below=super_id)
    kind = RuleKind.RULE3 if super_id is None else RuleKind.RULE2
    return RuleApplication(kind, keys, owners, nc, created=nc)


def exploit_multiple_inheritance(
    model: ClassModel, on_apply: Callable[[RuleApplication], object]
) -> None:
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

    ``on_apply`` is called with each application right after it mutated the
    model.
    """
    for candidate in common_props(model, sharing_classes(model)):
        if len(candidate.owners) <= 1:
            break
        keys = candidate.keys
        owners = {
            oid
            for oid in candidate.owners
            if all(model.entity(oid).properties.get(k.prop_name) == k for k in keys)
        }
        if len(owners) < 2:
            continue

        reused = min(
            (
                oid
                for oid in owners
                if model.is_top_level(oid)
                and model.entity(oid).origin is Origin.SYNTHESIZED
                # an owner declares every key, so only the count can differ
                and len(model.entity(oid).properties) == len(keys)
            ),
            key=lambda oid: model.entity(oid).name,
            default=None,
        )
        sources = frozenset(owners - {reused})
        target = _hoist(model, keys, sources, target=reused)
        if reused is None:
            kind, created = RuleKind.MULTI_INHERIT_NEW, target
        else:
            kind, created = RuleKind.MULTI_INHERIT_REUSE, None
        on_apply(RuleApplication(kind, keys, sources, target, created))
