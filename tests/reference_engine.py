"""Reference engine: every pass re-ranks every superclass and the whole
top-level set, and the multiple-inheritance pass ranks every entity.

This is the engine's full re-ranking loop before it was made incremental:
each attempt ranks its class set with ``common_props`` and hands the first
candidate to ``apply_shared_superclass_rule``. The multiple-inheritance pass
is the one from before it learned to rank only the entities that share a
key. The engine must fire the same rules in the same order, take the same
number of passes and save the same bytes.
"""

from __future__ import annotations

from pullup.analysis import common_props
from pullup.engine import EngineOptions
from pullup.model import Origin
from pullup.rules import RuleApplication, RuleKind, apply_shared_superclass_rule


def reference_attempt(model, super_id, classes, min_subclasses=2):
    """Rank ``classes`` and fire their first candidate, if any."""
    ranking = common_props(model, classes)
    if not ranking:
        return None
    return apply_shared_superclass_rule(model, super_id, ranking[0], min_subclasses)


def reference_restructure(model, options=None):
    """Transform ``model`` in place; return ``(applications, iterations)``."""
    options = options or EngineOptions()
    applications = []
    iterations = 0
    while True:
        applied = False
        for eid in model.entity_ids():
            subs = model.child_map().get(eid)
            if not subs:
                continue
            app = reference_attempt(model, eid, subs, options.min_subclasses)
            if app is not None:
                applications.append(app)
                applied = True
        tops = {eid for eid in model.entity_ids() if model.is_top_level(eid)}
        app = reference_attempt(model, None, tops, options.min_subclasses)
        if app is not None:
            applications.append(app)
            applied = True
        iterations += 1
        if not applied:
            break
    if options.multi_inheritance:
        applications.extend(reference_multiple_inheritance(model))
    return applications, iterations


def reference_multiple_inheritance(model):
    """The multiple-inheritance pass over a ranking of every entity."""
    applications = []
    for candidate in common_props(model, model.entity_ids()):
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
        applications.append(
            RuleApplication(kind, candidate.keys, frozenset(sources), target, created)
        )
    return applications
