"""Fixpoint driver: applies the rules until nothing changes, then optionally
runs the multiple-inheritance pass, and reports what happened.

Each outer pass sweeps rules 1 and 2 over the superclasses in entity order,
then tries rule 3 once on the top-level classes; the core fixpoint ends with
the first pass that fires nothing. The passes are incremental, yet fire
exactly what re-ranking everything in every pass would:

* A superclass whose rules-1/2 attempt fired nothing is not ranked again
  until a firing changes one of that attempt's inputs: its own declarations,
  its set of direct subclasses, or the declarations of one of them. Each
  firing marks its sources and its target, and all direct superclasses of
  each, as dirty. A sweep visits only dirty superclasses, in entity order:
  one marked ahead of the sweep is still visited in it, one marked behind it
  or created during it waits for the next pass.
* The first sweep starts with every entity dirty under ``min_subclasses=1``,
  where rule 1 may hoist from an only child. Otherwise every firing needs a
  key that two direct subclasses declare, so it starts with only the
  superclasses of the entities that declare a key some other entity also
  declares (read from the model's live owner count): none on a model
  without duplication.
* Rule 3 reads its candidate from a :class:`~pullup.analysis.SharingIndex`
  over the top-level classes instead of ranking all of them in every pass.
  The index is built once two top-level classes share a key (until then an
  attempt fires nothing; a model without duplication is not even scanned)
  and then updated from the sources and the target of each firing.

The dirty marks and the index are dropped when the core fixpoint ends,
before the multiple-inheritance pass. ``tests/reference_engine.py`` keeps the
full re-ranking loop; the tests hold this engine to the same output bytes,
pass count and firings.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Iterator, Optional

from .analysis import SharingIndex, shares_a_key, sharing_classes
from .errors import IterationLimitExceeded, RuleError
from .metrics import MetricsSnapshot, snapshot
from .model import ClassModel
from .rules import (
    RuleApplication,
    apply_candidate,
    apply_shared_superclass_rule,
    exploit_multiple_inheritance,
)

log = logging.getLogger(__name__)


@dataclass
class EngineOptions:
    multi_inheritance: bool = False
    min_subclasses: int = 2
    max_iterations: Optional[int] = None
    trace: bool = False


@dataclass
class RestructureReport:
    applications: list[RuleApplication] = field(default_factory=list)
    iterations: int = 0
    created_entities: frozenset[int] = frozenset()
    metrics_before: Optional[MetricsSnapshot] = None
    metrics_after: Optional[MetricsSnapshot] = None

    @property
    def new_class_count(self) -> int:
        return len(self.created_entities)


class _CoreState:
    """What the core passes remember between firings: the dirty entities
    and the top-level sharing index.

    Entity ids grow in entity order (the model appends every new entity with
    the next id), so a sweep orders its worklist by id.
    """

    def __init__(self, model: ClassModel, min_subclasses: int) -> None:
        self.model = model
        ids = model.entity_ids()
        self.dirty: set[int] = (
            set(ids) if min_subclasses < 2 else _sharing_parents(model)
        )
        self.index: Optional[SharingIndex] = None
        # No two top-level classes share a key, and no firing changed one since.
        self.unshared = False
        self._newest = ids[-1] if ids else 0
        # The running sweep's worklist; ids in (cursor, limit] are ahead of it.
        self._queue: list[int] = []
        self._cursor = self._limit = 0

    def sweep(self) -> Iterator[int]:
        """Yield the dirty entities that exist now, in entity order, each
        unmarked as it is yielded."""
        self._limit = limit = self._newest
        queue = self._queue = [eid for eid in self.dirty if eid <= limit]
        heapify(queue)
        while queue:
            eid = heappop(queue)
            self.dirty.discard(eid)
            self._cursor = eid
            yield eid
        self._cursor = self._limit = 0
        # A set keeps its table size as it empties and iterating it walks the
        # whole table, so compact it after each sweep.
        self.dirty = set(self.dirty)

    def touch(self, app: RuleApplication) -> None:
        """Mark what ``app`` changed and update the index with it."""
        parents = self.model.parent_map()
        changed = {app.target, *app.sources}
        hit = set(changed)
        for eid in changed:
            hit.update(parents.get(eid, ()))
        if app.created is not None:
            self._newest = max(self._newest, app.created)
        for eid in hit:
            if eid not in self.dirty:
                self.dirty.add(eid)
                if self._cursor < eid <= self._limit:
                    heappush(self._queue, eid)
        if self.index is not None:
            self.index.update(changed)
        elif self.unshared:
            self.unshared = all(parents.get(eid) for eid in changed)


def _sharing_parents(model: ClassModel) -> set[int]:
    """The superclasses of the entities that declare a duplicated key.

    Unless rule 1 may hoist from an only child, a rules-1/2 attempt fires
    only where two direct subclasses declare the same key, so these are the
    only superclasses a first sweep can fire on.
    """
    parents = model.parent_map()
    return {sup for eid in sharing_classes(model) for sup in parents.get(eid, ())}


def _record(
    model: ClassModel,
    options: EngineOptions,
    applications: Optional[list[RuleApplication]],
    app: Optional[RuleApplication],
    decls_before: int,
) -> bool:
    if app is None:
        return False
    if options.min_subclasses >= 2 and model.declared_property_count >= decls_before:
        # Termination potential: every firing must remove declarations.
        raise RuleError(f"rule application did not decrease declarations: {app}")
    if options.trace:
        log.info(
            "%s keys=%s sources=%s target=%s",
            app.rule.value,
            [k.prop_name for k in app.keys],
            sorted(model.entity(s).name for s in app.sources),
            model.entity(app.target).name,
        )
    if applications is not None:
        applications.append(app)
    return True


def pass_rules_1_2(
    model: ClassModel,
    options: EngineOptions,
    applications: Optional[list[RuleApplication]] = None,
    state: Optional[_CoreState] = None,
) -> bool:
    """One sweep of rules 1 and 2 over the superclasses ``state`` marks dirty
    (without a ``state``, over all of them), in entity order.

    Entities created mid-pass are not visited until the next pass.
    """
    if state is None:
        state = _CoreState(model, options.min_subclasses)
    applied = False
    children = model.child_map()
    for eid in state.sweep():
        subs = children.get(eid)
        if not subs:
            continue
        decls = model.declared_property_count
        app = apply_shared_superclass_rule(model, eid, subs, options.min_subclasses)
        if _record(model, options, applications, app, decls):
            state.touch(app)
            applied = True
    return applied


def pass_rule_3(
    model: ClassModel,
    options: EngineOptions,
    applications: Optional[list[RuleApplication]] = None,
    state: Optional[_CoreState] = None,
) -> bool:
    """One rule-3 attempt over the current top-level classes."""
    if state is None:
        state = _CoreState(model, options.min_subclasses)
    if state.index is None:
        parents = model.parent_map()
        if (
            state.unshared
            or not model.duplication_count
            or not shares_a_key(
                model, (eid for eid in model.entity_ids() if not parents.get(eid))
            )
        ):
            state.unshared = True
            return False  # a candidate with one owner fires nothing
        state.index = SharingIndex(model)
    candidate = state.index.top()
    if candidate is None:
        return False
    decls = model.declared_property_count
    app = apply_candidate(model, None, candidate, options.min_subclasses)
    if not _record(model, options, applications, app, decls):
        return False
    state.touch(app)
    return True


def restructure(
    model: ClassModel, options: Optional[EngineOptions] = None
) -> RestructureReport:
    """Run the core fixpoint (and the extension, when enabled) on ``model``.

    The model is transformed in place; the returned report carries the
    applied rules, the outer-pass count, the synthesized entities, and
    metrics snapshots from before and after.
    """
    options = options or EngineOptions()
    if options.min_subclasses < 1:
        raise RuleError("min_subclasses must be >= 1")
    before = snapshot(model)
    applications: list[RuleApplication] = []
    state = _CoreState(model, options.min_subclasses)
    iterations = 0
    while True:
        r12 = pass_rules_1_2(model, options, applications, state)
        r3 = pass_rule_3(model, options, applications, state)
        iterations += 1
        if not (r12 or r3):
            break
        if options.max_iterations is not None and iterations >= options.max_iterations:
            report = _finish(model, before, applications, iterations)
            raise IterationLimitExceeded(
                f"no fixpoint after {iterations} iterations", report=report
            )
    del state  # free the sharing index before the multiple-inheritance pass
    if options.multi_inheritance:
        last = [model.declared_property_count]

        def on_apply(app: RuleApplication) -> None:
            _record(model, options, applications, app, last[0])
            last[0] = model.declared_property_count

        exploit_multiple_inheritance(model, on_apply=on_apply)
    return _finish(model, before, applications, iterations)


def _finish(
    model: ClassModel,
    before: MetricsSnapshot,
    applications: list[RuleApplication],
    iterations: int,
) -> RestructureReport:
    return RestructureReport(
        applications=applications,
        iterations=iterations,
        created_entities=frozenset(
            a.created for a in applications if a.created is not None
        ),
        metrics_before=before,
        # Every application is atomic: a run that fired nothing changed nothing.
        metrics_after=snapshot(model) if applications else before,
    )
