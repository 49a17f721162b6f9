"""Fixpoint driver: applies the rules until nothing changes, then optionally
runs the multiple-inheritance pass, and reports what happened.

Each outer pass sweeps rules 1 and 2 over the superclasses in entity order,
then tries rule 3 once on the top-level classes; the core fixpoint ends with
the first pass that fires nothing. The passes are incremental, yet fire
exactly what re-ranking everything in every pass would:

* A superclass whose rules-1/2 attempt fired nothing is not ranked again
  until a firing can make it fire. A set whose members only lose keys still
  fires nothing, except rule 1 blocked on an only child by a key name its
  superclass declares too. So a firing marks its target and sources (their
  own declarations changed), the target's direct superclasses, and each
  superclass recorded as blocked on one of its sources. A sweep visits only
  dirty superclasses, in entity order: one marked ahead of the sweep is
  still visited in it, one marked behind it or created during it waits for
  the next pass.
* The first sweep starts with every entity dirty under ``min_subclasses=1``,
  where rule 1 may hoist from an only child. Otherwise every firing needs a
  key that two direct subclasses declare, so it starts with only the
  superclasses of the entities that declare a key some other entity also
  declares (read from the model's live owner count): none on a model
  without duplication.
* Every attempt ranks one class set, a superclass's direct subclasses
  (rules 1/2) or the top-level classes (rule 3, as if under a root ``None``),
  and fires the top candidate. Child sets of ``INDEXED_CHILDREN`` or more
  classes, and the top level once a key has two owners, are ranked from a
  :class:`~pullup.analysis.SharingIndex` built at their first attempt and
  updated from each firing; smaller sets, and a set with one member (only
  ranking from scratch offers an only child's keys to rule 1), from scratch.

The dirty marks and the indexes are dropped when the core fixpoint ends,
before the multiple-inheritance pass. ``tests/reference_engine.py`` keeps the
full re-ranking loop; the tests hold this engine to the same output bytes,
pass count and firings.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Iterator, Optional

from .analysis import Candidate, SharingIndex, sharing_classes, top_candidate
from .errors import IterationLimitExceeded, RuleError
from .metrics import MetricsSnapshot, snapshot
from .model import ClassModel
from .rules import (
    RuleApplication,
    apply_shared_superclass_rule,
    exploit_multiple_inheritance,
)

log = logging.getLogger(__name__)

# The smallest class set ranked from a SharingIndex. Up to ~60 classes an
# index costs what ranking from scratch at every attempt does: below a root
# over a seed-8 `flat` model, where rule 2 fires once per ~3.5 children, 56
# children took 1.9 ms indexed and 2.0 ms from scratch, 112 took 4.1 and
# 7.0 ms (2-vCPU host). Indexing `star`'s 2-5-child sets made it ~40% slower.
INDEXED_CHILDREN = 64


@dataclass
class EngineOptions:
    multi_inheritance: bool = False
    min_subclasses: int = 2
    max_iterations: Optional[int] = None


@dataclass
class RestructureReport:
    applications: list[RuleApplication] = field(default_factory=list)
    iterations: int = 0
    metrics_before: Optional[MetricsSnapshot] = None
    metrics_after: Optional[MetricsSnapshot] = None

    @property
    def created_entities(self) -> frozenset[int]:
        return frozenset(a.created for a in self.applications if a.created is not None)

    @property
    def new_class_count(self) -> int:
        return len(self.created_entities)


class _CoreState:
    """One run of the core fixpoint: the model and options, the applications
    recorded so far, and what the passes remember between firings: the dirty
    entities, the superclasses blocked on each only child, and the sharing
    index of each indexed class set, by parent (``None`` for the top level).

    Ids are dense and in entity order (see :class:`~pullup.model.ClassModel`),
    so a sweep orders its worklist by id and the newest id is ``len(model)``.
    """

    def __init__(self, model: ClassModel, options: EngineOptions) -> None:
        self.model = model
        self.options = options
        self.applications: list[RuleApplication] = []
        self._decls = model.declared_property_count  # at the last record
        if options.min_subclasses < 2:
            self.dirty = set(model.entity_ids())
        else:
            parents = model.parent_map()
            self.dirty = {p for eid in sharing_classes(model) for p in parents.get(eid, ())}
        self.blocked: dict[int, set[int]] = {}
        self.indexes: dict[Optional[int], SharingIndex] = {}
        # The running sweep's worklist; ids in (cursor, limit] are ahead of it.
        self._queue: list[int] = []
        self._cursor = self._limit = 0

    def record(self, app: RuleApplication) -> None:
        """Log and append ``app`` right after it changed the model. Under
        ``min_subclasses`` >= 2 the declarations must have fallen since the
        last record; every application is atomic, so an attempt that fired
        nothing in between changed none."""
        model, decls = self.model, self.model.declared_property_count
        if self.options.min_subclasses >= 2 and decls >= self._decls:
            # Termination potential: every firing must remove declarations.
            raise RuleError(f"rule application did not decrease declarations: {app}")
        self._decls = decls
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "%s keys=%s sources=%s target=%s",
                app.rule.value,
                [k.prop_name for k in app.keys],
                sorted(model.entity(s).name for s in app.sources),
                model.entity(app.target).name,
            )
        self.applications.append(app)

    def attempt(self, parent: Optional[int]) -> bool:
        """Fire the top candidate among the direct subclasses of ``parent``
        (the top-level classes when it is ``None``), if it calls for a rule."""
        candidate = self.top(parent)
        if candidate is None:
            return False
        min_subclasses = self.options.min_subclasses
        app = apply_shared_superclass_rule(self.model, parent, candidate, min_subclasses)
        if app is None:
            if len(candidate.owners) == 1 and min_subclasses < 2:
                (child,) = candidate.owners  # rule 1 blocked on an only child
                self.blocked.setdefault(child, set()).add(parent)
            return False
        self.record(app)
        self.touch(app)
        return True

    def sweep(self) -> Iterator[int]:
        """Yield the dirty entities that exist now, in entity order, each
        unmarked as it is yielded."""
        self._limit = limit = len(self.model)
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

    def top(self, parent: Optional[int]) -> Optional[Candidate]:
        """The top candidate among the direct subclasses of ``parent``, or
        among the top-level classes when it is ``None``."""
        model, index = self.model, self.indexes.get(parent)
        if parent is not None:
            subs = model.child_map()[parent]
            if len(subs) == 1 or (index is None and len(subs) < INDEXED_CHILDREN):
                return top_candidate(model, subs)
        elif not model.duplication_count:
            return None  # every key has one owner
        if index is None:
            index = self.indexes[parent] = SharingIndex(model, parent)
        return index.top()

    def touch(self, app: RuleApplication) -> None:
        """Mark what ``app`` can make fire, and update the indexes of the
        sets that hold an entity it changed."""
        parents, indexes = self.model.parent_map(), self.indexes
        changed = {app.target, *app.sources}
        hit = changed.union(parents.get(app.target, ()))
        if self.blocked:
            for sid in app.sources:
                hit.update(self.blocked.pop(sid, ()))
        for eid in hit:
            if eid not in self.dirty:
                self.dirty.add(eid)
                if self._cursor < eid <= self._limit:
                    heappush(self._queue, eid)
        sets, n = set(), len(indexes)
        for eid in changed:  # walk the smaller side: its parents or the indexes
            sups = parents.get(eid) or (None,)
            sets.update(sups if len(sups) <= n else indexes.keys() & sups)
        for parent in indexes.keys() & sets:
            indexes[parent].update(changed)


def pass_rules_1_2(state: _CoreState) -> bool:
    """One sweep of rules 1 and 2 over the superclasses ``state`` marks
    dirty, in entity order. Entities created mid-pass wait for the next pass."""
    applied = False
    children = state.model.child_map()
    for eid in state.sweep():
        if children.get(eid) and state.attempt(eid):
            applied = True
    return applied


def pass_rule_3(state: _CoreState) -> bool:
    """One rule-3 attempt over the current top-level classes."""
    return state.attempt(None)


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
    if options.max_iterations is not None and options.max_iterations < 1:
        raise RuleError("max_iterations must be >= 1")
    before = snapshot(model)
    state = _CoreState(model, options)
    iterations = 0
    while True:
        r12 = pass_rules_1_2(state)
        r3 = pass_rule_3(state)
        iterations += 1
        if not (r12 or r3):
            break
        if iterations == options.max_iterations:
            report = _finish(model, before, state.applications, iterations)
            raise IterationLimitExceeded(
                f"no fixpoint after {iterations} iterations", report=report
            )
    # Free the marks and sharing indexes before the multiple-inheritance pass.
    del state.dirty, state.blocked, state.indexes
    if options.multi_inheritance:
        exploit_multiple_inheritance(model, on_apply=state.record)
    return _finish(model, before, state.applications, iterations)


def _finish(
    model: ClassModel,
    before: MetricsSnapshot,
    applications: list[RuleApplication],
    iterations: int,
) -> RestructureReport:
    return RestructureReport(
        applications=applications,
        iterations=iterations,
        metrics_before=before,
        # Every application is atomic: a run that fired nothing changed nothing.
        metrics_after=snapshot(model) if applications else before,
    )
