"""Model measurements: sizes, duplication, hierarchy shape, and the
before/after comparisons used to judge a restructuring run.

All functions leave the model untouched. The counts are the model's own:
``ClassModel.declared_property_count``, ``duplication_count`` and
``duplicated_keys()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import CycleError, ModelError
from .model import ClassModel, Origin


@dataclass(frozen=True)
class MetricsSnapshot:
    entity_count: int
    declaration_count: int
    duplication_count: int
    top_level_count: int
    max_inheritance_depth: int


def max_inheritance_depth(model: ClassModel) -> int:
    """Length of the longest generalization chain (0 for a flat model), which
    the model keeps from its last Kahn peel (the loader's cycle check runs
    one) until an edge changes. ``CycleError`` on a cyclic hierarchy."""
    depth = model._kept_depth()
    if depth is None:
        raise CycleError("generalization cycle; validate() names its classes")
    return depth


def top_level_count(model: ClassModel) -> int:
    """Entities without a superclass."""
    return len(model) - sum(map(bool, model.parent_map().values()))


def snapshot(model: ClassModel) -> MetricsSnapshot:
    return MetricsSnapshot(
        entity_count=len(model),
        declaration_count=model.declared_property_count,
        duplication_count=model.duplication_count,
        top_level_count=top_level_count(model),
        max_inheritance_depth=max_inheritance_depth(model),
    )


def effectiveness(before: MetricsSnapshot, after: MetricsSnapshot) -> Optional[float]:
    """Fraction of the input's duplication the run removed.

    ``None`` means the input had no duplication to remove.
    """
    if before.duplication_count == 0:
        return None
    removed = before.duplication_count - after.duplication_count
    return removed / before.duplication_count


def _original_specialization(model: ClassModel) -> dict[int, frozenset[int]]:
    originals = {
        e.id for e in model.entities() if e.origin is Origin.ORIGINAL
    }
    return {
        eid: frozenset(model.ancestors(eid) & originals) for eid in originals
    }


def hierarchy_restriction_equal(before: ClassModel, after: ClassModel) -> bool:
    """Is the transitive specialization relation over the original entities
    the same in both models?

    ``after`` must derive from ``before``: the original entity id sets have
    to match exactly.
    """
    rel_before = _original_specialization(before)
    rel_after = _original_specialization(after)
    if rel_before.keys() != rel_after.keys():
        raise ModelError("mismatched original entity id sets")
    return rel_before == rel_after
