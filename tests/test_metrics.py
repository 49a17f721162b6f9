from dataclasses import astuple

import pytest
from hypothesis import HealthCheck, given, settings

from pullup.engine import EngineOptions, restructure
from pullup.errors import ModelError
from pullup.generate import Family, GeneratorSpec, generate_model
from pullup.metrics import (
    declaration_count,
    duplication_count,
    effectiveness,
    hierarchy_restriction_equal,
    max_inheritance_depth,
    snapshot,
)
from pullup.model import ClassModel

from conftest import build_model
from shapes import shapes


def test_declaration_count_fixture_models(left_model, right_model):
    assert declaration_count(left_model) == 8
    assert declaration_count(right_model) == 7
    assert declaration_count(ClassModel()) == 0


def test_declaration_count_matches_incremental_counter(left_model):
    restructure(left_model, EngineOptions(multi_inheritance=True))
    assert declaration_count(left_model) == sum(
        len(e.properties) for e in left_model.entities()
    )


def test_duplication_count_left_example(left_model):
    # exhaustive tally oracle: a and b duplicated once, c twice, d never
    tally = {}
    for e in left_model.entities():
        for k in e.prop_keys():
            tally[k] = tally.get(k, 0) + 1
    assert sum(n - 1 for n in tally.values() if n > 1) == 4
    assert duplication_count(left_model) == 4


def test_duplication_count_after_core_right_example(right_model):
    restructure(right_model, EngineOptions())
    assert duplication_count(right_model) == 1


def test_duplication_zero_after_extension(left_model, right_model):
    for m in (left_model, right_model):
        restructure(m, EngineOptions(multi_inheritance=True))
        assert duplication_count(m) == 0


def test_effectiveness():
    from pullup.metrics import MetricsSnapshot

    def _snap(dup):
        return MetricsSnapshot(0, 0, dup, 0, 0)

    assert effectiveness(_snap(4), _snap(0)) == 1.0
    assert effectiveness(_snap(4), _snap(2)) == 0.5
    assert effectiveness(_snap(0), _snap(0)) is None


def test_max_inheritance_depth():
    m = build_model(
        {"A": [], "B": [], "C": [], "D": []},
        edges=[("B", "A"), ("C", "B"), ("D", "A")],
    )
    assert max_inheritance_depth(m) == 2
    assert max_inheritance_depth(build_model({"X": ["x"]})) == 0


def test_snapshot_fields(left_model):
    snap = snapshot(left_model)
    assert snap.entity_count == 4
    assert snap.declaration_count == 8
    assert snap.duplication_count == 4
    assert snap.top_level_count == 4
    assert snap.max_inheritance_depth == 0


def test_hierarchy_restriction_holds_after_restructure(left_model):
    before = left_model.clone()
    restructure(left_model, EngineOptions(multi_inheritance=True))
    assert hierarchy_restriction_equal(before, left_model)


def test_hierarchy_restriction_detects_new_original_edge():
    before = build_model({"A": [], "B": []})
    after = before.clone()
    after.add_generalization(after.entity_id("B"), after.entity_id("A"))
    assert not hierarchy_restriction_equal(before, after)


def test_hierarchy_restriction_reflexive(left_model):
    assert hierarchy_restriction_equal(left_model, left_model)


def test_hierarchy_restriction_mismatched_ids():
    a = build_model({"A": []})
    b = build_model({"A": [], "B": []})
    with pytest.raises(ModelError):
        hierarchy_restriction_equal(a, b)


def test_metrics_leave_model_untouched(left_model):
    before = left_model.clone()
    snapshot(left_model)
    duplication_count(left_model)
    max_inheritance_depth(left_model)
    assert left_model == before


def naive_snapshot(model):
    """The snapshot fields recomputed entity by entity, edge by edge."""
    owners = {}
    for e in model.entities():
        for key in e.prop_keys():
            owners[key] = owners.get(key, 0) + 1

    def depth(eid):
        sups = model.direct_superclasses(eid)
        return 1 + max(depth(s) for s in sups) if sups else 0

    return (
        len(model.entity_ids()),
        sum(len(e.properties) for e in model.entities()),
        sum(n - 1 for n in owners.values()),
        sum(1 for eid in model.entity_ids() if not model.direct_superclasses(eid)),
        max((depth(eid) for eid in model.entity_ids()), default=0),
    )


@pytest.mark.parametrize("family", list(Family))
def test_snapshot_matches_naive_count_on_generated_models(family):
    for scale, seed in ((1, 1), (12, 2), (40, 3)):
        model = generate_model(GeneratorSpec(family, scale, seed))
        assert astuple(snapshot(model)) == naive_snapshot(model)
        for multi in (False, True):
            out = model.clone()
            report = restructure(out, EngineOptions(multi_inheritance=multi))
            assert astuple(snapshot(out)) == naive_snapshot(out)
            assert report.metrics_after == snapshot(out)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model=shapes())
def test_snapshot_matches_naive_count_on_awkward_shapes(model):
    assert astuple(snapshot(model)) == naive_snapshot(model)
    restructure(model, EngineOptions(multi_inheritance=True))
    assert astuple(snapshot(model)) == naive_snapshot(model)


def test_snapshot_counts_a_deep_chain_a_diamond_and_a_deleted_edge():
    chain = build_model({f"C{i}": [] for i in range(6)},
                        edges=[(f"C{i + 1}", f"C{i}") for i in range(5)])
    diamond = build_model({"A": ["a"], "B": [], "C": [], "D": ["a"]},
                          edges=[("B", "A"), ("C", "A"), ("D", "B"), ("D", "C")])
    cut = build_model({"A": [], "B": [], "C": []}, edges=[("B", "A"), ("C", "B")])
    cut.delete_generalization(cut.entity_id("C"), cut.entity_id("B"))
    assert astuple(snapshot(chain)) == naive_snapshot(chain) == (6, 0, 0, 1, 5)
    assert astuple(snapshot(diamond)) == naive_snapshot(diamond) == (4, 2, 1, 1, 2)
    assert astuple(snapshot(cut)) == naive_snapshot(cut) == (3, 0, 0, 2, 1)
