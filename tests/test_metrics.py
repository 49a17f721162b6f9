from collections import Counter
from dataclasses import astuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pullup import engine
from pullup.engine import EngineOptions, restructure
from pullup.errors import CycleError, GeneralizationError, ModelError
from pullup.generate import Family, GeneratorSpec, generate_model
from pullup.metrics import (
    effectiveness,
    hierarchy_restriction_equal,
    max_inheritance_depth,
    snapshot,
)
from pullup.model import ClassModel, PropKey
from pullup.modelfile import load_model, save_model

from conftest import build_model
from shapes import shapes


def test_declaration_count_fixture_models(left_model, right_model):
    assert left_model.declared_property_count == 8
    assert right_model.declared_property_count == 7
    assert ClassModel().declared_property_count == 0


def test_declaration_count_matches_incremental_counter(left_model):
    restructure(left_model, EngineOptions(multi_inheritance=True))
    assert left_model.declared_property_count == sum(
        len(e.properties) for e in left_model.entities()
    )


def test_duplication_count_left_example(left_model):
    # exhaustive tally oracle: a and b duplicated once, c twice, d never
    tally = {}
    for e in left_model.entities():
        for k in e.prop_keys():
            tally[k] = tally.get(k, 0) + 1
    assert sum(n - 1 for n in tally.values() if n > 1) == 4
    assert left_model.duplication_count == 4


def test_duplication_count_after_core_right_example(right_model):
    restructure(right_model, EngineOptions())
    assert right_model.duplication_count == 1


def test_duplication_zero_after_extension(left_model, right_model):
    for m in (left_model, right_model):
        restructure(m, EngineOptions(multi_inheritance=True))
        assert m.duplication_count == 0


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
    max_inheritance_depth(left_model)
    assert save_model(left_model) == save_model(before)


def naive_snapshot(model):
    """The snapshot fields recomputed entity by entity, edge by edge."""
    owners = {}
    for e in model.entities():
        for key in e.prop_keys():
            owners[key] = owners.get(key, 0) + 1

    def depth(eid):
        sups = model.parent_map().get(eid, ())
        return 1 + max(depth(s) for s in sups) if sups else 0

    return (
        len(model.entity_ids()),
        sum(len(e.properties) for e in model.entities()),
        sum(n - 1 for n in owners.values()),
        sum(1 for eid in model.entity_ids() if not model.parent_map().get(eid)),
        max((depth(eid) for eid in model.entity_ids()), default=0),
    )


_OPTION_SETS = [EngineOptions(multi_inheritance=multi, min_subclasses=k)
                for multi in (False, True) for k in (1, 2, 3)]


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


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    model=shapes(),
    options=st.sampled_from(_OPTION_SETS),
)
def test_snapshot_matches_naive_count_on_awkward_shapes(model, options):
    before = naive_snapshot(model)
    report = restructure(model, options)
    assert astuple(report.metrics_before) == before
    assert astuple(report.metrics_after) == naive_snapshot(model)
    again = restructure(model, options)
    assert astuple(again.metrics_after) == naive_snapshot(model)
    # With the multiple-inheritance pass and ``min_subclasses=1`` a second
    # run can still fire (an open idempotence defect); otherwise it fires
    # nothing and reuses its first snapshot.
    if not again.applications:
        assert again.metrics_after == again.metrics_before == report.metrics_after


def _recount(model):
    """(duplication count, duplicated keys) counted from the declarations."""
    owners = Counter(k for e in model.entities() for k in set(e.properties.values()))
    return sum(n - 1 for n in owners.values()), {k for k, n in owners.items() if n > 1}


def _assert_counts(model):
    assert (model.duplication_count, model.duplicated_keys()) == _recount(model)
    assert model.validate() == []


# (add?, entity index, property name, type name)
_EDITS = st.lists(
    st.tuples(st.booleans(), st.integers(0, 8), st.sampled_from("abcde"),
              st.sampled_from("TU")),
    max_size=12,
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    model=shapes(),
    edits=_EDITS,
    unbuilt=st.integers(0, 12),
    options=st.sampled_from(
        [EngineOptions(multi_inheritance=multi, min_subclasses=k)
         for multi in (False, True) for k in (1, 2)]
    ),
)
def test_owner_count_matches_a_recount(model, edits, unbuilt, options):
    ids = model.entity_ids()

    def edit(add, index, name, type_name):
        eid = ids[index % len(ids)]
        try:
            if add:
                model.add_property(eid, PropKey(name, type_name))
            else:
                model.delete_property(eid, name)
        except ModelError:
            pass  # a refused edit leaves the model and its count as they were

    for args in edits[:unbuilt]:
        edit(*args)
    assert model._owner_count is None
    _assert_counts(model)  # the first reading builds the count
    for args in edits[unbuilt:]:
        edit(*args)
        _assert_counts(model)

    real = engine._CoreState.record

    def checked(state, app):
        real(state, app)
        _assert_counts(model)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine._CoreState, "record", checked)
        restructure(model, options)
    _assert_counts(model)


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


def _layered_document(widths, full):
    """Layers of classes ``widths`` wide; each class specializes every class
    of the layer above when ``full``, else only the one above it, if any."""
    lines, above = ["classmodel v1"], []
    for depth, width in enumerate(widths):
        layer = [f"L{depth}C{i}" for i in range(width)]
        for i, name in enumerate(layer):
            lines.append(f"entity {name}")
            supers = above if full else above[i : i + 1]
            lines += [f"  super {sup}" for sup in supers]
        above = layer
    return "\n".join(lines) + "\n"


def test_depth_of_a_deep_chain_needs_no_recursion():
    # A recursive walk would exceed the interpreter's recursion limit.
    chain = load_model(_layered_document([1] * 50_000, full=False))
    assert max_inheritance_depth(chain) == 49_999


def test_depth_of_wide_and_diamond_lattices_matches_naive():
    for widths in ([3, 2, 3, 1, 2, 2, 3], [40, 1, 40], [2] * 12):
        lattice = load_model(_layered_document(widths, full=True))
        assert astuple(snapshot(lattice)) == naive_snapshot(lattice)
        assert max_inheritance_depth(lattice) == len(widths) - 1
    # Roots in every layer; only the C0 classes chain through all five.
    ragged = load_model(_layered_document([5, 3, 4, 1, 6], full=False))
    assert astuple(snapshot(ragged)) == naive_snapshot(ragged)
    assert max_inheritance_depth(ragged) == 4


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model=shapes(), data=st.data())
def test_kept_depth_follows_every_public_edit(model, data):
    """The depth a model keeps after a snapshot is dropped by every edit that
    changes an edge, and carried by a copy and a load."""
    steps = ["link", "unlink", "entity", "clone", "reload", "restructure"]
    for step in data.draw(st.lists(st.sampled_from(steps), min_size=1, max_size=10)):
        ids = model.entity_ids()
        if step == "link":
            sub, sup = data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids))
            try:
                model.add_generalization(sub, sup)
            except GeneralizationError:  # a self, duplicate or cycle-closing edge
                pass
        elif step == "unlink":
            edges = sorted(model.generalizations())
            if edges:
                model.delete_generalization(*data.draw(st.sampled_from(edges)))
        elif step == "entity":
            model.add_entity(f"Added{len(model)}")
        elif step == "clone":
            model = model.clone()
        elif step == "reload":
            model = load_model(save_model(model))
        else:
            restructure(model, data.draw(st.sampled_from(_OPTION_SETS)))
        assert astuple(snapshot(model)) == naive_snapshot(model)
        assert model.validate() == []


def test_depth_of_a_cyclic_hierarchy_is_a_cycle_error():
    m = build_model({"A": [], "B": [], "C": []}, edges=[("B", "A"), ("C", "B")])
    a, b = m.entity_id("A"), m.entity_id("B")
    # A cycle the checked mutators refuse, written straight into the maps.
    m._parents.setdefault(a, set()).add(b)
    m._children.setdefault(b, set()).add(a)
    for measure in (max_inheritance_depth, snapshot):
        with pytest.raises(CycleError, match="generalization cycle"):
            measure(m)
    assert m.validate() == ["generalization cycle through A, B"]  # C peels off


def test_the_loader_peel_gives_every_snapshot_its_depth(monkeypatch):
    doc = save_model(generate_model(GeneratorSpec(Family.MIXED, 40, 5)))
    peels = []
    peel = ClassModel._peel
    monkeypatch.setattr(ClassModel, "_peel", lambda self: peels.append(self) or peel(self))
    model = load_model(doc)
    assert astuple(snapshot(model)) == naive_snapshot(model)
    assert len(peels) == 1  # the loader's cycle check, and nothing more
    first = restructure(model, EngineOptions(multi_inheritance=True))
    assert first.applications and len(peels) == 2  # the after-snapshot only
    again = restructure(model, EngineOptions(multi_inheritance=True))
    assert not again.applications and len(peels) == 2
    assert again.metrics_before == first.metrics_after == snapshot(model)
    assert model.clone()._depth == model._depth == first.metrics_after.max_inheritance_depth

