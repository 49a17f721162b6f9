import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pullup.errors import (
    CycleError,
    DuplicateNameError,
    GeneralizationError,
    InvalidNameError,
    PropertyNotFoundError,
    UnknownEntityError,
    UnknownTypeError,
)
from pullup.model import ClassModel, Origin, PropKey
from pullup.modelfile import load_model, save_model

from conftest import build_model, names
from shapes import shapes


def test_well_formed_model_validates(left_model):
    assert left_model.validate() == []


def test_self_generalization_reported():
    m = build_model({"A": ["a"]})
    a = m.entity_id("A")
    # bypass the mutator guard on purpose, keeping the maps mirrored
    m._parents.setdefault(a, set()).add(a)
    m._children.setdefault(a, set()).add(a)
    assert m.validate() == ["self-generalization A"]


def test_two_cycle_reported():
    m = build_model({"A": [], "B": []})
    a, b = m.entity_id("A"), m.entity_id("B")
    m.add_generalization(a, b)
    m._parents.setdefault(b, set()).add(a)
    m._children.setdefault(a, set()).add(b)
    violations = m.validate()
    assert len(violations) == 1
    assert "cycle" in violations[0]
    assert "A" in violations[0] and "B" in violations[0]


def test_unknown_parent_map_entry_reported():
    m = build_model({"A": [], "B": []}, edges=[("B", "A")])
    b = m.entity_id("B")
    # bypass the mutator guard on purpose, keeping the maps mirrored
    m._parents[b].add(99)
    m._children.setdefault(99, set()).add(b)
    m._parents.setdefault(98, set()).add(b)
    m._children[b] = {98}
    assert m.validate() == [
        f"generalization references unknown entity ({b} -> 99)",
        f"generalization references unknown entity (98 -> {b})",
    ]


def test_child_map_that_does_not_mirror_the_parent_map_reported():
    m = build_model({"A": [], "B": [], "C": []}, edges=[("B", "A"), ("C", "A")])
    a, b, c = (m.entity_id(n) for n in "ABC")
    m._children[a].discard(b)
    m._children.setdefault(b, set()).add(c)
    assert m.validate() == [
        f"generalization ({b} -> {a}) is only in the parent map",
        f"generalization ({c} -> {b}) is only in the child map",
    ]
    m._children[b].clear()
    m._children[a].add(b)
    assert m.validate() == []


def test_direct_subclasses():
    m = build_model({"A": [], "B": [], "C": []}, edges=[("B", "A"), ("C", "A")])
    assert names(m, m.child_map()[m.entity_id("A")]) == ["B", "C"]


def test_direct_subclasses_empty_and_not_transitive():
    m = build_model({"A": [], "B": [], "C": []}, edges=[("C", "B"), ("B", "A")])
    assert names(m, m.child_map()[m.entity_id("A")]) == ["B"]
    assert not m.child_map().get(m.entity_id("C"))


def test_unknown_entity_id_raises():
    m = build_model({"A": []})
    a = m.entity_id("A")
    for query in (m.entity, m.is_top_level, m.ancestors, m.flattened_props):
        with pytest.raises(UnknownEntityError):
            query(99)
    with pytest.raises(UnknownEntityError):
        m.add_generalization(a, 99)
    with pytest.raises(UnknownEntityError):
        m.delete_generalization(99, a)
    assert m.validate() == [] and m.generalizations() == set()


def test_is_top_level():
    m = build_model({"A": [], "B": [], "C": []}, edges=[("B", "A"), ("B", "C")])
    assert m.is_top_level(m.entity_id("A"))
    assert m.is_top_level(m.entity_id("C"))
    assert not m.is_top_level(m.entity_id("B"))


def test_flattened_props_single_step():
    m = build_model({"A": ["a"], "B": ["b"]}, edges=[("B", "A")])
    assert m.flattened_props(m.entity_id("B")) == {PropKey("a", "T"), PropKey("b", "T")}
    assert m.flattened_props(m.entity_id("A")) == {PropKey("a", "T")}


def test_flattened_props_diamond():
    m = build_model(
        {"A": ["a"], "B": [], "C": ["c"], "D": ["d"]},
        edges=[("D", "B"), ("D", "C"), ("B", "A")],
    )
    # brute-force ancestor enumeration oracle
    def flat(name):
        todo, seen = [m.entity_id(name)], set()
        while todo:
            cur = todo.pop()
            if cur in seen:
                continue
            seen.add(cur)
            todo.extend(m.parent_map().get(cur, ()))
        keys = set()
        for eid in seen:
            keys |= m.entity(eid).prop_keys()
        return keys

    d = m.entity_id("D")
    expected = {PropKey("a", "T"), PropKey("c", "T"), PropKey("d", "T")}
    assert flat("D") == expected
    assert m.flattened_props(d) == expected


def test_add_property():
    m = build_model({"E": []})
    e = m.entity_id("E")
    m.add_property(e, PropKey("x", "T"))
    assert [(p.prop_name, p.type_name) for p in m.entity(e).properties.values()] == [("x", "T")]
    with pytest.raises(DuplicateNameError):
        m.add_property(e, PropKey("x", "T"))
    with pytest.raises(UnknownTypeError):
        m.add_property(e, PropKey("y", "U"))


def test_delete_property_keeps_order():
    m = build_model({"E": ["x", "y", "z"]})
    e = m.entity_id("E")
    m.delete_property(e, "y")
    assert [p.prop_name for p in m.entity(e).properties.values()] == ["x", "z"]
    with pytest.raises(PropertyNotFoundError):
        m.delete_property(e, "missing")


def test_delete_then_readd_restores_flattened():
    m = build_model({"E": ["x", "y"]})
    e = m.entity_id("E")
    before = m.flattened_props(e)
    m.delete_property(e, "x")
    m.add_property(e, PropKey("x", "T"))
    assert m.flattened_props(e) == before


def test_create_entity_names_and_origin():
    m = ClassModel()
    e1 = m.create_entity()
    e2 = m.create_entity()
    assert m.entity(e1).name == "NewClass1"
    assert m.entity(e2).name == "NewClass2"
    assert m.entity(e1).origin is Origin.SYNTHESIZED
    assert m.entity(e1).properties == {}
    assert m.is_top_level(e1)


def test_create_entity_skips_taken_names():
    m = ClassModel()
    m.add_entity("NewClass1")  # a user class that happens to use the name
    e = m.create_entity()
    assert m.entity(e).name == "NewClass2"
    assert m.entity(m.entity_id("NewClass1")).origin is Origin.ORIGINAL


def test_add_generalization_and_errors():
    m = build_model({"A": [], "B": []})
    a, b = m.entity_id("A"), m.entity_id("B")
    m.add_generalization(b, a)
    assert m.child_map()[a] == {b} and m.parent_map()[b] == {a}
    with pytest.raises(GeneralizationError):
        m.add_generalization(b, a)  # duplicate
    with pytest.raises(CycleError):
        m.add_generalization(a, b)  # would close a cycle
    with pytest.raises(GeneralizationError):
        m.add_generalization(a, a)


@settings(max_examples=200, deadline=None)
@given(shapes(), st.data())
def test_add_generalization_refuses_exactly_the_edges_that_close_a_cycle(model, data):
    ids = model.entity_ids()
    for _ in range(5):
        sub, sup = data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids))
        if sub == sup or model.has_generalization(sub, sup):
            continue
        if sub in model.ancestors(sup):
            with pytest.raises(CycleError, match="would create a cycle"):
                model.add_generalization(sub, sup)
        else:
            model.add_generalization(sub, sup)
        assert model.validate() == []


@pytest.mark.parametrize("top_down", [True, False])
def test_add_generalization_builds_a_long_chain_in_linear_time(top_down):
    m = ClassModel()
    chain = [m.add_entity(f"C{i}") for i in range(20_000)]
    links = range(1, len(chain)) if top_down else range(len(chain) - 1, 0, -1)
    start = time.perf_counter()
    for i in links:
        m.add_generalization(chain[i], chain[i - 1])
    assert time.perf_counter() - start < 1.0
    with pytest.raises(CycleError, match="C0 -> C19999 would create a cycle"):
        m.add_generalization(chain[0], chain[-1])
    assert m.ancestors(chain[-1]) == set(chain[:-1])


def test_delete_generalization():
    m = build_model({"A": [], "B": []}, edges=[("B", "A")])
    a, b = m.entity_id("A"), m.entity_id("B")
    m.delete_generalization(b, a)
    assert m.is_top_level(b)
    with pytest.raises(GeneralizationError):
        m.delete_generalization(b, a)


def test_add_delete_generalization_roundtrip():
    m = build_model({"A": [], "B": [], "C": []}, edges=[("B", "A")])
    snapshot = m.clone()
    a, b, c = (m.entity_id(n) for n in "ABC")
    m.add_generalization(a, c)
    assert m.generalizations() == {(b, a), (a, c)} and m.has_generalization(a, c)
    assert "2 generalizations" in repr(m)
    m.delete_generalization(a, c)
    assert save_model(m) == save_model(snapshot) and not m.has_generalization(a, c)
    assert m.generalizations() == snapshot.generalizations() == {(b, a)}


def test_top_level_consistent_with_edges():
    m = build_model(
        {"A": [], "B": [], "C": [], "D": []},
        edges=[("B", "A"), ("C", "A"), ("C", "D")],
    )
    for eid in m.entity_ids():
        as_specific = any(sub == eid for sub, _ in m.generalizations())
        assert m.is_top_level(eid) == (not as_specific)


def test_declared_property_count_tracks_mutations():
    m = build_model({"A": ["a", "b"], "B": ["c"]})
    assert m.declared_property_count == 3
    m.delete_property(m.entity_id("A"), "a")
    assert m.declared_property_count == 2
    m.add_property(m.entity_id("B"), PropKey("d", "T"))
    assert m.declared_property_count == 3


def test_validate_reports_a_wrong_declaration_counter():
    m = build_model({"A": ["a", "b"], "B": ["c"]})
    assert m.validate() == []
    m._decl_count += 1
    assert m.validate() == ["declaration counter reads 4, entities declare 3"]


def test_validate_reports_a_key_filed_under_another_name():
    m = build_model({"E": ["a"]})
    props = m.entity(m.entity_id("E")).properties
    props["a"] = PropKey("b", "T")
    assert m.validate() == ["property b filed under name a in entity E"]
    props["a"] = PropKey("a", "U")
    assert m.validate() == ["unknown type U in entity E property a"]


def test_validate_reports_a_wrong_owner_count():
    m = build_model({"A": ["a", "b"], "B": ["a"]})
    assert m._owner_count is None  # built on first use only
    assert m.validate() == []
    assert m.duplication_count == 1
    assert m.validate() == []
    m._owner_count[PropKey("a", "T")] = 3
    m._owner_count[PropKey("c", "T")] = 0  # a key with no owner must be absent
    del m._owner_count[PropKey("b", "T")]
    assert m.validate() == [
        "owner count of a:T reads 3, 2 entities declare it",
        "owner count of b:T reads nothing, 1 entities declare it",
        "owner count of c:T reads 0, 0 entities declare it",
    ]


def test_validate_reports_a_wrong_kept_depth():
    m = build_model({"A": [], "B": [], "C": []}, edges=[("B", "A"), ("C", "B")])
    assert m._depth is None  # peeled on first use only
    assert m.validate() == []
    assert m._depth is None  # a check keeps nothing
    assert load_model(save_model(m))._depth == 2  # the loader's peel keeps it
    m._depth = 1
    assert m.validate() == ["kept depth reads 1, the longest chain is 2"]
    assert m._depth == 1
    m.delete_generalization(m.entity_id("C"), m.entity_id("B"))
    assert m._depth is None and m.validate() == []


def test_clone_is_equal_and_independent():
    m = build_model(
        {"A": ["a", "b"], "B": ["a"], "C": []}, edges=[("B", "A")], types=("T", "U")
    )
    m.create_entity()
    assert m.duplication_count == 1  # builds the original's count
    saved = save_model(m)
    copy = m.clone()
    assert save_model(copy) == save_model(m) == saved
    assert copy._owner_count is None
    a, b, c = (copy.entity_id(n) for n in "ABC")
    copy.add_property(c, PropKey("a", "T"))
    copy.delete_property(a, "b")
    copy.add_generalization(c, a)
    copy.delete_generalization(b, a)
    copy.add_type("V")
    assert copy.entity(copy.create_entity()).name == "NewClass2"
    assert save_model(m) == saved != save_model(copy)
    assert m.duplication_count == 1 and m.validate() == []
    assert m.child_map()[m.entity_id("A")] == {m.entity_id("B")}
    assert m.entity(m.create_entity()).name == "NewClass2"
    assert copy.duplication_count == 2 and copy.validate() == []


def test_names_must_be_tokens():
    m = ClassModel()
    with pytest.raises(InvalidNameError):
        m.add_type("bad name")
    with pytest.raises(InvalidNameError):
        m.add_entity("")
    with pytest.raises(InvalidNameError):
        m.add_type("T\udfff")  # a lone surrogate: save_model could not encode it
    m.add_type("T")
    e = m.add_entity("E")
    with pytest.raises(InvalidNameError):
        m.add_property(e, PropKey("a#b", "T"))
    assert m.validate() == [] and m.declared_property_count == 0

