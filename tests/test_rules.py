import ast
from pathlib import Path

import pytest

from pullup import rules
from pullup.analysis import Candidate
from pullup.errors import RuleError
from pullup.model import ClassModel, Origin, PropKey
from pullup.modelfile import save_model
from pullup.rules import (
    RuleKind,
    apply_shared_superclass_rule,
    exploit_multiple_inheritance,
)

from conftest import build_model, names
from reference_engine import reference_attempt


def test_pull_up_props_moves_keys():
    m = build_model({"S": [], "A": ["a"], "B": ["a"]}, edges=[("A", "S"), ("B", "S")])
    s, a, b = (m.entity_id(n) for n in "SAB")
    cand = Candidate((PropKey("a", "T"),), frozenset({a, b}))
    apply_shared_superclass_rule(m, s, cand)
    assert m.entity(s).properties.keys() == {"a"}
    assert m.entity(a).properties == {} and m.entity(b).properties == {}


def test_apply_candidate_rule1_declaration_delta():
    m = build_model(
        {"S": [], "A": ["a", "b"], "B": ["a", "b"], "C": ["a", "b"]},
        edges=[("A", "S"), ("B", "S"), ("C", "S")],
    )
    before = m.declared_property_count
    keys = (PropKey("a", "T"), PropKey("b", "T"))
    sources = frozenset(m.entity_id(n) for n in "ABC")
    app = apply_shared_superclass_rule(m, m.entity_id("S"), Candidate(keys, sources))
    assert app.rule is RuleKind.RULE1
    delta = m.declared_property_count - before
    assert delta == len(keys) - len(keys) * len(sources)
    assert delta < 0


def test_a_firing_adds_and_deletes_one_key_at_a_time(monkeypatch):
    # Per-key calls: what the bench's add/delete call counts measure.
    k, n = 4, 3
    shared = [f"k{i}" for i in range(k)]
    m = build_model(
        {"S": [], "A": shared, "B": shared, "C": shared, "D": ["x"]},
        edges=[(sub, "S") for sub in "ABCD"],
    )
    calls = {"add_property": 0, "delete_property": 0}

    def counting(name):
        real = getattr(ClassModel, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)

        return spy

    for name in calls:
        monkeypatch.setattr(ClassModel, name, counting(name))
    s = m.entity_id("S")
    app = reference_attempt(m, s, m.child_map()[s])
    assert app.rule is RuleKind.RULE2 and len(app.keys) == k and len(app.sources) == n
    assert calls == {"add_property": k, "delete_property": n * k}


def test_rule1_pulls_into_existing_super():
    m = build_model(
        {"S": [], "A": ["a"], "B": ["a"]}, edges=[("A", "S"), ("B", "S")]
    )
    s = m.entity_id("S")
    edges_before = m.generalizations()
    app = reference_attempt(m, s, m.child_map()[s])
    assert app is not None and app.rule is RuleKind.RULE1
    assert app.target == s and app.created is None
    assert m.entity(s).properties.keys() == {"a"}
    assert all(m.entity(eid).properties == {} for eid in app.sources)
    assert m.generalizations() == edges_before


def test_rule1_pulls_only_the_shared_keys():
    m = build_model(
        {"S": [], "A": ["a", "x"], "B": ["a", "y"], "C": ["a"]},
        edges=[("A", "S"), ("B", "S"), ("C", "S")],
    )
    s = m.entity_id("S")
    app = reference_attempt(m, s, m.child_map()[s])
    assert app.rule is RuleKind.RULE1
    assert [k.prop_name for k in app.keys] == ["a"]
    assert m.entity(m.entity_id("A")).properties.keys() == {"x"}
    assert m.entity(m.entity_id("B")).properties.keys() == {"y"}


def test_rule3_left_example(left_model):
    m = left_model
    tops = set(m.entity_ids())
    app = reference_attempt(m, None, tops)
    assert app.rule is RuleKind.RULE3
    assert [k.prop_name for k in app.keys] == ["c"]
    assert names(m, app.sources) == ["B", "C", "D"]
    nc = m.entity(app.created)
    assert nc.name == "NewClass1" and nc.origin is Origin.SYNTHESIZED
    assert nc.properties.keys() == {"c"}
    assert names(m, m.child_map()[app.created]) == ["B", "C", "D"]


def test_rule2_inserts_intermediate_class():
    m = build_model(
        {"S": [], "A": ["a"], "B": ["a"], "C": ["z"]},
        edges=[("A", "S"), ("B", "S"), ("C", "S")],
    )
    s = m.entity_id("S")
    app = reference_attempt(m, s, m.child_map()[s])
    assert app.rule is RuleKind.RULE2
    nc = app.created
    assert names(m, app.sources) == ["A", "B"]
    assert m.entity(nc).properties.keys() == {"a"}
    # A and B were re-parented below the new class, C stayed put
    assert names(m, m.child_map()[s]) == ["C", "NewClass1"]
    assert names(m, m.child_map()[nc]) == ["A", "B"]


def test_rule2_keeps_unrelated_parents():
    m = build_model(
        {"S": [], "X": [], "A": ["a"], "B": ["a"], "C": ["z"]},
        edges=[("A", "S"), ("B", "S"), ("C", "S"), ("A", "X")],
    )
    s = m.entity_id("S")
    app = reference_attempt(m, s, m.child_map()[s])
    assert app.rule is RuleKind.RULE2
    a = m.entity_id("A")
    assert m.has_generalization(a, m.entity_id("X"))
    assert not m.has_generalization(a, s)


def test_no_application_without_sharing():
    m = build_model({"S": [], "A": ["a"], "B": ["b"]}, edges=[("A", "S"), ("B", "S")])
    s = m.entity_id("S")
    before = m.clone()
    assert reference_attempt(m, s, m.child_map()[s]) is None
    assert save_model(m) == save_model(before)


def test_no_application_on_empty_classes():
    m = build_model({"S": []})
    assert reference_attempt(m, m.entity_id("S"), set()) is None
    assert reference_attempt(m, None, set()) is None


def test_rule1_min_subclasses_guard():
    def only_child():
        return build_model({"S": ["s"], "A": ["a", "b"]}, edges=[("A", "S")])

    m = only_child()
    assert reference_attempt(m, m.entity_id("S"), m.child_map()[m.entity_id("S")]) is None

    # the literal behavior is restored with min_subclasses=1
    m = only_child()
    app = reference_attempt(
        m, m.entity_id("S"), m.child_map()[m.entity_id("S")], min_subclasses=1
    )
    assert app is not None and app.rule is RuleKind.RULE1
    assert m.entity(m.entity_id("S")).properties.keys() == {"s", "a", "b"}


def test_classes_must_match_direct_subclasses():
    m = build_model({"S": ["a"], "A": ["a"]}, edges=[("A", "S")])
    s = m.entity_id("S")
    before = m.clone()
    with pytest.raises(RuleError):
        apply_shared_superclass_rule(m, s, Candidate((PropKey("a", "T"),), frozenset({s})))
    assert save_model(m) == save_model(before)


def test_rules_preserve_flattened_props_of_sources():
    m = build_model(
        {"S": [], "A": ["a", "x"], "B": ["a"], "C": ["z"]},
        edges=[("A", "S"), ("B", "S"), ("C", "S")],
    )
    s = m.entity_id("S")
    flat_before = {eid: m.flattened_props(eid) for eid in m.entity_ids()}
    app = reference_attempt(m, s, m.child_map()[s])
    for eid in app.sources:
        assert m.flattened_props(eid) == flat_before[eid]


def test_extension_left_example_post_core(left_model):
    from pullup.engine import EngineOptions, restructure

    m = left_model
    restructure(m, EngineOptions())
    apps = []
    exploit_multiple_inheritance(m, apps.append)
    assert [a.rule for a in apps] == [RuleKind.MULTI_INHERIT_NEW] * 2
    assert m.duplication_count == 0
    a = m.entity_id("A")
    assert names(m, m.parent_map()[a]) == ["NewClass2", "NewClass3"]
    assert m.entity(m.entity_id("NewClass2")).properties.keys() == {"a"}
    assert m.entity(m.entity_id("NewClass3")).properties.keys() == {"b"}
    assert m.validate() == []


def test_extension_reuses_synthesized_top_level():
    # NewClass1 plays the synthesized top-level class left over by a core run.
    m = build_model({"A": ["a", "p"], "B": ["a", "q"]})
    nc = m.create_entity()
    m.add_property(nc, PropKey("a", "T"))
    apps = []
    exploit_multiple_inheritance(m, apps.append)
    assert len(apps) == 1
    app = apps[0]
    assert app.rule is RuleKind.MULTI_INHERIT_REUSE
    assert app.target == nc and app.created is None
    assert names(m, app.sources) == ["A", "B"]
    assert names(m, m.child_map()[nc]) == ["A", "B"]
    assert m.duplication_count == 0
    # only the pre-existing synthesized class remains, nothing new created
    assert sum(1 for e in m.entities() if e.origin is Origin.SYNTHESIZED) == 1


def test_extension_does_not_reuse_a_class_declaring_more_keys():
    # NewClass1 shares a:T with A but also declares b:U, which A never had;
    # reusing it would hand b:U to A.
    m = build_model({"A": ["a:T", "p:T"]}, types=("T", "U"))
    nc = m.create_entity()
    m.add_property(nc, PropKey("a", "T"))
    m.add_property(nc, PropKey("b", "U"))
    a = m.entity_id("A")
    flat_before = {eid: m.flattened_props(eid) for eid in (a, nc)}
    apps = []
    exploit_multiple_inheritance(m, apps.append)
    assert [app.rule for app in apps] == [RuleKind.MULTI_INHERIT_NEW]
    assert names(m, apps[0].sources) == ["A", "NewClass1"]
    assert {eid: m.flattened_props(eid) for eid in (a, nc)} == flat_before
    assert m.duplication_count == 0
    assert m.validate() == []


def test_extension_ignores_original_class_named_like_synthesized():
    m = build_model({"NewClass1": ["a"], "B": ["a"]})
    apps = []
    exploit_multiple_inheritance(m, apps.append)
    assert apps[0].rule is RuleKind.MULTI_INHERIT_NEW
    assert m.entity(apps[0].created).name == "NewClass2"


def test_extension_noop_without_duplicates():
    m = build_model({"A": ["a"], "B": ["b"]})
    before = m.clone()
    apps = []
    exploit_multiple_inheritance(m, apps.append)
    assert apps == []
    assert save_model(m) == save_model(before)


def test_extension_handles_ancestor_descendant_duplicate():
    m = build_model({"P": ["a"], "C": ["a", "c"]}, edges=[("C", "P")])
    apps = []
    exploit_multiple_inheritance(m, apps.append)
    assert len(apps) == 1
    assert m.duplication_count == 0
    assert m.validate() == []


@pytest.mark.parametrize("super_type", ["T", "U"])
@pytest.mark.parametrize("min_subclasses", [1, 2])
def test_rule1_name_conflict_falls_through_to_rule2(super_type, min_subclasses):
    # S already declares a property named like the shared one (same type or
    # another), so the keys go into a new class between S and its subclasses.
    m = build_model(
        {"S": [f"a:{super_type}"], "C1": ["a"], "C2": ["a"]},
        edges=[("C1", "S"), ("C2", "S")],
        types=("T", "U"),
    )
    s = m.entity_id("S")
    flat_before = {eid: m.flattened_props(eid) for eid in m.entity_ids()}
    app = reference_attempt(m, s, m.child_map()[s], min_subclasses)
    assert app.rule is RuleKind.RULE2
    assert names(m, app.sources) == ["C1", "C2"]
    assert m.entity(s).prop_keys() == {PropKey("a", super_type)}
    assert m.entity(app.created).prop_keys() == {PropKey("a", "T")}
    assert names(m, m.child_map()[s]) == ["NewClass1"]
    assert names(m, m.child_map()[app.created]) == ["C1", "C2"]
    for eid in app.sources:
        assert m.flattened_props(eid) == flat_before[eid]
    # S's only child now shares nothing S could take without the conflict.
    assert reference_attempt(m, s, m.child_map()[s], min_subclasses) is None


def test_rule1_name_conflict_only_child_fires_nothing():
    m = build_model({"S": ["a"], "A": ["a", "b"]}, edges=[("A", "S")])
    s = m.entity_id("S")
    before = m.clone()
    assert reference_attempt(m, s, m.child_map()[s], 1) is None
    assert save_model(m) == save_model(before)


def test_apply_candidate_rule3_from_given_candidate(left_model):
    m = left_model
    b, c, d = (m.entity_id(n) for n in "BCD")
    cand = Candidate((PropKey("c", "T"),), frozenset({b, c, d}))
    app = apply_shared_superclass_rule(m, None, cand)
    assert app.rule is RuleKind.RULE3
    assert m.entity(app.created).properties.keys() == {"c"}
    assert names(m, m.child_map()[app.created]) == ["B", "C", "D"]


def test_apply_candidate_single_owner_fires_nothing(left_model):
    m = left_model
    before = m.clone()
    cand = Candidate((PropKey("d", "T"),), frozenset({m.entity_id("D")}))
    assert apply_shared_superclass_rule(m, None, cand) is None
    assert save_model(m) == save_model(before)


# B does not declare a: rule 3 at the top level, rule 2 (AB) and rule 1 (ABY)
# under S. X is not a subclass of S.
@pytest.mark.parametrize(
    "super_name,owners", [(None, "AB"), ("S", "AB"), ("S", "ABY"), ("S", "AX")]
)
def test_apply_candidate_rejects_bad_candidate_atomically(super_name, owners):
    m = build_model(
        {"S": [], "A": ["a"], "B": ["b"], "Y": ["a"], "X": ["a"]},
        edges=[("A", "S"), ("B", "S"), ("Y", "S")],
    )
    super_id = None if super_name is None else m.entity_id(super_name)
    cand = Candidate((PropKey("a", "T"),), frozenset(m.entity_id(n) for n in owners))
    before = m.clone()
    with pytest.raises(RuleError):
        apply_shared_superclass_rule(m, super_id, cand)
    assert save_model(m) == save_model(before)


def test_only_the_primitive_changes_the_model():
    # Every rule fires through rules._hoist; a second copy of the mutation
    # steps would let the rules drift apart.
    mutators = {
        "add_property", "delete_property", "add_generalization",
        "delete_generalization", "create_entity", "_link",
    }
    tree = ast.parse(Path(rules.__file__).read_text())
    callers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr in mutators
    }
    assert callers == {"_hoist"}
