import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from pullup.analysis import (
    Candidate,
    SharingIndex,
    common_props,
    rank_key,
    top_candidate,
)
from pullup.generate import Family, GeneratorSpec, generate_model
from pullup.model import PropKey, UnknownEntityError
from pullup.modelfile import save_model
from pullup.rules import apply_shared_superclass_rule

from conftest import build_model, names
from large_shapes import rooted_model
from reference_engine import reference_attempt
from shapes import shapes


def keyed(candidate):
    return [k.prop_name for k in candidate.keys]


def test_common_props_keys_match_on_name_and_type():
    m = build_model(
        {"A": ["a:T"], "B": ["a:U"], "C": ["a:T", "b:T"]}, types=("T", "U")
    )
    ranking = common_props(m, m.entity_ids())
    assert (keyed(ranking[0]), names(m, ranking[0].owners)) == (["a"], ["A", "C"])
    assert ranking[0].keys == (PropKey("a", "T"),)


def test_prop_type_set_own_only():
    """The own-keys set (once ``prop_type_set``, now ``Entity.prop_keys``)
    holds declared keys only, none inherited from a superclass."""
    m = build_model({"S": ["b"], "E": ["a:T", "b2:U"]}, edges=[("E", "S")], types=("T", "U"))
    own = m.entity(m.entity_id("E")).prop_keys()
    assert own == {PropKey("a", "T"), PropKey("b2", "U")}


def test_prop_type_set_empty_and_unknown():
    m = build_model({"E": []})
    assert m.entity(m.entity_id("E")).prop_keys() == set()
    with pytest.raises(UnknownEntityError):
        m.entity(123)


def frequencies(model, classes):
    """Per owner set, named, the number of keys it shares: the entity-set
    frequency ``rank_key`` ranks by."""
    return {
        tuple(names(model, c.owners)): len(c.keys)
        for c in common_props(model, classes)
    }


def test_entity_set_frequency_exact_set_equality():
    m = build_model({"E1": ["a", "b", "d"], "E2": ["a", "b"], "E3": ["d"]})
    assert frequencies(m, m.entity_ids()) == {("E1", "E2"): 2, ("E1", "E3"): 1}


def test_entity_set_frequency_singleton():
    m = build_model({"E7": ["a"]})
    assert frequencies(m, m.entity_ids()) == {("E7",): 1}


def test_entity_set_frequency_order_insensitive_sets():
    m = build_model({"E1": ["a", "b"], "E2": ["b", "a"]})
    e1, e2 = m.entity_ids()
    assert frequencies(m, [e1, e2]) == frequencies(m, [e2, e1]) == {("E1", "E2"): 2}


def test_common_props_abstract_ranking():
    # pn1 -> {e1,e2,e3}, pn2 -> {e2..e5}, pn3 -> {e1,e2,e3}, pn4 -> {e2,e3,e4}
    m = build_model(
        {
            "e1": ["pn1:t1", "pn3:t2"],
            "e2": ["pn1:t1", "pn2:t2", "pn3:t2", "pn4:t2"],
            "e3": ["pn1:t1", "pn2:t2", "pn3:t2", "pn4:t2"],
            "e4": ["pn2:t2", "pn4:t2"],
            "e5": ["pn2:t2"],
        },
        types=("t1", "t2"),
    )
    ranking = common_props(m, m.entity_ids())
    got = [(keyed(c), names(m, c.owners)) for c in ranking]
    assert got == [
        (["pn2"], ["e2", "e3", "e4", "e5"]),
        (["pn1", "pn3"], ["e1", "e2", "e3"]),
        (["pn4"], ["e2", "e3", "e4"]),
    ]


def test_common_props_frequency_tiebreak(right_model):
    ranking = common_props(right_model, right_model.entity_ids())
    first = ranking[0]
    assert keyed(first) == ["a", "b"]
    assert names(right_model, first.owners) == ["P", "Q"]


def test_common_props_disjoint_sets_all_singletons():
    m = build_model({"A": ["a", "b"], "B": ["c"], "C": ["d", "e"]})
    ranking = common_props(m, m.entity_ids())
    assert all(len(c.owners) == 1 for c in ranking)


def test_common_props_pure_and_repeatable(left_model):
    before = left_model.clone()
    r1 = common_props(left_model, left_model.entity_ids())
    r2 = common_props(left_model, left_model.entity_ids())
    assert r1 == r2
    assert save_model(left_model) == save_model(before)


def test_common_props_invariants(left_model, right_model):
    for m in (left_model, right_model):
        ranking = common_props(m, m.entity_ids())
        sizes = [len(c.owners) for c in ranking]
        assert sizes == sorted(sizes, reverse=True)
        assert len({c.owners for c in ranking}) == len(ranking)
        for c in ranking:
            assert len(set(c.keys)) == len(c.keys)
            # every owner declares every key, re-checked independently
            declaring = {
                e.id for e in m.entities() if all(k in e.properties.values() for k in c.keys)
            }
            assert declaring == set(c.owners)


def test_common_props_collapse_loses_nothing(left_model):
    m = left_model
    ids = set(m.entity_ids())
    ranking = common_props(m, ids)
    from_ranking = {(k, c.owners) for c in ranking for k in c.keys}
    pes = {
        (k, frozenset(o for o in ids if k in m.entity(o).properties.values()))
        for eid in ids
        for k in m.entity(eid).properties.values()
    }
    assert from_ranking == pes


def test_common_props_order_independent_of_entity_order():
    spec = {"A": ["a", "b"], "B": ["a", "c"], "C": ["b", "c"], "D": ["c", "d"]}
    m1 = build_model(spec)
    m2 = build_model(dict(reversed(list(spec.items()))))
    r1 = [(keyed(c), names(m1, c.owners)) for c in common_props(m1, m1.entity_ids())]
    r2 = [(keyed(c), names(m2, c.owners)) for c in common_props(m2, m2.entity_ids())]
    assert r1 == r2


def test_rank_key_orders_size_then_frequency_then_names():
    m = build_model({n: [] for n in ("A", "B", "C", "D")})
    a, b, c, d = (m.entity_id(n) for n in "ABCD")
    keys = [
        rank_key(m, frozenset({b, c}), 1),
        rank_key(m, frozenset({a, b, c}), 1),
        rank_key(m, frozenset({c, d}), 2),
        rank_key(m, frozenset({a, d}), 1),
    ]
    assert sorted(range(4), key=keys.__getitem__) == [1, 2, 3, 0]


def _top_by_ranking(m):
    tops = [eid for eid in m.entity_ids() if m.is_top_level(eid)]
    ranking = common_props(m, tops)
    return ranking[0] if ranking and len(ranking[0].owners) > 1 else None


@pytest.mark.parametrize("family", list(Family))
def test_sharing_index_follows_rule3_firings(family):
    m = generate_model(GeneratorSpec(family, 30, seed=4))
    index = SharingIndex(m)
    fired = 0
    while True:
        top = index.top()
        assert top == _top_by_ranking(m)
        if top is None:
            break
        app = apply_shared_superclass_rule(m, None, top)
        index.update({app.target, *app.sources})
        fired += 1
    assert fired > 0 or family is Family.STAR_HIERARCHIES


@pytest.mark.parametrize("family", ["flat", "mixed"])
def test_a_parent_index_follows_rule2_firings(family):
    m = rooted_model(family, 30, seed=4)
    root = m.entity_id("Root")
    index = SharingIndex(m, root)
    fired = 0
    while True:
        ranking = common_props(m, m.child_map()[root])
        top = index.top()
        assert top == (ranking[0] if len(ranking[0].owners) > 1 else None)
        if top is None:
            break
        app = apply_shared_superclass_rule(m, root, top)
        # The sources have left Root's child set; the target has joined it.
        index.update({app.target, *app.sources})
        fired += 1
    assert fired > 0


def test_sharing_index_follows_rule1_into_top_level_superclass():
    m = build_model(
        {"S": [], "A": ["a"], "B": ["a"], "X": ["a"], "Y": ["y"], "Z": ["y"]},
        edges=[("A", "S"), ("B", "S")],
    )
    index = SharingIndex(m)
    assert names(m, index.top().owners) == ["Y", "Z"]
    s = m.entity_id("S")
    app = reference_attempt(m, s, m.child_map()[s])
    index.update({app.target, *app.sources})
    # The top-level S now declares a, like X; {S, X} ties with {Y, Z} on size
    # and frequency and wins on names.
    assert index.top() == _top_by_ranking(m)
    assert names(m, index.top().owners) == ["S", "X"]


def test_sharing_index_ranks_by_current_frequency():
    m = build_model({"P": ["x", "y"], "Q": ["x", "y"], "C": ["z"], "D": ["z"]})
    index = SharingIndex(m)
    assert names(m, index.top().owners) == ["P", "Q"]  # two shared keys
    p = m.entity_id("P")
    m.delete_property(p, "y")
    index.update({p})
    # Both groups now share one key; the tie goes to the names.
    assert index.top() == _top_by_ranking(m)
    assert names(m, index.top().owners) == ["C", "D"]


def _first_if_shared(model, classes):
    """``top_candidate``'s contract: the first candidate of the ranking when
    the classes are one distinct class or two of them share it."""
    ranking = common_props(model, classes)
    if ranking and (len(set(classes)) == 1 or len(ranking[0].owners) > 1):
        return ranking[0]
    return None


@settings(max_examples=300, deadline=None)
@given(shapes(), st.data())
def test_top_candidate_is_first_of_ranking(model, data):
    ids = model.entity_ids()
    subset = data.draw(st.lists(st.sampled_from(ids), max_size=len(ids) + 2))
    for classes in (ids, subset):
        assert top_candidate(model, classes) == _first_if_shared(model, classes)


@pytest.mark.parametrize("family", list(Family))
def test_top_candidate_on_generated_models(family):
    m = generate_model(GeneratorSpec(family, 25, seed=6))
    groups = [m.entity_ids()] + [subs for subs in m.child_map().values() if subs]
    for classes in groups:
        assert top_candidate(m, classes) == _first_if_shared(m, classes)


def test_top_candidate_needs_name_and_type():
    m = build_model({"A": ["a:T"], "B": ["a:U", "b:T"], "C": ["b:T"]}, types=("T", "U"))
    a, b, c = m.entity_ids()
    b_t = (PropKey("b", "T"),)
    assert top_candidate(m, [a, b]) is None
    assert top_candidate(m, [a, b, c]) == Candidate(b_t, frozenset({b, c}))
    assert top_candidate(m, []) is None
    # A class listed twice counts once: alone it offers all its keys, and it
    # shares none with itself.
    assert top_candidate(m, [c, c]) == Candidate(b_t, frozenset({c}))
    assert top_candidate(m, [a, b, b]) is None


def test_top_candidate_breaks_ties_by_names():
    # {C, D} and {A, B} tie on owner and key counts; the names decide.
    m = build_model({"C": ["x"], "D": ["x"], "A": ["y"], "B": ["y"], "E": ["z"]})
    assert names(m, top_candidate(m, m.entity_ids()).owners) == ["A", "B"]
    assert top_candidate(m, []) is None
