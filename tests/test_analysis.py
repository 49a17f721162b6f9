import pytest

from pullup.analysis import (
    SharingIndex,
    common_props,
    entity_set_frequency,
    filter_by_properties,
    prop_type_set,
    rank_key,
)
from pullup.errors import UnknownEntityError
from pullup.generate import Family, GeneratorSpec, generate_model
from pullup.model import PropKey
from pullup.rules import apply_candidate, apply_shared_superclass_rule

from conftest import build_model, names


def keyed(candidate):
    return [k.prop_name for k in candidate.keys]


def test_prop_type_set_own_only():
    m = build_model({"S": ["b"], "E": ["a:T", "b2:U"]}, edges=[("E", "S")], types=("T", "U"))
    assert prop_type_set(m, m.entity_id("E")) == {PropKey("a", "T"), PropKey("b2", "U")}


def test_prop_type_set_empty_and_unknown():
    m = build_model({"E": []})
    assert prop_type_set(m, m.entity_id("E")) == set()
    with pytest.raises(UnknownEntityError):
        prop_type_set(m, 123)


def test_filter_by_properties_requires_identical_type():
    m = build_model(
        {"A": ["a:T"], "B": ["a:U"], "C": ["a:T", "b:T"]}, types=("T", "U")
    )
    got = filter_by_properties(m, [PropKey("a", "T")], set(m.entity_ids()))
    assert names(m, got) == ["A", "C"]


def test_filter_by_properties_empty_keys_is_identity():
    m = build_model({"A": ["a"], "B": []})
    ids = set(m.entity_ids())
    assert filter_by_properties(m, [], ids) == ids


def test_filter_by_properties_conjunction():
    m = build_model({"A": ["a"], "B": ["a", "b"]})
    got = filter_by_properties(m, [PropKey("a", "T"), PropKey("b", "T")], set(m.entity_ids()))
    assert names(m, got) == ["B"]


def test_entity_set_frequency_exact_set_equality():
    pq = frozenset({1, 2})
    pr = frozenset({1, 3})
    pairs = {
        (PropKey("a", "T"), pq),
        (PropKey("b", "T"), pq),
        (PropKey("d", "T"), pr),
    }
    assert dict(entity_set_frequency(pairs)) == {pq: 2, pr: 1}


def test_entity_set_frequency_singleton():
    s = frozenset({7})
    assert dict(entity_set_frequency({(PropKey("a", "T"), s)})) == {s: 1}


def test_entity_set_frequency_order_insensitive_sets():
    pairs = [
        (PropKey("a", "T"), frozenset({1, 2})),
        (PropKey("b", "T"), frozenset({2, 1})),
    ]
    assert dict(entity_set_frequency(pairs)) == {frozenset({1, 2}): 2}


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
    assert left_model == before


def test_common_props_invariants(left_model, right_model):
    for m in (left_model, right_model):
        ranking = common_props(m, m.entity_ids())
        sizes = [len(c.owners) for c in ranking]
        assert sizes == sorted(sizes, reverse=True)
        assert len({c.owners for c in ranking}) == len(ranking)
        for c in ranking:
            assert len(set(c.keys)) == len(c.keys)
            # every owner declares every key, re-checked independently
            assert filter_by_properties(m, c.keys, c.owners) == set(c.owners)


def test_common_props_collapse_loses_nothing(left_model):
    m = left_model
    ids = set(m.entity_ids())
    ranking = common_props(m, ids)
    from_ranking = {(k, c.owners) for c in ranking for k in c.keys}
    pes = {
        (k, frozenset(filter_by_properties(m, [k], ids)))
        for eid in ids
        for k in prop_type_set(m, eid)
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
        app = apply_candidate(m, None, top)
        index.update({app.target, *app.sources})
        fired += 1
    assert fired > 0 or family is Family.STAR_HIERARCHIES


def test_sharing_index_follows_rule1_into_top_level_superclass():
    m = build_model(
        {"S": [], "A": ["a"], "B": ["a"], "X": ["a"], "Y": ["y"], "Z": ["y"]},
        edges=[("A", "S"), ("B", "S")],
    )
    index = SharingIndex(m)
    assert names(m, index.top().owners) == ["Y", "Z"]
    s = m.entity_id("S")
    app = apply_shared_superclass_rule(m, s, m.direct_subclasses(s))
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
