"""The engine against the full re-ranking reference engine.

Both must save the same bytes, take the same number of passes and fire the
same rules in the same order: on generated corpora of every family, and on
hypothesis-built shapes the generators never produce (several parents,
diamonds, deep chains, synthesized classes in the input, originals named
``NewClass<k>``, superclasses declaring a name their subclasses share), on
wide classes, on generated models below one root, on stars whose
superclasses declare the name their subclasses share, joined by diamonds, on
deep chains with rule 2 firing below them, and on one class below many
parents.
On those shapes every leaf also keeps its flattened properties, with and
without the multiple-inheritance pass. The shapes run a second time with
every child set of two or more classes ranked from a sharing index, which
the engine otherwise keeps for large sets only, and keep their ids dense.
"""

from functools import partial

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pullup import engine
from pullup.engine import EngineOptions, restructure
from pullup.generate import Family, GeneratorSpec, generate_model
from pullup.metrics import hierarchy_restriction_equal
from pullup.model import Origin
from pullup.modelfile import load_model, save_model

from conftest import build_model
from large_shapes import (
    comb,
    deep_bottom,
    fanout_model,
    many_parents,
    rooted_model,
    shadowed_diamond_model,
    wide_model,
)
from reference_engine import reference_restructure
from shapes import shapes

OPTIONS = [
    EngineOptions(multi_inheritance=multi, min_subclasses=k)
    for multi in (False, True)
    for k in (1, 2, 3)
]


def assert_same_run(model, options):
    fast, slow = model.clone(), model.clone()
    report = restructure(fast, options)
    applications, iterations = reference_restructure(slow, options)
    assert save_model(fast) == save_model(slow)
    assert report.iterations == iterations
    assert report.applications == applications
    return fast


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("scale", [3, 12, 40])
def test_generated_corpora_match_reference(family, scale):
    for seed in (1, 2, 3):
        model = generate_model(GeneratorSpec(family, scale, seed))
        for options in OPTIONS:
            assert_same_run(model, options)


def assert_keeps_leaves(model, options):
    leaves = [e.id for e in model.entities() if not model.child_map().get(e.id)]
    out = assert_same_run(model, options)
    assert out.validate() == []
    for eid in leaves:
        assert out.flattened_props(eid) == model.flattened_props(eid)
    assert sum(e.origin is Origin.ORIGINAL for e in out.entities()) == sum(
        e.origin is Origin.ORIGINAL for e in model.entities()
    )
    return out


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model=shapes(), options=st.sampled_from(OPTIONS))
def test_awkward_shapes_match_reference(model, options):
    assert_keeps_leaves(model, options)


# The engine's sweep bounds its worklist by len(model), so ids must stay
# 1..len(model) in entity order through every way a model is made.
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model=shapes(), options=st.sampled_from(OPTIONS))
def test_ids_stay_dense(model, options):
    restructure(model, options)
    for m in (model, model.clone(), load_model(save_model(model))):
        assert m.entity_ids() == list(range(1, len(m) + 1))


# E0 declares a:T above E1 and E3, which declare it too, beside a top-level
# E2 declaring it: rule 2 leaves E0 one child, rule 3 takes a from E0 and
# E2, and under min_subclasses=1 rule 1 then hoists from E0's only child,
# which an index over E0's children does not offer.
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model=shapes(), options=st.sampled_from(OPTIONS))
@example(
    model=build_model(
        {"E0": ["a"], "E1": ["a"], "E2": ["a"], "E3": ["a"]},
        edges=[("E1", "E0"), ("E3", "E0")],
    ),
    options=EngineOptions(min_subclasses=1),
)
def test_awkward_shapes_match_reference_with_every_set_indexed(model, options):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "INDEXED_CHILDREN", 2)
        assert_keeps_leaves(model, options)


@pytest.mark.parametrize("family,scale", [("flat", 80), ("mixed", 90)])
@pytest.mark.parametrize("options", OPTIONS)
def test_rooted_models_match_reference(family, scale, options):
    model = rooted_model(family, scale, seed=5)
    assert len(model.child_map()[model.entity_id("Root")]) >= engine.INDEXED_CHILDREN
    out = assert_keeps_leaves(model, options)
    assert hierarchy_restriction_equal(model, out)


@pytest.mark.parametrize("build", [wide_model, fanout_model])
@pytest.mark.parametrize("options", OPTIONS)
def test_wide_classes_match_reference(build, options):
    model = build(200, seed=3)
    out = assert_keeps_leaves(model, options)
    assert hierarchy_restriction_equal(model, out)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("options", OPTIONS)
def test_shadowed_diamonds_match_reference(seed, options):
    model = shadowed_diamond_model(110, seed)
    out = assert_keeps_leaves(model, options)
    assert hierarchy_restriction_equal(model, out)


# Kept small: the reference engine and hierarchy_restriction_equal take time
# in proportion to size times depth on these shapes.
@pytest.mark.parametrize(
    "build", [partial(deep_bottom, 400, 100), partial(comb, 250)], ids=["deep_bottom", "comb"]
)
@pytest.mark.parametrize("options", OPTIONS)
def test_deep_chains_match_reference(build, options):
    model = build()
    out = assert_keeps_leaves(model, options)
    assert hierarchy_restriction_equal(model, out)


@pytest.mark.parametrize("options", OPTIONS)
def test_many_parents_match_reference(options):
    model = many_parents(250)
    out = assert_keeps_leaves(model, options)
    assert hierarchy_restriction_equal(model, out)
