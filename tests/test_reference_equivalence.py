"""The incremental engine against the full re-ranking reference loop.

Both must save the same bytes, take the same number of passes and fire the
same rules in the same order: on generated corpora of every family, and on
hypothesis-built shapes the generators never produce (several parents,
diamonds, deep chains, synthesized classes in the input, originals named
``NewClass<k>``, superclasses declaring a name their subclasses share).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pullup.engine import EngineOptions, restructure
from pullup.generate import Family, GeneratorSpec, generate_model
from pullup.model import ClassModel, Origin, PropKey
from pullup.modelfile import save_model

from reference_engine import reference_restructure

OPTIONS = [
    EngineOptions(multi_inheritance=multi, min_subclasses=k)
    for multi in (False, True)
    for k in (1, 2)
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


@st.composite
def shapes(draw):
    model = ClassModel()
    for t in ("T", "U"):
        model.add_type(t)
    ids = []
    for i in range(draw(st.integers(2, 9))):
        kind = draw(st.sampled_from(["plain", "plain", "newclass", "synthesized"]))
        if kind == "synthesized":
            eid = model.create_entity()
        else:
            name = f"NewClass{draw(st.integers(1, 4))}" if kind == "newclass" else f"E{i}"
            eid = model.add_entity(name if not model.has_entity(name) else f"E{i}")
        props = draw(
            st.lists(
                st.tuples(st.sampled_from("abcd"), st.sampled_from("TU")),
                max_size=3,
                unique_by=lambda p: p[0],
            )
        )
        for name, type_name in props:
            model.add_property(eid, PropKey(name, type_name))
        if ids:
            # Earlier entities only, so the graph stays acyclic; the chain
            # option makes deep hierarchies likely.
            parents = draw(
                st.one_of(
                    st.just([ids[-1]]),
                    st.lists(st.sampled_from(ids), max_size=3, unique=True),
                )
            )
            for parent in parents:
                model.add_generalization(eid, parent)
        ids.append(eid)
    return model


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model=shapes(), options=st.sampled_from(OPTIONS))
def test_awkward_shapes_match_reference(model, options):
    leaves = [e.id for e in model.entities() if not model.direct_subclasses(e.id)]
    out = assert_same_run(model, options)
    assert out.validate() == []
    # The multiple-inheritance pass may reuse a synthesized class that
    # declares more than the reused keys, which adds properties to a leaf;
    # only the core rules are held to preserving them here.
    if not options.multi_inheritance:
        for eid in leaves:
            assert out.flattened_props(eid) == model.flattened_props(eid)
    assert sum(e.origin is Origin.ORIGINAL for e in out.entities()) == sum(
        e.origin is Origin.ORIGINAL for e in model.entities()
    )
