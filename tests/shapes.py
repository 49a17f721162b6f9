"""A hypothesis strategy for the model shapes the generators never produce:
several parents, diamonds, deep chains, synthesized classes in the input,
originals named ``NewClass<k>``, the same property name with two types, and
superclasses declaring a name their subclasses share."""

from hypothesis import strategies as st

from pullup.model import ClassModel, PropKey


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
            taken = {e.name for e in model.entities()}
            eid = model.add_entity(name if name not in taken else f"E{i}")
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
