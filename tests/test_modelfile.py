import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pullup.engine import EngineOptions, restructure
from pullup.errors import (
    CycleError,
    DuplicateNameError,
    GeneralizationError,
    ModelError,
    ModelSyntaxError,
    UnknownEntityError,
    UnknownTypeError,
)
from pullup.model import _NAME_RE, ClassModel, Origin, PropKey
from pullup.modelfile import load_model, save_model

from conftest import FIXTURES, build_model, left_example
from reference_loader import reference_load
from shapes import shapes


def test_load_left_fixture():
    m = load_model((FIXTURES / "left.model").read_bytes())
    assert len(m) == 4
    assert m.declared_property_count == 8
    assert m.validate() == []
    assert save_model(m) == save_model(left_example())


def test_load_unresolved_super():
    doc = "classmodel v1\ntype T\nentity A\n  super Missing\n"
    with pytest.raises(UnknownEntityError) as excinfo:
        load_model(doc)
    assert "line 4" in str(excinfo.value)
    assert "Missing" in str(excinfo.value)


def test_load_empty_entities_list():
    m = load_model("classmodel v1\ntype T\n")
    assert len(m) == 0
    assert m.validate() == []


def test_load_error_cases():
    with pytest.raises(ModelSyntaxError):
        load_model("not a model\n")
    with pytest.raises(ModelSyntaxError):
        load_model("classmodel v1\nfrobnicate X\n")
    with pytest.raises(ModelSyntaxError):
        load_model("classmodel v1\nprop a T\n")
    with pytest.raises(UnknownTypeError):
        load_model("classmodel v1\nentity A\n  prop a T\n")
    with pytest.raises(DuplicateNameError):
        load_model("classmodel v1\nentity A\nentity A\n")
    with pytest.raises(CycleError):
        load_model("classmodel v1\nentity A\n  super B\nentity B\n  super A\n")


def test_syntax_error_reports_line():
    with pytest.raises(ModelSyntaxError) as excinfo:
        load_model("classmodel v1\ntype T\ntype\n")
    assert excinfo.value.line == 3


def test_forward_super_reference():
    m = load_model("classmodel v1\nentity A\n  super B\nentity B\n")
    assert m.has_generalization(m.entity_id("A"), m.entity_id("B"))


def test_comments_and_blank_lines():
    doc = "# header comment\nclassmodel v1\n\ntype T  # the only type\nentity A\n"
    m = load_model(doc)
    assert m.type_names() == ["T"] and [e.name for e in m.entities()] == ["A"]


def test_round_trip_right_fixture():
    data = (FIXTURES / "right.model").read_bytes()
    m = load_model(data)
    assert save_model(load_model(save_model(m))) == save_model(m)
    assert save_model(m) == data  # the fixture is already canonical


def test_two_saves_identical(left_model):
    assert save_model(left_model) == save_model(left_model)


def test_save_after_restructure_marks_synthesized(left_model):
    restructure(left_model, EngineOptions())
    text = save_model(left_model).decode()
    assert "entity NewClass1 synthesized" in text
    reloaded = load_model(save_model(left_model))
    nc = reloaded.entity(reloaded.entity_id("NewClass1"))
    assert nc.origin is Origin.SYNTHESIZED


names_st = st.from_regex(r"[a-zA-Z][a-zA-Z0-9_]{0,8}", fullmatch=True)


@st.composite
def models(draw):
    model = ClassModel()
    types = draw(st.lists(names_st, min_size=1, max_size=3, unique=True))
    for t in types:
        model.add_type(t)
    entity_names = draw(st.lists(names_st, min_size=0, max_size=6, unique=True))
    ids = []
    for name in entity_names:
        eid = model.add_entity(name)
        ids.append(eid)
        props = draw(st.lists(names_st, min_size=0, max_size=4, unique=True))
        for p in props:
            model.add_property(eid, PropKey(p, draw(st.sampled_from(types))))
    for i, sub in enumerate(ids):
        for sup in ids[:i]:  # only edges toward earlier entities: acyclic
            if draw(st.booleans()):
                model.add_generalization(sub, sup)
    return model


@settings(max_examples=150, deadline=None)
@given(models())
def test_round_trip_any_valid_model(model):
    data = save_model(model)
    reloaded = load_model(data)
    assert save_model(reloaded) == data
    assert reloaded.validate() == []


# Every character str.split() splits on; none of them occurs inside a token.
SPLITTERS = [chr(c) for c in range(0x110000) if chr(c).isspace()]


@settings(max_examples=500, deadline=None)
@given(
    st.text(
        alphabet=st.one_of(
            st.characters(blacklist_categories=()),
            st.sampled_from(SPLITTERS + ["#"]),
        )
    )
)
def test_tokens_of_a_comment_free_line_are_names(text):
    # The loader relies on this instead of matching each token again. It
    # splits only text decoded from UTF-8, which holds no lone surrogate.
    assume(not any("\ud800" <= c <= "\udfff" for c in text))
    for line in text.splitlines():
        for token in line.partition("#")[0].split():
            assert _NAME_RE.fullmatch(token)


def test_a_lone_surrogate_is_not_valid_utf8():
    # No name may hold one: save_model could not encode it.
    doc = "classmodel v1\ntype T\nentity A\ud800\n  prop x T\n"
    for load in (load_model, reference_load):
        with pytest.raises(ModelSyntaxError, match="not valid UTF-8"):
            load(doc)


def _outcome(load, data):
    """What loading ``data`` gives: the error, or what the model holds."""
    try:
        m = load(data)
    except ModelError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    assert m.validate() == []
    return (
        save_model(m),
        m.entity_ids(),
        [list(e.properties.items()) for e in m.entities()],
        m.declared_property_count,
        sorted(m.generalizations()),
    )


def _assert_loads_like_reference(data):
    got = _outcome(load_model, data)
    assert got == _outcome(reference_load, data)
    if not isinstance(got[0], bytes):
        assert issubclass(got[0], ModelError)


VOCABULARY = [
    "classmodel", "v1", "type", "entity", "prop", "super", "synthesized",
    "T", "U", "A", "B", "E1", "E2", "NewClass1", "a", "b", "#", " ", "\t",
    "\u3000", "\x85", "\u2028", "\r", "\x00", "\xe9", "\ud800",
]


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=200),
        st.binary(max_size=200).map(lambda b: b"classmodel v1\n" + b),
        st.lists(
            st.lists(st.sampled_from(VOCABULARY), max_size=5).map(" ".join),
            max_size=12,
        ).map(lambda lines: "classmodel v1\n" + "\n".join(lines)),
    )
)
def test_load_arbitrary_input_like_reference(data):
    _assert_loads_like_reference(data)


@st.composite
def mutated_documents(draw):
    lines = save_model(draw(shapes())).decode().splitlines()
    names = [line.split()[1] for line in lines if line.startswith("entity ")]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(
            st.sampled_from(["delete", "duplicate", "swap", "token", "super", "text"])
        )
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "token":
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
                st.sampled_from(VOCABULARY + names)
            )
            lines[i] = " ".join(tokens)
        elif op == "super":
            lines.insert(i + 1, f"  super {draw(st.sampled_from(names + ['Missing']))}")
        else:
            lines.insert(i, draw(st.text(max_size=12)))
        if not lines:
            break
    return "\n".join(lines).encode("utf-8", "surrogatepass")


@settings(max_examples=400, deadline=None)
@given(mutated_documents())
def test_load_mutated_documents_like_reference(data):
    _assert_loads_like_reference(data)


def test_super_errors_name_the_first_failing_line():
    # Line 5 closes a cycle with line 3; the unresolved name on line 7 is
    # not reached. Moved ahead of the cycle, the unresolved name is named.
    doc = (
        "classmodel v1\n"
        "entity A\n  super B\n"
        "entity B\n  super A\n"
        "entity C\n  super Missing\n"
    )
    cycle = "^line 5: generalization B -> A would create a cycle$"
    with pytest.raises(CycleError, match=cycle):
        load_model(doc)
    doc = "classmodel v1\nentity A\n  super Missing\n  super B\nentity B\n  super A\n"
    with pytest.raises(UnknownEntityError, match="^line 3: unknown entity"):
        load_model(doc)


def _backward_chain(n, last=None):
    """``E<i>`` specializes ``E<i-1>``, and ``E0`` specializes ``E<n-1>``: the
    last ``super`` line closes a cycle through all ``n`` classes, unless
    ``last`` replaces the name it gives."""
    lines = ["classmodel v1"]
    for i in range(n):
        lines += [f"entity E{i}", f"  super E{(i - 1) % n}"]
    if last is not None:
        lines[-1] = f"  super {last}"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "last, error, message",
    [
        (None, CycleError, "generalization E7999 -> E7998 would create a cycle"),
        ("Missing", UnknownEntityError, "unknown entity name Missing"),
        ("E7999", GeneralizationError, "self-generalization E7999"),
    ],
)
def test_errors_on_deep_chains_are_found_fast(last, error, message):
    # Within the bound only if finding the line at fault does not walk the
    # ancestors once per edge, which is quadratic on a chain.
    doc = _backward_chain(8000, last)
    start = time.perf_counter()
    with pytest.raises(error, match=f"^line 16001: {message}$"):
        load_model(doc)
    assert time.perf_counter() - start < 1.0
    _assert_loads_like_reference(_backward_chain(300, last).encode())
