import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pullup import engine
from pullup.engine import (
    INDEXED_CHILDREN,
    EngineOptions,
    pass_rule_3,
    pass_rules_1_2,
    restructure,
)
from pullup.errors import IterationLimitExceeded, RuleError
from pullup.generate import Family, GeneratorSpec, generate_model
from pullup.metrics import hierarchy_restriction_equal
from pullup.model import Origin, PropKey
from pullup.modelfile import load_model, save_model
from pullup.rules import RuleApplication, RuleKind

from conftest import FIXTURES, build_model, left_example, names, right_example
from large_shapes import climbing_chain_model
from reference_engine import reference_restructure

SRC = Path(__file__).resolve().parent.parent / "src"


def test_pass_rules_1_2_single_rule1_firing():
    m = build_model({"S": [], "A": ["a"], "B": ["a"]}, edges=[("A", "S"), ("B", "S")])
    state = engine._CoreState(m, EngineOptions())
    assert pass_rules_1_2(state) is True
    assert m.entity(m.entity_id("S")).properties.keys() == {"a"}


def test_pass_rules_1_2_no_generalizations():
    m = build_model({"A": ["a"], "B": ["a"]})
    state = engine._CoreState(m, EngineOptions())
    assert pass_rules_1_2(state) is False


def test_pass_rules_1_2_pulls_only_shared():
    m = build_model(
        {"S": [], "A": ["a", "x"], "B": ["a", "y"], "C": ["a"]},
        edges=[("A", "S"), ("B", "S"), ("C", "S")],
    )
    state = engine._CoreState(m, EngineOptions())
    assert pass_rules_1_2(state) is True
    assert [a.rule for a in state.applications] == [RuleKind.RULE1]
    assert m.entity(m.entity_id("S")).properties.keys() == {"a"}
    assert m.entity(m.entity_id("A")).properties.keys() == {"x"}
    assert m.entity(m.entity_id("B")).properties.keys() == {"y"}


def test_pass_rule_3_right_example(right_model):
    m = right_model
    state = engine._CoreState(m, EngineOptions())
    assert pass_rule_3(state) is True
    (app,) = state.applications
    assert app.rule is RuleKind.RULE3
    assert [k.prop_name for k in app.keys] == ["a", "b"]
    assert names(m, app.sources) == ["P", "Q"]
    assert m.entity(app.created).name == "NewClass1"


def test_pass_rule_3_nothing_shared():
    m = build_model({"A": ["a"], "B": ["b"]})
    state = engine._CoreState(m, EngineOptions())
    assert pass_rule_3(state) is False


def test_pass_rule_3_single_top_level():
    m = build_model({"A": ["a", "b"]})
    state = engine._CoreState(m, EngineOptions())
    assert pass_rule_3(state) is False


def test_restructure_left_example(left_model):
    report = restructure(left_model, EngineOptions())
    assert report.metrics_after.declaration_count == 6
    assert report.new_class_count == 1
    assert {k.prop_name for k in left_model.duplicated_keys()} == {"a", "b"}


def test_restructure_right_example(right_model):
    report = restructure(right_model, EngineOptions())
    assert report.metrics_before.declaration_count == 7
    assert report.metrics_after.declaration_count == 5
    assert report.new_class_count == 1
    assert right_model.duplicated_keys() == {PropKey("d", "T")}


@pytest.mark.parametrize("make", [left_example, right_example])
def test_restructure_multi_inheritance_removes_all_duplication(make):
    m = make()
    report = restructure(m, EngineOptions(multi_inheritance=True))
    assert report.metrics_after.duplication_count == 0
    assert m.duplication_count == 0
    assert m.validate() == []


def test_report_created_entities_match_synthesized(left_model):
    report = restructure(left_model, EngineOptions(multi_inheritance=True))
    synthesized = {
        e.id for e in left_model.entities() if e.origin is Origin.SYNTHESIZED
    }
    assert set(report.created_entities) == synthesized


def test_restructure_idempotent_at_fixpoint(left_model):
    restructure(left_model, EngineOptions())
    again = restructure(left_model, EngineOptions())
    assert again.applications == []
    assert again.iterations == 1


@pytest.mark.xfail(
    strict=True,
    reason="the multiple-inheritance pass adds an edge an inherited "
    "redeclaration already implies, and a second run hoists again",
)
def test_multi_inheritance_min_1_idempotent_on_redeclared_key():
    # E2 -> E1 -> E0, and E2 redeclares E1's a:T. The first run fires rule 1
    # (a:T from E1 into E0), rule 1 (a:T b:T from E2 into E1), then
    # multi-inherit-new a:T for E0 and E1, whose edge E1 -> NewClass1 is
    # already implied through E0. A second run then hoists b:T from E1 into
    # E0 by rule 1.
    m = build_model(
        {"E0": [], "E1": ["a"], "E2": ["a", "b"]}, edges=[("E2", "E1"), ("E1", "E0")]
    )
    options = EngineOptions(multi_inheritance=True, min_subclasses=1)
    restructure(m, options)
    assert restructure(m, options).applications == []


def test_restructure_final_model_validates(left_model):
    restructure(left_model, EngineOptions(multi_inheritance=True))
    assert left_model.validate() == []


def test_iteration_limit_raises_with_partial_report(left_model):
    with pytest.raises(IterationLimitExceeded) as excinfo:
        restructure(left_model, EngineOptions(max_iterations=1))
    report = excinfo.value.report
    assert report is not None
    assert report.iterations == 1
    assert left_model.validate() == []  # last consistent state


def test_mid_pass_entities_not_visited_until_next_pass():
    # Rule 3 creates NewClass1 during the first iteration; its children are
    # only examined by rules 1/2 in the following iteration.
    m = build_model({"A": ["a", "x1"], "B": ["a", "x1", "x2"], "C": ["a"]})
    report = restructure(m, EngineOptions())
    rules = [a.rule for a in report.applications]
    assert rules[0] is RuleKind.RULE3
    assert RuleKind.RULE2 in rules or RuleKind.RULE1 in rules
    assert report.iterations >= 2


def test_restructure_deterministic(left_model):
    m1, m2 = left_example(), left_example()
    r1 = restructure(m1, EngineOptions(multi_inheritance=True))
    r2 = restructure(m2, EngineOptions(multi_inheritance=True))
    assert r1.applications == r2.applications
    assert save_model(m1) == save_model(m2)


def test_trace_logs_applications(caplog, left_model):
    # Each firing is logged at DEBUG; below that level nothing is.
    with caplog.at_level(logging.INFO, logger="pullup.engine"):
        restructure(left_example(), EngineOptions())
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="pullup.engine"):
        report = restructure(left_model, EngineOptions(multi_inheritance=True))
    messages = [rec.getMessage() for rec in caplog.records]
    assert len(messages) == len(report.applications)
    assert [m.split()[0] for m in messages] == [a.rule.value for a in report.applications]
    assert messages[0] == "rule3 keys=['c'] sources=['B', 'C', 'D'] target=NewClass1"


@pytest.mark.parametrize("super_type", ["T", "U"])
@pytest.mark.parametrize("min_subclasses", [1, 2])
@pytest.mark.parametrize("multi", [False, True])
def test_restructure_rule1_name_conflict(super_type, min_subclasses, multi):
    m = build_model(
        {"S": [f"a:{super_type}"], "C1": ["a"], "C2": ["a"]},
        edges=[("C1", "S"), ("C2", "S")],
        types=("T", "U"),
    )
    original = m.clone()
    options = EngineOptions(multi_inheritance=multi, min_subclasses=min_subclasses)
    report = restructure(m, options)
    assert report.applications[0].rule is RuleKind.RULE2
    assert m.validate() == []
    for name in ("C1", "C2"):
        eid = m.entity_id(name)
        assert m.flattened_props(eid) == original.flattened_props(eid)
    assert hierarchy_restriction_equal(original, m)
    if multi:
        assert m.duplication_count == 0
    assert restructure(m, options).applications == []


def test_restructure_rejects_min_subclasses_below_one(left_model):
    before = left_model.clone()
    with pytest.raises(RuleError):
        restructure(left_model, EngineOptions(min_subclasses=0))
    assert save_model(left_model) == save_model(before)


@pytest.mark.parametrize("limit", [0, -1])
def test_restructure_rejects_max_iterations_below_one(left_model, limit):
    before = left_model.clone()
    with pytest.raises(RuleError, match="max_iterations must be >= 1"):
        restructure(left_model, EngineOptions(max_iterations=limit))
    assert save_model(left_model) == save_model(before)


def test_clean_superclasses_are_not_ranked_again(monkeypatch):
    m = build_model(
        {"S": [], "A": ["a"], "B": ["b"], "R": [], "C": ["c"], "D": ["c"]},
        edges=[("A", "S"), ("B", "S"), ("C", "R"), ("D", "R")],
    )
    ranked = []
    real = engine.top_candidate

    def spy(model, classes):
        ranked.append(names(model, classes))
        return real(model, classes)

    monkeypatch.setattr(engine, "top_candidate", spy)
    state = engine._CoreState(m, EngineOptions())
    assert pass_rules_1_2(state) is True  # rule 1 on R
    assert ranked == [["C", "D"]]  # S's subclasses share no key
    ranked.clear()
    assert pass_rules_1_2(state) is False
    assert ranked == [["C", "D"]]  # R's declarations changed, S's inputs did not
    ranked.clear()
    assert pass_rules_1_2(state) is False
    assert ranked == []


def _count_index_builds(monkeypatch, indexes=None):
    """Record the parent of every class set that gets a sharing index
    (``None`` for the top level), and the index in ``indexes`` if given."""
    built = []
    real = engine.SharingIndex

    def counting(model, parent=None):
        built.append(parent)
        index = real(model, parent)
        if indexes is not None:
            indexes.append(index)
        return index

    monkeypatch.setattr(engine, "SharingIndex", counting)
    return built


def _assert_like_reference(model, options):
    out, ref = model.clone(), model.clone()
    report = restructure(out, options)
    assert (report.applications, report.iterations) == reference_restructure(ref, options)
    assert save_model(out) == save_model(ref)
    return report


@pytest.mark.parametrize("multi", [False, True])
def test_a_source_losing_a_key_unblocks_rule_1_on_its_only_child(multi):
    # Q's only child C declares a:U, a name Q declares too, so rule 1 on Q is
    # blocked. Rule 2 on R then takes a:U from C and D, behind Q in the
    # sweep, and in the next pass rule 1 hoists C's b:T into Q. Q is neither
    # that firing's target nor the target's parent: only the record of Q's
    # block marks Q again.
    m = build_model(
        {"Q": ["a:T"], "R": [], "C": ["a:U", "b:T"], "D": ["a:U"], "E": ["z:T"]},
        edges=[("C", "Q"), ("C", "R"), ("D", "R"), ("E", "R")],
        types=("T", "U"),
    )
    report = _assert_like_reference(
        m, EngineOptions(multi_inheritance=multi, min_subclasses=1)
    )
    assert [a.rule for a in report.applications] == [RuleKind.RULE2, RuleKind.RULE1]
    assert names(m, report.applications[1].sources) == ["C"]


@pytest.mark.parametrize("multi", [False, True])
def test_rule_3_index_is_built_once_and_serves_every_pass(monkeypatch, multi):
    options = EngineOptions(multi_inheritance=multi)
    indexes = []
    built = _count_index_builds(monkeypatch, indexes)
    # Every star's keys carry its own number, so no two roots share one, and
    # no star has INDEXED_CHILDREN subclasses: at most the top level's index,
    # which files no class, for no root declares a duplicated key.
    _assert_like_reference(
        generate_model(GeneratorSpec(Family.STAR_HIERARCHIES, 60, 4)), options
    )
    assert built == [None] and indexes[0]._keys == {}
    built.clear()
    flat = generate_model(GeneratorSpec(Family.FLAT_SHARED, 60, 4))
    report = _assert_like_reference(flat, options)
    assert built == [None]
    assert report.iterations > 2  # the one index served every pass


def test_rules_1_2_climb_a_chain_without_scanning_the_top_level(monkeypatch):
    # Rule 1 climbs the chain one level per pass, 2,000 passes, beside 5,000
    # top-level classes that share nothing. The top level is indexed once;
    # no pass ranks it again.
    built = _count_index_builds(monkeypatch)
    widest = [0]
    real = engine.top_candidate

    def spy(model, classes):
        widest[0] = max(widest[0], len(classes))
        return real(model, classes)

    monkeypatch.setattr(engine, "top_candidate", spy)
    model = climbing_chain_model(2000, 5000)
    report = restructure(model, EngineOptions())
    assert report.iterations == 2001
    assert [a.rule for a in report.applications] == [RuleKind.RULE1] * 2000
    assert built == [None] and widest[0] == 2
    assert model.duplication_count == 0


@pytest.mark.parametrize("min_subclasses", [1, 2, 3])
@pytest.mark.parametrize("multi", [False, True])
def test_a_climbing_chain_matches_reference(min_subclasses, multi):
    options = EngineOptions(multi_inheritance=multi, min_subclasses=min_subclasses)
    _assert_like_reference(climbing_chain_model(12, 30), options)


@pytest.mark.parametrize("children", [INDEXED_CHILDREN, 70, 200])
@pytest.mark.parametrize("min_subclasses", [1, 2, 3])
@pytest.mark.parametrize("multi", [False, True])
def test_an_indexed_set_still_offers_its_only_child(
    monkeypatch, children, min_subclasses, multi
):
    # R and its children all declare a:T, so rule 2 moves every child below
    # a new class; rule 3 then takes a from R and the top-level O, and under
    # min_subclasses=1 rule 1 hoists a from R's only child into R.
    m = build_model(
        {"R": ["a"], "O": ["a"], **{f"C{i}": ["a", f"k{i}"] for i in range(children)}},
        edges=[(f"C{i}", "R") for i in range(children)],
    )
    built = _count_index_builds(monkeypatch)
    options = EngineOptions(multi_inheritance=multi, min_subclasses=min_subclasses)
    report = _assert_like_reference(m, options)
    assert m.entity_id("R") in built
    rules = [a.rule for a in report.applications if a.rule.value.startswith("rule")]
    only_child = [RuleKind.RULE1] if min_subclasses == 1 else []
    assert rules == [RuleKind.RULE2, RuleKind.RULE3, *only_child]


def test_rule_3_looks_again_after_a_top_level_class_changes(monkeypatch):
    # Pass 1: rule 1 hoists a into R1; R0 and P share nothing yet. Pass 2:
    # rule 1 hoists a into the top-level R0, which now shares it with P.
    m = build_model(
        {"R0": [], "P": ["a"], "R1": [], "Z": ["a"], "X": ["a"], "Y": ["a"]},
        edges=[("R1", "R0"), ("Z", "R0"), ("X", "R1"), ("Y", "R1")],
    )
    built = _count_index_builds(monkeypatch)
    report = _assert_like_reference(m, EngineOptions())
    assert [a.rule for a in report.applications] == [
        RuleKind.RULE1, RuleKind.RULE1, RuleKind.RULE3
    ]
    assert len(built) == 1


@pytest.mark.parametrize("fixture", ["left.model", "right.model"])
@pytest.mark.parametrize("multi", [False, True])
def test_a_restructured_model_is_rechecked_without_ranking(monkeypatch, fixture, multi):
    done = load_model((FIXTURES / fixture).read_bytes())
    restructure(done, EngineOptions(multi_inheritance=True))
    model = load_model(save_model(done))
    ranked = []
    real = engine.apply_shared_superclass_rule

    def spy(*args):
        ranked.append(args[1])
        return real(*args)

    monkeypatch.setattr(engine, "apply_shared_superclass_rule", spy)
    built = _count_index_builds(monkeypatch)
    report = restructure(model, EngineOptions(multi_inheritance=multi))
    assert (report.applications, report.iterations) == ([], 1)
    assert ranked == [] and built == []
    assert save_model(model) == save_model(done)


def test_first_sweep_starts_from_every_parent_of_a_sharing_class():
    # A and B share a only below P, their last parent; Q1 and Q2 come first.
    m = build_model(
        {"Q1": [], "Q2": [], "P": [], "A": ["a"], "B": ["a"]},
        edges=[("A", "Q1"), ("A", "P"), ("B", "Q2"), ("B", "P")],
    )
    report = _assert_like_reference(m, EngineOptions())
    assert [(a.rule, names(m, [a.target])) for a in report.applications] == [
        (RuleKind.RULE1, ["P"])
    ]


def test_rule_1_hoists_from_an_only_child_without_duplication():
    m = build_model({"P": [], "C": ["a"]}, edges=[("C", "P")])
    assert m.duplication_count == 0
    report = _assert_like_reference(m, EngineOptions(min_subclasses=1))
    assert [a.rule for a in report.applications] == [RuleKind.RULE1]
    out = m.clone()
    restructure(out, EngineOptions(min_subclasses=1))
    assert list(out.entity(out.entity_id("P")).properties.values()) == [PropKey("a", "T")]
    assert out.entity(out.entity_id("C")).properties == {}


def test_termination_guard_raises_rule_error(monkeypatch, left_model):
    def idle(model, super_id, candidate, min_subclasses):
        # Reports a firing without removing any declaration.
        return RuleApplication(
            RuleKind.RULE3, candidate.keys, candidate.owners, min(candidate.owners)
        )

    monkeypatch.setattr(engine, "apply_shared_superclass_rule", idle)
    with pytest.raises(RuleError, match="did not decrease"):
        restructure(left_model, EngineOptions(max_iterations=3))


def test_termination_guard_covers_the_multiple_inheritance_pass(monkeypatch):
    # A and B share a below different parents: only the extension fires.
    m = build_model(
        {"S1": [], "S2": [], "A": ["a"], "B": ["a"], "X": ["x"], "Y": ["y"]},
        edges=[("A", "S1"), ("X", "S1"), ("B", "S2"), ("Y", "S2")],
    )
    real = engine.exploit_multiple_inheritance
    fired = []

    def repeat_last(model, on_apply):
        # The real pass, then its last firing reported again, which removes
        # no declaration.
        def both(app):
            on_apply(app)
            fired.append(app)

        real(model, both)
        on_apply(fired[-1])

    monkeypatch.setattr(engine, "exploit_multiple_inheritance", repeat_last)
    with pytest.raises(RuleError, match="did not decrease"):
        restructure(m, EngineOptions(multi_inheritance=True))
    assert [a.rule for a in fired] == [RuleKind.MULTI_INHERIT_NEW]


_GUARD_UNDER_O = """
assert not __debug__
from pullup import engine
from pullup.engine import EngineOptions
from pullup.errors import RuleError
from pullup.model import ClassModel, PropKey
from pullup.rules import RuleApplication, RuleKind

def model():
    m = ClassModel()
    m.add_type("T")
    s = m.add_entity("S")
    for name, prop, sup in (("A", "a", s), ("B", "a", s), ("P", "p", None), ("Q", "p", None)):
        eid = m.add_entity(name)
        m.add_property(eid, PropKey(prop, "T"))
        if sup is not None:
            m.add_generalization(eid, sup)
    return m

real_rule = engine.apply_shared_superclass_rule

def idle_at(top_level):
    # Reports a firing at one level without removing any declaration.
    def idle(model, super_id, candidate, min_subclasses):
        if (super_id is None) != top_level:
            return real_rule(model, super_id, candidate, min_subclasses)
        kind, target = (
            (RuleKind.RULE3, min(candidate.owners)) if top_level else (RuleKind.RULE1, super_id)
        )
        return RuleApplication(kind, candidate.keys, candidate.owners, target)
    return idle

def idle_pass(model, on_apply):
    # A multiple-inheritance pass that reports a firing and changes nothing.
    target = min(model.entity_ids())
    on_apply(RuleApplication(RuleKind.MULTI_INHERIT_REUSE, (), frozenset(), target))

core, extension = EngineOptions(max_iterations=3), EngineOptions(multi_inheritance=True)
cases = (
    ("rules 1/2", "apply_shared_superclass_rule", idle_at(False), core),
    ("rule 3", "apply_shared_superclass_rule", idle_at(True), core),
    ("multiple inheritance", "exploit_multiple_inheritance", idle_pass, extension),
)
for case, name, stand_in, options in cases:
    real = getattr(engine, name)
    setattr(engine, name, stand_in)
    try:
        engine.restructure(model(), options)
    except RuleError as exc:
        assert "did not decrease" in str(exc), exc
    else:
        raise SystemExit(f"{case}: the guard did not fire")
    finally:
        setattr(engine, name, real)
print("guard ok")
"""


def test_termination_guard_survives_optimize_flag():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _GUARD_UNDER_O],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "guard ok"
