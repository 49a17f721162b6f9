import pytest

from pullup.engine import EngineOptions, restructure
from pullup.generate import Family, GeneratorSpec, element_count, generate_model
from pullup.modelfile import save_model
from pullup.rules import RuleKind


@pytest.mark.parametrize("family", list(Family))
def test_same_spec_same_model(family):
    spec = GeneratorSpec(family, scale=5, seed=1234)
    m1, m2 = generate_model(spec), generate_model(spec)
    assert save_model(m1) == save_model(m2)


def test_different_seeds_differ():
    a = generate_model(GeneratorSpec(Family.MIXED, 5, 1))
    b = generate_model(GeneratorSpec(Family.MIXED, 5, 2))
    assert save_model(a) != save_model(b)


@pytest.mark.parametrize("family", list(Family))
def test_generated_models_validate(family):
    m = generate_model(GeneratorSpec(family, scale=10, seed=99))
    assert m.validate() == []


def test_flat_shared_scale_1_reaches_zero_duplication():
    m = generate_model(GeneratorSpec(Family.FLAT_SHARED, scale=1, seed=7))
    restructure(m, EngineOptions(multi_inheritance=True))
    assert m.duplication_count == 0


def test_flat_family_exercises_rule3_and_extension():
    m = generate_model(GeneratorSpec(Family.FLAT_SHARED, scale=30, seed=3))
    report = restructure(m, EngineOptions(multi_inheritance=True))
    rules = {a.rule for a in report.applications}
    assert RuleKind.RULE3 in rules
    assert RuleKind.MULTI_INHERIT_NEW in rules or RuleKind.MULTI_INHERIT_REUSE in rules


def test_star_family_exercises_rules_1_and_2():
    m = generate_model(GeneratorSpec(Family.STAR_HIERARCHIES, scale=30, seed=3))
    report = restructure(m, EngineOptions())
    rules = {a.rule for a in report.applications}
    assert RuleKind.RULE1 in rules
    assert RuleKind.RULE2 in rules


def test_element_count():
    m = generate_model(GeneratorSpec(Family.STAR_HIERARCHIES, scale=4, seed=0))
    assert element_count(m) == (
        len(m) + m.declared_property_count + len(m.generalizations())
    )


def test_scale_must_be_positive():
    with pytest.raises(ValueError):
        generate_model(GeneratorSpec(Family.MIXED, 0, 1))
