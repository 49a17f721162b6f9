"""The package's public names and the rules every module keeps."""

import ast
from pathlib import Path

import pullup

PUBLIC = {
    "ClassModel",
    "EngineOptions",
    "Entity",
    "Family",
    "GeneratorSpec",
    "MetricsSnapshot",
    "ModelError",
    "Origin",
    "PropKey",
    "RestructureReport",
    "RuleApplication",
    "RuleKind",
    "effectiveness",
    "element_count",
    "generate_model",
    "hierarchy_restriction_equal",
    "load_model",
    "restructure",
    "save_model",
    "snapshot",
}


def test_every_exported_name_resolves():
    assert [name for name in pullup.__all__ if not hasattr(pullup, name)] == []
    namespace = {}
    exec("from pullup import *", namespace)
    assert set(pullup.__all__) <= namespace.keys()


def test_public_names_are_exactly_the_api():
    assert sorted(pullup.__all__) == sorted(PUBLIC)


def test_no_module_relies_on_assert():
    # ``python -O`` strips assert statements, so an invariant check written
    # as one would silently stop running.
    found = []
    for path in sorted(Path(pullup.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
