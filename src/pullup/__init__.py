"""pullup: pull duplicated, identically-typed class attributes into existing
or newly created superclasses, with an optional multiple-inheritance pass
that removes all remaining duplication."""

from .engine import EngineOptions, RestructureReport, restructure
from .errors import ModelError
from .generate import Family, GeneratorSpec, element_count, generate_model
from .metrics import (
    MetricsSnapshot,
    effectiveness,
    hierarchy_restriction_equal,
    snapshot,
)
from .model import ClassModel, Entity, Origin, PropKey
from .modelfile import load_model, save_model
from .rules import RuleApplication, RuleKind

__version__ = "0.1.0"

__all__ = [
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
]
