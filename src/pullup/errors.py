"""Exception hierarchy shared by all pullup modules."""


class ModelError(Exception):
    """Base class for every error raised by this package."""


class UnknownEntityError(ModelError):
    """An entity id or name does not exist in the model."""


class UnknownTypeError(ModelError):
    """A property references a type name the model does not declare."""


class DuplicateNameError(ModelError):
    """A name collides with an existing type, entity, or property."""


class InvalidNameError(ModelError):
    """A name is empty, holds whitespace or ``#``, or is not a string."""


class PropertyNotFoundError(ModelError):
    """A property lookup by name failed."""


class GeneralizationError(ModelError):
    """A generalization edge operation is invalid (self, duplicate, missing)."""


class CycleError(GeneralizationError):
    """Adding a generalization edge would create a directed cycle."""


class RuleError(ModelError):
    """A restructuring rule was invoked with violated preconditions."""


class IterationLimitExceeded(ModelError):
    """The fixpoint loop hit its configured iteration cap.

    The model is left in the last consistent state; the partial report is
    attached as ``report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ModelSyntaxError(ModelError):
    """The model file could not be parsed; ``line`` is 1-based."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
