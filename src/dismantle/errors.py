"""Exception types and the failure taxonomy shared across the package."""

from enum import Enum


class ErrorType(str, Enum):
    """Failure classification for execution outcomes."""

    PLANNING = "planning"
    SENSE_AND_CONTROL = "sense_and_control"
    DEVICE = "device"


class DismantleError(Exception):
    """Base class for all package errors."""


class ParseError(DismantleError):
    """An input file or option is malformed (bad JSON; an unknown, missing or
    mistyped field)."""

    def __init__(self, message, field=None):
        if field is not None:
            message = f"{message} (field: {field})"
        super().__init__(message)


class ValidationError(DismantleError):
    """Scenario content violates a model invariant; names the offending entity."""

    def __init__(self, message, entity=None):
        if entity is not None:
            message = f"{message} (entity: {entity})"
        super().__init__(message)


class UnknownComponent(DismantleError):
    def __init__(self, component_id):
        super().__init__(f"unknown component: {component_id}")


class DegenerateSpace(DismantleError):
    """A sampled direction set matched no mobility classification rule."""

    def __init__(self, message, pair=None):
        self.pair = pair
        if pair is not None:
            message = f"{message} (pair: {pair[0]}, {pair[1]})"
        super().__init__(message)


class InapplicablePrimitive(DismantleError):
    """A manipulation primitive cannot be applied in the current symbolic state."""

    def __init__(self, mp, reason):
        super().__init__(f"{mp} not applicable: {reason}")


class PlanInfeasible(DismantleError):
    """No primitive sequence exposes the planning goal."""

    def __init__(self, message, blocking_relations=()):
        self.blocking_relations = tuple(blocking_relations)
        if self.blocking_relations:
            detail = "; ".join(str(r) for r in self.blocking_relations)
            message = f"{message}; blocking relations: {detail}"
        super().__init__(message)


class UnresolvableGoal(DismantleError):
    """Decomposition found no pose or feature source for a required slot."""


class SingularJacobian(DismantleError):
    """Feature set is degenerate; the servoing pseudo-inverse does not exist."""


class SkillTimeout(DismantleError):
    """A skill primitive ran past its time budget without meeting its stop condition."""
