"""Exception types shared across the package."""


class HomeplanError(Exception):
    """Base class for all homeplan errors."""


class UnknownLabelError(HomeplanError, KeyError):
    """A word or object label is outside the relevant vocabulary."""


class UnknownRoomError(HomeplanError, KeyError):
    """A room name is not part of the environment."""


class FloorAccessError(HomeplanError, ValueError):
    """A room was requested on a floor the robot is not assigned to."""


class SchemaError(HomeplanError, ValueError):
    """A serialized document does not match its schema."""


class EmptyDecompositionError(HomeplanError, ValueError):
    """An instruction yielded no recognizable or inferable targets."""


class UnallocatableError(HomeplanError, ValueError):
    """No robot's knowledge covers the subtask's target object."""


class PlanningError(HomeplanError, ValueError):
    """A subtask cannot be set up for execution."""


class BatchSetupError(PlanningError):
    """Some assignments of a batch could not be set up; the others ran.

    ``completed_traces`` holds the traces of the assignments that ran, in
    assignment order.  The first setup error is the ``__cause__``.
    """

    def __init__(self, message: str, completed_traces: list):
        super().__init__(message)
        self.completed_traces = completed_traces


class GenerationError(HomeplanError, ValueError):
    """An instruction suite cannot be generated from the environment."""


class ScoringError(HomeplanError, ValueError):
    """An allocation cannot be scored against the environment."""


class ConfigurationError(HomeplanError, ValueError):
    """A suite or backend configuration is incomplete or inconsistent."""


class BackendError(HomeplanError, RuntimeError):
    """A planner backend failed to produce a response."""


class ReplayMissError(BackendError):
    """No canned response recorded for the requested prompt."""
