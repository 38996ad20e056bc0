"""Exception types shared across the package, and the checks the loaders share."""

import json
import math
import numbers
from pathlib import Path


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


def is_finite_real(v) -> bool:
    """Whether ``v`` is a real number, not a bool, that a float holds finitely."""
    # float and int first: they match without the slower numbers.Real check.
    if isinstance(v, bool) or not isinstance(v, (float, int, numbers.Real)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


def require(value, kind: type, where: str, items: type | None = None):
    """``value`` if it is a ``kind`` whose items (values, for a dict) are all ``items``.

    Raises SchemaError otherwise.  Loaders call it once per container of a document.
    """
    if not isinstance(value, kind) or items is not None and not all(
            isinstance(v, items) for v in (value.values() if isinstance(value, dict) else value)):
        what = kind.__name__ if items is None else f"{kind.__name__} of {items.__name__}"
        raise SchemaError(f"{where} must be a {what}")
    return value


def require_fields(data, keys: tuple[str, ...], where: str) -> list:
    """The values of ``keys`` in the JSON object ``data``; SchemaError if it is not one or lacks any."""
    require(data, dict, where)
    missing = [k for k in keys if k not in data]
    if missing:
        raise SchemaError(f"{where} missing keys: {missing}")
    return [data[k] for k in keys]


def read_json(path, what: str):
    """The JSON value in the file ``path``; SchemaError naming the ``what`` file if it cannot be had."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise SchemaError(f"{what} file {str(path)!r} cannot be read: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise SchemaError(f"{what} file {str(path)!r} is not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} file {str(path)!r} is not valid JSON: {exc}") from None
