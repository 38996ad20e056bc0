"""Exception types shared across the package, the checks the documents share, and JSON reading and writing."""

import json
import math
import numbers
import sys
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


def is_count(v) -> bool:
    """Whether ``v`` is an integer, not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def require(value, kind: type, where: str):
    """``value`` if it is a ``kind``; SchemaError otherwise."""
    if not isinstance(value, kind):
        raise SchemaError(f"{where} must be a {kind.__name__}")
    return value


def tuple_of(value, item: type, where: str) -> tuple:
    """``value`` as a tuple; SchemaError unless it is a list or tuple of ``item``."""
    if not (isinstance(value, (list, tuple)) and all(isinstance(v, item) for v in value)):
        raise SchemaError(f"{where} must be a list" + ("" if item is object else f" of {item.__name__}"))
    return tuple(value)


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


def write_json(doc, out=None) -> None:
    """Write ``doc`` to the file ``out`` or stdout as every JSON document is: indented by two, one final newline."""
    text = json.dumps(doc, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
