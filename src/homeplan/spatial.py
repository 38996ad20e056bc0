"""Generative spatial concept model and its cross-modal posterior queries.

A concept here is one region, as in the paper, where a spatial concept is a
room name plus that room's object presence: region r has a weight ``pi[r]``, a
place-word and an object-label categorical, and a Gaussian position.  SpCoSLAM
(Taniguchi et al. 2017) links concepts to regions through a second index; this
model has none.  It is checked once when built and then frozen: tuples for its
vocabularies, read-only float copies of the stacked arrays the learner writes
and the queries read: ``pi`` (R,), ``word_dist`` (R, V), ``object_dist`` (R, O),
``means`` (R, 2) and ``covs`` (R, 2, 2).  The JSON document, ``schema_version``
2, keeps one entry per region.  The two queries are normalized categoricals: a
region's word distribution, and the per-object region posterior behind the
presence tables.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import SchemaError, UnknownLabelError, is_finite_real, read_json, require_fields, tuple_of, write_json

CATEGORICAL_ATOL = 1e-9

_MODEL_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class Hyperparameters:
    """The five priors of the mixture learner, and its two fixed settings.

    Concentrations are per-component symmetric Dirichlet parameters; the Gaussian
    regions carry a normal-inverse-Wishart prior (kappa, nu0) whose mean and scale
    the learner takes from the floor's sessions.  ``num_particles`` and
    ``lag_window`` are constants, not fields: every learn runs 30 particles and
    re-draws no past session.  ``from_dict`` ignores unknown keys, so documents
    with the removed ``lambda_aux``, ``gamma``, ``num_particles`` or
    ``lag_window`` field, prior mean or prior scale load.
    """

    alpha: float = 2.0
    beta: float = 0.1
    chi: float = 0.1
    kappa: float = 1.0
    nu0: float = 3.0
    # The particles of every learn, and the past sessions each step re-draws: none.  The
    # benchmark counts grid evaluations from both.
    num_particles: ClassVar[int] = 30
    lag_window: ClassVar[int] = 0

    def __post_init__(self):
        # Checked here, once per construction or load, so the learner reads them unchecked.
        for name, floor in (("alpha", 0), ("beta", 0), ("chi", 0), ("kappa", 0), ("nu0", 1)):
            value = getattr(self, name)
            if not is_finite_real(value) or value <= floor:
                raise SchemaError(f"{name} must be a finite number above {floor}, not {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Hyperparameters":
        try:
            return cls(**{f.name: data[f.name] for f in fields(cls)})
        except KeyError as exc:
            raise SchemaError(f"hyperparameters missing key: {exc.args[0]!r}") from None
        except TypeError:
            raise SchemaError("hyperparameters must be an object") from None


@dataclass(frozen=True)
class Session:
    """One learning observation: pose, detected labels, uttered place words.

    Checked once when built and then frozen: ``position`` a read-only float
    2-vector, labels and words tuples of str.  ``room_hint`` is evaluation-side
    ground truth; the learner never reads it.
    """

    position: np.ndarray
    object_labels: tuple[str, ...]
    place_words: tuple[str, ...]
    room_hint: str | None = None

    def __post_init__(self):
        position = self.position
        try:  # a numpy row unpacks several times faster as a list
            x, y = position.tolist() if isinstance(position, np.ndarray) else position
        except (TypeError, ValueError):  # not a sequence of two
            x = y = None
        if not (is_finite_real(x) and is_finite_real(y)):
            raise SchemaError("position must be two finite numbers")
        position = np.array((x, y), dtype=float)
        position.flags.writeable = False
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "object_labels", tuple_of(self.object_labels, str, "object_labels"))
        object.__setattr__(self, "place_words", tuple_of(self.place_words, str, "place_words"))
        if self.room_hint is not None and not isinstance(self.room_hint, str):
            raise SchemaError(f"room_hint must be a str or null, not {self.room_hint!r}")


# The stacked arrays of a model, a row per region: pi, the two categoricals, the Gaussians.
_ARRAYS = ("pi", "word_dist", "object_dist", "means", "covs")


@dataclass(frozen=True)
class SpatialConceptModel:
    """Learned mixture of regions, each with place words, object labels and a 2D Gaussian.

    Row r of each ``*_dist`` array is region r's categorical, and its position is the
    Gaussian (``means[r]``, ``covs[r]``).  Change one with ``dataclasses.replace``.
    """

    pi: np.ndarray
    word_dist: np.ndarray
    object_dist: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    vocab_places: tuple[str, ...]
    vocab_objects: tuple[str, ...]
    hyperparameters: Hyperparameters | None = None
    seed: int | None = None

    def __post_init__(self):
        # Checked here, once per construction or load, so the posterior queries read it unchecked.
        for name in ("vocab_places", "vocab_objects"):
            vocab = tuple_of(getattr(self, name), str, name)
            if len(set(vocab)) != len(vocab):
                raise SchemaError(f"{name} must be a list of distinct strings")
            object.__setattr__(self, name, vocab)
        for name in _ARRAYS:
            object.__setattr__(self, name, _real_array(getattr(self, name), name))
        object.__setattr__(self, "_object_index", {o: i for i, o in enumerate(self.vocab_objects)})
        if self.means.ndim != 2:
            raise SchemaError("means must be a matrix, a row per region")
        R = self.num_regions
        if R < 1:
            raise SchemaError("model needs at least one region")
        shapes = ((R,), (R, len(self.vocab_places)), (R, len(self.vocab_objects)), (R, 2), (R, 2, 2))
        for name, shape in zip(_ARRAYS, shapes):
            if getattr(self, name).shape != shape:
                raise SchemaError(f"{name} has shape {getattr(self, name).shape}, not {shape}")
        for name in _ARRAYS[:3]:
            _check_categorical(getattr(self, name), name)
        if not np.allclose(self.covs, self.covs.transpose(0, 2, 1)):
            raise SchemaError("region covariance not symmetric")
        if np.any(np.linalg.eigvalsh(self.covs) <= 0):
            raise SchemaError("region covariance not positive-definite")
        if not (self.hyperparameters is None or isinstance(self.hyperparameters, Hyperparameters)):
            raise SchemaError(f"hyperparameters must be Hyperparameters or null, not {self.hyperparameters!r}")
        if self.seed is not None and (isinstance(self.seed, bool) or not isinstance(self.seed, int)):
            raise SchemaError(f"seed must be an integer or null, not {self.seed!r}")

    @property
    def num_regions(self) -> int:
        return len(self.means)

    def object_id(self, label: str) -> int:
        try:
            return self._object_index[label]
        except KeyError:
            raise UnknownLabelError(f"object label {label!r} is not in the model vocabulary") from None


def _real_array(value, name: str) -> np.ndarray:
    """A read-only float copy of ``value``; SchemaError if it is ragged, non-numeric or non-finite."""
    try:
        arr = np.asarray(value)
    except ValueError:
        raise SchemaError(f"{name} is ragged") from None
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise SchemaError(f"{name} must hold finite numbers only")
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


def _check_categorical(arr: np.ndarray, name: str) -> None:
    """SchemaError unless ``arr`` (or each row of a 2-D ``arr``) is a categorical."""
    if arr.shape[-1] == 0:
        return
    if np.any(arr < 0):
        raise SchemaError(f"{name} has negative entries")
    with np.errstate(over="ignore"):  # huge finite entries sum to inf, which the check rejects
        sums = arr.sum(axis=-1)
    off = np.abs(sums - 1.0) > CATEGORICAL_ATOL
    if np.any(off):
        raise SchemaError(f"{name} does not sum to 1 (got {sums[off].flat[0]!r})")


def word_posterior(model: SpatialConceptModel, region: int) -> np.ndarray:
    """Word occurrence probabilities P(w | i) for one region: its word distribution."""
    if not 0 <= region < model.num_regions:
        raise IndexError(f"region {region} out of range [0, {model.num_regions})")
    return model.word_dist[region]


def object_location_posterior(model: SpatialConceptModel, obj: str) -> np.ndarray:
    """Region probabilities for one object label.

    This is the source of the room-wise object presence rows: P(i | o)
    proportional to pi[i] * xi_i[o].  An object with zero mixture evidence
    yields the uniform categorical.
    """
    joint = model.pi * model.object_dist[:, model.object_id(obj)]
    total = joint.sum()
    if total <= 0.0:
        return np.full(model.num_regions, 1.0 / model.num_regions)
    return joint / total


# The fields of one entry of a model document's "regions" list.
_REGION_FIELDS = ("word_dist", "object_dist", "mean", "cov")


def model_to_dict(model: SpatialConceptModel) -> dict:
    return {
        "schema_version": _MODEL_SCHEMA_VERSION,
        "vocab_places": list(model.vocab_places),
        "vocab_objects": list(model.vocab_objects),
        "pi": model.pi.tolist(),
        "regions": [dict(zip(_REGION_FIELDS, rows)) for rows in zip(
            model.word_dist.tolist(), model.object_dist.tolist(), model.means.tolist(), model.covs.tolist())],
        "hyperparameters": None if model.hyperparameters is None else model.hyperparameters.to_dict(),
        "seed": model.seed,
    }


def model_from_dict(data: dict) -> SpatialConceptModel:
    fields = ("pi", "regions", "vocab_places", "vocab_objects")
    pi, regions, vocab_places, vocab_objects = require_fields(data, fields, "model document")
    if type(version := data.get("schema_version")) is not int or version != _MODEL_SCHEMA_VERSION:
        raise SchemaError(f"model document has schema_version {version!r}, expected {_MODEL_SCHEMA_VERSION}")
    regions = [require_fields(r, _REGION_FIELDS, f"regions[{i}]")
               for i, r in enumerate(tuple_of(regions, object, "regions"))]
    # One list per field, a row per region; ``_real_array`` rejects ragged ones.
    word_dist, object_dist, means, covs = ([r[j] for r in regions] for j in range(len(_REGION_FIELDS)))
    hp = data.get("hyperparameters")
    return SpatialConceptModel(pi, word_dist, object_dist, means, covs, vocab_places, vocab_objects,
                               None if hp is None else Hyperparameters.from_dict(hp), data.get("seed"))


def save_model(model: SpatialConceptModel, path) -> None:
    """Write ``model`` as ``homeplan learn --out`` does, byte for byte."""
    write_json(model_to_dict(model), path)


def load_model(path) -> SpatialConceptModel:
    return model_from_dict(read_json(path, "model"))
