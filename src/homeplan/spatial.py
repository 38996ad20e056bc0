"""Generative spatial concept model and its cross-modal posterior queries.

A model ties K latent concepts to place words, object labels, and R Gaussian
position regions.  The two queries implemented here marginalize the concept
index: the per-region word posterior and the per-object region posterior that
feeds the room-wise presence tables.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import SchemaError, UnknownLabelError, is_finite_real, read_json, require, require_fields

CATEGORICAL_ATOL = 1e-9

_MODEL_SCHEMA_VERSION = 1


def normalize_evidence(vec: np.ndarray) -> np.ndarray:
    """Normalize a non-negative evidence vector to a categorical.

    Invariant under positive rescaling of the input.
    """
    vec = np.asarray(vec, dtype=float)
    total = vec.sum()
    if total <= 0.0:
        raise ValueError("evidence vector has no mass")
    return vec / total


@dataclass(frozen=True)
class Hyperparameters:
    """Prior parameters for the mixture learner.

    Concentrations are per-component symmetric Dirichlet parameters; the
    Gaussian regions carry a normal-inverse-Wishart prior (m0, kappa, V0, nu0).
    ``from_dict`` ignores unknown keys, so documents written with the removed
    ``lambda_aux`` field still load.
    """

    alpha: float = 2.0
    gamma: float = 0.5
    beta: float = 0.1
    chi: float = 0.1
    m0: tuple[float, float] = (0.0, 0.0)
    kappa: float = 1.0
    V0: tuple[tuple[float, float], tuple[float, float]] = ((2.0, 0.0), (0.0, 2.0))
    nu0: float = 3.0
    num_particles: int = 30
    lag_window: int = 10

    def __post_init__(self):
        # Checked here, once per construction or load, so the learner reads them unchecked.
        for name, floor in (("alpha", 0), ("gamma", 0), ("beta", 0), ("chi", 0), ("kappa", 0), ("nu0", 1)):
            value = getattr(self, name)
            if not is_finite_real(value) or value <= floor:
                raise SchemaError(f"{name} must be a finite number above {floor}, not {value!r}")
        for name in ("num_particles", "lag_window"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise SchemaError(f"{name} must be an integer >= 1, not {value!r}")
        try:
            m0, v0 = self.m0_array, self.V0_array
        except (TypeError, ValueError, OverflowError):
            raise SchemaError("m0 and V0 must be numeric") from None
        if m0.shape != (2,) or v0.shape != (2, 2) or not (np.isfinite(m0).all() and np.isfinite(v0).all()):
            raise SchemaError("m0 must be 2 finite numbers and V0 a finite 2x2 matrix")
        if not np.allclose(v0, v0.T):
            raise SchemaError("V0 must be symmetric")
        if np.any(np.linalg.eigvalsh(v0) <= 0):
            raise SchemaError("V0 must be positive-definite")

    @property
    def m0_array(self) -> np.ndarray:
        return np.asarray(self.m0, dtype=float)

    @property
    def V0_array(self) -> np.ndarray:
        return np.asarray(self.V0, dtype=float)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "gamma": self.gamma,
            "beta": self.beta,
            "chi": self.chi,
            "m0": list(self.m0),
            "kappa": self.kappa,
            "V0": [list(row) for row in self.V0],
            "nu0": self.nu0,
            "num_particles": self.num_particles,
            "lag_window": self.lag_window,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Hyperparameters":
        try:
            return cls(
                alpha=data["alpha"],
                gamma=data["gamma"],
                beta=data["beta"],
                chi=data["chi"],
                m0=tuple(data["m0"]),
                kappa=data["kappa"],
                V0=tuple(tuple(row) for row in data["V0"]),
                nu0=data["nu0"],
                num_particles=data["num_particles"],
                lag_window=data["lag_window"],
            )
        except KeyError as exc:
            raise SchemaError(f"hyperparameters missing key: {exc.args[0]!r}") from None
        except TypeError:
            raise SchemaError("hyperparameters must be an object; m0 and V0 must be lists") from None


@dataclass
class Concept:
    """One mixture component: categoricals over words, objects, and regions."""

    word_dist: np.ndarray
    object_dist: np.ndarray
    region_dist: np.ndarray


@dataclass
class GaussianRegion:
    """A 2D Gaussian position component (meters)."""

    mean: np.ndarray
    cov: np.ndarray


@dataclass
class Session:
    """One learning observation: pose, detected labels, uttered place words.

    ``room_hint`` is evaluation-side ground truth; the learner never reads it.
    """

    position: np.ndarray
    object_labels: list[str]
    place_words: list[str]
    room_hint: str | None = None


@dataclass(frozen=True)
class Posterior:
    """A normalized categorical plus a flag for degenerate (no-evidence) input."""

    probs: np.ndarray
    zero_evidence: bool = False


@dataclass
class SpatialConceptModel:
    """Learned mixture linking place words, object labels, and 2D regions."""

    pi: np.ndarray
    concepts: list[Concept]
    regions: list[GaussianRegion]
    vocab_places: list[str]
    vocab_objects: list[str]
    hyperparameters: Hyperparameters | None = None
    seed: int | None = None
    _object_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        # Checked here, once per construction or load, so the posterior queries read it unchecked.
        for name in ("vocab_places", "vocab_objects"):
            vocab = getattr(self, name)
            if not isinstance(vocab, list) or not all(isinstance(w, str) for w in vocab) \
                    or len(set(vocab)) != len(vocab):
                raise SchemaError(f"{name} must be a list of distinct strings")
        self.pi = _real_array(self.pi, "pi")
        for i, c in enumerate(self.concepts):
            c.word_dist = _real_array(c.word_dist, f"concept {i} word_dist")
            c.object_dist = _real_array(c.object_dist, f"concept {i} object_dist")
            c.region_dist = _real_array(c.region_dist, f"concept {i} region_dist")
        for i, r in enumerate(self.regions):
            r.mean = _real_array(r.mean, f"region {i} mean")
            r.cov = _real_array(r.cov, f"region {i} cov")
        self._object_index = {o: i for i, o in enumerate(self.vocab_objects)}
        self.validate()

    @property
    def num_concepts(self) -> int:
        return len(self.concepts)

    @property
    def num_regions(self) -> int:
        return len(self.regions)

    def validate(self) -> None:
        if self.num_concepts < 1 or self.num_regions < 1:
            raise SchemaError("model needs at least one concept and one region")
        if self.pi.shape != (self.num_concepts,):
            raise SchemaError("pi length does not match concept count")
        _check_categorical(self.pi, "pi")
        for i, c in enumerate(self.concepts):
            if c.word_dist.shape != (len(self.vocab_places),):
                raise SchemaError(f"concept {i} word_dist length mismatch")
            if c.object_dist.shape != (len(self.vocab_objects),):
                raise SchemaError(f"concept {i} object_dist length mismatch")
            if c.region_dist.shape != (self.num_regions,):
                raise SchemaError(f"concept {i} region_dist length mismatch")
            _check_categorical(c.word_dist, f"concept {i} word_dist")
            _check_categorical(c.object_dist, f"concept {i} object_dist")
            _check_categorical(c.region_dist, f"concept {i} region_dist")
        for i, r in enumerate(self.regions):
            if r.mean.shape != (2,) or r.cov.shape != (2, 2):
                raise SchemaError(f"region {i} has wrong shape")
            if not np.allclose(r.cov, r.cov.T):
                raise SchemaError(f"region {i} covariance not symmetric")
            if np.any(np.linalg.eigvalsh(r.cov) <= 0):
                raise SchemaError(f"region {i} covariance not positive-definite")

    # Stacked parameter views used by the posterior queries.
    def word_matrix(self) -> np.ndarray:
        return np.stack([c.word_dist for c in self.concepts])

    def object_matrix(self) -> np.ndarray:
        return np.stack([c.object_dist for c in self.concepts])

    def region_matrix(self) -> np.ndarray:
        return np.stack([c.region_dist for c in self.concepts])

    def object_id(self, label: str) -> int:
        try:
            return self._object_index[label]
        except KeyError:
            raise UnknownLabelError(f"object label {label!r} is not in the model vocabulary") from None


def _real_array(value, name: str) -> np.ndarray:
    """``value`` as a float array; SchemaError if it is ragged, non-numeric or non-finite."""
    try:
        arr = np.asarray(value)
    except ValueError:
        raise SchemaError(f"{name} is ragged") from None
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise SchemaError(f"{name} must hold finite numbers only")
    return np.asarray(arr, dtype=float)


def _check_categorical(vec: np.ndarray, name: str) -> None:
    if len(vec) == 0:
        return
    if np.any(vec < 0):
        raise SchemaError(f"{name} has negative entries")
    if abs(float(vec.sum()) - 1.0) > CATEGORICAL_ATOL:
        raise SchemaError(f"{name} does not sum to 1 (got {vec.sum()!r})")


def word_posterior(model: SpatialConceptModel, region: int) -> Posterior:
    """Word occurrence probabilities for one region, concepts summed out.

    Computes P(w | i) from the mixture by weighting each concept's word
    distribution with pi_C * phi_C[i] and normalizing over words.  A region
    with zero mixture evidence yields a uniform output flagged accordingly.
    """
    if not 0 <= region < model.num_regions:
        raise IndexError(f"region {region} out of range [0, {model.num_regions})")
    weights = model.pi * model.region_matrix()[:, region]
    if weights.sum() <= 0.0:
        n = len(model.vocab_places)
        return Posterior(np.full(n, 1.0 / n), zero_evidence=True)
    joint = weights @ model.word_matrix()
    return Posterior(normalize_evidence(joint))


def object_location_posterior(model: SpatialConceptModel, obj: str) -> Posterior:
    """Region probabilities for one object label, concepts summed out.

    This is the source of the room-wise object presence rows: P(i | o)
    proportional to sum_C phi_C[i] * xi_C[o] * pi_C.
    """
    idx = model.object_id(obj)
    weights = model.pi * model.object_matrix()[:, idx]
    if weights.sum() <= 0.0:
        n = model.num_regions
        return Posterior(np.full(n, 1.0 / n), zero_evidence=True)
    joint = weights @ model.region_matrix()
    return Posterior(normalize_evidence(joint))


def gaussian_logpdf(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """Log density of a 2D Gaussian without scipy frozen-dist overhead."""
    dev = np.asarray(x, dtype=float) - mean
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    quad = (cov[1, 1] * dev[0] ** 2 - 2.0 * cov[0, 1] * dev[0] * dev[1] + cov[0, 0] * dev[1] ** 2) / det
    return -0.5 * (quad + math.log(det)) - math.log(2.0 * math.pi)


def assign_region(model: SpatialConceptModel, position) -> int:
    """Index of the region with the highest density at ``position``.

    Ties break toward the lowest index.
    """
    position = np.asarray(position, dtype=float)
    if not np.all(np.isfinite(position)):
        raise ValueError("position must be finite")
    scores = [gaussian_logpdf(position, r.mean, r.cov) for r in model.regions]
    return int(np.argmax(scores))


def model_to_dict(model: SpatialConceptModel) -> dict:
    return {
        "schema_version": _MODEL_SCHEMA_VERSION,
        "vocab_places": list(model.vocab_places),
        "vocab_objects": list(model.vocab_objects),
        "pi": model.pi.tolist(),
        "concepts": [
            {
                "word_dist": c.word_dist.tolist(),
                "object_dist": c.object_dist.tolist(),
                "region_dist": c.region_dist.tolist(),
            }
            for c in model.concepts
        ],
        "regions": [
            {"mean": r.mean.tolist(), "cov": r.cov.tolist()} for r in model.regions
        ],
        "hyperparameters": None if model.hyperparameters is None else model.hyperparameters.to_dict(),
        "seed": model.seed,
    }


def model_from_dict(data: dict) -> SpatialConceptModel:
    fields = ("pi", "concepts", "regions", "vocab_places", "vocab_objects")
    pi, concepts, regions, vocab_places, vocab_objects = require_fields(data, fields, "model document")
    concepts = [Concept(*require_fields(c, ("word_dist", "object_dist", "region_dist"), f"concepts[{i}]"))
                for i, c in enumerate(require(concepts, list, "concepts"))]
    regions = [GaussianRegion(*require_fields(r, ("mean", "cov"), f"regions[{i}]"))
               for i, r in enumerate(require(regions, list, "regions"))]
    hp, seed = data.get("hyperparameters"), data.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise SchemaError(f"seed must be an integer or null, not {seed!r}")
    return SpatialConceptModel(
        pi=pi,
        concepts=concepts,
        regions=regions,
        vocab_places=vocab_places,
        vocab_objects=vocab_objects,
        hyperparameters=None if hp is None else Hyperparameters.from_dict(hp),
        seed=seed,
    )


def save_model(model: SpatialConceptModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2))


def load_model(path) -> SpatialConceptModel:
    return model_from_dict(read_json(path, "model"))
