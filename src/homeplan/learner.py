"""Fixed-lag Rao-Blackwellized particle filter for spatial concept learning.

All particles live in one stacked state (``_Batch``), axis 0 indexing the
particle: per-session (concept, region) assignments plus collapsed sufficient
statistics, i.e. Dirichlet-multinomial counts for concepts, words, objects,
and concept-to-region links, and normal-inverse-Wishart moment sums for region
positions.  Arriving sessions are assigned by sampling the exact collapsed
conditional (which doubles as the optimal proposal, so particle weights are
updated with the predictive marginal); assignments inside the lag window are
rejuvenated with one Gibbs sweep per step, sequential over the window and
parallel over particles; particles are systematically resampled, by one
fancy-index of the stacked state, when the effective sample size drops below
half the particle count.  Each arrival and each Gibbs step scores all
particles with one grid evaluation.  Uniforms are drawn in the order a
per-particle loop would draw them, so results do not depend on the batching.
The returned model is the maximum-weight particle's posterior-mean parameters.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import ConfigurationError, SchemaError, UnknownLabelError
from .spatial import (
    Concept,
    GaussianRegion,
    Hyperparameters,
    Session,
    SpatialConceptModel,
)

_DIM = 2


class _SessionStats:
    """Per-session data in index space, precomputed once."""

    __slots__ = ("word_idx", "word_cnt", "word_total", "obj_idx", "obj_cnt", "obj_total", "x", "outer")

    def __init__(self, session: Session, place_index: dict[str, int], object_index: dict[str, int]):
        try:
            widx = np.array([place_index[w] for w in session.place_words], dtype=int)
        except KeyError as exc:
            raise UnknownLabelError(f"place word {exc.args[0]!r} not in supplied vocabulary") from None
        try:
            oidx = np.array([object_index[o] for o in session.object_labels], dtype=int)
        except KeyError as exc:
            raise UnknownLabelError(f"object label {exc.args[0]!r} not in supplied vocabulary") from None
        self.word_idx, self.word_cnt = np.unique(widx, return_counts=True)
        self.obj_idx, self.obj_cnt = np.unique(oidx, return_counts=True)
        self.word_total = int(self.word_cnt.sum())
        self.obj_total = int(self.obj_cnt.sum())
        self.x = np.asarray(session.position, dtype=float)
        if self.x.shape != (_DIM,) or not np.all(np.isfinite(self.x)):
            raise SchemaError("session position must be a finite 2-vector")
        self.outer = np.outer(self.x, self.x)


class _Batch:
    """Assignments and collapsed sufficient statistics of all particles, stacked on axis 0."""

    __slots__ = (
        "concept_counts",
        "word_counts",
        "word_totals",
        "object_counts",
        "object_totals",
        "link_counts",
        "pos_n",
        "pos_sum",
        "pos_outer",
        "assignments",
    )

    def __init__(self, P: int, K: int, R: int, n_words: int, n_objects: int, T: int):
        self.concept_counts = np.zeros((P, K))
        self.word_counts = np.zeros((P, K, n_words))
        self.word_totals = np.zeros((P, K))
        self.object_counts = np.zeros((P, K, n_objects))
        self.object_totals = np.zeros((P, K))
        self.link_counts = np.zeros((P, K, R))
        self.pos_n = np.zeros((P, R))
        self.pos_sum = np.zeros((P, R, _DIM))
        self.pos_outer = np.zeros((P, R, _DIM, _DIM))
        self.assignments = np.zeros((P, T, 2), dtype=int)

    def take(self, index) -> "_Batch":
        """Particles at ``index``: an index array resamples, an int selects one particle."""
        out = _Batch.__new__(_Batch)
        for name in self.__slots__:
            setattr(out, name, getattr(self, name)[index])
        return out

    def add(self, cells: np.ndarray, s: _SessionStats, sign: int = 1) -> None:
        """Add ``s`` to particle i at cell (concept, region) ``cells[i]``; ``sign=-1`` removes it."""
        p = np.arange(len(cells))
        c, r = cells[:, 0], cells[:, 1]
        self.concept_counts[p, c] += sign
        self.word_counts[p[:, None], c[:, None], s.word_idx] += sign * s.word_cnt
        self.word_totals[p, c] += sign * s.word_total
        self.object_counts[p[:, None], c[:, None], s.obj_idx] += sign * s.obj_cnt
        self.object_totals[p, c] += sign * s.obj_total
        self.link_counts[p, c, r] += sign
        self.pos_n[p, r] += sign
        self.pos_sum[p, r] += sign * s.x
        self.pos_outer[p, r] += sign * s.outer


def _dirichlet_multinomial_log(counts: np.ndarray, totals: np.ndarray, conc: float,
                               idx: np.ndarray, cnt: np.ndarray, m: int) -> np.ndarray:
    """Log predictive of a token multiset under each component's DM posterior."""
    if m == 0:
        return np.zeros(totals.shape)
    vocab_mass = counts.shape[-1] * conc
    sel = counts[..., idx]
    per_word = gammaln(sel + cnt + conc).sum(axis=-1) - gammaln(sel + conc).sum(axis=-1)
    return per_word + gammaln(totals + vocab_mass) - gammaln(totals + m + vocab_mass)


def _niw_posterior(p: _Batch, hp: Hyperparameters):
    """Per-region NIW posterior parameters (kappa_n, nu_n, m_n, V_n) from moment sums,
    for every particle of a batch or for one particle taken from it."""
    m0 = hp.m0_array
    n = p.pos_n
    kappa_n = hp.kappa + n
    nu_n = hp.nu0 + n
    safe = np.maximum(n, 1.0)
    xbar = p.pos_sum / safe[..., None]
    scatter = p.pos_outer - n[..., None, None] * (xbar[..., :, None] * xbar[..., None, :])
    m_n = (hp.kappa * m0 + p.pos_sum) / kappa_n[..., None]
    dev = xbar - m0
    shrink = (hp.kappa * n / kappa_n)[..., None, None]
    V_n = hp.V0_array + scatter + shrink * (dev[..., :, None] * dev[..., None, :])
    return kappa_n, nu_n, m_n, V_n


def _position_log_predictive(p: _Batch, x: np.ndarray, hp: Hyperparameters) -> np.ndarray:
    """Student-t log predictive of ``x`` under each region's NIW posterior."""
    kappa_n, nu_n, m_n, V_n = _niw_posterior(p, hp)
    df = nu_n - _DIM + 1.0
    factor = ((kappa_n + 1.0) / (kappa_n * df))[..., None, None]
    scale = V_n * factor
    det = scale[..., 0, 0] * scale[..., 1, 1] - scale[..., 0, 1] * scale[..., 1, 0]
    dev = x - m_n
    quad = (scale[..., 1, 1] * dev[..., 0] ** 2
            - 2.0 * scale[..., 0, 1] * dev[..., 0] * dev[..., 1]
            + scale[..., 0, 0] * dev[..., 1] ** 2) / det
    return (gammaln((df + _DIM) / 2.0) - gammaln(df / 2.0)
            - np.log(df) - math.log(math.pi)
            - 0.5 * np.log(det)
            - ((df + _DIM) / 2.0) * np.log1p(quad / df))


def _log_grid(p: _Batch, s: _SessionStats, hp: Hyperparameters) -> np.ndarray:
    """Collapsed log conditional over (concept, region) for one session, shape (P, K, R)."""
    K, R = p.link_counts.shape[1:]
    # Every particle holds the same sessions, so all share one concept total.
    n_total = p.concept_counts[0].sum()
    log_pc = np.log(p.concept_counts + hp.alpha) - math.log(n_total + K * hp.alpha)
    log_pr = np.log(p.link_counts + hp.gamma) - np.log(p.concept_counts + R * hp.gamma)[..., None]
    log_words = _dirichlet_multinomial_log(p.word_counts, p.word_totals, hp.beta,
                                           s.word_idx, s.word_cnt, s.word_total)
    log_objects = _dirichlet_multinomial_log(p.object_counts, p.object_totals, hp.chi,
                                             s.obj_idx, s.obj_cnt, s.obj_total)
    log_pos = _position_log_predictive(p, s.x, hp)
    return (log_pc + log_words + log_objects)[..., None] + log_pr + log_pos[..., None, :]


def _sample_grid(grid: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One (concept, region) cell per particle, by inverse CDF on the uniforms ``u``.

    The arithmetic is that of ``Generator.choice(n, p=probs)``, so a draw of
    ``u[i]`` picks exactly the cell that call would pick with the same uniform.
    """
    flat = grid.reshape(len(grid), -1)
    probs = np.exp(flat - flat.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    idx = (cdf <= u[:, None]).sum(axis=1)
    return np.stack(np.divmod(idx, grid.shape[-1]), axis=1)


def _systematic_resample(log_w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = len(log_w)
    w = np.exp(log_w - logsumexp(log_w))
    positions = (rng.random() + np.arange(n)) / n
    cumulative = np.cumsum(w)
    cumulative[-1] = 1.0  # rounding can leave it below the last position, indexing past n
    return np.searchsorted(cumulative, positions)


def derive_vocabularies(sessions: list[Session]) -> tuple[list[str], list[str]]:
    """Sorted place-word and object-label vocabularies found in the sessions."""
    places = sorted({w for s in sessions for w in s.place_words})
    objects = sorted({o for s in sessions for o in s.object_labels})
    return places, objects


def learn_fixed_lag(
    sessions: list[Session],
    hp: Hyperparameters | None = None,
    seed: int = 0,
    *,
    num_concepts: int = 5,
    num_regions: int = 5,
    vocab_places: list[str] | None = None,
    vocab_objects: list[str] | None = None,
) -> SpatialConceptModel:
    """Learn a spatial concept model from an ordered session stream.

    Deterministic for fixed (sessions, hp, seed).  A lag window longer than
    the stream is clamped, never an error.
    """
    if num_concepts < 1 or num_regions < 1:
        raise ConfigurationError(
            f"num_concepts and num_regions must be >= 1, got {num_concepts} and {num_regions}")
    if not sessions:
        raise SchemaError("cannot learn from an empty session list")
    hp = hp or Hyperparameters()
    if vocab_places is None or vocab_objects is None:
        derived_places, derived_objects = derive_vocabularies(sessions)
        vocab_places = derived_places if vocab_places is None else vocab_places
        vocab_objects = derived_objects if vocab_objects is None else vocab_objects
    if not vocab_places:
        raise SchemaError("sessions contain no place words and no vocabulary was supplied")
    place_index = {w: i for i, w in enumerate(vocab_places)}
    object_index = {o: i for i, o in enumerate(vocab_objects)}
    stats = [_SessionStats(s, place_index, object_index) for s in sessions]

    rng = np.random.default_rng(seed)
    n_particles = hp.num_particles
    batch = _Batch(n_particles, num_concepts, num_regions, len(vocab_places),
                   max(len(vocab_objects), 1), len(stats))
    log_w = np.full(n_particles, -math.log(n_particles))

    for t, s in enumerate(stats):
        grid = _log_grid(batch, s, hp)
        log_w += logsumexp(grid.reshape(n_particles, -1), axis=1)
        batch.assignments[:, t] = _sample_grid(grid, rng.random(n_particles))
        batch.add(batch.assignments[:, t], s)

        # One Gibbs sweep over the lag window keeps recent assignments mobile.
        # Uniforms are drawn particle-major: row i holds particle i's draws in window order.
        window = range(max(0, t - hp.lag_window + 1), t + 1)
        u = rng.random((n_particles, len(window)))
        for j, tau in enumerate(window):
            batch.add(batch.assignments[:, tau], stats[tau], sign=-1)
            batch.assignments[:, tau] = _sample_grid(_log_grid(batch, stats[tau], hp), u[:, j])
            batch.add(batch.assignments[:, tau], stats[tau])

        log_w = log_w - logsumexp(log_w)
        weights = np.exp(log_w)
        ess = 1.0 / float((weights ** 2).sum())
        if ess < n_particles / 2.0:
            batch = batch.take(_systematic_resample(log_w, rng))
            log_w = np.full(n_particles, -math.log(n_particles))

    best = batch.take(int(np.argmax(log_w)))
    return _posterior_mean_model(best, hp, seed, vocab_places, vocab_objects)


def _posterior_mean_model(p: _Batch, hp: Hyperparameters, seed: int,
                          vocab_places: list[str], vocab_objects: list[str]) -> SpatialConceptModel:
    K, R = p.link_counts.shape
    n_total = p.concept_counts.sum()
    pi = (p.concept_counts + hp.alpha) / (n_total + K * hp.alpha)
    n_objects = len(vocab_objects)
    concepts = []
    for c in range(K):
        word_dist = (p.word_counts[c] + hp.beta) / (p.word_totals[c] + len(vocab_places) * hp.beta)
        if n_objects:
            object_dist = (p.object_counts[c, :n_objects] + hp.chi) / (p.object_totals[c] + n_objects * hp.chi)
        else:
            object_dist = np.zeros(0)
        region_dist = (p.link_counts[c] + hp.gamma) / (p.concept_counts[c] + R * hp.gamma)
        concepts.append(Concept(word_dist, object_dist, region_dist))

    kappa_n, nu_n, m_n, V_n = _niw_posterior(p, hp)
    regions = []
    for r in range(R):
        # Posterior-mean covariance needs nu_n > dim+1; empty regions fall
        # back to the inverse-Wishart mode, which is always defined.
        denom = nu_n[r] - _DIM - 1.0
        cov = V_n[r] / denom if denom > 0 else V_n[r] / (nu_n[r] + _DIM + 1.0)
        regions.append(GaussianRegion(mean=m_n[r].copy(), cov=cov))

    return SpatialConceptModel(
        pi=pi,
        concepts=concepts,
        regions=regions,
        vocab_places=list(vocab_places),
        vocab_objects=list(vocab_objects),
        hyperparameters=hp,
        seed=seed,
    )
