"""Fixed-lag Rao-Blackwellized particle filter for spatial concept learning.

Each particle carries per-session latent assignments (concept, region) plus
collapsed sufficient statistics: Dirichlet-multinomial counts for concepts,
words, objects, and concept-to-region links, and normal-inverse-Wishart
moment sums for region positions.  Arriving sessions are assigned by sampling
the exact collapsed conditional (which doubles as the optimal proposal, so
particle weights are updated with the predictive marginal), assignments
inside the lag window are rejuvenated with one Gibbs sweep per step, and
particles are systematically resampled when the effective sample size drops
below half the particle count.  The returned model is the maximum-weight
particle's posterior-mean parameters.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import UnknownLabelError
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
            raise ValueError("session position must be a finite 2-vector")
        self.outer = np.outer(self.x, self.x)


class _Particle:
    """Assignment history plus collapsed sufficient statistics."""

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

    def __init__(self, K: int, R: int, n_words: int, n_objects: int):
        self.concept_counts = np.zeros(K)
        self.word_counts = np.zeros((K, n_words))
        self.word_totals = np.zeros(K)
        self.object_counts = np.zeros((K, n_objects))
        self.object_totals = np.zeros(K)
        self.link_counts = np.zeros((K, R))
        self.pos_n = np.zeros(R)
        self.pos_sum = np.zeros((R, _DIM))
        self.pos_outer = np.zeros((R, _DIM, _DIM))
        self.assignments: list[tuple[int, int]] = []

    def copy(self) -> "_Particle":
        dup = _Particle.__new__(_Particle)
        dup.concept_counts = self.concept_counts.copy()
        dup.word_counts = self.word_counts.copy()
        dup.word_totals = self.word_totals.copy()
        dup.object_counts = self.object_counts.copy()
        dup.object_totals = self.object_totals.copy()
        dup.link_counts = self.link_counts.copy()
        dup.pos_n = self.pos_n.copy()
        dup.pos_sum = self.pos_sum.copy()
        dup.pos_outer = self.pos_outer.copy()
        dup.assignments = list(self.assignments)
        return dup

    def add(self, c: int, r: int, s: _SessionStats) -> None:
        self.concept_counts[c] += 1
        self.word_counts[c, s.word_idx] += s.word_cnt
        self.word_totals[c] += s.word_total
        self.object_counts[c, s.obj_idx] += s.obj_cnt
        self.object_totals[c] += s.obj_total
        self.link_counts[c, r] += 1
        self.pos_n[r] += 1
        self.pos_sum[r] += s.x
        self.pos_outer[r] += s.outer

    def remove(self, c: int, r: int, s: _SessionStats) -> None:
        self.concept_counts[c] -= 1
        self.word_counts[c, s.word_idx] -= s.word_cnt
        self.word_totals[c] -= s.word_total
        self.object_counts[c, s.obj_idx] -= s.obj_cnt
        self.object_totals[c] -= s.obj_total
        self.link_counts[c, r] -= 1
        self.pos_n[r] -= 1
        self.pos_sum[r] -= s.x
        self.pos_outer[r] -= s.outer


def _dirichlet_multinomial_log(counts: np.ndarray, totals: np.ndarray, conc: float,
                               idx: np.ndarray, cnt: np.ndarray, m: int) -> np.ndarray:
    """Log predictive of a token multiset under each component's DM posterior."""
    if m == 0:
        return np.zeros(len(totals))
    vocab_mass = counts.shape[1] * conc
    sel = counts[:, idx]
    per_word = gammaln(sel + cnt + conc).sum(axis=1) - gammaln(sel + conc).sum(axis=1)
    return per_word + gammaln(totals + vocab_mass) - gammaln(totals + m + vocab_mass)


def _niw_posterior(p: _Particle, hp: Hyperparameters):
    """Per-region NIW posterior parameters (kappa_n, nu_n, m_n, V_n) from moment sums."""
    m0 = hp.m0_array
    n = p.pos_n
    kappa_n = hp.kappa + n
    nu_n = hp.nu0 + n
    safe = np.maximum(n, 1.0)
    xbar = p.pos_sum / safe[:, None]
    scatter = p.pos_outer - n[:, None, None] * (xbar[:, :, None] * xbar[:, None, :])
    m_n = (hp.kappa * m0 + p.pos_sum) / kappa_n[:, None]
    dev = xbar - m0
    shrink = (hp.kappa * n / kappa_n)[:, None, None]
    V_n = hp.V0_array + scatter + shrink * (dev[:, :, None] * dev[:, None, :])
    return kappa_n, nu_n, m_n, V_n


def _position_log_predictive(p: _Particle, x: np.ndarray, hp: Hyperparameters) -> np.ndarray:
    """Student-t log predictive of ``x`` under each region's NIW posterior."""
    kappa_n, nu_n, m_n, V_n = _niw_posterior(p, hp)
    df = nu_n - _DIM + 1.0
    factor = ((kappa_n + 1.0) / (kappa_n * df))[:, None, None]
    scale = V_n * factor
    det = scale[:, 0, 0] * scale[:, 1, 1] - scale[:, 0, 1] * scale[:, 1, 0]
    dev = x[None, :] - m_n
    quad = (scale[:, 1, 1] * dev[:, 0] ** 2
            - 2.0 * scale[:, 0, 1] * dev[:, 0] * dev[:, 1]
            + scale[:, 0, 0] * dev[:, 1] ** 2) / det
    return (gammaln((df + _DIM) / 2.0) - gammaln(df / 2.0)
            - np.log(df) - math.log(math.pi)
            - 0.5 * np.log(det)
            - ((df + _DIM) / 2.0) * np.log1p(quad / df))


def _log_grid(p: _Particle, s: _SessionStats, hp: Hyperparameters) -> np.ndarray:
    """Collapsed log conditional over (concept, region) for one session."""
    K, R = p.link_counts.shape
    n_total = p.concept_counts.sum()
    log_pc = np.log(p.concept_counts + hp.alpha) - math.log(n_total + K * hp.alpha)
    log_pr = np.log(p.link_counts + hp.gamma) - np.log(p.concept_counts + R * hp.gamma)[:, None]
    log_words = _dirichlet_multinomial_log(p.word_counts, p.word_totals, hp.beta,
                                           s.word_idx, s.word_cnt, s.word_total)
    log_objects = _dirichlet_multinomial_log(p.object_counts, p.object_totals, hp.chi,
                                             s.obj_idx, s.obj_cnt, s.obj_total)
    log_pos = _position_log_predictive(p, s.x, hp)
    return (log_pc + log_words + log_objects)[:, None] + log_pr + log_pos[None, :]


def _sample_grid(grid: np.ndarray, rng: np.random.Generator) -> tuple[int, int]:
    flat = grid.ravel()
    probs = np.exp(flat - flat.max())
    probs /= probs.sum()
    idx = int(rng.choice(len(flat), p=probs))
    return divmod(idx, grid.shape[1])


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
    if not sessions:
        raise ValueError("cannot learn from an empty session list")
    hp = hp or Hyperparameters()
    if vocab_places is None or vocab_objects is None:
        derived_places, derived_objects = derive_vocabularies(sessions)
        vocab_places = derived_places if vocab_places is None else vocab_places
        vocab_objects = derived_objects if vocab_objects is None else vocab_objects
    if not vocab_places:
        raise ValueError("sessions contain no place words and no vocabulary was supplied")
    place_index = {w: i for i, w in enumerate(vocab_places)}
    object_index = {o: i for i, o in enumerate(vocab_objects)}
    stats = [_SessionStats(s, place_index, object_index) for s in sessions]

    rng = np.random.default_rng(seed)
    n_particles = hp.num_particles
    particles = [_Particle(num_concepts, num_regions, len(vocab_places), max(len(vocab_objects), 1))
                 for _ in range(n_particles)]
    log_w = np.full(n_particles, -math.log(n_particles))

    for t, s in enumerate(stats):
        for i, p in enumerate(particles):
            grid = _log_grid(p, s, hp)
            log_w[i] += logsumexp(grid.ravel())
            c, r = _sample_grid(grid, rng)
            p.assignments.append((c, r))
            p.add(c, r, s)

        # One Gibbs sweep over the lag window keeps recent assignments mobile.
        window = range(max(0, t - hp.lag_window + 1), t + 1)
        for p in particles:
            for tau in window:
                c_old, r_old = p.assignments[tau]
                p.remove(c_old, r_old, stats[tau])
                c_new, r_new = _sample_grid(_log_grid(p, stats[tau], hp), rng)
                p.assignments[tau] = (c_new, r_new)
                p.add(c_new, r_new, stats[tau])

        log_w = log_w - logsumexp(log_w)
        weights = np.exp(log_w)
        ess = 1.0 / float((weights ** 2).sum())
        if ess < n_particles / 2.0:
            chosen = _systematic_resample(log_w, rng)
            particles = [particles[j].copy() for j in chosen]
            log_w = np.full(n_particles, -math.log(n_particles))

    best = particles[int(np.argmax(log_w))]
    return _posterior_mean_model(best, hp, seed, vocab_places, vocab_objects)


def _posterior_mean_model(p: _Particle, hp: Hyperparameters, seed: int,
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
