"""Fixed-lag Rao-Blackwellized particle filter for spatial concept learning.

All particles live in one stacked state (``_Batch``): per-session cells
plus collapsed sufficient statistics in two arrays.  A cell is one flat
index ``k * R + r`` of (concept, region), the order the grids are drawn in,
and ``assignments`` (P, T) holds each particle's cell per session.
``counts`` (P, K, F) holds every Dirichlet-multinomial count of a concept as
integers: its sessions, word and object totals, word and object counts, and
its links to regions.  ``moments`` (7, P, R) holds each region's
normal-inverse-Wishart moment sums component-major: n, the two position sums
and the four sums of outer products, each a contiguous (P, R) plane that the
kernel reads without striding.  Positions are held standardized, less the
floor's mean session position and over one scale.  Adding or removing a
session is one indexed update of each, through flat views.

One kernel, ``_sweep_grid``, scores a session over the (concept, region)
cells.  Every term that depends on an integer count alone is one row of a
fused table built once per learn (``_Tables``), so a grid is a few lookups
plus the Student-t position term.  Each log-gamma difference in those rows
has an integer offset, so a row is a running sum of logs, and the Student-t
constant has a closed form: the learner needs no special functions.  The
kernel leaves out the concept prior's normaliser log(N + K alpha), which is
the same for every particle and cell.
The Gibbs sweep over the lag window, sequential over the window and parallel
over particles, draws from it as it is.  An arriving session's grid is the
kernel minus that normaliser, the collapsed log conditional: it doubles as
the optimal proposal, and its log-sum-exp, the predictive marginal, is the
particle weight increment.  ``log_w`` sums them as unnormalised log weights
since the last resample; each step normalises ``exp(log_w - max)``.  Grid
buffers are updated in place, with no change to any element's arithmetic.

``_filter`` runs the loop.  Particles are systematically resampled, by one
``ndarray.take`` gather of each array on its particle axis, when the
effective sample size drops below half the particle count, and ``log_w``
restarts at zeros; the gathered state takes its views afresh.  Uniforms are
drawn in the order a per-particle loop would draw them, so results do not
depend on the batching.  The returned model is the maximum-weight particle's
posterior-mean parameters, returned as the stacked arrays
``SpatialConceptModel`` holds: each is computed from the particle's count
rows and moment sums in one expression.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .errors import ConfigurationError, SchemaError, is_count
from .spatial import Hyperparameters, Session, SpatialConceptModel

_DIM = 2
# Leading columns of the stacked counts; word, object and link columns follow.
_CONCEPT, _WORD_TOTAL, _OBJ_TOTAL, _WORDS = 0, 1, 2, 3
# Scales the (v11, v01) planes of a NIW scale to the quadratic form's coefficients.
_QUAD_SCALE = np.array([1.0, 2.0])[:, None, None]


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The flattened outer products of two stacks of 2-vectors held component-major:
    plane ``2 i + j`` is ``a[i] * b[j]``."""
    return (a[:, None] * b[None]).reshape((_DIM * _DIM,) + a.shape[1:])


class _SessionStats:
    """Per-session data in index space, precomputed once.

    ``x`` is the standardized position, ``cols``/``vals`` the count columns a session adds
    to and by how much; the last column is the link to region 0.  ``moments`` is the
    (7, 1) column it adds to its region's moment sums; the ``neg_`` arrays remove it.
    Two fields are set by ``_Tables``: ``sweep_index``, the flat index offsets of the
    session's rows of the fused sweep table, one per column but the link, and
    ``cell_cols``, per cell ``k * R + r`` the flat columns of concept k's count row,
    the link shifted to region r.
    """

    __slots__ = ("word_cnt", "word_total", "obj_cnt", "obj_total",
                 "x", "cols", "vals", "neg_vals", "moments", "neg_moments", "sweep_index", "cell_cols")

    def __init__(self, session: Session, x: np.ndarray, place_index: dict[str, int],
                 object_index: dict[str, int]):
        words = sorted(Counter(place_index[w] for w in session.place_words).items())
        objects = sorted(Counter(object_index[o] for o in session.object_labels).items())
        self.word_cnt = np.array([c for _, c in words], dtype=int)
        self.obj_cnt = np.array([c for _, c in objects], dtype=int)
        self.word_total, self.obj_total = len(session.place_words), len(session.object_labels)
        first_obj = _WORDS + len(place_index)
        self.cols = np.array([_CONCEPT, _WORD_TOTAL, _OBJ_TOTAL, *(_WORDS + i for i, _ in words),
                              *(first_obj + i for i, _ in objects), first_obj + len(object_index)])
        self.vals = np.array([1, self.word_total, self.obj_total, *(c for _, c in words),
                              *(c for _, c in objects), 1])
        self.neg_vals = -self.vals
        self.x = x
        x0, x1 = self.x.tolist()  # Python floats: a square that overflows is inf, not a warning
        self.moments = np.array([[1.0], [x0], [x1], [x0 * x0], [x0 * x1], [x1 * x0], [x1 * x1]])
        self.neg_moments = -self.moments


class _Batch:
    """Cells and collapsed sufficient statistics of all particles.

    ``counts`` (P, K, F) columns: sessions, word total, object total, V words, O
    objects, R links.  ``moments`` (7, P, R): one plane per moment sum.
    ``assignments`` (P, T): each session's flat cell ``k * R + r``.  The views
    that ``add`` writes through (flat) and ``_sweep_grid`` reads (``links``,
    ``region_n``, ``sums``, ``outers``) are taken whenever the arrays are made, in
    ``__init__`` and in ``take``: views of replaced arrays would read stale counts
    and lose their writes.  ``take`` gathers with ``ndarray.take``, which returns
    C-contiguous arrays (``moments[:, index]`` would not be), so the flat views are
    views, not copies.  The offsets into them and each cell's region are fixed at
    construction.
    """

    __slots__ = ("counts", "moments", "assignments", "count_rows", "moment_rows", "cell_region",
                 "flat_counts", "flat_moments", "links", "region_n", "sums", "outers")

    def __init__(self, P: int, K: int, R: int, n_words: int, n_objects: int, T: int):
        F = _WORDS + n_words + n_objects + R
        self.counts = np.zeros((P, K, F), dtype=int)
        self.moments = np.zeros((1 + _DIM + _DIM * _DIM, P, R))
        self.assignments = np.zeros((P, T), dtype=int)
        self.count_rows = (np.arange(P) * (K * F))[:, None]
        self.moment_rows = (np.arange(len(self.moments)) * (P * R))[:, None] + np.arange(P) * R
        self.cell_region = np.tile(np.arange(R), K)
        self._set_views()

    def _set_views(self) -> None:
        R = self.moments.shape[-1]
        self.flat_counts, self.flat_moments = self.counts.reshape(-1), self.moments.reshape(-1)
        self.links = self.counts[..., -R:]
        self.region_n, self.sums, self.outers = self.moments[0], self.moments[1:1 + _DIM], self.moments[1 + _DIM:]

    def take(self, index) -> "_Batch":
        """Particles at ``index``: an index array resamples, an int selects one particle."""
        out = _Batch.__new__(_Batch)
        out.counts, out.assignments = self.counts.take(index, axis=0), self.assignments.take(index, axis=0)
        out.moments = self.moments.take(index, axis=1)
        out.count_rows, out.moment_rows, out.cell_region = self.count_rows, self.moment_rows, self.cell_region
        out._set_views()
        return out

    def add(self, cells: np.ndarray, s: _SessionStats, sign: int = 1) -> None:
        """Add ``s`` to particle i at cell ``cells[i]``; ``sign=-1`` removes it."""
        vals, moments = (s.vals, s.moments) if sign > 0 else (s.neg_vals, s.neg_moments)
        self.flat_counts[self.count_rows + s.cell_cols.take(cells, axis=0)] += vals
        self.flat_moments[self.moment_rows + self.cell_region.take(cells)] += moments


class _Tables:
    """Every grid term that depends on one integer count alone, indexed by that count, and
    the prior constants, built once per learn as ``_sweep_grid`` reads them.

    The Dirichlet-multinomial rows are rising factorials, Gamma(n + b + c) / Gamma(n + b)
    for an integer c, so each is a sum of c logs, built row by row; the mass rows are the
    same sums negated.  The Student-t constant in two dimensions is -log(2 pi)."""

    def __init__(self, hp: Hyperparameters, v0: np.ndarray, K: int, R: int, n_words: int, n_objects: int,
                 stats: list[_SessionStats]):
        # The largest count a learn of ``stats`` reaches: every session, word or object in one column.
        n_max = max(len(stats), sum(s.word_total for s in stats), sum(s.obj_total for s in stats))
        n = np.arange(n_max + 1, dtype=float)
        self.log_gamma = np.log(n + hp.gamma)
        self.k_alpha = K * hp.alpha
        # Per region count: 1 / kappa_n and the Student-t constants with the scale factor
        # folded in (det(f V) = f^2 det V, so log f moves into the constant).  With D = 2,
        # Gamma((df + 2) / 2) / Gamma(df / 2) = df / 2, so the constant log(df / 2) - log(df)
        # - log(pi) is -log(2 pi).
        kappa_n = hp.kappa + n
        df = hp.nu0 + n - _DIM + 1.0
        factor = (kappa_n + 1.0) / (kappa_n * df)
        self.sweep_region = np.stack([1.0 / kappa_n, -math.log(2.0 * math.pi) - np.log(factor),
                                      1.0 / (factor * df), (df + _DIM) / 2.0])
        # The prior scale ``v0`` (2, 2) as a column, broadcast along the moment planes.
        self.v0 = v0.reshape(_DIM * _DIM, 1, 1)
        # One row per term, indexed by a count: the concept prior over the link normaliser,
        # per session total m the DM mass terms, per token count c the rising factorials.
        # Row c of a rising block sums log(n + base + j) for j < c, so row 0 is zero.
        def rising(base, values):
            top = max((int(v) for v in values), default=0)
            logs = np.log(n + base + np.arange(top)[:, None])
            return np.concatenate([np.zeros((1, len(n))), logs.cumsum(axis=0)])

        word_mass, obj_mass = n_words * hp.beta, n_objects * hp.chi
        blocks = [
            (np.log(n + hp.alpha) - np.log(n + R * hp.gamma))[None],
            -rising(word_mass, (s.word_total for s in stats)),
            -rising(obj_mass, (s.obj_total for s in stats)),
            rising(hp.beta, (c for s in stats for c in s.word_cnt)),
            rising(hp.chi, (c for s in stats for c in s.obj_cnt)),
        ]
        starts = np.cumsum([0] + [len(b) for b in blocks])
        self.sweep = np.concatenate(blocks).reshape(-1)
        # A cell's count columns: concept k's row offset plus the session's columns, the
        # link column shifted from region 0 to the cell's region.
        F = _WORDS + n_words + n_objects + R
        concept_rows = np.repeat(np.arange(K) * F, R)[:, None]
        link_shift = np.tile(np.arange(R), K)
        for s in stats:
            rows = np.concatenate(([0, starts[1] + s.word_total, starts[2] + s.obj_total],
                                   starts[3] + s.word_cnt, starts[4] + s.obj_cnt))
            s.sweep_index = rows * len(n)
            s.cell_cols = concept_rows + s.cols
            s.cell_cols[:, -1] += link_shift


def _sweep_grid(p: _Batch, s: _SessionStats, t: _Tables) -> np.ndarray:
    """The collapsed log conditional over (concept, region) for one session, shape
    (P, K, R), less the concept prior's normaliser log(N + K alpha), N the sessions
    held.  Every count-only term is one fused table row, and with the prior mean at
    the origin of the standardized positions the NIW scale is V_n = v0 + sum x x^T - a a^T
    / kappa_n with a = sum x, which needs no sample mean."""
    log_concept = t.sweep.take(p.counts.take(s.cols[:-1], axis=2) + s.sweep_index).sum(axis=-1, keepdims=True)
    grid = log_concept + t.log_gamma.take(p.links)
    inv_kappa_n, const, inv_scale_df, half = t.sweep_region.take(p.region_n.astype(int), axis=1)
    m_n = p.sums * inv_kappa_n
    v = p.outers + t.v0
    v -= _outer(p.sums, m_n)
    d = s.x[:, None, None] - m_n
    v00, v01, v10, v11 = v
    det = v00 * v11 - v01 * v10
    # The quadratic form v11 d0 d0 - 2 v01 d0 d1 + v00 d1 d1, its first two terms as
    # [v11, 2 v01] d0 [d0, d1]: scaling by 1 and 2 is exact.
    terms = v[3:0:-2] * _QUAD_SCALE
    terms *= d[0]
    terms *= d
    quad = terms[0] - terms[1]
    quad += v00 * d[1] * d[1]
    quad /= det
    quad *= inv_scale_df
    const -= 0.5 * np.log(det, out=det)
    const -= half * np.log1p(quad, out=quad)
    grid += const[:, None]
    return grid


def _sample_grid(e: np.ndarray, u: np.ndarray, cells: np.ndarray) -> None:
    """Write one flat cell ``k * R + r`` per particle into ``cells``, by inverse CDF on the
    uniforms ``u``.  Row i of ``e`` is particle i's flattened (K, R) grid, ``exp(grid - max)``;
    for u < 1 the scaled total stays below the last cumulative sum, so each index is a cell."""
    cdf = e.cumsum(axis=1)
    (cdf <= u[:, None] * cdf[:, -1:]).sum(axis=1, out=cells)


def _systematic_resample(w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Particle indices drawn systematically from the normalised weights ``w``."""
    n = len(w)
    positions = (rng.random() + np.arange(n)) / n
    cumulative = np.cumsum(w)
    cumulative[-1] = 1.0  # rounding can leave it below the last position, indexing past n
    return np.searchsorted(cumulative, positions)


def derive_vocabularies(sessions: list[Session]) -> tuple[list[str], list[str]]:
    """Sorted place-word and object-label vocabularies found in the sessions."""
    places = sorted({w for s in sessions for w in s.place_words})
    objects = sorted({o for s in sessions for o in s.object_labels})
    return places, objects


def learn_fixed_lag(sessions: list[Session], *, seed: int = 0, num_regions: int = 5) -> SpatialConceptModel:
    """Learn a spatial concept model from an ordered session stream, one concept per region.

    It reads the whole stream before its first step: the vocabularies are the
    sessions' own (``derive_vocabularies``), and the positions are standardized
    by their own mean and scale, so the model depends neither on where the
    coordinate origin lies nor on the unit of length.  The priors, particle count
    and lag window are ``Hyperparameters()``, recorded in the model.
    Deterministic for fixed (sessions, seed).  A lag window longer than the
    stream is clamped.
    """
    if not is_count(num_regions) or num_regions < 1:
        raise ConfigurationError(f"num_regions must be an integer >= 1, got {num_regions!r}")
    if not sessions:
        raise SchemaError("cannot learn from an empty session list")
    hp = Hyperparameters()
    vocab_places, vocab_objects = derive_vocabularies(sessions)
    if not vocab_places:
        raise SchemaError("sessions contain no place words")
    place_index = {w: i for i, w in enumerate(vocab_places)}
    object_index = {o: i for i, o in enumerate(vocab_objects)}
    positions = np.array([s.position for s in sessions])  # each a finite 2-vector, checked by Session
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite square fails the check
        centre = positions.mean(axis=0)
        if not np.isfinite(np.square(positions - centre).sum()):
            raise SchemaError("session positions must be small enough that their squares do not overflow")
    # Learn on z = (x - centre) / scale, scale the root mean square deviation or 1: tr Cov(z) = 2.
    z = positions - centre
    scale = math.sqrt(np.square(z).mean())
    if not scale and (positions != positions[0]).any():  # all equal: no spread, so the scale is 1
        raise SchemaError("session positions must spread enough that their squared deviations do not underflow")
    scale = scale or 1.0
    z /= scale
    # The prior scale: Cov(z) / R (Fraley & Raftery 2007), or I / R for positions on a point or a line.
    # Its determinant is taken in closed form: np.linalg.det warns on a subnormal entry.
    cov = z.T @ z / len(z)
    v0 = (cov if cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0] > 1e-6 else np.eye(_DIM)) / num_regions
    stats = [_SessionStats(s, x, place_index, object_index) for s, x in zip(sessions, z)]
    tables = _Tables(hp, v0, num_regions, num_regions, len(vocab_places), len(vocab_objects), stats)

    batch = _Batch(hp.num_particles, num_regions, num_regions, len(vocab_places), len(vocab_objects), len(stats))
    batch, log_w, _, _ = _filter(batch, stats, tables, hp, np.random.default_rng(seed))
    best = batch.take(int(np.argmax(log_w)))
    return _posterior_mean_model(best, hp, seed, v0, centre, scale, vocab_places, vocab_objects)


def _filter(batch: _Batch, stats: list[_SessionStats], tables: _Tables, hp: Hyperparameters,
            rng: np.random.Generator) -> tuple[_Batch, np.ndarray, list[float], list[bool]]:
    """Run the filter over ``stats`` from the empty ``batch``: the final particles, their
    unnormalised log weights since the last resample, and each step's effective sample
    size and whether the step resampled."""
    n_particles = hp.num_particles
    log_w = np.zeros(n_particles)
    ess_steps, resampled = [], []
    for t, s in enumerate(stats):
        # Less the normaliser over the t sessions held, the grid is the log conditional.
        grid = _sweep_grid(batch, s, tables).reshape(n_particles, -1)
        grid -= math.log(t + tables.k_alpha)
        top = grid.max(axis=1, keepdims=True)
        grid -= top
        e = np.exp(grid, out=grid)  # one exp serves the weight increment and the draw
        log_w += top[:, 0] + np.log(e.sum(axis=1))
        cells = batch.assignments[:, t]
        _sample_grid(e, rng.random(n_particles), cells)
        batch.add(cells, s)

        # One Gibbs sweep over the lag window keeps recent assignments mobile.
        # Uniforms are drawn particle-major: row i holds particle i's draws in window order.
        window = range(max(0, t - hp.lag_window + 1), t + 1)
        u = rng.random((n_particles, len(window)))
        for j, tau in enumerate(window):
            cells = batch.assignments[:, tau]
            batch.add(cells, stats[tau], sign=-1)
            grid = _sweep_grid(batch, stats[tau], tables).reshape(n_particles, -1)
            grid -= grid.max(axis=1, keepdims=True)
            _sample_grid(np.exp(grid, out=grid), u[:, j], cells)
            batch.add(cells, stats[tau])

        w = np.exp(log_w - log_w.max())
        w /= w.sum()
        ess = 1.0 / float((w ** 2).sum())
        ess_steps.append(ess)
        resampled.append(ess < n_particles / 2.0)
        if resampled[-1]:
            batch = batch.take(_systematic_resample(w, rng))
            log_w = np.zeros(n_particles)
    return batch, log_w, ess_steps, resampled


def _posterior_mean_model(p: _Batch, hp: Hyperparameters, seed: int, v0: np.ndarray, centre: np.ndarray,
                          scale: float, vocab_places: list[str], vocab_objects: list[str]) -> SpatialConceptModel:
    K, R = p.counts.shape[0], p.moments.shape[1]
    n_words, n_objects = len(vocab_places), len(vocab_objects)
    n_k = p.counts[:, _CONCEPT]
    pi = (n_k + hp.alpha) / (n_k.sum() + K * hp.alpha)
    word_dist = ((p.counts[:, _WORDS:_WORDS + n_words] + hp.beta)
                 / (p.counts[:, _WORD_TOTAL, None] + n_words * hp.beta))
    object_dist = ((p.counts[:, _WORDS + n_words:_WORDS + n_words + n_objects] + hp.chi)
                   / (p.counts[:, _OBJ_TOTAL, None] + n_objects * hp.chi))
    region_dist = (p.links + hp.gamma) / (n_k[:, None] + R * hp.gamma)

    # Each region's NIW posterior mean and scale from its (7, R) moment sums, mapped back by z s + c and s^2.
    n, a = p.region_n, p.sums
    kappa_n = hp.kappa + n
    means = (a / kappa_n).T * scale + centre
    V_n = (v0.reshape(_DIM * _DIM, 1) + p.outers - _outer(a, a) / kappa_n).T
    nu_n = hp.nu0 + n
    # The posterior-mean covariance needs nu_n > dim+1; empty regions fall
    # back to the inverse-Wishart mode, which is always defined.
    denom = nu_n - _DIM - 1.0
    covs = V_n.reshape(R, _DIM, _DIM) / np.where(denom > 0, denom, nu_n + _DIM + 1.0)[:, None, None] * scale ** 2

    return SpatialConceptModel(pi, word_dist, object_dist, region_dist, means, covs,
                               vocab_places, vocab_objects, hyperparameters=hp, seed=seed)
