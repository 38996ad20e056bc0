"""Rao-Blackwellized particle filter for spatial concept learning, at a fixed lag of zero.

A concept here is one region: a session's latent cell is a region index r,
which carries the region's place words, object labels and Gaussian position
at once.  This follows the paper, whose spatial concept is a room name plus
that room's object presence, and departs from SpCoSLAM (Taniguchi et al.
2017), whose second index links each concept to several position regions.

It runs at a fixed lag of zero: no past session is re-drawn.  Each step scores
the arriving session once, weights it, draws its region and resamples, so the
filter is sequential importance resampling with the optimal proposal (Doucet,
Godsill & Andrieu 2000).  The Gibbs sweep over a window of recent sessions,
the rejuvenation of SpCoSLAM 2.0 (Taniguchi et al. 2020), is gone: over 600
paired learns per visit count of ``scripts/seed_sweep.py --seeds 60
--replicates 5`` it recovered no better (5 visits, wrong learns: 20 with a
10-session sweep, 21 without, McNemar p = 1; 10 visits: 1 and 0; 30 visits:
0 and 0) and took about 80 % of a learn.

All particles live in one stacked state (``_Batch``), the particle axis last:
regions plus collapsed sufficient statistics in one float64 (rows, P) matrix,
and ``assignments`` (T, P), one contiguous row of regions per session.  Its
count block ``counts`` (F, R, P) holds every Dirichlet-multinomial count of a
region, integers exact as floats: sessions, word and object totals, word and
object counts.  Its moment block ``moments`` (6, R, P) holds each region's
normal-inverse-Wishart moment sums: two position sums, four sums of outer
products.  Each column and each sum is a contiguous (R, P) plane, so every
small reduction runs down a leading axis, which numpy sums in order: appended
zero terms leave its bits.  Positions are held standardized, less the floor's
mean session position and over one scale.  Adding a session is one indexed
update of the matrix, through the session's segment of flat index and value
arrays built in one pass per learn (``_Tables``).

One kernel, ``_grid``, scores a session over the regions.  Every term that
depends on an integer count alone is one row of a fused table built once per
learn (``_Tables``), so a grid is a few lookups plus the Student-t position
term.  Each log-gamma difference in those rows has an integer offset, so a
row is a running sum of logs, and the Student-t constant has a closed form:
the learner needs no special functions.  The kernel leaves out the region
prior's normaliser log(N + R alpha), which is the same for every particle and
region.  An arriving session's grid is the kernel minus that normaliser, the
collapsed log conditional: it is the optimal proposal, and its log-sum-exp,
the predictive marginal, is the particle weight increment.  ``log_w`` sums
them as unnormalised log weights since the last resample; each step
normalises ``exp(log_w - max)``.  A draw is one ``argmin``: the first region
whose cumulative sum exceeds u times the total.  Grid buffers are updated in
place with no change to any arithmetic.

``_filter`` runs the loop.  Particles are systematically resampled, by one
``ndarray.take`` gather of the state and one of the assignments on their particle
axis, when the effective sample size drops below half the particle count,
and ``log_w`` restarts at zeros; the gathered state takes its views afresh.
Uniforms are drawn in the order a per-particle loop would draw them, so
results do not depend on the batching.  The returned model is the
maximum-weight particle's posterior-mean parameters, returned as the stacked
arrays ``SpatialConceptModel`` holds: each is computed from the particle's
count rows and moment sums in one expression.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, SchemaError, is_count
from .spatial import Hyperparameters, Session, SpatialConceptModel

_DIM = 2
_MOMENTS = _DIM + _DIM * _DIM  # the position sums and the sums of outer products
# Leading columns of the stacked counts; word and object columns follow.
_CONCEPT, _WORD_TOTAL, _OBJ_TOTAL, _WORDS = 0, 1, 2, 3
# Scales the (v11, v01) planes of a NIW scale to the quadratic form's coefficients.
_QUAD_SCALE = np.array([1.0, 2.0])[:, None, None]


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The flattened outer products of two stacks of 2-vectors held component-major:
    plane ``2 i + j`` is ``a[i] * b[j]``."""
    return (a[:, None] * b[None]).reshape((_DIM * _DIM,) + a.shape[1:])


class _Batch:
    """Regions and collapsed sufficient statistics of all particles, sized by the ``_Tables``
    it is built from, for the stream's first T sessions.

    One float64 matrix ``state`` (rows, P) holds a count block, then a moment block, each
    row one statistic of one region for every particle.  ``counts`` (F, R, P) columns:
    sessions, word total, object total, V words, O objects, each an integer exact as a
    float, one contiguous (R, P) plane per column.  ``moments`` (6, R, P): one plane per
    moment sum.  ``assignments`` (T, P): each session's regions, a contiguous row; column i
    is particle i's trajectory.  ``add`` writes into ``state`` at the flat indices ``_Tables``
    lays out for this layout.  The views of it (``counts``, ``moments``) and the ones
    ``_grid`` reads (``sums``, ``outers``) are taken whenever a buffer is made, in
    ``__init__`` and in ``take``: views of a replaced buffer would read stale counts.
    """

    __slots__ = ("state", "counts", "moments", "assignments", "sums", "outers")

    def __init__(self, tables: _Tables, T: int):
        self.state = np.zeros((tables.n_rows, tables.P))
        self.assignments = np.zeros((T, tables.P), dtype=int)
        self._set_views(tables.R)

    def _set_views(self, R: int) -> None:
        n_counts = len(self.state) - _MOMENTS * R
        self.counts = self.state[:n_counts].reshape(-1, R, self.state.shape[1])
        self.moments = self.state[n_counts:].reshape(_MOMENTS, R, -1)
        self.sums, self.outers = self.moments[:_DIM], self.moments[_DIM:]

    def take(self, index: np.ndarray) -> "_Batch":
        """The particles at ``index``, one per particle, gathered into a new buffer."""
        out = _Batch.__new__(_Batch)
        out.state = self.state.take(index, axis=1)
        out._set_views(self.moments.shape[1])
        out.assignments = self.assignments.take(index, axis=1)
        return out

    def add(self, cells: np.ndarray, tables: _Tables, t: int) -> None:
        """Add session ``t`` of ``tables``' stream to particle i in region ``cells[i]``."""
        lo, hi = tables.bounds[t], tables.bounds[t + 1]
        index = tables.offsets + tables.cell_index[:, lo:hi].take(cells, axis=0)
        self.state.reshape(-1)[index] += tables.values[lo:hi]


class _Tables:
    """Every grid term that depends on one integer count alone, indexed by that count, and
    the prior constants, built once per learn as ``_grid`` reads them, and the stream's
    sessions as segments of flat arrays, built in one pass over it.

    It is the one place a learn's shape is set: the region count ``R``, the particle count
    ``P``, the state's row count ``n_rows`` and ``first_obj``, the first object column after
    the word columns, which ``_Batch`` and ``_posterior_mean_model`` read, as they read the
    priors ``hp`` and the prior scale ``v0``.

    Session t's segment is ``bounds[t]:bounds[t + 1]``: six moment slots, then its count
    columns in ascending order, the sessions and total columns and each nonzero word or
    object count.  ``values`` is what a slot adds to the state, ``cols`` a count slot's
    column, ``row_index`` its flat index into ``rows``, and ``cell_index`` (R, total) a slot's
    flat state index in region r for particle 0, which ``offsets`` (P, 1) shifts to each particle.

    The Dirichlet-multinomial rows are rising factorials, Gamma(n + b + c) / Gamma(n + b)
    for an integer c, so each is a sum of c logs, built row by row; the mass rows are the
    same sums negated.  The Student-t constant in two dimensions is -log(2 pi)."""

    def __init__(self, hp: Hyperparameters, v0: np.ndarray, R: int, P: int, sessions: list[Session], x: np.ndarray,
                 place_index: dict[str, int], object_index: dict[str, int]):
        # Each session's counts, a (T, F) row in the columns of ``_Batch.counts``.
        T, n_words, n_objects = len(sessions), len(place_index), len(object_index)
        first_obj = _WORDS + n_words
        F = first_obj + n_objects
        self.hp, self.R, self.P, self.first_obj, self.n_rows = hp, R, P, first_obj, (F + _MOMENTS) * R
        word_totals = np.fromiter((len(s.place_words) for s in sessions), np.intp, T)
        obj_totals = np.fromiter((len(s.object_labels) for s in sessions), np.intp, T)
        words = np.fromiter((place_index[w] for s in sessions for w in s.place_words), np.intp)
        objects = np.fromiter((object_index[o] for s in sessions for o in s.object_labels), np.intp)
        row = np.arange(T) * F
        counts = np.bincount(np.concatenate((np.repeat(row + _WORDS, word_totals) + words,
                                             np.repeat(row + first_obj, obj_totals) + objects)),
                             minlength=T * F).reshape(T, F)
        counts[:, _CONCEPT], counts[:, _WORD_TOTAL], counts[:, _OBJ_TOTAL] = 1, word_totals, obj_totals
        # The largest count a learn reaches: every session, word or object in one column.
        n = np.arange(max(T, word_totals.sum(), obj_totals.sum()) + 1, dtype=float)
        self.r_alpha = R * hp.alpha
        # Per region count: 1 / kappa_n and the Student-t constants with the scale factor
        # folded in (det(f V) = f^2 det V, so log f moves into the constant).  With D = 2,
        # Gamma((df + 2) / 2) / Gamma(df / 2) = df / 2, so the constant log(df / 2) - log(df)
        # - log(pi) is -log(2 pi).
        kappa_n = hp.kappa + n
        df = hp.nu0 + n - _DIM + 1.0
        factor = (kappa_n + 1.0) / (kappa_n * df)
        self.region_rows = np.stack([1.0 / kappa_n, -math.log(2.0 * math.pi) - np.log(factor),
                                     1.0 / (factor * df), (df + _DIM) / 2.0])
        # The prior scale ``v0`` (2, 2) as a column, broadcast along the moment planes.
        self.v0 = v0.reshape(_DIM * _DIM, 1, 1)
        # One row per term, indexed by a count: the region prior, per session total m the
        # DM mass terms, per token count c the rising factorials, up to the largest of each.
        # Row c of a rising block sums log(n + base + j) for j < c, so row 0 is zero.
        def rising(base, top):
            logs = np.log(n + base + np.arange(top)[:, None])
            return np.concatenate([np.zeros((1, len(n))), logs.cumsum(axis=0)])

        blocks = [
            np.log(n + hp.alpha)[None],
            -rising(n_words * hp.beta, word_totals.max()),
            -rising(n_objects * hp.chi, obj_totals.max()),
            rising(hp.beta, counts[:, _WORDS:first_obj].max()),
            rising(hp.chi, counts[:, first_obj:].max(initial=0)),
        ]
        self.rows = np.concatenate(blocks).reshape(-1)
        # Boolean indexing of (T, 6 + F) rows lays the segments out in turn, each as wide as
        # its own columns.
        keep = np.ones((T, _MOMENTS + F), dtype=bool)
        keep[:, _MOMENTS + _WORDS:] = counts[:, _WORDS:] != 0
        slot = keep.nonzero()[1]
        self.bounds = [0, *keep.sum(axis=1).cumsum().tolist()]
        self.x = x
        self.values = np.concatenate((x, _outer(x.T, x.T).T, counts), axis=1)[keep]
        self.cols = slot - _MOMENTS  # negative in the moment slots, which ``_grid`` does not read
        # A count's row is its block's start plus the count; the sessions column's count is 1
        # and the region prior's block one row, so its start is one less.
        start = np.repeat(np.cumsum([0] + [len(b) for b in blocks[:-1]]), [1, 1, 1, n_words, n_objects])
        start[_CONCEPT] -= 1
        self.row_index = np.concatenate((np.zeros((T, _MOMENTS), dtype=int), (start + counts) * len(n)),
                                        axis=1)[keep]
        # Region r's moment rows, then its count rows, as flat indices for particle 0 of
        # ``_Batch``'s (rows, P) state; particle i is i further on.
        r = np.arange(R)[:, None]
        cell = np.concatenate(((F + np.arange(_MOMENTS)) * R + r, np.arange(F) * R + r), axis=1) * P
        self.cell_index = cell.take(slot, axis=1)
        self.offsets = np.arange(P)[:, None]


def _grid(p: _Batch, tables: _Tables, t: int) -> np.ndarray:
    """The collapsed log conditional over the regions for session ``t``, shape (R, P),
    less the region prior's normaliser log(N + R alpha), N the sessions held.  Every
    count-only term is one fused table row, read as an (R, P) plane per count column and
    summed down that leading axis in order, so appended zero rows leave every bit; the
    sessions column, a segment's first, also indexes the region rows.  With the prior
    mean at the origin of the standardized positions the NIW scale is
    V_n = v0 + sum x x^T - a a^T / kappa_n with a = sum x, which needs no sample mean."""
    lo, hi = tables.bounds[t] + _MOMENTS, tables.bounds[t + 1]
    counts = p.counts.take(tables.cols[lo:hi], axis=0).astype(np.intp)
    inv_kappa_n, const, inv_scale_df, half = tables.region_rows.take(counts[0], axis=1)
    counts += tables.row_index[lo:hi, None, None]
    grid = tables.rows.take(counts).sum(axis=0)
    m_n = p.sums * inv_kappa_n
    v = p.outers + tables.v0
    v -= _outer(p.sums, m_n)
    d = tables.x[t][:, None, None] - m_n
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
    grid += const
    return grid


def _sample_grid(e: np.ndarray, u: np.ndarray, cells: np.ndarray) -> None:
    """Write one region per particle into ``cells``, by inverse CDF on the uniforms ``u``:
    the first region whose cumulative sum exceeds u times the total.  Column i of ``e``
    (R, P) is particle i's grid, ``exp(grid - max)``, so the total is at least 1, and for
    u <= 1 - 2**-53 the scaled total rounds below it: some region exceeds it, and the
    first one that does holds mass (``argmin`` of an all-true column would return 0)."""
    cdf = e.cumsum(axis=0)
    (cdf <= u * cdf[-1]).argmin(axis=0, out=cells)


def _systematic_resample(w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Particle indices drawn systematically from the normalised weights ``w``."""
    n = len(w)
    positions = (rng.random() + np.arange(n)) / n
    cumulative = np.cumsum(w)
    cumulative[-1] = 1.0  # rounding can leave it below the last position, indexing past n
    return np.searchsorted(cumulative, positions)


def learn_fixed_lag(sessions: list[Session], *, seed: int = 0, num_regions: int) -> SpatialConceptModel:
    """Learn a spatial concept model from an ordered session stream, ``num_regions`` regions, a concept each.

    It reads the whole stream before its first step: the vocabularies are the
    sessions' own, sorted, and the positions are standardized by their own mean
    and scale, so the model depends neither on where the coordinate origin lies
    nor on the unit of length.  The priors are ``Hyperparameters()``, recorded in
    the model, and the filter runs ``Hyperparameters.num_particles`` particles.
    It runs at a fixed lag of zero: no past session is re-drawn, and SpCoSLAM
    2.0's rejuvenation sweep is gone (see the module docstring for the
    measurement).  Deterministic for fixed (sessions, seed, num_regions).
    """
    if not is_count(num_regions) or num_regions < 1:
        raise ConfigurationError(f"num_regions must be an integer >= 1, got {num_regions!r}")
    if not sessions:
        raise SchemaError("cannot learn from an empty session list")
    hp = Hyperparameters()
    vocab_places = sorted({w for s in sessions for w in s.place_words})
    vocab_objects = sorted({o for s in sessions for o in s.object_labels})
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
    tables = _Tables(hp, v0, num_regions, hp.num_particles, sessions, z, place_index, object_index)
    batch, log_w, _, _ = _filter(_Batch(tables, len(sessions)), tables, np.random.default_rng(seed))
    return _posterior_mean_model(batch, int(np.argmax(log_w)), tables, seed, centre, scale, vocab_places,
                                 vocab_objects)


def _filter(batch: _Batch, tables: _Tables,
            rng: np.random.Generator) -> tuple[_Batch, np.ndarray, list[float], list[bool]]:
    """Run the filter from the empty ``batch`` over the first ``len(batch.assignments)``
    sessions of ``tables``' stream, with the tables' P particles: the final particles,
    their unnormalised log weights since the last resample, and each step's effective
    sample size and whether the step resampled."""
    n_particles = tables.P
    log_w = np.zeros(n_particles)
    ess_steps, resampled = [], []
    for t in range(len(batch.assignments)):
        # Less the normaliser over the t sessions held, the grid is the log conditional.
        grid = _grid(batch, tables, t)
        grid -= math.log(t + tables.r_alpha)
        top = grid.max(axis=0)
        grid -= top
        e = np.exp(grid, out=grid)  # one exp serves the weight increment and the draw
        log_w += top + np.log(e.sum(axis=0))
        cells = batch.assignments[t]
        _sample_grid(e, rng.random(n_particles), cells)
        batch.add(cells, tables, t)
        w = np.exp(log_w - log_w.max())
        w /= w.sum()
        ess = 1.0 / float((w ** 2).sum())
        ess_steps.append(ess)
        resampled.append(ess < n_particles / 2.0)
        if resampled[-1]:
            batch = batch.take(_systematic_resample(w, rng))
            log_w = np.zeros(n_particles)
    return batch, log_w, ess_steps, resampled


def _posterior_mean_model(p: _Batch, i: int, tables: _Tables, seed: int, centre: np.ndarray, scale: float,
                          vocab_places: list[str], vocab_objects: list[str]) -> SpatialConceptModel:
    hp = tables.hp
    counts, moments = p.counts[:, :, i].T, p.moments[:, :, i]
    words, objects = counts[:, _WORDS:tables.first_obj], counts[:, tables.first_obj:]
    n_r = counts[:, _CONCEPT]
    pi = (n_r + hp.alpha) / (n_r.sum() + tables.r_alpha)
    word_dist = (words + hp.beta) / (counts[:, _WORD_TOTAL, None] + words.shape[1] * hp.beta)
    object_dist = (objects + hp.chi) / (counts[:, _OBJ_TOTAL, None] + objects.shape[1] * hp.chi)

    # Each region's NIW posterior mean and scale from its (6, R) moment sums, mapped back by z s + c and s^2.
    a = moments[:_DIM]
    kappa_n = hp.kappa + n_r
    means = (a / kappa_n).T * scale + centre
    V_n = (tables.v0[..., 0] + moments[_DIM:] - _outer(a, a) / kappa_n).T
    nu_n = hp.nu0 + n_r
    # The posterior-mean covariance needs nu_n > dim+1; empty regions fall
    # back to the inverse-Wishart mode, which is always defined.
    denom = nu_n - _DIM - 1.0
    covs = V_n.reshape(tables.R, _DIM, _DIM) / np.where(denom > 0, denom, nu_n + _DIM + 1.0)[:, None, None] * scale ** 2

    return SpatialConceptModel(pi, word_dist, object_dist, means, covs,
                               vocab_places, vocab_objects, hyperparameters=hp, seed=seed)
