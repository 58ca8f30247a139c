"""Space-time beamformer designs behind one interface.

Every design takes a covariance (true or estimated) and a unit-energy
steering vector, or an (M, N) stack of N of them as columns, and returns the
full-length weight in the same shape, each column designed for its own
steering vector and meeting the distortionless constraint w^H s = 1. A stack
shares the steering-independent work of its columns: a factor solves all N
at once, and batched products carry the columns as a leading axis, each
column computed as its own vector would be. The covariance is either
an array, which the design validates once on entry and wraps, or a
:class:`scene.CovarianceSet`, which passes through. One rule solves: a
``CovarianceSet`` (sample, true or prior covariance) through its own
``solve``, whose Cholesky factor, like its eigendecomposition, is kept for
the set's life and shared by every design that reads it; a matrix a design
forms itself, Hermitian by construction, through the unchecked
``linalg.hpd_solve`` (LAPACK ``zposv``).

Every design ends in one scaling step (``_distortionless``): a direction x
becomes x / (s^H x), and the design raises ``NumericalError`` when
Re(s^H x) <= 0, since then x has no usable response to s. JIDF applies it
to all its branches at once, and a stack to all its columns: a design fails
when any column does.

Families implemented:

* full-rank minimum-variance (``mvdr_weights``), which doubles as the
  sample-matrix-inversion design when fed a sample covariance;
* reduced-rank designs built from a rank-reduction basis: dominant or
  metric-selected eigenvectors (``evd_basis``), the Krylov chain of the
  covariance on the steering vector (``krylov_basis``), an alternating
  joint basis/weight optimization (``jio_design``), and the
  interpolation/decimation branch scheme (``jidf_design``);
* sparsity-aware reweighted design (``sa_mvdr_weights``);
* knowledge-aided covariance blending (``ka_prior``/``ka_mvdr_weights``).
"""

from dataclasses import dataclass

import numpy as np

from . import linalg, scene
from .linalg import NumericalError

__all__ = [
    "PriorPerturbation",
    "mvdr_weights",
    "lr_mvdr_weights",
    "evd_basis",
    "krylov_basis",
    "jio_design",
    "jidf_design",
    "decimation_pattern",
    "sa_mvdr_weights",
    "ka_prior",
    "ka_mvdr_weights",
]


def _rows(s) -> np.ndarray:
    """A steering vector (M,) or an (M, N) stack as contiguous (N, M) rows, N = 1 for a vector."""
    s = np.asarray(s, dtype=complex)
    return np.ascontiguousarray(s.reshape(s.shape[0], -1).T)


def _columns(w: np.ndarray, s) -> np.ndarray:
    """(N, M) weight rows in the shape of the steering input ``s``."""
    return w.T.reshape(np.shape(s))


def _form(a: np.ndarray, h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(a^H h b) for each row pair of two (..., M) stacks."""
    return ((a.conj()[..., None, :] @ h) @ b[..., None])[..., 0, 0].real


def _norm(v: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of an (..., M) stack, bit for bit ``np.linalg.norm`` of the row."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def _distortionless(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x`` scaled to s^H x = 1 along its last axis, for one vector or a
    stack; raises NumericalError unless every Re(s^H x) > 0."""
    denom = (s.conj()[..., None, :] @ x[..., None])[..., 0]
    if not np.min(denom.real) > 0:  # NaN fails too
        raise NumericalError(f"steering response is not positive: {denom.flat[np.argmin(denom.real)]:.3e}")
    return x / denom


def mvdr_weights(r, s) -> np.ndarray:
    """Minimum-variance distortionless weights w = R^-1 s / (s^H R^-1 s), for a
    steering vector or an (M, N) stack, all N solved in one call."""
    rows = _rows(s)
    return _columns(_distortionless(rows, scene.CovarianceSet.of(r).solve(rows.T).T), s)


def _plus_diagonal(a: np.ndarray, d) -> np.ndarray:
    """A copy of ``a`` with ``d`` added to its diagonal: a + d*I, or a + diag(d)."""
    out = a.copy()
    out.flat[:: a.shape[0] + 1] += d
    return out


def lr_mvdr_weights(basis: np.ndarray, r, s) -> np.ndarray:
    """Reduced-rank minimum-variance weights through an (M, D) rank-reduction basis.

    Solves the minimum-variance problem inside span(basis) and returns the
    full-length weight. For an (M, N) steering stack, ``basis`` is one (M, D)
    basis for every column or an (N, M, D) stack of them, and each column's
    D x D system is solved on its own. Raises NumericalError when a
    projected covariance is rank-deficient.
    """
    return _columns(_reduced_mvdr(basis, scene.CovarianceSet.of(r).matrix, _rows(s)), s)


def _reduced_mvdr(basis: np.ndarray, r: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """:func:`lr_mvdr_weights` on a covariance matrix and (N, M) steering rows,
    as (N, M) weight rows. One shared basis makes one D x D system, solved
    for all N rows in one call; a stack of bases, one system per row."""
    bh = basis.conj().swapaxes(-1, -2)
    rd = bh @ r @ basis
    rd = 0.5 * (rd + rd.conj().swapaxes(-1, -2))
    sd = (bh @ rows[..., None])[..., 0]
    try:
        if rd.ndim == 2:
            x = linalg.hpd_solve(rd, sd.T).T
        else:
            x = np.stack([linalg.hpd_solve(h, b) for h, b in zip(rd, sd)])
    except NumericalError as exc:
        raise NumericalError(f"projected covariance is rank-deficient: {exc}") from exc
    return (basis @ _distortionless(sd, x)[..., None])[..., 0]


def _steering_aligned(values: np.ndarray, vectors: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``vectors``, for each (N, M) steering row s, with each cluster of equal
    eigenvalues (consecutive gaps of at most 1e-10 of the largest) rotated so
    that its first vector is s projected onto the cluster and the rest are
    orthogonal to s: an (N, M, M) stack, or ``vectors`` itself when no
    eigenvalue repeats. LAPACK may return any basis of such a cluster, and
    which one moves with the LAPACK build; the rotated one does not. Rotates
    copies: the cached EVD serves every steering vector."""
    ends = np.flatnonzero(np.abs(np.diff(values)) > 1e-10 * np.abs(values).max()) + 1
    clusters = [(a, b) for a, b in zip(np.r_[0, ends], np.r_[ends, values.size]) if b - a > 1]
    if not clusters:
        return vectors
    vectors = np.repeat(vectors[None], len(rows), axis=0)
    for a, b in clusters:
        cluster = vectors[..., a:b]
        start = np.broadcast_to(np.eye(b - a), (len(rows), b - a, b - a))
        rotation, _ = np.linalg.qr(np.concatenate([cluster.conj().swapaxes(-1, -2) @ rows[..., None], start], axis=-1))
        vectors[..., a:b] = cluster @ rotation
    return vectors


def evd_basis(r, s, rank: int, selection: str) -> np.ndarray:
    """Eigenvector basis: dominant eigenvalues ("pc") or best metric ("csm").

    The cross-spectral metric (Goldstein & Reed, IEEE TSP 45(2), 1997) ranks
    eigenvectors by |v^H s|^2 / lambda, the per-eigenvector contribution to
    output SINR, and keeps the best ``rank``. Inside a repeated eigenvalue,
    whose basis LAPACK picks differently in each build, the eigenvectors are
    first aligned with s (:func:`_steering_aligned`), so the weight does not
    depend on that choice. Returns the (M, rank) basis, or for an (M, N)
    steering stack the (N, M, rank) stack of each column's basis.
    """
    rows = _rows(s)
    values, vectors = scene.CovarianceSet.of(r).evd()
    m = values.size
    if not 1 <= rank <= m:
        raise ValueError(f"rank must be in [1, {m}], got {rank}")
    vectors = _steering_aligned(values, vectors, rows)
    if selection == "pc":
        order = np.broadcast_to(np.arange(m), (len(rows), m))
    elif selection == "csm":
        floor = 1e-15 * max(float(np.abs(values).max()), 1.0)
        # one dot product per eigenvector and row: a single V^H S product
        # rounds differently, which can reorder near-tied metrics
        dots = (np.ascontiguousarray(vectors.conj().swapaxes(-1, -2))[..., None, :] @ rows[:, None, :, None])[..., 0, 0]
        metric = np.hypot(dots.real, dots.imag) ** 2 / np.maximum(values, floor)
        order = np.argsort(-metric, axis=-1, kind="stable")
    else:
        raise ValueError(f"unknown eigenvector selection {selection!r}")
    basis = np.take_along_axis(np.broadcast_to(vectors, (len(rows), m, m)), order[:, None, :rank], axis=-1)
    return basis.reshape(np.shape(s)[1:] + (m, rank))


def _cgs2(basis: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Remove span(basis) from ``v`` by classical Gram-Schmidt applied twice
    (CGS2: Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 2005), which
    keeps the columns orthonormal to working precision, for each row of an
    (N, M) stack ``v`` against its own (N, M, c) ``basis`` of orthonormal
    columns; returns the remainders and their norms."""
    for _pass in range(2):
        v = v - (basis @ (v.conj()[..., None, :] @ basis).conj().swapaxes(-1, -2))[..., 0]
    return v, _norm(v)


def krylov_basis(r, s, rank: int) -> np.ndarray:
    """Orthonormal basis of the Krylov chain {q, Rq, ..., R^(D-1)q}, q = s/|s|.

    The raw chain is numerically collinear for realistic spectra, so columns
    are orthonormalized (CGS2) as they are generated; the span is unchanged.
    Returns the (M, D) basis, with D < ``rank`` if the chain stagnates. For an
    (M, N) steering stack the N chains grow in lockstep into an (N, M, D)
    stack; chains that stagnate at different lengths raise NumericalError,
    so such columns are designed one at a time.
    """
    r = scene.CovarianceSet.of(r).matrix
    rows = _rows(s)
    m = rows.shape[1]
    if not 1 <= rank <= m:
        raise ValueError(f"rank must be in [1, {m}], got {rank}")
    q = np.empty(rows.shape + (rank,), dtype=complex)
    q[..., 0] = rows / _norm(rows)[:, None]
    count = 1
    while count < rank:
        v = (r @ q[..., count - 1, None])[..., 0]
        scale = _norm(v)
        v, residual = _cgs2(q[..., :count], v)
        stalled = residual < 1e-10 * np.maximum(scale, 1e-300)
        if stalled.any():
            if not stalled.all():
                raise NumericalError("the Krylov chains of the stack stagnate at different lengths")
            break
        q[..., count] = v / residual[:, None]
        count += 1
    return q[..., :count].reshape(np.shape(s)[1:] + (m, count))


def _orthonormal_from(pool: list[np.ndarray], rank: int) -> np.ndarray:
    """For each row of the (N, M) stacks in ``pool`` (an (M,) entry serves every
    row), its first ``rank`` independent directions, orthonormalized (CGS2):
    an (N, M, D) stack. The rows take candidates in lockstep, every row or
    none; rows that disagree raise NumericalError, so such columns are
    designed one at a time."""
    n, m = pool[0].shape
    q = np.empty((n, m, rank), dtype=complex)
    count = 0
    for cand in pool:
        if count == rank:
            break
        v, residual = _cgs2(q[..., :count], cand)
        took = residual > 1e-10 * _norm(cand)
        if not took.all():
            if took.any():
                raise NumericalError("the rows of the stacked pool take different candidates")
            continue
        q[..., count] = v / residual[:, None]
        count += 1
    return q[..., :count]


def jio_design(r, s, rank: int, iterations: int) -> np.ndarray:
    """Joint iterative optimization of the basis and the reduced weight.

    Alternates two updates driven by the constrained output-power cost. The
    weight update is the reduced minimum-variance solution inside the current
    basis. The basis update collects the cost's own preferred directions: the
    constraint direction s, the current full weight, the fixed-point
    direction (R + delta*I)^-1 s evaluated under a regularization ladder that
    relaxes by a decade per iteration (the exact fixed point is the rank-one
    image of R^-1 s, which is ill-posed on its own; the ladder keeps the
    update well-posed while steering toward it), and the gradient images
    R @ w of recent weights - padded with identity columns from the initial
    basis, orthonormalized, truncated to ``rank``. A candidate basis is kept
    only when the output power w^H R w does not increase, so the objective is
    nonincreasing across iterations; with rank = M the first candidate spans
    the whole space and the design coincides with full minimum variance.

    An (M, N) steering stack runs the N alternations in lockstep: each
    ladder step is one factor and one N-column solve, every column takes the
    same pool candidates (a stack whose columns would keep different ones
    raises NumericalError), and each column keeps its own accept rule.
    """
    cov = scene.CovarianceSet.of(r)
    r = cov.matrix
    rows = _rows(s)
    m = rows.shape[1]
    if not 1 <= rank <= m:
        raise ValueError(f"rank must be in [1, {m}], got {rank}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    identity_cols = list(np.eye(m, dtype=complex))  # the rows of I are its columns, on one base
    w = _reduced_mvdr(np.eye(m, rank, dtype=complex), r, rows)
    objective = _form(w, r, w)
    scale = float(np.trace(r).real) / m
    ladder_dirs: list[np.ndarray] = []
    gradient_dirs: list[np.ndarray] = []
    for it in range(iterations):
        ridge = scale * 10.0 ** (-(1.0 + 0.5 * it))
        ladder_dirs.append(linalg.hpd_solve(_plus_diagonal(r, ridge), rows.T).T)
        gradient_dirs.append((r @ w[..., None])[..., 0])
        pool = [rows, w] + ladder_dirs[::-1] + gradient_dirs[::-1] + identity_cols
        w_new = _reduced_mvdr(_orthonormal_from(pool, rank), r, rows)
        if not np.all(np.isfinite(w_new)):
            raise NumericalError(f"non-finite weight at iteration {it + 1}")
        new_objective = _form(w_new, r, w_new)
        better = new_objective <= objective * (1.0 + 1e-12) + 1e-300
        w = np.where(better[:, None], w_new, w)
        objective = np.where(better, np.minimum(new_objective, objective), objective)
    return _columns(w, s)


def decimation_pattern(m: int, rank: int, branches: int) -> np.ndarray:
    """The (B', D) decimation indices floor(M d / D) + b, clamped to M-1, of
    the leading B' <= ``branches`` branches b = 0, 1, ... whose rows repeat no
    index. The quotient is taken in integers, so it is exact at every (M, D).
    A row repeats once its last two indices clamp, and so does every later
    row, so the kept rows are a prefix."""
    if not 1 <= rank <= m:
        raise ValueError(f"rank must be in [1, {m}], got {rank}")
    idx = (m * np.arange(rank)) // rank + np.arange(branches)[:, None]
    idx = np.minimum(idx, m - 1)
    return idx[np.all(np.diff(idx, axis=1) > 0, axis=1)]


def _branch_mvdr(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Per branch, the minimum-variance solution x / (rhs^H x), x = mat^-1 rhs,
    of an (..., n, n) stack of matrices (symmetrized first) and an (..., n)
    stack of constraints, solved in one call. Raises NumericalError if a
    matrix is singular or by the rule of :func:`_distortionless`."""
    mats = 0.5 * (mats + mats.conj().swapaxes(-1, -2))
    try:
        x = np.linalg.solve(mats, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"branch matrix is singular: {exc}") from exc
    return _distortionless(rhs, x)


def jidf_design(r, s, branches: int, interp_len: int, rank: int, iterations: int) -> np.ndarray:
    """Joint interpolation, decimation and filtering design.

    Each branch filters the snapshot through a short interpolator v (length
    ``interp_len``), decimates it onto ``rank`` fixed indices z (its row of
    :func:`decimation_pattern`, built once for all branches), and applies a
    reduced minimum-variance weight w; its full-length weight carries
    w_d * conj(v_i) at index z_d + i. Interpolator and weight are refined
    alternately; the branch with the smallest output power wins. Each
    half-step ends in the scaling rule of every design, so the returned
    weight meets w^H s = 1. Raises ValueError when fewer than ``branches``
    rows of the pattern are duplicate-free.

    Like every design, it reads the covariance as given (a sample covariance
    with its loading). That matrix, zero-padded past index M-1, is gathered
    once at every branch's indices z_d + i into a (B, D*I, D*I) tensor, and
    all branches alternate on it in lockstep, one batched solve per
    half-step. Interpolator taps with no in-array sample (i >= M - b for
    branch b) have zero rows, columns and constraints: a unit diagonal
    solves them to 0, and they fall outside the returned weight anyway.

    An (M, N) steering stack carries its columns as a leading batch axis
    through every step, broadcast against the one gathered tensor.
    """
    cov = scene.CovarianceSet.of(r)
    s_rows = _rows(s)
    n, m = s_rows.shape
    if branches < 1:
        raise ValueError("branches must be >= 1")
    if not 1 <= interp_len <= m:
        raise ValueError(f"interp_len must be in [1, {m}], got {interp_len}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    z = decimation_pattern(m, rank, branches)  # (B, D)
    if len(z) < branches:
        raise ValueError(f"only {len(z)} of {branches} branches have duplicate-free decimation patterns")
    rows = (z[:, :, None] + np.arange(interp_len)).reshape(branches, rank * interp_len)
    padded = np.zeros((m + interp_len - 1,) * 2, dtype=complex)
    padded[:m, :m] = cov.matrix
    stats = padded[rows[:, :, None], rows[:, None, :]]  # (B, D*I, D*I)
    by_window = stats.reshape(branches, rank, interp_len, rank * interp_len)
    by_rank = stats.reshape(branches, rank, interp_len * rank * interp_len)
    steer = np.concatenate([s_rows, np.zeros((n, interp_len - 1), dtype=complex)], axis=1)
    steer = np.take(steer, rows, axis=1).reshape(n, branches, rank, interp_len)
    pad_b, pad_i = np.nonzero(z[:, :1] + np.arange(interp_len) >= m)

    v = np.zeros((n, branches, interp_len), dtype=complex)
    v[..., 0] = 1.0
    for _ in range(iterations):
        # weight update: r_w[d, e] = sum_ij v_i stats[(d, i), (e, j)] conj(v_j)
        r_w = (v[..., None, None, :] @ by_window).reshape(n, branches, rank, rank, interp_len)
        r_w = (r_w @ v.conj()[..., None, :, None])[..., 0]
        s_w = (steer @ v[..., None])[..., 0]
        w = _branch_mvdr(r_w, s_w)
        # interpolator update: r_v[i, j] = conj(sum_de conj(w_d) stats[(d, i), (e, j)] w_e)
        r_v = (w.conj()[..., None, :] @ by_rank).reshape(n, branches, interp_len, rank, interp_len)
        r_v = (w[..., None, None, :] @ r_v)[..., 0, :].conj()
        r_v[:, pad_b, pad_i, pad_i] = 1.0
        s_v = (steer.conj().swapaxes(-1, -2) @ w[..., None])[..., 0]
        v = _branch_mvdr(r_v, s_v)
    # cascade[b, (d, i)] = conj(w_d) v_i is the conjugate of branch b's full-length
    # weight at z_d + i, so the quadratic form is that weight's output power
    cascade = (w.conj()[..., None] * v[..., None, :]).reshape(n, branches, rank * interp_len)
    power = (cascade[..., None, :] @ stats @ cascade.conj()[..., None]).real[..., 0, 0]
    best = np.argmin(power, axis=-1)
    w_full = np.zeros((n, m + interp_len - 1), dtype=complex)
    np.add.at(w_full, (np.arange(n)[:, None], rows[best]), cascade[np.arange(n), best].conj())
    return _columns(w_full[:, :m], s)


# relative weight change at which the sparsity-aware reweighting stops early
SA_TOLERANCE = 1e-8


def sa_mvdr_weights(r, s, penalty: float, epsilon: float, iterations: int) -> np.ndarray:
    """Sparsity-aware minimum-variance design by iterative reweighting.

    The l1 penalty on the weights is handled through the quadratic surrogate
    w^H diag(1/(|w|+eps)) w, refreshed from the previous iterate: each pass
    solves w = (R + penalty*Lambda)^-1 s, normalized to w^H s = 1. Starts
    from the unpenalized solution; stops at the iteration budget or when the
    relative weight change drops below ``SA_TOLERANCE``. The columns of an
    (M, N) steering stack share the first solve; their reweighting iterates
    differ, so each column reweights on its own.
    """
    if penalty < 0:
        raise ValueError("penalty must be >= 0")
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    cov = scene.CovarianceSet.of(r)
    rows = _rows(s)
    weights = _rows(mvdr_weights(cov, s))
    if penalty > 0:
        for s_n, w in zip(rows, weights):
            for _ in range(iterations):
                reweight = 1.0 / (np.abs(w) + epsilon)
                loaded = _plus_diagonal(cov.matrix, penalty * reweight)
                w_new = _distortionless(s_n, linalg.hpd_solve(loaded, s_n))
                change = np.linalg.norm(w_new - w) / max(np.linalg.norm(w), 1e-300)
                w[:] = w_new
                if change <= SA_TOLERANCE:
                    break
    return _columns(weights, s)


@dataclass(frozen=True)
class PriorPerturbation:
    """How the synthesized prior scene deviates from the truth."""

    velocity_fraction: float = 0.05
    cnr_offset_db: float = -3.0


def ka_prior(
    cfg: scene.RadarConfig, perturbation: PriorPerturbation | None = None
) -> scene.CovarianceSet:
    """Synthesize a prior covariance from a perturbed scene.

    Stands in for terrain-database or previous-scan knowledge: clutter of a
    scene with scaled platform velocity and offset CNR, plus the noise floor.
    Zero perturbation reproduces the true clutter-plus-noise exactly. Jammers
    are deliberately absent from the prior (they are not in any database).
    """
    pert = perturbation if perturbation is not None else PriorPerturbation()
    shifted = scene.perturbed_config(cfg, pert.velocity_fraction, pert.cnr_offset_db)
    return scene.CovarianceSet(scene.clutter_covariance(shifted) + scene.noise_covariance(cfg))


def ka_mvdr_weights(r_hat, prior: scene.CovarianceSet, s, mode: str, alpha: float | None = None) -> np.ndarray:
    """Knowledge-aided minimum-variance weights.

    Modes:
        ``fixed_alpha``: design on the blended covariance
            alpha*R_prior + (1-alpha)*R_hat.
        ``optimal_eta``: blend the two solutions,
            w proportional to eta*R_prior^-1 s + (1-eta)*R_hat^-1 s, with eta
            minimizing the output power against ``r_hat``, the best available
            stand-in for the unknown truth, clamped to [0, 1], for each column
            of an (M, N) steering stack; a vanishing curvature falls back to
            eta = 0.5.

    Every solve takes all N columns of a stack in one call.
    """
    rows = _rows(s)
    cov = scene.CovarianceSet.of(r_hat)
    if mode == "fixed_alpha":
        if alpha is None or not 0.0 <= alpha <= 1.0:
            raise ValueError("fixed_alpha mode needs alpha in [0, 1]")
        blend = alpha * prior.matrix + (1.0 - alpha) * cov.matrix  # Hermitian by construction
        return _columns(_distortionless(rows, linalg.hpd_solve(blend, rows.T).T), s)
    if mode != "optimal_eta":
        raise ValueError(f"unknown knowledge-aided mode {mode!r}")
    data_dir = cov.solve(rows.T).T
    prior_dir = prior.solve(rows.T).T
    diff = prior_dir - data_dir
    curvature = _form(diff, cov.matrix, diff)
    numer = _form(data_dir - prior_dir, cov.matrix, data_dir)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.where(curvature <= 1e-300, 0.5, np.minimum(np.maximum(numer / curvature, 0.0), 1.0))[:, None]
    return _columns(_distortionless(rows, eta * prior_dir + (1.0 - eta) * data_dir), s)
