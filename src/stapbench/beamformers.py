"""Space-time beamformer designs behind one interface.

Every design takes a covariance (true or estimated) and a unit-energy
steering vector and returns the full-length weight vector as an array, which
satisfies the distortionless constraint w^H s = 1. The covariance is either
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
to all its branches at once.

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


def _distortionless(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x`` scaled to s^H x = 1 along its last axis, for one vector or a
    stack; raises NumericalError unless every Re(s^H x) > 0."""
    denom = (s.conj()[..., None, :] @ x[..., None])[..., 0]
    if not np.min(denom.real) > 0:  # NaN fails too
        raise NumericalError(f"steering response is not positive: {denom.flat[np.argmin(denom.real)]:.3e}")
    return x / denom


def mvdr_weights(r, s) -> np.ndarray:
    """Minimum-variance distortionless weights w = R^-1 s / (s^H R^-1 s)."""
    s = np.asarray(s, dtype=complex)
    return _distortionless(s, scene.CovarianceSet.of(r).solve(s))


def _plus_diagonal(a: np.ndarray, d) -> np.ndarray:
    """A copy of ``a`` with ``d`` added to its diagonal: a + d*I, or a + diag(d)."""
    out = a.copy()
    out.flat[:: a.shape[0] + 1] += d
    return out


def lr_mvdr_weights(basis: np.ndarray, r, s) -> np.ndarray:
    """Reduced-rank minimum-variance weights through an (M, D) rank-reduction basis.

    Solves the minimum-variance problem inside span(basis) and returns the
    full-length weight. Raises NumericalError when the projected covariance
    is rank-deficient.
    """
    r = scene.CovarianceSet.of(r).matrix
    rd = basis.conj().T @ r @ basis
    rd = 0.5 * (rd + rd.conj().T)
    sd = basis.conj().T @ np.asarray(s, dtype=complex)
    try:
        x = linalg.hpd_solve(rd, sd)
    except NumericalError as exc:
        raise NumericalError(f"projected covariance is rank-deficient: {exc}") from exc
    return basis @ _distortionless(sd, x)


def _steering_aligned(values: np.ndarray, vectors: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``vectors`` with each cluster of equal eigenvalues (consecutive gaps of
    at most 1e-10 of the largest) rotated so that its first vector is s
    projected onto the cluster and the rest are orthogonal to s. LAPACK may
    return any basis of such a cluster, and which one moves with the LAPACK
    build; the rotated one does not. Rotates a copy: the cached EVD serves
    every steering vector."""
    ends = np.flatnonzero(np.abs(np.diff(values)) > 1e-10 * np.abs(values).max()) + 1
    clusters = [(a, b) for a, b in zip(np.r_[0, ends], np.r_[ends, values.size]) if b - a > 1]
    if not clusters:
        return vectors
    vectors = vectors.copy()
    for a, b in clusters:
        cluster = vectors[:, a:b]
        rotation, _ = np.linalg.qr(np.column_stack([cluster.conj().T @ s, np.eye(b - a)]))
        vectors[:, a:b] = cluster @ rotation
    return vectors


def evd_basis(r, s, rank: int, selection: str) -> np.ndarray:
    """Eigenvector basis: dominant eigenvalues ("pc") or best metric ("csm").

    The cross-spectral metric (Goldstein & Reed, IEEE TSP 45(2), 1997) ranks
    eigenvectors by |v^H s|^2 / lambda, the per-eigenvector contribution to
    output SINR, and keeps the best ``rank``. Inside a repeated eigenvalue,
    whose basis LAPACK picks differently in each build, the eigenvectors are
    first aligned with s (:func:`_steering_aligned`), so the weight does not
    depend on that choice. Returns the (M, rank) basis.
    """
    s = np.asarray(s, dtype=complex)
    values, vectors = scene.CovarianceSet.of(r).evd()
    m = values.size
    if not 1 <= rank <= m:
        raise ValueError(f"rank must be in [1, {m}], got {rank}")
    vectors = _steering_aligned(values, vectors, s)
    if selection == "pc":
        chosen = range(rank)
    elif selection == "csm":
        floor = 1e-15 * max(float(np.abs(values).max()), 1.0)
        # one dot product per eigenvector: a single vectorized V^H s rounds
        # differently, which can reorder near-tied metrics
        metric = [abs(vectors[:, i].conj() @ s) ** 2 / max(values[i], floor) for i in range(m)]
        chosen = sorted(range(m), key=lambda i: -metric[i])[:rank]
    else:
        raise ValueError(f"unknown eigenvector selection {selection!r}")
    return np.column_stack([vectors[:, i] for i in chosen])


def _cgs2(basis: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    """Remove span(basis) from ``v`` by classical Gram-Schmidt applied twice
    (CGS2: Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 2005), which
    keeps the columns orthonormal to working precision. ``basis`` has
    orthonormal columns; returns the remainder and its norm."""
    for _pass in range(2):
        v = v - basis @ (v.conj() @ basis).conj()
    return v, float(np.linalg.norm(v))


def krylov_basis(r, s, rank: int) -> np.ndarray:
    """Orthonormal basis of the Krylov chain {q, Rq, ..., R^(D-1)q}, q = s/|s|.

    The raw chain is numerically collinear for realistic spectra, so columns
    are orthonormalized (CGS2) as they are generated; the span is unchanged.
    Returns the (M, D) basis, with D < ``rank`` if the chain stagnates.
    """
    r = scene.CovarianceSet.of(r).matrix
    s = np.asarray(s, dtype=complex)
    m = s.size
    if not 1 <= rank <= m:
        raise ValueError(f"rank must be in [1, {m}], got {rank}")
    q = np.empty((m, rank), dtype=complex)
    q[:, 0] = s / np.linalg.norm(s)
    count = 1
    while count < rank:
        v = r @ q[:, count - 1]
        scale = np.linalg.norm(v)
        v, residual = _cgs2(q[:, :count], v)
        if residual < 1e-10 * max(scale, 1e-300):
            break
        q[:, count] = v / residual
        count += 1
    return q[:, :count]


def _orthonormal_from(pool: list[np.ndarray], rank: int) -> np.ndarray:
    """First ``rank`` independent directions from ``pool``, orthonormalized (CGS2)."""
    q = np.empty((pool[0].size, rank), dtype=complex)
    count = 0
    for cand in pool:
        if count == rank:
            break
        scale = np.linalg.norm(cand)
        if scale == 0.0:
            continue
        v, residual = _cgs2(q[:, :count], np.asarray(cand, dtype=complex))
        if residual > 1e-10 * scale:
            q[:, count] = v / residual
            count += 1
    return q[:, :count]


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
    """
    cov = scene.CovarianceSet.of(r)
    r = cov.matrix
    s = np.asarray(s, dtype=complex)
    m = s.size
    if not 1 <= rank <= m:
        raise ValueError(f"rank must be in [1, {m}], got {rank}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    identity_cols = list(np.eye(m, dtype=complex))  # the rows of I are its columns, on one base
    basis = np.column_stack(identity_cols[:rank])
    w = lr_mvdr_weights(basis, cov, s)
    objective = float((w.conj() @ r @ w).real)
    scale = float(np.trace(r).real) / m
    ladder_dirs: list[np.ndarray] = []
    gradient_dirs: list[np.ndarray] = []
    for it in range(iterations):
        ridge = scale * 10.0 ** (-(1.0 + 0.5 * it))
        ladder_dirs.append(linalg.hpd_solve(_plus_diagonal(r, ridge), s))
        gradient_dirs.append(r @ w)
        pool = [s, w] + ladder_dirs[::-1] + gradient_dirs[::-1] + identity_cols
        candidate = _orthonormal_from(pool, rank)
        w_new = lr_mvdr_weights(candidate, cov, s)
        if not np.all(np.isfinite(w_new)):
            raise NumericalError(f"non-finite weight at iteration {it + 1}")
        new_objective = float((w_new.conj() @ r @ w_new).real)
        if new_objective <= objective * (1.0 + 1e-12) + 1e-300:
            w, objective = w_new, min(new_objective, objective)
    return w


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
    of a (B, n, n) stack of matrices (symmetrized first) and a (B, n) stack
    of constraints, solved in one call. Raises NumericalError if a matrix is
    singular or by the rule of :func:`_distortionless`."""
    mats = 0.5 * (mats + mats.conj().transpose(0, 2, 1))
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
    """
    cov = scene.CovarianceSet.of(r)
    s = np.asarray(s, dtype=complex)
    m = s.size
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
    steer = np.concatenate([s, np.zeros(interp_len - 1, dtype=complex)])[rows]
    steer = steer.reshape(branches, rank, interp_len)
    pad_b, pad_i = np.nonzero(z[:, :1] + np.arange(interp_len) >= m)

    v = np.zeros((branches, interp_len), dtype=complex)
    v[:, 0] = 1.0
    for _ in range(iterations):
        # weight update: r_w[d, e] = sum_ij v_i stats[(d, i), (e, j)] conj(v_j)
        r_w = (v[:, None, None, :] @ by_window).reshape(branches, rank, rank, interp_len)
        r_w = (r_w @ v.conj()[:, None, :, None])[..., 0]
        s_w = (steer @ v[:, :, None])[..., 0]
        w = _branch_mvdr(r_w, s_w)
        # interpolator update: r_v[i, j] = conj(sum_de conj(w_d) stats[(d, i), (e, j)] w_e)
        r_v = (w.conj()[:, None, :] @ by_rank).reshape(branches, interp_len, rank, interp_len)
        r_v = (w[:, None, None, :] @ r_v)[:, :, 0, :].conj()
        r_v[pad_b, pad_i, pad_i] = 1.0
        s_v = (steer.conj().transpose(0, 2, 1) @ w[:, :, None])[..., 0]
        v = _branch_mvdr(r_v, s_v)
    # cascade[b, (d, i)] = conj(w_d) v_i is the conjugate of branch b's full-length
    # weight at z_d + i, so the quadratic form is that weight's output power
    cascade = (w.conj()[:, :, None] * v[:, None, :]).reshape(branches, rank * interp_len)
    power = (cascade[:, None, :] @ stats @ cascade.conj()[:, :, None]).real[:, 0, 0]
    best = int(np.argmin(power))
    w_full = np.zeros(m + interp_len - 1, dtype=complex)
    np.add.at(w_full, rows[best], cascade[best].conj())
    return w_full[:m]


# relative weight change at which the sparsity-aware reweighting stops early
SA_TOLERANCE = 1e-8


def sa_mvdr_weights(r, s, penalty: float, epsilon: float, iterations: int) -> np.ndarray:
    """Sparsity-aware minimum-variance design by iterative reweighting.

    The l1 penalty on the weights is handled through the quadratic surrogate
    w^H diag(1/(|w|+eps)) w, refreshed from the previous iterate: each pass
    solves w = (R + penalty*Lambda)^-1 s, normalized to w^H s = 1. Starts
    from the unpenalized solution; stops at the iteration budget or when the
    relative weight change drops below ``SA_TOLERANCE``.
    """
    if penalty < 0:
        raise ValueError("penalty must be >= 0")
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    s = np.asarray(s, dtype=complex)
    cov = scene.CovarianceSet.of(r)
    w = mvdr_weights(cov, s)
    if penalty > 0:
        for _ in range(iterations):
            reweight = 1.0 / (np.abs(w) + epsilon)
            loaded = _plus_diagonal(cov.matrix, penalty * reweight)
            w_new = _distortionless(s, linalg.hpd_solve(loaded, s))
            change = np.linalg.norm(w_new - w) / max(np.linalg.norm(w), 1e-300)
            w = w_new
            if change <= SA_TOLERANCE:
                break
    return w


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


def ka_mvdr_weights(
    r_hat,
    prior: scene.CovarianceSet,
    s,
    mode: str,
    alpha: float | None = None,
    eta: float | None = None,
) -> np.ndarray:
    """Knowledge-aided minimum-variance weights.

    Modes:
        ``fixed_alpha``: design on the blended covariance
            alpha*R_prior + (1-alpha)*R_hat.
        ``fixed_eta``: blend the two solutions,
            w proportional to eta*R_prior^-1 s + (1-eta)*R_hat^-1 s.
        ``optimal_eta``: pick eta minimizing the output power against
            ``r_hat``, the best available stand-in for the unknown truth,
            clamped to [0, 1];
            a vanishing curvature falls back to eta = 0.5.
    """
    s = np.asarray(s, dtype=complex)
    cov = scene.CovarianceSet.of(r_hat)
    if mode == "fixed_alpha":
        if alpha is None or not 0.0 <= alpha <= 1.0:
            raise ValueError("fixed_alpha mode needs alpha in [0, 1]")
        blend = alpha * prior.matrix + (1.0 - alpha) * cov.matrix  # Hermitian by construction
        return _distortionless(s, linalg.hpd_solve(blend, s))
    if mode not in ("fixed_eta", "optimal_eta"):
        raise ValueError(f"unknown knowledge-aided mode {mode!r}")
    data_dir = cov.solve(s)
    prior_dir = prior.solve(s)
    if mode == "optimal_eta":
        reference = cov.matrix
        diff = prior_dir - data_dir
        curvature = float((diff.conj() @ reference @ diff).real)
        if curvature <= 1e-300:
            eta = 0.5
        else:
            numer = float(((data_dir - prior_dir).conj() @ reference @ data_dir).real)
            eta = min(max(numer / curvature, 0.0), 1.0)
    else:
        if eta is None or not 0.0 <= eta <= 1.0:
            raise ValueError("fixed_eta mode needs eta in [0, 1]")
    return _distortionless(s, eta * prior_dir + (1.0 - eta) * data_dir)

