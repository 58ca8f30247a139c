"""Space-time beamformer designs behind one interface.

Every design takes a covariance (true or estimated) and a unit-energy
steering vector and returns :class:`BeamformerWeights` whose weight vector
satisfies the distortionless constraint w^H s = 1.

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

from dataclasses import dataclass, field

import numpy as np

from . import linalg, scene
from .linalg import NumericalError

__all__ = [
    "BeamformerWeights",
    "RankReduction",
    "JidfBranch",
    "JidfDesign",
    "KaPrior",
    "PriorPerturbation",
    "mvdr_weights",
    "lr_mvdr_weights",
    "evd_basis",
    "krylov_basis",
    "jio_design",
    "jidf_design",
    "decimation_indices",
    "sa_mvdr_weights",
    "ka_prior",
    "ka_mvdr_weights",
]


@dataclass
class BeamformerWeights:
    """A full-length weight vector plus provenance."""

    w: np.ndarray
    algorithm: str
    rank_d: int | None = None
    hyperparams: dict = field(default_factory=dict)
    multiplication_count: int | None = None


@dataclass
class RankReduction:
    """An M x D basis whose span defines a reduced-rank design space."""

    s_d_matrix: np.ndarray
    method: str
    truncated: bool = False  # set when a degenerate chain forced a smaller D

    @property
    def rank(self) -> int:
        return self.s_d_matrix.shape[1]


def mvdr_weights(r, s) -> BeamformerWeights:
    """Minimum-variance distortionless weights w = R^-1 s / (s^H R^-1 s)."""
    s = np.asarray(s, dtype=complex)
    x = linalg.hpd_solve(r, s)
    denom = s.conj() @ x
    if not denom.real > 0:
        raise NumericalError(f"steering quadratic form is not positive: {denom:.3e}")
    return BeamformerWeights(x / denom, "mvdr")


def _reduced_mvdr(r, s, basis: np.ndarray, method: str) -> tuple[np.ndarray, np.ndarray]:
    """Solve the minimum-variance problem inside span(basis).

    Returns (w_d, w_full). Raises NumericalError naming ``method`` when the
    projected covariance is rank-deficient.
    """
    r = np.asarray(r, dtype=complex)
    s = np.asarray(s, dtype=complex)
    rd = basis.conj().T @ r @ basis
    rd = 0.5 * (rd + rd.conj().T)
    sd = basis.conj().T @ s
    try:
        x = linalg.hpd_solve(rd, sd)
    except NumericalError as exc:
        raise NumericalError(f"projected covariance is rank-deficient ({method} basis): {exc}") from exc
    denom = sd.conj() @ x
    if not denom.real > 0:
        raise NumericalError(f"steering has no component in the {method} basis")
    w_d = x / denom
    return w_d, basis @ w_d


def lr_mvdr_weights(basis: RankReduction, r, s) -> BeamformerWeights:
    """Reduced-rank minimum-variance weights through a rank-reduction basis."""
    _, w = _reduced_mvdr(r, s, basis.s_d_matrix, basis.method)
    return BeamformerWeights(w, f"lr-{basis.method}", rank_d=basis.rank)


def evd_basis(r, s, rank: int, selection: str = "pc") -> RankReduction:
    """Eigenvector basis: dominant eigenvalues ("pc") or best metric ("csm").

    The cross-spectral metric ranks eigenvectors by |v^H s|^2 / lambda, the
    per-eigenvector contribution to output SINR, and keeps the best ``rank``.
    """
    s = np.asarray(s, dtype=complex)
    values, vectors = linalg.hermitian_evd(r)
    m = values.size
    if not 1 <= rank <= m:
        raise ValueError(f"rank must be in [1, {m}], got {rank}")
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
    return RankReduction(np.column_stack([vectors[:, i] for i in chosen]), f"evd-{selection}")


def krylov_basis(r, s, rank: int) -> RankReduction:
    """Orthonormal basis of the Krylov chain {q, Rq, ..., R^(D-1)q}, q = s/|s|.

    The raw chain is numerically collinear for realistic spectra, so columns
    are orthonormalized (twice, for stability) as they are generated; the
    span is unchanged. If the chain stagnates the basis is returned with
    fewer columns and ``truncated=True``.
    """
    r = np.asarray(r, dtype=complex)
    s = np.asarray(s, dtype=complex)
    m = s.size
    if not 1 <= rank <= m:
        raise ValueError(f"rank must be in [1, {m}], got {rank}")
    q = s / np.linalg.norm(s)
    columns = [q]
    truncated = False
    for _ in range(1, rank):
        v = r @ columns[-1]
        scale = np.linalg.norm(v)
        for _pass in range(2):
            for c in columns:
                v = v - (c.conj() @ v) * c
        residual = np.linalg.norm(v)
        if residual < 1e-10 * max(scale, 1e-300):
            truncated = True
            break
        columns.append(v / residual)
    return RankReduction(np.column_stack(columns), "krylov", truncated=truncated)


def _orthonormal_from(pool: list[np.ndarray], rank: int) -> np.ndarray:
    """First ``rank`` independent directions from ``pool``, orthonormalized."""
    columns: list[np.ndarray] = []
    for cand in pool:
        if len(columns) == rank:
            break
        v = np.asarray(cand, dtype=complex).copy()
        scale = np.linalg.norm(v)
        if scale == 0.0:
            continue
        for _pass in range(2):
            for c in columns:
                v = v - (c.conj() @ v) * c
        residual = np.linalg.norm(v)
        if residual > 1e-10 * scale:
            columns.append(v / residual)
    return np.column_stack(columns)


def jio_design(r, s, rank: int, iterations: int = 5) -> tuple[RankReduction, BeamformerWeights]:
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
    r = np.asarray(r, dtype=complex)
    s = np.asarray(s, dtype=complex)
    m = s.size
    if not 1 <= rank <= m:
        raise ValueError(f"rank must be in [1, {m}], got {rank}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    identity_cols = [np.eye(m, dtype=complex)[:, i] for i in range(m)]
    basis = np.column_stack(identity_cols[:rank])
    _, w = _reduced_mvdr(r, s, basis, "jio")
    objective = float((w.conj() @ r @ w).real)
    scale = float(np.trace(r).real) / m
    eye = np.eye(m)
    ladder_dirs: list[np.ndarray] = []
    gradient_dirs: list[np.ndarray] = []
    for it in range(iterations):
        ridge = scale * 10.0 ** (-(1.0 + 0.5 * it))
        ladder_dirs.append(linalg.hpd_solve(r + ridge * eye, s))
        gradient_dirs.append(r @ w)
        pool = [s, w] + ladder_dirs[::-1] + gradient_dirs[::-1] + identity_cols
        candidate = _orthonormal_from(pool, rank)
        _, w_new = _reduced_mvdr(r, s, candidate, "jio")
        if not np.all(np.isfinite(w_new)):
            raise NumericalError(f"non-finite weight at iteration {it + 1}")
        new_objective = float((w_new.conj() @ r @ w_new).real)
        if new_objective <= objective * (1.0 + 1e-12) + 1e-300:
            basis, w, objective = candidate, w_new, min(new_objective, objective)
    reduction = RankReduction(basis, "jio")
    weights = BeamformerWeights(w, "lr-jio", rank_d=rank, hyperparams={"iterations": iterations})
    return reduction, weights


def decimation_indices(m: int, rank: int, branch: int) -> np.ndarray:
    """Index pattern for one branch: floor((M/D)(d-1)) + (b-1), clamped to M-1.

    ``branch`` is zero-based here. Duplicate indices after clamping are
    rejected; callers should reduce the branch count.
    """
    if not 1 <= rank <= m:
        raise ValueError(f"rank must be in [1, {m}], got {rank}")
    if branch < 0:
        raise ValueError("branch must be nonnegative")
    idx = np.floor(m / rank * np.arange(rank)).astype(int) + branch
    idx = np.minimum(idx, m - 1)
    if np.unique(idx).size != idx.size:
        raise ValueError(
            f"decimation pattern for branch {branch + 1} has duplicate indices after clamping; "
            "reduce the number of branches"
        )
    return idx


def valid_branch_count(m: int, rank: int, requested: int) -> int:
    """Largest branch count <= requested whose patterns stay duplicate-free."""
    count = 0
    for b in range(requested):
        try:
            decimation_indices(m, rank, b)
        except ValueError:
            break
        count += 1
    return max(count, 1)


@dataclass
class JidfBranch:
    """One processing branch: interpolator, decimation pattern, reduced weight."""

    interpolator: np.ndarray
    decimation: np.ndarray
    weight: np.ndarray
    mean_output_power: float


@dataclass
class JidfDesign:
    """Branch bank of the interpolation/decimation/filtering design."""

    branches: list[JidfBranch]
    interpolator_len: int
    rank: int
    selected_branch: int


def _loaded_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """HPD solve; on singularity retry once with 1e-6*trace/dim loading."""
    try:
        return linalg.hpd_solve(mat, rhs)
    except NumericalError:
        dim = mat.shape[0]
        ridge = 1e-6 * float(np.trace(mat).real) / dim
        if ridge <= 0.0:
            ridge = 1e-12
        return linalg.hpd_solve(mat + ridge * np.eye(dim), rhs)


def jidf_design(
    snapshots,
    s,
    branches: int,
    interp_len: int,
    rank: int,
    iterations: int = 5,
) -> tuple[JidfDesign, BeamformerWeights]:
    """Joint interpolation, decimation and filtering design.

    Each branch filters the snapshot through a short interpolator, decimates
    it onto ``rank`` fixed indices (branch-specific offsets of one shared
    pattern), and applies a reduced minimum-variance weight. Interpolator and
    weight are refined alternately against time-averaged statistics of the
    supplied design snapshots; the branch with the smallest average output
    power wins. The returned full-length weight is the composite of the
    selected branch's three stages and meets w^H s = 1 exactly by the final
    normalization of the alternation.

    Args:
        snapshots: (M, K) design block (columns are target-free snapshots).
        s: unit-energy steering vector.
        branches: number of decimation offsets tried.
        interp_len: interpolator length I.
        rank: reduced dimension D.
        iterations: alternations of the weight/interpolator updates.
    """
    block = np.asarray(snapshots, dtype=complex)
    s = np.asarray(s, dtype=complex)
    m = s.size
    if block.ndim != 2 or block.shape[0] != m:
        raise ValueError(f"snapshot block of shape {block.shape} does not have {m} rows")
    if branches < 1:
        raise ValueError("branches must be >= 1")
    if not 1 <= interp_len <= m:
        raise ValueError(f"interp_len must be in [1, {m}], got {interp_len}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    k = block.shape[1]
    # zero-padded snapshot rows so a window starting at z reads the same
    # zero fill the steering Hankel uses
    rows = np.concatenate([block.T, np.zeros((k, interp_len - 1), dtype=complex)], axis=1)
    steer_hankel = linalg.hankel_from_vector(s, interp_len)

    designed: list[JidfBranch] = []
    for b in range(branches):
        z = decimation_indices(m, rank, b)
        windows = np.stack([rows[:, zi : zi + interp_len] for zi in z])  # (D, K, I)
        steer_windows = steer_hankel[z, :]  # (D, I)
        v = np.zeros(interp_len, dtype=complex)
        v[0] = 1.0
        w = np.full(rank, np.nan, dtype=complex)
        for _ in range(iterations):
            # weight update in the decimated/interpolated coordinates
            interpolated = np.einsum("dki,i->kd", windows, v)  # (K, D)
            r_w = interpolated.T @ interpolated.conj() / k
            r_w = 0.5 * (r_w + r_w.conj().T)
            s_w = steer_windows @ v
            x = _loaded_solve(r_w, s_w)
            w = x / (s_w.conj() @ x)
            # interpolator update against the weight-combined statistics
            combined = np.einsum("dki,d->ki", windows.conj(), w)  # (K, I)
            r_v = combined.T @ combined.conj() / k
            r_v = 0.5 * (r_v + r_v.conj().T)
            s_v = steer_windows.conj().T @ w
            x = _loaded_solve(r_v, s_v)
            v = x / (s_v.conj() @ x)
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(w))):
            raise NumericalError(f"non-finite branch state (branch {b + 1})")
        outputs = np.einsum("dki,i,d->k", windows, v, w.conj())
        designed.append(JidfBranch(v, z, w, float(np.mean(np.abs(outputs) ** 2))))

    selected = min(range(branches), key=lambda i: designed[i].mean_output_power)
    best = designed[selected]
    w_full = np.zeros(m, dtype=complex)
    for d, zi in enumerate(best.decimation):
        stop = min(zi + interp_len, m)
        w_full[zi:stop] += best.weight[d] * best.interpolator[: stop - zi].conj()
    design = JidfDesign(designed, interp_len, rank, selected)
    weights = BeamformerWeights(
        w_full,
        "lr-jidf",
        rank_d=rank,
        hyperparams={"branches": branches, "interp_len": interp_len, "iterations": iterations},
    )
    return design, weights


def sa_mvdr_weights(
    r,
    s,
    penalty: float,
    epsilon: float = 0.1,
    iterations: int = 10,
    tol: float = 1e-8,
) -> BeamformerWeights:
    """Sparsity-aware minimum-variance design by iterative reweighting.

    The l1 penalty on the weights is handled through the quadratic surrogate
    w^H diag(1/(|w|+eps)) w, refreshed from the previous iterate: each pass
    solves w = (R + penalty*Lambda)^-1 s, normalized to w^H s = 1. Starts
    from the unpenalized solution; stops at the iteration budget or when the
    relative weight change drops below ``tol``.
    """
    if penalty < 0:
        raise ValueError("penalty must be >= 0")
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    s = np.asarray(s, dtype=complex)
    base = mvdr_weights(r, s)
    w = base.w
    used = 0
    if penalty > 0:
        r = np.asarray(r, dtype=complex)
        eye = np.eye(s.size)
        for used in range(1, iterations + 1):
            reweight = 1.0 / (np.abs(w) + epsilon)
            x = linalg.hpd_solve(r + penalty * reweight * eye, s)
            w_new = x / (s.conj() @ x)
            change = np.linalg.norm(w_new - w) / max(np.linalg.norm(w), 1e-300)
            w = w_new
            if change <= tol:
                break
    return BeamformerWeights(
        w, "sa-mvdr", hyperparams={"penalty": penalty, "epsilon": epsilon, "iterations_run": used}
    )


@dataclass(frozen=True)
class PriorPerturbation:
    """How the synthesized prior scene deviates from the truth."""

    velocity_fraction: float = 0.05
    cnr_offset_db: float = -3.0


@dataclass
class KaPrior:
    """A prior interference covariance and a record of how it was made."""

    r_prior: np.ndarray
    mismatch: str


def ka_prior(cfg: scene.RadarConfig, perturbation: PriorPerturbation | None = None) -> KaPrior:
    """Synthesize a prior covariance from a perturbed scene.

    Stands in for terrain-database or previous-scan knowledge: clutter of a
    scene with scaled platform velocity and offset CNR, plus the noise floor.
    Zero perturbation reproduces the true clutter-plus-noise exactly. Jammers
    are deliberately absent from the prior (they are not in any database).
    """
    pert = perturbation if perturbation is not None else PriorPerturbation()
    shifted = scene.perturbed_config(cfg, pert.velocity_fraction, pert.cnr_offset_db)
    r_o = scene.clutter_covariance(shifted) + scene.noise_covariance(cfg)
    label = f"velocity x{1 + pert.velocity_fraction:g}, cnr {pert.cnr_offset_db:+g} dB"
    return KaPrior(0.5 * (r_o + r_o.conj().T), label)


def ka_mvdr_weights(
    r_hat,
    prior: KaPrior,
    s,
    mode: str = "optimal_eta",
    alpha: float | None = None,
    eta: float | None = None,
) -> BeamformerWeights:
    """Knowledge-aided minimum-variance weights.

    Modes:
        ``fixed_alpha``: design on the blended covariance
            alpha*R_prior + (1-alpha)*R_hat.
        ``fixed_eta``: blend the two solutions,
            w proportional to eta*R_prior^-1 s + (1-eta)*R_hat^-1 s.
        ``optimal_eta``: pick eta minimizing the output power against
            ``r_hat``, the best available stand-in for the unknown truth,
            clamped to [0, 1];
            a vanishing curvature falls back to eta = 0.5 with a flag.
    """
    s = np.asarray(s, dtype=complex)
    hyper: dict = {"mode": mode, "prior": prior.mismatch}
    if mode == "fixed_alpha":
        if alpha is None or not 0.0 <= alpha <= 1.0:
            raise ValueError("fixed_alpha mode needs alpha in [0, 1]")
        blended = alpha * prior.r_prior + (1.0 - alpha) * np.asarray(r_hat, dtype=complex)
        w = mvdr_weights(blended, s).w
        hyper["alpha"] = alpha
        return BeamformerWeights(w, "ka-mvdr", hyperparams=hyper)
    if mode not in ("fixed_eta", "optimal_eta"):
        raise ValueError(f"unknown knowledge-aided mode {mode!r}")
    data_dir = linalg.hpd_solve(r_hat, s)
    prior_dir = linalg.hpd_solve(prior.r_prior, s)
    if mode == "optimal_eta":
        reference = np.asarray(r_hat, dtype=complex)
        diff = prior_dir - data_dir
        curvature = float((diff.conj() @ reference @ diff).real)
        if curvature <= 1e-300:
            eta = 0.5
            hyper["eta_fallback"] = True
        else:
            numer = float(((data_dir - prior_dir).conj() @ reference @ data_dir).real)
            eta = min(max(numer / curvature, 0.0), 1.0)
    else:
        if eta is None or not 0.0 <= eta <= 1.0:
            raise ValueError("fixed_eta mode needs eta in [0, 1]")
    hyper["eta"] = float(eta)
    direction = eta * prior_dir + (1.0 - eta) * data_dir
    denom = s.conj() @ direction
    if abs(denom) <= 1e-300:
        raise NumericalError("blended direction is orthogonal to the steering vector")
    return BeamformerWeights(direction / denom, "ka-mvdr", hyperparams=hyper)

