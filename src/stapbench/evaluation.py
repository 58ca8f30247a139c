"""Metrics, detection statistics, complexity counts and the experiment runners.

The four experiments mirror a standard airborne-radar benchmarking protocol:
output SINR against training-set size, output SINR against target Doppler,
detection probability against SNR, and arithmetic cost against problem size.
All Monte-Carlo paths are bit-reproducible given (seed, configuration): every
run owns a private generator seeded by (seed, run_index), and results are
merged by run index.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import beamformers as bf
from . import linalg, scene
from .linalg import NumericalError

__all__ = [
    "CurvePoint",
    "ExperimentResult",
    "AlgorithmParams",
    "ALGORITHMS",
    "RUNNERS",
    "sinr",
    "detection_threshold",
    "pd_analytic",
    "multiplication_count",
    "adaptive_rank",
    "design_algorithm",
    "run_sinr_vs_snapshots",
    "run_sinr_vs_doppler",
    "run_pd_vs_snr",
    "run_complexity_sweep",
]


@dataclass
class CurvePoint:
    """One point of a metric curve: the metric at ``x``, its spread, and how
    many samples (runs, or detection trials) went into it.

    ``x`` and ``value`` keep the type the runner gives them; integers
    (snapshot counts, problem sizes, multiplication counts) are written to
    the CSV as integers.
    """

    x: float
    value: float
    std: float
    count: int


@dataclass
class ExperimentResult:
    """Tabulated metric curves with per-algorithm bookkeeping."""

    kind: str
    x_label: str
    metric_label: str
    curves: dict
    failures: dict = field(default_factory=dict)
    designs: dict = field(default_factory=dict)

    def rows(self):
        """Deterministic (algorithm, x, metric, std, runs) rows for CSV export."""
        for name, points in self.curves.items():
            for p in points:
                yield (name, p.x, p.value, p.std, p.count)


def sinr(w, cov, s, xi_t: float) -> float:
    """Output SINR in dB: xi_t*M*|w^H s|^2 / (w^H R w), R interference-plus-noise.

    ``cov`` may be a CovarianceSet or a bare covariance matrix. Scale-invariant
    in ``w``; the steering vector is assumed unit-energy with the target power
    carried by xi_t * M.
    """
    weight = np.asarray(getattr(w, "w", w), dtype=complex)
    r = getattr(cov, "r_total", cov)
    s = np.asarray(s, dtype=complex)
    denom = float((weight.conj() @ r @ weight).real)
    if not denom > 0.0:
        raise NumericalError(f"output interference power is not positive: {denom:.3e}")
    m = s.size
    return 10.0 * math.log10(xi_t * m * abs(weight.conj() @ s) ** 2 / denom)


def detection_threshold(w, cov, pfa: float) -> float:
    """Square-law threshold for a false-alarm rate of ``pfa``.

    The statistic |w^H r|^2 is exponential under target absence with mean
    w^H R w, so the threshold is that mean times ln(1/pfa).
    """
    if not 0.0 < pfa <= 1.0:
        raise ValueError(f"pfa must be in (0, 1], got {pfa}")
    weight = np.asarray(getattr(w, "w", w), dtype=complex)
    r = getattr(cov, "r_total", cov)
    mean = float((weight.conj() @ r @ weight).real)
    return mean * math.log(1.0 / pfa)


def pd_analytic(sinr_linear: float, pfa: float) -> float:
    """Detection probability pfa^(1/(1+SINR)) for a Gaussian-amplitude target.

    Exact for the square-law detector above when the target amplitude is
    circular complex Gaussian and constant over the processing interval.
    """
    if sinr_linear < 0:
        raise ValueError("sinr_linear must be >= 0")
    if not 0.0 < pfa <= 1.0:
        raise ValueError(f"pfa must be in (0, 1], got {pfa}")
    return pfa ** (1.0 / (1.0 + sinr_linear))


@dataclass(frozen=True)
class AlgorithmParams:
    """Experiment-level hyperparameters shared by the design dispatch.

    ``rank`` drives the joint-optimization and branch designs; the
    eigenvector and Krylov designs default to a data-driven rank (an
    adapted-degrees-of-freedom budget of about one fifth of the training
    set) unless pinned explicitly.
    """

    rank: int = 6
    branches: int = 8
    interp_len: int = 8
    iterations: int = 5
    evd_selection: str = "csm"
    evd_rank: int | None = None
    krylov_rank: int | None = None
    sa_penalty: float | None = None
    sa_epsilon: float = 0.1
    ka_mode: str = "optimal_eta"
    ka_alpha: float = 0.5
    ka_eta: float = 0.5
    prior_velocity_fraction: float = 0.05
    prior_cnr_offset_db: float = -3.0


def adaptive_rank(k_snapshots: int, m: int) -> int:
    """Adapted-DoF budget: about one fifth of the training set, in [6, M].

    Keeps the expected in-subspace estimation loss near or below 1 dB while
    letting the subspace grow to full rank once training data is plentiful.
    """
    return int(min(m, max(6, round(k_snapshots / 5))))


@dataclass
class DesignContext:
    """Everything a designer may draw on besides the training data."""

    cfg: scene.RadarConfig
    cov: scene.CovarianceSet
    steering: np.ndarray
    xi_t: float
    loading: float
    params: AlgorithmParams
    prior: bf.KaPrior | None = None


_SA_PENALTY_GRID = (0.01, 0.1, 1.0, 10.0)


def _select_sa_penalty(ctx: DesignContext, block: np.ndarray) -> float:
    """Split-sample penalty choice: fit on the first half, score output power
    on the second half (lower is better at the fixed unit steering response)."""
    k = block.shape[1]
    if k < 4:
        return ctx.params.sa_penalty if ctx.params.sa_penalty is not None else 0.0
    half = k // 2
    fit = scene.sample_covariance(block[:, :half], ctx.loading)
    score_cov = scene.sample_covariance(block[:, half:], ctx.loading)
    sigma = ctx.cfg.noise_power
    best_penalty, best_score = 0.0, np.inf
    for lam in _SA_PENALTY_GRID:
        try:
            trial = bf.sa_mvdr_weights(fit, ctx.steering, lam * sigma, ctx.params.sa_epsilon)
        except NumericalError:
            continue
        score = float((trial.w.conj() @ score_cov @ trial.w).real)
        if score < best_score:
            best_penalty, best_score = lam * sigma, score
    return best_penalty


# Each design maps (context, estimated covariance, training block) to the
# weights and the sizes its multiplication count depends on. They reach the
# beamformers through the ``bf`` module so that a wrapper installed on a
# ``bf`` function sees every call.


def _design_optimal(ctx: DesignContext, r_hat, block):
    return bf.mvdr_weights(ctx.cov.r_total, ctx.steering), {}


def _design_smi(ctx: DesignContext, r_hat, block):
    return bf.mvdr_weights(r_hat, ctx.steering), {}


def _design_lr_evd(ctx: DesignContext, r_hat, block):
    p, s = ctx.params, ctx.steering
    rank = p.evd_rank if p.evd_rank is not None else adaptive_rank(block.shape[1], s.size)
    return bf.lr_mvdr_weights(bf.evd_basis(r_hat, s, rank, p.evd_selection), r_hat, s), {"d": rank}


def _design_lr_krylov(ctx: DesignContext, r_hat, block):
    p, s = ctx.params, ctx.steering
    rank = p.krylov_rank if p.krylov_rank is not None else adaptive_rank(block.shape[1], s.size)
    return bf.lr_mvdr_weights(bf.krylov_basis(r_hat, s, rank), r_hat, s), {"d": rank}


def _design_lr_jio(ctx: DesignContext, r_hat, block):
    p, s = ctx.params, ctx.steering
    rank = min(p.rank, s.size)
    return bf.jio_design(r_hat, s, rank, p.iterations)[1], {"d": rank, "iterations": p.iterations}


def _design_lr_jidf(ctx: DesignContext, r_hat, block):
    p, s = ctx.params, ctx.steering
    m = s.size
    rank, interp_len = min(p.rank, m), min(p.interp_len, m)
    branches = bf.valid_branch_count(m, rank, p.branches)
    w = bf.jidf_design(block, s, branches, interp_len, rank, p.iterations)[1]
    return w, {"d": rank, "b": branches, "i_len": interp_len, "iterations": p.iterations}


def _design_sa_mvdr(ctx: DesignContext, r_hat, block):
    p = ctx.params
    penalty = p.sa_penalty if p.sa_penalty is not None else _select_sa_penalty(ctx, block)
    return bf.sa_mvdr_weights(r_hat, ctx.steering, penalty, p.sa_epsilon), {}


def _design_ka_mvdr(ctx: DesignContext, r_hat, block):
    if ctx.prior is None:
        raise ValueError("knowledge-aided design needs a prior in the context")
    p = ctx.params
    w = bf.ka_mvdr_weights(
        r_hat, ctx.prior, ctx.steering, mode=p.ka_mode, alpha=p.ka_alpha, eta=p.ka_eta
    )
    return w, {}


# name -> (design, multiplication count of (m, k, d, b, i_len, iterations))
_ALGORITHMS = {
    "optimal": (_design_optimal, lambda m, k, d, b, i, it: k * m**2 + m**3 + m**2 + m),
    "smi": (_design_smi, lambda m, k, d, b, i, it: k * m**2 + m**3 + m**2 + m),
    "lr-evd": (_design_lr_evd, lambda m, k, d, b, i, it: k * m**2 + 10 * m**3 + d * m**2 + d**3),
    "lr-krylov": (_design_lr_krylov, lambda m, k, d, b, i, it: k * m**2 + d * m**2 + d**2 * m + d**3),
    "lr-jio": (_design_lr_jio, lambda m, k, d, b, i, it: it * (m**2 + d * m**2 + d**3)),
    "lr-jidf": (_design_lr_jidf, lambda m, k, d, b, i, it: b * it * (m * i + d * i**2 + d**3 + i**3)),
    "sa-mvdr": (_design_sa_mvdr, lambda m, k, d, b, i, it: it * (m**3 + m**2)),
    "ka-mvdr": (_design_ka_mvdr, lambda m, k, d, b, i, it: 2 * m**3 + m**2),
}

ALGORITHMS = tuple(_ALGORITHMS)


def _table_entry(name: str):
    try:
        return _ALGORITHMS[name]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}") from None


def multiplication_count(
    algorithm: str,
    m: int,
    d: int = AlgorithmParams.rank,
    b: int = AlgorithmParams.branches,
    i_len: int = AlgorithmParams.interp_len,
    k_snapshots: int | None = None,
    iterations: int = AlgorithmParams.iterations,
) -> int:
    """Deterministic complex-multiplication count of one design.

    Counting convention (one unit per complex multiply): covariance
    estimation costs K*M^2; a Hermitian solve/inversion M^3; an
    eigendecomposition 10*M^3; reduced-rank projections D*M^2 and reduced
    solves D^3. The branch scheme never forms an M x M covariance, which is
    where its advantage comes from. Without ``k_snapshots`` the training set
    scales with the problem (K = M).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    k = k_snapshots if k_snapshots is not None else m
    if min(k, d, b, i_len, iterations) < 1:
        raise ValueError("all complexity parameters must be >= 1")
    _, cost = _table_entry(algorithm)
    return cost(m, k, d, b, i_len, iterations)


def design_algorithm(name: str, ctx: DesignContext, r_hat, block) -> bf.BeamformerWeights:
    """Design one algorithm on an (M, K) training block and its covariance.

    The weights come back tagged with ``name`` and with the design's
    multiplication count.
    """
    design, _ = _table_entry(name)
    w, sizes = design(ctx, r_hat, block)
    w.algorithm = name
    w.multiplication_count = multiplication_count(
        name, ctx.steering.size, k_snapshots=block.shape[1], **sizes
    )
    return w


def _make_context(cfg, target, spec) -> DesignContext:
    cov = scene.total_covariance(cfg)
    steering = scene.target_steering(cfg, target)
    xi = scene.target_power(cfg, target)
    prior = None
    if "ka-mvdr" in spec.algorithms:
        prior = bf.ka_prior(
            cfg, bf.PriorPerturbation(spec.prior_velocity_fraction, spec.prior_cnr_offset_db)
        )
    return DesignContext(cfg, cov, steering, xi, spec.loading, spec, prior)


# experiment kind -> name of its runner in this module. Every runner takes
# (cfg, target, spec): the scene, the target, and an ExperimentSpec of the
# runner's kind, validated when it was built, which supplies the grid, the run
# counts, the design hyperparameters and the seed. The name is looked up at
# call time, so that a wrapper installed on a runner sees every call.
RUNNERS = {
    "sinr-vs-snapshots": "run_sinr_vs_snapshots",
    "sinr-vs-doppler": "run_sinr_vs_doppler",
    "pd-vs-snr": "run_pd_vs_snr",
    "complexity": "run_complexity_sweep",
}


def _require_kind(spec, kind: str) -> None:
    if spec.kind != kind:
        raise ValueError(f"{RUNNERS[kind]} runs {kind!r} experiments, got kind {spec.kind!r}")


def _start(kind: str, cfg, target, spec):
    """Check that ``spec`` is a ``kind`` experiment; return the design context
    and the seed (the scene's master seed unless the spec sets one)."""
    _require_kind(spec, kind)
    seed = spec.seed if spec.seed is not None else cfg.master_seed
    return _make_context(cfg, target, spec), seed


def _aggregate(kind, x_label, metric_label, algorithms, grid, samples, trials=None) -> ExperimentResult:
    """Curves from per-run samples of shape (runs, algorithms, grid).

    A non-finite sample marks a failed design: it is counted as a failure and
    kept out of its point. Without ``trials``, every sample is one design's
    metric and a point holds the mean and sample standard deviation of its
    finite samples. With ``trials`` (one count per run), every run is one
    design scored across the whole grid and its samples are detection counts,
    so a point holds the pooled detection rate and its binomial standard error.
    """
    samples = np.asarray(samples, dtype=float)
    runs = samples.shape[0]
    curves, failures, designs = {}, {}, {}
    for ai, name in enumerate(algorithms):
        ok = np.isfinite(samples[:, ai, :])
        points = []
        for gi, x in enumerate(grid):
            good = samples[ok[:, gi], ai, gi]
            if trials is None:
                n = int(good.size)
                value = float(good.mean()) if n else float("nan")
                std = float(good.std(ddof=1)) if n > 1 else 0.0
            else:
                n = int(trials[ok[:, gi]].sum())
                value = float(good.sum()) / n if n else float("nan")
                std = math.sqrt(max(value * (1.0 - value), 0.0) / n) if n else 0.0
            points.append(CurvePoint(x, value, std, n))
        curves[name] = points
        if trials is None:
            failures[name], designs[name] = int((~ok).sum()), runs * len(grid)
        else:
            failures[name], designs[name] = int((~ok).any(axis=1).sum()), runs
    return ExperimentResult(kind, x_label, metric_label, curves, failures, designs)


def _default_k_grid(k_max: int) -> tuple[int, ...]:
    grid = np.unique(np.geomspace(max(8, min(10, k_max)), k_max, 10).round().astype(int))
    return tuple(int(k) for k in grid if k <= k_max)


def run_sinr_vs_snapshots(cfg: scene.RadarConfig, target: scene.TargetSpec, spec) -> ExperimentResult:
    """Output SINR (against the true covariance) as training size grows.

    Each run draws ``k_max`` target-free snapshots; every algorithm is
    designed on the first K of them for each K in the grid and scored
    against the true interference covariance. The optimal bound is available
    as the "optimal" algorithm and is K-independent by construction.
    """
    ctx, seed = _start("sinr-vs-snapshots", cfg, target, spec)
    algorithms, k_max, loading = spec.algorithms, spec.k_max, spec.loading
    grid = tuple(sorted(set(int(k) for k in (spec.k_grid or _default_k_grid(k_max)))))
    m = cfg.size

    def one_run(run_idx: int):
        rng = np.random.default_rng(np.random.SeedSequence((seed, run_idx)))
        block = scene.draw_interference_block(ctx.cov, k_max, rng)
        values = np.full((len(algorithms), len(grid)), np.nan)
        gram = np.zeros((m, m), dtype=complex)
        prev = 0
        for gi, k in enumerate(grid):
            chunk = block[:, prev:k]
            gram += chunk @ chunk.conj().T
            prev = k
            r_hat = gram / k + loading * np.eye(m)
            r_hat = 0.5 * (r_hat + r_hat.conj().T)
            for ai, name in enumerate(algorithms):
                try:
                    w = design_algorithm(name, ctx, r_hat, block[:, :k])
                    values[ai, gi] = sinr(w, ctx.cov, ctx.steering, ctx.xi_t)
                except (NumericalError, np.linalg.LinAlgError):
                    pass  # the NaN left in place counts as a failed design
        return values

    samples = [one_run(i) for i in range(spec.runs)]
    return _aggregate(spec.kind, "snapshots", "sinr_db", algorithms, grid, samples)


def run_sinr_vs_doppler(cfg: scene.RadarConfig, target: scene.TargetSpec, spec) -> ExperimentResult:
    """Output SINR across target Doppler at a fixed training size.

    The training block (and hence the sample covariance) is Doppler-
    independent; only the steering vector moves across the grid. A deep
    clutter notch is expected where the target Doppler crosses the clutter
    ridge at the look angle.
    """
    ctx, seed = _start("sinr-vs-doppler", cfg, target, spec)
    algorithms, k_train = spec.algorithms, spec.effective_k_train()
    grid = tuple(float(f) for f in spec.doppler_grid())

    def one_run(run_idx: int):
        rng = np.random.default_rng(np.random.SeedSequence((seed, run_idx)))
        block = scene.draw_interference_block(ctx.cov, k_train, rng)
        r_hat = scene.sample_covariance(block, spec.loading)
        values = np.full((len(algorithms), len(grid)), np.nan)
        for gi, fd in enumerate(grid):
            tgt = replace(target, doppler_hz=fd)
            fd_ctx = replace(
                ctx, steering=scene.target_steering(cfg, tgt), xi_t=scene.target_power(cfg, tgt)
            )
            for ai, name in enumerate(algorithms):
                try:
                    w = design_algorithm(name, fd_ctx, r_hat, block)
                    values[ai, gi] = sinr(w, ctx.cov, fd_ctx.steering, fd_ctx.xi_t)
                except (NumericalError, np.linalg.LinAlgError):
                    pass  # the NaN left in place counts as a failed design
        return values

    samples = [one_run(i) for i in range(spec.runs)]
    return _aggregate(spec.kind, "doppler_hz", "sinr_db", algorithms, grid, samples)


def run_pd_vs_snr(cfg: scene.RadarConfig, target: scene.TargetSpec, spec) -> ExperimentResult:
    """Empirical detection probability against per-element SNR.

    ``trials`` are split over ``designs`` independent design blocks; each block
    trains every algorithm once on target-free data, then scores shared
    target-present draws across the whole SNR grid (the draw is SNR- and
    algorithm-independent, only the deterministic amplitude scales).
    Thresholds use the exact target-free output power from the true
    covariance, so the detection statistic isolates filter quality.
    """
    ctx, seed = _start("pd-vs-snr", cfg, target, spec)
    algorithms, k_train, designs = spec.algorithms, spec.effective_k_train(), spec.designs
    grid = tuple(float(v) for v in spec.snr_grid_db)
    m = cfg.size
    s = ctx.steering
    r_total = ctx.cov.r_total
    per_design = [spec.trials // designs] * designs
    per_design[0] += spec.trials - sum(per_design)
    amp = np.sqrt(cfg.noise_power * 10.0 ** (np.asarray(grid) / 10.0) * m)

    def one_design(didx: int):
        rng = np.random.default_rng(np.random.SeedSequence((seed, didx)))
        block = scene.draw_interference_block(ctx.cov, k_train, rng)
        r_hat = scene.sample_covariance(block, spec.loading)
        weights, thresholds, gains = [], [], []
        for name in algorithms:
            try:
                w = design_algorithm(name, ctx, r_hat, block).w
            except (NumericalError, np.linalg.LinAlgError):
                w = np.full(m, np.nan, dtype=complex)
            weights.append(w)
            thresholds.append(detection_threshold(w, r_total, spec.pfa))
            gains.append(complex(w.conj() @ s))
        wmat = np.stack(weights)  # (algs, m)
        detections = np.zeros((len(algorithms), len(grid)), dtype=np.int64)
        remaining = per_design[didx]
        chunk_size = 8192
        while remaining > 0:
            n = min(chunk_size, remaining)
            remaining -= n
            noise = scene.draw_interference_block(ctx.cov, n, rng)
            a = linalg.complex_standard_normal(rng, n)
            g = wmat.conj() @ noise  # (algs, n)
            target_part = np.asarray(gains)[:, None] * a[None, :]  # (algs, n)
            for gi in range(len(grid)):
                stat = np.abs(amp[gi] * target_part + g) ** 2
                detections[:, gi] += (stat > np.asarray(thresholds)[:, None]).sum(axis=1)
        counts = detections.astype(float)
        # a design that failed, or whose threshold is not finite, is a failure
        counts[~np.isfinite(thresholds)] = np.nan
        return counts

    samples = [one_design(i) for i in range(designs)]
    return _aggregate(
        spec.kind, "snr_db", "pd", algorithms, grid, samples, trials=np.asarray(per_design)
    )


def run_complexity_sweep(cfg: scene.RadarConfig, target: scene.TargetSpec, spec) -> ExperimentResult:
    """Multiplication counts over ``m_grid`` for every algorithm but the
    clairvoyant ``optimal`` bound, with the training set scaled to the problem
    (K = M), which keeps the covariance-formation term commensurate with the
    solve terms across the grid. The scene and the target are not used.
    """
    _require_kind(spec, "complexity")
    sizes = dict(d=spec.rank, b=spec.branches, i_len=spec.interp_len, iterations=spec.iterations)
    curves = {
        name: [
            CurvePoint(m, multiplication_count(name, m, **sizes), 0.0, 1) for m in sorted(spec.m_grid)
        ]
        for name in spec.algorithms
        if name != "optimal"
    }
    return ExperimentResult(spec.kind, "m", "multiplications", curves)
