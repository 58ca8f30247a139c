"""Metrics, detection statistics, complexity counts and the experiment runners.

The four experiments mirror a standard airborne-radar benchmarking protocol:
output SINR against training-set size, output SINR against target Doppler,
detection probability against SNR, and arithmetic cost against problem size.
The three Monte-Carlo runners share one run loop (``_designed``), which owns
the seeding, the snapshot draw, the covariance estimate, the design of every
algorithm and the failure rule; a design block of the detection sweep is one
run of it. Every path is bit-reproducible given (seed, configuration): every
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
    """Tabulated metric curves, each algorithm's failed-design count, and the
    number of designs every algorithm made (runs x grid points, or design
    blocks for a Pd sweep)."""

    kind: str
    metric_label: str
    curves: dict
    failures: dict = field(default_factory=dict)
    designs: int = 0

    def rows(self):
        """Deterministic (algorithm, x, metric, std, runs) rows for CSV export."""
        for name, points in self.curves.items():
            for p in points:
                yield (name, p.x, p.value, p.std, p.count)


def sinr(w, r, s, xi_t):
    """Output SINR in dB: xi_t*M*|w^H s|^2 / (w^H R w), R interference-plus-noise.

    Scale-invariant in ``w``; the steering vector is assumed unit-energy with
    the target power carried by xi_t * M. ``w`` and ``s`` are vectors, or
    stacks of them along leading axes, (..., M); the stacks broadcast
    against each other and against ``xi_t``, and give an array of values,
    each computed as its own vectors would give it.
    """
    w = np.asarray(w, dtype=complex)
    s = np.asarray(s, dtype=complex)
    denom = ((w.conj()[..., None, :] @ r) @ w[..., None])[..., 0, 0].real
    if not np.all(denom > 0.0):
        raise NumericalError(f"output interference power is not positive: {np.min(denom):.3e}")
    gain = (w.conj()[..., None, :] @ s[..., None])[..., 0, 0]
    ratio = xi_t * s.shape[-1] * np.hypot(gain.real, gain.imag) ** 2 / denom
    values = np.array([10.0 * math.log10(x) for x in ratio.flat]).reshape(ratio.shape)
    return values if values.ndim else float(values)


def detection_threshold(w, r, pfa: float) -> float:
    """Square-law threshold for a false-alarm rate of ``pfa``.

    The statistic |w^H r|^2 is exponential under target absence with mean
    w^H R w, so the threshold is that mean times ln(1/pfa). The Pd sweep's
    scorer takes the same value for every weight at once, from the diagonal
    of its output law W^H R W; this one-weight form is the closed-form
    reference the false-alarm and detection tests check the scorer against.
    """
    if not 0.0 < pfa <= 1.0:
        raise ValueError(f"pfa must be in (0, 1], got {pfa}")
    w = np.asarray(w, dtype=complex)
    mean = float((w.conj() @ r @ w).real)
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


# The design constants. DEFAULT_RANK is the default of the one size a study
# sets, ExperimentSpec.rank, the D of the joint-optimization and branch
# designs; the eigenvector and Krylov designs run at adaptive_rank instead.
DEFAULT_RANK = 6
ITERATIONS = 5  # of lr-jio's and lr-jidf's alternations and sa-mvdr's reweighting
BRANCHES = 8  # lr-jidf's requested branches B, of which B' are used
INTERP_LEN = 8  # lr-jidf's interpolator length I
SA_PENALTY = 1.0  # sa-mvdr's l1 penalty, in units of the scene's noise power
SA_EPSILON = 0.1  # sa-mvdr's reweighting floor


def adaptive_rank(k_snapshots: int, m: int) -> int:
    """Adapted-DoF budget: about one fifth of the training set, in [6, M].

    Keeps the expected in-subspace estimation loss near or below 1 dB while
    letting the subspace grow to full rank once training data is plentiful.
    """
    return int(min(m, max(6, round(k_snapshots / 5))))


@dataclass(frozen=True)
class DesignContext:
    """Everything a designer may draw on besides the training data. ``cov``
    (the true covariance, factored once) and ``prior`` (blended, not solved)
    are built once per study and shared by every context ``replace`` makes.
    ``steering`` is one steering vector (M,) or an (M, N) stack of them,
    and ``xi_t`` its target power, a scalar or one per column. ``rank``
    is the study's D (see :func:`_sizes`)."""

    cfg: scene.RadarConfig
    cov: scene.CovarianceSet
    steering: np.ndarray
    xi_t: float | np.ndarray
    rank: int
    prior: scene.CovarianceSet | None = None


@dataclass
class Design:
    """One algorithm's weight, in the shape of the context's steering, and
    the multiplication count of the designs it holds."""

    w: np.ndarray
    multiplication_count: int


def _sizes(m: int, rank: int) -> dict:
    """The sizes a design of dimension ``m`` runs at, keyed as
    :func:`multiplication_count` takes them: D = min(``rank``, M),
    I = min(``INTERP_LEN``, M), B' the ``BRANCHES`` whose decimation pattern
    repeats no index, and ``ITERATIONS``."""
    d = min(rank, m)
    b = len(bf.decimation_pattern(m, d, BRANCHES))
    return dict(d=d, b=b, i_len=min(INTERP_LEN, m), iterations=ITERATIONS)


# Each design maps (context, estimated covariance, sizes from _sizes) to the
# weight, in the shape of the context's steering; the covariance is a
# scene.CovarianceSet that holds its training block. They reach the beamformers
# through the ``bf`` module so that a wrapper installed on a ``bf`` function
# sees every call.


def _design_optimal(ctx: DesignContext, r_hat, sizes):
    return bf.mvdr_weights(ctx.cov, ctx.steering)


def _design_smi(ctx: DesignContext, r_hat, sizes):
    return bf.mvdr_weights(r_hat, ctx.steering)


def _design_lr_evd(ctx: DesignContext, r_hat, sizes):
    return bf.lr_mvdr_weights(bf.evd_basis(r_hat, ctx.steering, sizes["d"], "csm"), r_hat, ctx.steering)


def _design_lr_krylov(ctx: DesignContext, r_hat, sizes):
    return bf.lr_mvdr_weights(bf.krylov_basis(r_hat, ctx.steering, sizes["d"]), r_hat, ctx.steering)


def _design_lr_jio(ctx: DesignContext, r_hat, sizes):
    return bf.jio_design(r_hat, ctx.steering, sizes["d"], sizes["iterations"])


def _design_lr_jidf(ctx: DesignContext, r_hat, sizes):
    return bf.jidf_design(r_hat, ctx.steering, sizes["b"], sizes["i_len"], sizes["d"], sizes["iterations"])


def _design_sa_mvdr(ctx: DesignContext, r_hat, sizes):
    penalty = SA_PENALTY * ctx.cfg.noise_power
    return bf.sa_mvdr_weights(r_hat, ctx.steering, penalty, SA_EPSILON, sizes["iterations"])


def _design_ka_mvdr(ctx: DesignContext, r_hat, sizes):
    if ctx.prior is None:
        raise ValueError("knowledge-aided design needs a prior in the context")
    return bf.ka_mvdr_weights(r_hat, ctx.prior, ctx.steering)


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
    d: int = DEFAULT_RANK,
    b: int = BRANCHES,
    i_len: int = INTERP_LEN,
    k_snapshots: int | None = None,
    iterations: int = ITERATIONS,
) -> int:
    """Deterministic complex-multiplication count of one design.

    Counting convention (one unit per complex multiply): covariance
    estimation costs K*M^2; a Hermitian solve/inversion M^3; an
    eigendecomposition 10*M^3; reduced-rank projections D*M^2 and reduced
    solves D^3. The branch scheme is charged for no M x M covariance, which
    is where its advantage comes from. Without ``k_snapshots`` the training
    set scales with the problem (K = M).

    The formulas are the paper's cost model, not a trace of this code. They
    leave out:

    * ``lr-jio``: the M x M ridge solve (R + delta*I)^-1 s that every
      iteration of :func:`beamformers.jio_design` makes;
    * ``smi``/``optimal``: they are charged K*M^2 for the covariance estimate,
      which the runners form once per grid point and share across designs;
    * ``lr-jio``: it counts a batch alternation on the covariance, not the
      per-snapshot recursion of Fa, de Lamare & Wang (2011);
    * ``lr-jidf``: it counts the per-iteration model of de Lamare &
      Sampaio-Neto (2009), while :func:`beamformers.jidf_design` gathers the
      loaded covariance once into a (B, D*I, D*I) tensor and alternates on
      it;
    * ``lr-evd``/``lr-krylov``: :func:`run_complexity_sweep` charges them at
      D = min(``rank``, M), while their designs run at the adaptive rank
      (13 at K = M = 64): at M = 64 the sweep counts ``lr-krylov`` at
      289,240 against the design's 328,405;
    * ``ka-mvdr``: it is charged 2*M^3 + M^2, two M x M solves, while
      :func:`beamformers.ka_mvdr_weights` forms one blend of the prior and
      the estimate and factors it once per design call.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    k = k_snapshots if k_snapshots is not None else m
    if min(k, d, b, i_len, iterations) < 1:
        raise ValueError("all complexity parameters must be >= 1")
    _, cost = _table_entry(algorithm)
    return cost(m, k, d, b, i_len, iterations)


# the most columns of a steering stack one design call takes: a stacked design's
# intermediates grow with its columns, lr-jidf's by about 0.1 MB a column at
# M = 64, and the peak memory of a Doppler sweep with them
STACK_CHUNK = 8


def design_algorithm(name: str, ctx: DesignContext, r_hat: scene.CovarianceSet) -> Design:
    """Design one algorithm on a loaded sample covariance and its training block.

    ``r_hat`` is a scene.CovarianceSet that holds its (M, K) training block
    (``CovarianceSet.estimate``, one per run and K in the SINR sweeps, one per
    design block in the Pd sweep), so every design on it shares its
    factorizations. The context's steering is one vector (M,) or an (M, N)
    stack, whose N columns, the Doppler bins of a sweep, are designed
    together, ``STACK_CHUNK`` columns per call of the design. Returns the
    weight, in the steering's shape, with the multiplication count of N
    designs.
    """
    design, _ = _table_entry(name)
    s = ctx.steering
    m, k = len(s), r_hat.snapshots.shape[1]
    sizes = _sizes(m, ctx.rank)
    if name in ("lr-evd", "lr-krylov"):
        sizes["d"] = adaptive_rank(k, m)
    chunks = [ctx] if s.ndim == 1 else [
        replace(ctx, steering=s[:, i : i + STACK_CHUNK]) for i in range(0, s.shape[1], STACK_CHUNK)
    ]
    w = np.concatenate([design(chunk, r_hat, sizes) for chunk in chunks], axis=-1)
    return Design(w, s.size // m * multiplication_count(name, m, k_snapshots=k, **sizes))


def _make_context(cfg, target, spec) -> DesignContext:
    cov = scene.total_covariance(cfg)
    steering = scene.target_steering(cfg, target)
    xi = scene.target_power(cfg, target)
    prior = None
    if "ka-mvdr" in spec.algorithms:
        prior = bf.ka_prior(
            cfg, bf.PriorPerturbation(spec.prior_velocity_fraction, spec.prior_cnr_offset_db)
        )
    return DesignContext(cfg, cov, steering, xi, spec.rank, prior)


# experiment kind -> name of its runner in this module. Every runner takes
# (cfg, target, spec): the scene, the target, and an ExperimentSpec of the
# runner's kind, validated when it was built, which supplies the grid, the run
# counts, the rank and the seed. The name is looked up at call time, so that a
# wrapper installed on a runner sees every call.
RUNNERS = {
    "sinr-vs-snapshots": "run_sinr_vs_snapshots",
    "sinr-vs-doppler": "run_sinr_vs_doppler",
    "pd-vs-snr": "run_pd_vs_snr",
    "complexity": "run_complexity_sweep",
}


def _require_kind(spec, kind: str) -> None:
    if spec.kind != kind:
        raise ValueError(f"{RUNNERS[kind]} runs {kind!r} experiments, got kind {spec.kind!r}")


def _aggregate(kind, metric_label, algorithms, grid, samples, trials=None) -> ExperimentResult:
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
    curves, failures = {}, {}
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
        failures[name] = int((~ok).sum() if trials is None else (~ok).any(axis=1).sum())
    designs = runs * len(grid) if trials is None else runs
    return ExperimentResult(kind, metric_label, curves, failures, designs)


def _ascending(values, kind) -> tuple:
    """The one rule for every grid: ``values`` as ``kind``, sorted, each once."""
    return tuple(sorted({kind(v) for v in values}))


def _default_k_grid(k_max: int) -> tuple[int, ...]:
    grid = np.geomspace(max(8, min(10, k_max)), k_max, 10).round().astype(int)
    return tuple(int(k) for k in grid if k <= k_max)  # _ascending sorts and dedups


def _design_into(out: np.ndarray, name: str, ctx: DesignContext, r_hat) -> None:
    """Write algorithm ``name``'s weight into the NaN-filled ``out``. A design
    that raises leaves ``out`` NaN, which every scorer counts as a failed
    design. A stack that raises, because a column fails or because its
    columns cannot run in lockstep (Krylov chains or ``lr-jio`` pools that
    part), is designed again one column at a time, so only the columns that
    fail on their own stay NaN."""
    try:
        out[...] = design_algorithm(name, ctx, r_hat).w
    except (NumericalError, np.linalg.LinAlgError):
        if ctx.steering.ndim == 2:
            xi = np.broadcast_to(ctx.xi_t, ctx.steering.shape[1:])
            for n in range(ctx.steering.shape[1]):
                _design_into(out[:, n], name, replace(ctx, steering=ctx.steering[:, n], xi_t=xi[n]), r_hat)


def _designed(ctx: DesignContext, spec, runs: int, draw: int, points):
    """Every Monte-Carlo run's designs, as (run, point index, point context,
    weights, generator).

    Run r seeds its generator from (seed, r) and draws ``draw`` target-free
    snapshots. With ``points[g] = (context, K)``, point g designs every
    algorithm once on that context and on the sample covariance of the first
    K of the run's snapshots; the context's steering is one vector or an
    (M, N) stack, which one call designs whole. ``draw`` is fixed, as a
    shorter draw has other first columns; one estimate serves consecutive
    equal Ks. ``weights`` is (algorithms,) + the steering's shape: a design
    that raises leaves its weight NaN (a stack, each failing column; see
    :func:`_design_into`). The generator is yielded for a scorer that draws
    more from the run's stream.
    """
    for run in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, run)))
        block = scene.draw_interference_block(ctx.cov, draw, rng)
        r_hat = None
        for gi, (point_ctx, k) in enumerate(points):
            if r_hat is None or r_hat.snapshots.shape[1] != k:
                r_hat = None  # free the last estimate before building the next
                r_hat = scene.CovarianceSet.estimate(block[:, :k], spec.loading)
            weights = np.full((len(spec.algorithms),) + point_ctx.steering.shape, np.nan, dtype=complex)
            for ai, name in enumerate(spec.algorithms):
                _design_into(weights[ai], name, point_ctx, r_hat)
            yield run, gi, point_ctx, weights, rng
        block = r_hat = None  # free this run's data before the next draw


def _sinr_sweep(ctx: DesignContext, spec, draw: int, grid, points) -> ExperimentResult:
    """SINR curves over ``grid``, one point per entry of ``points`` (see
    :func:`_designed`), each covering as many grid entries as its steering
    has columns, the same number for every point. Each run's designs at a
    point are scored against the true covariance in one stacked call per
    algorithm."""
    algorithms, m = len(spec.algorithms), len(ctx.steering)
    samples = np.full((spec.runs, algorithms, len(points), len(grid) // len(points)), np.nan)
    for run, gi, point_ctx, weights, _ in _designed(ctx, spec, spec.runs, draw, points):
        s = point_ctx.steering.reshape(m, -1).T  # one row per grid entry
        xi = np.broadcast_to(point_ctx.xi_t, len(s))
        for ai, w in enumerate(weights):
            w = w.reshape(m, -1).T
            ok = np.isfinite(w).all(axis=-1)
            samples[run, ai, gi, ok] = sinr(w[ok], point_ctx.cov.matrix, s[ok], xi[ok])
    return _aggregate(spec.kind, "sinr_db", spec.algorithms, grid, samples.reshape(spec.runs, algorithms, -1))


def run_sinr_vs_snapshots(cfg: scene.RadarConfig, target: scene.TargetSpec, spec) -> ExperimentResult:
    """Output SINR (against the true covariance) as training size grows.

    Each run draws ``k_max`` target-free snapshots; every algorithm is
    designed on the first K of them for each K in the grid and scored
    against the true interference covariance. The optimal bound is available
    as the "optimal" algorithm and is K-independent by construction.
    """
    _require_kind(spec, "sinr-vs-snapshots")
    ctx = _make_context(cfg, target, spec)
    grid = _ascending(spec.k_grid or _default_k_grid(spec.k_max), int)
    return _sinr_sweep(ctx, spec, spec.k_max, grid, [(ctx, k) for k in grid])


def run_sinr_vs_doppler(cfg: scene.RadarConfig, target: scene.TargetSpec, spec) -> ExperimentResult:
    """Output SINR across target Doppler at a fixed training size.

    The training block (and hence the sample covariance) is Doppler-
    independent; only the steering vector moves across the grid, so every
    algorithm designs all the bins of a run in one call, on the (M, N) stack
    of their steering vectors. A deep clutter notch is expected where the
    target Doppler crosses the clutter ridge at the look angle.
    """
    _require_kind(spec, "sinr-vs-doppler")
    ctx = _make_context(cfg, target, spec)
    k_train = spec.effective_k_train()
    grid = tuple(float(f) for f in spec.doppler_grid())
    targets = [replace(target, doppler_hz=fd) for fd in grid]
    bins = replace(
        ctx,
        steering=np.column_stack([scene.target_steering(cfg, tgt) for tgt in targets]),
        xi_t=np.array([scene.target_power(cfg, tgt) for tgt in targets]),
    )
    return _sinr_sweep(ctx, spec, k_train, grid, [(bins, k_train)])


def run_pd_vs_snr(cfg: scene.RadarConfig, target: scene.TargetSpec, spec) -> ExperimentResult:
    """Empirical detection probability against per-element SNR.

    ``trials`` are split over ``designs`` independent design blocks; each block
    trains every algorithm once on target-free data, then scores shared
    target-present trials across the whole SNR grid (the draw is SNR- and
    algorithm-independent, only the deterministic amplitude scales).
    Thresholds use the exact target-free output power from the true
    covariance, so the detection statistic isolates filter quality.

    No snapshot is drawn for a trial: under Gaussian interference the outputs
    g = W^H x of a block's A weights (the columns of W) are jointly
    CN(0, W^H R W), so a trial draws g from that A x A law, through its
    principal square root, and one circular Gaussian target amplitude. A
    failed design's weight is zeroed for the draw and its counts are NaN.
    """
    _require_kind(spec, "pd-vs-snr")
    ctx = _make_context(cfg, target, spec)
    grid = _ascending(spec.snr_grid_db, float)
    amp = np.sqrt(cfg.noise_power * 10.0 ** (np.asarray(grid) / 10.0) * cfg.size)
    per_design = [spec.trials // spec.designs] * spec.designs
    per_design[0] += spec.trials - sum(per_design)

    def detections(wmat, rng, trials: int) -> np.ndarray:
        """Detection counts of each weight row at each SNR over ``trials``
        target-present trials from ``rng``; NaN for a failed design."""
        ok = np.isfinite(wmat).all(axis=1)
        w = np.where(ok[:, None], wmat, 0)
        outputs = scene.CovarianceSet(w.conj() @ ctx.cov.matrix @ w.T)
        thresholds = outputs.matrix.diagonal().real * math.log(1.0 / spec.pfa)
        gains = w.conj() @ ctx.steering
        counts = np.zeros((len(w), len(grid)), dtype=np.int64)
        chunk_size = 8192
        for start in range(0, trials, chunk_size):
            n = min(chunk_size, trials - start)
            g = scene.draw_interference_block(outputs, n, rng)  # (algorithms, n)
            t = gains[:, None] * linalg.complex_standard_normal(rng, n)  # target output at unit amplitude
            # |amp t + g|^2 > threshold, as a quadratic in amp
            quadratic = t.real**2 + t.imag**2
            linear = 2.0 * (t.real * g.real + t.imag * g.imag)
            constant = g.real**2 + g.imag**2 - thresholds[:, None]
            buf, term = np.empty_like(quadratic), np.empty_like(quadratic)
            for gi, a in enumerate(amp):  # a*a*quadratic + a*linear + constant, in place
                np.add(np.multiply(a * a, quadratic, out=buf), np.multiply(a, linear, out=term), out=buf)
                buf += constant
                counts[:, gi] += np.count_nonzero(buf > 0, axis=1)
        counts = counts.astype(float)
        counts[~ok] = np.nan  # a failed design
        return counts

    k_train = spec.effective_k_train()
    blocks = _designed(ctx, spec, spec.designs, k_train, [(ctx, k_train)])
    samples = [detections(wmat, rng, per_design[run]) for run, _, _, wmat, rng in blocks]
    return _aggregate(spec.kind, "pd", spec.algorithms, grid, samples, trials=np.asarray(per_design))


def run_complexity_sweep(cfg: scene.RadarConfig, target: scene.TargetSpec, spec) -> ExperimentResult:
    """Multiplication counts over ``m_grid`` for every algorithm but the
    clairvoyant ``optimal`` bound, with the training set scaled to the problem
    (K = M), which keeps the covariance-formation term commensurate with the
    solve terms across the grid. Every algorithm is charged at the sizes its
    designs run at (:func:`_sizes`), with ``lr-evd`` and ``lr-krylov`` at
    D = min(``rank``, M), the paper's model, not at their adaptive rank. The
    scene and the target are not used.
    """
    _require_kind(spec, "complexity")
    curves = {name: [] for name in spec.algorithms if name != "optimal"}
    for m in _ascending(spec.m_grid, int):
        sizes = _sizes(m, spec.rank)
        for name, points in curves.items():
            points.append(CurvePoint(m, multiplication_count(name, m, **sizes), 0.0, 1))
    return ExperimentResult(spec.kind, "multiplications", curves)
