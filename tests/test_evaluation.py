"""Metric, detection and experiment-runner tests."""

import contextlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import digamma

from stapbench import beamformers as bf
from stapbench import evaluation as ev
from stapbench import linalg, scene
from stapbench.config_io import ConfigError, ExperimentSpec, parse_config_text
from stapbench.linalg import NumericalError


def noise_only_cfg(**overrides):
    base = dict(num_sensors=2, num_pulses=2, cnr_db=None, jammers=())
    base.update(overrides)
    return scene.RadarConfig(**base)


class TestSinr:
    def test_matched_filter_in_white_noise(self):
        s = np.array([1.0, 0.0])
        # xi_t * M = 1
        assert ev.sinr(s, np.eye(2), s, xi_t=0.5) == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        r = np.diag([1.0, 2.0, 5.0])
        s = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        w = rng.normal(size=3) + 1j * rng.normal(size=3)
        base = ev.sinr(w, r, s, 1.0)
        for c in (2.0, -3.0, 1j, 0.25 - 0.33j):
            assert ev.sinr(c * w, r, s, 1.0) == pytest.approx(base, abs=1e-12)

    def test_mvdr_closed_form(self):
        r = np.diag([1.0, 2.0])
        s = np.array([1.0, 1.0]) / np.sqrt(2)
        w = bf.mvdr_weights(r, s)
        # optimal SINR with xi_t*M = 1 is s^H R^-1 s = 0.75
        assert ev.sinr(w, r, s, xi_t=0.5) == pytest.approx(10 * math.log10(0.75), abs=1e-10)

    def test_matched_filter_on_noise_only_scene(self):
        cfg = noise_only_cfg()
        cov = scene.total_covariance(cfg)
        s = scene.target_steering(cfg, scene.TargetSpec(0.0, 0.0, 0.0))
        assert ev.sinr(s, cov.matrix, s, 1.0 / cfg.size) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_weight_rejected(self):
        with pytest.raises(NumericalError):
            ev.sinr(np.zeros(2), np.eye(2), np.ones(2), 1.0)

    def test_nan_weight_rejected(self):
        with pytest.raises(NumericalError):
            ev.sinr(np.full(2, np.nan), np.eye(2), np.ones(2), 1.0)


class TestDetectionThreshold:
    def test_always_detect(self):
        assert ev.detection_threshold(np.ones(2), np.eye(2), 1.0) == pytest.approx(0.0)

    def test_unit_case(self):
        w = np.array([1.0, 0.0])
        assert ev.detection_threshold(w, np.eye(2), math.exp(-1)) == pytest.approx(1.0)

    def test_formula(self):
        w = np.array([np.sqrt(2.0), 0.0])  # mean output power 2
        expect = 2.0 * math.log(1e6)
        assert ev.detection_threshold(w, np.eye(2), 1e-6) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(27.631, abs=1e-3)


class TestPdAnalytic:
    def test_no_target_energy(self):
        assert ev.pd_analytic(0.0, 1e-3) == pytest.approx(1e-3)

    def test_formula(self):
        assert ev.pd_analytic(10.0, 1e-6) == pytest.approx(10 ** (-6.0 / 11.0), rel=1e-12)
        assert ev.pd_analytic(10.0, 1e-6) == pytest.approx(0.285, abs=5e-4)

    def test_asymptote(self):
        assert ev.pd_analytic(1e9, 1e-6) > 0.99998

    def test_monotone_in_sinr_and_pfa(self):
        grid = np.linspace(0.0, 50.0, 40)
        values = [ev.pd_analytic(v, 1e-4) for v in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        pfas = [1e-6, 1e-4, 1e-2, 1e-1]
        values = [ev.pd_analytic(5.0, p) for p in pfas]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestMultiplicationCount:
    def test_smi_hand_case(self):
        assert ev.multiplication_count("smi", 2, k_snapshots=1) == 18

    def test_nondecreasing_in_m(self):
        for name in ("smi", "lr-evd", "lr-krylov", "lr-jio", "lr-jidf", "sa-mvdr", "ka-mvdr"):
            counts = [
                ev.multiplication_count(name, m, d=6, b=8, i_len=8) for m in (16, 32, 64, 128)
            ]
            assert all(b > a for a, b in zip(counts, counts[1:])), name

    def test_jidf_below_smi_at_table_size(self):
        jidf = ev.multiplication_count("lr-jidf", 64, d=6, b=8, i_len=8, k_snapshots=800)
        smi = ev.multiplication_count("smi", 64, k_snapshots=800)
        assert jidf < smi

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            ev.multiplication_count("dft", 8)


@pytest.fixture(scope="module")
def small_design_context():
    cfg = scene.RadarConfig(
        num_sensors=4, num_pulses=4, cnr_db=30.0,
        jammers=(scene.JammerSpec(-30.0, 30.0),), clutter_patches=61,
    )
    ctx = ev._make_context(cfg, scene.TargetSpec(), ExperimentSpec())
    block = scene.draw_interference_block(ctx.cov, 40, np.random.default_rng(2))
    return ctx, scene.CovarianceSet.estimate(block, 0.01)


class TestDesignTable:
    @pytest.mark.parametrize("name", ev.ALGORITHMS)
    def test_every_algorithm_meets_the_design_contract(self, name, small_design_context):
        ctx, r_hat = small_design_context
        design = ev.design_algorithm(name, ctx, r_hat)
        assert abs(design.w.conj() @ ctx.steering - 1.0) <= 1e-8
        sizes = {
            "lr-evd": dict(d=ev.adaptive_rank(40, 16)),
            "lr-krylov": dict(d=ev.adaptive_rank(40, 16)),
            "lr-jio": dict(d=ctx.rank, iterations=ev.ITERATIONS),
            "lr-jidf": dict(
                d=ctx.rank, b=len(bf.decimation_pattern(16, ctx.rank, ev.BRANCHES)),
                i_len=ev.INTERP_LEN, iterations=ev.ITERATIONS,
            ),
            "sa-mvdr": dict(iterations=ev.ITERATIONS),
        }.get(name, {})
        assert design.multiplication_count == ev.multiplication_count(name, 16, k_snapshots=40, **sizes)
        _, _, spec = parse_config_text(f"[experiment]\nalgorithms = {name}\n")
        assert spec.algorithms == (name,)
        with pytest.raises(ConfigError, match="unknown algorithm"):
            parse_config_text(f"[experiment]\nalgorithms = {name}-x\n")

    def test_sa_mvdr_count_follows_iterations(self, small_design_context):
        # ITERATIONS is both the reweighting budget of the design and the
        # pass count its multiplication count charges, which is linear in it
        ctx, r_hat = small_design_context
        design = ev.design_algorithm("sa-mvdr", ctx, r_hat)
        per_pass = ev.multiplication_count("sa-mvdr", 16, k_snapshots=40, iterations=1)
        assert design.multiplication_count == ev.ITERATIONS * per_pass
        penalty = ev.SA_PENALTY * ctx.cfg.noise_power
        weights = {
            it: bf.sa_mvdr_weights(r_hat, ctx.steering, penalty, ev.SA_EPSILON, it)
            for it in (ev.ITERATIONS - 2, ev.ITERATIONS)
        }
        assert np.array_equal(design.w, weights[ev.ITERATIONS])
        assert np.abs(design.w - weights[ev.ITERATIONS - 2]).max() > 1e-6

    def test_lr_jidf_builds_its_decimation_pattern_at_most_twice(self, small_design_context, monkeypatch):
        # once for the usable branch count and once inside jidf_design; at
        # M = 16 and D = 6 only 5 of the 8 requested branches are usable
        ctx, r_hat = small_design_context
        shapes = []
        real_pattern = bf.decimation_pattern

        def recording_pattern(m, rank, branches):
            pattern = real_pattern(m, rank, branches)
            shapes.append(pattern.shape)
            return pattern

        monkeypatch.setattr(bf, "decimation_pattern", recording_pattern)
        ev.design_algorithm("lr-jidf", ctx, r_hat)
        assert 1 <= len(shapes) <= 2
        assert shapes[-1] == (5, 6)

    @pytest.mark.parametrize("k", (8, 40))
    def test_sa_mvdr_designs_at_the_configured_penalty(self, k, monkeypatch):
        # one design at SA_PENALTY noise powers: on a covariance not yet
        # factored, the unpenalized start and one factor per reweighting pass
        cfg = scene.RadarConfig(
            num_sensors=4, num_pulses=4, cnr_db=30.0, noise_power=2.0,
            jammers=(scene.JammerSpec(-30.0, 30.0),), clutter_patches=61,
        )
        ctx = ev._make_context(cfg, scene.TargetSpec(), ExperimentSpec())
        block = scene.draw_interference_block(ctx.cov, k, np.random.default_rng(2))
        expected = bf.sa_mvdr_weights(
            scene.CovarianceSet.estimate(block, 0.01), ctx.steering, 2.0, ev.SA_EPSILON, ev.ITERATIONS
        )
        factored, real_cholesky, real_solve = [], linalg.cholesky, linalg.hpd_solve

        def counting_cholesky(h):
            factored.append(h)
            return real_cholesky(h)

        def counting_solve(h, b):
            factored.append(h)
            return real_solve(h, b)

        monkeypatch.setattr(linalg, "cholesky", counting_cholesky)
        monkeypatch.setattr(linalg, "hpd_solve", counting_solve)
        w = ev.design_algorithm("sa-mvdr", ctx, scene.CovarianceSet.estimate(block, 0.01)).w
        monkeypatch.undo()
        assert np.array_equal(w, expected)
        assert len(factored) == ev.ITERATIONS + 1

    def test_unknown_name_rejected(self, small_design_context):
        ctx, r_hat = small_design_context
        with pytest.raises(ValueError, match="unknown algorithm"):
            ev.design_algorithm("dft", ctx, r_hat)


def _property_scene(seed: int):
    """A small random scene, its loading and its training size K in [M/2, 4M]."""
    rng = np.random.default_rng(seed)
    n, j = (int(v) for v in rng.integers(1, 5, size=2))
    jammers = tuple(
        scene.JammerSpec(float(rng.uniform(-80.0, 80.0)), float(rng.uniform(0.0, 40.0)))
        for _ in range(rng.integers(0, 3))
    )
    cnr = None if rng.random() < 0.2 else float(rng.uniform(0.0, 40.0))
    cfg = scene.RadarConfig(num_sensors=n, num_pulses=j, cnr_db=cnr, jammers=jammers, clutter_patches=61)
    tgt = scene.TargetSpec(float(rng.uniform(-30.0, 30.0)), float(rng.uniform(-150.0, 150.0)))
    loading = float(rng.choice((0.0, 0.01, 0.1)))
    m = n * j
    return cfg, tgt, loading, int(rng.integers(max(1, m // 2), 4 * m + 1))


class TestDesignProperties:
    # Cauchy-Schwarz bounds every weight's SINR by the clairvoyant one, and
    # every design scales its weight to w^H s = 1. Every design designs on
    # every property scene: a NumericalError fails the test, so a kernel
    # that wrongly reports a failed factor cannot hide here
    @pytest.mark.parametrize("seed", range(20))
    def test_bounded_by_optimal_and_distortionless(self, seed):
        cfg, tgt, loading, k = _property_scene(seed)
        ctx = ev._make_context(cfg, tgt, ExperimentSpec(loading=loading))
        block = scene.draw_interference_block(ctx.cov, k, np.random.default_rng(seed))
        r_hat = scene.CovarianceSet.estimate(block, loading)
        bound = ev.sinr(bf.mvdr_weights(ctx.cov, ctx.steering), ctx.cov.matrix, ctx.steering, ctx.xi_t)
        for name in ev.ALGORITHMS:
            w = ev.design_algorithm(name, ctx, r_hat).w
            assert ev.sinr(w, ctx.cov.matrix, ctx.steering, ctx.xi_t) <= bound + 1e-9, name
            assert abs(w.conj() @ ctx.steering - 1.0) <= 1e-8, name

    # Equivariances: how each design's weight must follow a transformed
    # input, to ||w' - f(w)|| <= 1e-9 ||w||; a NumericalError on either
    # side fails the test. sa-mvdr, lr-jio and lr-jidf
    # read the coordinates (the l1 reweighting, the identity columns of the
    # start basis, the decimation indices), so they are not
    # unitary-equivariant. lr-jidf is left out of the scale and phase
    # properties: on scene 16 (M = 9, K = 5) its interpolator systems have a
    # condition number of 6e9, and the last-bit rounding of the moved input
    # comes out of them as about 3e-8.
    SCALE_INVARIANT = ("optimal", "smi", "lr-evd", "lr-krylov", "lr-jio", "sa-mvdr", "ka-mvdr")
    PHASE_EQUIVARIANT = SCALE_INVARIANT
    UNITARY_EQUIVARIANT = ("optimal", "smi", "lr-evd", "lr-krylov", "ka-mvdr")

    @staticmethod
    def _scene_and_block(seed: int):
        cfg, tgt, loading, k = _property_scene(seed)
        spec = ExperimentSpec(loading=loading)
        ctx = ev._make_context(cfg, tgt, spec)
        block = scene.draw_interference_block(ctx.cov, k, np.random.default_rng(seed))
        return cfg, tgt, spec, ctx, block

    @staticmethod
    def _assert_follows(names, ctx, r_hat, moved_ctx, moved_r_hat, f):
        for name in names:
            w = ev.design_algorithm(name, ctx, r_hat).w
            moved = ev.design_algorithm(name, moved_ctx, moved_r_hat).w
            assert np.linalg.norm(moved - f(w)) <= 1e-9 * np.linalg.norm(w), name

    @pytest.mark.parametrize("seed", range(20))
    def test_noise_power_scale_leaves_the_weight(self, seed):
        # noise_power c*sigma scales every covariance and the prior by c and
        # the training block by sqrt(c); loading is scaled with them, and
        # sa-mvdr's penalty, SA_PENALTY noise powers, scales by itself
        cfg, tgt, spec, ctx, block = self._scene_and_block(seed)
        c = 100.0
        scaled_spec = replace(spec, loading=c * spec.loading)
        scaled_ctx = ev._make_context(replace(cfg, noise_power=c * cfg.noise_power), tgt, scaled_spec)
        self._assert_follows(
            self.SCALE_INVARIANT,
            ctx, scene.CovarianceSet.estimate(block, spec.loading),
            scaled_ctx, scene.CovarianceSet.estimate(math.sqrt(c) * block, scaled_spec.loading),
            lambda w: w,
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_steering_phase_carries_the_weight(self, seed):
        # s -> e^{j phi} s: w -> e^{j phi} w
        _, _, spec, ctx, block = self._scene_and_block(seed)
        phase = np.exp(0.7j)
        r_hat = scene.CovarianceSet.estimate(block, spec.loading)
        self._assert_follows(
            self.PHASE_EQUIVARIANT,
            ctx, r_hat,
            replace(ctx, steering=phase * ctx.steering), r_hat,
            lambda w: phase * w,
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_unitary_map_carries_the_weight(self, seed):
        # R -> U R U^H, s -> U s, block -> U block, prior -> U prior U^H: w -> U w
        _, _, spec, ctx, block = self._scene_and_block(seed)
        rng = np.random.default_rng(1000 + seed)
        m = ctx.steering.size
        u, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        rotated_ctx = replace(
            ctx,
            cov=scene.CovarianceSet(u @ ctx.cov.matrix @ u.conj().T),
            steering=u @ ctx.steering,
            prior=scene.CovarianceSet(u @ ctx.prior.matrix @ u.conj().T),
        )
        self._assert_follows(
            self.UNITARY_EQUIVARIANT,
            ctx, scene.CovarianceSet.estimate(block, spec.loading),
            rotated_ctx, scene.CovarianceSet.estimate(u @ block, spec.loading),
            lambda w: u @ w,
        )


class TestStackedDesigns:
    # a design on an (M, N) steering stack is N designs at N = 1, column by
    # column: every column goes through the same per-column products, solves
    # and accept rules as its own vector, so they agree to ||dw|| <= 1e-12 ||w||
    # (measured: bit for bit on all 20 scenes). Ten columns span two calls of
    # STACK_CHUNK columns
    DOPPLERS = (-140.0, -100.0, -60.0, -35.0, -10.0, 0.0, 25.0, 60.0, 110.0, 150.0)

    @staticmethod
    def _stack(cfg, tgt, ctx, dopplers):
        targets = [replace(tgt, doppler_hz=fd) for fd in dopplers]
        return replace(
            ctx,
            steering=np.column_stack([scene.target_steering(cfg, t) for t in targets]),
            xi_t=np.array([scene.target_power(cfg, t) for t in targets]),
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_stack_matches_designs_one_column_at_a_time(self, seed):
        cfg, tgt, loading, k = _property_scene(seed)
        ctx = ev._make_context(cfg, tgt, ExperimentSpec(loading=loading))
        block = scene.draw_interference_block(ctx.cov, k, np.random.default_rng(seed))
        r_hat = scene.CovarianceSet.estimate(block, loading)
        stacked = self._stack(cfg, tgt, ctx, self.DOPPLERS)
        assert len(self.DOPPLERS) > ev.STACK_CHUNK
        for name in ev.ALGORITHMS:
            design = ev.design_algorithm(name, stacked, r_hat)
            assert design.w.shape == stacked.steering.shape, name
            for n, s in enumerate(stacked.steering.T):
                single = ev.design_algorithm(name, replace(ctx, steering=s), r_hat)
                assert np.linalg.norm(design.w[:, n] - single.w) <= 1e-12 * np.linalg.norm(single.w), (name, n)
            assert design.multiplication_count == len(self.DOPPLERS) * single.multiplication_count, name

    def test_a_failing_column_fails_alone(self):
        # an all-zero steering column has no distortionless weight: the stacked
        # call raises, the run loop designs the stack again column by column,
        # and only that column is left NaN
        cfg = scene.RadarConfig(
            num_sensors=4, num_pulses=4, cnr_db=30.0,
            jammers=(scene.JammerSpec(-30.0, 30.0),), clutter_patches=61,
        )
        tgt = scene.TargetSpec()
        spec = ExperimentSpec(algorithms=ev.ALGORITHMS, runs=1, seed=6)
        ctx = ev._make_context(cfg, tgt, spec)
        stacked = self._stack(cfg, tgt, ctx, (-60.0, 0.0, 30.0, 90.0))
        stacked.steering[:, 2] = 0.0
        rng = np.random.default_rng(np.random.SeedSequence((6, 0)))
        r_hat = scene.CovarianceSet.estimate(scene.draw_interference_block(ctx.cov, 40, rng), spec.loading)
        with np.errstate(divide="ignore", invalid="ignore"):
            (_, _, _, weights, _), = ev._designed(ctx, spec, 1, 40, [(stacked, 40)])
        assert weights.shape == (len(ev.ALGORITHMS),) + stacked.steering.shape
        for ai, name in enumerate(ev.ALGORITHMS):
            assert np.isnan(weights[ai, :, 2]).all(), name
            for n in (0, 1, 3):
                single = ev.design_algorithm(name, replace(ctx, steering=stacked.steering[:, n]), r_hat)
                np.testing.assert_array_equal(weights[ai, :, n], single.w, err_msg=name)


    def test_a_stack_whose_jio_pools_part_is_designed_per_column(self):
        # at rank = M, the unit-vector column e0 finds the pool's identity
        # column e0 already spanned while the other columns take it: the
        # stacked design raises, and the run loop designs each column alone
        cfg = scene.RadarConfig(
            num_sensors=4, num_pulses=4, cnr_db=30.0,
            jammers=(scene.JammerSpec(-30.0, 30.0),), clutter_patches=61,
        )
        tgt = scene.TargetSpec()
        spec = ExperimentSpec(algorithms=("lr-jio",), rank=16)
        ctx = ev._make_context(cfg, tgt, spec)
        stacked = self._stack(cfg, tgt, ctx, (-60.0, 0.0, 30.0))
        stacked.steering[:, 1] = np.eye(16)[0]
        r_hat = scene.CovarianceSet.estimate(
            scene.draw_interference_block(ctx.cov, 40, np.random.default_rng(3)), spec.loading
        )
        with pytest.raises(NumericalError, match="different candidates"):
            bf.jio_design(r_hat, stacked.steering, 16, ev.ITERATIONS)
        out = np.full(stacked.steering.shape, np.nan, dtype=complex)
        ev._design_into(out, "lr-jio", stacked, r_hat)
        for n, s in enumerate(stacked.steering.T):
            single = bf.jio_design(r_hat, s, 16, ev.ITERATIONS)
            assert np.isfinite(single).all()
            assert np.array_equal(out[:, n], single), n


class TestAdaptiveRank:
    def test_budget_rule(self):
        assert ev.adaptive_rank(25, 64) == 6  # floor at the small-rank default
        assert ev.adaptive_rank(100, 64) == 20
        assert ev.adaptive_rank(200, 64) == 40
        assert ev.adaptive_rank(800, 64) == 64  # capped at the dimension


class TestRunnerTable:
    def test_runner_rejects_another_kind(self):
        for kind, runner in ev.RUNNERS.items():
            for other in ev.RUNNERS:
                if other != kind:
                    spec = ExperimentSpec(kind=other)
                    with pytest.raises(ValueError, match=f"{runner} runs '{kind}'"):
                        getattr(ev, runner)(scene.RadarConfig(), scene.TargetSpec(), spec)

    def test_every_grid_is_sorted_and_unique(self):
        common = dict(algorithms=("smi",), seed=1)
        for spec, expected in (
            (ExperimentSpec(k_max=16, k_grid=(16, 8, 16), runs=2, **common), [8, 16]),
            (ExperimentSpec(kind="pd-vs-snr", snr_grid_db=(5.0, 0.0, 5.0), k_train=8, trials=40,
                            designs=2, **common), [0.0, 5.0]),
            (ExperimentSpec(kind="complexity", m_grid=(64, 32, 64), **common), [32, 64]),
        ):
            result = getattr(ev, ev.RUNNERS[spec.kind])(noise_only_cfg(), scene.TargetSpec(), spec)
            assert [p.x for p in result.curves["smi"]] == expected, spec.kind


class TestSinrVsSnapshots:
    def test_optimal_bound_is_flat_and_dominant(self):
        cfg = scene.RadarConfig(
            num_sensors=3, num_pulses=2, cnr_db=30.0,
            jammers=(scene.JammerSpec(-20.0, 30.0),), clutter_patches=61,
        )
        spec = ExperimentSpec(
            algorithms=("optimal", "smi", "lr-jio"), k_max=48, runs=3, seed=5, k_grid=(12, 24, 48)
        )
        result = ev.run_sinr_vs_snapshots(cfg, scene.TargetSpec(), spec)
        optimal = [p.value for p in result.curves["optimal"]]
        assert max(optimal) - min(optimal) < 1e-9
        for name in ("smi", "lr-jio"):
            for p, bound in zip(result.curves[name], optimal):
                assert p.value <= bound + 1e-9

    def test_deterministic_given_seed(self):
        cfg = noise_only_cfg(num_sensors=2, num_pulses=2)
        spec = ExperimentSpec(algorithms=("smi",), k_max=16, runs=2, seed=9, k_grid=(8, 16))
        a = ev.run_sinr_vs_snapshots(cfg, scene.TargetSpec(), spec)
        b = ev.run_sinr_vs_snapshots(cfg, scene.TargetSpec(), spec)
        assert [p.value for p in a.curves["smi"]] == [p.value for p in b.curves["smi"]]

    def test_failure_accounting(self, monkeypatch):
        cfg = noise_only_cfg(num_sensors=2, num_pulses=2)
        real = ev.design_algorithm

        def flaky(name, ctx, r_hat):
            if name == "smi":
                raise NumericalError("injected failure")
            return real(name, ctx, r_hat)

        monkeypatch.setattr(ev, "design_algorithm", flaky)
        spec = ExperimentSpec(algorithms=("smi", "optimal"), k_max=8, runs=2, seed=1, k_grid=(8,))
        result = ev.run_sinr_vs_snapshots(cfg, scene.TargetSpec(), spec)
        assert result.failures["smi"] == 2
        assert result.failures["optimal"] == 0
        assert result.curves["smi"][0].count == 0
        assert result.curves["optimal"][0].count == 2
        pd_spec = ExperimentSpec(
            kind="pd-vs-snr", algorithms=("smi", "optimal"), snr_grid_db=(0.0, 10.0), k_train=8,
            trials=40, pfa=1e-2, seed=1, designs=4,
        )
        pd = ev.run_pd_vs_snr(cfg, scene.TargetSpec(), pd_spec)
        assert pd.failures == {"smi": 4, "optimal": 0}
        assert pd.designs == 4
        assert [p.count for p in pd.curves["smi"]] == [0, 0]
        assert all(math.isnan(p.value) for p in pd.curves["smi"])
        assert [p.count for p in pd.curves["optimal"]] == [40, 40]

    def test_nan_design_counts_as_failure(self, monkeypatch):
        cfg = noise_only_cfg(num_sensors=2, num_pulses=2)
        real = ev.design_algorithm

        def nan_design(name, ctx, r_hat):
            design = real(name, ctx, r_hat)
            if name == "ka-mvdr":
                design.w = np.full_like(design.w, np.nan)
            return design

        monkeypatch.setattr(ev, "design_algorithm", nan_design)
        spec = ExperimentSpec(algorithms=("ka-mvdr", "smi"), k_max=16, runs=2, seed=1, k_grid=(8, 16))
        result = ev.run_sinr_vs_snapshots(cfg, scene.TargetSpec(), spec)
        assert result.failures == {"ka-mvdr": 4, "smi": 0}
        assert [p.count for p in result.curves["ka-mvdr"]] == [0, 0]
        pd_spec = ExperimentSpec(
            kind="pd-vs-snr", algorithms=("ka-mvdr", "smi"), snr_grid_db=(0.0, 10.0), k_train=8,
            trials=40, pfa=1e-2, seed=1, designs=4,
        )
        pd = ev.run_pd_vs_snr(cfg, scene.TargetSpec(), pd_spec)
        assert pd.failures == {"ka-mvdr": 4, "smi": 0}
        assert [p.count for p in pd.curves["ka-mvdr"]] == [0, 0]
        assert [p.count for p in pd.curves["smi"]] == [40, 40]


    def test_designs_on_one_estimate_per_run_and_k(self, monkeypatch):
        # every (run, K) designs on CovarianceSet.estimate of the first K columns
        # of the run's k_max-column draw, factored and decomposed once; the grid
        # stops below k_max, so a draw sized to the grid would move every value;
        # the Pd sweep designs each block on one estimate of its own draw
        cfg = scene.RadarConfig(
            num_sensors=4, num_pulses=4, cnr_db=30.0,
            jammers=(scene.JammerSpec(-30.0, 30.0),), clutter_patches=61,
        )
        tgt = scene.TargetSpec()
        spec = ExperimentSpec(algorithms=ev.ALGORITHMS, k_max=40, k_grid=(8, 16, 24), runs=2, seed=6)
        pd_spec = ExperimentSpec(
            kind="pd-vs-snr", algorithms=ev.ALGORITHMS, snr_grid_db=(0.0, 10.0), k_train=24,
            trials=30, designs=3, seed=6,
        )
        real_design, real_cholesky, real_evd = ev.design_algorithm, linalg.cholesky, linalg.eigh_descending

        def recorded(runner, run_spec):
            r_hats, factored, decomposed = [], [], []

            def recording_design(name, ctx, r_hat):
                if not any(r_hat is seen for seen in r_hats):
                    r_hats.append(r_hat)
                return real_design(name, ctx, r_hat)

            def counting_cholesky(h):
                factored.append(h)
                return real_cholesky(h)

            def counting_evd(h):
                decomposed.append(h)
                return real_evd(h)

            monkeypatch.setattr(ev, "design_algorithm", recording_design)
            monkeypatch.setattr(linalg, "cholesky", counting_cholesky)
            monkeypatch.setattr(linalg, "eigh_descending", counting_evd)
            result = runner(cfg, tgt, run_spec)
            monkeypatch.undo()
            for r_hat in r_hats:
                assert sum(h is r_hat.matrix for h in factored) == 1
                assert sum(h is r_hat.matrix for h in decomposed) == 1
            return result, r_hats

        result, r_hats = recorded(ev.run_sinr_vs_snapshots, spec)
        assert len(r_hats) == 6
        _, pd_r_hats = recorded(ev.run_pd_vs_snr, pd_spec)
        assert len(pd_r_hats) == 3
        for block, r_hat in enumerate(pd_r_hats):
            rng = np.random.default_rng(np.random.SeedSequence((6, block)))
            drawn = scene.draw_interference_block(scene.total_covariance(cfg), 24, rng)
            np.testing.assert_array_equal(r_hat.snapshots, drawn)

        ctx = ev._make_context(cfg, tgt, spec)
        samples = np.full((2, len(ev.ALGORITHMS), 3), np.nan)
        for run in range(2):
            rng = np.random.default_rng(np.random.SeedSequence((6, run)))
            block = scene.draw_interference_block(ctx.cov, 40, rng)
            for gi, k in enumerate(spec.k_grid):
                fresh = scene.CovarianceSet.estimate(block[:, :k], spec.loading)
                for ai, name in enumerate(ev.ALGORITHMS):
                    with contextlib.suppress(NumericalError):
                        w = ev.design_algorithm(name, ctx, fresh).w
                        samples[run, ai, gi] = ev.sinr(w, ctx.cov.matrix, ctx.steering, ctx.xi_t)
        reference = ev._aggregate(spec.kind, "sinr_db", ev.ALGORITHMS, spec.k_grid, samples)
        assert list(result.rows()) == list(reference.rows())

class TestSmiLossLaw:
    def test_mean_db_loss_matches_rmb_law(self):
        # Reed, Mallett & Brennan (IEEE TAES 1974): unloaded SMI on K target-free
        # snapshots keeps a Beta(K-M+2, M-1) share of the optimal SINR, and the mean
        # of that share in dB is (10 / ln 10) * (psi(K-M+2) - psi(K+1)). The dB of
        # the mean share, 10*log10((K+2-M)/(K+1)), is a different number.
        cfg = scene.RadarConfig()
        m, runs = cfg.size, 400
        spec = ExperimentSpec(
            algorithms=("optimal", "smi"), k_max=400, runs=runs, k_grid=(80, 100, 200, 400), loading=0.0
        )
        result = ev.run_sinr_vs_snapshots(cfg, scene.TargetSpec(), spec)
        optimal = result.curves["optimal"][0].value
        for point in result.curves["smi"]:
            expect = 10.0 / math.log(10.0) * (digamma(point.x - m + 2) - digamma(point.x + 1))
            assert point.count == runs
            se = point.std / math.sqrt(runs)
            assert abs(point.value - optimal - expect) <= 3 * se, point.x

    def test_mean_db_loss_matches_rmb_law_in_every_doppler_bin(self):
        # the law holds for any steering vector, so every bin of a Doppler sweep
        # on one estimate per run follows it; optimal is run-independent, so the
        # spread of the loss is smi's. Over seeds 1-20 the worst |z| is 2.6
        cfg = scene.RadarConfig(num_sensors=4, num_pulses=4)
        m, k, runs = cfg.size, 32, 600
        spec = ExperimentSpec(
            kind="sinr-vs-doppler", algorithms=("optimal", "smi"), doppler_min_hz=-100.0,
            doppler_max_hz=100.0, doppler_step_hz=25.0, k_train=k, runs=runs, loading=0.0, seed=3,
        )
        result = ev.run_sinr_vs_doppler(cfg, scene.TargetSpec(), spec)
        expect = 10.0 / math.log(10.0) * (digamma(k - m + 2) - digamma(k + 1))
        assert len(result.curves["smi"]) == 9
        for point, best in zip(result.curves["smi"], result.curves["optimal"]):
            assert point.count == runs
            se = point.std / math.sqrt(runs)
            assert abs(point.value - best.value - expect) <= 3 * se, point.x


class TestReducedRankLossLaw:
    @pytest.mark.parametrize("d, k", [(16, 32), (16, 64), (32, 64), (8, 200)])
    def test_mean_sinr_ratio_matches_rmb_law_in_d_dimensions(self, d, k):
        # Through a data-independent (M, D) basis B, unloaded SMI on K
        # target-free snapshots keeps a Beta(K+2-D, D-1) share rho of the
        # subspace optimum s_D^H R_D^-1 s_D (R_D = B^H R B, s_D = B^H s): the
        # RMB law in D dimensions, with E[rho] = (K+2-D)/(K+1). jidf_design with
        # one branch and a one-tap interpolator is such a design, on the
        # selection basis of its decimation pattern.
        cfg = scene.RadarConfig()
        cov = scene.total_covariance(cfg)
        s = scene.target_steering(cfg, scene.TargetSpec())
        m, runs = cfg.size, 400
        rng = np.random.default_rng(1)
        fixed, _ = np.linalg.qr(rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d)))
        decimated = np.eye(m)[:, bf.decimation_pattern(m, d, 1)[0]]

        def share(w, basis):
            r_d, s_d = basis.conj().T @ cov.matrix @ basis, basis.conj().T @ s
            best = (s_d.conj() @ np.linalg.solve(r_d, s_d)).real
            return abs(w.conj() @ s) ** 2 / (w.conj() @ cov.matrix @ w).real / best

        shares = np.empty((runs, 2))
        for run in range(runs):
            r_hat = scene.sample_covariance(scene.draw_interference_block(cov, k, rng))
            shares[run] = (
                share(bf.lr_mvdr_weights(fixed, r_hat, s), fixed),
                share(bf.jidf_design(r_hat, s, 1, 1, d, 1), decimated),
            )
        law = (k + 2 - d) / (k + 1)
        se = shares.std(axis=0, ddof=1) / math.sqrt(runs)
        assert np.all(np.abs(shares.mean(axis=0) - law) <= 3 * se), (shares.mean(axis=0), se, law)


class TestSinrVsDoppler:
    def test_noise_only_curve_is_flat(self):
        cfg = noise_only_cfg(num_sensors=2, num_pulses=4, prf_hz=300.0)
        spec = ExperimentSpec(
            kind="sinr-vs-doppler", algorithms=("optimal",), doppler_min_hz=-100.0,
            doppler_max_hz=100.0, doppler_step_hz=25.0, k_train=32, runs=1, seed=3,
        )
        result = ev.run_sinr_vs_doppler(cfg, scene.TargetSpec(), spec)
        values = [p.value for p in result.curves["optimal"]]
        assert max(values) - min(values) < 1e-9

    def test_clutter_notch_at_ridge(self):
        spec = ExperimentSpec(
            kind="sinr-vs-doppler", algorithms=("optimal",), doppler_min_hz=-100.0,
            doppler_max_hz=100.0, doppler_step_hz=5.0, k_train=64, runs=1, seed=3,
        )
        result = ev.run_sinr_vs_doppler(scene.RadarConfig(), scene.TargetSpec(), spec)
        points = result.curves["optimal"]
        fds = [p.x for p in points]
        values = [p.value for p in points]
        assert abs(fds[int(np.argmin(values))]) <= 5.0

    def test_optimal_curve_symmetry(self):
        spec = ExperimentSpec(
            kind="sinr-vs-doppler", algorithms=("optimal",), doppler_min_hz=-100.0,
            doppler_max_hz=100.0, doppler_step_hz=5.0, k_train=64, runs=1, seed=4,
        )
        result = ev.run_sinr_vs_doppler(scene.RadarConfig(), scene.TargetSpec(), spec)
        values = [p.value for p in result.curves["optimal"]]
        for left, right in zip(values, values[::-1]):
            assert abs(left - right) <= 0.5

    def test_one_factor_and_one_evd_of_r_hat_per_run(self, monkeypatch):
        # every bin's designs share the run's prepared r_hat: one Cholesky
        # factor and one eigendecomposition of it, where a fresh covariance
        # per bin would make one of each per bin
        cfg = scene.RadarConfig(
            num_sensors=4, num_pulses=4, cnr_db=30.0,
            jammers=(scene.JammerSpec(-30.0, 30.0),), clutter_patches=61,
        )
        tgt = scene.TargetSpec()
        spec = ExperimentSpec(
            kind="sinr-vs-doppler", algorithms=ev.ALGORITHMS, doppler_min_hz=-100.0,
            doppler_max_hz=100.0, doppler_step_hz=50.0, k_train=40, runs=1, seed=6,
        )
        ctx = ev._make_context(cfg, tgt, spec)
        rng = np.random.default_rng(np.random.SeedSequence((6, 0)))
        block = scene.draw_interference_block(ctx.cov, 40, rng)
        r_hat = scene.sample_covariance(block, spec.loading)
        factored, decomposed = [], []
        real_cholesky, real_evd = linalg.cholesky, linalg.eigh_descending

        def counting_cholesky(h):
            factored.append(np.array_equal(h, r_hat))
            return real_cholesky(h)

        def counting_evd(h):
            decomposed.append(np.array_equal(h, r_hat))
            return real_evd(h)

        monkeypatch.setattr(linalg, "cholesky", counting_cholesky)
        monkeypatch.setattr(linalg, "eigh_descending", counting_evd)
        result = ev.run_sinr_vs_doppler(cfg, tgt, spec)
        monkeypatch.undo()
        assert sum(factored) == 1
        assert decomposed == [True]

        reference = []
        grid = [float(fd) for fd in spec.doppler_grid()]
        assert len(grid) == 5
        for name in ev.ALGORITHMS:
            for fd in grid:
                bin_tgt = replace(tgt, doppler_hz=fd)
                bin_ctx = replace(
                    ctx, steering=scene.target_steering(cfg, bin_tgt), xi_t=scene.target_power(cfg, bin_tgt)
                )
                fresh = scene.CovarianceSet.estimate(block, spec.loading)
                w = ev.design_algorithm(name, bin_ctx, fresh).w
                value = ev.sinr(w, ctx.cov.matrix, bin_ctx.steering, bin_ctx.xi_t)
                reference.append((name, fd, value, 0.0, 1))
        assert list(result.rows()) == reference

    SMALL_DOPPLER_CFG = scene.RadarConfig(
        num_sensors=4, num_pulses=4, cnr_db=30.0,
        jammers=(scene.JammerSpec(-30.0, 30.0),), clutter_patches=61,
    )
    SMALL_DOPPLER_SPEC = ExperimentSpec(
        kind="sinr-vs-doppler", algorithms=ev.ALGORITHMS, doppler_min_hz=-100.0,
        doppler_max_hz=100.0, doppler_step_hz=50.0, k_train=40, runs=2, seed=6,
    )

    def test_study_covariances_are_factored_once(self, monkeypatch):
        # the true covariance (optimal) lives for the whole study and is solved
        # through its own cached factor: one factor for 5 bins x 2 runs, and
        # no one-shot solve. The prior (ka-mvdr) lives as long but is only
        # blended with each run's estimate, so it is never factored or solved
        cfg, spec = self.SMALL_DOPPLER_CFG, self.SMALL_DOPPLER_SPEC
        ctx = ev._make_context(cfg, scene.TargetSpec(), spec)
        study = {"true": ctx.cov.matrix, "prior": ctx.prior.matrix}
        factored, solved = dict.fromkeys(study, 0), dict.fromkeys(study, 0)
        real_cholesky, real_solve = linalg.cholesky, linalg.hpd_solve

        def count(counts, h):
            for key, matrix in study.items():
                counts[key] += np.array_equal(h, matrix)

        def counting_cholesky(h):
            count(factored, h)
            return real_cholesky(h)

        def counting_solve(h, b):
            count(solved, h)
            return real_solve(h, b)

        monkeypatch.setattr(linalg, "cholesky", counting_cholesky)
        monkeypatch.setattr(linalg, "hpd_solve", counting_solve)
        result = ev.run_sinr_vs_doppler(cfg, scene.TargetSpec(), spec)
        assert len(result.curves["optimal"]) == 5
        assert factored == {"true": 1, "prior": 0}
        assert solved == {"true": 0, "prior": 0}

    def test_validates_each_covariance_once(self, monkeypatch):
        # the scene covariance, the prior and each run's estimate are checked
        # on construction, and nothing wraps a checked matrix again
        spec = self.SMALL_DOPPLER_SPEC
        assert "ka-mvdr" in spec.algorithms
        checked = []
        real_check = linalg.require_hermitian

        def counting_check(a, name="matrix"):
            checked.append(name)
            return real_check(a, name)

        monkeypatch.setattr(linalg, "require_hermitian", counting_check)
        ev.run_sinr_vs_doppler(self.SMALL_DOPPLER_CFG, scene.TargetSpec(), spec)
        assert len(checked) == 2 + spec.runs


SMALL_PD_SPEC = ExperimentSpec(
    kind="pd-vs-snr", algorithms=("optimal", "smi"), snr_grid_db=tuple(np.arange(-10.0, 21.0, 2.0)),
    k_train=24, trials=60_000, pfa=1e-2, seed=11, designs=6,
)


@pytest.fixture(scope="module")
def small_pd():
    cfg = scene.RadarConfig(
        num_sensors=3, num_pulses=2, cnr_db=20.0,
        jammers=(scene.JammerSpec(40.0, 20.0),), clutter_patches=61,
    )
    return cfg, ev.run_pd_vs_snr(cfg, scene.TargetSpec(), SMALL_PD_SPEC)


class TestPdVsSnr:
    def test_low_snr_matches_false_alarm_rate(self, small_pd):
        _, result = small_pd
        first = result.curves["optimal"][0]
        se = math.sqrt(1e-2 * (1 - 1e-2) / first.count)
        assert abs(first.value - 1e-2) <= 4 * se + 2e-3

    def test_pd_nondecreasing_within_noise(self, small_pd):
        _, result = small_pd
        for name in ("optimal", "smi"):
            values = [p.value for p in result.curves[name]]
            for a, b in zip(values, values[1:]):
                assert b >= a - 0.01

    def test_optimal_matches_analytic(self, small_pd):
        cfg, result = small_pd
        cov = scene.total_covariance(cfg)
        s = scene.target_steering(cfg, scene.TargetSpec())
        w = bf.mvdr_weights(cov.matrix, s)
        for point in result.curves["optimal"]:
            xi = cfg.noise_power * 10 ** (point.x / 10.0)
            sinr_lin = 10 ** (ev.sinr(w, cov.matrix, s, xi) / 10.0)
            expect = ev.pd_analytic(sinr_lin, 1e-2)
            se = math.sqrt(max(expect * (1 - expect), 1e-12) / point.count)
            assert abs(point.value - expect) <= 3 * se + 1e-3, point.x

    def test_deterministic(self, small_pd):
        cfg, result = small_pd
        again = ev.run_pd_vs_snr(cfg, scene.TargetSpec(), SMALL_PD_SPEC)
        assert [p.value for p in again.curves["smi"]] == [p.value for p in result.curves["smi"]]

    def test_algorithms_of_a_block_share_every_trial(self, small_pd, monkeypatch):
        # at M = 6 the adaptive rank is M, so lr-evd is smi, and a draw shared
        # by the algorithms of a block gives the two identical counts, while
        # independent draws differ by binomial noise; optimal differs from smi
        # by 21,049 counts summed over the grid, so the rows are not one draw copied
        cfg, _ = small_pd
        spec = replace(SMALL_PD_SPEC, algorithms=("smi", "lr-evd", "optimal"))
        result = ev.run_pd_vs_snr(cfg, scene.TargetSpec(), spec)
        counts = {
            name: np.array([round(p.value * p.count) for p in points]) for name, points in result.curves.items()
        }
        np.testing.assert_array_equal(counts["lr-evd"], counts["smi"])
        assert np.abs(counts["optimal"] - counts["smi"]).sum() > 100
        real = ev.design_algorithm
        calls = []

        def fails_in_the_first_block(name, ctx, r_hat):
            calls.append(name)
            if name == "lr-evd" and calls.count(name) == 1:
                raise NumericalError("injected failure")
            return real(name, ctx, r_hat)

        monkeypatch.setattr(ev, "design_algorithm", fails_in_the_first_block)
        failed = ev.run_pd_vs_snr(cfg, scene.TargetSpec(), spec)
        assert failed.failures == {"smi": 0, "lr-evd": 1, "optimal": 0}
        # the first block's lr-evd row is NaN: its 10,000 trials leave the pool
        assert {p.count for p in failed.curves["lr-evd"]} == {spec.trials - spec.trials // spec.designs}
        assert {p.count for p in failed.curves["smi"]} == {spec.trials}

    def test_every_algorithm_matches_its_per_block_closed_form(self, small_pd, monkeypatch):
        # given a block's weight w, the statistic |w^H x|^2 is exponential with
        # mean amp^2 |w^H s|^2 + w^H R w, so the block detects with probability
        # pfa^(1/(1+SINR(w))) and a point's expected rate is the trial-weighted
        # mean of that over the blocks; over seeds 1-20 the worst |z| is 3.3
        cfg, _ = small_pd
        tgt = scene.TargetSpec()
        spec = replace(SMALL_PD_SPEC, algorithms=ev.ALGORITHMS, k_train=12, trials=20_000, designs=5)
        ctx = ev._make_context(cfg, tgt, spec)
        weights = []
        real = ev.design_algorithm

        def recording(name, design_ctx, r_hat):
            design = real(name, design_ctx, r_hat)
            weights.append((name, design.w))
            return design

        monkeypatch.setattr(ev, "design_algorithm", recording)
        for seed in range(1, 21):
            weights.clear()
            result = ev.run_pd_vs_snr(cfg, tgt, replace(spec, seed=seed))
            assert result.failures == dict.fromkeys(ev.ALGORITHMS, 0)
            for name in ev.ALGORITHMS:
                blocks = [w for design, w in weights if design == name]
                assert len(blocks) == spec.designs
                for point in result.curves[name]:
                    xi = cfg.noise_power * 10 ** (point.x / 10.0)
                    # 4000 trials per block, so the trial weights are equal
                    expect = np.mean([
                        ev.pd_analytic(10 ** (ev.sinr(w, ctx.cov.matrix, ctx.steering, xi) / 10.0), spec.pfa)
                        for w in blocks
                    ])
                    se = math.sqrt(expect * (1 - expect) / point.count)
                    assert point.count == spec.trials
                    assert abs(point.value - expect) <= 4.5 * se, (seed, name, point.x)


    def test_scorer_thresholds_match_the_closed_form_threshold(self, small_pd, monkeypatch):
        # the scorer takes each row's threshold from the diagonal of the output
        # law W^H R W it draws from; each must be detection_threshold of that
        # row's weight against the true covariance
        cfg, _ = small_pd
        tgt = scene.TargetSpec()
        spec = replace(SMALL_PD_SPEC, algorithms=("optimal", "smi", "lr-jio"), trials=600, designs=3)
        ctx = ev._make_context(cfg, tgt, spec)
        laws, weights = [], []
        real_draw, real_design = scene.draw_interference_block, ev.design_algorithm

        def recording_draw(cov, n, rng):
            if cov.matrix.shape[0] == len(spec.algorithms):  # a detector-output law
                laws.append(cov.matrix)
            return real_draw(cov, n, rng)

        def recording_design(name, design_ctx, r_hat):
            design = real_design(name, design_ctx, r_hat)
            weights.append(design.w)
            return design

        monkeypatch.setattr(scene, "draw_interference_block", recording_draw)
        monkeypatch.setattr(ev, "design_algorithm", recording_design)
        ev.run_pd_vs_snr(cfg, tgt, spec)
        assert len(laws) == len(weights) // len(spec.algorithms) == spec.designs
        for block, law in enumerate(laws):
            thresholds = law.diagonal().real * math.log(1.0 / spec.pfa)
            rows = weights[block * len(spec.algorithms) : (block + 1) * len(spec.algorithms)]
            expect = [ev.detection_threshold(w, ctx.cov.matrix, spec.pfa) for w in rows]
            np.testing.assert_allclose(thresholds, expect, rtol=1e-12, atol=0)


class TestEmpiricalFalseAlarm:
    def test_threshold_calibration(self):
        # direct check of the square-law threshold at a testable rate
        cfg = scene.RadarConfig(
            num_sensors=2, num_pulses=2, cnr_db=10.0, jammers=(), clutter_patches=31
        )
        cov = scene.total_covariance(cfg)
        s = scene.target_steering(cfg, scene.TargetSpec(0.0, 60.0, 0.0))
        w = bf.mvdr_weights(cov.matrix, s)
        pfa = 1e-2
        threshold = ev.detection_threshold(w, cov.matrix, pfa)
        rng = np.random.default_rng(17)
        n = 1_000_000
        outputs = w.conj() @ scene.draw_interference_block(cov, n, rng)
        rate = float((np.abs(outputs) ** 2 > threshold).mean())
        se = math.sqrt(pfa * (1 - pfa) / n)
        assert abs(rate - pfa) <= 3 * se


def complexity_sweep(algorithms, m_grid):
    spec = ExperimentSpec(kind="complexity", algorithms=algorithms, m_grid=m_grid)
    return ev.run_complexity_sweep(scene.RadarConfig(), scene.TargetSpec(), spec)


class TestComplexitySweep:
    def test_row_counts(self):
        result = complexity_sweep(("smi", "lr-jidf"), m_grid=(32, 64))
        rows = list(result.rows())
        assert len(rows) == 4

    def test_fast_methods_below_cubic_methods(self):
        algorithms = ("smi", "lr-evd", "lr-krylov", "lr-jidf", "sa-mvdr", "ka-mvdr")
        result = complexity_sweep(algorithms, m_grid=(32, 64, 128, 256))
        by_alg = {
            name: [p.value for p in points]
            for name, points in result.curves.items()
        }
        for fast in ("lr-jidf", "lr-krylov"):
            for slow in ("smi", "lr-evd", "sa-mvdr", "ka-mvdr"):
                for cheap, costly in zip(by_alg[fast], by_alg[slow]):
                    assert cheap < costly, (fast, slow)

    def test_lr_jidf_is_charged_for_its_usable_branches(self):
        # at M = 64, D = 32 only 3 of the 8 branch patterns repeat no index,
        # and the design runs those 3: 3 * 5 * (64*8 + 32*64 + 32^3 + 8^3)
        spec = ExperimentSpec(kind="complexity", algorithms=("lr-jidf",), m_grid=(64,), rank=32)
        result = ev.run_complexity_sweep(scene.RadarConfig(), scene.TargetSpec(), spec)
        assert len(bf.decimation_pattern(64, 32, 8)) == 3
        assert result.curves["lr-jidf"][0].value == 537_600

    def test_sizes_are_clamped_to_m(self):
        # below D = rank and I = INTERP_LEN the designs run at D = I = M, and
        # so are they charged: at M = 4, lr-jidf keeps 1 branch,
        # 1 * 5 * (4*4 + 4*4^2 + 4^3 + 4^3), and lr-jio 5 * (4^2 + 4*4^2 + 4^3)
        result = complexity_sweep(("lr-jidf", "lr-jio"), m_grid=(4,))
        assert result.curves["lr-jidf"][0].value == 1_040
        assert result.curves["lr-jio"][0].value == 720

    def test_smi_scaling_is_cubic(self):
        result = complexity_sweep(("smi",), m_grid=(256, 512, 1024, 2048))
        counts = [p.value for p in result.curves["smi"]]
        ratios = [b / a for a, b in zip(counts, counts[1:])]
        assert all(abs(r - 8.0) < 0.6 for r in ratios)
