"""Metric, detection and experiment-runner tests."""

import math

import numpy as np
import pytest
from scipy.special import digamma

from stapbench import beamformers as bf
from stapbench import evaluation as ev
from stapbench import scene
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

    def test_accepts_covariance_set(self):
        cfg = noise_only_cfg()
        cov = scene.total_covariance(cfg)
        s = scene.target_steering(cfg, scene.TargetSpec(0.0, 0.0, 0.0))
        assert ev.sinr(s, cov, s, 1.0 / cfg.size) == pytest.approx(0.0, abs=1e-12)

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
    return ctx, scene.sample_covariance(block, 0.01), block


class TestDesignTable:
    @pytest.mark.parametrize("name", ev.ALGORITHMS)
    def test_every_algorithm_meets_the_design_contract(self, name, small_design_context):
        ctx, r_hat, block = small_design_context
        w = ev.design_algorithm(name, ctx, r_hat, block)
        assert w.algorithm == name
        assert abs(w.w.conj() @ ctx.steering - 1.0) <= 1e-8
        p = ctx.params
        sizes = {
            "lr-evd": dict(d=ev.adaptive_rank(40, 16)),
            "lr-krylov": dict(d=ev.adaptive_rank(40, 16)),
            "lr-jio": dict(d=p.rank, iterations=p.iterations),
            "lr-jidf": dict(
                d=p.rank, b=bf.valid_branch_count(16, p.rank, p.branches),
                i_len=p.interp_len, iterations=p.iterations,
            ),
        }.get(name, {})
        assert w.multiplication_count == ev.multiplication_count(name, 16, k_snapshots=40, **sizes)
        _, _, spec = parse_config_text(f"[experiment]\nalgorithms = {name}\n")
        assert spec.algorithms == (name,)
        with pytest.raises(ConfigError, match="unknown algorithm"):
            parse_config_text(f"[experiment]\nalgorithms = {name}-x\n")

    def test_unknown_name_rejected(self, small_design_context):
        ctx, r_hat, block = small_design_context
        with pytest.raises(ValueError, match="unknown algorithm"):
            ev.design_algorithm("dft", ctx, r_hat, block)


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

        def flaky(name, ctx, r_hat, block):
            if name == "smi":
                raise NumericalError("injected failure")
            return real(name, ctx, r_hat, block)

        monkeypatch.setattr(ev, "design_algorithm", flaky)
        spec = ExperimentSpec(algorithms=("smi", "optimal"), k_max=8, runs=2, seed=1, k_grid=(8,))
        result = ev.run_sinr_vs_snapshots(cfg, scene.TargetSpec(), spec)
        assert result.failures["smi"] == 2
        assert result.failures["optimal"] == 0
        assert result.curves["smi"][0].count == 0
        assert result.curves["optimal"][0].count == 2

    def test_nan_design_counts_as_failure(self, monkeypatch):
        cfg = noise_only_cfg(num_sensors=2, num_pulses=2)
        real = ev.design_algorithm

        def nan_design(name, ctx, r_hat, block):
            w = real(name, ctx, r_hat, block)
            if name == "ka-mvdr":
                w.w = np.full_like(w.w, np.nan)
            return w

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
        w = bf.mvdr_weights(cov.r_total, s)
        for point in result.curves["optimal"]:
            xi = cfg.noise_power * 10 ** (point.x / 10.0)
            sinr_lin = 10 ** (ev.sinr(w, cov, s, xi) / 10.0)
            expect = ev.pd_analytic(sinr_lin, 1e-2)
            se = math.sqrt(max(expect * (1 - expect), 1e-12) / point.count)
            assert abs(point.value - expect) <= 3 * se + 1e-3, point.x

    def test_deterministic(self, small_pd):
        cfg, result = small_pd
        again = ev.run_pd_vs_snr(cfg, scene.TargetSpec(), SMALL_PD_SPEC)
        assert [p.value for p in again.curves["smi"]] == [p.value for p in result.curves["smi"]]


class TestEmpiricalFalseAlarm:
    def test_threshold_calibration(self):
        # direct check of the square-law threshold at a testable rate
        cfg = scene.RadarConfig(
            num_sensors=2, num_pulses=2, cnr_db=10.0, jammers=(), clutter_patches=31
        )
        cov = scene.total_covariance(cfg)
        s = scene.target_steering(cfg, scene.TargetSpec(0.0, 60.0, 0.0))
        w = bf.mvdr_weights(cov.r_total, s)
        pfa = 1e-2
        threshold = ev.detection_threshold(w, cov, pfa)
        rng = np.random.default_rng(17)
        n = 1_000_000
        outputs = w.w.conj() @ scene.draw_interference_block(cov, n, rng)
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

    def test_smi_scaling_is_cubic(self):
        result = complexity_sweep(("smi",), m_grid=(256, 512, 1024, 2048))
        counts = [p.value for p in result.curves["smi"]]
        ratios = [b / a for a, b in zip(counts, counts[1:])]
        assert all(abs(r - 8.0) < 0.6 for r in ratios)
