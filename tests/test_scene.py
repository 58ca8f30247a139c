"""Scene-synthesis tests: steering vectors, covariance models, snapshots."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import j0

from stapbench import linalg, scene

TABLE_CFG = scene.RadarConfig()


def small_cfg(**overrides):
    base = dict(
        num_sensors=3,
        num_pulses=2,
        cnr_db=20.0,
        jammers=(scene.JammerSpec(30.0, 20.0),),
        clutter_patches=45,
    )
    base.update(overrides)
    return scene.RadarConfig(**base)


class TestSteering:
    def test_spatial_zero_frequency(self):
        np.testing.assert_allclose(scene.spatial_steering(0.0, 4), np.ones(4))

    def test_spatial_half_cycle(self):
        np.testing.assert_allclose(scene.spatial_steering(0.5, 2), [1.0, -1.0], atol=1e-15)

    def test_spatial_quarter_cycle(self):
        np.testing.assert_allclose(
            scene.spatial_steering(0.25, 4), [1.0, -1j, -1.0, 1j], atol=1e-15
        )

    def test_temporal_zero_and_integer(self):
        np.testing.assert_allclose(scene.temporal_steering(0.0, 5), np.ones(5))
        np.testing.assert_allclose(scene.temporal_steering(1.0, 5), np.ones(5), atol=1e-12)

    def test_temporal_third(self):
        out = scene.temporal_steering(1.0 / 3.0, 3)
        expect = np.exp(-2j * np.pi * np.arange(3) / 3.0)
        np.testing.assert_allclose(out, expect, atol=1e-15)

    def test_unit_modulus(self):
        np.testing.assert_allclose(np.abs(scene.spatial_steering(0.37, 9)), 1.0, atol=1e-15)

    def test_target_single_element(self):
        cfg = scene.RadarConfig(num_sensors=1, num_pulses=1, jammers=())
        s = scene.target_steering(cfg, scene.TargetSpec(0.0, 0.0, 0.0))
        np.testing.assert_allclose(s, [1.0])

    def test_target_boresight_zero_doppler(self):
        s = scene.target_steering(TABLE_CFG, scene.TargetSpec(0.0, 0.0, 0.0))
        np.testing.assert_allclose(s, np.full(64, 1.0 / 8.0), atol=1e-15)

    def test_target_kron_layout(self):
        # spatial frequency 0.5 with two sensors and two pulses at zero Doppler
        s = scene.space_time_steering(0.5, 0.0, 2, 2)
        np.testing.assert_allclose(s, [0.5, 0.5, -0.5, -0.5], atol=1e-15)

    def test_aliased_doppler_warns_but_returns(self):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            s = scene.target_steering(TABLE_CFG, scene.TargetSpec(0.0, 200.0, 10.0))
        assert len(caught) == 1 and "alias" in str(caught[0].message)
        assert abs(np.linalg.norm(s) - 1.0) < 1e-12

    def test_target_unit_norm_and_kron_consistency(self):
        tgt = scene.TargetSpec(17.0, 73.0, 10.0)
        s = scene.target_steering(TABLE_CFG, tgt)
        assert abs(np.linalg.norm(s) - 1.0) < 1e-12
        b = scene.spatial_steering(TABLE_CFG.spatial_frequency(17.0), 8)
        a = scene.temporal_steering(73.0 / 300.0, 8)
        np.testing.assert_allclose(s, np.kron(b, a) / 8.0, atol=1e-14)


class TestClutterCovariance:
    def test_single_patch_is_rank_one_at_broadside(self):
        cfg = scene.RadarConfig(
            num_sensors=2, num_pulses=2, cnr_db=0.0, jammers=(), clutter_patches=1
        )
        rc = scene.clutter_covariance(cfg)
        # one patch at broadside: zero spatial and Doppler frequency, and the
        # trace normalization at 0 dB puts the patch power at exactly one
        u = np.ones(4)
        np.testing.assert_allclose(rc, np.outer(u, u), atol=1e-12)
        assert abs(np.trace(rc).real / 4.0 - 1.0) < 1e-12
        vals = np.linalg.eigvalsh(rc)
        assert (vals > 1e-10 * vals.max()).sum() == 1

    def test_hermitian(self):
        rc = scene.clutter_covariance(TABLE_CFG)
        assert np.abs(rc - rc.conj().T).max() <= 1e-12 * np.abs(rc).max()

    def test_trace_normalization(self):
        rc = scene.clutter_covariance(TABLE_CFG)
        target = TABLE_CFG.noise_power * 10.0 ** (TABLE_CFG.cnr_db / 10.0)
        assert abs(np.trace(rc).real / TABLE_CFG.size - target) <= 1e-9 * target

    def test_table_scene_eigencount_regression(self):
        # ridge slope ~1.501 puts the -60 dB eigencount at 23 for this scene
        rc = scene.clutter_covariance(TABLE_CFG)
        vals = np.linalg.eigvalsh(rc)
        count = int((vals > 1e-6 * vals.max()).sum())
        assert count == 23

    @pytest.mark.parametrize(
        "overrides",
        (
            {},
            {"num_sensors": 5},
            {"num_pulses": 11},
            {"platform_velocity_mps": 30.0},  # beta 0.60
            {"platform_velocity_mps": 150.0},  # beta 3.00
            {"element_spacing_m": 0.8 * TABLE_CFG.wavelength_m},
            {"element_spacing_m": 0.3 * TABLE_CFG.wavelength_m},
            {"cnr_db": 25.0, "noise_power": 2.0},
            {"clutter_patches": 45},  # the fewest that meet the bound on this scene
            {"clutter_patches": 91},
            {"clutter_patches": 721},
        ),
    )
    def test_matches_the_continuous_ring(self, overrides):
        # the patches sample azimuth on a midpoint grid, which converges
        # geometrically to the continuous ring P_c J0(2 pi (d/lambda)(dn + beta dj))
        # for sensor lag dn and pulse lag dj (index n*J + j)
        cfg = replace(TABLE_CFG, **overrides)
        n, j = np.arange(cfg.num_sensors), np.arange(cfg.num_pulses)
        lag_n = (n[:, None] - n)[:, None, :, None]
        lag_j = (j[:, None] - j)[None, :, None, :]
        x = 2.0 * np.pi * cfg.spacing_m / cfg.wavelength_m * (lag_n + cfg.clutter_slope * lag_j)
        power = cfg.noise_power * 10.0 ** (cfg.cnr_db / 10.0)
        ring = power * j0(x).reshape(cfg.size, cfg.size)
        assert np.abs(scene.clutter_covariance(cfg) - ring).max() <= 1e-12 * power

    def test_disabled_clutter(self):
        cfg = scene.RadarConfig(cnr_db=None)
        np.testing.assert_allclose(scene.clutter_covariance(cfg), 0.0)

    def test_psd(self):
        vals = np.linalg.eigvalsh(scene.clutter_covariance(small_cfg()))
        assert vals.min() >= -1e-10 * vals.max()


class TestJammerCovariance:
    def test_no_jammers(self):
        np.testing.assert_allclose(scene.jammer_covariance(small_cfg(jammers=())), 0.0)

    def test_broadside_single_jammer(self):
        cfg = scene.RadarConfig(
            num_sensors=2, num_pulses=1, jammers=(scene.JammerSpec(0.0, 0.0),), cnr_db=None
        )
        np.testing.assert_allclose(scene.jammer_covariance(cfg), np.ones((2, 2)), atol=1e-12)
        # white across pulses: entry (n*J + j, n'*J + j') is 1 when j == j', else 0
        cfg = replace(cfg, num_pulses=2)
        expect = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]])
        np.testing.assert_allclose(scene.jammer_covariance(cfg), expect, atol=1e-12)

    def test_table_scene_rank(self):
        rj = scene.jammer_covariance(TABLE_CFG)
        vals = np.linalg.eigvalsh(rj)
        assert (vals > 1e-6 * vals.max()).sum() == 2 * TABLE_CFG.num_pulses

    def test_azimuth_validation(self):
        with pytest.raises(ValueError):
            scene.JammerSpec(120.0, 30.0)


class TestTotalCovariance:
    def test_noise_only_scene(self):
        cfg = scene.RadarConfig(cnr_db=None, jammers=())
        cov = scene.total_covariance(cfg)
        np.testing.assert_allclose(cov.matrix, np.eye(64), atol=1e-14)

    def test_sum_and_floor(self):
        cov = scene.total_covariance(TABLE_CFG)
        parts = (
            scene.clutter_covariance(TABLE_CFG)
            + scene.jammer_covariance(TABLE_CFG)
            + scene.noise_covariance(TABLE_CFG)
        )
        np.testing.assert_allclose(cov.matrix, parts, atol=1e-12)
        assert np.linalg.eigvalsh(cov.matrix).min() >= TABLE_CFG.noise_power * (1 - 1e-10)

    def test_table_trace_regression(self):
        cov = scene.total_covariance(TABLE_CFG)
        # noise 1 + clutter 1e4 + one unit-modulus outer product per jammer
        expect = 1.0 + 1e4 + 2 * 1e4
        assert abs(np.trace(cov.matrix).real / 64 - expect) < 1e-6 * expect


class TestSnapshots:
    def test_zero_covariance_draw(self):
        cov = scene.CovarianceSet(np.zeros((2, 2)))
        block = scene.draw_interference_block(cov, 1, np.random.default_rng(0))
        assert block.shape == (2, 1)
        np.testing.assert_allclose(block, 0.0)

    def test_interference_block_covariance(self):
        cfg = small_cfg()
        cov = scene.total_covariance(cfg)
        rng = np.random.default_rng(7)
        n = 100_000
        block = scene.draw_interference_block(cov, n, rng)
        emp = block @ block.conj().T / n
        scale = np.sqrt(np.outer(np.diag(cov.matrix).real, np.diag(cov.matrix).real))
        assert np.all(np.abs(emp - cov.matrix) <= 3.0 * 2.0 * scale / np.sqrt(n))


class TestSampleCovariance:
    def test_single_snapshot_outer_product(self):
        est = scene.sample_covariance(np.array([[1.0], [1j]]), 0.0)
        np.testing.assert_allclose(est, [[1.0, -1j], [1j, 1.0]], atol=1e-14)

    def test_loading_only(self):
        est = scene.sample_covariance(np.zeros((3, 2)), 0.01)
        np.testing.assert_allclose(est, 0.01 * np.eye(3), atol=1e-15)

    def test_orthogonal_unit_columns(self):
        np.testing.assert_allclose(scene.sample_covariance(np.eye(2), 0.0), np.eye(2) / 2)

    def test_law_of_large_numbers_white(self):
        rng = np.random.default_rng(9)
        block = linalg.complex_standard_normal(rng, (3, 10_000))
        est = scene.sample_covariance(block, 0.0)
        np.testing.assert_allclose(np.diag(est).real, 1.0, rtol=0.05)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            scene.sample_covariance([], 0.0)


class TestConfigValidation:
    def test_m_and_slope(self):
        assert TABLE_CFG.size == 64
        assert abs(TABLE_CFG.clutter_slope - 1.501) < 1e-3
        assert abs(TABLE_CFG.wavelength_m - 0.6662) < 1e-4

    def test_invalid_counts(self):
        with pytest.raises(ValueError, match="num_sensors"):
            scene.RadarConfig(num_sensors=0)
        with pytest.raises(ValueError, match="clutter_patches"):
            scene.RadarConfig(clutter_patches=0)
