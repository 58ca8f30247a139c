"""Configuration parsing, validation and round-trip tests."""

import pytest

from stapbench import scene
from stapbench.config_io import (
    ConfigError,
    ExperimentSpec,
    parse_config,
    parse_config_text,
    serialize_config,
)


class TestDefaults:
    def test_empty_text_gives_standard_scene(self):
        cfg, target, spec = parse_config_text("")
        assert cfg.num_sensors == 8
        assert cfg.num_pulses == 8
        assert cfg.carrier_frequency_hz == 450e6
        assert cfg.prf_hz == 300.0
        assert cfg.platform_velocity_mps == 75.0
        assert cfg.platform_height_m == 9000.0
        assert cfg.cnr_db == 40.0
        assert [(j.azimuth_deg, j.jnr_db) for j in cfg.jammers] == [(-45.0, 40.0), (60.0, 40.0)]
        assert target == scene.TargetSpec()
        assert spec.kind == "sinr-vs-snapshots"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg, _, _ = parse_config(path)
        assert cfg == scene.RadarConfig()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.cfg")


class TestParsing:
    def test_scene_overrides(self):
        cfg, _, _ = parse_config_text("num_sensors = 4\nprf_hz = 600\ncnr_db = none\n")
        assert cfg.num_sensors == 4
        assert cfg.prf_hz == 600.0
        assert cfg.cnr_db is None

    def test_jammer_sections_replace_defaults(self):
        text = "[jammer]\nazimuth_deg = 10\njnr_db = 25\n[jammer]\nazimuth_deg = -10\njnr_db = 30\n"
        cfg, _, _ = parse_config_text(text)
        assert [(j.azimuth_deg, j.jnr_db) for j in cfg.jammers] == [(10.0, 25.0), (-10.0, 30.0)]

    def test_jammers_none_clears(self):
        cfg, _, _ = parse_config_text("jammers = none\n")
        assert cfg.jammers == ()

    def test_target_section(self):
        _, target, _ = parse_config_text("[target]\nazimuth_deg = 5\ndoppler_hz = 50\nsnr_db = 3\n")
        assert target == scene.TargetSpec(5.0, 50.0, 3.0)

    def test_experiment_section(self):
        text = (
            "[experiment]\nkind = pd-vs-snr\nalgorithms = smi, optimal\n"
            "trials = 5000\npfa = 0.01\nsnr_grid_db = -2, 0, 2\n"
        )
        _, _, spec = parse_config_text(text)
        assert spec.kind == "pd-vs-snr"
        assert spec.algorithms == ("smi", "optimal")
        assert spec.trials == 5000
        assert spec.snr_grid_db == (-2.0, 0.0, 2.0)

    def test_comments_and_blank_lines(self):
        cfg, _, _ = parse_config_text("# scene\n\nnum_sensors = 5  # five\n")
        assert cfg.num_sensors == 5


class TestValidation:
    def test_invalid_field_names_offender(self):
        with pytest.raises(ConfigError, match="num_sensors"):
            parse_config_text("num_sensors = 0\n")

    def test_unknown_scene_key(self):
        with pytest.raises(ConfigError, match="antenna_gain"):
            parse_config_text("antenna_gain = 3\n")

    def test_unknown_experiment_key(self):
        with pytest.raises(ConfigError, match="speed"):
            parse_config_text("[experiment]\nspeed = fast\n")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config_text("num_sensors = 8\n\nthis is not a key value\n")

    def test_type_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("num_sensors = eight\n")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config_text("[experiment]\nkind = roc\n")

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError, match="fft"):
            parse_config_text("[experiment]\nalgorithms = smi, fft\n")

    def test_incomplete_jammer(self):
        with pytest.raises(ConfigError, match="jnr_db"):
            parse_config_text("[jammer]\nazimuth_deg = 10\n")


class TestRoundTrip:
    def test_defaults_round_trip(self):
        cfg, target, spec = parse_config_text("")
        text = serialize_config(cfg, target, spec)
        cfg2, target2, spec2 = parse_config_text(text)
        assert cfg == cfg2
        assert target == target2
        assert spec == spec2

    def test_custom_round_trip(self):
        cfg = scene.RadarConfig(
            num_sensors=4,
            num_pulses=6,
            cnr_db=None,
            jammers=(scene.JammerSpec(12.5, 31.0),),
            master_seed=77,
        )
        target = scene.TargetSpec(1.0, -42.0, 7.5)
        spec = ExperimentSpec(kind="complexity", algorithms=("smi",), m_grid=(16, 32))
        text = serialize_config(cfg, target, spec)
        cfg2, target2, spec2 = parse_config_text(text)
        assert cfg == cfg2
        assert target == target2
        assert spec == spec2

    def test_no_jammers_round_trip(self):
        cfg = scene.RadarConfig(jammers=())
        text = serialize_config(cfg, scene.TargetSpec(), ExperimentSpec())
        cfg2, _, _ = parse_config_text(text)
        assert cfg2.jammers == ()


class TestReadmeExample:
    def test_documented_config_parses(self):
        import re
        from pathlib import Path

        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = re.search(r"```ini\n(.*?)```", readme.read_text(), re.S).group(1)
        cfg, target, spec = parse_config_text(block)
        assert cfg.num_sensors == 8
        assert spec.kind == "sinr-vs-snapshots"
        assert spec.k_grid == (25, 50, 100, 200, 400, 800)


class TestExperimentSpec:
    def test_doppler_grid(self):
        spec = ExperimentSpec(doppler_min_hz=-10, doppler_max_hz=10, doppler_step_hz=5)
        assert spec.doppler_grid() == (-10.0, -5.0, 0.0, 5.0, 10.0)

    def test_k_train_defaults_per_kind(self):
        assert ExperimentSpec(kind="sinr-vs-doppler").effective_k_train() == 100
        assert ExperimentSpec(kind="pd-vs-snr").effective_k_train() == 200
        assert ExperimentSpec(kind="pd-vs-snr", k_train=64).effective_k_train() == 64

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(runs=0)
        with pytest.raises(ConfigError):
            ExperimentSpec(pfa=0.0)
        with pytest.raises(ConfigError):
            ExperimentSpec(algorithms=())
        for key, text in (
            ("k_grid", "[experiment]\nk_grid = 0, 10\n"),
            ("k_train", "[experiment]\nk_train = 0\n"),
            ("loading", "[experiment]\nloading = -0.01\n"),
            ("loading", "[experiment]\nloading = nan\n"),
            ("failure_budget", "[experiment]\nfailure_budget = 1.5\n"),
            ("failure_budget", "[experiment]\nfailure_budget = -0.1\n"),
            ("cnr_db", "cnr_db = nan\n"),
            ("prf_hz", "prf_hz = inf\n"),
            ("jnr_db", "[jammer]\nazimuth_deg = 10\njnr_db = nan\n"),
            ("snr_db", "[target]\nsnr_db = -inf\n"),
            ("evd_rank", "num_sensors = 2\nnum_pulses = 2\n[experiment]\nevd_rank = 5\n"),
            ("krylov_rank", "[experiment]\nkrylov_rank = 65\n"),
            ("k_grid", "[experiment]\nk_max = 100\nk_grid = 50, 101\n"),
            ("k_max", "[experiment]\nk_max = 0\n"),
            ("doppler_min_hz", "[experiment]\ndoppler_min_hz = 50\ndoppler_max_hz = -50\n"),
            ("m_grid", "[experiment]\nm_grid = 0, 64\n"),
            ("sa_epsilon", "[experiment]\nsa_epsilon = nan\n"),
            ("doppler_step_hz", "[experiment]\ndoppler_step_hz = nan\n"),
            ("doppler_max_hz", "[experiment]\ndoppler_max_hz = inf\n"),
            ("ka_alpha", "[experiment]\nka_alpha = nan\n"),
            ("prior_velocity_fraction", "[experiment]\nprior_velocity_fraction = -inf\n"),
            ("snr_grid_db", "[experiment]\nsnr_grid_db = 0, nan\n"),
            ("rank", "[experiment]\nrank = 0\n"),
            ("branches", "[experiment]\nbranches = 0\n"),
            ("interp_len", "[experiment]\ninterp_len = 0\n"),
            ("iterations", "[experiment]\niterations = 0\n"),
            ("evd_selection", "[experiment]\nevd_selection = bogus\n"),
            ("ka_mode", "[experiment]\nka_mode = bogus\n"),
            ("sa_penalty", "[experiment]\nsa_penalty = -1\n"),
            ("sa_epsilon", "[experiment]\nsa_epsilon = 0\n"),
            ("ka_alpha", "[experiment]\nka_alpha = -0.5\n"),
            ("ka_eta", "[experiment]\nka_eta = 5\n"),
            ("seed", "[experiment]\nseed = -1\n"),
            ("master_seed", "master_seed = -5\n"),
        ):
            with pytest.raises(ConfigError, match=key):
                parse_config_text(text)
