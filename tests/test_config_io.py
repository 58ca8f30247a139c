"""Configuration parsing, validation and round-trip tests."""

import re
from pathlib import Path

import pytest

from stapbench import cli, scene
from stapbench import evaluation as ev
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
        # each [jammer] section is a section of its own, so both set the same keys
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

    def test_a_key_set_twice_in_one_section_is_rejected(self):
        for key, line, text in (
            ("num_sensors", 3, "num_sensors = 4\nprf_hz = 600\nnum_sensors = 6\n"),
            ("runs", 3, "[experiment]\nruns = 2\nruns = 5\n"),
            ("snr_db", 5, "[target]\nsnr_db = 3\n[experiment]\n[target]\nsnr_db = 4\n"),
        ):
            with pytest.raises(ConfigError, match=f"line {line}: .*'{key}' is set twice"):
                parse_config_text(text)

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
        )
        target = scene.TargetSpec(1.0, -42.0, 7.5)
        spec = ExperimentSpec(kind="complexity", algorithms=("smi",), m_grid=(16, 32), seed=77)
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


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadmeExample:
    @staticmethod
    def _ini_block():
        return re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)

    def test_documented_config_parses(self):
        cfg, target, spec = parse_config_text(self._ini_block())
        assert cfg.num_sensors == 8
        assert spec.kind == "sinr-vs-snapshots"
        assert spec.k_grid == (25, 50, 100, 200, 400, 800)

    def test_experiment_block_and_stated_constants_match_the_code(self):
        # the example's [experiment] block parses alone, so it names no key
        # the parser lacks, and every constant the README states with its
        # value carries that value in the code
        experiment = "[experiment]" + self._ini_block().split("[experiment]", 1)[1]
        _, _, spec = parse_config_text(experiment)
        assert spec.runs == 100 and spec.rank == ev.DEFAULT_RANK
        stated = dict(re.findall(r"`([A-Z_]+) = ([0-9.]+)`", README.read_text()))
        constants = ("ITERATIONS", "BRANCHES", "INTERP_LEN", "SA_PENALTY", "SA_EPSILON")
        code = {name: getattr(ev, name) for name in constants} | {"FAILURE_BUDGET": cli.FAILURE_BUDGET}
        assert {name: float(value) for name, value in stated.items()} == code


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
            ("doppler_step_hz", "[experiment]\ndoppler_step_hz = nan\n"),
            ("doppler_max_hz", "[experiment]\ndoppler_max_hz = inf\n"),
            ("ka_alpha", "[experiment]\nka_alpha = nan\n"),
            ("prior_velocity_fraction", "[experiment]\nprior_velocity_fraction = -inf\n"),
            ("snr_grid_db", "[experiment]\nsnr_grid_db = 0, nan\n"),
            ("rank", "[experiment]\nrank = 0\n"),
            ("evd_selection", "[experiment]\nevd_selection = bogus\n"),
            ("ka_mode", "[experiment]\nka_mode = bogus\n"),
            ("ka_mode", "[experiment]\nka_mode = fixed_eta\n"),
            ("ka_mode", "[experiment]\nka_mode = optimal_eta\n"),
            ("ka_alpha", "[experiment]\nka_alpha = -0.5\n"),
            ("ka_eta", "[experiment]\nka_eta = 5\n"),
            ("seed", "[experiment]\nseed = -1\n"),
            ("seed", "[experiment]\nseed = none\n"),
            ("master_seed", "master_seed = -5\n"),
            ("master_seed", "master_seed = 1234\n"),
            ("trials.*designs", "[experiment]\nkind = pd-vs-snr\ntrials = 3\ndesigns = 20\n"),
            ("k_grid", "[experiment]\nk_max = 16\nk_grid =\n"),
            ("algorithms", "[experiment]\nkind = complexity\nalgorithms = optimal\n"),
            ("algorithms", "[experiment]\nkind = complexity\nalgorithms = optimal, optimal\n"),
            ("algorithms.*'smi' twice", "[experiment]\nalgorithms = smi, smi, optimal\n"),
            # design constants, not keys: rejected by name even at their fixed values
            ("unknown experiment key 'iterations'", "[experiment]\niterations = 5\n"),
            ("unknown experiment key 'branches'", "[experiment]\nbranches = 8\n"),
            ("unknown experiment key 'interp_len'", "[experiment]\ninterp_len = 8\n"),
            ("unknown experiment key 'sa_penalty'", "[experiment]\nsa_penalty = 1.0\n"),
            ("unknown experiment key 'sa_epsilon'", "[experiment]\nsa_epsilon = 0.1\n"),
            ("unknown experiment key 'failure_budget'", "[experiment]\nfailure_budget = 0.01\n"),
        ):
            with pytest.raises(ConfigError, match=key):
                parse_config_text(text)
