"""Config parsing, unit enforcement, canonical form, and hashing."""

import json

import pytest

from qfall.config import (RunConfig, build_components, canonical_text,
                          config_dict, config_hash, parse_config)
from qfall.errors import ConfigError
from qfall.freefall import GridSpec

EV = 1.602176634e-19


class TestDefaults:
    def test_empty_document_is_reference_setup(self):
        cfg = parse_config("")
        assert cfg.frequency == 20e3
        assert cfg.detachment_energy == pytest.approx(10e-6 * EV, rel=1e-15)
        assert cfg.polarization == (0.0, 1.0, 0.0)
        assert cfg.kick_velocity == 0.0
        assert cfg.release_height == 10e-6
        assert cfg.travel_distance == 50e-3
        assert cfg.fall_height == 0.3
        assert cfg.g == 9.81
        assert cfg.n_max == 1000
        assert cfg.likelihood == "conditional"

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("\n# full comment\nphysics.g = 9.8 m/s2  # note\n")
        assert cfg.g == 9.8


class TestUnits:
    @pytest.mark.parametrize("text,value", [
        ("geometry.release_height = 10 um", 10e-6),
        ("geometry.release_height = 0.01 mm", 10e-6),
        ("geometry.release_height = 1e-5 m", 10e-6),
        ("geometry.release_height = 1000 nm", 1e-6),
    ])
    def test_length_suffixes(self, text, value):
        assert parse_config(text).release_height == pytest.approx(
            value, rel=1e-15)

    def test_frequency_energy_velocity(self):
        cfg = parse_config("source.frequency = 20 kHz\n"
                           "source.detachment_energy = 10 ueV\n")
        assert cfg.frequency == 20e3
        assert cfg.detachment_energy == pytest.approx(10e-6 * EV, rel=1e-15)
        cfg = parse_config("source.detachment_energy = 0 eV\n"
                           "source.kick_velocity = 90 cm/s\n")
        assert cfg.kick_velocity == pytest.approx(0.9, rel=1e-15)

    def test_missing_unit_names_key_and_line(self):
        with pytest.raises(ConfigError, match="line 2.*release_height"):
            parse_config("# top\ngeometry.release_height = 10\n")

    def test_wrong_dimension_unit_rejected(self):
        with pytest.raises(ConfigError, match="not a length unit"):
            parse_config("geometry.release_height = 10 ms")

    def test_dimensionless_key_rejects_unit(self):
        with pytest.raises(ConfigError, match="bare number"):
            parse_config("physics.n_max = 50 m")


class TestValidation:
    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 1.*unknown key"):
            parse_config("physics.mass = 1")
        # the Fisher score is the node interpolant's derivative: no step
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("inference.delta_rel = 5e-5")
        # the window pads are fixed constants of the map, not options
        for key in ("grid.horizontal_sigmas", "grid.vertical_pad_scales"):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config("%s = 4" % key)
        # one time weight for every map, not an option
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("freefall.jacobian = T")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="already set on line 1"):
            parse_config("physics.g = 9.81 m/s2\nphysics.g = 9.8 m/s2\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just words")

    def test_integer_keys_reject_fractions(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config("physics.n_max = 10.5")

    def test_exclusive_recoil_variants(self):
        with pytest.raises(ConfigError, match="exclusive"):
            parse_config("source.detachment_energy = 10 ueV\n"
                         "source.kick_velocity = 1 m/s\n")

    def test_positivity(self):
        with pytest.raises(ConfigError, match="fall_height"):
            parse_config("geometry.fall_height = -1 m")
        with pytest.raises(ConfigError, match="rel_window"):
            parse_config("inference.rel_window = 1")
        with pytest.raises(ConfigError, match="finite"):
            parse_config("physics.g = inf m/s2")
        # a spread needs two replicates
        assert parse_config("inference.n_replicates = 2").n_replicates == 2
        with pytest.raises(ConfigError, match="n_replicates"):
            parse_config("inference.n_replicates = 1")

    def test_enum_values(self):
        assert parse_config("inference.likelihood = unconditional"
                            ).likelihood == "unconditional"
        with pytest.raises(ConfigError, match="likelihood"):
            parse_config("inference.likelihood = profile")

    def test_scan_count_checked_before_compute(self):
        assert parse_config("inference.n_scan = 5").n_scan == 5
        for bad in ("4", "3", "0", "42"):
            with pytest.raises(ConfigError, match="n_scan"):
                parse_config("inference.n_scan = %s" % bad)

    def test_grid_checked_before_compute(self):
        assert parse_config("grid.z_samples = 2").z_samples == 2.0
        for bad in ("grid.z_samples = 0.1", "grid.z_samples = 0",
                    "grid.fringe_samples = 1", "grid.t_nodes = 4",
                    "grid.fringe_samples = nan", "grid.z_samples = inf"):
            with pytest.raises(ConfigError):
                parse_config(bad)
        assert parse_config("grid.n_polar = 2").n_polar == 2
        for bad in ("1", "0", "-3"):
            with pytest.raises(ConfigError, match="n_polar"):
                parse_config("grid.n_polar = %s" % bad)

    def test_polarization_forms(self):
        assert parse_config("source.polarization = z").polarization == (
            0.0, 0.0, 1.0)
        cfg = parse_config("source.polarization = 0, 1, 1")
        assert cfg.polarization == (0.0, 1.0, 1.0)
        with pytest.raises(ConfigError, match="polarization"):
            parse_config("source.polarization = 0,1")
        with pytest.raises(ConfigError, match="nonzero"):
            parse_config("source.polarization = 0,0,0")


class TestCanonicalForm:
    def test_roundtrip_is_exact(self):
        cfg = parse_config("geometry.release_height = 12.5 um\n"
                           "physics.g = 9.8123 m/s2\n"
                           "inference.seed = 77\n")
        again = parse_config(canonical_text(cfg))
        assert again == cfg

    def test_hash_normalizes_layout(self):
        a = parse_config("physics.g = 9.8 m/s2\n"
                         "geometry.release_height = 10 um\n")
        b = parse_config("# same physics, different layout\n"
                         "geometry.release_height = 10 um\n\n"
                         "physics.g = 9.8 m/s2\n")
        assert config_hash(a) == config_hash(b)
        c = parse_config("geometry.release_height = 11 um")
        assert config_hash(a) != config_hash(c)
        # hashing is idempotent through the canonical form
        assert config_hash(parse_config(canonical_text(a))) == config_hash(a)

    def test_canonical_lines_sorted(self):
        lines = canonical_text(RunConfig()).strip().splitlines()
        assert lines == sorted(lines)
        assert all(" = " in line for line in lines)

    def test_dict_is_json_ready(self):
        text = json.dumps(config_dict(RunConfig()), sort_keys=True)
        assert "polarization" in text


class TestComponents:
    def test_wiring(self):
        cfg = parse_config("source.frequency = 40 kHz\n"
                           "geometry.fall_height = 0.5 m\n")
        trap, pd, geom, _ = build_components(cfg)
        assert trap.frequency == 40e3
        assert pd.dipolar
        assert geom.fall_height == 0.5
        assert build_components(RunConfig())[3] == GridSpec()

    def test_kick_variant_wiring(self):
        cfg = parse_config("source.detachment_energy = 0 eV\n"
                           "source.kick_velocity = 0.9 m/s\n")
        _, pd, _, _ = build_components(cfg)
        assert not pd.dipolar
        assert pd.recoil_velocity == pytest.approx(0.9, rel=1e-15)
