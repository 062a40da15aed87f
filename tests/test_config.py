"""Tests for the INI config layer: layering, validation, manifests."""

import configparser
import dataclasses

import pytest

from deskrl import config as cfg_mod
from deskrl.bc import BCConfig
from deskrl.envs import N_POINTS, make_config
from deskrl.errors import ConfigError
from deskrl.ppo import PPOConfig
from deskrl.twostage import GridSpec, ScalePair


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestDefaults:
    def test_all_sections_present(self):
        resolved = cfg_mod.resolve_config(None, [])
        assert sorted(resolved) == ["bc", "demos", "eval", "export", "grid", "ppo", "run", "twostage"]

    def test_ppo_defaults_match_dataclass(self):
        resolved = cfg_mod.resolve_config(None, [])
        built = cfg_mod.ppo_config(resolved)
        assert built == PPOConfig()

    def test_bc_defaults_match_dataclass(self):
        resolved = cfg_mod.resolve_config(None, [])
        built = cfg_mod.bc_config(resolved)
        assert built == BCConfig()

    def test_run_defaults(self):
        run = cfg_mod.resolve_config(None, [])["run"]
        assert run == {"task": "reach2d", "split": "train", "env_seed": 0, "horizon": None, "n_points": None}

    def test_grid_defaults_match_dataclass(self):
        resolved = cfg_mod.resolve_config(None, [])
        built = cfg_mod.grid_spec(resolved, fallback_seed=0)
        assert built == GridSpec()

    def test_missing_file_named_in_error(self, tmp_path):
        missing = str(tmp_path / "absent.ini")
        with pytest.raises(ConfigError, match="absent.ini"):
            cfg_mod.resolve_config(missing, [])


class TestFileLayer:
    def test_file_values_override_defaults(self, tmp_path):
        path = write_ini(tmp_path, "[ppo]\ngamma = 0.9\n\n[run]\ntask = pushbox2d\n")
        resolved = cfg_mod.resolve_config(path, [])
        assert resolved["ppo"]["gamma"] == 0.9
        assert resolved["run"]["task"] == "pushbox2d"
        # untouched keys keep their defaults
        assert resolved["ppo"]["clip_eps"] == PPOConfig().clip_eps

    def test_empty_file_keeps_defaults(self, tmp_path):
        path = write_ini(tmp_path, "")
        assert cfg_mod.resolve_config(path, []) == cfg_mod.resolve_config(None, [])

    def test_unknown_section_rejected(self, tmp_path):
        path = write_ini(tmp_path, "[rocket]\nthrust = 9\n")
        with pytest.raises(ConfigError, match=r"\[rocket\]"):
            cfg_mod.resolve_config(path, [])

    def test_unknown_key_rejected(self, tmp_path):
        path = write_ini(tmp_path, "[ppo]\nwarmup = 3\n")
        with pytest.raises(ConfigError, match="warmup"):
            cfg_mod.resolve_config(path, [])

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_ini(tmp_path, "[ppo]\ngamma = 0.9\ngamma = 0.8\n")
        with pytest.raises(ConfigError, match="gamma"):
            cfg_mod.resolve_config(path, [])

    def test_bad_value_names_dotted_key(self, tmp_path):
        path = write_ini(tmp_path, "[ppo]\ngamma = fast\n")
        with pytest.raises(ConfigError, match="ppo.gamma"):
            cfg_mod.resolve_config(path, [])

    def test_meta_section_ignored(self, tmp_path):
        # a manifest fed back in as --config must not trip the section check
        path = write_ini(tmp_path, "[meta]\ncommand = train\nseed = 3\n\n[ppo]\ngamma = 0.9\n")
        resolved = cfg_mod.resolve_config(path, [])
        assert resolved["ppo"]["gamma"] == 0.9
        assert "meta" not in resolved


class TestOverrides:
    def test_override_wins_over_file(self, tmp_path):
        path = write_ini(tmp_path, "[ppo]\ngamma = 0.9\n")
        resolved = cfg_mod.resolve_config(path, ["ppo.gamma=0.5"])
        assert resolved["ppo"]["gamma"] == 0.5

    @pytest.mark.parametrize("item", ["ppo.gamma", "gamma=0.5", "=0.5", "ppo=0.5"])
    def test_malformed_override_rejected(self, item):
        with pytest.raises(ConfigError):
            cfg_mod.resolve_config(None, [item])

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError, match="ppo.warmup"):
            cfg_mod.resolve_config(None, ["ppo.warmup=3"])

    def test_unknown_override_section_rejected(self):
        with pytest.raises(ConfigError, match=r"\[rocket\]"):
            cfg_mod.resolve_config(None, ["rocket.thrust=9"])

    def test_bad_override_value_rejected(self):
        with pytest.raises(ConfigError, match="ppo.epochs"):
            cfg_mod.resolve_config(None, ["ppo.epochs=two"])

    @pytest.mark.parametrize(
        "raw,expected",
        [("true", True), ("yes", True), ("1", True), ("false", False), ("no", False), ("0", False)],
    )
    def test_bool_spellings(self, raw, expected):
        resolved = cfg_mod.resolve_config(None, [f"ppo.normalize_advantages={raw}"])
        assert resolved["ppo"]["normalize_advantages"] is expected

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError, match="normalize_advantages"):
            cfg_mod.resolve_config(None, ["ppo.normalize_advantages=maybe"])

    @pytest.mark.parametrize("raw", ["1,2,3", "1, 2, 3", "1 2 3"])
    def test_int_list_spellings(self, raw):
        resolved = cfg_mod.resolve_config(None, [f"grid.seeds={raw}"])
        assert resolved["grid"]["seeds"] == (1, 2, 3)

    def test_float_list(self):
        resolved = cfg_mod.resolve_config(None, ["grid.alphas=0.9,0.7"])
        assert resolved["grid"]["alphas"] == (0.9, 0.7)


class TestBuilders:
    def test_env_config_task_defaults(self):
        resolved = cfg_mod.resolve_config(None, ["run.task=gather2d"])
        env = cfg_mod.env_config(resolved)
        assert env == make_config("gather2d")

    def test_env_config_explicit_overrides(self):
        resolved = cfg_mod.resolve_config(
            None, ["run.task=reach2d", "run.horizon=40", "run.split=test"]
        )
        env = cfg_mod.env_config(resolved)
        assert (env.horizon, env.split) == (40, "test")

    def test_env_config_rejects_unsupported_point_count(self):
        resolved = cfg_mod.resolve_config(None, ["run.n_points=32"])
        with pytest.raises(ConfigError):
            cfg_mod.env_config(resolved)

    def test_env_config_accepts_the_fixed_point_count(self):
        # the key stays so that manifests, which write it, load as configs
        resolved = cfg_mod.resolve_config(None, [f"run.n_points={N_POINTS}"])
        assert cfg_mod.env_config(resolved) == make_config("reach2d")

    def test_env_config_bad_task_rejected(self):
        resolved = cfg_mod.resolve_config(None, ["run.task=fly3d"])
        with pytest.raises(ConfigError):
            cfg_mod.env_config(resolved)

    def test_ppo_config_reflects_overrides(self):
        resolved = cfg_mod.resolve_config(None, ["ppo.minibatch_size=128", "ppo.epochs=2"])
        built = cfg_mod.ppo_config(resolved)
        assert built == dataclasses.replace(PPOConfig(), minibatch_size=128, epochs=2)

    def test_bc_config_excludes_demos_path(self):
        resolved = cfg_mod.resolve_config(None, ["bc.demos=/tmp/somewhere.bin"])
        built = cfg_mod.bc_config(resolved)
        assert not hasattr(built, "demos")
        assert built == BCConfig()

    def test_grid_spec_seed_fallback(self):
        resolved = cfg_mod.resolve_config(None, [])
        assert cfg_mod.grid_spec(resolved, fallback_seed=7).seeds == (7,)

    def test_grid_spec_explicit_seeds_win(self):
        resolved = cfg_mod.resolve_config(None, ["grid.seeds=1,2"])
        assert cfg_mod.grid_spec(resolved, fallback_seed=7).seeds == (1, 2)

    def test_scale_pair(self):
        resolved = cfg_mod.resolve_config(None, ["twostage.alpha=0.8", "twostage.beta=0.75"])
        assert cfg_mod.scale_pair(resolved) == ScalePair(0.8, 0.75)

    def test_invalid_built_config_raises_config_error(self):
        # validation in the dataclass fires when the builder constructs it
        resolved = cfg_mod.resolve_config(None, ["ppo.gamma=1.5"])
        with pytest.raises(ConfigError):
            cfg_mod.ppo_config(resolved)


class TestManifest:
    def test_manifest_written_with_meta(self, tmp_path):
        resolved = cfg_mod.resolve_config(None, ["run.task=gather2d"])
        path = cfg_mod.write_manifest(str(tmp_path), "train", 3, resolved)
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(path)
        assert parser["meta"]["command"] == "train"
        assert parser["meta"]["seed"] == "3"
        assert parser["meta"]["version"]
        assert parser["run"]["task"] == "gather2d"

    def test_manifest_materializes_env_defaults(self, tmp_path):
        # horizon/n_points are blank in the resolved dict but concrete on disk
        resolved = cfg_mod.resolve_config(None, ["run.task=gather2d"])
        path = cfg_mod.write_manifest(str(tmp_path), "train", 0, resolved)
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(path)
        expected = make_config("gather2d")
        assert int(parser["run"]["horizon"]) == expected.horizon
        assert int(parser["run"]["n_points"]) == N_POINTS

    def test_manifest_deterministic(self, tmp_path):
        resolved = cfg_mod.resolve_config(None, [])
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        pa = cfg_mod.write_manifest(str(a), "train", 0, resolved)
        pb = cfg_mod.write_manifest(str(b), "train", 0, resolved)
        assert open(pa, "rb").read() == open(pb, "rb").read()

    def test_manifest_round_trips_as_config(self, tmp_path):
        resolved = cfg_mod.resolve_config(None, ["ppo.minibatch_size=128", "grid.seeds=4,5"])
        path = cfg_mod.write_manifest(str(tmp_path), "grid", 4, resolved)
        reread = cfg_mod.resolve_config(path, [])
        assert reread["ppo"]["minibatch_size"] == 128
        assert reread["grid"]["seeds"] == (4, 5)
        assert reread["run"]["task"] == resolved["run"]["task"]
