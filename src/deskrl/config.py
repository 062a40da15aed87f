"""Sectioned key=value run configuration and the reproducibility manifest.

A run is described by an INI-style file with one section per module
([run], [ppo], [bc], [demos], [twostage], [grid], [eval], [export]).
Every key has a documented default, an absent file means all defaults,
and --set section.key=value overrides win over file values.  After
resolution the full picture, defaults included, is written to the run
directory as manifest.ini so the run is reproducible from its artifacts
alone.

What some keys reach:
- run.split is read only by gen-demos, where it picks the split the
  expert records; train forces the train split (train_ppo), train-bc
  never reads it, and every evaluation, deskrl eval's too, measures both.
- eval.split picks only the rate deskrl eval prints; eval-metrics.csv
  records both.
- twostage.stage1_steps and stage2_steps, and the grid's budgets, count
  the trainer's own steps: environment steps for PPO, outer steps for
  BC.  Their defaults are sized for PPO, so a BC two-stage run at
  defaults may run 40 960 outer steps, 20x bc.total_steps.
- grid.base_batch and grid.base_samples replace the trainer section's
  batch size and samples per step on every grid leg; two-stage uses the
  trainer section's values.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import os
from typing import Any, Callable, get_type_hints

from . import __version__
from .bc import BCConfig
from .envs import N_POINTS, EnvConfig, make_config
from .errors import ConfigError
from .persistence import replace_file
from .ppo import PPOConfig
from .twostage import GridSpec, ScalePair

_BOOL_STATES = configparser.ConfigParser.BOOLEAN_STATES


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOL_STATES[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected a boolean, got {raw!r}") from None


def _parse_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.replace(",", " ").split())


def _parse_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.replace(",", " ").split())


def _optional_int(raw: str) -> int | None:
    raw = raw.strip()
    return int(raw) if raw else None


def _identity(raw: str) -> str:
    return raw.strip()


def _run_file_name(raw: str) -> str:
    """A file name for the run directory: no directory part, not . or .."""
    name = raw.strip()
    if not name:
        raise ConfigError("expected a file name, got an empty value")
    if os.path.dirname(name):
        raise ConfigError(f"{name!r} has a directory part; name a file in the run directory")
    if name in (os.curdir, os.pardir):
        raise ConfigError(f"expected a file name, got {name!r}")
    return name


# annotation of a config dataclass field -> parser of its raw string
_FIELD_PARSERS = {
    int: int,
    float: float,
    bool: _parse_bool,
    tuple[float, ...]: _parse_floats,
    tuple[int, ...]: _parse_ints,
}


def _field_keys(cls) -> dict[str, tuple[Any, Callable[[str], Any]]]:
    """key -> (default, parser) for each field of a config dataclass, in
    field order."""
    hints = get_type_hints(cls)
    return {f.name: (f.default, _FIELD_PARSERS[hints[f.name]]) for f in dataclasses.fields(cls)}


# section -> key -> (default, parser); key order is the manifest's order
SCHEMA: dict[str, dict[str, tuple[Any, Callable[[str], Any]]]] = {
    "run": {
        "task": ("reach2d", _identity),
        "split": ("train", _identity),
        "env_seed": (0, int),
        "horizon": (None, _optional_int),  # empty means the task default
        # empty or N_POINTS: every manifest writes it, and a manifest loads back through --config
        "n_points": (None, _optional_int),
    },
    "ppo": _field_keys(PPOConfig),
    "bc": {
        **_field_keys(BCConfig),
        "demos": ("", _identity),  # path to a demo bundle, required by train-bc
    },
    "demos": {
        "count": (100, int),
        "keep_only_success": (True, _parse_bool),
        "out": ("demos.bin", _run_file_name),  # written under the run directory
    },
    "twostage": {
        "trainer": ("ppo", _identity),
        "alpha": (0.9, float),
        "beta": (0.875, float),
        "stage1_steps": (GridSpec.stage1_steps, int),
        "stage2_steps": (GridSpec.stage2_steps, int),
        "reset_optimizer": (False, _parse_bool),
    },
    "grid": {
        "trainer": ("ppo", _identity),
        **_field_keys(GridSpec),
        "seeds": ((), _parse_ints),  # keeps its field's place; empty means: the --seed flag alone
    },
    "eval": {
        "checkpoint": ("", _identity),
        "episodes": (100, int),
        "split": ("test", _identity),
    },
    "export": {
        "metrics": ("", _identity),  # input metrics log
        "out": ("trendline.csv", _run_file_name),  # written under the run directory
    },
}


def resolve_config(path: str | None, overrides: list[str] | None = None) -> dict:
    """Layer defaults <- file <- overrides into a fully typed config dict."""
    resolved = {section: {key: spec[0] for key, spec in keys.items()} for section, keys in SCHEMA.items()}

    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"no config file at {path}")
        parser = configparser.ConfigParser(strict=True, interpolation=None)
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        for section in parser.sections():
            if section == "meta":
                continue  # manifests carry a [meta] block; feeding one back as --config is fine
            if section not in SCHEMA:
                raise ConfigError(f"{path}: unknown config section [{section}]")
            for key, raw in parser.items(section):
                _apply(resolved, section, key, raw, origin=path)

    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        dotted, raw = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        section, key = dotted.split(".", 1)
        if section not in SCHEMA:
            raise ConfigError(f"override names unknown section [{section}]")
        _apply(resolved, section.strip(), key.strip(), raw, origin="--set")

    return resolved


def _apply(resolved: dict, section: str, key: str, raw: str, origin: str) -> None:
    try:
        _, parse = SCHEMA[section][key]
    except KeyError:
        raise ConfigError(f"{origin}: unknown config key {section}.{key}") from None
    try:
        resolved[section][key] = parse(raw)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{origin}: bad value for {section}.{key}: {exc}") from None


def env_config(resolved: dict) -> EnvConfig:
    run = resolved["run"]
    if run["n_points"] not in (None, N_POINTS):
        raise ConfigError(f"point count is fixed at {N_POINTS} for these tasks")
    horizon = {} if run["horizon"] is None else {"horizon": run["horizon"]}
    return make_config(run["task"], split=run["split"], seed=run["env_seed"], **horizon)


def ppo_config(resolved: dict) -> PPOConfig:
    return PPOConfig(**resolved["ppo"])


def bc_config(resolved: dict) -> BCConfig:
    return BCConfig(**{k: v for k, v in resolved["bc"].items() if k != "demos"})


def grid_spec(resolved: dict, fallback_seed: int) -> GridSpec:
    grid = {k: v for k, v in resolved["grid"].items() if k != "trainer"}
    return GridSpec(**{**grid, "seeds": grid["seeds"] or (fallback_seed,)})


def scale_pair(resolved: dict) -> ScalePair:
    return ScalePair(resolved["twostage"]["alpha"], resolved["twostage"]["beta"])


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    return str(value)


def write_manifest(out_dir: str, command: str, seed: int, resolved: dict) -> str:
    """Dump the fully resolved config (defaults materialized) plus run
    identity to out_dir/manifest.ini; returns the manifest path."""
    env = env_config(resolved)
    writer = configparser.ConfigParser(interpolation=None)
    writer["meta"] = {"command": command, "seed": str(seed), "version": __version__}
    for section, keys in resolved.items():
        body = dict(keys)
        if section == "run":
            body["horizon"] = env.horizon  # materialize task defaults
            body["n_points"] = N_POINTS
        writer[section] = {k: _format_value(v) for k, v in body.items()}
    path = os.path.join(out_dir, "manifest.ini")
    os.makedirs(out_dir, exist_ok=True)
    text = io.StringIO()
    writer.write(text)
    replace_file(path, text.getvalue().encode("utf-8"))
    return path
