"""Batch command-line front door.

    deskrl <command> --out DIR [--config PATH] [--seed N] [--set k=v]...

Commands: train, train-bc, gen-demos, two-stage, grid, eval, export.
Every run writes a manifest.ini with the fully resolved configuration,
so the artifacts alone reproduce the run; a command refused for its
config writes nothing, not even that.  train, train-bc, two-stage and
grid call the trainer directly, and a trainer call starts in place when
its directory's log holds records (loop.train), so run again over their
own --out with the same config they finish a crashed run and leave a
finished one as it was.  Exit codes: 0 success, 1 for
configuration problems (unknown command or key, missing file, invalid
value), 2 for runtime failures (corrupt checkpoint, non-finite loss).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import config as cfg_mod, policy as pol, twostage as ts
from .envs import generate_demos
from .errors import ConfigError, DeskRLError, MetricsOrderError
from .persistence import (
    MetricsRecord,
    append_metrics,
    export_table,
    export_trendline,
    load_checkpoint,
    load_demos,
    read_log,
    read_metrics,
    save_demos,
)


class UsageError(ConfigError):
    """Bad invocation shape; prints usage and exits 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); remap to exit 1
        raise UsageError(f"{self.format_usage()}{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="deskrl", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", metavar="command")
    for name, (summary, _) in _COMMANDS.items():
        sub = commands.add_parser(name, help=summary, description=summary)
        sub.add_argument("--config", default=None, help="INI config file (defaults apply if omitted)")
        sub.add_argument("--out", required=True, help="run directory for all artifacts")
        sub.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
        sub.add_argument(
            "--set", dest="overrides", action="append", default=[], metavar="SECTION.KEY=VALUE",
            help="override a config value; repeatable",
        )
    return parser


def _require_path(value: str, key: str) -> str:
    if not value:
        raise ConfigError(f"{key} must be set for this command")
    if not os.path.exists(value):
        raise ConfigError(f"{key} points at {value}, which does not exist")
    return value


def _build_trainer(kind: str, resolved: dict, env_cfg) -> ts.Trainer:
    if kind == "ppo":
        return ts.ppo_trainer(cfg_mod.ppo_config(resolved), env_cfg)
    if kind == "bc":
        run_cfg = cfg_mod.bc_config(resolved)
        return ts.bc_trainer(run_cfg, load_demos(_require_path(resolved["bc"]["demos"], "bc.demos")), env_cfg)
    raise ConfigError(f"trainer must be ppo or bc, got {kind!r}")


def cmd_train(args, resolved) -> None:
    env_cfg = cfg_mod.env_config(resolved)
    trainer = _build_trainer("ppo" if args.command == "train" else "bc", resolved, env_cfg)
    trainer.check(trainer.base_cfg)
    cfg_mod.write_manifest(args.out, args.command, args.seed, resolved, claim=True)
    last = trainer.run(trainer.base_cfg, seed=args.seed, out_dir=args.out)[-1]
    print(f"step {last.step}: train {last.train_success:.4f} test {last.test_success:.4f}")


def cmd_gen_demos(args, resolved) -> None:
    env_cfg = cfg_mod.env_config(resolved)
    section = resolved["demos"]
    if section["count"] < 1:
        raise ConfigError(f"demos.count must be at least 1, got {section['count']}")
    dataset = generate_demos(env_cfg, section["count"], section["keep_only_success"])
    cfg_mod.write_manifest(args.out, "gen-demos", args.seed, resolved)
    path = os.path.join(args.out, section["out"])
    save_demos(path, env_cfg, dataset)
    print(f"kept {len(dataset.lengths)} of {section['count']} episodes ({dataset.size} pairs): {path}")


def cmd_two_stage(args, resolved) -> None:
    env_cfg = cfg_mod.env_config(resolved)
    section = resolved["twostage"]
    trainer = _build_trainer(section["trainer"], resolved, env_cfg)
    scales = cfg_mod.scale_pair(resolved)
    ts.check_schedule(trainer, section["stage1_steps"], section["stage2_steps"])
    cfg_mod.write_manifest(args.out, "two-stage", args.seed, resolved, claim=True)
    history, record = ts.run_two_stage(
        trainer,
        scales,
        section["stage1_steps"],
        section["stage2_steps"],
        args.seed,
        args.out,
        reset_optimizer=section["reset_optimizer"],
    )
    export_trendline(history, os.path.join(args.out, "trendline.csv"))
    export_table([record], os.path.join(args.out, "result.csv"))
    print(
        f"stage-two best: train {record.train_success:.4f} test {record.test_success:.4f} "
        f"(batch {record.batch}, samples {record.samples})"
    )


def cmd_grid(args, resolved) -> None:
    env_cfg = cfg_mod.env_config(resolved)
    trainer = _build_trainer(resolved["grid"]["trainer"], resolved, env_cfg)
    spec = cfg_mod.grid_spec(resolved, args.seed)
    ts.check_schedule(spec.sized(trainer), spec.stage1_steps, spec.stage2_steps)
    cfg_mod.write_manifest(args.out, "grid", args.seed, resolved, claim=True)
    records = ts.grid_search(trainer, spec, args.out)
    print(f"{len(records)} rows: {os.path.join(args.out, 'results.csv')}")
    try:
        best = ts.recommend_scales(records)
    except ConfigError:
        print("recommend: no successful cell rows")
    else:
        print(f"recommend: alpha {best.alpha} beta {best.beta}")


def cmd_eval(args, resolved) -> None:
    env_cfg = cfg_mod.env_config(resolved)
    section = resolved["eval"]
    if section["split"] not in ("train", "test"):
        raise ConfigError(f"eval.split must be train or test, got {section['split']!r}")
    if section["episodes"] < 1:
        raise ConfigError(f"eval.episodes must be at least 1, got {section['episodes']}")
    ckpt = load_checkpoint(_require_path(section["checkpoint"], "eval.checkpoint"))
    if ckpt.env_fingerprint != env_cfg.fingerprint():
        raise ConfigError("checkpoint was trained on a different environment than [run] describes")
    log = read_log(os.path.join(args.out, "eval-metrics.csv"))
    try:  # before anything is written or evaluated
        log.check_order(ckpt.step)
    except MetricsOrderError as exc:
        raise ConfigError(str(exc)) from None
    spec = pol.build_policy_spec(env_cfg.task)
    store = ckpt.param_store()
    train_rate, test_rate = pol.evaluate_policy(store, spec, env_cfg, section["episodes"], args.seed)
    cfg_mod.write_manifest(args.out, "eval", args.seed, resolved)
    append_metrics(log, MetricsRecord(ckpt.step, train_rate, test_rate))
    shown = train_rate if section["split"] == "train" else test_rate
    print(f"{section['split']} success rate: {shown:.4f}")


def cmd_export(args, resolved) -> None:
    section = resolved["export"]
    source = _require_path(section["metrics"], "export.metrics")
    cfg_mod.write_manifest(args.out, "export", args.seed, resolved)
    history = read_metrics(source)
    path = os.path.join(args.out, section["out"])
    export_trendline(history, path)
    print(f"{len(history)} records: {path}")


# each command's summary and handler, in the order --help lists them
_COMMANDS = {
    "train": ("train a PPO policy on the configured task", cmd_train),
    "train-bc": ("behavior-clone a policy from a demo bundle", cmd_train),
    "gen-demos": ("roll the scripted expert and save a demo bundle", cmd_gen_demos),
    "two-stage": ("stage one, then resume the best checkpoint rescaled", cmd_two_stage),
    "grid": ("sweep the (alpha, beta) grid and emit the results table", cmd_grid),
    "eval": ("measure a saved checkpoint's success rate", cmd_eval),
    "export": ("re-emit a metrics log as plot-ready trend-line data", cmd_export),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError(f"{parser.format_usage()}{parser.prog}: a command is required")
        resolved = cfg_mod.resolve_config(args.config, args.overrides)
        _COMMANDS[args.command][1](args, resolved)
        return 0
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (FileNotFoundError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DeskRLError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
