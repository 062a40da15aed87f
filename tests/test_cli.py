"""End-to-end tests for the command-line front door."""

import configparser
import json
import os
import pathlib
import subprocess
import sys

import pytest

from deskrl import cli, persistence as ps
from deskrl.cli import main
from deskrl.envs import make_config
from deskrl.persistence import load_demos, read_metrics

TINY_ENV = ["--set", "run.task=reach2d", "--set", "run.horizon=40"]
TINY_PPO = [
    "--set", "ppo.samples_per_step=80",
    "--set", "ppo.minibatch_size=40",
    "--set", "ppo.epochs=2",
    "--set", "ppo.total_steps=160",
    "--set", "ppo.eval_period=80",
    "--set", "ppo.eval_episodes=2",
]
TINY_BC = [
    "--set", "bc.batch_size=16",
    "--set", "bc.samples_per_step=32",
    "--set", "bc.total_steps=6",
    "--set", "bc.eval_period=2",
    "--set", "bc.eval_episodes=2",
]


def files(root):
    """Every file under root, by its path relative to root, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in pathlib.Path(root).rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared artifacts: a demo bundle and a tiny trained PPO run."""
    root = tmp_path_factory.mktemp("cli")
    demo_dir = str(root / "demos")
    rc = main(["gen-demos", "--out", demo_dir, "--seed", "1", *TINY_ENV, "--set", "demos.count=12"])
    assert rc == 0
    ppo_dir = str(root / "ppo")
    rc = main(["train", "--out", ppo_dir, "--seed", "1", *TINY_ENV, *TINY_PPO])
    assert rc == 0
    return {
        "root": root,
        "demos": os.path.join(demo_dir, "demos.bin"),
        "ppo": ppo_dir,
        "ckpt": os.path.join(ppo_dir, "ckpt-00000160.ckpt"),
        "metrics": os.path.join(ppo_dir, "metrics.csv"),
    }


class TestParsing:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate", "--out", "/tmp/x"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_out_flag(self, capsys):
        assert main(["train"]) == 1
        assert "--out" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["train", "--out", "/tmp/x", "--turbo"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_config_file_names_path(self, capsys, tmp_path):
        missing = str(tmp_path / "absent.ini")
        assert main(["train", "--config", missing, "--out", str(tmp_path / "o")]) == 1
        assert "absent.ini" in capsys.readouterr().err


class TestTrain:
    def test_artifacts_and_summary(self, workdir, capsys):
        out = str(workdir["root"] / "train2")
        assert main(["train", "--out", out, "--seed", "2", *TINY_ENV, *TINY_PPO]) == 0
        stdout = capsys.readouterr().out
        assert "step 160" in stdout
        names = sorted(os.listdir(out))
        assert "manifest.ini" in names
        assert "metrics.csv" in names
        assert "ckpt-00000160.ckpt" in names
        history = read_metrics(os.path.join(out, "metrics.csv"))
        assert [r.step for r in history] == [0, 80, 160]

    def test_manifest_records_command_and_seed(self, workdir):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(os.path.join(workdir["ppo"], "manifest.ini"))
        assert parser["meta"]["command"] == "train"
        assert parser["meta"]["seed"] == "1"
        assert parser["ppo"]["total_steps"] == "160"
        assert parser["run"]["horizon"] == "40"

    def test_config_file_and_override_layering(self, workdir, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\ntask = reach2d\nhorizon = 40\n\n[ppo]\ntotal_steps = 80\n")
        out = str(tmp_path / "out")
        rc = main([
            "train", "--config", str(ini), "--out", out, "--seed", "3",
            *TINY_PPO[:8],  # sizes and epochs, but not total/eval settings
            "--set", "ppo.eval_period=80", "--set", "ppo.eval_episodes=2",
            "--set", "ppo.total_steps=80",  # override wins over the file's 80 anyway
        ])
        assert rc == 0
        assert "step 80" in capsys.readouterr().out

    def test_a_point_count_other_than_64_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["train", "--out", str(out), *TINY_ENV, *TINY_PPO, "--set", "run.n_points=32"]) == 1
        assert "point count is fixed at 64" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_override_value(self, capsys):
        assert main(["train", "--out", "/tmp/whatever", "--set", "ppo.gamma=fast"]) == 1
        assert "ppo.gamma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, setting",
        [
            ("train", "ppo.learning_rate=nan"),
            ("train", "ppo.clip_eps=nan"),
            ("train", "ppo.value_coef=nan"),
            ("train", "ppo.entropy_coef=nan"),
            ("train", "ppo.learning_rate=inf"),
            ("train-bc", "bc.learning_rate=nan"),
        ],
    )
    def test_non_finite_value_is_config_error(self, workdir, tmp_path, capsys, command, setting):
        # comparisons with nan are false, so range checks alone would let it
        # through to a first checkpoint and a non-finite loss
        out = tmp_path / "o"
        sized = TINY_PPO if command == "train" else [*TINY_BC, "--set", f"bc.demos={workdir['demos']}"]
        assert main([command, "--out", str(out), *TINY_ENV, *sized, "--set", setting]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()  # a refused command leaves no directory behind

    def test_a_refused_rerun_changes_no_file(self, tmp_path, capsys):
        # a finished run refuses a rerun with a changed key into its directory
        # at its manifest, before any write (exit 1); with the same config the
        # rerun finds its run finished and writes nothing (exit 0)
        out = tmp_path / "run"
        sized = [*TINY_ENV, *TINY_PPO[:-2], "--set", "ppo.eval_episodes=1"]
        assert main(["train", "--out", str(out), *sized]) == 0
        before = files(out)
        for setting in ("ppo.log_std0=-1.0", "ppo.eval_episodes=2"):
            assert main(["train", "--out", str(out), *sized, "--set", setting]) == 1
            key = setting.split("=")[0]
            assert f"manifest.ini records another run: {key} differs" in capsys.readouterr().err
            assert files(out) == before
        assert main(["train", "--out", str(out), *sized]) == 0
        assert "step 160" in capsys.readouterr().out
        assert files(out) == before


class TestGenDemos:
    def test_bundle_is_loadable(self, workdir, capsys):
        dataset = load_demos(workdir["demos"])
        env = make_config("reach2d", horizon=40)
        assert dataset.fingerprint == env.fingerprint()
        assert len(dataset.lengths) >= 1

    def test_reports_kept_count(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "d2")
        assert main(["gen-demos", "--out", out, "--seed", "4", *TINY_ENV, "--set", "demos.count=3"]) == 0
        stdout = capsys.readouterr().out
        assert "of 3 episodes" in stdout


    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_a_count_below_one_is_refused_before_anything_is_written(self, tmp_path, capsys, count):
        out = tmp_path / "d3"
        assert main(["gen-demos", "--out", str(out), *TINY_ENV, "--set", f"demos.count={count}"]) == 1
        assert f"config error: demos.count must be at least 1, got {count}" in capsys.readouterr().err
        assert not out.exists()


class TestTrainBC:
    def test_trains_from_bundle(self, workdir, capsys):
        out = str(workdir["root"] / "bc")
        rc = main([
            "train-bc", "--out", out, "--seed", "2", *TINY_ENV, *TINY_BC,
            "--set", f"bc.demos={workdir['demos']}",
        ])
        assert rc == 0
        assert "step 6" in capsys.readouterr().out
        history = read_metrics(os.path.join(out, "metrics.csv"))
        assert [r.step for r in history] == [0, 2, 4, 6]

    def test_missing_demos_key(self, capsys):
        assert main(["train-bc", "--out", "/tmp/whatever", *TINY_ENV, *TINY_BC]) == 1
        assert "bc.demos" in capsys.readouterr().err

    def test_missing_demos_file(self, capsys, tmp_path):
        rc = main([
            "train-bc", "--out", str(tmp_path / "o"), *TINY_ENV, *TINY_BC,
            "--set", f"bc.demos={tmp_path / 'absent.bin'}",
        ])
        assert rc == 1
        assert "absent.bin" in capsys.readouterr().err


class TestEval:
    def test_prints_rate_and_writes_metrics(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "eval")
        rc = main([
            "eval", "--out", out, "--seed", "9", *TINY_ENV,
            "--set", f"eval.checkpoint={workdir['ckpt']}",
            "--set", "eval.episodes=4", "--set", "eval.split=test",
        ])
        assert rc == 0
        assert "test success rate:" in capsys.readouterr().out
        history = read_metrics(os.path.join(out, "eval-metrics.csv"))
        assert len(history) == 1
        assert history[0].step == 160

    def test_an_earlier_step_than_the_log_holds_is_refused_first(self, workdir, tmp_path, capsys):
        # eval-metrics.csv keeps steps non-decreasing; a checkpoint that would
        # go back is refused before the manifest is written or any episode runs
        out = tmp_path / "e7"
        out.mkdir()
        log = out / "eval-metrics.csv"
        ps.append_metrics(ps.read_log(str(log)), ps.MetricsRecord(400, 0.5, 0.25))
        before = log.read_bytes()
        rc = main([
            "eval", "--out", str(out), *TINY_ENV,
            "--set", f"eval.checkpoint={workdir['ckpt']}", "--set", "eval.episodes=2",
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert "config error: step 160 after step 400" in captured.err
        assert "success rate" not in captured.out
        assert not (out / "manifest.ini").exists()
        assert log.read_bytes() == before

    def test_a_log_that_does_not_read_is_refused_first(self, workdir, tmp_path, capsys, monkeypatch):
        # a malformed complete line makes the log unreadable; eval adds no
        # record after it, and exits 2 before any episode runs
        out = tmp_path / "e8"
        out.mkdir()
        log = out / "eval-metrics.csv"
        ps.append_metrics(ps.read_log(str(log)), ps.MetricsRecord(10, 0.5, 0.25))
        with open(log, "a") as fh:
            fh.write("garbage,line\n")
        before = log.read_bytes()
        monkeypatch.setattr(cli.pol, "evaluate_policy", lambda *a, **k: pytest.fail("evaluated"))
        rc = main([
            "eval", "--out", str(out), *TINY_ENV,
            "--set", f"eval.checkpoint={workdir['ckpt']}", "--set", "eval.episodes=2",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert "runtime error" in captured.err and "line 3: expected 5 fields, got 2" in captured.err
        assert not (out / "manifest.ini").exists()
        assert log.read_bytes() == before

    def test_no_episodes_are_refused_before_anything_is_written(self, workdir, tmp_path, capsys):
        out = tmp_path / "e9"
        rc = main([
            "eval", "--out", str(out), *TINY_ENV,
            "--set", f"eval.checkpoint={workdir['ckpt']}", "--set", "eval.episodes=0",
        ])
        assert rc == 1
        assert "config error: eval.episodes must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_train_split_selection(self, workdir, tmp_path, capsys):
        rc = main([
            "eval", "--out", str(tmp_path / "e2"), *TINY_ENV,
            "--set", f"eval.checkpoint={workdir['ckpt']}",
            "--set", "eval.episodes=2", "--set", "eval.split=train",
        ])
        assert rc == 0
        assert "train success rate:" in capsys.readouterr().out

    def test_bad_split(self, workdir, tmp_path, capsys):
        rc = main([
            "eval", "--out", str(tmp_path / "e3"), *TINY_ENV,
            "--set", f"eval.checkpoint={workdir['ckpt']}",
            "--set", "eval.split=sideways",
        ])
        assert rc == 1
        assert "eval.split" in capsys.readouterr().err

    def test_env_mismatch(self, workdir, tmp_path, capsys):
        rc = main([
            "eval", "--out", str(tmp_path / "e4"),
            "--set", "run.task=pushbox2d",
            "--set", f"eval.checkpoint={workdir['ckpt']}",
        ])
        assert rc == 1
        assert "different environment" in capsys.readouterr().err

    def test_empty_checkpoint_key(self, capsys):
        assert main(["eval", "--out", "/tmp/whatever", *TINY_ENV]) == 1
        assert "eval.checkpoint" in capsys.readouterr().err

    def test_corrupt_checkpoint_is_runtime_error(self, workdir, tmp_path, capsys):
        broken = tmp_path / "broken.ckpt"
        blob = bytearray(open(workdir["ckpt"], "rb").read())
        blob[200:204] = b"\xff\xff\xff\xff"
        broken.write_bytes(bytes(blob))
        rc = main([
            "eval", "--out", str(tmp_path / "e5"), *TINY_ENV,
            "--set", f"eval.checkpoint={broken}",
        ])
        assert rc == 2
        assert "runtime error" in capsys.readouterr().err

    def test_checkpoint_without_a_meta_key_is_runtime_error(self, workdir, tmp_path, capsys):
        # a valid checksum over metadata that lacks test_success
        blob = open(workdir["ckpt"], "rb").read()[: -ps._CHECKSUM_BYTES]
        magic, version, reserved, meta_len = ps._HEAD.unpack_from(blob, 0)
        meta = json.loads(blob[ps._HEAD.size : ps._HEAD.size + meta_len])
        del meta["test_success"]
        meta_blob = json.dumps(meta).encode("utf-8")
        body = ps._HEAD.pack(magic, version, reserved, len(meta_blob)) + meta_blob + blob[ps._HEAD.size + meta_len :]
        broken = tmp_path / "keyless.ckpt"
        broken.write_bytes(body + ps._checksum(body))
        rc = main([
            "eval", "--out", str(tmp_path / "e6"), *TINY_ENV,
            "--set", f"eval.checkpoint={broken}",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "runtime error" in err and "test_success" in err


class TestExport:
    def test_trendline_matches_metrics(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "exp")
        rc = main(["export", "--out", out, "--set", f"export.metrics={workdir['metrics']}"])
        assert rc == 0
        lines = open(os.path.join(out, "trendline.csv")).read().splitlines()
        history = read_metrics(workdir["metrics"])
        assert len(lines) == len(history) + 1
        assert lines[0].startswith("step,")

    def test_missing_source(self, tmp_path, capsys):
        rc = main(["export", "--out", str(tmp_path / "o"), "--set", f"export.metrics={tmp_path / 'absent.csv'}"])
        assert rc == 1

    def test_empty_source_key(self, capsys):
        assert main(["export", "--out", "/tmp/whatever"]) == 1
        assert "export.metrics" in capsys.readouterr().err

    def test_malformed_line_is_runtime_error(self, workdir, tmp_path, capsys):
        lines = open(workdir["metrics"]).readlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("".join([*lines[:2], "80,0.5,oops,1,0.0\n", *lines[2:]]))
        rc = main(["export", "--out", str(tmp_path / "o"), "--set", f"export.metrics={bad}"])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("runtime error")
        assert "bad.csv" in err[0] and "line 3" in err[0]


@pytest.mark.parametrize(
    "value",
    ["", "   ", "sub/out.bin", "ABSOLUTE", ".", ".."],
    ids=["empty", "blank", "subdir", "absolute", "dot", "dotdot"],
)
@pytest.mark.parametrize("command, key", [("gen-demos", "demos.out"), ("export", "export.out")])
def test_an_out_name_that_is_no_file_of_the_run_directory_is_refused_first(
    workdir, tmp_path, capsys, command, key, value
):
    # demos.out and export.out name a file in the run directory: an empty
    # name, a directory part or . or .. is refused before any episode runs
    # or any file is written, inside the run directory or elsewhere
    out, elsewhere = tmp_path / "run", tmp_path / "elsewhere.out"
    value = str(elsewhere) if value == "ABSOLUTE" else value
    if command == "gen-demos":
        sized = [*TINY_ENV, "--set", "demos.count=1"]
    else:
        sized = ["--set", f"export.metrics={workdir['metrics']}"]
    assert main([command, "--out", str(out), *sized, "--set", f"{key}={value}"]) == 1
    assert f"config error: --set: bad value for {key}" in capsys.readouterr().err
    assert not out.exists() and not elsewhere.exists()


class TestTwoStage:
    def test_artifacts(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "ts")
        rc = main([
            "two-stage", "--out", out, "--seed", "3", *TINY_ENV, *TINY_BC[:4],
            "--set", "bc.eval_period=2", "--set", "bc.eval_episodes=2",
            "--set", f"bc.demos={workdir['demos']}",
            "--set", "twostage.trainer=bc",
            "--set", "twostage.alpha=0.9", "--set", "twostage.beta=0.875",
            "--set", "twostage.stage1_steps=6", "--set", "twostage.stage2_steps=4",
        ])
        assert rc == 0
        assert "stage-two best" in capsys.readouterr().out
        names = sorted(os.listdir(out))
        assert {"manifest.ini", "result.csv", "stage1", "stage2", "trendline.csv"} <= set(names)
        rows = open(os.path.join(out, "result.csv")).read().splitlines()
        assert len(rows) == 2
        fields = rows[1].split(",")
        assert fields[1] == "0.9" and fields[2] == "0.875"

    def test_unknown_trainer(self, capsys):
        rc = main(["two-stage", "--out", "/tmp/whatever", "--set", "twostage.trainer=sgd"])
        assert rc == 1
        assert "sgd" in capsys.readouterr().err


class TestGrid:
    def test_rows_and_recommendation(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "grid")
        rc = main([
            "grid", "--out", out, "--seed", "3", *TINY_ENV, *TINY_BC[:4],
            "--set", "bc.eval_period=2", "--set", "bc.eval_episodes=2",
            "--set", f"bc.demos={workdir['demos']}",
            "--set", "grid.trainer=bc",
            "--set", "grid.base_batch=16", "--set", "grid.base_samples=32",
            "--set", "grid.alphas=0.9,0.7", "--set", "grid.betas=1.0,0.75",
            "--set", "grid.stage1_steps=6", "--set", "grid.stage2_steps=4",
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "recommend:" in stdout
        lines = open(os.path.join(out, "results.csv")).read().splitlines()
        assert len(lines) == 1 + 5  # header + baseline + 2x2 cells
        assert os.path.exists(os.path.join(out, "manifest.ini"))

    def test_out_of_range_scale_fails_before_stage_one(self, workdir, tmp_path, capsys):
        out = tmp_path / "grid"
        rc = main([
            "grid", "--out", str(out), "--seed", "3", *TINY_ENV, *TINY_BC[:4],
            "--set", f"bc.demos={workdir['demos']}",
            "--set", "grid.trainer=bc",
            "--set", "grid.base_batch=16", "--set", "grid.base_samples=32",
            "--set", "grid.alphas=0.9,1.5",
            "--set", "grid.stage1_steps=6", "--set", "grid.stage2_steps=4",
        ])
        assert rc == 1
        assert "alpha must lie in" in capsys.readouterr().err
        assert not out.exists()


# each command's sizes for a short BC run from the shared demo bundle
SIZED = {
    "train-bc": [],
    "two-stage": ["twostage.trainer=bc", "twostage.stage1_steps=6", "twostage.stage2_steps=4"],
    "grid": [
        "grid.trainer=bc", "grid.base_batch=16", "grid.base_samples=32", "grid.alphas=0.9",
        "grid.betas=1.0", "grid.stage1_steps=6", "grid.stage2_steps=4",
    ],
}


def bc_argv(command, out, workdir):
    return [
        command, "--out", str(out), "--seed", "3", *TINY_ENV, *TINY_BC, "--set", f"bc.demos={workdir['demos']}",
        *(arg for setting in SIZED[command] for arg in ("--set", setting)),
    ]


@pytest.mark.parametrize(
    "command, setting, says",
    [
        ("two-stage", "twostage.alpha=1.5", "alpha must lie in"),
        ("two-stage", "twostage.stage1_steps=1", "below one evaluation period"),
        ("two-stage", "twostage.stage2_steps=-1", "cannot be negative"),
        ("grid", "grid.stage1_steps=1", "below one evaluation period"),
        ("grid", "grid.stage2_steps=-1", "cannot be negative"),
        ("train-bc", "bc.samples_per_step=100000", "exceeds dataset size"),
        ("train-bc", "run.task=pushbox2d", "different environment"),  # the bundle holds reach2d demos
    ],
)
def test_a_command_refused_for_its_config_writes_nothing(workdir, tmp_path, capsys, command, setting, says):
    # refused before its manifest, so the corrected command then runs in the same --out
    out = tmp_path / "run"
    assert main([*bc_argv(command, out, workdir), "--set", setting]) == 1
    assert says in capsys.readouterr().err
    assert not out.exists()
    assert main(bc_argv(command, out, workdir)) == 0


@pytest.mark.parametrize("command", ["two-stage", "grid"])
def test_a_rerun_finishes_its_own_run_and_refuses_another(workdir, tmp_path, capsys, command):
    # run again over its own --out with the same config, a finished run
    # writes the same bytes; with one key changed it is refused, and writes nothing
    out = tmp_path / command
    argv = bc_argv(command, out, workdir)
    assert main(argv) == 0
    before = files(out)
    assert main(argv) == 0
    assert files(out) == before
    capsys.readouterr()
    assert main([*argv, "--set", "bc.eval_episodes=3"]) == 1
    assert "manifest.ini records another run: bc.eval_episodes differs" in capsys.readouterr().err
    assert files(out) == before


class TestModuleEntry:
    # the child finds deskrl under src/ without an install, as pytest does
    ENV = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")}

    def test_module_runs_as_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "deskrl.cli"], capture_output=True, text=True, env=self.ENV
        )
        assert proc.returncode == 1
        assert "usage" in proc.stderr

    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "deskrl.cli", "--help"], capture_output=True, text=True, env=self.ENV
        )
        assert proc.returncode == 0
        assert "train" in proc.stdout
