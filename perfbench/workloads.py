"""The three benchmark workloads: the configs they hand to the program and
the checks they make on what it writes.

Each workload is a list of ``deskrl`` command lines built from the
workload seed (it is the run seed and the environment seed, so it picks
the episode, panel and demo seeds) plus a size table.  The program sees
only those command lines.  A *leg* is one unit that can fail on its own:
a training run, a grid's stage one, or a grid row.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import math
import os

import numpy as np

from deskrl.bc import BCConfig
from deskrl.envs import make_config
from deskrl.persistence import load_checkpoint, load_demos, read_metrics

# per workload: "full" is what the benchmark measures, "smoke" runs all of
# it in a few seconds
SIZES = {
    "ppo_reach": {
        # the PPO defaults (S=2048, B=64, 4 epochs) for two iterations, with
        # 10-episode panels at entry and at the end, so that evaluation stays
        # a minority of the time
        "full": {"ppo.total_steps": 4096, "ppo.eval_episodes": 10},
        "smoke": {"ppo.total_steps": 512, "ppo.samples_per_step": 256, "ppo.eval_episodes": 2},
    },
    "bc_gather": {
        # the BC defaults (B=64, S=256) for 80 outer steps on 60 expert
        # episodes (over a thousand pairs on every seed), 10-episode panels
        "full": {"demos.count": 60, "bc.total_steps": 80, "bc.eval_episodes": 10},
        "smoke": {"demos.count": 12, "bc.total_steps": 4, "bc.samples_per_step": 64,
                  "bc.eval_episodes": 2},
    },
    "grid_pushbox": {
        # 2 alphas x 2 betas + the baseline row; minibatches of 58 or 45 and
        # rollouts of 512 or 384; stage one runs two eval_period chunks
        "full": {"grid.alphas": "0.9, 0.7", "grid.betas": "1.0, 0.75",
                 "grid.base_batch": 64, "grid.base_samples": 512,
                 "grid.stage1_steps": 1024, "grid.stage2_steps": 512,
                 "ppo.eval_period": 512, "ppo.eval_episodes": 2},
        "smoke": {"grid.alphas": "0.9, 0.7", "grid.betas": "1.0, 0.75",
                  "grid.base_batch": 32, "grid.base_samples": 128,
                  "grid.stage1_steps": 256, "grid.stage2_steps": 128,
                  "ppo.eval_period": 128, "ppo.eval_episodes": 1},
    },
}
TASKS = {"ppo_reach": "reach2d", "bc_gather": "gather2d", "grid_pushbox": "pushbox2d"}


def overrides(workload: str, size: str, seed: int) -> list[str]:
    """The ``section.key=value`` config the workload hands to the program."""
    pairs = {"run.task": TASKS[workload], "run.env_seed": seed, **SIZES[workload][size]}
    return [f"{key}={value}" for key, value in pairs.items()]


def commands(workload: str, size: str, seed: int, job_dir: str) -> list[list[str]]:
    """The ``deskrl`` argument lists one job runs, in order."""
    common = ["--seed", str(seed)]
    for item in overrides(workload, size, seed):
        common += ["--set", item]
    if workload == "ppo_reach":
        return [["train", "--out", job_dir, *common]]
    if workload == "bc_gather":
        demo_dir = os.path.join(job_dir, "demos")
        return [
            ["gen-demos", "--out", demo_dir, *common],
            ["train-bc", "--out", os.path.join(job_dir, "bc"), *common,
             "--set", f"bc.demos={os.path.join(demo_dir, 'demos.bin')}"],
        ]
    if workload == "grid_pushbox":
        return [["grid", "--out", job_dir, *common]]
    raise ValueError(f"unknown workload {workload!r}")


def horizon(workload: str) -> int:
    """Steps in an episode that does not succeed early."""
    return make_config(TASKS[workload]).horizon


def legs(workload: str, size: str) -> int:
    if workload == "grid_pushbox":
        sizes = SIZES[workload][size]
        cells = len(sizes["grid.alphas"].split(",")) * len(sizes["grid.betas"].split(","))
        return 2 + cells  # stage one, baseline row, one row per cell
    return 1


class LegCheck:
    """What one run directory holds, checked: every checkpoint reloads
    through its checksum with finite numbers, the metrics log reads back
    with non-decreasing steps and rates in [0, 1], and every logged step
    has its checkpoint."""

    def __init__(self, run_dir: str):
        self.problems: list[str] = []
        self.records = []
        self.ckpt_paths = sorted(glob.glob(os.path.join(run_dir, "ckpt-*.ckpt")))
        metrics_path = os.path.join(run_dir, "metrics.csv")
        try:
            self.records = read_metrics(metrics_path)
        except Exception as exc:  # any unreadable log fails the leg, whatever the cause
            self.problems.append(f"{metrics_path}: {exc}")
            return
        if not self.records:
            self.problems.append(f"{metrics_path}: no records")
        steps = [r.step for r in self.records]
        if steps != sorted(steps):
            self.problems.append(f"{metrics_path}: steps decrease")
        for r in self.records:
            for rate in (r.train_success, r.test_success):
                if not 0.0 <= rate <= 1.0:
                    self.problems.append(f"{metrics_path}: rate {rate} at step {r.step}")
        ckpt_steps = set()
        for path in self.ckpt_paths:
            try:
                ckpt = load_checkpoint(path)
            except Exception as exc:
                self.problems.append(f"{path}: {exc}")
                continue
            ckpt_steps.add(ckpt.step)
            for label, arr in (("params", ckpt.params), ("adam.m", ckpt.adam.m), ("adam.v", ckpt.adam.v)):
                if not np.all(np.isfinite(arr)):
                    self.problems.append(f"{path}: non-finite {label}")
        if set(steps) != ckpt_steps:
            self.problems.append(f"{run_dir}: logged steps {sorted(set(steps))} vs checkpoints {sorted(ckpt_steps)}")

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def steps_advanced(self) -> int:
        return self.records[-1].step - self.records[0].step if self.records else 0

    def digest_into(self, h, label: str) -> None:
        for path in self.ckpt_paths:
            h.update(f"{label}/{os.path.basename(path)}\n".encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
        h.update(f"{label}/metrics\n".encode())
        for r in self.records:  # the wall-clock stamp is left out
            h.update(f"{r.step},{r.train_success!r},{r.test_success!r},{r.stage}\n".encode())


def check(workload: str, size: str, seed: int, job_dir: str) -> dict:
    """Check one finished job's outputs and digest them.

    Returns the legs failed, the problems found, the SHA-256 over the
    checkpoints, stamp-free metrics and results table, the PPO rollout
    transitions, the samples the trainers consumed, the rows of
    the results table (1 for a single training run) and how many of them
    hold NaN rates.
    """
    h = hashlib.sha256()
    problems: list[str] = []
    failed = 0
    if workload in ("ppo_reach", "bc_gather"):
        run_dir = job_dir if workload == "ppo_reach" else os.path.join(job_dir, "bc")
        leg = LegCheck(run_dir)
        leg.digest_into(h, "train" if workload == "ppo_reach" else "bc")
        problems += leg.problems
        if workload == "ppo_reach":
            expected = int(SIZES[workload][size]["ppo.total_steps"])
            transitions = samples = leg.steps_advanced
        else:
            expected = int(SIZES[workload][size]["bc.total_steps"])
            per_step = int(SIZES[workload][size].get("bc.samples_per_step", BCConfig.samples_per_step))
            samples = leg.steps_advanced * per_step
            transitions = 0  # BC gathers no transitions while it trains
            try:
                load_demos(os.path.join(job_dir, "demos", "demos.bin"))
            except Exception as exc:  # an unreadable bundle fails the leg
                problems.append(f"demos: {exc}")
        if leg.ok and leg.records[-1].step != expected:
            problems.append(f"{run_dir}: ended at step {leg.records[-1].step}, expected {expected}")
        failed = 1 if problems else 0
        return {"failed": failed, "problems": problems, "digest": h.hexdigest(),
                "transitions": transitions, "trainer_samples": samples, "rows": 1, "nan_rows": 0}

    seed_dir = os.path.join(job_dir, f"seed{seed}")
    stage1 = LegCheck(os.path.join(seed_dir, "stage1"))
    stage1.digest_into(h, "stage1")
    problems += stage1.problems
    failed += 0 if stage1.ok else 1
    transitions = stage1.steps_advanced
    rows = []
    nan_rows = 0
    table = os.path.join(job_dir, "results.csv")
    try:
        with open(table, "rb") as fh:
            h.update(b"results.csv\n" + fh.read())
        with open(table, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        problems.append(f"{table}: {exc}")
    expected_rows = legs(workload, size) - 1
    if len(rows) != expected_rows:
        problems.append(f"{table}: {len(rows)} rows, expected {expected_rows}")
        failed += expected_rows
    else:
        for row in rows:
            leg_dir = "baseline" if row["row"] == "1" else f"cell-a{float(row['alpha'])}-b{float(row['beta'])}"
            leg = LegCheck(os.path.join(seed_dir, leg_dir))
            leg.digest_into(h, leg_dir)
            transitions += leg.steps_advanced
            rates = [float(row["train_success"]), float(row["test_success"])]
            nan_rows += any(math.isnan(r) for r in rates)
            bad = list(leg.problems)
            if any(math.isnan(r) or not 0.0 <= r <= 1.0 for r in rates):
                bad.append(f"{table}: row {row['row']} has rates {rates}")
            problems += bad
            failed += 1 if bad else 0
    return {"failed": failed, "problems": problems, "digest": h.hexdigest(),
            "transitions": transitions, "trainer_samples": transitions, "rows": max(len(rows), 1),
            "nan_rows": nan_rows}
