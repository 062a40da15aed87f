"""The fast notebooks run to completion as scripts and leave no files behind,
and every notebook finds the deskrl names it uses.

Notebooks 01, 02, 03, 04, 06 and 07 take a few seconds between them;
05 trains for longer and is not run in this suite, so a rename in deskrl
would break it unseen: its names are checked without running it.
"""

import os
import subprocess
import sys

import pytest

from deskrl_names import assert_deskrl_names_exist

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NOTEBOOKS = sorted(name for name in os.listdir(os.path.join(ROOT, "notebooks")) if name.endswith(".py"))
FAST = [
    "01_encoder_invariance.py",
    "02_arm_and_controllers.py",
    "03_environments_and_experts.py",
    "04_train_ppo_reach.py",
    "06_resume_bit_exact.py",
    "07_two_stage_and_grid.py",
]


@pytest.mark.parametrize("notebook", FAST)
def test_notebook_runs(notebook, tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = {
        **os.environ,
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "OPENBLAS_NUM_THREADS": "1",
        "TMPDIR": str(tmpdir),
    }
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "notebooks", notebook)],
        cwd=str(tmp_path), env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert os.listdir(tmpdir) == [], "the notebook left its temporary files behind"


@pytest.mark.parametrize("notebook", NOTEBOOKS)
def test_notebook_finds_its_deskrl_names(notebook):
    assert_deskrl_names_exist(os.path.join(ROOT, "notebooks", notebook))
