"""The fast notebooks run to completion as scripts and leave no files behind.

Notebooks 01, 02, 03 and 06 take a few seconds between them; the others
train for longer and are left out of this suite.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAST = [
    "01_encoder_invariance.py",
    "02_arm_and_controllers.py",
    "03_environments_and_experts.py",
    "06_resume_bit_exact.py",
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
