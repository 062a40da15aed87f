"""The mutant list (tests/mutants.py) follows the code it edits, and,
opt-in, the suite kills every mutant.

The opt-in run (DESKRL_MUTANTS=1) copies the checkout once per mutant,
applies the mutant there and runs the suite without test_golden.py and
this module, with -x, in a subprocess; the mutant is killed when a test
fails.  It takes minutes, so without the variable its tests are skipped,
one skip per mutant in the summary.  Run it with

    DESKRL_MUTANTS=1 PYTHONPATH=src python -m pytest -q -s tests/test_mutants.py

and -s prints each mutant's first failing test.
"""

import ast
import os
import shutil
import subprocess
import sys

import pytest

from mutants import MUTANTS, mutate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "deskrl")
RUN_MUTANTS = os.environ.get("DESKRL_MUTANTS") == "1"


def _sources() -> dict[str, str]:
    sources = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                sources[name] = fh.read()
    return sources


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_old_text_occurs_once_in_src(mutant):
    # once in all of src/deskrl, in the mutant's file; the edits change
    # the file, and it still parses, so no mutant dies of a syntax error
    sources = _sources()
    assert mutant.file in sources
    for old, new in mutant.edits:
        assert old != new
        where = {name: text.count(old) for name, text in sources.items() if old in text}
        assert where == {mutant.file: 1}, f"{old!r} occurs {where}"
    mutated = mutate(sources[mutant.file], mutant)
    assert mutated != sources[mutant.file]
    ast.parse(mutated)


@pytest.mark.skipif(not RUN_MUTANTS, reason="runs the suite once per mutant; set DESKRL_MUTANTS=1")
@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_the_suite_kills_the_mutant(mutant, tmp_path):
    checkout = tmp_path / "checkout"
    skip = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench")
    shutil.copytree(ROOT, checkout, ignore=skip)
    path = checkout / "src" / "deskrl" / mutant.file
    path.write_text(mutate(path.read_text(encoding="utf-8"), mutant), encoding="utf-8")
    env = {key: value for key, value in os.environ.items() if key != "DESKRL_MUTANTS"}
    env["PYTHONPATH"] = str(checkout / "src")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", "--basetemp", str(tmp_path / "basetemp"),
            "--ignore=tests/test_golden.py", "--ignore=tests/test_mutants.py",
        ],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=900,
    )
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    assert proc.returncode == 1 and failed, f"{mutant.name} survived:\n{proc.stdout[-3000:]}{proc.stderr[-2000:]}"
    print(f"\n{mutant.name}: killed by {failed[0]}")
