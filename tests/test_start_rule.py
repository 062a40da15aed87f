"""Only loop and cli read a metrics log or load a checkpoint in src/deskrl.

Where a trainer call starts is one rule, in loop.train: it reads the run
directory's log once (read_log) and loads the checkpoint the call starts
from (the log's last record's, or the restore checkpoint).  cli reads
logs and checkpoints only for the commands that inspect them (eval,
export).  A call of read_log, read_metrics or load_checkpoint anywhere
else would be a second home for the start rule.  The walk flags every
call of a function or attribute so named, with its line.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "deskrl")

READERS = ("loop", "cli")
START_CALLS = frozenset({"read_log", "read_metrics", "load_checkpoint"})


def _start_calls() -> list[tuple[str, str, int]]:
    """(module, called name, line) of each call in src/deskrl of a name in START_CALLS."""
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if called in START_CALLS:
                        found.append((name[: -len(".py")], called, node.lineno))
    return found


def test_only_loop_and_cli_read_logs_and_load_checkpoints():
    calls = _start_calls()
    outside = sorted(f"{module}.py:{line} calls {called}(" for module, called, line in calls if module not in READERS)
    assert not outside, outside
    # the walk sees the names the start rule does call
    assert {called for module, called, _ in calls if module == "loop"} == {"read_log", "load_checkpoint"}
