"""Only the lane driver resets or steps an environment in src/deskrl.

envs.run_lanes holds the one rule for resets, episode ends and step
budgets (see the envs docstring); PPO rollouts, evaluation and demo
generation hand it their lanes.  A `.reset(` or `.step(` call anywhere
else in the package would be a loop with rules of its own.  No other
object in the package has a method of either name, so the walk flags
every call of an attribute so named, with the function it sits in.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "deskrl")

DRIVER = "envs.run_lanes"


def _env_calls() -> list[tuple[str, str]]:
    """(enclosing function or class, qualified by module; method name) of
    each `.reset(` and `.step(` call in src/deskrl."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                if child.func.attr in ("reset", "step"):
                    found.append((scope, child.func.attr))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                visit(ast.parse(fh.read()), name[: -len(".py")])
    return found


def test_only_the_driver_resets_or_steps_an_environment():
    calls = _env_calls()
    outside = sorted({f"{scope} calls .{method}(" for scope, method in calls if scope != DRIVER})
    assert not outside, outside
    assert {method for scope, method in calls if scope == DRIVER} == {"reset", "step"}
