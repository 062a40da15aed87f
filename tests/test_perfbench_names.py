"""The benchmark under perfbench/ finds every deskrl name it uses.

perfbench/tracer.py wraps functions and methods by (module, attribute)
name, and perfbench/worker.py and perfbench/workloads.py call deskrl
directly.  A rename or deletion in deskrl that breaks one of them would
otherwise show only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
import inspect
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _tracer()
_SPANS = sorted({**_TRACER.SPANS, **_TRACER.COARSE_SPANS}.items())


@pytest.mark.parametrize("name,target", _SPANS, ids=[name for name, _ in _SPANS])
def test_traced_spans_resolve(name, target):
    module_name, attr, kind = target
    home = importlib.import_module(f"deskrl.{module_name}")
    if kind == "method":
        owners = [
            cls for cls in vars(home).values()
            if inspect.isclass(cls) and cls.__module__ == home.__name__ and attr in vars(cls)
        ]
        assert owners, f"{name}: no class of deskrl.{module_name} defines {attr}"
    else:
        assert kind == "function", name
        assert callable(getattr(home, attr, None)), f"{name}: deskrl.{module_name} has no {attr}"


def _deskrl_uses(source: str) -> set[tuple[str, str]]:
    """(module, attribute) for each `from deskrl.m import a` and each `m.a`
    read through a module bound by `from deskrl import m`."""
    tree = ast.parse(source)
    modules: set[str] = set()
    uses: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "deskrl":
            modules.update(alias.asname or alias.name for alias in node.names)
            uses.update(("", alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("deskrl."):
            uses.update((node.module[len("deskrl."):], alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            uses.add((node.value.id, node.attr))
    return uses


@pytest.mark.parametrize("script", ["worker.py", "workloads.py"])
def test_benchmark_scripts_find_their_deskrl_names(script):
    with open(os.path.join(PERFBENCH, script), encoding="utf-8") as fh:
        uses = _deskrl_uses(fh.read())
    assert uses
    for module_name, attr in sorted(uses):
        if module_name:
            home = importlib.import_module(f"deskrl.{module_name}")
            assert hasattr(home, attr), f"{script}: deskrl.{module_name} has no {attr}"
        else:  # `from deskrl import m` names a submodule
            importlib.import_module(f"deskrl.{attr}")
