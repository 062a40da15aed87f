"""The benchmark under perfbench/ finds every deskrl name it uses.

perfbench/tracer.py wraps functions and methods by (module, attribute)
name, and perfbench/worker.py and perfbench/workloads.py call deskrl
directly.  A rename or deletion in deskrl that breaks one of them would
otherwise show only when the benchmark runs.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

from deskrl_names import assert_deskrl_names_exist

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


@pytest.mark.parametrize("attr", ["step", "reset"])
def test_env_step_and_reset_spans_have_one_owner(attr):
    # the tracer wraps `step` and `reset` on every class of deskrl.envs that
    # defines them and counts one env step per `step` call; a second owner
    # (a batched helper or a task override) would be counted the same way
    envs = importlib.import_module("deskrl.envs")
    assert _TRACER.SPANS[f"envs.{attr}"] == ("envs", attr, "method")
    owners = [
        cls for cls in vars(envs).values()
        if inspect.isclass(cls) and cls.__module__ == envs.__name__ and attr in vars(cls)
    ]
    assert owners == [envs.ToyEnv]


@pytest.mark.parametrize("script", ["worker.py", "workloads.py"])
def test_benchmark_scripts_find_their_deskrl_names(script):
    assert_deskrl_names_exist(os.path.join(PERFBENCH, script))
