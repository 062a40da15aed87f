"""Only nn, pointnet and policy run a net in src/deskrl.

nn holds the one dense forward and backward on bound layers, pointnet
the encoder's passes, and policy the passes of the whole policy: the
padded forward behind every action (_heads) and the training pass with
its backward (trace, backward), on which the PPO and BC losses sit (see
the policy docstring).  A call that binds layers, runs them, runs an
encoder pass or reads a parameter's place in the flat vector anywhere
else would be a second home for how the policy's nets fit together.
The walk flags every call of a function or attribute so named, with
the function it sits in.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "deskrl")

RUNNERS = ("nn", "pointnet", "policy")
NET_CALLS = frozenset({
    "layers",
    "forward_layers",
    "backward_layers",
    "encode_batch_trace",
    "encode_batch_padded",
    "encode_batch_backward",
    "slice_bounds",
})


def _net_calls() -> list[tuple[str, str, str]]:
    """(module, enclosing function or class qualified by module, called
    name) of each call in src/deskrl of a name in NET_CALLS."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in NET_CALLS:
                    found.append((module, scope, name))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, module, f"{scope}.{child.name}" if named else scope)

    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            module = name[: -len(".py")]
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                visit(ast.parse(fh.read()), module, module)
    return found


def test_only_nn_pointnet_and_policy_run_nets():
    calls = _net_calls()
    outside = sorted({f"{scope} calls {name}(" for module, scope, name in calls if module not in RUNNERS})
    assert not outside, outside
    # the walk sees every name it looks for where the nets do run
    assert {name for module, _, name in calls if module in RUNNERS} == NET_CALLS
