"""Every function, class and method in src/deskrl is referenced from src.

A definition that no code in the package names is dead to every shipped
path: only tests, notebooks or the benchmark could call it.  The walk
collects every name the package reads (bare names, attributes and
imported names) and every module-level function and class, and every
method, that it defines.  Dunder methods are called by Python itself.
A definition that stays on purpose is in ALLOWED, with its reason.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "deskrl")

ALLOWED = {
    "nn.forward": "a span that perfbench/tracer.py wraps by name (ROADMAP item 8 step 1)",
    "policy.mean_action": "a span that perfbench/tracer.py wraps by name (ROADMAP item 8 step 1)",
    "policy.sample_action": "a span that perfbench/tracer.py wraps by name (ROADMAP item 8 step 1)",
    "cli._Parser.error": "argparse calls it on a bad command line",
}


def _modules() -> dict[str, ast.Module]:
    trees = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                trees[name[: -len(".py")]] = ast.parse(fh.read())
    return trees


def _definitions(module: str, tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of each module-level function and class and each method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((f"{module}.{node.name}", node.name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__")):
                    found.append((f"{module}.{node.name}.{item.name}", item.name))
    return found


def _references(trees) -> set[str]:
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_definition_is_referenced_from_src():
    modules = _modules()
    referenced = _references(modules.values())
    unreferenced = sorted(
        qualified
        for module, tree in modules.items()
        for qualified, name in _definitions(module, tree)
        if name not in referenced and qualified not in ALLOWED
    )
    assert not unreferenced, f"defined in src/deskrl but referenced nowhere in it: {unreferenced}"


def test_allowlist_names_live_unreferenced_definitions():
    # an entry whose definition is gone, or is now referenced, is stale
    modules = _modules()
    referenced = _references(modules.values())
    defined = {q: name for module, tree in modules.items() for q, name in _definitions(module, tree)}
    for qualified, reason in ALLOWED.items():
        assert reason
        assert qualified in defined, f"{qualified} is not defined in src/deskrl"
        assert defined[qualified] not in referenced, f"{qualified} is referenced now; drop it from ALLOWED"
