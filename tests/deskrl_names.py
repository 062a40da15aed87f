"""The deskrl names a script imports or reads, found by walking its syntax tree.

Scripts that the test suite never runs, such as the benchmark under
perfbench/ and the slow notebooks, would otherwise show a rename or
deletion in deskrl only when they run.
"""

import ast
import importlib
import os


def deskrl_uses(source: str) -> set[tuple[str, str]]:
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


def assert_deskrl_names_exist(path: str) -> None:
    """Every deskrl name the script at `path` uses exists; it uses some."""
    script = os.path.basename(path)
    with open(path, encoding="utf-8") as fh:
        uses = deskrl_uses(fh.read())
    assert uses, f"{script} uses no deskrl name"
    for module_name, attr in sorted(uses):
        if module_name:
            home = importlib.import_module(f"deskrl.{module_name}")
            assert hasattr(home, attr), f"{script}: deskrl.{module_name} has no {attr}"
        else:  # `from deskrl import m` names a submodule
            importlib.import_module(f"deskrl.{attr}")
