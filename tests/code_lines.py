"""Count the code lines of src/deskrl, the size figure ROADMAP.md and
CHANGES.md quote.

A code line is a line that holds a token which is neither a comment nor
part of a module, class or function docstring.  Blank lines, comment
lines and docstring lines do not count; every line a statement or an
expression spans does, and so does every line of a string literal that
is not a docstring.  Run as a script,

    python tests/code_lines.py

prints the count of each module and the total.
"""

import ast
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "deskrl")

# tokens that hold no code: layout, comments and the file's encoding
_NOT_CODE = frozenset(
    {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
     tokenize.ENDMARKER, tokenize.ENCODING}
)
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in `source` (see the module docstring)."""
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docstrings)
    return len(lines)


def count_modules() -> dict[str, int]:
    """Code lines of each module of src/deskrl, by file name."""
    counts = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                counts[name] = code_lines(fh.read())
    return counts


if __name__ == "__main__":
    counts = count_modules()
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  src/deskrl")
