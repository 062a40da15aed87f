"""The mutant list (tests/mutants.py) follows the code it edits."""

import ast
import os

import pytest

from mutants import MUTANTS, mutate

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "deskrl")


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
