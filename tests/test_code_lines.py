"""The code-line rule of tests/code_lines.py, pinned on a small source."""

from code_lines import code_lines

SOURCE = '''"""A module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class Box:
    """A class docstring."""

    size = 1


def area(width,
         height):
    """A function docstring,

    with a blank line inside it.
    """
    # a comment inside the body
    total = (
        width
        * height
    )
    text = """not a docstring,
    but a string literal"""
    return total, text
'''


def test_docstrings_comments_and_blank_lines_are_not_code():
    # import, class, size, the two lines of def, the four of total, the two
    # of text, and return
    assert code_lines(SOURCE) == 1 + 1 + 1 + 2 + 4 + 2 + 1

