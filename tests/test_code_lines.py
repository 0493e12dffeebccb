"""tests/code_lines.py counts the code lines that ROADMAP and each change cite.

code_lines runs here on a synthetic module whose every line is either counted
or skipped for a stated reason.
"""

import textwrap

from code_lines import code_lines

SOURCE = textwrap.dedent('''\
    """Module docstring,
    over two lines."""

    # a comment alone
    import math  # counted: code with a trailing comment


    class Record:
        """Class docstring."""

        size = 3


    def area(r):
        """Function docstring,

        over three lines.
        """
        # another comment
        label = """a string that is no docstring
    spans two counted lines"""
        return math.pi * r * r, label


    async def later():
        """Async function docstring."""
        return "a one-line string, counted"
    ''')

# import, class, size, def, label's two lines, return, async def, its return
COUNTED = 9


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(SOURCE, encoding="utf-8")
    assert code_lines(path) == COUNTED
