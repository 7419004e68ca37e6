import pytest

from helpers import load_module

code_lines = load_module("scripts/code_lines.py")

SAMPLE = '''"""Module docstring
over two lines."""
import math  # a trailing comment

# a comment-only line


class Box:
    """Class docstring."""

    def area(self):
        """Function docstring
        over two lines."""
        side = (math.pi +
                1.0)
        label = """a string
that is not a docstring"""
        return side * side, label
'''


def test_sample_counts_only_code_lines():
    # import, class, def, two lines of one statement, two of one string, return
    assert code_lines.code_lines(SAMPLE) == 8


@pytest.mark.parametrize("source, count", [
    ("x = 1  # a trailing comment\n", 1),
    ("x = (1,\n     2)\n", 2),
    ("x = '''one\ntwo\nthree'''\n", 3),
    ("\n\n# a comment\n   # an indented comment\n", 0),
    ('"""Module docstring."""\n', 0),
    ('class A:\n    """Class\n    docstring."""\n', 1),
    ('def f():\n    """Function docstring."""\n    return 1\n', 2),
], ids=["trailing-comment", "multi-line-statement", "string", "blank-and-comment",
        "module-docstring", "class-docstring", "function-docstring"])
def test_each_kind_of_line(source, count):
    assert code_lines.code_lines(source) == count


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text(SAMPLE)
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     1  a.py", "     8  b.py", "     9  total", ""]
