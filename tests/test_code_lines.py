import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "code_lines.py")
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# a docstring, comments, blank lines, a string that is not a docstring
# and statements over several lines: 7 code lines
_MODULE = '''"""Module docstring
over two lines."""

import math  # a comment

# a comment line


def f(x,
      y):
    """Function docstring."""
    s = """a string value
    over two lines"""
    return (x +
            y)
'''


def test_code_lines_of_a_small_module():
    assert code_lines.code_lines(_MODULE) == 7
    assert code_lines.docstring_lines(_MODULE) == {1, 2, 11}


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n\ny = 2  # two\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a.py 7\nb.py 2\ntotal 9\n"
