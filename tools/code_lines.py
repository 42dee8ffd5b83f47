"""Count the code lines of the `geomean` package.

    python3 tools/code_lines.py [DIR]

A code line is a physical line of a module that holds a token of code:
docstrings (the string that opens a module, class or function body,
found with `ast`), comments and blank lines (found with `tokenize`) are
not counted.  Every line of a statement that spans lines is counted.
Prints one `<module> <count>` line per module of DIR (default
`src/geomean` beside this script's directory), then `total <count>`.
"""

import argparse
import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source):
    """The line numbers of the docstrings in a module's source."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """How many lines of a module's source are code lines."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv=None):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?",
                        default=os.path.join(here, "src", "geomean"))
    args = parser.parse_args(argv)
    total = 0
    for name in sorted(os.listdir(args.dir)):
        if name.endswith(".py"):
            with open(os.path.join(args.dir, name), encoding="utf-8") as f:
                count = code_lines(f.read())
            print(f"{name} {count}")
            total += count
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
