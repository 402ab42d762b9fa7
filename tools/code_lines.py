"""Count the code lines of each module under src/h2ent.

A code line holds at least one token that is not a comment; blank lines,
comment lines and the lines of module, class and function docstrings are
not counted.  A string that spans lines counts every line it spans.
Standard library only.

Run from the repository root:

    python tools/code_lines.py
"""

import ast
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "h2ent"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    """Number of code lines in one Python source file."""
    with tokenize.open(path) as f:
        source = f.read()
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source, str(path))))


def main() -> int:
    total = 0
    for path in sorted(ROOT.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(ROOT.parent.parent)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
