"""Count the code lines of each module of the h2ent package.

A code line holds at least one token that is not a comment; blank lines,
comment lines and the lines of module, class and function docstrings are
not counted.  A string that spans lines counts every line it spans.
Standard library only.

Run from the repository root, for this tree's `src/` or another one:

    python tools/code_lines.py [SRC_DIR]
    diff <(python tools/code_lines.py OLD/src) <(python tools/code_lines.py)
"""

import ast
import pathlib
import sys
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print("usage: python tools/code_lines.py [SRC_DIR]", file=sys.stderr)
        return 2
    src = pathlib.Path(argv[0]).resolve() if argv else SRC
    package = src / "h2ent"
    if not (package / "__init__.py").is_file():
        print(f"code_lines: no h2ent package under {src}", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(src)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
