"""The two maintenance scripts under tools/: the code-line counter and the
output digest."""

import importlib.util
import pathlib
import re

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_by_hand(tmp_path):
    path = tmp_path / "module.py"
    path.write_text('"""Module docstring,\n'
                    'two lines."""\n'
                    "\n"
                    "# a comment line\n"
                    "import math  # a trailing comment\n"
                    "\n"
                    "\n"
                    "def f(x):\n"
                    '    """Function docstring."""\n'
                    '    text = """a string\n'
                    "over three\n"
                    'lines"""\n'
                    "    return math.sqrt(x), text\n")
    # import, def, the three lines of the string and the return
    assert _load("code_lines").code_lines(path) == 6


def test_digest_line_of_version():
    digest = _load("output_digest")
    line = digest.digest_line(digest.SRC, ("--version",))
    assert re.fullmatch(r"[0-9a-f]{16} [0-9a-f]{16} 0 --version", line)


def test_code_lines_counts_a_package_under_another_source_directory(tmp_path, capsys):
    package = tmp_path / "h2ent"
    package.mkdir()
    (package / "__init__.py").write_text('"""Package docstring."""\n\nfrom .a import f\n')
    (package / "a.py").write_text("# a comment\n\ndef f():\n    return 1\n")
    code_lines = _load("code_lines")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["     1  h2ent/__init__.py",
                                                    "     2  h2ent/a.py",
                                                    "     3  total"]
    assert code_lines.main([str(tmp_path / "h2ent")]) == 2
    assert "no h2ent package under" in capsys.readouterr().err
