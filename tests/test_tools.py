"""The maintenance scripts under tools/: the code-line counter, the output
digest and the benchmark trajectory."""

import importlib.util
import json
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


def test_bench_trajectory_reads_two_layouts(tmp_path, capsys):
    # the nested layout of BENCH_17-26 and the flat one of BENCH_30-33, the
    # flat one written as BENCH_4 so that PR order and name order differ
    nested = {"workloads": {"library-sweep": {"metrics": {"call_p50_s": {
        "parent": {"median": 1.25e-4, "runs": [1.2e-4, 1.3e-4]},
        "change": {"median": 1.0e-4, "runs": [1.0e-4, 1.0e-4]}}}}}}
    flat = {"workloads": {"library-sweep": {"call_p50_s": {
        "parent_runs": [6.0e-5, 5.9e-5], "parent_median": 5.95e-5, "change_median": 5.0e-5}},
        "verify": {"wall_s": {"parent_median": 1.0, "change_median": 1.1}}}}
    (tmp_path / "BENCH_26.json").write_text(json.dumps(nested))
    (tmp_path / "BENCH_4.json").write_text(json.dumps(flat))
    (tmp_path / "BENCH_notes.json").write_text("not a benchmark")
    bench = _load("bench_trajectory")
    assert bench.trajectory("call_p50_s", "library-sweep", tmp_path) == [
        ("BENCH_4.json", 5.95e-5, 5.0e-5), ("BENCH_26.json", 1.25e-4, 1.0e-4)]
    assert bench.trajectory("wall_s", "verify", tmp_path) == [
        ("BENCH_4.json", 1.0, 1.1), ("BENCH_26.json", None, None)]
    assert bench.main(["wall_s", "verify", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "file                 parent       change      rel",
        "BENCH_4.json              1          1.1   +10.0%",
        "BENCH_26.json             -            -        -"]
    assert bench.main(["wall_s", "verify", str(tmp_path / "none")]) == 2
    assert "no BENCH_<pr>.json under" in capsys.readouterr().err
