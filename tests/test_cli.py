import dataclasses
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import h2ent.cli
from h2ent.cli import main
from h2ent.scan import SCAN_FIELDS

HEADER = "s,e_psi1,e_psi2,e_ci,c1_sq,c2_sq,concurrence,entropy"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(args):
    """`python args` in a fresh interpreter that imports this h2ent."""
    src = str(pathlib.Path(h2ent.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


# ---------------------------------------------------------------- point

def test_point_outputs_labeled_record(capsys):
    code, out, _ = run_cli(["point", "--s", "1.67"], capsys)
    assert code == 0
    for name in SCAN_FIELDS:
        assert f"{name} = " in out
    values = dict(ln.split(" = ") for ln in out.strip().split("\n")[2:])
    assert float(values["e_ci"]) == pytest.approx(-0.237, abs=0.01)
    assert float(values["c1_sq"]) + float(values["c2_sq"]) == pytest.approx(1.0, abs=1e-10)


def test_point_large_distance_concurrence(capsys):
    code, out, _ = run_cli(["point", "--s", "20"], capsys)
    assert code == 0
    values = dict(ln.split(" = ") for ln in out.strip().split("\n")[2:])
    assert float(values["concurrence"]) >= 0.98


def test_point_output_is_pinned(capsys):
    # stdout of `h2e point` at 40 log-spaced s in [1e-2, 650], both --h22 and
    # all three units, captured from the scalar path before its closed forms
    # were shared with the array path; each block is "$ h2e ARGS" and then the
    # bytes those arguments print.  12-digit text, not repr, so that the file
    # does not pin the last bit of the platform's libm
    text = (pathlib.Path(__file__).parent / "data" / "point_golden.txt").read_text(
        encoding="utf-8")
    blocks = text.split("$ h2e ")[1:]
    assert len(blocks) == 240
    for block in blocks:
        command, expected = block.split("\n", 1)
        assert run_cli(command.split(), capsys) == (0, expected, ""), command


def test_point_rejects_nonpositive_distance(capsys):
    code, out, err = run_cli(["point", "--s", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert "error" in err


def test_point_rejects_unknown_unit(capsys):
    code, _, _ = run_cli(["point", "--s", "1.0", "--unit", "joule"], capsys)
    assert code == 2


# s -> 0 divides by 1 - S^2 = 0; s = 700 gives c1 = nan; s = 800 overflows exp(s)
@pytest.mark.parametrize("s", ["1e-9", "700", "800"])
def test_point_refuses_unevaluable_distance(s, capsys):
    code, out, err = run_cli(["point", "--s", s], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("h2e: error: ") and "Traceback" not in err


# below MIN_DISTANCE = 1e-2 the closed forms lose digits: at 1e-4 e_ci was
# -8.1e9 Ry, at 1.585e-9 -6.43e19 Ry with exit 0, and 2.08e-9 divided by zero
@pytest.mark.parametrize("s", ["1e-4", "1.585e-9", "2.08e-9", "0.00999"])
def test_point_refuses_distance_below_floor(s, capsys):
    code, out, err = run_cli(["point", "--s", s], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("h2e: error: --s must be >= 0.01")


def test_point_accepts_distance_at_floor(capsys):
    code, out, _ = run_cli(["point", "--s", repr(h2ent.cli.MIN_DISTANCE)], capsys)
    assert code == 0 and "e_ci = " in out


@pytest.mark.parametrize("command", [
    ["scan", "--s-min", "1e-3", "--s-max", "1", "--steps", "5"],
    ["scan", "--s-min", "1.585e-9", "--s-max", "0.5", "--steps", "50", "--format", "json"],
    ["figure", "--which", "fig1", "--s-min", "1e-4"],
])
def test_grid_commands_refuse_grid_starting_below_floor(command, capsys):
    code, out, err = run_cli(command, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("h2e: error: --s-min must be >= 0.01")


def test_point_refuses_non_finite_record(capsys, monkeypatch):
    real = h2ent.cli.record_at
    monkeypatch.setattr(h2ent.cli, "record_at",
                        lambda *a: dataclasses.replace(real(*a), e_psi2=math.inf))
    code, out, err = run_cli(["point", "--s", "1.5"], capsys)
    assert code == 2 and out == ""
    assert "non-finite result at s = 1.5" in err


@pytest.mark.parametrize("command", [
    ["scan", "--s-min", "600", "--s-max", "800", "--steps", "5"],
    ["scan", "--s-min", "1e-9", "--s-max", "1", "--steps", "5", "--format", "json"],
    ["figure", "--which", "fig4", "--s-min", "1", "--s-max", "800", "--steps", "5"],
])
def test_grid_commands_refuse_unevaluable_distances(command):
    # in a fresh interpreter, so that any warning would reach stderr
    proc = run_python(["-m", "h2ent", *command])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("h2e: error: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


# ---------------------------------------------------------------- scan

def test_scan_csv_contract(capsys):
    code, out, _ = run_cli(["scan", "--s-min", "0.5", "--s-max", "10",
                            "--steps", "21"], capsys)
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == HEADER
    assert len(lines) == 23 and lines[-1] == ""  # 21 rows + header + trailing LF
    header, rows = parse_csv(out)
    assert header == list(SCAN_FIELDS)
    ss = [r[0] for r in rows]
    assert ss == sorted(ss)
    assert ss[0] == 0.5 and ss[-1] == 10.0
    for row in rows:
        rec = dict(zip(header, row))
        assert rec["c1_sq"] + rec["c2_sq"] == pytest.approx(1.0, abs=1e-10)
        assert rec["e_ci"] <= min(rec["e_psi1"], rec["e_psi2"])
        assert 0.0 <= rec["concurrence"] <= 1.0
        assert 1.0 - 1e-12 <= rec["entropy"] <= 2.0 + 1e-12


def test_scan_renders_12_significant_digits(capsys):
    _, out, _ = run_cli(["scan", "--s-min", "1", "--s-max", "2", "--steps", "3"], capsys)
    for token in out.strip().split("\n")[1].split(","):
        assert token == format(float(token), ".12g")


def test_scan_json_format(capsys):
    code, out, _ = run_cli(["scan", "--s-min", "1", "--s-max", "2", "--steps", "4",
                            "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    assert list(rows[0].keys()) == list(SCAN_FIELDS)


def test_scan_concurrence_monotone_and_c1sq_decreasing(capsys):
    _, out, _ = run_cli(["scan", "--s-min", "0.5", "--s-max", "10",
                         "--steps", "100"], capsys)
    header, rows = parse_csv(out)
    con = [r[header.index("concurrence")] for r in rows]
    c1s = [r[header.index("c1_sq")] for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(con, con[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(c1s, c1s[1:]))
    assert c1s[-1] == pytest.approx(0.5, abs=5e-3)


def test_scan_units_are_consistent(capsys):
    _, ry, _ = run_cli(["scan", "--s-min", "1", "--s-max", "3", "--steps", "9",
                        "--unit", "rydberg"], capsys)
    _, ha, _ = run_cli(["scan", "--s-min", "1", "--s-max", "3", "--steps", "9",
                        "--unit", "hartree"], capsys)
    _, ev, _ = run_cli(["scan", "--s-min", "1", "--s-max", "3", "--steps", "9",
                        "--unit", "ev"], capsys)
    _, ry_rows = parse_csv(ry)
    _, ha_rows = parse_csv(ha)
    _, ev_rows = parse_csv(ev)
    for rr, hh, vv in zip(ry_rows, ha_rows, ev_rows):
        for col in (1, 2, 3):
            assert rr[col] == pytest.approx(2.0 * hh[col], rel=1e-11, abs=1e-12)
            assert vv[col] == pytest.approx(27.211386245988 * hh[col], rel=1e-11, abs=1e-11)
        assert rr[4:] == pytest.approx(hh[4:], abs=1e-12)  # unitless columns agree


def test_scan_validation_errors(capsys):
    code, _, err = run_cli(["scan", "--s-min", "2", "--s-max", "1", "--steps", "5"], capsys)
    assert code == 2 and "s_min < s_max" in err
    code, _, _ = run_cli(["scan", "--s-min", "1", "--s-max", "2", "--steps", "1"], capsys)
    assert code == 2
    code, _, _ = run_cli(["scan", "--s-min", "1", "--s-max", "2", "--steps", "5",
                          "--parallel", "0"], capsys)
    assert code == 2


def test_scan_unwritable_output_path(capsys):
    code, _, err = run_cli(["scan", "--s-min", "1", "--s-max", "2", "--steps", "3",
                            "--out", "/nonexistent-dir/x.csv"], capsys)
    assert code == 3
    assert "cannot write" in err


def test_scan_output_independent_of_parallel(tmp_path, capsys):
    a = tmp_path / "p1.csv"
    b = tmp_path / "p3.csv"
    assert run_cli(["scan", "--s-min", "0.5", "--s-max", "6", "--steps", "40",
                    "--out", str(a), "--parallel", "1"], capsys)[0] == 0
    assert run_cli(["scan", "--s-min", "0.5", "--s-max", "6", "--steps", "40",
                    "--out", str(b), "--parallel", "3"], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_parallel_env_var(tmp_path, capsys, monkeypatch):
    a = tmp_path / "env.csv"
    monkeypatch.setenv("H2E_PARALLEL", "2")
    assert run_cli(["scan", "--s-min", "0.5", "--s-max", "6", "--steps", "20",
                    "--out", str(a)], capsys)[0] == 0
    b = tmp_path / "flag.csv"
    # explicit flag overrides the environment
    assert run_cli(["scan", "--s-min", "0.5", "--s-max", "6", "--steps", "20",
                    "--out", str(b), "--parallel", "1"], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    monkeypatch.setenv("H2E_PARALLEL", "banana")
    assert run_cli(["scan", "--s-min", "0.5", "--s-max", "6", "--steps", "20"],
                   capsys)[0] == 2


# ---------------------------------------------------------------- figure

def test_figure_column_sets(capsys):
    expectations = {
        "fig1": "s,e_psi1,e_ci",
        "fig2": "s,c1_sq,c2_sq",
        "fig3": "c1,concurrence",
        "fig4": "s,e_ci,concurrence",
    }
    for which, header in expectations.items():
        code, out, _ = run_cli(["figure", "--which", which, "--steps", "41"], capsys)
        assert code == 0
        assert out.split("\n", 1)[0] == header


def test_figure_fig3_peak_at_inverse_sqrt2(capsys):
    code, out, _ = run_cli(["figure", "--which", "fig3"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    c1s = [r[0] for r in rows]
    cons = [r[1] for r in rows]
    assert c1s[0] == 0.0 and c1s[-1] == 1.0
    assert cons[0] == 0.0 and cons[-1] == 0.0
    nearest = min(range(len(c1s)), key=lambda i: abs(c1s[i] - 1.0 / math.sqrt(2.0)))
    assert cons[nearest] >= 1.0 - 1e-6
    assert max(cons) <= 1.0 + 1e-15


def test_figure_fig1_separated_atom_limit(capsys):
    _, out, _ = run_cli(["figure", "--which", "fig1", "--s-min", "0.5",
                         "--s-max", "10", "--steps", "96"], capsys)
    header, rows = parse_csv(out)
    last = rows[-1]
    # CI curve dissociates to two neutral atoms; single-configuration curve
    # is still offset by its ionic m/2 - 1/(2s) tail (0.625 Ry only as s->inf)
    assert abs(last[2]) < 1e-4
    assert 0.4 < last[1] < 0.625


def test_figure_outputs_reproducible_across_runs_and_parallel(tmp_path, capsys):
    for which in ("fig1", "fig2", "fig3", "fig4"):
        paths = []
        for tag, parallel in (("a", "1"), ("b", "2"), ("c", "1")):
            p = tmp_path / f"{which}_{tag}.csv"
            args = ["figure", "--which", which, "--steps", "60", "--out", str(p),
                    "--parallel", parallel]
            assert run_cli(args, capsys)[0] == 0
            paths.append(p)
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]


def test_figure_rejects_unknown_name(capsys):
    assert run_cli(["figure", "--which", "fig9"], capsys)[0] == 2


# ---------------------------------------------------------------- verify

def test_verify_report_is_deterministic(capsys):
    args = ["verify", "--samples", "20000", "--seed", "7"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2
    assert out1 == out2
    assert "result:" in out1


def test_verify_flags_printed_variant(capsys):
    code, out, _ = run_cli(["verify", "--samples", "20000", "--seed", "7"], capsys)
    printed_row = next(ln for ln in out.split("\n") if ln.strip().startswith("printed"))
    corrected_row = next(ln for ln in out.split("\n") if ln.strip().startswith("corrected"))
    assert "FLAG" in printed_row
    assert "PASS" in corrected_row


def test_verify_selected_printed_variant_fails(capsys):
    code, out, _ = run_cli(["verify", "--samples", "20000", "--seed", "7",
                            "--h22", "printed"], capsys)
    assert code == 1
    printed_row = next(ln for ln in out.split("\n") if ln.strip().startswith("printed"))
    assert "FAIL" in printed_row


def test_verify_output_is_pinned(capsys):
    # 100003 samples span several oracle blocks plus a short tail; the file
    # holds the report of the one-array implementation, byte for byte.  At
    # this sample count sigma exceeds 1e-3, so the MC checks FAIL (exit 1).
    golden = pathlib.Path(__file__).parent / "data" / "verify_samples100003_seed7.txt"
    code, out, _ = run_cli(["verify", "--samples", "100003", "--seed", "7"], capsys)
    assert out == golden.read_text(encoding="utf-8")
    assert code == 1


def test_verify_passes_at_its_defaults(capsys):
    # the default sample count is sized so that every Monte Carlo sigma is
    # within MC_SIGMA_MAX and every check of the default report passes
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    assert out.endswith("result: PASS\n")
    sigmas = [float(word[len("sigma="):]) for word in out.split() if word.startswith("sigma=")]
    assert len(sigmas) == 19
    assert max(sigmas) <= h2ent.cli.MC_SIGMA_MAX
    assert "FAIL" not in out


@pytest.mark.parametrize("command", [
    ["scan", "--s-min", "1", "--s-max", "2", "--steps", "1000000000000000"],
    ["figure", "--which", "fig1", "--steps", "1000000000000000"],
    ["verify", "--samples", "1000000000000000"],
])
def test_commands_refuse_sizes_beyond_memory(command, capsys):
    # 1e15 elements (8 PB): numpy refuses the array before it allocates any
    code, out, err = run_cli(command, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("h2e: error: input too large for the available memory")
    assert err.count("\n") == 1


def test_verify_rejects_bad_arguments(capsys):
    assert run_cli(["verify", "--seed", "-3"], capsys)[0] == 2
    assert run_cli(["verify", "--samples", "10"], capsys)[0] == 2


# ---------------------------------------------------------------- entry points

def test_module_entry_point_runs():
    proc = run_python(["-m", "h2ent", "--version"])
    assert proc.returncode == 0
    assert proc.stdout.startswith("h2e ")


def test_point_and_scan_do_not_import_scipy():
    # the oracle is numpy alone: its quadrature rules, like the oracle's
    # thread pool, are built on first use, and neither scipy nor
    # numpy.polynomial is imported, not even by verify
    code = ("import sys, io, contextlib\n"
            "import h2ent.cli\n"
            "from h2ent.oracle import _exp_sinh, _tanh_sinh\n"
            "from h2ent._mc_kernels import _radius_table\n"
            "def built():\n"
            "    return [f.cache_info().currsize for f in (_exp_sinh, _tanh_sinh, _radius_table)]\n"
            "def loaded():\n"
            "    return [m for m in ('scipy', 'numpy.polynomial') if m in sys.modules]\n"
            "assert loaded() == [], 'import h2ent.cli'\n"
            # nor is the Monte Carlo radius table built before verify needs it
            "assert built() == [0, 0, 0], 'import h2ent.cli'\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert h2ent.cli.main(['point', '--s', '1.5']) == 0\n"
            "    assert h2ent.cli.main(['scan', '--s-min', '1', '--s-max', '2',"
            " '--steps', '5']) == 0\n"
            "assert loaded() == [], 'point/scan'\n"
            "assert built() == [0, 0, 0], 'point/scan'\n"
            # the thread pool serves only the Monte Carlo oracle
            "import threading\n"
            "assert 'concurrent.futures' not in sys.modules, 'point/scan'\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    h2ent.cli.main(['verify', '--samples', '10000'])\n"
            "assert loaded() == [], 'verify'\n"
            "assert built() == [1, 1, 1], 'verify'\n")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr


def test_console_script_available():
    exe = shutil.which("h2e")
    if exe is None:
        pytest.skip("h2e console script not on PATH")
    proc = subprocess.run([exe, "point", "--s", "1.67"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "concurrence = " in proc.stdout
