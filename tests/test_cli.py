import dataclasses
import hashlib
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import threading

import pytest

import h2ent.cli
import h2ent.scan
from h2ent.cli import main
from h2ent.scan import (FIGURE_CONFIGS, SCALAR_ROWS, SCAN_FIELDS, ScanConfig, grid_rows,
                        grid_values, record_at)

HEADER = "s,e_psi1,e_psi2,e_ci,c1_sq,c2_sq,concurrence,entropy"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(args, stdout=subprocess.PIPE, env=None):
    """`python args` in a fresh interpreter that imports this h2ent, stdout
    to `stdout`; each item of `env` sets a variable, or unsets it if None."""
    src = str(pathlib.Path(h2ent.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    environ = {**os.environ, "PYTHONPATH": path, **(env or {})}
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=300,
                          env={k: v for k, v in environ.items() if v is not None})


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


@pytest.mark.parametrize("command, option, message", [
    (["point"], "--s", "--s must be finite and > 0"),
    (["scan", "--s-max", "1", "--steps", "3"], "--s-min", "s_min must be finite and > 0"),
    (["scan", "--s-min", "1", "--steps", "3"], "--s-max", "s_max must be finite and > 0"),
    # two negative bounds in one argv: both are joined, and s_min is refused first
    (["scan", "--s-max", "-1e-2", "--steps", "3"], "--s-min", "s_min must be finite and > 0"),
    # abbreviations argparse accepts
    (["scan", "--s-max", "1", "--steps", "3"], "--s-mi", "s_min must be finite and > 0"),
    (["scan", "--s-min", "1", "--steps", "3"], "--s-ma", "s_max must be finite and > 0"),
    (["scan", "--s-ma", "-1e-2", "--steps", "3"], "--s-mi", "s_min must be finite and > 0"),
])
@pytest.mark.parametrize("value", ["-1e-3", "-1E5", "-.5e1", "-1.", "-inf"])
def test_negative_float_options_refuse_alike_in_either_form(command, option, message, value,
                                                            capsys):
    # argparse's negative-number pattern has no exponent: `--s -1e-3` gave
    # its usage text, `argument --s: expected one argument`
    joined = run_cli(command + [f"{option}={value}"], capsys)
    assert joined == (2, "", f"h2e: error: {message}, got {float(value)!r}\n")
    assert run_cli(command + [option, value], capsys) == joined


def test_steps_abbreviation_takes_no_negative_float(capsys):
    # only --s, --s-min and --s-max (or their abbreviations) are joined
    # with a negative float that follows; an int option is left to argparse
    code, out, err = run_cli(["scan", "--s-min", "1", "--s-max", "2", "--st", "-1e-3"], capsys)
    assert (code, out) == (2, "")
    assert err.endswith("h2e scan: error: argument --steps: expected one argument\n")


def test_point_rejects_unknown_unit(capsys):
    code, _, _ = run_cli(["point", "--s", "1.0", "--unit", "joule"], capsys)
    assert code == 2


# s -> 0 divides by 1 - S^2 = 0; s = 700 gives c1 = nan; s = 710 and 800
# overflow exp(s).  Past 700 the refusal names s, as the array path does
@pytest.mark.parametrize("s", ["1e-9", "700", "710", "800"])
def test_point_refuses_unevaluable_distance(s, capsys):
    code, out, err = run_cli(["point", "--s", s], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("h2e: error: ") and "Traceback" not in err
    assert err.count("\n") == 1 and err.endswith("\n")
    if float(s) >= 700.0:
        assert err.endswith(f"(ValueError: non-finite result at s = {float(s)!r})\n")


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
    ["scan", "--s-min", "0.00999", "--s-max", "10", "--steps", str(SCALAR_ROWS + 1)],
])
def test_grid_commands_refuse_grid_starting_below_floor(command, capsys):
    code, out, err = run_cli(command, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("h2e: error: --s-min must be >= 0.01")


def test_point_refuses_non_finite_record(capsys, monkeypatch):
    # a non-finite column, as record_at's own check sees it
    real = h2ent.scan.ci_solve
    monkeypatch.setattr(h2ent.scan, "ci_solve",
                        lambda *a: dataclasses.replace(real(*a), e_psi2=math.inf))
    code, out, err = run_cli(["point", "--s", "1.5"], capsys)
    assert code == 2 and out == ""
    assert "non-finite result at s = 1.5" in err


@pytest.mark.parametrize("command", [
    ["scan", "--s-min", "600", "--s-max", "800", "--steps", "5"],
    ["scan", "--s-min", "1e-9", "--s-max", "1", "--steps", "5", "--format", "json"],
    ["scan", "--s-min", "1", "--s-max", "800", "--steps", str(SCALAR_ROWS + 1)],
])
def test_grid_commands_refuse_unevaluable_distances(command):
    # in a fresh interpreter, so that any warning, numpy's on the array path
    # included, would reach stderr
    proc = run_python(["-m", "h2ent", *command])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("h2e: error: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


@pytest.mark.parametrize("command", [
    ["scan", "--s-min", "0.5", "--s-max", "2e12", "--steps", "5000"],
    ["scan", "--s-min", "0.5", "--s-max", "4e307", "--steps", "5000"],
    ["scan", "--s-min", "0.5", "--s-max", "4.5e307", "--steps", "5000"],
    ["scan", "--s-min", "0.5", "--s-max", "1.7e308", "--steps", "5000"],
])
def test_array_grid_reaching_huge_distances_is_refused_without_traceback(command):
    # the array path evaluates E1 at 2s and 4s.  A continued fraction for
    # E1 once did not converge for many x above 5e11 (here x = 4.29e12,
    # 3.2e304 and 1.37e305) and exited 1 with a RuntimeError traceback; past
    # s = 4.49e307, 4s overflows to inf, which E1 refused for the whole grid
    proc = run_python(["-m", "h2ent", *command])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("h2e: error: ") and "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert "(ValueError: non-finite result at s = " in proc.stderr


@pytest.mark.parametrize("steps", [5, SCALAR_ROWS + 1])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_grid_refusal_names_the_distance_on_either_path(steps, fmt, capsys):
    code, out, err = run_cli(["scan", "--s-min", "600", "--s-max", "800",
                              "--steps", str(steps), "--format", fmt], capsys)
    assert code == 2 and out == ""
    head = ("h2e: error: input outside the domain the closed forms can evaluate in "
            "float64 (ValueError: non-finite result at s = ")
    assert err.startswith(head) and err.endswith(")\n") and err.count("\n") == 1
    s = float(err[len(head):-2])
    assert s in grid_values(600.0, 800.0, steps).tolist() and 690.0 < s <= 800.0


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


@pytest.mark.parametrize("unit, variant", [("rydberg", "corrected"), ("ev", "printed"),
                                           ("hartree", "corrected")])
def test_scan_rows_within_the_threshold_are_point_records(unit, variant, capsys):
    # every row is record_at at the grid point, printed as `point` prints it
    grid = ["--s-min", "0.3", "--s-max", "600", "--steps", "301", "--unit", unit,
            "--h22", variant]
    code, out, _ = run_cli(["scan", *grid], capsys)
    assert code == 0
    _, *lines = out.splitlines()
    points = grid_values(0.3, 600.0, 301).tolist()
    assert lines == [",".join(format(v, ".12g") for v in record_at(s, variant, unit).values())
                     for s in points]
    code, out, _ = run_cli(["scan", *grid, "--format", "json"], capsys)
    assert code == 0
    assert [tuple(row.values()) for row in json.loads(out)] == [
        tuple(float(tok) for tok in line.split(",")) for line in lines]
    for i in (0, 57, 300):
        code, out, _ = run_cli(["point", "--s", repr(points[i]), "--unit", unit,
                                "--h22", variant], capsys)
        assert code == 0
        assert [ln.split(" = ")[1] for ln in out.splitlines()[2:]] == lines[i].split(",")


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


@pytest.mark.parametrize("option", ["--s-min", "--s-max"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_grid_commands_refuse_non_finite_bounds(option, value, capsys):
    # --s-max inf said "s_max must be > 0, got inf"
    bounds = {"--s-min": "1", "--s-max": "2", option: value}
    name = option[2:].replace("-", "_")
    code, out, err = run_cli(["scan", "--steps", "3", *[x for kv in bounds.items() for x in kv]],
                             capsys)
    assert code == 2 and out == ""
    assert err == f"h2e: error: {name} must be finite and > 0, got {float(value)!r}\n"


def test_grid_commands_document_out_and_parallel_alike(capsys):
    out_help = "output path (default: stdout)"
    parallel_help = "accepted for compatibility, must be >= 1 (default: 1); evaluation is serial"
    for command in ("scan", "figure"):
        code, out, _ = run_cli([command, "--help"], capsys)
        assert code == 0
        text = " ".join(out.split())
        assert f"--out OUT {out_help}" in text
        assert f"--parallel PARALLEL {parallel_help}" in text


def test_scan_unwritable_output_path(capsys):
    code, _, err = run_cli(["scan", "--s-min", "1", "--s-max", "2", "--steps", "3",
                            "--out", "/nonexistent-dir/x.csv"], capsys)
    assert code == 3
    assert "cannot write" in err


# sha256 of `scan --s-min 0.305 --s-max 19.995 --steps 50000`, captured when
# the whole table was rendered as one string
DENSE_SCAN = ["scan", "--s-min", "0.305", "--s-max", "19.995", "--steps", "50000"]
DENSE_SHA256 = {"csv": "9759be2ef5d47f2102ed0d477c12c8d59cdd220112c743009027c84148190c53",
                "json": "1749d9497d79123b266637dc8500f6e64e3ff625a2b7a2fddf9a4bf51f5ec133"}


@pytest.mark.parametrize("fmt", sorted(DENSE_SHA256))
def test_dense_scan_bytes_are_pinned(fmt, tmp_path, capsys):
    # 25 blocks of RENDER_ROWS rows, on stdout and in --out
    out_file = tmp_path / f"dense.{fmt}"
    code, out, _ = run_cli(DENSE_SCAN + ["--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DENSE_SHA256[fmt]
    assert run_cli(DENSE_SCAN + ["--format", fmt, "--out", str(out_file)], capsys)[0] == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == DENSE_SHA256[fmt]


def test_scan_output_independent_of_parallel(tmp_path, capsys):
    a = tmp_path / "p1.csv"
    b = tmp_path / "p3.csv"
    assert run_cli(["scan", "--s-min", "0.5", "--s-max", "6", "--steps", "40",
                    "--out", str(a), "--parallel", "1"], capsys)[0] == 0
    assert run_cli(["scan", "--s-min", "0.5", "--s-max", "6", "--steps", "40",
                    "--out", str(b), "--parallel", "3"], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", [
    ["scan", "--s-min", "0.5", "--s-max", "6", "--steps", "20"],
    ["figure", "--which", "fig1"]], ids=["scan", "figure"])
def test_parallel_option_contract(command, capsys, monkeypatch):
    # --parallel takes an integer >= 1 and changes nothing; no environment
    # variable stands in for it
    monkeypatch.delenv("H2E_PARALLEL", raising=False)
    code, serial, _ = run_cli(command, capsys)
    assert code == 0
    for bad in ("0", "-1", "banana"):
        code, out, err = run_cli(command + ["--parallel", bad], capsys)
        (line,) = [ln for ln in err.splitlines() if "error:" in ln]
        assert code == 2 and out == ""
        assert "--parallel" in line and repr(bad) in line and "Traceback" not in err
    monkeypatch.setenv("H2E_PARALLEL", "banana")
    assert run_cli(command, capsys)[:2] == (0, serial)
    assert run_cli(command + ["--parallel", "2"], capsys)[:2] == (0, serial)


# ---------------------------------------------------------------- figure

def test_figure_column_sets(capsys):
    expectations = {
        "fig1": "s,e_psi1,e_ci",
        "fig2": "s,c1_sq,c2_sq",
        "fig3": "c1,concurrence",
        "fig4": "s,e_ci,concurrence",
    }
    for which, header in expectations.items():
        code, out, _ = run_cli(["figure", "--which", which], capsys)
        assert code == 0
        assert out.split("\n", 1)[0] == header
        # the columns at any grid size, through the library
        fields, _ = grid_rows(which, ScanConfig(steps=41))
        assert ",".join(fields) == header


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


def test_figure_fig1_separated_atom_limit():
    _, rows = grid_rows("fig1", ScanConfig(s_min=0.5, s_max=10.0, steps=96))
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
            args = ["figure", "--which", which, "--out", str(p), "--parallel", parallel]
            assert run_cli(args, capsys)[0] == 0
            paths.append(p)
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]


def test_figure_rejects_unknown_name(capsys):
    assert run_cli(["figure", "--which", "fig9"], capsys)[0] == 2


@pytest.mark.parametrize("which", ["fig1", "fig3"])
@pytest.mark.parametrize("option, value", [
    ("--s-min", "0.5"), ("--s-min", "-1e-3"), ("--s-max", "10"), ("--steps", "41"),
    ("--unit", "ev"), ("--h22", "printed")])
def test_figure_takes_no_grid_unit_or_variant_option(which, option, value, capsys):
    # each figure has one grid; scan, or grid_rows in the library, takes any
    joined = f"{option}={value}" if value.startswith("-") else f"{option} {value}"
    code, out, err = run_cli(["figure", "--which", which, option, value], capsys)
    assert (code, out) == (2, "")
    assert err.endswith(f"h2e: error: unrecognized arguments: {joined}\n")


def test_figure_help_names_each_fixed_grid(capsys):
    code, out, _ = run_cli(["figure", "--help"], capsys)
    assert code == 0
    text = " ".join(out.split())
    grid, fig3 = FIGURE_CONFIGS["fig1"], FIGURE_CONFIGS["fig3"]
    assert all(FIGURE_CONFIGS[which] == grid for which in ("fig2", "fig4"))
    assert (f"fig1, fig2 and fig4: {grid.steps} points of s in [{grid.s_min:g}, "
            f"{grid.s_max:g}], {grid.unit}, {grid.h22_variant} H22; fig3: the concurrence "
            f"at {fig3.steps} points of c1 in [0, 1]") in text


# ---------------------------------------------------------------- verify

# `python -c` source that runs `h2e verify` at 10 000 Monte Carlo samples, a
# fiftieth of MC_SAMPLES; sigma then exceeds MC_SIGMA_MAX, so the report
# fails its Monte Carlo checks
SMALL_VERIFY = ("import sys, h2ent.cli\n"
                "h2ent.cli.MC_SAMPLES = 10_000\n"
                "sys.exit(h2ent.cli.main(['verify']))\n")


def small_verify(monkeypatch, samples, seed=h2ent.cli.MC_SEED):
    """Make `verify` run at `samples` Monte Carlo samples from `seed` for the
    rest of the test, in less time than at MC_SAMPLES."""
    monkeypatch.setattr(h2ent.cli, "MC_SAMPLES", samples)
    monkeypatch.setattr(h2ent.cli, "MC_SEED", seed)


def test_verify_report_is_deterministic(capsys, monkeypatch):
    small_verify(monkeypatch, 20_000, seed=7)
    code1, out1, _ = run_cli(["verify"], capsys)
    code2, out2, _ = run_cli(["verify"], capsys)
    assert code1 == code2
    assert out1 == out2
    assert "result:" in out1


def test_verify_flags_printed_variant(capsys, monkeypatch):
    small_verify(monkeypatch, 20_000, seed=7)
    code, out, _ = run_cli(["verify"], capsys)
    printed_row = next(ln for ln in out.split("\n") if ln.strip().startswith("printed"))
    corrected_row = next(ln for ln in out.split("\n") if ln.strip().startswith("corrected"))
    assert "FLAG" in printed_row
    assert "PASS" in corrected_row


def test_verify_output_is_pinned(capsys, monkeypatch):
    # 100003 samples span several oracle blocks plus a short tail; the file
    # holds the report of the one-array implementation, byte for byte.  At
    # this sample count sigma exceeds 1e-3, so the MC checks FAIL (exit 1).
    golden = pathlib.Path(__file__).parent / "data" / "verify_samples100003_seed7.txt"
    small_verify(monkeypatch, 100_003, seed=7)
    code, out, _ = run_cli(["verify"], capsys)
    assert out == golden.read_text(encoding="utf-8")
    assert code == 1


def test_verify_passes_at_its_defaults(capsys):
    # MC_SAMPLES is sized so that every Monte Carlo sigma is within
    # MC_SIGMA_MAX and every check of the default report passes; the file
    # holds that report, byte for byte
    golden = pathlib.Path(__file__).parent / "data" / "verify_default.txt"
    code, out, _ = run_cli(["verify"], capsys)
    assert out == golden.read_text(encoding="utf-8")
    assert code == 0
    assert out.endswith("result: PASS\n")
    sigmas = [float(word[len("sigma="):]) for word in out.split() if word.startswith("sigma=")]
    assert len(sigmas) == 19
    assert max(sigmas) <= h2ent.cli.MC_SIGMA_MAX
    assert "FAIL" not in out


@pytest.mark.parametrize("command", [
    ["scan", "--s-min", "1", "--s-max", "2", "--steps", "1000000000000000"],
])
def test_commands_refuse_sizes_beyond_memory(command, capsys):
    # 1e15 elements (8 PB): numpy refuses the array before it allocates any
    code, out, err = run_cli(command, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("h2e: error: input too large for the available memory")
    assert err.count("\n") == 1


def test_verify_rejects_bad_arguments(capsys):
    # the Monte Carlo seed and sample count are constants, not options, and
    # so is the H22 variant the report counts
    for option, value in (("--seed", "7"), ("--seed", "-3"), ("--samples", "10"),
                          ("--samples", "1000000000000000"), ("--h22", "corrected"),
                          ("--h22", "printed")):
        code, out, err = run_cli(["verify", option, value], capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f"h2e: error: unrecognized arguments: {option} {value}\n")


def test_verify_result_counts_the_failed_lines(capsys, monkeypatch):
    # an offset S fails its six quadrature lines in [1], an offset k its
    # Monte Carlo and quadrature lines in [2] and [3]
    real = h2ent.cli.integral_set
    monkeypatch.setattr(h2ent.cli, "integral_set", lambda s: dataclasses.replace(
        real(s), S=real(s).S + 0.01, k=real(s).k + 0.01))
    small_verify(monkeypatch, 10_000)
    code, out, _ = run_cli(["verify"], capsys)
    failed = [ln for ln in out.splitlines() if ln.endswith("FAIL")]
    assert len([ln for ln in failed if " S  closed=" in ln]) == 6
    assert len([ln for ln in failed if " k  closed=" in ln]) == 12
    assert out.endswith(f"\nresult: FAIL ({len(failed)} checks)\n")
    assert code == 1


# ---------------------------------------------------------------- write failures

@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", [
    ["-m", "h2ent", "point", "--s", "1.5"],
    ["-m", "h2ent", "scan", "--s-min", "0.5", "--s-max", "10", "--steps", "400"],
    ["-m", "h2ent", "figure", "--which", "fig1"],
    ["-c", SMALL_VERIFY],
    ["-m", "h2ent", "--version"],
    ["-m", "h2ent", "--help"],
], ids=["point", "scan", "figure", "verify", "--version", "--help"])
def test_stdout_write_failure_exits_3(command, unbuffered):
    # a full device fails the write (unbuffered stdout) or the flush
    # (buffered); either way one error line and exit 3, not a traceback or
    # a second failure in the interpreter's final flush.  argparse ignores a
    # failed write of --help and --version; they exited 0 unbuffered
    with open("/dev/full", "w") as full:
        proc = run_python(command, stdout=full,
                          env={"PYTHONUNBUFFERED": unbuffered})
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("h2e: error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


def test_closed_stdout_exits_3():
    # with descriptor 1 closed at start-up, sys.stdout is None
    code = ("import os, sys\n"
            "os.close(1)\n"
            "os.execv(sys.executable, [sys.executable, '-m', 'h2ent', 'point', '--s', '1.5'])\n")
    proc = run_python(["-c", code])
    assert proc.returncode == 3
    assert proc.stderr.startswith("h2e: error: cannot write stdout: [Errno 9]")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_closed_pipe_exits_3_silently(unbuffered):
    # the reader takes 100 bytes of a 6 MB scan and closes its end
    read_fd, write_fd = os.pipe()

    def read_100():
        with os.fdopen(read_fd, "rb") as reader:
            reader.read(100)

    reader = threading.Thread(target=read_100)
    reader.start()
    try:
        proc = run_python(["-m", "h2ent", *DENSE_SCAN], stdout=write_fd,
                          env={"PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write_fd)
        reader.join(timeout=60)
    assert not reader.is_alive()
    assert proc.returncode == 3
    assert proc.stderr == ""


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
            "h2ent.cli.MC_SAMPLES = 10_000\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    h2ent.cli.main(['verify'])\n"
            "assert loaded() == [], 'verify'\n"
            "assert built() == [1, 1, 1], 'verify'\n")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr


def test_point_does_not_import_numpy():
    # numpy loads where arrays start: not for the package, the CLI or point,
    # accepted or refused, nor for figure, nor for scan grids of at most
    # SCALAR_ROWS points, nor for fig3's rows at any size; the oracle's names
    # resolve on first access
    code = ("import sys, io, contextlib\n"
            "import h2ent\n"
            "assert 'numpy' not in sys.modules, 'import h2ent'\n"
            "import h2ent.cli\n"
            "from h2ent.scan import SCALAR_ROWS\n"
            "assert 'numpy' not in sys.modules, 'import h2ent.cli'\n"
            "def run(argv, want=0):\n"
            "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "            contextlib.redirect_stderr(io.StringIO()):\n"
            "        assert h2ent.cli.main(argv) == want, argv\n"
            "for s, want in (('1.5', 0), ('1e-4', 2), ('800', 2)):\n"
            "    run(['point', '--s', s], want)\n"
            "    assert 'numpy' not in sys.modules, 'point --s ' + s\n"
            "grid = ['--s-min', '0.5', '--s-max', '10', '--steps']\n"
            "for argv in (['scan', *grid, '400'], ['scan', *grid, '400', '--format', 'json'],\n"
            "             ['figure', '--which', 'fig1'], ['figure', '--which', 'fig2'],\n"
            "             ['figure', '--which', 'fig3'], ['figure', '--which', 'fig4'],\n"
            "             ['scan', *grid, str(SCALAR_ROWS)]):\n"
            "    run(argv)\n"
            "    assert 'numpy' not in sys.modules, argv\n"
            "h2ent.scan.grid_rows('fig3', h2ent.scan.ScanConfig(steps=5000))\n"
            "assert 'numpy' not in sys.modules, 'fig3 at 5000 steps'\n"
            "run(['scan', '--s-min', '600', '--s-max', '800', '--steps', '5'], 2)\n"
            "assert 'numpy' not in sys.modules, 'refused scan'\n"
            "run(['scan', *grid, str(SCALAR_ROWS + 1)])\n"
            "assert 'numpy' in sys.modules, 'scan past SCALAR_ROWS'\n"
            # 10 000 samples miss the MC sigma bound, which fails a check
            "h2ent.cli.MC_SAMPLES = 10_000\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert h2ent.cli.main(['verify']) in (0, 1)\n"
            "from h2ent import mc_two_electron\n"
            "assert mc_two_electron is h2ent.oracle.mc_two_electron\n"
            "assert all(hasattr(h2ent, name) for name in h2ent.__all__)\n")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr


# the standard-library modules that h2ent's modules import at module level
CLI_STDLIB_IMPORTS = ("argparse", "contextlib", "dataclasses", "errno", "functools", "io",
                      "json", "math", "operator", "os", "sys", "types")


def test_import_cli_loads_nothing_past_its_standard_library_imports():
    # a fresh `import h2ent.cli` is the start-up cost of every h2e call: it
    # loads h2ent and what the imports above load, nothing more.  cmath, for
    # one, is a shared library of its own
    code = ("import sys\n"
            f"import {', '.join(CLI_STDLIB_IMPORTS)}\n"
            "before = set(sys.modules)\n"
            "import h2ent.cli\n"
            "extra = sorted(m for m in set(sys.modules) - before\n"
            "               if m != 'h2ent' and not m.startswith('h2ent.'))\n"
            "assert extra == [], extra\n")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr


def test_console_script_available():
    exe = shutil.which("h2e")
    if exe is None:
        pytest.skip("h2e console script not on PATH")
    proc = subprocess.run([exe, "point", "--s", "1.67"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "concurrence = " in proc.stdout
