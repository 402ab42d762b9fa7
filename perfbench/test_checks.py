"""Tests of the benchmark's own checks: each one passes good output and
reports a failed operation for corrupted output.

    python3 -m pytest perfbench/test_checks.py -q

Good outputs are made from the mpmath reference in the CLI's formats, so
these tests need no h2ent subprocess except the tracer test.
"""

import json
import os
import subprocess
import sys

import pytest

import check
import reference
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fmt(x):
    return format(float(x), ".12g")


def scan_csv(s_min, s_max, steps, variant="corrected", unit="rydberg"):
    h = (s_max - s_min) / (steps - 1)
    lines = [",".join(reference.FIELDS)]
    for i in range(steps):
        rec = reference.record(s_min + i * h, variant, unit)
        lines.append(",".join(fmt(rec[f]) for f in reference.FIELDS))
    return "\n".join(lines) + "\n"


def replace_field(text, row, field, value):
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[reference.FIELDS.index(field)] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


SCAN_ARGV = ("scan", "--s-min", "0.5", "--s-max", "3", "--steps", "40")


@pytest.fixture(scope="module")
def good_scan():
    return scan_csv(0.5, 3.0, 40)


def scan_errors(text, argv=SCAN_ARGV):
    return check.check_scan(argv, text, "test", 1, 40)[0]


def test_reference_reproduces_paper_headline():
    rec = reference.record(1.668)
    assert abs(float(rec["e_ci"]) - (-0.2373)) < 1e-4
    assert abs(float(rec["concurrence"]) - 0.273) < 1e-3
    assert abs(float(rec["entropy"]) - 1.136) < 1e-3


def test_good_scan_passes(good_scan):
    assert scan_errors(good_scan) == []


@pytest.mark.parametrize("field,value", [
    ("e_ci", "-0.1"),                 # wrong digits, caught by the reference
    ("concurrence", "0.5"),           # breaks C = 2|c1 c2|
    ("c2_sq", "0.5"),                 # breaks c1^2 + c2^2 = 1
    ("entropy", "1.5"),               # breaks S = 1 + H2(c1^2)
    ("e_ci", "99"),                   # above the configuration energies
])
def test_corrupted_scan_row_fails(good_scan, field, value):
    # row 39 is always in the reference sample (the last row)
    assert scan_errors(replace_field(good_scan, 39, field, value))


def test_scan_order_count_and_header_fail(good_scan):
    lines = good_scan.splitlines()
    swapped = [lines[0], lines[2], lines[1]] + lines[3:]
    assert scan_errors("\n".join(swapped) + "\n")
    assert scan_errors("\n".join(lines[:-1]) + "\n")
    assert scan_errors(good_scan.replace("e_ci", "e_gs", 1))
    assert scan_errors("not,a,number\n1,2,x\n")


def test_falling_concurrence_fails():
    text = scan_csv(0.5, 10.0, 400)
    rows = [tuple(map(float, line.split(","))) for line in text.splitlines()[1:]]
    fields = ("s", "e_ci", "concurrence")
    table = [(r[0], r[3], r[6]) for r in rows]
    grid = (0.5, 10.0, 400)
    assert check.check_table(fields, table, grid, "corrected", "rydberg", []) == []
    table[10], table[11] = (table[10][0], table[10][1], table[11][2]), \
        (table[11][0], table[11][1], table[10][2])
    assert check.check_table(fields, table, grid, "corrected", "rydberg", [])


def test_minimum_must_sit_at_s_star():
    text = scan_csv(0.5, 10.0, 400)
    argv = ("scan", "--s-min", "0.5", "--s-max", "10", "--steps", "400")
    assert scan_errors(text, argv) == []
    rows = [tuple(map(float, line.split(","))) for line in text.splitlines()[1:]]
    assert check.check_minimum(reference.FIELDS, rows, "rydberg", 400) == []
    shifted = [r[:3] + (r[3] + 1e-3,) + r[4:] for r in rows]
    assert check.check_minimum(reference.FIELDS, shifted, "rydberg", 400)


def test_fig3():
    n = check.FIG3_STEPS
    rows = [(i / (n - 1), 2 * (i / (n - 1)) * (1 - (i / (n - 1)) ** 2) ** 0.5) for i in range(n)]
    rows = [(float(fmt(a)), float(fmt(b))) for a, b in rows]
    assert check.check_fig3(rows) == []
    rows[700] = (rows[700][0], rows[700][1] * (1 + 1e-9))
    assert check.check_fig3(rows)


def point_text(s, unit="rydberg", variant="corrected"):
    rec = reference.record(s, variant, unit)
    return "\n".join([f"unit = {unit}", f"h22 = {variant}"]
                     + [f"{f} = {fmt(rec[f])}" for f in reference.FIELDS]) + "\n"


def test_point_and_domain_edges():
    argv = ("point", "--s", "2.5", "--unit", "ev", "--h22", "printed")
    good = point_text(2.5, "ev", "printed")
    assert check.check_point(argv, 0, {"out": good, "err": ""}) == []
    bad = good.replace("concurrence = ", "concurrence = 1")
    assert check.check_point(argv, 0, {"out": bad, "err": ""})
    # today's s = 1e-4 output: exit 0 with e_ci of -1.6e10 Ry
    edge = ("point", "--s", "1e-4")
    wrong = point_text(1e-4).replace("e_ci = ", "e_ci = -16199797840.2 #")
    wrong = "\n".join(line.split(" #")[0] for line in wrong.splitlines()) + "\n"
    assert check.check_point(edge, 0, {"out": wrong, "err": ""})
    assert check.check_point(edge, 0, {"out": point_text(1e-4), "err": ""}) == []
    # a refusal with a message is a success, a traceback or a bare exit 2 is not
    assert check.check_point(edge, 2, {"out": "", "err": "h2e: error: s too small\n"}) == []
    assert check.check_point(edge, 2, {"out": "", "err": ""})
    op = workloads.Op("edge-1e-9", ("point", "--s", "1e-9"), True)
    traceback = "Traceback (most recent call last):\nZeroDivisionError: float division by zero\n"
    errors, _ = check.check_op("cli-startup", 1, op, 1, {"out": "", "err": traceback}, {})
    assert errors


def verify_text(mc_shift=1e-4, sigma=3e-4, e1="3.097e-15", status="PASS", result="PASS"):
    lines = ["h2e verify: closed forms vs independent numerical oracle",
             "backend: numpy   seed: 42   samples: 2000000",
             "h22 variant under test: corrected", "",
             "[1] one-electron integrals, nested adaptive quadrature (tol 1e-08)"]
    for s in check.VERIFY_S:
        q = reference.integrals(s)
        for key, label in (("S", "S "), ("jp", "j'"), ("kp", "k'")):
            v = float(q[key])
            lines.append(f"  s={s:<5g} {label} closed={v: .12e}  oracle={v: .12e}"
                         f"  |diff|=0.00e+00  PASS")
    lines += ["", "[2] two-electron integrals, importance-sampled Monte Carlo "
                  "(3 sigma, sigma <= 1e-03)"]
    lines.append(f"  m (any s)   closed={0.625: .9f}  mc={0.625 + mc_shift: .9f}"
                 f"  sigma={sigma:.2e}  |diff|/sigma={mc_shift / sigma:5.2f}  {status}")
    for s in check.VERIFY_S:
        q = reference.integrals(s)
        for kind in ("j", "k", "l"):
            v = float(q[kind])
            lines.append(f"  s={s:<5g} {kind}  closed={v: .9f}  mc={v + mc_shift: .9f}"
                         f"  sigma={sigma:.2e}  |diff|/sigma={mc_shift / sigma:5.2f}  PASS")
    lines += ["", "[3] exponential integral E1, series/CF vs quadrature "
                  "(50 log-spaced points in [1e-3, 50], rel tol 1e-12)",
              f"  max relative difference = {e1}  PASS", "",
              "[4] CI minimum arbitration (rydberg, grid s in [1.0, 2.5], target -0.237 +- 0.01)"]
    for variant, s, mark in (("corrected", 1.668, "PASS"), ("printed", 1.695, "FLAG")):
        e = float(reference.record(s, variant)["e_ci"])
        lines.append(f"  {variant:<9} min={e: .6f} at s={s:.4f}  |dev|={abs(e + 0.237):.4f}"
                     f"  {mark}")
    lines += ["", f"result: {result}"]
    return "\n".join(lines) + "\n"


def test_good_verify_passes():
    errors, rows = check.check_verify(0, verify_text())
    assert errors == [] and rows == 40


@pytest.mark.parametrize("kwargs,code", [
    ({"mc_shift": 1e-3}, 0),                   # an MC estimate 3.3 sigma off the reference
    ({"sigma": 2e-3, "mc_shift": 1e-3}, 0),    # sigma above 1e-3
    ({"e1": "2.0e-11"}, 0),                    # E1 line beyond its tolerance
    ({"status": "FAIL"}, 0),                   # a failing check line
    ({"result": "FAIL (1 checks)"}, 1),        # verification failed
])
def test_failing_verify_fails(kwargs, code):
    assert check.check_verify(code, verify_text(**kwargs))[0]


def test_verify_wrong_closed_value_fails():
    text = verify_text()
    k = f"{float(reference.integrals(1.0)['k']): .9f}"
    assert check.check_verify(0, text.replace(k, f"{float(k) + 1e-6: .9f}"))[0]


def sweep_values(s):
    rec = reference.record(s)
    c1 = float(mp_sqrt(rec["c1_sq"]))
    c2 = -float(mp_sqrt(rec["c2_sq"]))
    return tuple(float(rec[f]) for f in reference.FIELDS) + (
        c1, c2, 2 * abs(c1 * c2), float(rec["entropy"]), 2.0)


def mp_sqrt(x):
    return reference.mp.sqrt(x)


def test_sweep_point_checks():
    good = sweep_values(1.3)
    assert check.check_sweep_point(good, 1.3) == []
    for index, value in ((10, good[10] + 1e-6),      # wrong concurrence4
                         (11, good[11] - 1e-6),      # wrong von Neumann entropy
                         (12, 1.0),                  # Slater rank 1
                         (3, good[3] + 1.0)):        # e_ci above the configurations
        bad = list(good)
        bad[index] = value
        assert check.check_sweep_point(tuple(bad), 1.3)
    assert check.check_sweep_point(good, 1.4)         # not the point asked for


def test_sweep_file_counts_failed_points(tmp_path, monkeypatch):
    from array import array
    monkeypatch.setattr(workloads, "SWEEP_POINTS", 20)
    points = workloads.sweep_points(4)
    rows = [list(sweep_values(s)) for s in points]
    rows[7][10] += 1e-6                                  # one wrong concurrence4
    path = tmp_path / "sweep.bin"
    with path.open("wb") as fh:
        array("d", [v for row in rows for v in row]).tofile(fh)
    (entry,) = check.check_sweep(str(path), 4, 0)
    assert (entry["attempted"], entry["failed"]) == (20, 1)
    assert entry["errors"][0].startswith("point 7:")
    (entry,) = check.check_sweep(str(path), 4, 1)        # the sweep process failed
    assert entry["failed"] == 20


def test_scan_dense_round_flags_json_and_parallel_mismatch(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "DENSE_STEPS", 30)
    ops = workloads.scan_dense_ops(3)
    s_min, s_max = workloads.dense_grid(3)
    csv_text = scan_csv(s_min, s_max, 30)
    rows = [dict(zip(reference.FIELDS, map(float, line.split(","))))
            for line in csv_text.splitlines()[1:]]
    rows[5]["e_ci"] += 1e-9
    json_text = json.dumps(rows, indent=1) + "\n"
    for i, text in enumerate((csv_text, json_text, csv_text.replace("\n", "\r\n"))):
        (tmp_path / f"{i:02d}.out").write_text(text, newline="")
        (tmp_path / f"{i:02d}.err").write_text("")
    (tmp_path / "ops.json").write_text(json.dumps(
        [{"name": op.name, "code": 0, "seconds": 1.0} for op in ops]))
    entries = {e["name"]: e for e in check.check_cli_round("scan-dense", 3, str(tmp_path))}
    assert entries["csv"]["failed"] == 0, entries["csv"]["errors"]
    assert entries["json"]["failed"] == 1
    assert entries["csv-parallel"]["failed"] == 1


def test_workload_inputs_follow_the_seed():
    assert workloads.cli_startup_ops(5) == workloads.cli_startup_ops(5)
    assert workloads.cli_startup_ops(5) != workloads.cli_startup_ops(6)
    assert workloads.sweep_points(5)[:10] == workloads.sweep_points(5)[:10]
    assert [op.name for op in workloads.cli_startup_ops(5) if op.known_fault] == \
        ["edge-1e-4", "edge-1e-9", "edge-800"]
    assert len(workloads.cli_startup_ops(5)) == 24


def test_importtime_parsing():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        150 |       numpy.core",
        "import time:      1000 |       2000 |     numpy",
        "import time:        50 |         50 |         scipy._lib",
        "import time:       600 |        700 |       scipy",
        "import time:       300 |       1000 |       scipy.integrate",
        "import time:        10 |       3100 |   h2ent",
        "import time:        20 |       3200 | h2ent.cli",
    ])
    assert run.outermost_import_us(text) == {"h2ent": 3200, "scipy": 1700, "numpy": 2000}


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layer = run.layer_metrics({"h2ent": 1, "scipy": 1, "numpy": 1}, [{"wall_s": 1.0}],
                              [{"totals": {}, "counters": {}}])
    assert list(layer) == [name for name, _ in run.PER_LAYER]


def test_tracer_records_nested_spans(tmp_path):
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{HERE!r}, {os.path.join(ROOT, 'src')!r}]\n"
        "import tracing, h2ent.cli\n"
        "t = tracing.Tracer(); t.install()\n"
        "assert h2ent.cli.main(['point', '--s', '1.5']) == 0\n"
        f"t.write_spans({str(tmp_path / 'spans.jsonl')!r})\n"
        "print(json.dumps(t.summary()))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    totals = json.loads(proc.stdout.splitlines()[-1])["totals"]
    assert totals["cli.main"][0] == 1 and totals["scan.record_at"][0] == 1
    assert totals["specfun.exp_integral_e1"][0] == 2
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    by_id = {s["id"]: s for s in spans}
    record = next(s for s in spans if s["name"] == "scan.record_at")
    assert by_id[record["parent"]]["name"] == "cli.main"
    main_span = by_id[record["parent"]]
    assert main_span["start"] <= record["start"] <= record["end"] <= main_span["end"]
    # self time of cli.main = its duration minus its children's
    assert totals["cli.main"][1] > totals["cli.main"][2] > 0
