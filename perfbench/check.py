"""Checks one round of a workload's outputs; imports nothing from h2ent.

    python perfbench/check.py --workload W --seed N --dir DIR

DIR holds what run.py or child.py left for the round: ops.json (name, exit
code and seconds of each operation), NN.out / NN.err per CLI operation, or
sweep.bin for library-sweep.  Values are compared with the mpmath model in
reference.py and with properties of the model that need no reference.  The
last stdout line is JSON: one entry per operation with attempted, failed,
rows, known_fault and the first few error messages.

Printed values carry 12 significant digits.  A value x matches the
reference r when |x - r| <= RTOL |r| + atol: RTOL allows the rounding of
the 12th digit; atol is 1e-12 Hartree (in the output unit) for energies,
which are differences of O(1) Hartree terms, and 1e-13 for the
dimensionless fields.
"""

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from array import array

import mpmath as mp

import reference
import workloads

RTOL = 1e-11
ENERGY_ATOL_HARTREE = 1e-12
PLAIN_ATOL = 1e-13
ENERGIES = ("e_psi1", "e_psi2", "e_ci")
SCAN_FIELDS = reference.FIELDS
FIGURE_FIELDS = {"fig1": ("s", "e_psi1", "e_ci"), "fig2": ("s", "c1_sq", "c2_sq"),
                 "fig3": ("c1", "concurrence"), "fig4": ("s", "e_ci", "concurrence")}
FIG3_STEPS = 2001
# the paper's equilibrium of the corrected model: s* = 1.668, E = -0.2373 Ry
S_STAR, E_STAR_RY = 1.668, -0.2373
SAMPLE_ROWS = 8
SAMPLE_ROWS_DENSE = 48
MAX_ERRORS = 5


def atol(field, unit):
    if field in ENERGIES:
        return ENERGY_ATOL_HARTREE * float(reference.UNIT_FACTORS[unit])
    return PLAIN_ATOL


def close(x, ref, tol):
    return abs(x - ref) <= RTOL * abs(ref) + tol


def entropy_of(c1_sq, c2_sq):
    """1 + H2(c1^2), from the smaller square, which carries full precision."""
    p = min(c1_sq, c2_sq)
    if p <= 0.0:
        return 1.0
    return 1.0 - p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def opt(argv, flag, default):
    argv = list(argv)
    return argv[argv.index(flag) + 1] if flag in argv else default


# ---------------------------------------------------------------------------
# rows of the eight scan fields (or a subset, with s first)
# ---------------------------------------------------------------------------

def row_properties(row, unit):
    """Model properties of one record given as a field -> float dict."""
    errors = []
    get = row.get
    if get("c1_sq") is not None and get("c2_sq") is not None:
        if abs(row["c1_sq"] + row["c2_sq"] - 1.0) > 2e-12:
            errors.append(f"c1_sq + c2_sq = {row['c1_sq'] + row['c2_sq']!r} != 1")
        if get("concurrence") is not None:
            want = 2.0 * math.sqrt(row["c1_sq"] * row["c2_sq"])
            if not close(row["concurrence"], want, PLAIN_ATOL):
                errors.append(f"concurrence {row['concurrence']!r} != 2|c1 c2| = {want!r}")
        if get("entropy") is not None:
            want = entropy_of(row["c1_sq"], row["c2_sq"])
            if not close(row["entropy"], want, PLAIN_ATOL):
                errors.append(f"entropy {row['entropy']!r} != 1 + H2(c1^2) = {want!r}")
    configs = [row[f] for f in ("e_psi1", "e_psi2") if f in row]
    if "e_ci" in row and configs:
        lowest = min(configs)
        if row["e_ci"] > lowest + RTOL * abs(lowest) + atol("e_ci", unit):
            errors.append(f"e_ci {row['e_ci']!r} above a configuration energy {lowest!r}")
    return errors


def reference_errors(row, s, variant, unit):
    ref = reference.record(s, variant, unit)
    errors = []
    for field, value in row.items():
        if field == "s":
            continue
        if not close(value, float(ref[field]), atol(field, unit)):
            errors.append(f"{field} at s={s!r} ({variant}, {unit}): {value!r} "
                          f"!= reference {mp.nstr(ref[field], 15)}")
    return errors


def sample_indices(key, seed, n, k):
    """Ends, k seeded rows and k/4 seeded rows from the first 1% (small s)."""
    picks = {0, n - 1}
    picks.update(workloads.sample(key, seed, range(n), k))
    picks.update(workloads.sample(key + "/head", seed, range(max(n // 100, 1)), k // 4))
    return sorted(picks)


def check_table(fields, rows, grid, variant, unit, picks):
    """Rows of (a subset of) the scan fields against grid, properties and reference.

    grid is (s_min, s_max, steps); picks are the row indices checked
    against the mpmath reference.
    """
    s_min, s_max, steps = grid
    if len(rows) != steps:
        return [f"{len(rows)} rows, expected {steps}"]
    errors = []
    h = (s_max - s_min) / (steps - 1)
    prev_s = prev_c = -math.inf
    for i, values in enumerate(rows):
        row = dict(zip(fields, values))
        s = row["s"]
        if not s > prev_s:
            errors.append(f"row {i}: s={s!r} not above the previous {prev_s!r}")
        if not close(s, s_min + i * h, 0.0):
            errors.append(f"row {i}: s={s!r}, grid has {s_min + i * h!r}")
        prev_s = s
        if "concurrence" in row:
            if row["concurrence"] < prev_c:
                errors.append(f"row {i}: concurrence {row['concurrence']!r} falls "
                              f"below {prev_c!r}")
            prev_c = row["concurrence"]
        errors += [f"row {i}: {e}" for e in row_properties(row, unit)]
        if len(errors) > MAX_ERRORS:
            return errors
    for i in picks:
        errors += reference_errors(dict(zip(fields, rows[i])), s_min + i * h, variant, unit)
    return errors


def check_minimum(fields, rows, unit, steps):
    """The 400-step minimum of the corrected model sits at s* with e_ci = E*."""
    col = fields.index("e_ci")
    best = min(rows, key=lambda r: r[col])
    e_ry = best[col] / float(reference.UNIT_FACTORS[unit]) * 2.0
    h = 9.5 / (steps - 1)
    if abs(best[0] - S_STAR) > h or abs(e_ry - E_STAR_RY) > 1.5e-4:
        return [f"minimum e_ci = {e_ry!r} Ry at s = {best[0]!r}, expected "
                f"{E_STAR_RY} Ry at s = {S_STAR}"]
    return []


def parse_csv(text):
    lines = list(csv.reader(io.StringIO(text)))
    if not lines:
        raise ValueError("empty output")
    return tuple(lines[0]), [tuple(float(v) for v in line) for line in lines[1:]]


def parse_json(text):
    records = json.loads(text)
    fields = tuple(records[0]) if records else SCAN_FIELDS
    return fields, [tuple(float(r[f]) for f in fields) for r in records]


def check_scan(argv, text, key, seed, k):
    """(errors, rows, parsed rows) of one `h2e scan` output."""
    fmt = opt(argv, "--format", "csv")
    try:
        fields, rows = parse_csv(text) if fmt == "csv" else parse_json(text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparsable {fmt} output: {exc}"], 0, None
    if fields != SCAN_FIELDS:
        return [f"header {fields}, expected {SCAN_FIELDS}"], len(rows), rows
    grid = (float(opt(argv, "--s-min", 0)), float(opt(argv, "--s-max", 0)),
            int(opt(argv, "--steps", 0)))
    variant, unit = opt(argv, "--h22", "corrected"), opt(argv, "--unit", "rydberg")
    errors = check_table(fields, rows, grid, variant, unit,
                         sample_indices(key, seed, len(rows), k))
    if variant == "corrected" and grid[:2] == (0.5, 10.0) and not errors:
        errors += check_minimum(fields, rows, unit, grid[2])
    return errors, len(rows), rows


def check_figure(which, text, key, seed):
    try:
        fields, rows = parse_csv(text)
    except ValueError as exc:
        return [f"unparsable csv output: {exc}"], 0
    if fields != FIGURE_FIELDS[which]:
        return [f"header {fields}, expected {FIGURE_FIELDS[which]}"], len(rows)
    if which == "fig3":
        return check_fig3(rows), len(rows)
    errors = check_table(fields, rows, (0.5, 10.0, 400), "corrected", "rydberg",
                         sample_indices(key, seed, len(rows), SAMPLE_ROWS))
    if "e_ci" in fields and not errors:
        errors += check_minimum(fields, rows, "rydberg", 400)
    return errors, len(rows)


def check_fig3(rows):
    """fig3 rows are (c1, 2|c1| sqrt(1 - c1^2)) on the uniform grid of [0, 1]."""
    if len(rows) != FIG3_STEPS:
        return [f"{len(rows)} rows, expected {FIG3_STEPS}"]
    errors = []
    for i, (c1, conc) in enumerate(rows):
        grid_c1 = mp.mpf(i) / (FIG3_STEPS - 1)
        want = 2 * grid_c1 * mp.sqrt(1 - grid_c1 * grid_c1)
        if not close(c1, float(grid_c1), 0.0):
            errors.append(f"row {i}: c1={c1!r}, grid has {float(grid_c1)!r}")
        if not close(conc, float(want), PLAIN_ATOL):
            errors.append(f"row {i}: concurrence {conc!r} != 2|c1|sqrt(1-c1^2) = {float(want)!r}")
        if len(errors) > MAX_ERRORS:
            break
    return errors


POINT_LINE = re.compile(r"^(\w+) = (\S+)$")


def check_point(argv, code, text):
    """A point record, right to its digits at s, or a refusal with exit 2."""
    if code == 2:
        return [] if text["err"].startswith("h2e: error:") else ["exit 2 without a message"]
    if code != 0:
        return [f"exit code {code}"]
    values = {}
    for line in text["out"].splitlines():
        m = POINT_LINE.match(line)
        if not m:
            return [f"unexpected line {line!r}"]
        values[m.group(1)] = m.group(2)
    unit, variant = opt(argv, "--unit", "rydberg"), opt(argv, "--h22", "corrected")
    if (values.get("unit"), values.get("h22")) != (unit, variant):
        return [f"unit/h22 lines {values.get('unit')!r}/{values.get('h22')!r}"]
    try:
        row = {f: float(values[f]) for f in SCAN_FIELDS}
    except (KeyError, ValueError) as exc:
        return [f"missing or bad field: {exc}"]
    s = float(opt(argv, "--s", "nan"))
    errors = [] if close(row["s"], s, 0.0) else [f"s printed as {row['s']!r}, asked {s!r}"]
    return errors + row_properties(row, unit) + reference_errors(row, s, variant, unit)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

QUAD_LINE = re.compile(r"^\s+s=(\S+)\s+(S |j'|k')\s+closed=\s*(\S+)\s+oracle=\s*(\S+)"
                       r"\s+\|diff\|=(\S+)\s+(PASS|FAIL)$")
MC_LINE = re.compile(r"^\s+(?:s=(\S+)\s+([jkl])|m \(any s\))\s+closed=\s*(\S+)\s+mc=\s*(\S+)"
                     r"\s+sigma=(\S+)\s+\|diff\|/sigma=\s*(\S+)\s+(PASS|FAIL)$")
E1_LINE = re.compile(r"^\s+max relative difference = (\S+)\s+(PASS|FAIL)$")
ARB_LINE = re.compile(r"^\s+(corrected|printed)\s+min=\s*(\S+) at s=(\S+)\s+\|dev\|=(\S+)"
                      r"\s+(PASS|FAIL|ok|FLAG)\s*$")
VERIFY_S = (0.5, 1.0, 1.67, 2.0, 4.0, 8.0)
QUAD_TOL = 1e-8
MC_SIGMA_MAX = 1e-3
E1_REL_TOL = 1e-12
ARB_TARGET, ARB_TOL, ARB_STEP = -0.237, 0.010, 0.001
QUAD_NAMES = {"S ": "S", "j'": "jp", "k'": "kp"}


def check_verify(code, out):
    """(errors, check lines) of `h2e verify` at its defaults (`--h22 corrected`).

    Every printed number is derived again from the reference.
    """
    errors = []
    if code != 0:
        errors.append(f"exit code {code}")
    lines = out.splitlines()
    if not lines or lines[-1] != "result: PASS":
        errors.append(f"last line {lines[-1] if lines else ''!r}, expected 'result: PASS'")
    quad, mc, e1, arb = [], [], [], []
    for line in lines:
        for pattern, bucket in ((QUAD_LINE, quad), (MC_LINE, mc), (E1_LINE, e1), (ARB_LINE, arb)):
            m = pattern.match(line)
            if m:
                bucket.append(m.groups())
    if (len(quad), len(mc), len(e1), len(arb)) != (3 * len(VERIFY_S), 1 + 3 * len(VERIFY_S), 1, 2):
        errors.append(f"check lines {len(quad)}/{len(mc)}/{len(e1)}/{len(arb)}, expected 18/19/1/2")

    for s, label, closed, oracle, _diff, status in quad:
        ref = float(reference.integrals(float(s))[QUAD_NAMES[label]])
        if not close(float(closed), ref, 1e-16) or abs(float(oracle) - ref) > QUAD_TOL \
                or status != "PASS":
            errors.append(f"quadrature {label} at s={s}: closed {closed}, oracle {oracle}, "
                          f"reference {ref!r}, {status}")

    for s, kind, closed, est, sigma, _ratio, status in mc:
        ref = 0.625 if kind is None else float(reference.integrals(float(s))[kind])
        sigma = float(sigma)
        ok = (abs(float(closed) - ref) <= 6e-10 and sigma <= MC_SIGMA_MAX
              and abs(float(est) - ref) <= 3.0 * sigma + 1e-9 and status == "PASS")
        if not ok:
            errors.append(f"MC {kind or 'm'} at s={s or 'any'}: closed {closed}, mc {est}, "
                          f"sigma {sigma}, reference {ref!r}, {status}")

    for worst, status in e1:
        if not 0.0 <= float(worst) <= E1_REL_TOL or status != "PASS":
            errors.append(f"E1 line: max relative difference {worst}, {status}")

    for which, e_min, s_min, _dev, status in arb:
        s_min = float(s_min)
        ref = float(reference.record(s_min, which)["e_ci"])
        neighbours = [float(reference.record(s_min + d, which)["e_ci"])
                      for d in (-ARB_STEP, ARB_STEP)]
        within = abs(ref - ARB_TARGET) <= ARB_TOL
        if which == "corrected":
            want = "PASS" if within else "FAIL"
        else:
            want = "ok" if within else "FLAG"
        if abs(float(e_min) - ref) > 6e-7 or min(neighbours) < ref or status != want:
            errors.append(f"arbitration {which}: min {e_min} at s={s_min}, reference "
                          f"{ref!r} (neighbours {neighbours}), status {status}, expected {want}")
        if which == "corrected" and (abs(s_min - S_STAR) > ARB_STEP
                                     or abs(ref - E_STAR_RY) > 1e-4):
            errors.append(f"corrected minimum {ref!r} Ry at s={s_min}, paper: "
                          f"{E_STAR_RY} at {S_STAR}")
    return errors, len(quad) + len(mc) + len(e1) + len(arb)


# ---------------------------------------------------------------------------
# library-sweep
# ---------------------------------------------------------------------------

SWEEP_WIDTH = len(workloads.SWEEP_COLUMNS)


def check_sweep_point(values, s):
    """One library-sweep point: record, ci_solve and the general fermionic path."""
    (rs, e1, e2, eci, c1sq, c2sq, conc, ent, c1, c2, conc4, vn, rank) = values
    row = dict(zip(SCAN_FIELDS, values[:8]))
    errors = [] if rs == s else [f"record s={rs!r}, asked {s!r}"]
    errors += row_properties(row, "rydberg")
    closed_conc = 2.0 * abs(c1 * c2)
    if abs(c1 * c1 - c1sq) > 1e-15 or abs(c2 * c2 - c2sq) > 1e-15:
        errors.append(f"ci_solve coefficients ({c1!r}, {c2!r}) disagree with the record")
    if abs(conc4 - closed_conc) > 1e-12:
        errors.append(f"concurrence4(w_from_ci) = {conc4!r} != 2|c1 c2| = {closed_conc!r}")
    want = entropy_of(c1 * c1, c2 * c2)
    if abs(vn - want) > 1e-11:
        errors.append(f"von_neumann_entropy(slater_decompose) = {vn!r} != 1 + H2(c1^2) = {want!r}")
    if rank != 2:
        errors.append(f"slater_rank = {rank!r}, expected 2")
    return errors


def check_sweep(path, seed, code):
    points = workloads.sweep_points(seed)
    entry = {"name": "sweep", "attempted": len(points), "failed": len(points),
             "rows": 0, "known_fault": False, "errors": []}
    data = array("d")
    if code != 0:
        entry["errors"].append(f"sweep process exit code {code}")
        return [entry]
    with open(path, "rb") as fh:
        data.frombytes(fh.read())
    if len(data) != SWEEP_WIDTH * len(points):
        entry["errors"].append(f"{len(data)} values, expected {SWEEP_WIDTH * len(points)}")
        return [entry]
    picks = set(sample_indices("library-sweep", seed, len(points), SAMPLE_ROWS_DENSE))
    failed = 0
    for i, s in enumerate(points):
        values = tuple(data[SWEEP_WIDTH * i: SWEEP_WIDTH * (i + 1)])
        errors = check_sweep_point(values, s)
        if i in picks:
            errors += reference_errors(dict(zip(SCAN_FIELDS[1:], values[1:8])), s,
                                       "corrected", "rydberg")
        if errors:
            failed += 1
            if len(entry["errors"]) < MAX_ERRORS:
                entry["errors"] += [f"point {i}: {e}" for e in errors]
    entry.update(failed=failed, rows=len(points), errors=entry["errors"][:MAX_ERRORS])
    return [entry]


# ---------------------------------------------------------------------------

def check_cli_round(workload, seed, directory):
    ops = workloads.cli_ops(workload, seed)
    with open(os.path.join(directory, "ops.json"), encoding="utf-8") as fh:
        results = json.load(fh)
    entries = []
    scans = {}
    for i, (op, result) in enumerate(zip(ops, results)):
        text = {}
        for stream in ("out", "err"):
            # decoded without newline translation, so equal text means equal bytes
            with open(os.path.join(directory, f"{i:02d}.{stream}"), "rb") as fh:
                text[stream] = fh.read().decode("utf-8", errors="replace")
        try:
            errors, rows = check_op(workload, seed, op, result["code"], text, scans)
        except Exception as exc:  # a checker fault must not hide the other operations
            errors, rows = [f"checker error: {exc!r}"], 0
        entries.append({"name": op.name, "attempted": 1, "failed": int(bool(errors)),
                        "rows": rows, "known_fault": op.known_fault,
                        "errors": errors[:MAX_ERRORS]})
    by_name = {e["name"]: e for e in entries}
    # the same grid in another format, or with a pool, must give the same values/bytes
    for name, base in (("scan-json", "scan-rydberg-corrected"), ("json", "csv")):
        if name in by_name and scans.get(name) != scans.get(base):
            flag(by_name[name], f"JSON values differ from the CSV output of {base}")
    if "csv-parallel" in by_name and scans.get("csv-parallel/bytes") != scans.get("csv/bytes"):
        flag(by_name["csv-parallel"], "--parallel 2 output is not byte-identical to serial")
    return entries


def check_op(workload, seed, op, code, text, scans):
    """(errors, rows) of one CLI operation; scan rows and bytes are kept in scans."""
    key = f"{workload}/{op.name}"
    rows = 0
    if "Traceback" in text["err"]:
        errors = ["traceback on stderr: " + text["err"].strip().splitlines()[-1]]
    elif op.argv[0] == "point":
        errors = check_point(op.argv, code, text)
        rows = 1 if code == 0 else 0
    elif code != 0:
        errors = [f"exit code {code}"]
    elif op.argv[0] == "scan":
        k = SAMPLE_ROWS_DENSE if workload == "scan-dense" else SAMPLE_ROWS
        errors, rows, scans[op.name] = check_scan(op.argv, text["out"], key, seed, k)
        scans[op.name + "/bytes"] = text["out"]
    elif op.argv[0] == "figure":
        errors, rows = check_figure(op.argv[2], text["out"], key, seed)
    else:
        errors, rows = check_verify(code, text["out"])
    return errors, rows


def flag(entry, message):
    entry["failed"] = 1
    entry["errors"] = (entry["errors"] + [message])[:MAX_ERRORS]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()
    if args.workload == "library-sweep":
        with open(os.path.join(args.dir, "ops.json"), encoding="utf-8") as fh:
            code = json.load(fh)[0]["code"]
        entries = check_sweep(os.path.join(args.dir, "sweep.bin"), args.seed, code)
    else:
        entries = check_cli_round(args.workload, args.seed, args.dir)
    print(json.dumps(entries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
