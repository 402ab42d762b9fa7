"""The grid paths (record_at per point, scan_table as one array) against
their golden bytes, mpmath and each other; rendering."""

import dataclasses
import json
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

import h2ent.scan as scan
import mpref
from h2ent.cli import main
from h2ent.scan import (SCALAR_ROWS, SCAN_FIELDS, ScanConfig, grid_rows, grid_values,
                        record_at, render_blocks, render_csv, render_json, scan_table)
from test_specfun import BEYOND_FLOAT

DATA = pathlib.Path(__file__).parent / "data"
DEFAULT_GRID = ["--s-min", "0.5", "--s-max", "10", "--steps", "400"]
FIG3_STEPS = scan.FIGURE_CONFIGS["fig3"].steps

# bytes of the scalar pipeline (record_at per point), which `h2e` runs on
# these grids of at most SCALAR_ROWS points
GOLDEN = {
    "scan_default_corrected.csv": ["scan", *DEFAULT_GRID, "--h22", "corrected"],
    "scan_default_printed.csv": ["scan", *DEFAULT_GRID, "--h22", "printed"],
    "figure_fig1.csv": ["figure", "--which", "fig1"],
    "figure_fig2.csv": ["figure", "--which", "fig2"],
    "figure_fig3.csv": ["figure", "--which", "fig3"],
    "figure_fig4.csv": ["figure", "--which", "fig4"],
}

# every value the array pipeline (grid_rows above SCALAR_ROWS) prints
# differently from the golden bytes: (file, row index, field) -> (golden
# token, array token).  All on the default grid s = 0.5 + i * 9.5/399,
# variant as in GOLDEN, unit rydberg.  numpy's exp differs from math.exp by
# one ulp on ~5% of arguments, which can move the 12th digit; mpmath decides
# each entry below.
LAST_DIGIT_CHANGES = {
    ("scan_default_corrected.csv", 99, "e_psi1"): ("0.00576188956311", "0.0057618895631"),
    ("scan_default_printed.csv", 99, "e_psi1"): ("0.00576188956311", "0.0057618895631"),
    ("figure_fig1.csv", 99, "e_psi1"): ("0.00576188956311", "0.0057618895631"),
}


def tokens(text):
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def variant_of(name):
    return "printed" if name.endswith("printed.csv") else "corrected"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_default_grids_match_golden_bytes(name, capsys):
    assert main(GOLDEN[name]) == 0
    assert capsys.readouterr().out == (DATA / name).read_text(encoding="utf-8")


def array_rows(which, config):
    """(fields, array) of grid_rows' array path, whatever the grid size; fig3
    has no array path and gives its list of rows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scan, "SCALAR_ROWS", 1)
        return grid_rows(which, config)


def array_path_text(name):
    """The CSV of a GOLDEN file's grid as grid_rows' array path gives it."""
    command = GOLDEN[name]
    if command[0] == "scan":
        config = ScanConfig(0.5, 10.0, 400, "rydberg", variant_of(name))
        return render_csv(*array_rows("scan", config))
    which = command[command.index("--which") + 1]
    return render_csv(*array_rows(which, scan.FIGURE_CONFIGS[which]))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_default_grids_match_golden_bytes_up_to_listed_changes(name):
    # the array pipeline on the default grids
    out = array_path_text(name)
    golden = (DATA / name).read_text(encoding="utf-8")
    header, rows = tokens(out)
    gold_header, gold_rows = tokens(golden)
    assert header == gold_header and len(rows) == len(gold_rows)
    changed = {}
    for i, (row, gold) in enumerate(zip(rows, gold_rows)):
        for field, new, old in zip(header, row, gold):
            if new != old:
                changed[(name, i, field)] = (old, new)
    listed = {k: v for k, v in LAST_DIGIT_CHANGES.items() if k[0] == name}
    assert changed == listed
    # apart from the listed tokens, the bytes are the golden ones
    for (_, i, field), (old, new) in changed.items():
        gold_rows[i][header.index(field)] = new
    assert out == "\n".join([",".join(header)] + [",".join(r) for r in gold_rows]) + "\n"


@pytest.mark.parametrize("key", sorted(LAST_DIGIT_CHANGES))
def test_listed_last_digit_changes_are_right_to_mpmath(key):
    name, i, field = key
    old, new = LAST_DIGIT_CHANGES[key]
    s = 0.5 + i * (9.5 / 399)
    ref = mpref.record(s, variant_of(name))[field]
    tol = mpref.tolerance(field, ref)
    assert abs(float(new) - float(ref)) <= tol
    assert abs(float(old) - float(ref)) <= tol


@pytest.mark.parametrize("variant", ["corrected", "printed"])
@pytest.mark.parametrize("unit", ["rydberg", "hartree", "ev"])
def test_scan_table_matches_record_at(variant, unit):
    # both paths agree to the benchmark's tolerances from s = 0.3 to 600
    for s_min, s_max, steps in ((0.3, 600.0, 700), (0.3, 20.0, 700)):
        table = scan_table(ScanConfig(s_min, s_max, steps, unit, variant))
        assert table.shape == (steps, len(SCAN_FIELDS)) and table.dtype == np.float64
        scalar = np.array([record_at(s, variant, unit).values() for s in table[:, 0].tolist()])
        assert np.array_equal(table[:, 0], scalar[:, 0])
        for col, field in enumerate(SCAN_FIELDS[1:], start=1):
            atol = (mpref.ENERGY_ATOL_HARTREE * float(mpref.UNIT[unit])
                    if field in mpref.ENERGIES else mpref.PLAIN_ATOL)
            diff = np.abs(table[:, col] - scalar[:, col])
            assert np.all(diff <= mpref.RTOL * np.abs(scalar[:, col]) + atol), field


@pytest.mark.parametrize("s_min, s_max", [(1e-8, 1e-6), (1e-6, 1e-3), (1e-3, 0.3),
                                          (600.0, 720.0), (700.0, 800.0)])
def test_scan_table_refuses_where_record_at_does(s_min, s_max):
    # below s = 0.3 both paths lose digits to the 1 - S cancellation and
    # above ~700 both overflow; they agree on which points are finite.
    # Below ~1e-8, 1 - S is a single ulp, so not even that is shared.
    table = scan_table(ScanConfig(s_min, s_max, 41))
    for s, row in zip(table[:, 0].tolist(), table):
        try:
            scalar_finite = bool(np.isfinite(record_at(s).values()).all())
        except (ArithmeticError, ValueError):
            scalar_finite = False
        assert bool(np.isfinite(row).all()) == scalar_finite, s


def test_scan_table_raises_no_floating_point_warnings():
    with np.errstate(all="raise"):
        table = scan_table(ScanConfig(1e-9, 800.0, 9))
    assert not np.isfinite(table).all()


def test_record_at_and_scan_config_check_unit_and_variant():
    # an unhashable unit raised TypeError: unhashable type
    for unit in ("joule", [], {}):
        message = rf"^unknown unit {re.escape(repr(unit))}; expected one of .*'hartree'"
        for bad in (lambda: record_at(1.0, "corrected", unit), lambda: ScanConfig(unit=unit)):
            with pytest.raises(ValueError, match=message):
                bad()
    for bad in (lambda: record_at(1.0, "typo"),
                lambda: ScanConfig(h22_variant="typo")):
        with pytest.raises(ValueError, match="unknown h22 variant 'typo'; expected one of"):
            bad()


def test_record_at_stores_float_distance():
    rec = record_at(2)
    assert type(rec.s) is float and rec == record_at(2.0)
    assert rec.s == scan_table(ScanConfig(2.0, 3.0, 2))[0, 0]


def test_ci_minimum_is_first_of_the_table_minimum():
    # verify's CI-minimum check reads the 1501-point table
    from h2ent.cli import _ci_minimum

    e_min, s_min = _ci_minimum("corrected")
    table = scan_table(ScanConfig(1.0, 2.5, 1501, "rydberg", "corrected"))
    assert e_min == table[:, 3].min()
    assert s_min == table[np.flatnonzero(table[:, 3] == e_min)[0], 0]
    assert s_min == pytest.approx(1.668, abs=1e-3)


RENDERERS = {"csv": render_csv, "json": render_json}


@pytest.mark.parametrize("fmt", sorted(RENDERERS))
@pytest.mark.parametrize("rows", [0, 1, 3, 4, 5, 9])
def test_render_blocks_join_to_one_render(fmt, rows, monkeypatch):
    # 4-row blocks: 1, B - 1, B, B + 1 and 2B + 1 rows, and an empty table
    monkeypatch.setattr(scan, "RENDER_ROWS", 4)
    table = scan_table(ScanConfig(0.5, 10.0, 9))[:rows]
    render = RENDERERS[fmt]
    whole = render(SCAN_FIELDS, table)
    # render_blocks reaches the renderer through its module name, which a
    # tracer wraps from outside
    calls = []
    monkeypatch.setattr(scan, f"render_{fmt}",
                        lambda fields, block: calls.append(len(block)) or render(fields, block))
    assert "".join(render_blocks(SCAN_FIELDS, table, fmt)) == whole
    assert calls == ([0] if rows == 0 else [min(4, rows - i) for i in range(0, rows, 4)])
    if rows == 0 and fmt == "json":
        assert whole == "[]\n"


@pytest.mark.parametrize("fmt", ["xml", "CSV", None, []])
def test_render_blocks_refuse_unknown_formats(fmt):
    # "xml" raised a bare KeyError, and [] a TypeError
    with pytest.raises(ValueError, match=r"^unknown format .*; expected 'csv' or 'json'$"):
        "".join(render_blocks(SCAN_FIELDS, [], fmt))


@pytest.mark.parametrize("fmt", sorted(RENDERERS))
def test_render_blocks_hold_one_block_at_a_time(fmt):
    # one string of 50 000 rows peaks at 22.5 MB (CSV) and 54.3 MB (JSON),
    # blocks at 1.4 and 3.2 MB
    table = scan_table(ScanConfig(0.305, 19.995, 50_000))
    size = 0
    tracemalloc.start()
    try:
        for chunk in render_blocks(SCAN_FIELDS, table, fmt):
            size += len(chunk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size == len(RENDERERS[fmt](SCAN_FIELDS, table))
    assert peak < 8_000_000


@pytest.mark.parametrize("fmt", sorted(RENDERERS))
def test_renderers_take_a_list_of_rows(fmt):
    # the same bytes from a list of row tuples as from the array, including
    # the tokens JSON spells through json.dumps (integral values, exponents)
    table = np.vstack([scan_table(ScanConfig(0.5, 10.0, 9)),
                       [[10.0, 1e13, 1e-320, 0.0, -2.0, 5e-5, 1e15, 123456789012.5]]])
    rows = [tuple(row) for row in table.tolist()]
    render = RENDERERS[fmt]
    assert render(SCAN_FIELDS, rows) == render(SCAN_FIELDS, table)
    assert "".join(render_blocks(SCAN_FIELDS, rows, fmt)) == render(SCAN_FIELDS, table)
    assert render(SCAN_FIELDS, []) == render(SCAN_FIELDS, table[:0])


def test_render_json_is_json_dumps_of_the_rounded_rows():
    # render_json spells most numbers as their '%.12g' token and only the
    # rest through json.dumps; every spelling must be json's own
    rng = np.random.default_rng(19)
    sign = rng.choice([-1.0, 1.0], 2000)
    values = np.concatenate([
        sign * 10.0 ** rng.uniform(-300.0, 300.0, 2000),            # ordinary
        sign * rng.uniform(0.0, 30.0, 2000),                         # ordinary
        np.round(sign * 10.0 ** rng.uniform(0.0, 17.0, 2000)),      # integral
        sign * 10.0 ** rng.uniform(12.0, 18.0, 2000),               # exponents 12..17
        sign[:1984] * 10.0 ** rng.uniform(-323.3, -307.0, 1984),      # subnormal
        [5e-324, -5e-324, 2.2250738585072014e-308, 1e12, 1e15, 1e16, 1e17, 123456789012.5,
         0.0, -0.0, 10.0, -3.0, math.nan, -math.nan, math.inf, -math.inf],
    ])
    table = values.reshape(-1, len(SCAN_FIELDS))
    assert table.shape == (1250, 8) and np.isnan(table).any() and np.isinf(table).any()
    rounded = [{f: float("%.12g" % v) for f, v in zip(SCAN_FIELDS, row)} for row in table.tolist()]
    expected = json.dumps(rounded, indent=1) + "\n"
    assert render_json(SCAN_FIELDS, table) == expected
    assert render_json(SCAN_FIELDS, [tuple(row) for row in table.tolist()]) == expected


@pytest.mark.parametrize("fmt", sorted(RENDERERS))
def test_renderers_refuse_rows_of_the_wrong_width(fmt):
    # 8-value rows for 4 fields were printed as twice as many 4-value rows
    table = scan_table(ScanConfig(0.5, 10.0, 3))
    fields = ("a", "b", "c", "d")
    render = RENDERERS[fmt]
    with pytest.raises(ValueError, match=r"shape \(3, 8\).* 4 values for 4 fields"):
        render(fields, table)
    with pytest.raises(ValueError, match="a row of 8 values for 4 fields"):
        render(fields, [tuple(row) for row in table.tolist()])
    with pytest.raises(ValueError, match="a row of 3 values for 8 fields"):
        render(SCAN_FIELDS, [tuple(table[0])] + [(1.0, 2.0, 3.0)])
    with pytest.raises(ValueError, match=r"shape \(8,\)"):
        render(SCAN_FIELDS, table[0])


@pytest.mark.parametrize("steps", [2.5, 3.0, "3", True, False, np.float64(3.0), None])
def test_scan_config_refuses_non_integral_steps(steps):
    # 2.5 steps gave s = 1, 1.667, 2.333, past s_max, and "3" a TypeError
    with pytest.raises(ValueError, match=r"^steps must be an integer, got "):
        ScanConfig(1.0, 2.0, steps)
    with pytest.raises(ValueError, match="steps"):
        grid_rows("fig3", ScanConfig(1.0, 2.0, steps))


@pytest.mark.parametrize("steps, message", [(1, ">= 2"), (0, ">= 2"), (-3, ">= 2"),
                                           (2.5, "an integer"), (True, "an integer")])
def test_grid_values_refuses_what_scan_config_refuses(steps, message):
    # 1 raised ZeroDivisionError, 0 and -3 gave an empty grid, 2.5 three
    # points short of s_max
    for refuse in (lambda: grid_values(0.5, 1.0, steps), lambda: ScanConfig(0.5, 1.0, steps)):
        with pytest.raises(ValueError, match=rf"^steps must be {message}, got {steps!r}$"):
            refuse()


def test_scan_config_accepts_numpy_integers():
    config = ScanConfig(1.0, 2.0, np.int64(5))
    assert np.array_equal(scan_table(config), scan_table(ScanConfig(1.0, 2.0, 5)))
    assert grid_rows("scan", ScanConfig(1.0, 2.0, np.int32(5))) == grid_rows(
        "scan", ScanConfig(1.0, 2.0, 5))



@pytest.mark.parametrize("bounds", [(np.float32(0.5), 1.0), (0.5, np.float32(1.0)),
                                    (np.float32(0.5), np.float32(1.0))])
def test_scan_config_builds_its_grid_in_float64_from_float32_bounds(bounds):
    # numpy's float32 bounds were kept, and s_min + i h stayed float32: the
    # row at s = 2/3 read 0.666666686535 and scan_table ended past s_max, at
    # 1.0000000149
    config, plain = ScanConfig(*bounds, np.int64(4)), ScanConfig(0.5, 1.0, 4)
    assert [type(v) for v in (config.s_min, config.s_max, config.steps)] == [float, float, int]
    assert config == plain
    assert grid_rows("scan", config) == grid_rows("scan", plain)
    table = scan_table(config)
    assert table.tobytes() == scan_table(plain).tobytes() and table[-1, 0] == 1.0

GRIDS = ["scan", "fig1", "fig2", "fig3", "fig4"]


@pytest.mark.parametrize("which", GRIDS)
def test_grid_rows_choose_the_path_by_grid_size(which, monkeypatch):
    monkeypatch.setattr(scan, "SCALAR_ROWS", 9)
    small = ScanConfig(0.5, 10.0, 9, "hartree", "printed")
    fields, rows = grid_rows(which, small)
    assert type(rows) is list and all(type(row) is tuple for row in rows)
    assert fields == (SCAN_FIELDS if which == "scan" else scan.FIGURE_FIELDS[which])
    large = ScanConfig(0.5, 10.0, 10, "hartree", "printed")
    fields, table = grid_rows(which, large)
    if which == "fig3":  # a list of rows at every size, on the points of [0, 1]
        assert type(table) is list and all(type(row) is tuple for row in table)
        assert [row[0] for row in table] == grid_values(0.0, 1.0, 10).tolist()
        return
    # the points of the array path, and above the threshold the columns of scan_table
    assert [row[0] for row in rows] == array_rows(which, small)[1][:, 0].tolist()
    assert type(table) is np.ndarray
    cols = [SCAN_FIELDS.index(f) for f in fields]
    assert np.array_equal(table, scan_table(large)[:, cols])


@pytest.mark.parametrize("variant", ["corrected", "printed"])
@pytest.mark.parametrize("unit", ["rydberg", "hartree", "ev"])
def test_grid_rows_within_the_threshold_are_record_at(variant, unit):
    config = ScanConfig(0.3, 600.0, 211, unit, variant)
    _, rows = grid_rows("scan", config)
    grid = grid_values(0.3, 600.0, 211).tolist()
    assert rows == [record_at(s, variant, unit).values() for s in grid]


def test_grid_points_are_those_of_grid_values():
    # s_min + i h in Python floats is the array's s_min + arange(n) * h
    for s_min, s_max, steps in ((0.305, 19.995, SCALAR_ROWS), (0.01, 650.0, 3001),
                                (1.0, 1.0 + 1e-9, 17), (0.0, 1.0, FIG3_STEPS)):
        h = (s_max - s_min) / (steps - 1)
        assert [s_min + i * h for i in range(steps)] == grid_values(s_min, s_max, steps).tolist()


@pytest.mark.parametrize("steps", [2, 7, FIG3_STEPS, SCALAR_ROWS, SCALAR_ROWS + 1])
def test_fig3_rows_have_the_bits_of_figure_table(steps):
    # the figure's table: its closed form 2 |c1| sqrt(1 - c1^2) over numpy on
    # the points of grid_values; sqrt is correctly rounded, so math gives the
    # same bits
    fields, rows = grid_rows("fig3", ScanConfig(steps=steps))
    c1 = grid_values(0.0, 1.0, steps)
    d = 1.0 - c1 * c1
    table = np.column_stack((c1, 2.0 * np.abs(c1) * np.sqrt(np.where(d > 0.0, d, 0.0))))
    assert fields == ("c1", "concurrence")
    assert type(rows) is list and rows == [tuple(row) for row in table.tolist()]
    assert rows[-1] == (1.0, 0.0) and math.copysign(1.0, rows[-1][1]) == 1.0


def test_grid_rows_refuse_unknown_grid():
    with pytest.raises(ValueError, match="unknown grid 'fig9'; expected 'scan' or one of"):
        grid_rows("fig9", ScanConfig())


@pytest.mark.parametrize("steps", [5, SCALAR_ROWS + 1])
def test_grid_rows_name_the_first_non_finite_point(steps):
    # past s ~ 700 the closed forms overflow, on either path
    config = ScanConfig(600.0, 800.0, steps)
    with pytest.raises(ValueError, match=r"^non-finite result at s = ") as info:
        grid_rows("scan", config)
    s = float(str(info.value).rsplit(" = ", 1)[1])
    grid = grid_values(600.0, 800.0, steps).tolist()
    first = grid.index(s)
    assert 690.0 < s <= 800.0
    assert all(np.isfinite(record_at(x).values()).all() for x in grid[max(first - 3, 0):first])


def test_array_path_figure_columns_refuse_huge_distances():
    # the figure's columns of the array path: a continued fraction for E1 did
    # not converge at 4 s = 1.37e305, which raised a RuntimeError
    steps = SCALAR_ROWS + 1
    with pytest.raises(ValueError, match=r"^non-finite result at s = ") as info:
        grid_rows("fig1", ScanConfig(0.5, 2e307, steps))
    assert float(str(info.value).rsplit(" = ", 1)[1]) in grid_values(0.5, 2e307, steps).tolist()


def test_scan_table_returns_non_finite_rows_where_4s_overflows():
    # past s_max ~ 4.49e307, 4 s is inf, and the array E1 refused the whole
    # grid with "exp_integral_e1_array requires finite x > 0 everywhere"
    table = scan_table(ScanConfig(0.5, 4.5e307, 5000))
    assert table.shape == (5000, len(SCAN_FIELDS))
    assert np.isfinite(table[0]).all()
    assert not np.isfinite(table[1:]).all(axis=1).any()


# s -> the cause record_at chains: hamiltonian_block refuses to divide by
# 1 - S^2 = 0 below s ~ 3.4e-8, and integral_set refuses k past s = 697.79,
# where S' overflows (it gave c1 = nan at 700 and an OverflowError of exp(s)
# at 710 and 800)
UNEVALUABLE = {1e-9: ValueError, 2.08e-9: ValueError, 700.0: ValueError,
               710.0: ValueError, 800.0: ValueError}


@pytest.mark.parametrize("s", sorted(UNEVALUABLE))
def test_record_at_names_the_distance(s):
    with pytest.raises(ValueError, match=rf"^non-finite result at s = {s!r}$") as info:
        record_at(s)
    assert type(info.value.__cause__) is UNEVALUABLE[s]


def test_record_at_refuses_bad_arguments_as_such():
    for s in (math.nan, -1.0, 0.0, math.inf):
        with pytest.raises(ValueError, match=rf"^record_at requires finite s > 0, got {s!r}$"):
            record_at(s)
    with pytest.raises(ValueError, match="unknown h22 variant 'typo'"):
        record_at(1.5, "typo")
    with pytest.raises(ValueError, match="unknown unit 'joule'"):
        record_at(1.5, unit="joule")


@pytest.mark.parametrize("bound", ["s_min", "s_max"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, "1", None, 1j,
                                   np.complex128(1 + 5j), True, np.True_, np.complex64(1 + 3j),
                                   np.clongdouble(1 + 3j), *BEYOND_FLOAT])
def test_scan_config_refuses_non_finite_bounds(bound, value):
    # s_min = 1, s_max = inf said "s_max must be > 0, got inf"; "1", None
    # and 1j raised a TypeError, and True and numpy's 1+5j ran as 1.0; numpy's
    # bool_ ran as 1.0, and its complex64 and clongdouble 1+3j were kept;
    # 10**400 raised an OverflowError
    other = {"s_min": 1.0, "s_max": 2.0}
    message = rf"^{bound} must be finite and > 0, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        ScanConfig(**{**other, bound: value}, steps=3)


def test_scan_config_is_checked_when_made():
    with pytest.raises(ValueError, match=r"^need s_min < s_max, got 2.0 >= 1.0$"):
        ScanConfig(s_min=2.0, s_max=1.0)
    with pytest.raises(ValueError, match="steps must be >= 2"):
        dataclasses.replace(ScanConfig(), steps=1)
