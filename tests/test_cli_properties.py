"""Property tests of the `h2e` contract: for any float it is given, `point`
and `scan` either print finite fields and exit 0, or refuse with exit 2,
nothing on stdout and one `h2e: error:` line, and never raise."""

import contextlib
import io
import json
import math

import pytest

from h2ent.ci import H22_VARIANTS
from h2ent.cli import main
from h2ent.scan import SCAN_FIELDS, UNIT_FACTORS

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# any float, and floats about the accepted domain, which plain floats() seldom hit
FLOATS = st.one_of(st.floats(), st.floats(min_value=1e-3, max_value=1e3))
# (s_min, s_max): any two floats, or an ascending pair that starts in the domain
BOUNDS = st.tuples(FLOATS, FLOATS) | st.builds(lambda lo, width: (lo, lo + width),
                                               st.floats(1e-2, 700.0), st.floats(1e-9, 50.0))
OPTIONS = st.tuples(st.sampled_from(sorted(UNIT_FACTORS)), st.sampled_from(H22_VARIANTS))
PROPERTY = hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_refused(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("h2e: error: ") and err.count("\n") == 1 and err.endswith("\n")


@PROPERTY
@hypothesis.given(s=FLOATS, options=OPTIONS)
def test_point_prints_finite_fields_or_refuses(s, options):
    # `--s -1e-3` and `--s=-1e-3` alike, although argparse alone reads the
    # first as a missing value
    unit, variant = options
    code, out, err = run_main(["point", "--s", repr(s), "--unit", unit, "--h22", variant])
    assert run_main(["point", f"--s={s!r}", "--unit", unit, "--h22", variant]) == (code, out, err)
    if code != 0:
        assert_refused(code, out, err)
        return
    assert err == ""
    lines = out.splitlines()
    assert lines[:2] == [f"unit = {unit}", f"h22 = {variant}"]
    fields = dict(line.split(" = ") for line in lines[2:])
    assert list(fields) == list(SCAN_FIELDS)
    assert all(math.isfinite(float(value)) for value in fields.values())


@PROPERTY
@hypothesis.given(bounds=BOUNDS, steps=st.integers(2, 40), fmt=st.sampled_from(["csv", "json"]),
                  options=OPTIONS)
def test_scan_prints_finite_rows_or_refuses(bounds, steps, fmt, options):
    (s_min, s_max), (unit, variant) = bounds, options
    code, out, err = run_main(["scan", "--s-min", repr(s_min), "--s-max", repr(s_max),
                               "--steps", str(steps), "--format", fmt,
                               "--unit", unit, "--h22", variant])
    if code != 0:
        assert_refused(code, out, err)
        return
    assert err == ""
    if fmt == "csv":
        header, *lines = out.splitlines()
        assert header.split(",") == list(SCAN_FIELDS)
        rows = [[float(value) for value in line.split(",")] for line in lines]
    else:
        records = json.loads(out)
        assert all(list(record) == list(SCAN_FIELDS) for record in records)
        rows = [list(record.values()) for record in records]
    assert len(rows) == steps
    assert all(len(row) == len(SCAN_FIELDS) and all(map(math.isfinite, row)) for row in rows)
