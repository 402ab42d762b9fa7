"""Distance sweeps and figure data: grid evaluation, units, rendering.

Energies are reported relative to two separated hydrogen atoms (2 E1s) and
converted from Hartree to the selected output unit.  Rows are rendered with
12 significant digits, '.' decimal separator and LF line endings; identical
configurations produce byte-identical output, because every grid point is a
pure function of (s, variant, unit) and rows are emitted in grid order.

record_at evaluates one point over `math`, and returns a record only if
every field is finite; scan_table evaluates a grid as one (n, 8) float64
table over numpy.  Both derive the seven columns after s from the CI
solution with one helper.  A ScanConfig is checked when it is made, so
every one in hand is valid.  grid_rows gives the rows of `h2e scan` and
of `h2e figure`, which prints each figure on its grid in FIGURE_CONFIGS:
point by point through record_at for a grid of at most SCALAR_ROWS
points, where importing numpy would cost more than the whole evaluation,
and as the scan_table array above that.  fig3 is a closed form
of c1 alone, under 1 us a row, and is a list of rows over `math` at every
grid size.
render_blocks formats a table or a list of rows RENDER_ROWS rows at a time,
so the text held at once is one block long whatever the grid size.  numpy
is imported by the functions that build or read arrays, so that record_at,
fig3 and the small grids never load it.
"""

import json
import math
from dataclasses import dataclass

from .ci import E1S, _check_variant, _ground_concurrence, _ground_entropy, ci_solve, ci_table
from .specfun import MATH_XP, _as_float, _is_integer, _require_positive, numpy_xp

__all__ = [
    "UNIT_FACTORS",
    "SCAN_FIELDS",
    "ScanConfig",
    "ScanRecord",
    "record_at",
    "grid_values",
    "scan_table",
    "render_csv",
    "render_json",
    "render_blocks",
    "grid_rows",
    "FIGURES",
    "FIGURE_CONFIGS",
    "SCALAR_ROWS",
]

# Hartree -> output unit. 1 Hartree = 2 Rydberg; the eV factor is the CODATA
# value of the Hartree energy in electronvolts.
UNIT_FACTORS = {"hartree": 1.0, "rydberg": 2.0, "ev": 27.211386245988}

SCAN_FIELDS = ("s", "e_psi1", "e_psi2", "e_ci", "c1_sq", "c2_sq", "concurrence", "entropy")

# rows per render call in render_blocks: the text of a block is about 0.3 MB
# of CSV or 0.6 MB of JSON; smaller blocks peak no lower, larger ones
# (8192 rows and up) raise a 50 000-row scan's peak memory
RENDER_ROWS = 2048

# grid_rows evaluates grids of at most this many points with record_at and
# larger ones with scan_table.  A fresh `h2e scan` process breaks even at
# 4 600-6 800 rows, as the host's load varies: the array path pays
# 0.08-0.13 s more to start, most of it numpy's import, and the point path
# about 21 us per row (BENCH_34.json, "crossover"; BENCH_16.json found
# 40 us per row and 4 096-5 000 rows).  The value stays 4096: a larger one
# would print record_at's digits in place of the array path's on the grids
# in between.  fig3, under 1 us per row, is not split here
SCALAR_ROWS = 4096


@dataclass(frozen=True)
class ScanRecord:
    """One row of a distance sweep, energies relative to 2 E1s."""

    s: float
    e_psi1: float
    e_psi2: float
    e_ci: float
    c1_sq: float
    c2_sq: float
    concurrence: float
    entropy: float

    def values(self):
        return tuple(getattr(self, f) for f in SCAN_FIELDS)


@dataclass(frozen=True)
class ScanConfig:
    """Sweep configuration, checked when it is made: a ValueError names the
    first field out of range.  The bounds are stored as Python floats and
    steps as a Python int, whatever real or integer type was given."""

    s_min: float = 0.5
    s_max: float = 10.0
    steps: int = 400
    unit: str = "rydberg"
    h22_variant: str = "corrected"

    def __post_init__(self) -> None:
        # kept as Python numbers: numpy's float32 bounds would build the grid
        # in float32 (NEP 50), off s_min + i h by 1e-8 and past s_max
        for name in ("s_min", "s_max"):
            bound = getattr(self, name)
            value = _as_float(bound)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {bound!r}")
            object.__setattr__(self, name, value)
        if not self.s_min < self.s_max:
            raise ValueError(f"need s_min < s_max, got {self.s_min!r} >= {self.s_max!r}")
        _check_steps(self.steps)
        _check_unit(self.unit)
        _check_variant(self.h22_variant)
        object.__setattr__(self, "steps", int(self.steps))


def _check_steps(steps) -> None:
    if not _is_integer(steps):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps!r}")


def _check_unit(unit: str) -> None:
    # a str first: an unhashable unit would raise a TypeError in the dict
    if not isinstance(unit, str) or unit not in UNIT_FACTORS:
        raise ValueError(f"unknown unit {unit!r}; expected one of {tuple(UNIT_FACTORS)}")


# the columns of each standard figure
FIGURE_FIELDS = {"fig1": ("s", "e_psi1", "e_ci"), "fig2": ("s", "c1_sq", "c2_sq"),
                 "fig3": ("c1", "concurrence"), "fig4": ("s", "e_ci", "concurrence")}
FIGURES = tuple(FIGURE_FIELDS)

# the grid `h2e figure` prints each figure on: ScanConfig's defaults, 400
# points of s in [0.5, 10] in rydberg with the corrected H22, and for fig3
# 2001 points of c1 in [0, 1], dense enough that the node nearest 1/sqrt(2)
# reads 1 - O(1e-7)
FIGURE_CONFIGS = {which: ScanConfig(steps=2001) if which == "fig3" else ScanConfig()
                  for which in FIGURES}


def _columns(sol, factor, xp):
    """The SCAN_FIELDS after s of a CiSolution of floats or arrays, over xp;
    energies relative to 2 E1s in the unit of `factor`."""
    # the entropy's temporaries come first, before the other six columns
    # exist: 1 MB less peak RSS on a 50 000-row scan
    entropy = _ground_entropy(sol.c1, xp)
    # ** 2 is pow on a float and a multiply on an array; c1 * c1 would move
    # the last bit of the scalar c1_sq at about 0.1% of distances
    return ((sol.e_psi1 - 2.0 * E1S) * factor, (sol.e_psi2 - 2.0 * E1S) * factor,
            (sol.e_ground - 2.0 * E1S) * factor, sol.c1 ** 2, sol.c2 ** 2,
            _ground_concurrence(sol.c1, sol.c2), entropy)


def record_at(s: float, variant: str = "corrected", unit: str = "rydberg") -> ScanRecord:
    """Evaluate one grid point: CI energies, coefficients, entanglement,
    every field finite.

    Raises
    ------
    ValueError
        If s is not finite and > 0, variant or unit is unknown, or, naming
        s, where the float64 closed forms give no finite record: below
        s ~ 1e-8 they divide by zero, and past s ~ 700 they overflow or
        lose the CI coefficients.
    """
    s = _require_positive(s, "record_at")
    _check_variant(variant)
    _check_unit(unit)
    try:
        values = _columns(ci_solve(s, variant), UNIT_FACTORS[unit], MATH_XP)
    except (ArithmeticError, ValueError) as exc:
        raise ValueError(f"non-finite result at s = {s!r}") from exc
    if not all(map(math.isfinite, values)):
        raise ValueError(f"non-finite result at s = {s!r}")
    return ScanRecord(s, *values)


def grid_values(s_min: float, s_max: float, steps: int) -> "numpy.ndarray":
    """Uniform inclusive grid of `steps` points on [s_min, s_max]: s_min + i h.

    Raises
    ------
    ValueError
        If steps is not an integer >= 2, as ScanConfig refuses it.
    """
    import numpy as np
    _check_steps(steps)
    h = (s_max - s_min) / (steps - 1)
    return s_min + np.arange(steps) * h


def scan_table(config: ScanConfig) -> "numpy.ndarray":
    """All sweep rows as an (n, 8) float64 array, columns in SCAN_FIELDS order.

    Rows are ordered by s.  Points the float64 closed forms cannot evaluate
    come out non-finite (without floating-point warnings), so callers check
    np.isfinite(table).all().
    """
    import numpy as np
    s = grid_values(config.s_min, config.s_max, config.steps)
    with np.errstate(all="ignore"):
        sol = ci_table(s, config.h22_variant)
        return np.column_stack((s, *_columns(sol, UNIT_FACTORS[config.unit], numpy_xp())))


def _flat_values(fields, rows):
    """(row count, every value row after row as one list) of an
    (n, len(fields)) table or a list of rows of len(fields) values each."""
    width = len(fields)
    if isinstance(rows, list):
        for row in rows:
            if len(row) != width:
                raise ValueError(f"a row of {len(row)} values for {width} fields")
        return len(rows), [value for row in rows for value in row]
    import numpy as np
    table = np.asarray(rows, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] != width:
        raise ValueError(f"a table of shape {table.shape}, not rows of {width} values "
                         f"for {width} fields")
    return len(table), table.ravel().tolist()


def render_csv(fields, rows) -> str:
    """Header and rows (an (n, len(fields)) table or a list of row tuples)
    as CSV, '%.12g' per value."""
    n, values = _flat_values(fields, rows)
    line = ",".join(["%.12g"] * len(fields)) + "\n"
    return ",".join(fields) + "\n" + (line * n) % tuple(values)


def _json_number(token: str) -> str:
    # json.dumps prints repr(float(token)).  For a normal float that repr has
    # the digits of the '%.12g' token (decimals of <= 15 digits round-trip),
    # and the same notation except for integral values ("10" vs "10.0"),
    # exponents 12..15 and nan/inf; those, and the subnormal range (e-3xx),
    # go through json itself
    if ("." in token or "e-" in token) and "+" not in token and "e-3" not in token:
        return token
    return json.dumps(float(token))


def render_json(fields, rows) -> str:
    """Rows (an (n, len(fields)) table or a list of row tuples) as a JSON
    list of objects, the bytes of json.dumps(..., indent=1) of the rows
    rounded to 12 significant digits."""
    n, values = _flat_values(fields, rows)
    if n == 0:
        return "[]\n"
    tokens = ("%.12g," * len(values) % tuple(values)).split(",")[:-1]
    numbers = [_json_number(tok) for tok in tokens]
    obj = "{\n" + ",\n".join(f"  {json.dumps(f)}: %s" for f in fields) + "\n }"
    return "[\n " + ",\n ".join([obj] * n) % tuple(numbers) + "\n]\n"


def render_blocks(fields, table, fmt: str):
    """The text of render_csv ("csv") or render_json ("json") on the whole
    table (an array or a list of rows), as consecutive strings of at most
    RENDER_ROWS rows each.

    Each block is one render call; the CSV header and the JSON brackets and
    separators are kept once, so the joined strings are the bytes of one
    call on the whole table.

    Raises
    ------
    ValueError
        If fmt is not "csv" or "json", when the first block is asked for.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    # renderer and framing of one call's text; built per call, so that a
    # wrapper bound to a renderer's name sees it
    render, head, sep, tail = {"csv": (render_csv, ",".join(fields) + "\n", "", ""),
                               "json": (render_json, "[\n ", ",\n ", "\n]\n")}[fmt]
    if len(table) == 0:
        yield render(fields, table)
        return
    for start in range(0, len(table), RENDER_ROWS):
        text = render(fields, table[start:start + RENDER_ROWS])
        yield (sep if start else head) + text[len(head):len(text) - len(tail)]
    yield tail


def _fig3_concurrence(c1):
    # the ground-state concurrence at c2 = sqrt(1 - c1^2), +0.0 at c1 = 1
    d = 1.0 - c1 * c1
    return _ground_concurrence(c1, math.sqrt(d) if d > 0.0 else 0.0)


def _require_finite(fields, table) -> None:
    import numpy as np
    finite = np.isfinite(table)
    if not finite.all():
        first = int(np.argmin(finite.all(axis=1)))
        raise ValueError(f"non-finite result at {fields[0]} = {float(table[first, 0])!r}")


def grid_rows(which: str, config: ScanConfig):
    """(field names, rows) that `h2e scan` (which = "scan") or `h2e figure`
    (which in FIGURES) prints for config, every value finite.

    fig1: (s, e_psi1, e_ci)      bonding-configuration vs CI energy
    fig2: (s, c1_sq, c2_sq)      CI coefficient squares
    fig3: (c1, concurrence)      closed form 2 |c1| sqrt(1 - c1^2) on
                                 config.steps points of [0, 1]; the other
                                 fields of config are not read
    fig4: (s, e_ci, concurrence) energy and concurrence together

    A grid of at most SCALAR_ROWS points is a list of row tuples, evaluated
    point by point by record_at, and numpy is not loaded.  A larger grid is
    an array, the columns of scan_table, which can differ from record_at in
    a 12th printed digit where numpy's exp and math.exp differ by an ulp.
    fig3 is a list of row tuples at every size, its closed form over math,
    and never loads numpy.

    Raises
    ------
    ValueError
        If which is unknown, or naming the first grid point whose row is
        not finite.
    """
    if which != "scan" and which not in FIGURES:
        raise ValueError(f"unknown grid {which!r}; expected 'scan' or one of {FIGURES}")
    fields = SCAN_FIELDS if which == "scan" else FIGURE_FIELDS[which]
    # the points of grid_values: s_min + i h
    if which == "fig3":
        h = 1.0 / (config.steps - 1)
        return fields, [(i * h, _fig3_concurrence(i * h)) for i in range(config.steps)]
    cols = [SCAN_FIELDS.index(f) for f in fields]
    if config.steps > SCALAR_ROWS:
        table = scan_table(config)
        if which != "scan":  # all 8 columns need no copy
            table = table[:, cols]
        _require_finite(fields, table)
        return fields, table
    h = (config.s_max - config.s_min) / (config.steps - 1)
    rows = []
    for i in range(config.steps):
        values = record_at(config.s_min + i * h, config.h22_variant, config.unit).values()
        rows.append(tuple(values[c] for c in cols))
    return fields, rows
