"""Distance sweeps and figure data: grid evaluation, units, rendering.

Energies are reported relative to two separated hydrogen atoms (2 E1s) and
converted from Hartree to the selected output unit.  Rows are rendered with
12 significant digits, '.' decimal separator and LF line endings; identical
configurations produce byte-identical output, because every grid point is a
pure function of (s, variant, unit) and rows are emitted in grid order.
"""

import json
import math
from dataclasses import dataclass

from .ci import E1S, H22_VARIANTS, ci_solve, ground_concurrence, ground_entropy

__all__ = [
    "UNIT_FACTORS",
    "SCAN_FIELDS",
    "ScanConfig",
    "ScanRecord",
    "record_at",
    "grid_values",
    "scan_records",
    "render_csv",
    "render_json",
    "figure_table",
    "FIGURES",
]

# Hartree -> output unit. 1 Hartree = 2 Rydberg; the eV factor is the CODATA
# value of the Hartree energy in electronvolts.
UNIT_FACTORS = {"hartree": 1.0, "rydberg": 2.0, "ev": 27.211386245988}

SCAN_FIELDS = ("s", "e_psi1", "e_psi2", "e_ci", "c1_sq", "c2_sq", "concurrence", "entropy")

FIGURES = ("fig1", "fig2", "fig3", "fig4")

# fig3 samples the closed-form concurrence over c1 in [0, 1]; the default
# grid is dense enough that the node nearest 1/sqrt(2) reads 1 - O(1e-7)
FIG3_DEFAULT_STEPS = 2001


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
    """Validated sweep configuration."""

    s_min: float = 0.5
    s_max: float = 10.0
    steps: int = 400
    unit: str = "rydberg"
    h22_variant: str = "corrected"
    format: str = "csv"

    def validate(self) -> None:
        if not (math.isfinite(self.s_min) and self.s_min > 0.0):
            raise ValueError(f"s_min must be > 0, got {self.s_min!r}")
        if not (math.isfinite(self.s_max) and self.s_max > 0.0):
            raise ValueError(f"s_max must be > 0, got {self.s_max!r}")
        if not self.s_min < self.s_max:
            raise ValueError(f"need s_min < s_max, got {self.s_min!r} >= {self.s_max!r}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps!r}")
        if self.unit not in UNIT_FACTORS:
            raise ValueError(f"unknown unit {self.unit!r}")
        if self.h22_variant not in H22_VARIANTS:
            raise ValueError(f"unknown h22 variant {self.h22_variant!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.format!r}")


def record_at(s: float, variant: str = "corrected", unit: str = "rydberg") -> ScanRecord:
    """Evaluate one grid point: CI energies, coefficients, entanglement."""
    factor = UNIT_FACTORS[unit]
    sol = ci_solve(s, variant)
    rel = lambda e: (e - 2.0 * E1S) * factor
    return ScanRecord(
        s=s,
        e_psi1=rel(sol.e_psi1),
        e_psi2=rel(sol.e_psi2),
        e_ci=rel(sol.e_ground),
        c1_sq=sol.c1 ** 2,
        c2_sq=sol.c2 ** 2,
        concurrence=ground_concurrence(sol.c1, sol.c2),
        entropy=ground_entropy(sol.c1, sol.c2),
    )


def grid_values(s_min: float, s_max: float, steps: int):
    """Uniform inclusive grid of `steps` points on [s_min, s_max]."""
    h = (s_max - s_min) / (steps - 1)
    return [s_min + i * h for i in range(steps)]


def scan_records(config: ScanConfig):
    """All sweep rows, strictly ordered by s."""
    config.validate()
    grid = grid_values(config.s_min, config.s_max, config.steps)
    return [record_at(s, config.h22_variant, config.unit) for s in grid]


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def render_csv(fields, rows) -> str:
    lines = [",".join(fields)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(fields, rows) -> str:
    out = []
    for row in rows:
        out.append({k: float(_fmt(v)) for k, v in zip(fields, row)})
    return json.dumps(out, indent=1) + "\n"


def figure_table(which: str, config: ScanConfig):
    """(field names, rows) for one of the four standard figures.

    fig1: (s, e_psi1, e_ci)      bonding-configuration vs CI energy
    fig2: (s, c1_sq, c2_sq)      CI coefficient squares
    fig3: (c1, concurrence)      closed form 2 |c1| sqrt(1 - c1^2) on [0, 1]
    fig4: (s, e_ci, concurrence) energy and concurrence together
    """
    if which not in FIGURES:
        raise ValueError(f"unknown figure {which!r}; expected one of {FIGURES}")
    if which == "fig3":
        config.validate()
        h = 1.0 / (config.steps - 1)
        rows = []
        for i in range(config.steps):
            c1 = i * h
            rows.append((c1, 2.0 * abs(c1) * math.sqrt(max(1.0 - c1 * c1, 0.0))))
        return ("c1", "concurrence"), rows
    records = scan_records(config)
    if which == "fig1":
        return ("s", "e_psi1", "e_ci"), [(r.s, r.e_psi1, r.e_ci) for r in records]
    if which == "fig2":
        return ("s", "c1_sq", "c2_sq"), [(r.s, r.c1_sq, r.c2_sq) for r in records]
    return ("s", "e_ci", "concurrence"), [(r.s, r.e_ci, r.concurrence) for r in records]
