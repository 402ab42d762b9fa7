"""Workload definitions: the operations each workload runs, made from a seed.

Every input is a pure function of (workload, seed), so run.py, child.py and
check.py regenerate identical inputs independently.  An operation is one
`h2e` command line, except in library-sweep, where it is one point of the
sweep evaluated through the Python API.
"""

import math
import random
from typing import NamedTuple

WORKLOADS = ("cli-startup", "scan-dense", "verify", "library-sweep")

S_LO, S_HI = 0.3, 20.0               # seeded distances are log-uniform on this range
UNITS = ("rydberg", "hartree", "ev")
VARIANTS = ("corrected", "printed")
FIGURES = ("fig1", "fig2", "fig3", "fig4")
DEFAULT_GRID = ("--s-min", "0.5", "--s-max", "10", "--steps", "400")
# Inputs on which today's CLI prints wrong digits or a traceback (ROADMAP
# item 3).  They fail on every run, independently of the seed, and are
# counted in `failed` until the program refuses them or gets them right.
EDGE_S = ("1e-4", "1e-9", "800")
POINT_CALLS = 10
DENSE_STEPS = 50_000
SWEEP_POINTS = 50_000
# one float64 row per library-sweep point in sweep.bin, written by child.py
SWEEP_COLUMNS = ("s", "e_psi1", "e_psi2", "e_ci", "c1_sq", "c2_sq", "concurrence", "entropy",
                 "c1", "c2", "concurrence4", "vn_entropy", "slater_rank")


class Op(NamedTuple):
    name: str
    argv: tuple
    known_fault: bool = False


def rng_for(workload: str, seed: int, purpose: str = "inputs") -> random.Random:
    return random.Random(f"{workload}/{purpose}/{seed}")


def log_uniform(rng: random.Random, lo: float = S_LO, hi: float = S_HI) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def cli_startup_ops(seed: int):
    rng = rng_for("cli-startup", seed)
    ops = []
    for i in range(POINT_CALLS):
        s = log_uniform(rng)
        ops.append(Op(f"point-{i}", ("point", "--s", repr(s), "--unit", UNITS[i % 3],
                                     "--h22", VARIANTS[i % 2])))
    for unit in UNITS:
        for variant in VARIANTS:
            ops.append(Op(f"scan-{unit}-{variant}",
                          ("scan",) + DEFAULT_GRID + ("--unit", unit, "--h22", variant)))
    ops.append(Op("scan-json", ("scan",) + DEFAULT_GRID + ("--format", "json")))
    for fig in FIGURES:
        ops.append(Op(fig, ("figure", "--which", fig)))
    for s in EDGE_S:
        ops.append(Op(f"edge-{s}", ("point", "--s", s), known_fault=True))
    return ops


def dense_grid(seed: int):
    """(s_min, s_max) of the scan-dense grid: [0.3, 20] with seeded ends."""
    rng = rng_for("scan-dense", seed)
    return round(0.3 + 0.01 * rng.random(), 6), round(20.0 - 0.01 * rng.random(), 6)


def scan_dense_ops(seed: int):
    s_min, s_max = dense_grid(seed)
    grid = ("scan", "--s-min", repr(s_min), "--s-max", repr(s_max), "--steps", str(DENSE_STEPS))
    return [Op("csv", grid), Op("json", grid + ("--format", "json")),
            Op("csv-parallel", grid + ("--parallel", "2"))]


def verify_ops(seed: int):
    # verify runs at its default arguments (MC seed 42); the benchmark seed
    # does not enter, so every run checks the same printed values
    return [Op("verify", ("verify",))]


def cli_ops(workload: str, seed: int):
    return {"cli-startup": cli_startup_ops, "scan-dense": scan_dense_ops,
            "verify": verify_ops}[workload](seed)


def sweep_points(seed: int):
    rng = rng_for("library-sweep", seed)
    return [log_uniform(rng) for _ in range(SWEEP_POINTS)]


def sample(workload: str, seed: int, population, k: int):
    """Seeded choice of k indices of `population` (sorted) for reference checks."""
    rng = rng_for(workload, seed, "sample")
    return sorted(rng.sample(range(len(population)), min(k, len(population))))
