"""The scalar library path pinned bit for bit.

Each group below is the sha256 of the repr of every value it computes, one
value per line, at fixed inputs: record_at, ci_solve, the CI state's
w_from_ci matrix and its entanglement measures on 2 000 log-spaced s in
[1e-2, 650], slater_decompose on seeded random states (one group for each
n in 4, 6 and 8), and E1 over all of its pieces.
tests/data/scalar_golden.json holds the digests; a change that moves one
last bit of one value fails here.  To print the digests:

    PYTHONPATH=src python tests/test_scalar_golden.py
"""

import hashlib
import json
import math
import pathlib

import numpy as np

from h2ent.ci import H22_VARIANTS, ci_solve, w_from_ci
from h2ent.entanglement import (concurrence4, make_antisym, slater_decompose, slater_rank,
                                von_neumann_entropy)
from h2ent.scan import UNIT_FACTORS, record_at
from h2ent.specfun import exp_integral_e1

GOLDEN = pathlib.Path(__file__).parent / "data" / "scalar_golden.json"

DISTANCES = np.logspace(-2.0, math.log10(650.0), 2000).tolist()


def e1_arguments():
    """Every piece from 1e-6 to 700, its edges x = 1 and 4 and their
    neighbours, and (1, 1.5]."""
    edges = [1.0 - 1e-12, 1.0, 1.0 + 1e-12, math.nextafter(1.0, 0.0),
             math.nextafter(1.0, 2.0), math.nextafter(4.0, 0.0), 4.0, math.nextafter(4.0, 5.0)]
    return (np.logspace(-6.0, math.log10(700.0), 4000).tolist() + edges
            + np.linspace(1.0, 1.5, 2001)[1:].tolist())


def _digest(values):
    h = hashlib.sha256()
    for value in values:
        h.update(repr(value).encode() + b"\n")
    return h.hexdigest()


def _state_values(w):
    spec = slater_decompose(w)
    return [w.w.tolist(), concurrence4(w) if w.n == 4 else None, spec.z.tolist(), spec.n,
            slater_rank(spec), von_neumann_entropy(spec)]


def digests():
    out = {}
    for variant in H22_VARIANTS:
        for unit in UNIT_FACTORS:
            out[f"record_at/{variant}/{unit}"] = _digest(
                record_at(s, variant, unit).values() for s in DISTANCES)
        sols = [ci_solve(s, variant) for s in DISTANCES]
        out[f"ci_solve/{variant}"] = _digest(
            (sol.s, sol.c1, sol.c2, sol.e_ground, sol.e_psi1, sol.e_psi2, sol.degenerate)
            for sol in sols)
        out[f"ci_state/{variant}"] = _digest(
            _state_values(w_from_ci(sol.c1, sol.c2)) for sol in sols)
    # one group per n: n = 4 takes the closed form, n = 6 and 8 the eigensolver
    rng = np.random.default_rng(20261018)
    for n in (4, 6, 8):
        randoms = []
        for _ in range(300):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            randoms.append(make_antisym([m[i, j] for i in range(n) for j in range(i + 1, n)]))
        out[f"random_state/{n}"] = _digest(_state_values(w) for w in randoms)
    out["exp_integral_e1"] = _digest(exp_integral_e1(x) for x in e1_arguments())
    return out


def test_scalar_path_is_bit_identical_to_its_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests()
    assert sorted(got) == sorted(golden)
    assert [k for k in golden if got[k] != golden[k]] == []


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1, sort_keys=True))
