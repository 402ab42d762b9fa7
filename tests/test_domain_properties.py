"""Property test of the scalar library's domain: at every positive finite
float s, and at reals past the float range, each public scalar function of s
returns finite fields or raises a ValueError, never a NaN, an inf or a bare
ArithmeticError."""

import dataclasses
import functools
import math
import sys
from fractions import Fraction

import pytest

from h2ent.ci import H22_VARIANTS, ci_solve, hamiltonian_block
from h2ent.integrals import (coulomb_j, exchange_k, hybrid_l, integral_set, jprime, kprime,
                             overlap, s_prime)
from h2ent.scan import record_at

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FUNCTIONS = {f.__name__: f for f in (overlap, s_prime, jprime, kprime, coulomb_j, exchange_k,
                                     hybrid_l, integral_set, record_at)}
for _variant in H22_VARIANTS:
    FUNCTIONS[f"hamiltonian_block-{_variant}"] = functools.partial(hamiltonian_block,
                                                                   variant=_variant)
    FUNCTIONS[f"ci_solve-{_variant}"] = functools.partial(ci_solve, variant=_variant)

# where float64 gave out: l's 5/(16 s) overflows below 1.7e-309, 1 - S^2
# rounds to 0 up to about 3.4e-8 (1e-9 and 2.08e-9 divided by zero), S'
# overflows from 697.79 (k was NaN there) and math.exp from 709.78, and s^2
# from 1.34e154 (S and j were NaN there)
EDGES = (5e-324, 1e-309, 1.7e-309, 1.75e-309, 1e-9, 2.08e-9, 3.4e-8, 1e-2, 697.78, 697.79,
         700.0, 709.78, 710.0, 800.0, 1.34e154, 1.35e154, 1e200, sys.float_info.max)
# reals float() cannot hold, which raised an OverflowError
BEYOND_FLOAT = (10 ** 400, -10 ** 400, Fraction(10 ** 400, 3))


def _fields(value):
    return dataclasses.astuple(value) if dataclasses.is_dataclass(value) else (value,)


def _examples(test):
    for s in EDGES + BEYOND_FLOAT:
        test = hypothesis.example(s=s)(test)
    return test


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
@hypothesis.settings(derandomize=True, database=None, deadline=None)
@hypothesis.given(s=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
@_examples
def test_scalar_functions_are_finite_or_refuse(name, s):
    try:
        value = FUNCTIONS[name](s)
    except ValueError:
        return
    assert all(math.isfinite(v) for v in _fields(value)), (name, s, value)
