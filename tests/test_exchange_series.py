"""The small-s series of the exchange integral k, derived exactly.

sympy expands k's closed form [A - B] / 5, as integrals._exchange_closed
writes it, with E1's convergent series E1(x) = -gamma - ln x -
sum_{j>=1} (-x)^j / (j j!), through s^7.  The log-divergent pieces must
cancel, and the coefficients must be the ones exchange_k uses below
EXCHANGE_SMALL_S.
"""

import math

import pytest

from h2ent import integrals

sp = pytest.importorskip("sympy")

ORDER = 8   # coefficients of s^0 .. s^7


def _e1(x, log_x):
    # A divides by s, so E1's terms through x^ORDER give k through s^(ORDER - 1)
    return (-sp.EulerGamma - log_x
            - sum((-x) ** j / (j * sp.factorial(j)) for j in range(1, ORDER + 1)))


@pytest.fixture(scope="module")
def expansion():
    """(k's series through s^7, {power: exact coefficient}); ln s is the
    symbol L, so a log term that does not cancel shows in a coefficient."""
    s, log_s = sp.symbols("s L", positive=True)
    ss = (1 + s + s ** 2 / 3) * sp.exp(-s)
    sp_ = (1 - s + s ** 2 / 3) * sp.exp(s)
    a = (6 / s) * ((sp.EulerGamma + log_s) * ss ** 2
                   - _e1(4 * s, sp.log(4) + log_s) * sp_ ** 2
                   + 2 * _e1(2 * s, sp.log(2) + log_s) * ss * sp_)
    b = (sp.Rational(-25, 8) + sp.Rational(23, 4) * s + 3 * s ** 2 + s ** 3 / 3) * sp.exp(-2 * s)
    series = sp.expand(sp.series((a - b) / 5, s, 0, ORDER).removeO())
    return series, {p: sp.expand(sp.expand_log(series.coeff(s, p), force=True))
                    for p in range(ORDER)}


@pytest.fixture(scope="module")
def coefficients(expansion):
    return expansion[1]


def test_the_series_holds_only_powers_0_to_7(expansion):
    series, coefficients = expansion
    s = sp.Symbol("s", positive=True)
    rest = series - sum(c * s ** p for p, c in coefficients.items())
    assert sp.expand(sp.expand_log(rest, force=True)) == 0


def test_no_log_term_survives(coefficients):
    log_s = sp.Symbol("L", positive=True)
    assert [p for p, c in coefficients.items() if c.has(log_s) or c.has(sp.EulerGamma)] == []


def test_the_low_order_coefficients(coefficients):
    assert coefficients[0] == sp.Rational(5, 8) == sp.Rational(integrals._ONE_CENTER)
    assert coefficients[1] == 0
    assert coefficients[2] == sp.Rational(-1, 4)
    assert coefficients[3] == 0


@pytest.mark.parametrize("power, name", [(4, "_K4"), (5, "_K5"), (6, "_K6"), (7, "_K7")])
def test_series_coefficient_is_within_one_ulp(coefficients, power, name):
    exact = float(sp.N(coefficients[power], 40))
    used = getattr(integrals, name)
    assert abs(used - exact) <= math.ulp(exact)
