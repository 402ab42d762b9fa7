import hashlib
import math
import re
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from h2ent import specfun
from h2ent.entanglement import SlaterSpectrum, slater_rank
from h2ent.integrals import coulomb_j, exchange_k, hybrid_l, integral_set, jprime
from h2ent.oracle import mc_two_electron, oracle_e1, quad_one_electron, quad_two_electron
from h2ent.scan import record_at
from h2ent.specfun import EULER_GAMMA, binary_entropy, exp_integral_e1, exp_integral_e1_array

# (who, argument name, call with the argument) of every public function
# that refuses an argument that is not finite and > 0 by one message
# real numbers past the float range, where float() raises an OverflowError
BEYOND_FLOAT = [pytest.param(10 ** 400, id="10**400"), pytest.param(-10 ** 400, id="-10**400"),
                pytest.param(Fraction(10 ** 400, 3), id="Fraction(10**400, 3)")]

POSITIVE_ARGUMENTS = {
    "exp_integral_e1": ("exp_integral_e1", "x", exp_integral_e1),
    "jprime": ("jprime", "s", jprime),
    "coulomb_j": ("coulomb_j", "s", coulomb_j),
    "exchange_k": ("exchange_k", "s", exchange_k),
    "hybrid_l": ("hybrid_l", "s", hybrid_l),
    "integral_set": ("integral_set", "s", integral_set),
    "record_at": ("record_at", "s", record_at),
    "quad_one_electron-s": ("oracle", "s", lambda v: quad_one_electron("overlap", v)),
    "quad_two_electron-s": ("oracle", "s", lambda v: quad_two_electron("m", v)),
    "oracle_e1-x": ("oracle_e1", "x", oracle_e1),
    "mc_two_electron": ("oracle", "s", lambda v: mc_two_electron("m", v, 10_000, 0)),
    "slater_rank": ("slater_rank", "tol",
                    lambda v: slater_rank(SlaterSpectrum(np.array([0.5, 0.0])), v)),
}


def test_e1_at_one():
    # frozen from the quadrature oracle of the defining integral
    assert exp_integral_e1(1.0) == pytest.approx(0.21938393439552029, rel=1e-12)


def test_e1_matches_quadrature_oracle_on_log_grid():
    for x in np.logspace(-3.0, math.log10(50.0), 50):
        ref = oracle_e1(float(x))
        assert abs(exp_integral_e1(float(x)) - ref) <= 1e-12 * ref


def test_e1_small_x_series_limit():
    # E1(x) + gamma + ln x -> 0 like x
    for x in (1e-6, 1e-8):
        resid = exp_integral_e1(x) + EULER_GAMMA + math.log(x)
        assert abs(resid) <= 2.0 * x


def test_e1_large_x_asymptote():
    # x e^x E1(x) -> 1 with a 1/x correction
    for x in (100.0, 300.0, 700.0):
        ratio = x * exp_integral_e1(x) / math.exp(-x)
        assert abs(ratio - 1.0) <= 2.0 / x


def test_e1_strictly_decreasing_and_log_convex():
    xs = np.linspace(1e-3, 50.0, 400)
    ys = np.array([exp_integral_e1(float(x)) for x in xs])
    assert np.all(ys > 0.0)
    assert np.all(np.diff(ys) < 0.0)
    second = np.diff(np.log(ys), 2)
    assert np.all(second >= -1e-12)


def test_e1_continuous_at_regime_crossover():
    # the series ends at x = 1, the first polynomial piece at x = 4
    for edge in (1.0, 4.0):
        below = exp_integral_e1(edge)
        above = exp_integral_e1(edge + 1e-13)
        assert 0.0 <= below - above <= 1e-13


@pytest.mark.parametrize("bad", [0.0, -1.0, -1e-300, math.inf, math.nan])
def test_e1_domain_errors(bad):
    with pytest.raises(ValueError):
        exp_integral_e1(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0, "2", True, None, 1j,
                                 np.True_, np.complex64(2 + 1j), np.clongdouble(2 + 1j),
                                 *BEYOND_FLOAT])
@pytest.mark.parametrize("function", sorted(POSITIVE_ARGUMENTS))
def test_positive_arguments_are_refused_by_one_message(function, bad):
    # slater_rank(spec, tol=inf) counted no coefficient of a normalized state;
    # record_at("2") and record_at(True) ran at s = 2.0 and 1.0, and None and
    # 1j raised a TypeError that named no function; numpy's bool_, complex64
    # and clongdouble, which have a __float__, ran at s = 1.0 and 2.0; 10**400
    # raised an OverflowError
    who, name, call = POSITIVE_ARGUMENTS[function]
    message = rf"^{who} requires finite {name} > 0, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        call(bad)


@pytest.mark.parametrize("function", sorted(POSITIVE_ARGUMENTS))
def test_positive_arguments_accept_numpy_numbers(function):
    call = POSITIVE_ARGUMENTS[function][2]
    expected = repr(call(2.0))
    assert repr(call(np.float64(2.0))) == expected
    assert repr(call(np.int64(2))) == expected


def test_e1_is_zero_without_error_up_to_the_largest_floats():
    # a continued fraction for x > 1 once alternated about its stop test past
    # x ~ 5e11 and raised RuntimeError; e^-x is 0.0 from x = 745.14 on
    x = np.logspace(math.log10(738.53), math.log10(1.7e308), 30_000)
    assert not exp_integral_e1_array(x).any()
    assert not any(exp_integral_e1(v) for v in x.tolist())
    assert exp_integral_e1(1.7976931348623157e308) == 0.0
    assert exp_integral_e1_array(np.array([0.5, 2.0, 5e11, 1e300]))[2:].tolist() == [0.0, 0.0]
    # the integrals' array path reaches x = inf where 4 s overflows
    assert specfun.numpy_xp().e1(np.array([2.0, np.inf])).tolist() == [
        exp_integral_e1(2.0), 0.0]


def test_e1_array_matches_scalar_within_2_ulp():
    # the scalar's own arguments of every piece, from 2e-4 to 2800 (where
    # e^-x underflows and both give 0)
    x = np.logspace(math.log10(2e-4), math.log10(2800.0), 200_000)
    array = exp_integral_e1_array(x)
    scalar = np.array([exp_integral_e1(v) for v in x.tolist()])
    assert np.all(np.abs(array - scalar) <= 2.0 * np.spacing(scalar))


def test_e1_array_takes_subnormal_x_without_warnings():
    # 1/x and p/x overflow in the branch that x <= 1 does not take
    x = np.array([5e-324, 1e-310, 2.2e-308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        array = exp_integral_e1_array(x)
    scalar = np.array([exp_integral_e1(v) for v in x.tolist()])
    assert np.all(np.abs(array - scalar) <= 2.0 * np.spacing(scalar))


def test_e1_is_within_3e_15_of_mpmath():
    # both paths, on every piece; a continued fraction for x > 1 reached 9e-15
    x = np.logspace(-12.0, math.log10(700.0), 3001)
    with mp.workdps(30):
        ref = [mp.e1(v) for v in x.tolist()]
    for values in (exp_integral_e1_array(x).tolist(), [exp_integral_e1(v) for v in x.tolist()]):
        worst = max(abs(mp.mpf(v) - r) / r for v, r in zip(values, ref))
        assert worst <= 3e-15


def _chebyshev_row(lo, hi, degree):
    """(mid, then the monomial coefficients in 1/x - mid, highest first) of
    the interpolant of x e^x E1(x) at the degree + 1 Chebyshev nodes of 1/x
    in [lo, hi], to 40 digits."""
    with mp.workdps(40):
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        mid, half, n = (lo + hi) / 2, (hi - lo) / 2, degree + 1
        nodes = [mid + half * mp.cos(mp.pi * (2 * i + 1) / (2 * n)) for i in range(n)]
        values = [mp.exp(1 / t) * mp.e1(1 / t) / t for t in nodes]
        powers = mp.matrix([[(t - mid) ** j for j in range(n)] for t in nodes])
        coefficients = mp.lu_solve(powers, mp.matrix(values))
        return (float(mid), *(float(coefficients[j]) for j in reversed(range(n))))


def test_e1_coefficients_are_derived_from_mpmath():
    # the series of x <= 1, and x e^x E1(x) on x in (1, 4] and (4, inf], where
    # 1/x lies in [1/4, 1] and [0, 1/4]
    series = (0.0, *(float(mp.mpf(-1) ** k / (k * mp.factorial(k))) for k in range(23, 0, -1)))
    assert specfun._E1_ROWS == (series, _chebyshev_row(0.25, 1.0, 22),
                                _chebyshev_row(0.0, 0.25, 22))


def test_e1_array_bits_are_pinned():
    # sha256 of the float64 bytes on every piece; 161 670 of the x are <= 1
    x = np.logspace(-12.0, np.log10(700.0), 200_001)
    digest = hashlib.sha256(exp_integral_e1_array(x).tobytes()).hexdigest()
    assert digest == "1a9b418b8ff2441e25b7e0d90c4cf1dbda3cbabe9d08879d1f39150307b280b1"


def test_e1_array_keeps_shape_and_regime_crossover():
    x = np.array([[1.0, 1.0 + 1e-13], [0.5, 2.0]])
    out = exp_integral_e1_array(x)
    assert out.shape == (2, 2)
    assert out[0, 0] == exp_integral_e1(1.0)
    assert abs(out[0, 0] - out[0, 1]) <= 1e-13
    assert exp_integral_e1_array(np.array([])).shape == (0,)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_e1_array_domain_errors(bad):
    with pytest.raises(ValueError):
        exp_integral_e1_array(np.array([1.0, bad]))


def test_integral_set_calls_e1_twice_through_the_module(monkeypatch):
    # a profiler wraps specfun.exp_integral_e1 from outside; the integrals
    # must reach E1 through that name, at k's two arguments 2s and 4s, except
    # below EXCHANGE_SMALL_S, where k is a series without E1
    from h2ent.integrals import EXCHANGE_SMALL_S, integral_set

    calls = []
    inner = specfun.exp_integral_e1
    monkeypatch.setattr(specfun, "exp_integral_e1", lambda x: calls.append(x) or inner(x))
    for s in (1e-3, 1e-2, 0.3, 1.0, 1.67, 20.0, 650.0):
        calls.clear()
        integral_set(s)
        assert sorted(calls) == ([] if s < EXCHANGE_SMALL_S else [2.0 * s, 4.0 * s]), s


def _gamma_richardson(n0=10_000, levels=7):
    # limit of H_N - ln N, accelerated over N = n0 * 2^i
    terms = [1.0 / k for k in range(1, n0 * 2 ** (levels - 1) + 1)]
    table = [[math.fsum(terms[: n0 * 2 ** i]) - math.log(n0 * 2 ** i)
              for i in range(levels)]]
    for j in range(1, levels):
        prev = table[-1]
        fac = 2.0 ** j
        table.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0)
                      for i in range(len(prev) - 1)])
    return table[-1][0]


def test_euler_gamma_against_accelerated_limit():
    assert abs(_gamma_richardson() - EULER_GAMMA) < 1e-12


def test_euler_gamma_value_and_determinism():
    assert EULER_GAMMA == 0.5772156649015329


def test_euler_gamma_consistent_with_e1_zero_limit():
    x = 1e-8
    assert exp_integral_e1(x) + math.log(x) == pytest.approx(-EULER_GAMMA, abs=2e-8)


def test_binary_entropy_values():
    # 0 log 0 = 0 with no branch: the endpoints are +0.0, sign bit included
    for p in (0.0, 1.0):
        assert binary_entropy(p) == 0.0 and math.copysign(1.0, binary_entropy(p)) == 1.0
    assert binary_entropy(0.5) == 1.0
    # frozen from an independent arbitrary-precision evaluation
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-15)


def test_binary_entropy_symmetry(rng):
    for p in np.concatenate([np.linspace(0.0, 1.0, 21), rng.random(50)]):
        assert abs(binary_entropy(float(p)) - binary_entropy(float(1.0 - p))) <= 1e-15


# "0.5" and True ran as 0.5 and 1.0, None and 1j raised a bare TypeError, and
# 10**400 an OverflowError
@pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan, "0.5", True, None, 1j, *BEYOND_FLOAT])
def test_binary_entropy_domain_errors(bad):
    message = rf"^binary_entropy requires p in \[0, 1\], got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        binary_entropy(bad)
