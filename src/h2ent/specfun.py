"""Special-function kernel: exponential integral E1, Euler's constant, binary entropy.

The exchange integral of the two-center problem needs E1 at arguments 2s and
4s, together with Euler's constant gamma.  E1 is evaluated by the classic
two-regime scheme:

* convergent series  E1(x) = -gamma - ln x - sum_k (-x)^k / (k * k!)   for x <= 1
* continued fraction E1(x) = e^-x / (x+1 - 1/(x+3 - 4/(x+5 - 9/(...))))
  evaluated with the modified Lentz algorithm                          for x > 1

Both regimes deliver better than 1e-13 relative accuracy on [1e-3, 700];
the certification against an independent quadrature of the defining
integral lives in the oracle module and the test suite.

exp_integral_e1_array runs the same recurrences on a whole array, one numpy
operation per step; it differs from the scalar only through numpy's log and
exp, by a few ulp.  The series is one function of (x, xp) for both.  The
continued fraction has two loops, which read the same numerators
_CF_NUMERATORS and stop on the same test, delta == 1.0; only the retiring
belongs to the array loop, which takes each element out at the step where
the scalar loop returns, because a Lentz step past convergence still moves
the last bits of the result (of 39 576 out of 40 000 x in (1, 700]), and a
mask in place of the retiring would put extra calls on every step of the
scalar loop, which is a large share of the time of one scalar record.
Where e^-x underflows to 0.0 (x > 745.13) neither loop runs and E1 is 0.0:
for many x above about 5e11 delta alternates about 1.0 without reaching it,
and the loop would not stop.
Every other closed form is written once, as f(s, xp) (the binary entropy as
f(p, xp)), over MATH_XP for one point or numpy_xp() for arrays.  numpy is
imported by the functions that build or read arrays, so that the scalar
path never loads it.
"""

import functools
import math
from itertools import islice
from types import SimpleNamespace

__all__ = ["EULER_GAMMA", "exp_integral_e1", "exp_integral_e1_array", "binary_entropy"]

# Euler-Mascheroni constant, correctly rounded double.
EULER_GAMMA = 0.5772156649015329

_SERIES_CUTOFF = 1.0
_SERIES_MAX_TERMS = 80
_CF_MAX_ITER = 500
_CF_TINY = 1e-300
# the numerators -k^2 of the continued fraction, k = 1, 2, ...
_CF_NUMERATORS = tuple(-float(k * k) for k in range(1, _CF_MAX_ITER))


def _is_integer(x) -> bool:
    """True for an integer, numpy's included; False for a bool, a float or a
    string."""
    return not isinstance(x, bool) and hasattr(type(x), "__index__")


def _is_real(x) -> bool:
    """True for a numbers.Real, numpy's included; False for a bool (numpy's
    bool_ too), a complex (numpy's complex64 and clongdouble too), a
    Decimal, a string or None."""
    # the float test first: it is three times cheaper than numbers.Real,
    # and the CLI's own arguments, all floats, never import numbers
    if type(x) is float:
        return True
    import numbers
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _as_float(x) -> float:
    """float(x) for a real number x, +-inf for one past the float range (such
    as 10**400 or Fraction(10**400, 3), where float() raises an
    OverflowError), and nan for anything that is not a real number."""
    if not _is_real(x):
        return math.nan
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _require_positive(x, who: str, name: str = "s", or_zero: bool = False) -> float:
    """float(x), if x is a real number, finite and > 0 (or >= 0, with
    or_zero); otherwise a ValueError naming who refused which argument."""
    value = _as_float(x)
    if math.isfinite(value) and (value > 0.0 or or_zero and value == 0.0):
        return value
    raise ValueError(f"{who} requires finite {name} {'>=' if or_zero else '>'} 0, got {x!r}")


def _e1_series(x, xp):
    # for a float or an array of x <= 1.  The terms shrink, so once |term| <=
    # 1e-18 |acc| every later one is below half an ulp of acc and leaves it
    # unchanged: an array may run on until its slowest element stops, with
    # each element's bits those of the scalar loop
    acc = 0.0
    u = 1.0
    for k in range(1, _SERIES_MAX_TERMS):
        u = u * (-x / k)
        term = u / k
        acc = acc + term
        if not xp.any(abs(term) > 1e-18 * abs(acc)):
            break
    return -EULER_GAMMA - xp.log(x) - acc


def _e1_continued_fraction(x: float) -> float:
    # modified Lentz; numerators -k^2, denominators x+1, x+3, x+5, ...
    scale = math.exp(-x)
    if scale == 0.0:
        return 0.0
    b = x + 1.0
    c = 1.0 / _CF_TINY
    d = 1.0 / b
    h = d
    # _CF_MAX_ITER is read per call, so that it bounds this loop as it does
    # the array one
    for a in islice(_CF_NUMERATORS, _CF_MAX_ITER - 1):
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if delta == 1.0:
            return h * scale
    raise RuntimeError(f"E1 continued fraction failed to converge for x={x!r}")


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = integral_x^inf e^-z / z dz for x > 0.

    Parameters
    ----------
    x : float
        Strictly positive argument.

    Returns
    -------
    float
        E1(x); strictly positive and strictly decreasing in x up to about
        x = 701.84, where it underflows to subnormal values with fewer
        significant digits; 0.0 for every x >= 738.53, up to the largest
        float.

    Raises
    ------
    ValueError
        If ``x`` is not finite or ``x <= 0``.
    """
    x = _require_positive(x, "exp_integral_e1", "x")
    if x <= _SERIES_CUTOFF:
        return _e1_series(x, MATH_XP)
    return _e1_continued_fraction(x)


def _e1_continued_fraction_array(x):
    import numpy as np
    scale = np.exp(-x)
    out = np.zeros_like(x)
    live = np.flatnonzero(scale)
    b = x[live] + 1.0
    c = 1.0 / _CF_TINY
    d = 1.0 / b
    h = d.copy()
    for a in islice(_CF_NUMERATORS, _CF_MAX_ITER - 1):
        if live.size == 0:
            break
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        done = delta == 1.0
        if done.any():
            out[live[done]] = h[done]
            keep = ~done
            live, b, c, d, h = live[keep], b[keep], c[keep], d[keep], h[keep]
    if live.size:
        raise RuntimeError(
            f"E1 continued fraction failed to converge for x={float(x[live[0]])!r}")
    return out * scale


def exp_integral_e1_array(x) -> "numpy.ndarray":
    """exp_integral_e1 evaluated elementwise on an array of x > 0.

    Raises
    ------
    ValueError
        If any element is not finite or not > 0.
    RuntimeError
        If the continued fraction does not converge for some element.
    """
    import numpy as np
    x = np.asarray(x, dtype=np.float64)
    if not (np.isfinite(x).all() and (x > 0.0).all()):
        raise ValueError("exp_integral_e1_array requires finite x > 0 everywhere")
    flat = x.ravel()
    out = np.empty_like(flat)
    series = flat <= _SERIES_CUTOFF
    out[series] = _e1_series(flat[series], numpy_xp())
    out[~series] = _e1_continued_fraction_array(flat[~series])
    return out.reshape(x.shape)


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy -p log2 p - (1-p) log2(1-p), with 0 log 0 = 0.

    Raises
    ------
    ValueError
        If ``p`` is not a real number (a bool, a string or a complex
        included) or lies outside [0, 1].
    """
    value = _as_float(p)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"binary_entropy requires p in [0, 1], got {p!r}")
    return _binary_entropy(value, MATH_XP)


def _binary_entropy(p, xp):
    # log2 of 1 in place of 0 makes 0 log 0 = 0 without a branch, and the
    # leading 0.0 keeps the endpoints at +0.0; NaN stays NaN
    q = 1.0 - p
    return (0.0 - p * xp.log2(xp.where(p > 0.0, p, 1.0))
            - q * xp.log2(xp.where(q > 0.0, q, 1.0)))


# the functions the closed forms call, for one point or for arrays.  The
# scalar E1 is looked up when called, so that a profiler's wrapper on
# specfun.exp_integral_e1 also counts the calls made through MATH_XP
MATH_XP = SimpleNamespace(
    exp=math.exp, expm1=math.expm1, log=math.log, log2=math.log2,
    hypot=math.hypot, atan2=math.atan2, cos=math.cos, sin=math.sin,
    clip=lambda x, lo, hi: min(max(x, lo), hi), where=lambda cond, x, y: x if cond else y,
    any=bool, e1=lambda x: exp_integral_e1(x))


@functools.cache
def numpy_xp() -> SimpleNamespace:
    """MATH_XP's functions over numpy arrays, built (and numpy imported) on
    first call; bound by their numpy < 2 names (np.arctan2, not np.atan2)."""
    import numpy as np
    return SimpleNamespace(
        exp=np.exp, expm1=np.expm1, log=np.log, log2=np.log2,
        hypot=np.hypot, atan2=np.arctan2, cos=np.cos, sin=np.sin,
        clip=np.clip, where=np.where, any=np.any, e1=exp_integral_e1_array)
