"""Special-function kernel: exponential integral E1, Euler's constant, binary entropy.

The exchange integral of the two-center problem needs E1 at arguments 2s and
4s, together with Euler's constant gamma.  E1 is one fixed-cost body of
(x, xp) in three pieces, each one Horner polynomial of degree 22:

* x <= 1:      E1(x) = -gamma - ln x - x Q(x), with Q the convergent series
               sum_k (-1)^k x^(k-1) / (k k!) through k = 23
* 1 < x <= 4
  and x > 4:   E1(x) = e^-x / x P(1/x - mid), with P a polynomial of
               x e^x E1(x) in 1/x on that piece

Q's coefficients are computed from their formula at import.  Each P is the
interpolant at the 23 Chebyshev nodes of 1/x on its piece, [1/4, 1] or
[0, 1/4], of 40-digit mpmath values, in monomial form about the middle of
the piece and rounded to floats (tests/test_specfun.py derives them again).
This is the classic scheme of Cody & Thacher, Math. Comp. 22, 641 (1968),
with polynomials in place of their rational forms.  E1 is within 1.2e-15
relative of mpmath on [1e-12, 700] (the tests hold it to 3e-15); the oracle
module checks it against an independent quadrature of the defining integral.

exp_integral_e1 and exp_integral_e1_array run the same body, so they do the
same arithmetic on every element and differ only through numpy's log and
exp, by an ulp or two.  Where e^-x underflows E1 is 0.0, and so it is at
x = inf, which the integrals' array path reaches where 4 s overflows.
Every other closed form is written once, as f(s, xp) (the binary entropy as
f(p, xp)), over MATH_XP for one point or numpy_xp() for arrays.  numpy is
imported by the functions that build or read arrays, so that the scalar
path never loads it.
"""

import functools
import math
import operator
from types import SimpleNamespace

__all__ = ["EULER_GAMMA", "exp_integral_e1", "exp_integral_e1_array", "binary_entropy"]

# Euler-Mascheroni constant, correctly rounded double.
EULER_GAMMA = 0.5772156649015329

# E1's pieces: 0 for x <= 1, 1 for 1 < x <= 4, 2 for x > 4.  Each row holds
# one piece's mid, then its 23 Horner coefficients, highest power first, of a
# polynomial in u = x - 0 on piece 0 and u = 1/x - mid on the others
_E1_ROWS = (
    (0.0, *((-1) ** k / (k * math.factorial(k)) for k in range(23, 0, -1))),
    (0.625, 1.7763910823446154, -1.4445876953765149, -0.2546597784692488, 0.19526138370639806,
     0.35577318066207886, -0.2972945822322237, 0.14939688487523697, -0.13094977688604206,
     0.12879240770795364, -0.114487628506819, 0.10214523224268793, -0.09361594947507136,
     0.08738182201621261, -0.08317117768717638, 0.08105272233232916, -0.0812309629982186,
     0.08421168733135809, -0.09105259891897538, 0.10393361427357549, -0.12768077211505924,
     0.1746292926089927, -0.2853599635929983, 0.683980760479085),
    (0.125, 204583331190.23264, -44133527735.753746, -8744649737.88243, 1833940806.0907006,
     330219180.60064846, -72226468.6785984, 69775.00012485162, -186244.50093576114,
     310509.8749557873, -80385.23067796648, 19429.753921502404, -5492.683292720979,
     1618.9385895035748, -491.41130512282456, 156.1095150507745, -52.34626242474412,
     18.711853444018594, -7.232197353640272, 3.0844462345425314, -1.4973582210132497,
     0.8715895917910728, -0.6730722100156749, 0.8982371140279944),
)


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


def _e1(x, xp):
    # E1 of a float or an array of x > 0; 0.0 at x = inf.  The piece is an
    # int (an int array), which `* 1` makes of numpy's bools before the sum
    piece = (x > 1.0) * 1 + (x > 4.0)
    series = x <= 1.0
    row = iter(xp.take(_E1_ROWS, piece))
    u = xp.where(series, x, 1.0 / x) - next(row)
    p = 0.0
    for c in row:
        p = p * u + c
    return xp.where(series, -EULER_GAMMA - xp.log(x) - x * p, xp.exp(-x) * (p / x))


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
    return _e1(_require_positive(x, "exp_integral_e1", "x"), MATH_XP)


def exp_integral_e1_array(x) -> "numpy.ndarray":
    """exp_integral_e1 evaluated elementwise on an array of x > 0.

    Raises
    ------
    ValueError
        If any element is not finite or not > 0.
    """
    import numpy as np
    x = np.asarray(x, dtype=np.float64)
    if not (np.isfinite(x).all() and (x > 0.0).all()):
        raise ValueError("exp_integral_e1_array requires finite x > 0 everywhere")
    # below x = 5.6e-309, 1/x and p/x overflow in the branch not taken
    with np.errstate(over="ignore"):
        return _e1(x, numpy_xp())


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
# specfun.exp_integral_e1 also counts the calls made through MATH_XP.
# take(rows, i) is row i of a table; for an array i, an iterator over the
# columns, each gathered at every element's row
MATH_XP = SimpleNamespace(
    exp=math.exp, expm1=math.expm1, log=math.log, log2=math.log2,
    hypot=math.hypot, atan2=math.atan2, cos=math.cos, sin=math.sin,
    clip=lambda x, lo, hi: min(max(x, lo), hi), where=lambda cond, x, y: x if cond else y,
    take=operator.getitem, e1=lambda x: exp_integral_e1(x))


@functools.cache
def numpy_xp() -> SimpleNamespace:
    """MATH_XP's functions over numpy arrays, built (and numpy imported) on
    first call; bound by their numpy < 2 names (np.arctan2, not np.atan2)."""
    import numpy as np
    return SimpleNamespace(
        exp=np.exp, expm1=np.expm1, log=np.log, log2=np.log2,
        hypot=np.hypot, atan2=np.arctan2, cos=np.cos, sin=np.sin,
        clip=np.clip, where=np.where, e1=lambda x: _e1(x, numpy_xp()),
        take=lambda rows, i: (np.take(column, i) for column in zip(*rows)))
