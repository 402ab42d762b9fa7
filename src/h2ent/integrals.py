"""Closed-form two-center integrals for two ground-state hydrogen 1s orbitals.

All quantities are in Hartree atomic units (hbar = m_e = e^2/(4 pi eps0) = 1,
lengths in Bohr radii) and are functions of the reduced internuclear distance
s = R / a0.  The orbitals sit on nuclei a and b separated by s:

    S  : overlap            <a|b>
    jp : Coulomb attraction <a| 1/r_b |a>        (j')
    kp : exchange attraction <a| 1/r_b |b>       (k')
    j  : two-electron Coulomb   (aa|bb)
    k  : two-electron exchange  (ab|ab)
    l  : two-electron hybrid    (aa|ab)
    m  : one-center repulsion   (aa|aa) = 5/8 exactly

j, k, l, m carry the 1/r12 electron repulsion.  The exchange integral k is
the only transcendental one; it needs E1 and Euler's constant.  Every closed
form here is validated against the independent quadrature / Monte Carlo
oracle (see the oracle module and `h2e verify`).

Each closed form is written once, as a function of (s, xp): the public
scalar functions check their input and evaluate it over specfun.MATH_XP,
integral_table evaluates the same function over specfun.numpy_xp().  A
scalar value that leaves float64 is refused by one helper, _finite, with a
ValueError naming the function and s: S' and k from s = 697.79, where S'
overflows; S and j from s = 1.34e154, where s^2 does; l below
s = 1.7e-309, where 5/(16 s) does.  integral_table returns such elements
non-finite instead.
"""

import math
from dataclasses import dataclass

from .specfun import EULER_GAMMA, MATH_XP, _require_positive, numpy_xp

__all__ = [
    "IntegralSet",
    "overlap",
    "s_prime",
    "jprime",
    "kprime",
    "coulomb_j",
    "exchange_k",
    "hybrid_l",
    "one_center_m",
    "integral_set",
    "integral_table",
]

# Below this reduced distance the exchange closed form is replaced by its
# small-s series (see exchange_k).
EXCHANGE_SMALL_S = 1e-2

_ONE_CENTER = 0.625  # (aa|aa) = 5/8 Hartree, exact


def _overlap(s, xp):
    return (1.0 + s + s * s / 3.0) * xp.exp(-s)


def _s_prime(s, xp):
    return (1.0 - s + s * s / 3.0) * xp.exp(s)


def _jprime(s, xp):
    # 1 - (1+s)e^-2s == -expm1(-2s) - s e^-2s, stable for small s
    return (-xp.expm1(-2.0 * s) - s * xp.exp(-2.0 * s)) / s


def _kprime(s, xp):
    return (1.0 + s) * xp.exp(-s)


def _coulomb_j(s, xp):
    return (-xp.expm1(-2.0 * s) / s
            - (11.0 / 8.0 + 0.75 * s + s * s / 6.0) * xp.exp(-2.0 * s))


def _exchange_closed(s, xp):
    # [A - B] / 5; the log-divergent (gamma + ln s, E1) pieces of A cancel as s -> 0
    ss, sp = _overlap(s, xp), _s_prime(s, xp)
    a = (6.0 / s) * ((EULER_GAMMA + xp.log(s)) * ss * ss
                     - xp.e1(4.0 * s) * sp * sp
                     + 2.0 * xp.e1(2.0 * s) * ss * sp)
    b = (-25.0 / 8.0 + 23.0 / 4.0 * s + 3.0 * s * s + s ** 3 / 3.0) * xp.exp(-2.0 * s)
    return (a - b) / 5.0


def _hybrid_l(s, xp):
    # (1/4 + 5/8s)(e^-s - e^-3s)/2 + s e^-s, with e^-s - e^-3s = -e^-s expm1(-2s)
    return (s * xp.exp(-s)
            + (0.125 + 5.0 / (16.0 * s)) * xp.exp(-s) * (-xp.expm1(-2.0 * s)))


# coefficients of s^4 .. s^7 in the small-s series of k
_K4 = 3.0 / 100.0 + 8.0 * math.log(2.0) / 75.0
_K5 = -2.0 / 45.0
_K6 = 1.0 / 3150.0 - 16.0 * math.log(2.0) / 1575.0
_K7 = 13.0 / 945.0


def _exchange_series(s):
    # k = 5/8 - s^2/4 + K4 s^4 + K5 s^5 + K6 s^6 + K7 s^7 + O(s^8), in Horner
    # form; plain arithmetic, so a float and an array give the same bits
    ss = s * s
    return _ONE_CENTER + ss * (-0.25 + ss * (_K4 + s * (_K5 + s * (_K6 + s * _K7))))


def _exchange_k(s, xp):
    # one point: the series below EXCHANGE_SMALL_S calls no E1
    return _exchange_series(s) if s < EXCHANGE_SMALL_S else _exchange_closed(s, xp)


def _finite(form, s, who: str) -> float:
    """form(s, MATH_XP), or a ValueError naming who and s where float64
    cannot hold it: an overflow to inf, a NaN where an inf meets a 0, or
    math.exp's own OverflowError above s = 709.78."""
    try:
        value = form(s, MATH_XP)
        if math.isfinite(value):
            return value
    except OverflowError:
        pass
    raise ValueError(f"{who} overflows float64 at s = {s!r}")


def overlap(s: float) -> float:
    """Overlap S(s) = (1 + s + s^2/3) e^-s of two 1s orbitals; S(0) = 1."""
    return _finite(_overlap, _require_positive(s, "overlap", or_zero=True), "overlap")


def s_prime(s: float) -> float:
    """Companion overlap S'(s) = S(-s) = (1 - s + s^2/3) e^s; S'(0) = 1.

    It grows like s^2 e^s / 3 and leaves float64 near s = 697, where a
    ValueError is raised instead of returning inf."""
    return _finite(_s_prime, _require_positive(s, "s_prime", or_zero=True), "s_prime")


def jprime(s: float) -> float:
    """One-electron Coulomb integral j'(s) = [1 - (1+s) e^-2s] / s (Hartree).

    Attraction of the 1s cloud on nucleus a to the other nucleus b; tends to
    1 as s -> 0 and to the point-charge value 1/s at large s.
    """
    return _jprime(_require_positive(s, "jprime"), MATH_XP)


def kprime(s: float) -> float:
    """One-electron exchange integral k'(s) = (1 + s) e^-s (Hartree)."""
    return _kprime(_require_positive(s, "kprime", or_zero=True), MATH_XP)


def coulomb_j(s: float) -> float:
    """Two-electron Coulomb integral (aa|bb) in Hartree.

    j(s) = 1/s - (2/s + 11/4 + 3s/2 + s^2/3) e^-2s / 2; tends to the
    one-center value 5/8 as s -> 0 and to 1/s at large s.
    """
    return _finite(_coulomb_j, _require_positive(s, "coulomb_j"), "coulomb_j")


def exchange_k(s: float) -> float:
    """Two-electron exchange integral (ab|ab) in Hartree.

    Evaluated from the closed form [A(s) - B(s)] / 5 for s >= 1e-2, where
    A carries the (gamma + ln s, E1) terms and B the polynomial-exponential
    part.  The cancellation between the log-divergent pieces of A costs the
    closed form digits as s falls (6.4e-14 relative at s = 1e-2, 3.9e-12 at
    1e-3), so below s = 1e-2 k is its series through s^7, which is within
    2e-16 of the exact value there.
    """
    return _finite(_exchange_k, _require_positive(s, "exchange_k"), "exchange_k")


def hybrid_l(s: float) -> float:
    """Two-electron hybrid integral (aa|ab) in Hartree.

    l(s) = [(2s + 1/4 + 5/8s) e^-s - (1/4 + 5/8s) e^-3s] / 2.  The 5/(8s)
    singularities cancel; the difference of exponentials is taken through
    expm1 so the cancellation costs no precision.
    """
    return _finite(_hybrid_l, _require_positive(s, "hybrid_l"), "hybrid_l")


def one_center_m() -> float:
    """One-center two-electron repulsion (aa|aa) = 5/8 Hartree, exact."""
    return _ONE_CENTER


@dataclass(frozen=True)
class IntegralSet:
    """All two-center integrals evaluated at one reduced distance s."""

    s: float
    S: float
    jp: float
    kp: float
    j: float
    k: float
    l: float
    m: float


def _integral_set(s, xp, k, l) -> IntegralSet:
    return IntegralSet(s=s, S=_overlap(s, xp), jp=_jprime(s, xp), kp=_kprime(s, xp),
                       j=_coulomb_j(s, xp), k=k, l=l, m=_ONE_CENTER)


def integral_set(s: float) -> IntegralSet:
    """Bundle every integral at reduced distance s > 0.

    Raises a ValueError, naming integral_set and s, where a field leaves
    float64: k from s = 697.79 (before S and j do) and l below 1.7e-309.
    """
    s = _require_positive(s, "integral_set")
    return _integral_set(s, MATH_XP, _finite(_exchange_k, s, "integral_set"),
                         _finite(_hybrid_l, s, "integral_set"))


def integral_table(s) -> IntegralSet:
    """Every integral on an array of reduced distances s > 0.

    Returns an IntegralSet whose fields are arrays shaped like s (m is the
    scalar 5/8).  Non-finite values from overflow are returned, not raised;
    callers that need finite results check them.
    """
    import numpy as np
    s = np.asarray(s, dtype=np.float64)
    if not (np.isfinite(s).all() and (s > 0.0).all()):
        raise ValueError("integral_table requires finite s > 0 everywhere")
    xp = numpy_xp()
    k = np.where(s < EXCHANGE_SMALL_S, _exchange_series(s), _exchange_closed(s, xp))
    return _integral_set(s, xp, k, _hybrid_l(s, xp))
