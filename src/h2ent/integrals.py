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
integral_table evaluates the same function over specfun.NUMPY_XP.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import EULER_GAMMA, MATH_XP, NUMPY_XP

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

# Below this reduced distance the exchange closed form is replaced by a
# documented linear blend onto its coincidence limit 5/8 (see exchange_k).
EXCHANGE_SMALL_S = 1e-3

_ONE_CENTER = 0.625  # (aa|aa) = 5/8 Hartree, exact


def _require_positive(s: float, who: str) -> float:
    s = float(s)
    if not math.isfinite(s) or s <= 0.0:
        raise ValueError(f"{who} requires finite s > 0, got {s!r}")
    return s


def _require_nonnegative(s: float, who: str) -> float:
    s = float(s)
    if not math.isfinite(s) or s < 0.0:
        raise ValueError(f"{who} requires finite s >= 0, got {s!r}")
    return s


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


_K_AT_CUTOFF = _exchange_closed(EXCHANGE_SMALL_S, MATH_XP)


def _exchange_blend(s):
    return _ONE_CENTER + (_K_AT_CUTOFF - _ONE_CENTER) * (s / EXCHANGE_SMALL_S)


def overlap(s: float) -> float:
    """Overlap S(s) = (1 + s + s^2/3) e^-s of two 1s orbitals; S(0) = 1."""
    return _overlap(_require_nonnegative(s, "overlap"), MATH_XP)


def s_prime(s: float) -> float:
    """Companion overlap S'(s) = S(-s) = (1 - s + s^2/3) e^s; S'(0) = 1.

    It grows like s^2 e^s / 3 and leaves float64 near s = 697, where a
    ValueError is raised instead of returning inf."""
    s = _require_nonnegative(s, "s_prime")
    try:
        value = _s_prime(s, MATH_XP)
    except OverflowError:  # math.exp itself, above s = 709.78
        value = math.inf
    if value == math.inf:
        raise ValueError(f"s_prime overflows float64 at s = {s!r}")
    return value


def jprime(s: float) -> float:
    """One-electron Coulomb integral j'(s) = [1 - (1+s) e^-2s] / s (Hartree).

    Attraction of the 1s cloud on nucleus a to the other nucleus b; tends to
    1 as s -> 0 and to the point-charge value 1/s at large s.
    """
    return _jprime(_require_positive(s, "jprime"), MATH_XP)


def kprime(s: float) -> float:
    """One-electron exchange integral k'(s) = (1 + s) e^-s (Hartree)."""
    return _kprime(_require_nonnegative(s, "kprime"), MATH_XP)


def coulomb_j(s: float) -> float:
    """Two-electron Coulomb integral (aa|bb) in Hartree.

    j(s) = 1/s - (2/s + 11/4 + 3s/2 + s^2/3) e^-2s / 2; tends to the
    one-center value 5/8 as s -> 0 and to 1/s at large s.
    """
    return _coulomb_j(_require_positive(s, "coulomb_j"), MATH_XP)


def exchange_k(s: float) -> float:
    """Two-electron exchange integral (ab|ab) in Hartree.

    Evaluated from the closed form [A(s) - B(s)] / 5 for s >= 1e-3, where
    A carries the (gamma + ln s, E1) terms and B the polynomial-exponential
    part.  Below s = 1e-3 the cancellation between the log-divergent pieces
    of A eats precision, so the value is blended linearly between the exact
    coincidence limit 5/8 at s = 0 and the closed form at s = 1e-3.
    """
    s = _require_positive(s, "exchange_k")
    if s < EXCHANGE_SMALL_S:
        return _exchange_blend(s)
    return _exchange_closed(s, MATH_XP)


def hybrid_l(s: float) -> float:
    """Two-electron hybrid integral (aa|ab) in Hartree.

    l(s) = [(2s + 1/4 + 5/8s) e^-s - (1/4 + 5/8s) e^-3s] / 2.  The 5/(8s)
    singularities cancel; the difference of exponentials is taken through
    expm1 so the cancellation costs no precision.
    """
    return _hybrid_l(_require_positive(s, "hybrid_l"), MATH_XP)


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


def _integral_set(s, xp, k) -> IntegralSet:
    return IntegralSet(s=s, S=_overlap(s, xp), jp=_jprime(s, xp), kp=_kprime(s, xp),
                       j=_coulomb_j(s, xp), k=k, l=_hybrid_l(s, xp), m=_ONE_CENTER)


def integral_set(s: float) -> IntegralSet:
    """Bundle every integral at reduced distance s > 0."""
    s = _require_positive(s, "integral_set")
    return _integral_set(s, MATH_XP, exchange_k(s))


def integral_table(s) -> IntegralSet:
    """Every integral on an array of reduced distances s > 0.

    Returns an IntegralSet whose fields are arrays shaped like s (m is the
    scalar 5/8).  Non-finite values from overflow are returned, not raised;
    callers that need finite results check them.
    """
    s = np.asarray(s, dtype=np.float64)
    if not (np.isfinite(s).all() and (s > 0.0).all()):
        raise ValueError("integral_table requires finite s > 0 everywhere")
    k = np.where(s < EXCHANGE_SMALL_S, _exchange_blend(s), _exchange_closed(s, NUMPY_XP))
    return _integral_set(s, NUMPY_XP, k)
