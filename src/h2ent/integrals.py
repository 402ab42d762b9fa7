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

integral_table evaluates the same closed forms with numpy on an array of
distances, in the same order of operations, for grids.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import EULER_GAMMA, exp_integral_e1, exp_integral_e1_array

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


def overlap(s: float) -> float:
    """Overlap S(s) = (1 + s + s^2/3) e^-s of two 1s orbitals; S(0) = 1."""
    s = float(s)
    if not math.isfinite(s) or s < 0.0:
        raise ValueError(f"overlap requires finite s >= 0, got {s!r}")
    return (1.0 + s + s * s / 3.0) * math.exp(-s)


def s_prime(s: float) -> float:
    """Companion overlap S'(s) = S(-s) = (1 - s + s^2/3) e^s."""
    s = float(s)
    return (1.0 - s + s * s / 3.0) * math.exp(s)


def jprime(s: float) -> float:
    """One-electron Coulomb integral j'(s) = [1 - (1+s) e^-2s] / s (Hartree).

    Attraction of the 1s cloud on nucleus a to the other nucleus b; tends to
    1 as s -> 0 and to the point-charge value 1/s at large s.
    """
    s = _require_positive(s, "jprime")
    # 1 - (1+s)e^-2s == -expm1(-2s) - s e^-2s, stable for small s
    return (-math.expm1(-2.0 * s) - s * math.exp(-2.0 * s)) / s


def kprime(s: float) -> float:
    """One-electron exchange integral k'(s) = (1 + s) e^-s (Hartree)."""
    s = float(s)
    if not math.isfinite(s) or s < 0.0:
        raise ValueError(f"kprime requires finite s >= 0, got {s!r}")
    return (1.0 + s) * math.exp(-s)


def coulomb_j(s: float) -> float:
    """Two-electron Coulomb integral (aa|bb) in Hartree.

    j(s) = 1/s - (2/s + 11/4 + 3s/2 + s^2/3) e^-2s / 2; tends to the
    one-center value 5/8 as s -> 0 and to 1/s at large s.
    """
    s = _require_positive(s, "coulomb_j")
    return (-math.expm1(-2.0 * s) / s
            - (11.0 / 8.0 + 0.75 * s + s * s / 6.0) * math.exp(-2.0 * s))


def _exchange_a(s: float) -> float:
    # logarithmic/E1 part; individually divergent pieces cancel as s -> 0
    ss = overlap(s)
    sp = s_prime(s)
    bracket = ((EULER_GAMMA + math.log(s)) * ss * ss
               - exp_integral_e1(4.0 * s) * sp * sp
               + 2.0 * exp_integral_e1(2.0 * s) * ss * sp)
    return (6.0 / s) * bracket


def _exchange_b(s: float) -> float:
    return (-25.0 / 8.0 + 23.0 / 4.0 * s + 3.0 * s * s + s ** 3 / 3.0) * math.exp(-2.0 * s)


def _exchange_closed(s: float) -> float:
    return (_exchange_a(s) - _exchange_b(s)) / 5.0


_K_AT_CUTOFF = _exchange_closed(EXCHANGE_SMALL_S)


def _exchange_blend(s):
    return _ONE_CENTER + (_K_AT_CUTOFF - _ONE_CENTER) * (s / EXCHANGE_SMALL_S)


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
    return _exchange_closed(s)


def hybrid_l(s: float) -> float:
    """Two-electron hybrid integral (aa|ab) in Hartree.

    l(s) = [(2s + 1/4 + 5/8s) e^-s - (1/4 + 5/8s) e^-3s] / 2.  The 5/(8s)
    singularities cancel; the difference of exponentials is taken through
    expm1 so the cancellation costs no precision.
    """
    s = _require_positive(s, "hybrid_l")
    # (1/4 + 5/8s)(e^-s - e^-3s)/2 + s e^-s, with e^-s - e^-3s = -e^-s expm1(-2s)
    return (s * math.exp(-s)
            + (0.125 + 5.0 / (16.0 * s)) * math.exp(-s) * (-math.expm1(-2.0 * s)))


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


def integral_set(s: float) -> IntegralSet:
    """Bundle every integral at reduced distance s > 0."""
    s = _require_positive(s, "integral_set")
    return IntegralSet(
        s=s,
        S=overlap(s),
        jp=jprime(s),
        kp=kprime(s),
        j=coulomb_j(s),
        k=exchange_k(s),
        l=hybrid_l(s),
        m=one_center_m(),
    )


def integral_table(s) -> IntegralSet:
    """Every integral on an array of reduced distances s > 0.

    Returns an IntegralSet whose fields are arrays shaped like s (m is the
    scalar 5/8).  Non-finite values from overflow are returned, not raised;
    callers that need finite results check them.
    """
    s = np.asarray(s, dtype=np.float64)
    if not (np.isfinite(s).all() and (s > 0.0).all()):
        raise ValueError("integral_table requires finite s > 0 everywhere")
    e1, e2 = np.exp(-s), np.exp(-2.0 * s)
    one_minus_e2 = -np.expm1(-2.0 * s)
    ss = (1.0 + s + s * s / 3.0) * e1
    sp = (1.0 - s + s * s / 3.0) * np.exp(s)
    bracket = ((EULER_GAMMA + np.log(s)) * ss * ss
               - exp_integral_e1_array(4.0 * s) * sp * sp
               + 2.0 * exp_integral_e1_array(2.0 * s) * ss * sp)
    closed_k = ((6.0 / s) * bracket
                - (-25.0 / 8.0 + 23.0 / 4.0 * s + 3.0 * s * s + s ** 3 / 3.0) * e2) / 5.0
    return IntegralSet(
        s=s,
        S=ss,
        jp=(one_minus_e2 - s * e2) / s,
        kp=(1.0 + s) * e1,
        j=one_minus_e2 / s - (11.0 / 8.0 + 0.75 * s + s * s / 6.0) * e2,
        k=np.where(s < EXCHANGE_SMALL_S, _exchange_blend(s), closed_k),
        l=s * e1 + (0.125 + 5.0 / (16.0 * s)) * e1 * one_minus_e2,
        m=_ONE_CENTER,
    )
