"""Two-configuration (CI) ground state of H2 in the minimal LCAO basis.

The spatial orbitals are the bonding/antibonding combinations
psi_+- = (phi_a +- phi_b) / sqrt(2 (1 +- S)); the two singlet configurations
are Psi_1 = psi_+ psi_+ and Psi_2 = psi_- psi_-, and the CI state is
Psi = c1 Psi_1 + c2 Psi_2 with c1^2 + c2^2 = 1.  In Hartree units, with the
integrals of the integrals module,

    H11 = 2 E1s + 1/s - 2(j' + k')/(1+S) + (j + 2k + m + 4l) / (2 (1+S)^2)
    H12 = H21 = (m - j) / (2 (1 - S^2))
    H22 = 2 E1s + 1/s - 2(j' - k')/(1-S) + (j + 2k + m - 4l) / (2 (1-S)^2)

H22 above is the "corrected" variant, consistent with the antibonding
normalization 1/(2(1-S)); a "printed" variant that keeps (1+S) denominators
in H22 is retained behind a flag for comparison.  A HamiltonianBlock holds
s, H11, H12 and H22 only: H21 is H12, and the variant has chosen H22's
denominators by the time the block is made, so a block built by hand is
symmetric too.  The ground state of the symmetric 2x2 block is its
eigenvector (cos phi, -sin phi), with the rotation angle
2 phi = atan2(2 H12, H22 - H11).  Where H11 < H22 its squares are the
paper's closed-form coefficient squares

    c1^2, c2^2 = 1/2 +- 1/(2 sqrt(1 + (2 H12 / (H11 - H22))^2)),

to rounding; the tests hold the two to 2 ulp of 1.

In the four-mode basis |a up>, |a down>, |b up>, |b down> (treated as
orthonormal modes) the CI ground state has the antisymmetric coefficient
matrix

    w12 = w34 = (c1 + c2)/4,   w14 = -w23 = (c1 - c2)/4,   w13 = w24 = 0,

whose concurrence is exactly 2 |c1 c2| and whose Slater coefficients are
{|c1|/2, |c2|/2}.  w_from_ci gives AntisymW these six upper-triangle
amplitudes, in the order (w12, w13, w14, w23, w24, w34); the lower
triangle w_ji = -w_ij is not stored.

ci_table is the one array entry: it takes an array of distances, and each
CiSolution field is then an array.  The block is plain arithmetic, and the
solve and the ground-state entropy are each one function of their inputs
and xp, evaluated over specfun.MATH_XP for one point and over
specfun.numpy_xp() for arrays.  The concurrence 2 |c1 c2| is written once,
in _ground_concurrence, for floats and arrays alike.  The functions of
(c1, c2) refuse coefficients that are not real numbers (a bool or a
complex included) or not normalized in float64, and compute on float(c1)
and float(c2).

ci_solve checks the variant and s first, then memoizes its result per
checked (float(s), variant) in a bounded cache, so that record_at and a
caller asking for the same distance's state share one solve.  Neither
hamiltonian_block, integral_set nor ci_table is cached.

hamiltonian_block and ci_solve return finite fields or raise a ValueError
that names s: integral_set's refusals past s = 697.79 and below 1.7e-309,
and hamiltonian_block's own where 1 - S^2 rounds to 0, below about 3.4e-8.
The array path, ci_table, gives non-finite elements there instead.
"""

import functools
import math
from dataclasses import dataclass

from .entanglement import AntisymW
from .integrals import integral_set, integral_table
from .specfun import MATH_XP, _as_float, _binary_entropy, _is_real, _require_positive, numpy_xp

__all__ = [
    "E1S",
    "H22_VARIANTS",
    "HamiltonianBlock",
    "CiSolution",
    "hamiltonian_block",
    "solve_block",
    "ci_solve",
    "ci_table",
    "w_from_ci",
    "ground_concurrence",
    "ground_entropy",
]

# ground-state energy of one hydrogen atom, Hartree
E1S = -0.5

H22_VARIANTS = ("corrected", "printed")

_COEFF_NORM_TOL = 1e-10


@dataclass(frozen=True)
class HamiltonianBlock:
    """Symmetric 2x2 CI Hamiltonian [[h11, h12], [h12, h22]] at one reduced
    distance (Hartree)."""

    s: float
    h11: float
    h12: float
    h22: float


@dataclass(frozen=True)
class CiSolution:
    """Ground eigenpair of the CI block.

    c1 is the bonding-configuration coefficient (made nonnegative by global
    sign choice), e_psi1/e_psi2 are the diagonal configuration energies and
    e_ground the variational CI energy, all absolute in Hartree.
    """

    s: float
    c1: float
    c2: float
    e_ground: float
    e_psi1: float
    e_psi2: float
    degenerate: bool = False


def _check_variant(variant: str) -> None:
    if variant not in H22_VARIANTS:
        raise ValueError(f"unknown h22 variant {variant!r}; expected one of {H22_VARIANTS}")


def _diagonal(q, sign, d):
    """2 E1s + 1/s - 2 (j' + sign k') / d + (j + 2k + m + sign 4l) / (2 d^2)
    for sign = +-1.0 and d = 1 +- S: sign * x is exactly +-x, so each sign
    gives the bits of the expression written with + or -."""
    return (2.0 * E1S + 1.0 / q.s - 2.0 * (q.jp + sign * q.kp) / d
            + (q.j + 2.0 * q.k + q.m + sign * 4.0 * q.l) / (2.0 * d ** 2))


def _block_of(q, variant: str) -> HamiltonianBlock:
    # plain arithmetic, so q may hold floats or arrays
    e11 = _diagonal(q, 1.0, 1.0 + q.S)
    e12 = (q.m - q.j) / (2.0 * (1.0 - q.S * q.S))
    e22 = _diagonal(q, -1.0, 1.0 - q.S if variant == "corrected" else 1.0 + q.S)
    return HamiltonianBlock(s=q.s, h11=e11, h12=e12, h22=e22)


def hamiltonian_block(s: float, variant: str = "corrected") -> HamiltonianBlock:
    """CI matrix elements H11, H12 = H21, H22 at reduced distance s.

    Raises a ValueError naming s where integral_set refuses it, or where
    1 - S^2 rounds to 0 (s up to about 3.4e-8) and the block would divide
    by it.
    """
    _check_variant(variant)
    q = integral_set(s)
    try:
        return _block_of(q, variant)
    except ZeroDivisionError:
        raise ValueError(f"hamiltonian_block divides by 1 - S^2 = 0 at s = {q.s!r}") from None


def _solve(block: HamiltonianBlock, xp) -> CiSolution:
    a, b, d = block.h11, block.h12, block.h22
    # |phi| <= fl(pi)/2 < pi/2, so c1 = cos(phi) > 0 (6.1e-17 at the edge)
    phi = 0.5 * xp.atan2(2.0 * b, d - a)
    return CiSolution(s=block.s, c1=xp.cos(phi), c2=-xp.sin(phi),
                      e_ground=0.5 * (a + d) - xp.hypot(0.5 * (d - a), b),
                      e_psi1=a, e_psi2=d, degenerate=(b == 0.0) & (a == d))


def solve_block(block: HamiltonianBlock) -> CiSolution:
    """Ground eigenpair of the symmetric 2x2 block [[H11, H12], [H12, H22]],
    deterministic and closed-form.

    The eigenvector is parameterized as (c1, c2) = (cos phi, -sin phi) with
    2 phi = atan2(2 H12, H22 - H11), which keeps c1 > 0 and ties the sign of
    c2 to -sign(H12).  At exact degeneracy (H12 = 0, H11 = H22) the solution
    (1, 0) is returned with its degeneracy flag set.
    """
    return _solve(block, MATH_XP)


def ci_solve(s: float, variant: str = "corrected") -> CiSolution:
    """Variational two-configuration ground state at reduced distance s.

    The variant and then s are checked first, as hamiltonian_block checks
    them; the solution is then memoized per checked (float(s), variant), so
    a distance asked for again is not solved again.
    """
    _check_variant(variant)
    return _ci_solve(_require_positive(s, "integral_set"), variant)


# one shared CiSolution per key is safe, as it is frozen; a raise is not stored
@functools.lru_cache(maxsize=64)
def _ci_solve(s: float, variant: str) -> CiSolution:
    return solve_block(hamiltonian_block(s, variant))


def ci_table(s, variant: str = "corrected") -> CiSolution:
    """ci_solve on an array of distances, element by element; fields are
    arrays.

    Evaluate under np.errstate to silence warnings from non-finite elements,
    which come out non-finite.
    """
    _check_variant(variant)
    return _solve(_block_of(integral_table(s), variant), numpy_xp())


def _check_coefficients(c1: float, c2: float, name: str) -> tuple:
    """(float(c1), float(c2)), normalized in float64; a narrower float, such
    as numpy's float32, is checked and then used at float64 precision, and a
    real past the float range is refused as not normalized."""
    if not (_is_real(c1) and _is_real(c2)):
        raise ValueError(f"{name} requires real c1 and c2, got {c1!r} and {c2!r}")
    c1, c2 = _as_float(c1), _as_float(c2)
    # written so that NaN fails it too
    if not abs(c1 * c1 + c2 * c2 - 1.0) <= _COEFF_NORM_TOL:
        raise ValueError(f"{name} requires c1^2 + c2^2 = 1, got {c1 * c1 + c2 * c2!r}")
    return c1, c2


def w_from_ci(c1: float, c2: float) -> AntisymW:
    """Antisymmetric coefficient matrix of the CI state in the four-mode basis.

    Basis order |a up>, |a down>, |b up>, |b down>; the spin-triplet entries
    w13, w24 vanish because the ground state is a singlet.
    """
    c1, c2 = _check_coefficients(c1, c2, "w_from_ci")
    plus = (c1 + c2) / 4.0
    minus = (c1 - c2) / 4.0
    # exact normalization guard against accumulated input round-off: the
    # state's sum |w_ij|^2 is 4 (plus^2 + minus^2).  The amplitudes are the
    # upper triangle (w12, w13, w14, w23, w24, w34); AntisymW makes them
    # Python complexes
    scale = math.sqrt(0.5 / (4.0 * (plus * plus + minus * minus)))
    p, m = plus * scale, minus * scale
    return AntisymW((p, 0.0, m, -m, 0.0, p))


def ground_concurrence(c1: float, c2: float) -> float:
    """Concurrence of the CI ground state: 2 |c1 c2|."""
    c1, c2 = _check_coefficients(c1, c2, "ground_concurrence")
    return _ground_concurrence(c1, c2)


def _ground_concurrence(c1, c2):
    # floats or arrays
    return 2.0 * abs(c1 * c2)


def _ground_entropy(c1, xp):
    # c1 * c1, not the pow of the c1_sq column, whose last bit can differ
    return 1.0 + _binary_entropy(xp.clip(c1 * c1, 0.0, 1.0), xp)


def ground_entropy(c1: float, c2: float) -> float:
    """Single-particle entropy of the CI ground state: 1 + H2(c1^2)."""
    c1, _ = _check_coefficients(c1, c2, "ground_entropy")
    return _ground_entropy(c1, MATH_XP)
