"""Entanglement measures for pure states of two indistinguishable fermions.

A pure two-fermion state over an n-dimensional single-particle space is
encoded by an antisymmetric complex matrix w (w_ij = -w_ji) through

    |w> = sum_ij w_ij  f_i^dag f_j^dag |0>,

normalized so that sum_ij |w_ij|^2 = 1/2.  A unitary rotation of the modes
brings w to a block-diagonal canonical form of 2x2 antisymmetric blocks with
coefficients z_k >= 0 (the fermionic analogue of the Schmidt decomposition);
the state is a single Slater determinant iff only one block survives.

Implemented measures:

* concurrence for n = 4:  C = 8 |w12 w34 + w13 w42 + w14 w23|  (8 |pfaffian|)
* Slater coefficients {z_k}: for n = 4 in closed form from Pf w and the
  norm (z1 z2 = |Pf w|, z1^2 + z2^2 = 1/4), with no eigensolver; for n >= 6
  from the Hermitian spectrum of w^dag w, whose eigenvalues are the doubly
  degenerate pairs {|z_k|^2}, each pair averaged
* single-particle reduced density matrix rho = 2 (w^dag w)^T
* von Neumann entropy  S = -1 - 4 sum_k z_k^2 log2 z_k^2   in [1, log2 n]

An AntisymW holds only the n(n-1)/2 independent amplitudes, w_ij for i < j
in row-major order, as a tuple of Python complexes: the state is
antisymmetric by construction, and w_ji = -w_ij is never stored.  A state
carries its own dimension: n is the n with n(n-1)/2 = len(upper) for an
AntisymW and for make_antisym, and 2 len(z) for a SlaterSpectrum, so no
caller passes it.  Each value is checked once, where it is made.  An
AntisymW refuses, in __post_init__, an entry that complex() does not take
(a row of a full matrix included), an entry count of no such form or a
dimension that is not even and >= 2, and 2 sum_{i<j} |w_ij|^2 off 1/2 by
more than NORM_TOL (which NaN and inf fail).  A SlaterSpectrum refuses a z
that is not a sequence of real numbers (a complex, a bool or a Decimal is
refused), sum z_k^2 off 1/4 by more than NORM_TOL (which a non-finite z_k
fails), and coefficients that are not >= 0 and sorted descending.  Both
keep tuples of Python numbers, so no later write gets past the check, and
the measures read them without a check of their own.  The n = 4 closed form
reads the six amplitudes as concurrence4 does, and their sum |w_ij|^2 is
sum z_k^2.  make_antisym, reduced_density and the n >= 6 eigensolver build
the full matrix, with w_ji = 0.0 - w_ij, in _matrix.  Everything is a pure
function; no shared state.  numpy is imported by those three alone, so that
importing this module does not load it, and neither do the two state types,
concurrence4, the n = 4 slater_decompose, slater_rank or
von_neumann_entropy.
"""

import math
import sys
from dataclasses import dataclass, field

from .specfun import _as_float, _is_real, _require_positive

__all__ = [
    "AntisymW",
    "SlaterSpectrum",
    "make_antisym",
    "concurrence4",
    "slater_decompose",
    "slater_rank",
    "reduced_density",
    "von_neumann_entropy",
]

# allowed deviation of sum |w_ij|^2 from 1/2 and of sum z_k^2 from 1/4
NORM_TOL = 1e-10
_LOG_CLAMP = 1e-14
_ONE_D = "a 1-D z of coefficients z_k >= 0 sorted descending"


def _dimension(count: int, name: str) -> int:
    """The n with n(n-1)/2 = count: isqrt(n^2 - n) = n - 1 for n >= 1, and
    an empty triangle gives n = 0."""
    n = math.isqrt(2 * count) + (count > 0)
    if n * (n - 1) // 2 != count:
        raise ValueError(f"{name} requires n(n-1)/2 entries, got {count}")
    return n


def _matrix(upper, n: int) -> "numpy.ndarray":
    """The complex (n, n) matrix of the strict upper triangle upper.  It is
    w - w^T of the triangle alone, so w_ji = 0.0 - w_ij, and a zero entry
    gives +0.0 below the diagonal."""
    import numpy as np
    w = np.zeros((n, n), dtype=complex)
    w[np.triu_indices(n, k=1)] = upper
    return w - w.T


@dataclass(frozen=True, eq=False)
class AntisymW:
    """Antisymmetric coefficient matrix of a two-fermion pure state, held as
    its strict upper triangle.

    Attributes
    ----------
    upper : tuple of complex
        The Python complexes of the amplitudes w_ij, i < j, given in
        row-major order (for n = 4: w12, w13, w14, w23, w24, w34), with
        2 sum |w_ij|^2 == 1/2; w_ji = -w_ij is not stored.
    n : int
        Even dimension of the single-particle space, from
        len(upper) = n(n-1)/2; not an argument.

    Raises
    ------
    ValueError
        If an entry is not a number complex() takes, the entry count is not
        n(n-1)/2 for an even n >= 2, or the state is not normalized
        (non-finite entries included).
    """

    upper: tuple[complex, ...]
    n: int = field(init=False)

    def __post_init__(self) -> None:
        try:
            upper = tuple(map(complex, self.upper))
        except TypeError:
            raise ValueError(f"AntisymW requires a sequence of complex w_ij, i < j, "
                             f"got {self.upper!r}") from None
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "n", _dimension(len(upper), "AntisymW"))
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"single-particle dimension must be even and >= 2, got {self.n}")
        # products, not powers: a finite entry past the float range gives inf
        nrm2 = 2.0 * sum([v.real * v.real + v.imag * v.imag for v in upper])
        # written so that NaN fails it too
        if not abs(nrm2 - 0.5) <= NORM_TOL:
            raise ValueError(f"AntisymW requires a normalized w, got sum |w_ij|^2 = {nrm2!r}")


@dataclass(frozen=True, eq=False)
class SlaterSpectrum:
    """Nonnegative Slater coefficients z_k, sorted descending, of a state
    over n = 2 len(z) modes; sum z_k^2 = 1/4.

    z is a tuple of the Python floats of the sequence given, so nothing can
    write to it; n is derived from it, not an argument.

    Raises
    ------
    ValueError
        If z is not a sequence of numbers, a coefficient is not a real
        number (a complex, a bool or a Decimal) or not finite, sum z_k^2 is
        off 1/4 by more than NORM_TOL, or the coefficients are not >= 0 and
        sorted descending.
    """

    z: tuple[float, ...]
    n: int = field(init=False)

    def __post_init__(self) -> None:
        # a number or a 0-d array is no sequence of coefficients, and a z that
        # holds sequences (strings too) is not 1-D: both are refused as such
        z = tuple(self.z) if hasattr(self.z, "__iter__") and getattr(self.z, "ndim", 1) else None
        if z is None or not all(map(_is_real, z)):
            flat = z is not None and not any(hasattr(v, "__iter__") for v in z)
            what = "real Slater coefficients" if flat else _ONE_D
            raise ValueError(f"SlaterSpectrum requires {what}, got z = {self.z!r}")
        object.__setattr__(self, "z", tuple(map(_as_float, z)))
        total = sum([v * v for v in self.z])
        # written so that NaN fails it too: a non-finite z_k makes the sum NaN or inf
        if not abs(total - 0.25) <= NORM_TOL:
            raise ValueError(f"SlaterSpectrum requires finite Slater coefficients with "
                             f"sum z_k^2 = 1/4, got {total!r} from z = {self.z!r}")
        if self.z != tuple(sorted(self.z, reverse=True)) or self.z[-1] < 0:
            raise ValueError(f"SlaterSpectrum requires {_ONE_D}, got z = {self.z!r}")
        object.__setattr__(self, "n", 2 * len(self.z))


def make_antisym(upper_entries) -> AntisymW:
    """Build a normalized AntisymW from the strict upper triangle.

    Parameters
    ----------
    upper_entries : sequence of complex
        Entries w_ij for i < j in row-major order; their count n(n-1)/2
        gives the dimension n, which must be even and >= 2.

    Returns
    -------
    AntisymW
        The antisymmetric completion rescaled so sum |w_ij|^2 = 1/2.
    """
    import numpy as np
    # a copy, which the rescaling below may divide in place
    entries = np.array(upper_entries, dtype=complex).ravel()
    n = _dimension(entries.size, "make_antisym")
    with np.errstate(over="ignore"):
        # over all n^2 entries of w, in numpy's pairwise order: a sum of the
        # n(n-1)/2 entries alone moves a last bit of 20-36% of random states
        nrm2 = float(np.sum(np.abs(_matrix(entries, n)) ** 2))
        if not sys.float_info.min <= nrm2 < math.inf:
            # the squares of finite entries overflowed or underflowed (a NaN
            # or inf entry, or all zeros, leave peak out of range): divide
            # each real and imaginary part by the largest of them first
            parts = entries.view(float)
            peak = float(np.max(np.abs(parts), initial=0.0))
            if 0.0 < peak < math.inf:
                parts /= peak
                nrm2 = float(np.sum(np.abs(_matrix(entries, n)) ** 2))
    if nrm2 == 0.0:
        raise ValueError("all-zero coefficient matrix does not define a state")
    if not math.isfinite(nrm2):
        raise ValueError(f"make_antisym requires finite entries, got sum |w_ij|^2 = {nrm2!r}")
    return AntisymW((entries * math.sqrt(0.5 / nrm2)).tolist())


def concurrence4(w: AntisymW) -> float:
    """Concurrence of a two-fermion pure state with n = 4.

    C = 8 |w12 w34 + w13 w42 + w14 w23| in [0, 1]; zero iff the state is a
    single Slater determinant.  The AntisymW was checked when it was made.

    Raises
    ------
    ValueError
        If n != 4.
    """
    if w.n != 4:
        raise ValueError(f"concurrence4 is defined for n = 4, got n = {w.n}")
    w12, w13, w14, w23, w24, w34 = w.upper
    # 8 |Pf w|
    return 8.0 * abs(w12 * w34 - w13 * w24 + w14 * w23)


def slater_decompose(w: AntisymW) -> SlaterSpectrum:
    """Slater coefficients {z_k} of the canonical block decomposition.

    For n = 4 the two coefficients follow in closed form from the norm and
    the Pfaffian.  With u = Pf w / |Pf w| (any unit u if Pf w = 0) and
    T = sum_{i<j} |w_ij|^2,

        A^2 = |w12 + u w34*|^2 + |w13 - u w24*|^2 + |w14 + u w23*|^2 = T + 2 |Pf w|
        B^2 = |w12 - u w34*|^2 + |w13 + u w24*|^2 + |w14 - u w23*|^2 = T - 2 |Pf w|

    so z1 + z2 = A and z1 - z2 = B.  Both are sums of squares, so neither
    cancels as the state nears a maximally entangled one (C -> 1), and
    z2 = |Pf w| / z1 keeps the smaller coefficient accurate as C -> 0.

    For n >= 6 the Hermitian matrix w^dag w has eigenvalues {|z_k|^2}, each
    exactly doubly degenerate for the antisymmetric w that _matrix builds
    from the upper triangle.  Eigenvalues are sorted, paired greedily, and
    each pair averaged.

    Raises
    ------
    numpy.linalg.LinAlgError
        For n >= 6, if the Hermitian eigensolver itself fails (surfaced,
        not masked).  The n = 4 closed form calls no eigensolver.
    """
    if w.n == 4:
        w12, w13, w14, w23, w24, w34 = w.upper
        pf = w12 * w34 - w13 * w24 + w14 * w23
        pf_abs = abs(pf)
        u = pf / pf_abs if pf_abs else 1.0
        x, y, v = u * w34.conjugate(), u * w24.conjugate(), u * w23.conjugate()
        a = math.hypot(abs(w12 + x), abs(w13 - y), abs(w14 + v))
        b = math.hypot(abs(w12 - x), abs(w13 + y), abs(w14 - v))
        z1 = (a + b) / 2.0
        # z2 <= z1 exactly; min() keeps a last-bit rounding from unsorting them
        return SlaterSpectrum([z1, min(pf_abs / z1, z1)])
    import numpy as np
    # a handful of numbers: past the eigensolver, Python floats are cheaper
    # than numpy calls, and do the same arithmetic
    m = _matrix(w.upper, w.n)
    evals = np.linalg.eigvalsh(m.conj().T @ m).tolist()[::-1]   # descending
    evals = [0.0 if e < 0.0 else e for e in evals]
    # descending as the eigenvalues are, since rounding is monotone
    z = [math.sqrt((a + b) / 2.0) for a, b in zip(evals[::2], evals[1::2], strict=True)]
    return SlaterSpectrum(z)


def slater_rank(spec: SlaterSpectrum, tol: float = 1e-10) -> int:
    """Number of Slater coefficients above tol (the Slater number).

    Raises
    ------
    ValueError
        If ``tol`` is not finite and > 0.
    """
    tol = _require_positive(tol, "slater_rank", "tol")
    return sum(v > tol for v in spec.z)


def reduced_density(w: AntisymW) -> "numpy.ndarray":
    """Single-particle reduced density matrix rho_{nu mu} = 2 (w^dag w)_{mu nu}.

    Hermitian with unit trace; its eigenvalues are {2 z_k^2}, each doubly
    degenerate.  The AntisymW was checked when it was made, so nothing is
    refused here.
    """
    m = _matrix(w.upper, w.n)
    return 2.0 * (m.conj().T @ m).T


def von_neumann_entropy(spec: SlaterSpectrum) -> float:
    """Entropy of either particle: S = -1 - 4 sum_k z_k^2 log2 z_k^2.

    Ranges from 1 (single Slater determinant) to log2 n for even n.
    Coefficients with z_k^2 below 1e-14 are treated as exact zeros.  The
    SlaterSpectrum was checked when it was made, so nothing is refused here.
    """
    total = 0.0
    for v in spec.z:
        z2 = v * v
        if z2 > _LOG_CLAMP:
            total += z2 * math.log2(z2)
    return -1.0 - 4.0 * total
