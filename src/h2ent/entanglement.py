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

A state carries its own dimension: n is len(w) for an AntisymW, 2 len(z)
for a SlaterSpectrum and the n with n(n-1)/2 = len(upper_entries) for
make_antisym, so no caller passes it.  Each value is checked once, where
it is made.  An AntisymW refuses, in __post_init__, a w that is not square
or whose dimension is not even and >= 2, sum |w_ij|^2 off 1/2 by more
than NORM_TOL (which NaN and inf fail), and |w + w^T|_F > NORM_TOL.  A
SlaterSpectrum refuses sum z_k^2 off 1/4 by more than NORM_TOL (which a
non-finite z_k fails), and a z that is not 1-D with coefficients z_k >= 0
sorted descending.  Both keep a read-only copy of their array, so no later
write gets past the check, and the measures read them without a check of
their own.  The concurrence is defined for an antisymmetric w only, and
within that bound the eigenvalue pairs of w^dag w differ by about 1.4e-10
at most (Weyl's bound), so they need no test of their own.  The n = 4
closed form reads the upper triangle alone, as concurrence4 does; within
those bounds its sum |w_ij|^2, which is sum z_k^2, lies within 0.86e-10 of
1/4, inside NORM_TOL.  Everything is a pure function; no shared state.
numpy is imported by the functions that use it, so that importing this
module does not load it.
"""

import math
import sys
from dataclasses import dataclass, field

from .specfun import _require_positive

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

# allowed deviation of sum |w_ij|^2 from 1/2 and of sum z_k^2 from 1/4, and
# allowed Frobenius norm of w + w^T
NORM_TOL = 1e-10
_LOG_CLAMP = 1e-14


@dataclass(frozen=True, eq=False)
class AntisymW:
    """Antisymmetric coefficient matrix of a two-fermion pure state.

    Attributes
    ----------
    w : numpy.ndarray
        Complex (n, n) matrix with w.T == -w and sum |w_ij|^2 == 1/2: a
        read-only copy of the array given.
    n : int
        Even dimension of the single-particle space, len(w); not an
        argument.

    Raises
    ------
    ValueError
        If w is not square, its dimension is not even and >= 2, or it is
        not normalized (non-finite entries included) or not antisymmetric.
    """

    w: "numpy.ndarray"
    n: int = field(init=False)

    def __post_init__(self) -> None:
        import numpy as np
        w = np.array(self.w, dtype=complex)
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"AntisymW requires a square w, got shape {w.shape}")
        object.__setattr__(self, "n", len(w))
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"single-particle dimension must be even and >= 2, got {self.n}")
        nrm2 = float(np.vdot(w, w).real)
        # written so that NaN fails it too
        if not abs(nrm2 - 0.5) <= NORM_TOL:
            raise ValueError(f"AntisymW requires a normalized w, got sum |w_ij|^2 = {nrm2!r}")
        sym = w + w.T
        norm = math.sqrt(np.vdot(sym, sym).real)
        if norm > NORM_TOL:
            raise ValueError(f"AntisymW requires an antisymmetric w, got |w + w^T|_F = {norm!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __post_init__: checked and read-only
        return type(self), (self.w,)


@dataclass(frozen=True, eq=False)
class SlaterSpectrum:
    """Nonnegative Slater coefficients z_k, sorted descending, of a state
    over n = 2 len(z) modes; sum z_k^2 = 1/4.

    z is a read-only float copy of the sequence given; n is derived from
    it, not an argument.

    Raises
    ------
    ValueError
        If a coefficient is complex or not finite, sum z_k^2 is off 1/4 by
        more than NORM_TOL, or z is not 1-D with coefficients >= 0 sorted
        descending.
    """

    z: "numpy.ndarray"
    n: int = field(init=False)

    def __post_init__(self) -> None:
        import numpy as np
        z = np.array(self.z)
        # refused, not cast: a cast drops the imaginary part of an array
        # after a warning, and raises a bare TypeError for Python complexes
        if z.dtype.kind == "c":
            raise ValueError(f"SlaterSpectrum requires real Slater coefficients, got z = {z!r}")
        z = z.astype(float, copy=False)
        z.setflags(write=False)
        object.__setattr__(self, "z", z)
        values = z.ravel().tolist()
        total = sum([v * v for v in values])
        # written so that NaN fails it too: a non-finite z_k makes the sum NaN or inf
        if not abs(total - 0.25) <= NORM_TOL:
            raise ValueError(f"SlaterSpectrum requires finite Slater coefficients with "
                             f"sum z_k^2 = 1/4, got {total!r} from z = {z!r}")
        if z.ndim != 1 or values != sorted(values, reverse=True) or values[-1] < 0:
            raise ValueError(f"SlaterSpectrum requires a 1-D z of coefficients "
                             f"z_k >= 0 sorted descending, got z = {z!r}")
        object.__setattr__(self, "n", 2 * len(values))

    def __reduce__(self):
        return type(self), (self.z,)


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
    entries = np.asarray(upper_entries, dtype=complex).ravel()
    # the root of n(n-1)/2 = size; a size of no such form fails the test below
    n = (1 + math.isqrt(1 + 8 * entries.size)) // 2
    if n * (n - 1) // 2 != entries.size:
        raise ValueError(f"make_antisym requires n(n-1)/2 entries, got {entries.size}")
    w = np.zeros((n, n), dtype=complex)
    iu, ju = np.triu_indices(n, k=1)
    w[iu, ju] = entries
    w[ju, iu] = -entries
    with np.errstate(over="ignore"):
        nrm2 = float(np.sum(np.abs(w) ** 2))
        if not sys.float_info.min <= nrm2 < math.inf:
            # the squares of finite entries overflowed or underflowed (a NaN
            # or inf entry, or all zeros, leave peak out of range): divide
            # each real and imaginary part by the largest of them first
            parts = w.view(float)
            peak = float(np.max(np.abs(parts)))
            if 0.0 < peak < math.inf:
                parts /= peak
                nrm2 = float(np.sum(np.abs(w) ** 2))
    if nrm2 == 0.0:
        raise ValueError("all-zero coefficient matrix does not define a state")
    if not math.isfinite(nrm2):
        raise ValueError(f"make_antisym requires finite entries, got sum |w_ij|^2 = {nrm2!r}")
    w *= math.sqrt(0.5 / nrm2)
    return AntisymW(w)


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
    # 8 |Pf w|
    return 8.0 * abs(w.w[0, 1] * w.w[2, 3] - w.w[0, 2] * w.w[1, 3] + w.w[0, 3] * w.w[1, 2])


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
    exactly doubly degenerate for an antisymmetric w.  Eigenvalues are
    sorted, paired greedily, and each pair averaged.  An AntisymW has
    |w + w^T|_F <= NORM_TOL, which keeps the two eigenvalues of a pair
    within about 1.4e-10 of each other.

    Raises
    ------
    numpy.linalg.LinAlgError
        For n >= 6, if the Hermitian eigensolver itself fails (surfaced,
        not masked).  The n = 4 closed form calls no eigensolver.
    """
    if w.n == 4:
        # six Python complexes: cheaper than numpy calls, and they read the
        # upper triangle, as concurrence4 does
        r = w.w.tolist()
        w12, w13, w14, w23, w24, w34 = r[0][1], r[0][2], r[0][3], r[1][2], r[1][3], r[2][3]
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
    evals = np.linalg.eigvalsh(w.w.conj().T @ w.w).tolist()[::-1]   # descending
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
    # a handful of numbers: Python floats are cheaper than numpy calls
    return sum(v > tol for v in spec.z.tolist())


def reduced_density(w: AntisymW) -> "numpy.ndarray":
    """Single-particle reduced density matrix rho_{nu mu} = 2 (w^dag w)_{mu nu}.

    Hermitian with unit trace; its eigenvalues are {2 z_k^2}, each doubly
    degenerate.  The AntisymW was checked when it was made, so nothing is
    refused here.
    """
    return 2.0 * (w.w.conj().T @ w.w).T


def von_neumann_entropy(spec: SlaterSpectrum) -> float:
    """Entropy of either particle: S = -1 - 4 sum_k z_k^2 log2 z_k^2.

    Ranges from 1 (single Slater determinant) to log2 n for even n.
    Coefficients with z_k^2 below 1e-14 are treated as exact zeros.  The
    SlaterSpectrum was checked when it was made, so nothing is refused here.
    """
    # a handful of numbers: Python floats are cheaper than numpy calls
    total = 0.0
    for v in spec.z.tolist():
        z2 = v * v
        if z2 > _LOG_CLAMP:
            total += z2 * math.log2(z2)
    return -1.0 - 4.0 * total
