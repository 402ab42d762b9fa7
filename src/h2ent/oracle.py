"""Independent numerical oracle for every closed-form quantity in the package.

Nothing here reuses the closed forms it checks.

Deterministic integrals come from one engine: fixed double-exponential (DE)
rules, trapezoidal sums in t at step DE_STEP.  Tanh-sinh maps t to
y = (1 + tanh(pi/2 sinh t)) / 2 on (0, 1), exp-sinh to x = exp(pi/2 sinh t)
on (0, inf).  Nodes and weights are closed forms in t, built on first use
and never at import.  Each rule carries two rows of weights, for step h and
for step 2h on every other node, so one set of integrand values gives both
sums; the step-h sum is returned, and RuntimeError is raised where the two
differ by more than the rule's fixed bound: ONE_ELECTRON_TOL absolute for the
one-electron integrals, TWO_ELECTRON_TOL and E1_TOL relative to the value for
the two-electron integrals and E1.  No one relative bound serves all three:
at s = 654 the two j' sums differ by 3e-11 relative, well inside 1e-8
absolute.

* One-electron integrals (overlap, j', k') and the Coulomb integral j are
  product-rule integrals over t = r_a + r_b - s in [0, inf) and
  y = (1 + nu) / 2 in [0, 1], where r_a = t/2 + s y, r_b = t/2 + s (1 - y)
  and the volume element is r_a r_b dt dy dphi (prolate-spheroidal
  coordinates mu = 1 + t/s, nu = 2y - 1; the azimuth phi integrates to
  2 pi).  The orbital is phi(r) = pi^(-1/2) e^(-r); j integrates the density
  on b in the potential V(r) = 1/r - (1 + 1/r) e^(-2r) of the density on a.
* m = (aa|aa) is the radial integral of the density in its own V(r).
* k = (ab|ab) and l = (aa|ab) use the Neumann expansion of 1/r12 in
  prolate-spheroidal coordinates (Ruedenberg, J. Chem. Phys. 19, 1459
  (1951)).  The overlap density phi_a phi_b = e^(-s mu) / pi depends on mu
  only, and with the volume factor mu^2 - nu^2 its content in nu stops at
  P_2(nu), so only the m = 0 terms with l = 0 and l = 2 survive:
  (s^5/8) sum_l (2l+1) int int f_l(mu1) g_l(mu2) P_l(mu<) Q_l(mu>), with
  f_l, g_l the nu-moments of the two densities against (mu^2 - nu^2) P_l(nu).
  The double integral is split at mu1 = mu2 into an outer exp-sinh sum over
  mu> and an inner tanh-sinh sum over [1, mu>].
* E1(x) = e^-x int_0^inf e^-t / (x + t) dt, with the pole at t = -x
  taken out of [0, 1] as log1p(1/x).

The two-electron integrals j, k, l and m are also estimated by
importance-sampled Monte Carlo, with electrons drawn from 1s densities
(exact inverse-CDF radial sampling, seedable PCG64 generator), the signed
product integrands k and l sampled from the symmetrized per-electron mixture
(rho_a + rho_b)/2 and reweighted exactly.

Estimates are reproducible bit-for-bit for a fixed (kind, s, n_samples,
seed).  The Monte Carlo oracle draws and evaluates its samples in blocks of
BLOCK_ROWS rows on a small thread pool.  Block `start` draws its uniforms
from its own PCG64(seed) advanced by 8 * start draws, which are exactly rows
start ... start + rows of the single stream default_rng(seed).random((n, 8));
the kernel is elementwise, so the blocks may run in any order and every
per-sample value, and hence every mean and standard error, is bit-identical
to evaluating all samples at once, for any worker count.  The kernel
(h2ent._mc_kernels) starts each radius from a table and takes two Newton
steps, and evaluates one sine per sample and one square root per electron
for the distance to the other nucleus; its per-sample values agree with the
reference kernel of tests/test_oracle.py to 1e-9 relative.
"""

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from ._mc_kernels import KINDS as MC_KINDS, integrand_samples
from .specfun import _is_integer, _require_positive

__all__ = ["McEstimate", "quad_one_electron", "quad_two_electron", "mc_two_electron",
           "oracle_e1"]

QUAD_KINDS = ("overlap", "jprime", "kprime")
MIN_SAMPLES = 10_000
# rows of uniforms per kernel call: a 1 MB block, so that every kernel
# temporary (128 KB per electron, 256 KB for both) of each worker is
# cache-sized
BLOCK_ROWS = 16_384
# worker threads per estimate at most, so that few blocks are in memory at once
MAX_WORKERS = 8

# the largest step-h against step-2h difference each rule accepts:
# absolute for the one-electron integrals, relative for the others
ONE_ELECTRON_TOL = 1e-8
TWO_ELECTRON_TOL = 1e-12
E1_TOL = 1e-13

# step h of the DE rules: at 1/32 the step-h and step-2h sums of every
# integral here agree to about 1e-15 relative, at 1/16 only to about 1e-8
DE_STEP = 1.0 / 32
# tanh-sinh nodes for |t| <= 4, to within e^-86 of either end
_TANH_SINH_T = 4.0
# exp-sinh nodes from x = e^-95 up to x = 800, past which e^-x underflows:
# every integrand given to the rule decays at least like e^-x
_EXP_SINH_T_MIN = -4.8
_EXP_SINH_X_MAX = 800.0
# Q_2(mu) from its hypergeometric series above this mu, where P_2 Q_0 - 3mu/2
# cancels; the series converges like mu^-2n
_Q2_SERIES_MU = 2.0
_Q2_SERIES_TERMS = 28

# guard against u == 0 / u == 1 in the inverse-CDF transform
_U_LO = 1e-16
_U_HI = 1.0 - 1e-16


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with its standard error and provenance."""

    mean: float
    stderr: float
    n_samples: int
    seed: int


def _weight_rows(k, w):
    """Weights at step h (row 0) and at step 2h (row 1: twice row 0 on even k)."""
    return np.stack((w, np.where(k % 2 == 0, 2.0 * w, 0.0)))


def _read_only(*arrays):
    for arr in arrays:
        arr.flags.writeable = False  # a cached rule is shared by every caller
    return arrays


@functools.cache
def _tanh_sinh(h):
    """(y, 1 - y, weights) of the tanh-sinh rule on [0, 1] at step h.

    y and 1 - y are each computed directly, so both are exact to rounding
    near their own end of the interval."""
    k = np.arange(-round(_TANH_SINH_T / h), round(_TANH_SINH_T / h) + 1)
    t = k * h
    u = math.pi * np.sinh(t)  # 2 (pi/2) sinh t
    y = 1.0 / (1.0 + np.exp(-u))
    yc = 1.0 / (1.0 + np.exp(u))
    # dy/dt = (pi/2) cosh t / (2 cosh^2(u/2)) = pi cosh t y (1 - y)
    return _read_only(y, yc, _weight_rows(k, h * math.pi * np.cosh(t) * y * yc))


@functools.cache
def _exp_sinh(h):
    """(x, weights) of the exp-sinh rule on [0, inf) at step h, for
    integrands that decay like e^-x."""
    t_max = math.asinh(math.log(_EXP_SINH_X_MAX) / (0.5 * math.pi))
    k = np.arange(math.floor(_EXP_SINH_T_MIN / h), math.ceil(t_max / h) + 1)
    t = k * h
    x = np.exp(0.5 * math.pi * np.sinh(t))
    return _read_only(x, _weight_rows(k, h * 0.5 * math.pi * np.cosh(t) * x))


def _converged(sums, tol, what):
    """The step-h sum of a (step h, step 2h) pair; RuntimeError if they
    differ by more than tol (or are not finite)."""
    fine, coarse = (float(v) for v in sums)
    err = abs(fine - coarse)
    if not err <= tol:
        raise RuntimeError(f"{what} did not reach {tol:.3g}: the step-h and step-2h "
                           f"sums differ by {err:.3e}")
    return fine


def _prolate_sums(integrand, s):
    """(step h, step 2h) sums of integrand(r_a, r_b) dt dy over t in
    [0, inf), y in [0, 1], with r_a = t/2 + s y and r_b = t/2 + s (1 - y)."""
    x, wx = _exp_sinh(DE_STEP)
    y, yc, wy = _tanh_sinh(DE_STEP)
    half_t = 0.5 * x[:, None]
    f = integrand(half_t + s * y, half_t + s * yc)
    return ((wx @ f) * wy).sum(axis=1)


def _r_potential(r):
    """r V(r) = 1 - (1 + r) e^-2r, with V the potential of the density
    e^-2r / pi; without cancellation as r -> 0."""
    return -np.expm1(-2.0 * r) - r * np.exp(-2.0 * r)


# one-electron integrands over dt dy: 2 pi r_a r_b times the integrand in
# space, whose densities phi_a^2 = e^-2r_a / pi and phi_a phi_b =
# e^-(r_a + r_b) / pi carry the 1 / pi
_ONE_ELECTRON = {
    "overlap": lambda ra, rb: 2.0 * ra * rb * np.exp(-(ra + rb)),  # phi_a phi_b
    "jprime": lambda ra, rb: 2.0 * ra * np.exp(-2.0 * ra),         # phi_a^2 / r_b
    "kprime": lambda ra, rb: 2.0 * ra * np.exp(-(ra + rb)),        # phi_a phi_b / r_b
}


def quad_one_electron(kind: str, s: float) -> float:
    """Deterministic quadrature of a one-electron integral in prolate
    spheroidal coordinates, by the DE product rule.

    Parameters
    ----------
    kind : {"overlap", "jprime", "kprime"}
    s : float
        Reduced internuclear distance, > 0.

    Raises
    ------
    ValueError
        If s is not finite and > 0, or kind is unknown.
    RuntimeError
        If the error estimate (step h against step 2h) exceeds
        ONE_ELECTRON_TOL.
    """
    s = _require_positive(s, "oracle")
    # the tuple, not the dict: an unhashable kind is refused, not a TypeError
    if kind not in QUAD_KINDS:
        raise ValueError(f"unknown one-electron kind {kind!r}; expected one of {QUAD_KINDS}")
    return _converged(_prolate_sums(_ONE_ELECTRON[kind], s), ONE_ELECTRON_TOL,
                      f"one-electron quadrature for kind={kind}, s={s}")


def _legendre_q(d):
    """Q_0 and Q_2 at mu = 1 + d, d > 0.

    Q_0 = ln((mu + 1) / (mu - 1)) / 2 = log1p(2 / d) / 2 is taken from
    d = mu - 1 itself, so it keeps its digits at the log singularity mu -> 1
    and as mu grows.  Q_2 = P_2 Q_0 - 3mu/2 up to mu = 2, and above it
    (2 / 15 mu^3) 2F1(3/2, 2; 7/2; 1/mu^2), where that difference cancels."""
    mu = 1.0 + d
    q0 = 0.5 * np.log1p(2.0 / d)
    w = 1.0 / (mu * mu)
    series = np.ones_like(d)
    for n in range(_Q2_SERIES_TERMS - 1, -1, -1):  # Horner, innermost term first
        series = 1.0 + series * (w * ((1.5 + n) * (2.0 + n) / ((3.5 + n) * (n + 1.0))))
    q2 = np.where(mu > _Q2_SERIES_MU, series * (2.0 / 15.0) * w / mu,
                  (1.0 + 1.5 * d * (mu + 1.0)) * q0 - 1.5 * mu)
    return q0, q2


def _neumann_sums(s, decay):
    """(step h, step 2h) sums of s^2 sum_l (2l+1) int int e^(-s (mu1 + mu2 - 2))
    f_l(mu1) g_l(mu2) P_l(mu<) Q_l(mu>) dmu1 dmu2 over [1, inf)^2, l = 0, 2.

    f_l(mu) = int_-1^1 (mu^2 - nu^2) e^(-decay y) P_l(nu) dnu with
    y = (1 + nu) / 2, and g_l the same with decay 0 (the overlap density).
    With d = mu - 1, mu^2 - nu^2 = d (d + 2) + (1 - nu^2), so f_l =
    d (d + 2) a_l + c_l with the nu-moments a_l and c_l of e^(-decay y) P_l
    and e^(-decay y) (1 - nu^2) P_l.  The plane is split at mu1 = mu2: the
    outer sum runs over T = s (mu> - 1), the inner one over tau = T y in
    [0, T], tau = s (mu< - 1).
    """
    x, wx = _exp_sinh(DE_STEP)
    y, yc, wy = _tanh_sinh(DE_STEP)
    nu = y - yc
    # d (d + 2) = mu^2 - 1 at the outer and inner nodes, d = mu - 1
    dd_outer = (x / s) * (x / s + 2.0)
    tau = x[:, None] * y
    dd_inner = (tau / s) * (tau / s + 2.0)
    e_tau = np.exp(-tau) * x[:, None]  # with the Jacobian T of tau = T y
    q0, q2 = _legendre_q(x / s)
    weights = (np.exp(-decay * y), np.ones_like(y))
    total = 0.0
    # P_0 = 1 and P_2 = 1 + (3/2)(mu^2 - 1)
    for ell, p_nu, q, p_inner in ((0, 1.0, q0, 1.0),
                                  (2, 1.5 * nu * nu - 0.5, q2, 1.0 + 1.5 * dd_inner)):
        # inner sums of the d (d + 2) and the 1 parts, each (nT, 2): step h, step 2h
        inner_dd = (e_tau * dd_inner * p_inner) @ wy.T
        inner_1 = (e_tau * p_inner) @ wy.T
        f, inner = [], []
        for weight in weights:
            g = weight * p_nu
            a, c = 2.0 * (wy @ g), 2.0 * (wy @ (4.0 * y * yc * g))  # dnu = 2 dy
            f.append(dd_outer[:, None] * a + c)
            inner.append(a * inner_dd + c * inner_1)
        outer = (np.exp(-x) * q)[:, None] * (f[0] * inner[1] + f[1] * inner[0])
        total = total + (2 * ell + 1) * (wx.T * outer).sum(axis=0)
    return total


def quad_two_electron(kind: str, s: float) -> float:
    """Deterministic quadrature of a two-electron integral by the DE rules.

    j integrates the density on b in the potential of the density on a,
    k and l take the l = 0, 2 terms of the Neumann expansion of 1/r12,
    and m the radial integral of the density in its own potential (see the
    module docstring).

    Parameters
    ----------
    kind : {"j", "k", "l", "m"}
    s : float
        Reduced internuclear distance, > 0 (m does not depend on it).

    Raises
    ------
    ValueError
        If s is not finite and > 0, or kind is unknown.
    RuntimeError
        If the error estimate (step h against step 2h) exceeds
        TWO_ELECTRON_TOL relative to the value.
    """
    s = _require_positive(s, "oracle")
    if kind == "m":
        # x = 2r: int 4 pi r^2 (e^-2r / pi) V(r) dr = int x e^-x (r V(r)) dx
        x, wx = _exp_sinh(DE_STEP)
        sums = wx @ (x * np.exp(-x) * _r_potential(0.5 * x))
    elif kind == "j":
        sums = _prolate_sums(lambda ra, rb: 2.0 * rb * np.exp(-2.0 * rb) * _r_potential(ra), s)
    elif kind == "k":
        # phi_a phi_b = e^-s e^(-s (mu - 1)) / pi for both electrons
        sums = (s ** 3 / 8.0) * math.exp(-2.0 * s) * _neumann_sums(s, 0.0)
    elif kind == "l":
        # phi_a^2 = e^(-s (mu - 1)) e^(-2 s y) / pi for electron 1
        sums = (s ** 3 / 8.0) * math.exp(-s) * _neumann_sums(s, 2.0 * s)
    else:
        raise ValueError(f"unknown two-electron kind {kind!r}; expected one of {MC_KINDS}")
    return _converged(sums, TWO_ELECTRON_TOL * abs(float(sums[0])),
                      f"two-electron quadrature for kind={kind}, s={s}")


def oracle_e1(x: float) -> float:
    """DE quadrature of E1(x) = integral_x^inf e^-z / z dz.

    The substitution z = x + t gives e^-x * integral_0^inf e^-t / (x + t) dt,
    split at t = 1.  On [0, 1] the pole at t = -x is taken out as
    integral_0^1 dt / (x + t) = log1p(1/x), which leaves the bounded
    expm1(-t) / (x + t) to the tanh-sinh rule, so small x costs no digits;
    [1, inf) is one exp-sinh sum in t - 1.  Used only to certify the
    series and piecewise polynomial of specfun's E1.

    Raises
    ------
    ValueError
        If x is not finite and > 0.
    RuntimeError
        If the error estimate (step h against step 2h) exceeds E1_TOL
        relative to the value.
    """
    x = _require_positive(x, "oracle_e1", "x")
    y, _, wy = _tanh_sinh(DE_STEP)
    t, wt = _exp_sinh(DE_STEP)
    sums = (math.log1p(1.0 / x) + wy @ (np.expm1(-y) / (x + y))
            + math.exp(-1.0) * (wt @ (np.exp(-t) / (x + 1.0 + t))))
    return math.exp(-x) * _converged(sums, E1_TOL * abs(float(sums[0])), f"E1 quadrature at x={x}")


def _worker_count() -> int:
    """CPUs this process may run on, capped at MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, MAX_WORKERS))


def _block_uniforms(seed: int, start: int, rows: int) -> np.ndarray:
    """Rows start ... start + rows of default_rng(seed).random((n, 8)).

    Each float64 consumes one 64-bit PCG64 draw, so row `start` begins
    8 * start draws into the stream.
    """
    bits = np.random.PCG64(seed)
    bits.advance(8 * start)
    return np.random.Generator(bits).random((rows, 8))


def mc_two_electron(kind: str, s: float, n_samples: int, seed: int) -> McEstimate:
    """Importance-sampled Monte Carlo estimate of a two-electron integral.

    Electron positions are drawn from normalized 1s densities: both on
    nucleus a for "m", one per nucleus for "j", and from the per-electron
    mixture (rho_a + rho_b)/2 with exact reweighting for the signed product
    integrands "k" and "l".  The generator is numpy's PCG64 seeded with
    ``seed``; identical arguments reproduce the estimate bit-for-bit.  The
    samples are drawn and evaluated BLOCK_ROWS rows at a time, each block on
    a worker thread from its own seekable substream, into one array of
    per-sample values, so memory is 8 bytes per sample plus one block per
    worker, and the values equal those of a single (n_samples, 8) draw.
    """
    from concurrent.futures import ThreadPoolExecutor  # only the oracle uses threads

    s = _require_positive(s, "oracle")
    if kind not in MC_KINDS:
        raise ValueError(f"unknown two-electron kind {kind!r}; expected one of {MC_KINDS}")
    if not _is_integer(n_samples) or n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be an integer >= {MIN_SAMPLES}, got {n_samples!r}")
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    n, seed = int(n_samples), int(seed)
    vals = np.empty(n)

    def block(start):
        u = _block_uniforms(seed, start, min(BLOCK_ROWS, n - start))
        np.clip(u, _U_LO, _U_HI, out=u)
        vals[start:start + len(u)] = integrand_samples(kind, s, u)

    # numpy releases the GIL inside the RNG fill and the kernel's ufuncs
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        for _ in pool.map(block, range(0, n, BLOCK_ROWS)):
            pass
    # reduce over the whole array (numpy's pairwise sums), with the steps of
    # np.mean and np.std(ddof=1) but the deviations squared in place in vals;
    # per-block running sums would change the last bits of the estimate
    mean = np.add.reduce(vals) / n
    vals -= mean
    np.square(vals, out=vals)
    var = np.add.reduce(vals) / (n - 1)
    stderr = float(np.sqrt(var) / math.sqrt(n))
    return McEstimate(mean=float(mean), stderr=stderr, n_samples=n, seed=seed)
