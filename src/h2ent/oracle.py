"""Independent numerical oracle for every closed-form quantity in the package.

Nothing here reuses the closed forms it checks:

* one-electron integrals (overlap, j', k') are done by nested adaptive
  quadrature in prolate-spheroidal coordinates (mu in [1, inf), nu in
  [-1, 1]; the azimuthal angle is integrated analytically), using the
  explicit 1s orbital phi(r) = pi^(-1/2) e^(-r);
* two-electron integrals (j, k, l, m) are importance-sampled Monte Carlo
  estimates with electrons drawn from 1s densities (exact inverse-CDF
  radial sampling, seedable PCG64 generator), with the signed product
  integrands k and l sampled from the symmetrized per-electron mixture
  (rho_a + rho_b)/2 and reweighted exactly;
* E1 is integrated adaptively from its defining integral after the
  substitution z = x (1 + t), which factors out e^-x.

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
8-step Newton kernel of earlier versions to 1e-9 relative, and the default
`h2e verify` report is byte-identical under both.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from ._mc_kernels import KIND_CODES, integrand_samples

__all__ = ["McEstimate", "quad_one_electron", "mc_two_electron", "oracle_e1"]

QUAD_KINDS = ("overlap", "jprime", "kprime")
MC_KINDS = ("j", "k", "l", "m")
MIN_SAMPLES = 10_000
# rows of uniforms per kernel call: a 1 MB block, so that every kernel
# temporary (128 KB per electron, 256 KB for both) of each worker is
# cache-sized
BLOCK_ROWS = 16_384
# worker threads per estimate at most, so that few blocks are in memory at once
MAX_WORKERS = 8

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


def _require_positive_s(s: float) -> float:
    s = float(s)
    if not math.isfinite(s) or s <= 0.0:
        raise ValueError(f"oracle requires finite s > 0, got {s!r}")
    return s


def quad_one_electron(kind: str, s: float, tol: float = 1e-8) -> float:
    """Deterministic quadrature of a one-electron integral in prolate
    spheroidal coordinates.

    Parameters
    ----------
    kind : {"overlap", "jprime", "kprime"}
    s : float
        Reduced internuclear distance, > 0.
    tol : float
        Required absolute accuracy; non-convergence raises.

    Raises
    ------
    RuntimeError
        If the achieved error estimate exceeds ``tol``.
    """
    from scipy.integrate import quad  # deferred: scipy is slow to import

    s = _require_positive_s(s)
    if kind == "overlap":
        # (1/pi) e^{-s mu} over the two-center volume element
        f = lambda nu, mu: (s ** 3 / 4.0) * math.exp(-s * mu) * (mu * mu - nu * nu)
    elif kind == "jprime":
        # (1/pi) e^{-2 r_a} / r_b;  r_a = s(mu+nu)/2, r_b = s(mu-nu)/2
        f = lambda nu, mu: (s * s / 2.0) * (mu + nu) * math.exp(-s * (mu + nu))
    elif kind == "kprime":
        # (1/pi) e^{-r_a - r_b} / r_b
        f = lambda nu, mu: (s * s / 2.0) * (mu + nu) * math.exp(-s * mu)
    else:
        raise ValueError(f"unknown one-electron kind {kind!r}; expected one of {QUAD_KINDS}")

    def inner(mu):
        val, _ = quad(f, -1.0, 1.0, args=(mu,), epsabs=1e-12, epsrel=1e-12)
        return val

    val, err = quad(inner, 1.0, np.inf, epsabs=0.1 * tol, epsrel=1e-11, limit=300)
    if err > tol:
        raise RuntimeError(
            f"one-electron quadrature did not reach {tol:g} for kind={kind}, s={s} "
            f"(achieved error estimate {err:.3e})")
    return val


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

    s = _require_positive_s(s)
    if kind not in MC_KINDS:
        raise ValueError(f"unknown two-electron kind {kind!r}; expected one of {MC_KINDS}")
    if not isinstance(n_samples, (int, np.integer)) or n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be an integer >= {MIN_SAMPLES}, got {n_samples!r}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    n, seed = int(n_samples), int(seed)
    code = KIND_CODES[kind]
    vals = np.empty(n)

    def block(start):
        u = _block_uniforms(seed, start, min(BLOCK_ROWS, n - start))
        np.clip(u, _U_LO, _U_HI, out=u)
        vals[start:start + len(u)] = integrand_samples(code, s, u)

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


def oracle_e1(x: float, tol: float = 1e-13) -> float:
    """Adaptive quadrature of E1(x) = integral_x^inf e^-z / z dz.

    The substitution z = x (1 + t) maps the integral to
    e^-x * integral_0^inf e^(-x t) / (1 + t) dt, which is integrated with
    epsrel ~ 1e-13.  Used only to certify the series/continued-fraction
    implementation in specfun.

    Raises
    ------
    RuntimeError
        If the achieved error estimate exceeds ``tol`` relative accuracy.
    """
    from scipy.integrate import quad  # deferred: scipy is slow to import

    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"oracle_e1 requires finite x > 0, got {x!r}")
    val, err = quad(lambda t: math.exp(-x * t) / (1.0 + t), 0.0, np.inf,
                    epsabs=0.0, epsrel=1e-13, limit=800)
    if err > tol * abs(val):
        raise RuntimeError(
            f"E1 quadrature did not reach relative {tol:g} at x={x} "
            f"(value {val:.6e}, error estimate {err:.3e})")
    return math.exp(-x) * val
