"""Hot Monte Carlo kernel: per-sample integrand values for the (aa|bb)-type
two-electron integrals, vectorized with numpy over a block of samples.

Bit-identity invariant: every step is elementwise in the sample index and
every transcendental function runs on a contiguous float64 array, so the
value of a sample is a deterministic function of its own row of uniforms
only, and no step reads or writes state shared between calls.  Evaluating
an (n, 8) array in row blocks, in any order and on any thread, gives exactly
the values of evaluating it in one piece; the oracle relies on this to keep
each worker's working set cache-sized without changing any estimate.

Sampling: electron positions are drawn from 1s probability densities by
inverting the closed-form radial CDF.  With x = 2r the complementary CDF is
Q(x) = e^-x (1 + x + x^2/2); Newton iteration on ln Q(x) = ln(1 - u) is
cancellation-free in both tails and converges from a cube-root (small u) or
iterated-log (large u) starting point.  Directions are uniform on the sphere.

Uniform-variate layout per sample (row of the (n, 8) array):
    u[0:4] electron 1: radius, cos(theta), phi/2pi, center selector
    u[4:8] electron 2: radius, cos(theta), phi/2pi, center selector
The center selector is consumed only by the mixture-sampled kinds.

Integrand kinds (nuclei at z=0 and z=s):
    KIND_J  electron 1 ~ rho_a, electron 2 ~ rho_b, value 1/r12
    KIND_K  both ~ (rho_a + rho_b)/2, value sech(dA1-dB1) sech(dA2-dB2) / r12
    KIND_L  both ~ (rho_a + rho_b)/2, value (1 - tanh(dA1-dB1)) sech(dA2-dB2) / r12
    KIND_M  both ~ rho_a, value 1/r12
"""

import math

import numpy as np

__all__ = ["KIND_J", "KIND_K", "KIND_L", "KIND_M", "KIND_CODES",
           "active_backend", "integrand_samples", "radius_from_uniform"]

KIND_J, KIND_K, KIND_L, KIND_M = 0, 1, 2, 3
KIND_CODES = {"j": KIND_J, "k": KIND_K, "l": KIND_L, "m": KIND_M}

_NEWTON_STEPS = 8


def active_backend() -> str:
    """Name of the kernel implementation, reported in `h2e verify`'s header."""
    return "numpy"


def _radius(u):
    """Inverse-CDF radius for a contiguous float64 array of uniforms.

    Newton's update x - phi/dphi is applied as x + phi/d with d = -dphi,
    which is the same float64 value; where d == 0, x is left unchanged.
    """
    lnq = np.log1p(-u)
    x = np.cbrt(6.0 * u)
    tail = u >= 0.9
    if tail.any():
        big = -lnq[tail]
        x0 = big + np.log1p(big + 0.5 * big * big)
        x[tail] = big + np.log1p(x0 + 0.5 * x0 * x0)
    half = np.empty_like(x)
    t = np.empty_like(x)
    phi = np.empty_like(x)
    d = np.empty_like(x)
    for _ in range(_NEWTON_STEPS):
        # t = x (1 + x/2);  phi = ln(1 + t) - x - ln Q;  d = (x/2) x / (1 + t)
        np.multiply(x, 0.5, out=half)
        np.add(half, 1.0, out=t)
        t *= x
        np.log1p(t, out=phi)
        phi -= x
        phi -= lnq
        np.multiply(half, x, out=d)
        t += 1.0
        d /= t
        if not d.all():
            zero = d == 0.0
            d[zero] = 1.0
            phi[zero] = 0.0
        phi /= d
        x += phi
        np.maximum(x, 1e-300, out=x)
    x *= 0.5
    return x


def _pair(u, col):
    """Column `col` of electron 1 and electron 2 as one contiguous (2, n) array."""
    return u[:, col::4].T.copy()


def _sech(d):
    e = np.exp(-np.abs(d))
    return 2.0 * e / (1.0 + e * e)


def _samples(kind, s, u):
    # row 0 is electron 1, row 1 electron 2
    if kind == KIND_J:
        centers = np.array([[0.0], [s]])
    elif kind == KIND_M:
        centers = np.zeros((2, 1))
    else:
        centers = np.where(_pair(u, 3) < 0.5, 0.0, s)
    r = _radius(_pair(u, 0))
    cz = 2.0 * _pair(u, 1) - 1.0
    ph = (2.0 * math.pi) * _pair(u, 2)
    rst = r * np.sqrt(np.maximum(1.0 - cz * cz, 0.0))
    x = rst * np.cos(ph)
    y = rst * np.sin(ph)
    z = r * cz
    z += centers
    r12 = np.sqrt((x[0] - x[1]) ** 2 + (y[0] - y[1]) ** 2 + (z[0] - z[1]) ** 2)
    inv = 1.0 / r12
    if kind in (KIND_J, KIND_M):
        return inv
    rho2 = x * x + y * y
    dab = np.sqrt(rho2 + z * z) - np.sqrt(rho2 + (z - s) ** 2)
    if kind == KIND_K:
        sech = _sech(dab)
        return sech[0] * sech[1] * inv
    return (1.0 - np.tanh(dab[0])) * _sech(dab[1]) * inv


def radius_from_uniform(u):
    """Inverse-CDF radius of the 1s density p(r) = 4 r^2 e^-2r."""
    u = np.array(u, dtype=np.float64)
    return _radius(u.ravel()).reshape(u.shape)


def integrand_samples(kind: int, s: float, u: np.ndarray) -> np.ndarray:
    """Per-sample importance-weighted integrand values for one kind.

    Parameters
    ----------
    kind : int
        One of KIND_J, KIND_K, KIND_L, KIND_M.
    s : float
        Reduced internuclear distance.
    u : numpy.ndarray
        (n, 8) float64 array of uniforms in (0, 1) (see module docstring).
    """
    if kind not in (KIND_J, KIND_K, KIND_L, KIND_M):
        raise ValueError(f"unknown integrand kind {kind!r}")
    return _samples(kind, float(s), u)
