"""Hot Monte Carlo kernel: per-sample integrand values for the (aa|bb)-type
two-electron integrals, vectorized with numpy over a block of samples.

Bit-identity invariant: every step is elementwise in the sample index and
every transcendental function runs on a contiguous float64 array, so the
value of a sample is a deterministic function of its own row of uniforms
only, and no step reads or writes state shared between calls (the radius
table below is built once and only read).  Evaluating an (n, 8) array in row
blocks, in any order and on any thread, gives exactly the values of
evaluating it in one piece; the oracle relies on this to keep each worker's
working set cache-sized without changing any estimate.

Sampling: electron positions are drawn from 1s probability densities by
inverting the closed-form radial CDF.  With x = 2r the complementary CDF is
Q(x) = e^-x (1 + x + x^2/2), and x solves x - ln(1 + x + x^2/2) = L with
L = -ln(1 - u).  In w = cbrt(6 L) the root x(w) is smooth (x ~ w near 0,
x ~ w^3/6 in the tail), so a table of x/w on uniform knots in w, linearly
interpolated, starts Newton's method within 1e-7 relative, and two Newton
steps on ln Q(x) = ln(1 - u) reach the float64 root.  That residual cancels
to about 4e-16/x^2 relative for small x, so the rare radii with w < 0.03
(u < 4.5e-6) take two more steps with the residual's Taylor series.  The
table is built on first use, not at import.  Directions are uniform on the
sphere; only the azimuth difference of the two electrons enters, through
r12^2 = (rho1 - rho2)^2 + 4 rho1 rho2 sin^2((phi1 - phi2)/2) + dz^2, which
has no cancellation.  An electron's distance to its own nucleus is its
sampled radius, so only the distance to the other nucleus takes a square
root, and 1 - tanh(d) is evaluated as 2 / (1 + e^(2d)).

Against the 8-step Newton kernel of earlier versions (cube-root or
iterated-log start, the same residual, two cosines and two sines per
sample), each sample sits at the same point up to rounding: radii agree to
1e-11 relative wherever that kernel's residual does not cancel, and
integrand values to 1e-9 relative, the largest differences coming from its
1 - tanh(d), which loses digits as d grows.

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

import functools
import math

import numpy as np

__all__ = ["KIND_J", "KIND_K", "KIND_L", "KIND_M", "KIND_CODES",
           "active_backend", "integrand_samples", "radius_from_uniform"]

KIND_J, KIND_K, KIND_L, KIND_M = 0, 1, 2, 3
KIND_CODES = {"j": KIND_J, "k": KIND_K, "l": KIND_L, "m": KIND_M}

# radius table: x/w on _KNOTS + 1 uniform knots in w over [0, _W_MAX]; every
# u in [0, 1) has w <= cbrt(6 * 53 ln 2) = 6.04 in float64
_KNOTS = 4096
_W_MAX = 6.1
# below this w the radius takes two Newton steps with the series residual;
# the series is summed to x^(3 + _SERIES_TERMS - 1), converging like (x/sqrt 2)^k
_W_SERIES = 0.03
_SERIES_TERMS = 11


def active_backend() -> str:
    """Name of the kernel implementation, always "numpy".  `h2e verify`'s
    header prints it as a literal; the environment probe of perfbench/run.py
    still reads it here."""
    return "numpy"


def _newton_step(x, lnq, half, t, phi, series=None):
    """One Newton step on ln Q(x) = ln(1 - u), in place in x: x += phi / d
    with phi = ln(1 + t) - x - ln Q, d = (x/2) x / (1 + t), t = x (1 + x/2).
    half, t and phi are scratch arrays of x's shape.  With `series`, phi is
    -ln Q - (x - ln(1 + t)) summed from those Taylor coefficients instead."""
    np.multiply(x, 0.5, out=half)
    np.add(half, 1.0, out=t)
    t *= x
    if series is None:
        np.log1p(t, out=phi)
        phi -= x
        phi -= lnq
    else:
        np.multiply(x * x * x, np.polyval(series, x), out=phi)
        np.negative(phi, out=phi)
        phi -= lnq
    t += 1.0
    phi *= t
    half *= x
    phi /= half
    x += phi


@functools.cache
def _radius_table():
    """(start, slope, series): x/w at the knots and its differences, and the
    Taylor coefficients of x - ln(1 + x + x^2/2) from x^3 up, highest first."""
    # ln(1 + x + x^2/2) = sum a_k x^k: (n+1) a_(n+1) = -n a_n - (n-1) a_(n-1) / 2, n >= 2
    a = [0.0, 1.0, 0.0]
    for n in range(2, _SERIES_TERMS + 2):
        a.append(-(n * a[n] + 0.5 * (n - 1) * a[n - 1]) / (n + 1))
    series = -np.array(a[:2:-1])
    w = np.arange(1, _KNOTS + 1) * (_W_MAX / _KNOTS)
    lnq = -w ** 3 / 6.0
    # both starts lie below the root (x > w and x > -ln Q + its iterated log);
    # Newton on this convex residual then converges from above
    x = np.maximum(w, -lnq + np.log1p(-lnq + 0.5 * lnq * lnq))
    scratch = np.empty((3, _KNOTS))
    for _ in range(40):
        _newton_step(x, lnq, *scratch)
    g = np.concatenate(([1.0], x / w))
    table = g[:-1].copy(), np.diff(g), series
    for arr in table:
        arr.flags.writeable = False  # shared by every caller and thread
    return table


def _radius(lnq, x, scratch):
    """Inverse-CDF radius, in place: lnq holds uniforms in (0, 1) on entry
    and ln(1 - u) on return, x (contiguous) receives the radius, and scratch
    is three more arrays of their shape."""
    start, slope, series = _radius_table()
    w, q, half = scratch
    np.negative(lnq, out=lnq)
    np.log1p(lnq, out=lnq)
    np.multiply(lnq, -6.0, out=w)
    np.cbrt(w, out=w)
    small = np.flatnonzero(w < _W_SERIES)
    # x = w (start[i] + frac slope[i]) at w = (i + frac) _W_MAX / _KNOTS
    np.multiply(w, _KNOTS / _W_MAX, out=q)
    i = half.view(np.intp)
    np.copyto(i, q, casting="unsafe")
    q -= i
    np.take(slope, i, mode="clip", out=x)
    x *= q
    np.take(start, i, mode="clip", out=q)
    x += q
    x *= w
    for _ in range(2):
        _newton_step(x, lnq, *scratch)
    if small.size:
        flat = x.reshape(-1)
        xs, lnqs = flat[small], lnq.reshape(-1)[small]
        for _ in range(2):
            _newton_step(xs, lnqs, *np.empty((3, len(small))), series=series)
        flat[small] = xs
    x *= 0.5
    return x


def _sech(d, e2):
    """sech(d) in place, as 2 e / (1 + e^2) with e = e^-|d|; e2 is scratch."""
    np.abs(d, out=d)
    np.negative(d, out=d)
    np.exp(d, out=d)
    np.multiply(d, d, out=e2)
    e2 += 1.0
    d *= 2.0
    d /= e2
    return d


def _samples(kind, s, u):
    n = len(u)
    # pair k = work[k] is a contiguous (2, n) array: row 0 electron 1, row 1
    # electron 2.  Pairs 0-3 start as the uniform columns (radius, cos(theta),
    # phi/2pi, center selector), pairs 4-7 are the radius and its scratch.
    work = np.empty((8, 2, n))
    work[:4] = u.reshape(n, 2, 4).transpose(2, 1, 0)
    uc = work[1]
    r = _radius(work[0], work[4], work[5:])
    z = np.multiply(uc, 2.0, out=work[5])
    z -= 1.0
    z *= r  # height above the electron's own nucleus
    rho = np.subtract(1.0, uc, out=work[6])
    rho *= uc
    np.sqrt(rho, out=rho)
    rho *= 2.0
    rho *= r  # distance from the axis
    # r12^2 = (rho1 - rho2)^2 + 4 rho1 rho2 sin^2(pi (u2 - u6)) + dz^2
    r12, tmp = work[2]
    np.subtract(r12, tmp, out=r12)
    r12 *= math.pi
    np.sin(r12, out=r12)
    r12 *= r12
    r12 *= rho[0]
    r12 *= rho[1]
    r12 *= 4.0
    np.subtract(rho[0], rho[1], out=tmp)
    tmp *= tmp
    r12 += tmp
    dz = np.subtract(z[0], z[1], out=tmp)
    if kind == KIND_J:
        dz -= s
    elif kind in (KIND_K, KIND_L):
        own_b = work[3] >= 0.5
        center = np.multiply(own_b, s, out=work[3])  # z of the own nucleus
        dz += center[0]
        dz -= center[1]
        # distance to the other nucleus, at z = s - center
        dother = np.multiply(center, 2.0, out=work[7])
        dother -= s
        dother += z
        dother *= dother
        rho *= rho
        dother += rho
        np.sqrt(dother, out=dother)
        # dA - dB for an electron on nucleus a, dB - dA on nucleus b: sech
        # is even, and the l kind restores the sign for electron 1
        dab = np.subtract(r, dother, out=dother)
    dz *= dz
    r12 += dz
    np.sqrt(r12, out=r12)
    inv = np.divide(1.0, r12, out=r12)
    if kind in (KIND_J, KIND_M):
        return inv
    if kind == KIND_K:
        sech = _sech(dab, work[5])
        inv *= sech[0]
        inv *= sech[1]
        return inv
    # 1 - tanh(dA - dB) = 2 / (1 + e^(2 (dA - dB))); |dA - dB| <= s, capped
    # where the exponential overflows
    f = dab[0]
    sign = np.multiply(own_b[0], -4.0, out=work[0][0])
    sign += 2.0
    f *= sign
    np.minimum(f, 700.0, out=f)
    np.exp(f, out=f)
    f += 1.0
    np.divide(2.0, f, out=f)
    inv *= f
    inv *= _sech(dab[1], work[5][1])
    return inv


def radius_from_uniform(u):
    """Inverse-CDF radius of the 1s density p(r) = 4 r^2 e^-2r, for u in [0, 1)."""
    u = np.array(u, dtype=np.float64)
    positive = u > 0.0
    work = np.empty((5, np.count_nonzero(positive)))
    work[0] = u[positive]
    r = np.zeros_like(u)
    r[positive] = _radius(work[0], work[1], work[2:])
    return r


def integrand_samples(kind: int, s: float, u: np.ndarray) -> np.ndarray:
    """Per-sample importance-weighted integrand values for one kind.

    Parameters
    ----------
    kind : int
        One of KIND_J, KIND_K, KIND_L, KIND_M.
    s : float
        Reduced internuclear distance.
    u : numpy.ndarray
        (n, 8) float64 array of uniforms in (0, 1) (see module docstring);
        it is not modified.
    """
    if kind not in (KIND_J, KIND_K, KIND_L, KIND_M):
        raise ValueError(f"unknown integrand kind {kind!r}")
    return _samples(kind, float(s), u)
