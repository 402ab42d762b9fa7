import math
import pathlib
import re
import sys

import mpmath
import numpy as np
import pytest

import h2ent._mc_kernels as kernels
import h2ent.oracle as oracle
import mpref
from h2ent.integrals import coulomb_j, exchange_k, hybrid_l, overlap, jprime, kprime
from h2ent.oracle import (BLOCK_ROWS, MC_KINDS, McEstimate, mc_two_electron, oracle_e1,
                          quad_one_electron, quad_two_electron)
from h2ent.specfun import EULER_GAMMA

S_GRID = (0.5, 1.0, 1.67, 2.0, 4.0, 8.0)
CLOSED = {"overlap": overlap, "jprime": jprime, "kprime": kprime}


@pytest.mark.parametrize("kind", ["overlap", "jprime", "kprime"])
def test_quadrature_matches_closed_forms(kind):
    for s in S_GRID:
        assert quad_one_electron(kind, s) == pytest.approx(CLOSED[kind](s), abs=1e-8)


def test_quadrature_normalization_limit():
    assert quad_one_electron("overlap", 1e-3) == pytest.approx(1.0, abs=1e-6)


def test_quadrature_point_charge_limit():
    assert quad_one_electron("jprime", 20.0) == pytest.approx(0.05, abs=1e-6)


def test_quadrature_rejects_bad_input():
    with pytest.raises(ValueError):
        quad_one_electron("nope", 1.0)
    # a list raised a bare TypeError from the dict of integrands
    with pytest.raises(ValueError, match=r"^unknown one-electron kind \['overlap'\]"):
        quad_one_electron(["overlap"], 1.0)
    with pytest.raises(ValueError):
        quad_one_electron("overlap", -1.0)


# the six verify distances, a log grid over [0.1, 20], and the near-coincidence
# and dissociation ranges [1e-2, 0.1] and [20, 150]
TWO_ELECTRON_GRID = S_GRID + tuple(float(s) for s in np.geomspace(0.1, 20.0, 23)) + (
    0.01, 0.02, 0.05, 40.0, 80.0, 120.0, 150.0)


@pytest.mark.parametrize("kind", ["j", "k", "l", "m"])
def test_two_electron_quadrature_matches_mpmath(kind):
    for s in TWO_ELECTRON_GRID:
        # working digits that grow with s keep the reference far inside the
        # tolerance at every s of the grid
        ref = float(mpref.integrals(s, dps=int(2 * s / math.log(10)) + 60)[kind])
        assert abs(quad_two_electron(kind, s) - ref) <= 1e-12 * ref, s


def test_legendre_q_against_mpmath():
    # mu - 1 from 1e-12 (the log singularity) to 1e3, both sides of the
    # switch to the Q_2 series at mu = 2, where P_2 Q_0 - 3mu/2 cancels most,
    # and both sides of mu = 4, where the switch used to be
    d = np.concatenate((np.geomspace(1e-12, 1e3, 200), [1.0 - 1e-9, 1.0, 1.0 + 1e-9],
                        [3.0 - 1e-9, 3.0, 3.0 + 1e-9]))
    q0, q2 = oracle._legendre_q(d)
    with mpmath.workdps(40):
        for di, got0, got2 in zip(d, q0, q2):
            mu = 1 + mpmath.mpf(di)
            ref0 = mpmath.log((mu + 1) / (mu - 1)) / 2
            ref2 = (3 * mu * mu - 1) / 2 * ref0 - 3 * mu / 2
            assert abs(got0 - ref0) <= 1e-15 * ref0, di
            assert abs(got2 - ref2) <= 1e-13 * ref2, di


@pytest.mark.parametrize("call", [
    lambda: quad_one_electron("overlap", 1.0),
    lambda: quad_two_electron("m", 1.0),
    lambda: quad_two_electron("j", 1.67),
    lambda: quad_two_electron("k", 1.67),
    lambda: quad_two_electron("l", 1.67),
    lambda: oracle_e1(1e-3),
])
def test_too_coarse_rule_raises(call, monkeypatch):
    # quad_one_electron is held to 1e-12 absolute, not to its 1e-8, which
    # twice the step may still meet; no other rule reads ONE_ELECTRON_TOL
    monkeypatch.setattr(oracle, "ONE_ELECTRON_TOL", 1e-12)
    call()
    # at twice the step the step-h and step-2h sums differ by about 1e-8
    monkeypatch.setattr(oracle, "DE_STEP", 2.0 * oracle.DE_STEP)
    with pytest.raises(RuntimeError, match="did not reach"):
        call()


def test_two_electron_quadrature_rejects_bad_input():
    with pytest.raises(ValueError):
        quad_two_electron("overlap", 1.0)
    for s in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            quad_two_electron("k", s)


# derivation-level faults that the closed forms could share with the
# quadrature, each as (oracle function patched, fault built from the real one)
QUADRATURE_FAULTS = {
    "Q2 dropped (no l = 2 term)": ("_legendre_q", lambda q: lambda d: (q(d)[0], 0.0 * q(d)[1])),
    "l = 2 term weighted 1, not 5": ("_legendre_q", lambda q: lambda d: (q(d)[0], q(d)[1] / 5.0)),
    "Q0 doubled": ("_legendre_q", lambda q: lambda d: (2.0 * q(d)[0], q(d)[1])),
    "l density as e^-s": ("_neumann_sums", lambda f: lambda s, decay: f(s, 0.5 * decay)),
    "r V(r) = 1 - e^-2r": ("_r_potential", lambda f: lambda r: -np.expm1(-2.0 * r)),
    "r V(r) = 1 - (1 + r) e^-r": ("_r_potential", lambda f: lambda r: 1.0 - (1.0 + r) * np.exp(-r)),
    "r V(r) = 1 - (1 + 2r) e^-2r": ("_r_potential",
                                    lambda f: lambda r: 1.0 - (1.0 + 2.0 * r) * np.exp(-2.0 * r)),
}


def _pinned_mc_lines():
    """(kind, s, mean, sigma) of the 19 Monte Carlo lines of the pinned
    `h2e verify` report at MC_SEED 7 and MC_SAMPLES 100003."""
    text = (pathlib.Path(__file__).parent / "data" / "verify_samples100003_seed7.txt").read_text()
    pattern = r"^  (?:m \(any s\)|s=(\S+) +([jkl])) +closed=.* mc= *(\S+) +sigma=(\S+) "
    return [(kind or "m", float(s or 1.0), float(mc), float(sigma))
            for s, kind, mc, sigma in re.findall(pattern, text, re.M)]


@pytest.mark.parametrize("fault", QUADRATURE_FAULTS)
def test_mc_catches_faults_the_quadrature_shares(fault, monkeypatch):
    # the Monte Carlo integrates the raw 6-D definition and shares no
    # derivation with the Neumann expansion or the 1s potential, so a fault
    # in those lands more than 3 sigma from at least one of its lines
    lines = _pinned_mc_lines()
    assert len(lines) == 19

    def worst_sigmas():
        return max(abs(quad_two_electron(kind, s) - mc) / sigma for kind, s, mc, sigma in lines)

    assert worst_sigmas() <= 3.0
    name, build = QUADRATURE_FAULTS[fault]
    monkeypatch.setattr(oracle, name, build(getattr(oracle, name)))
    assert worst_sigmas() > 3.0


def test_mc_one_center_value():
    est = mc_two_electron("m", 1.3, 1_000_000, 42)
    assert isinstance(est, McEstimate)
    assert abs(est.mean - 0.625) <= 3.0 * est.stderr
    assert est.stderr < 1e-3


@pytest.mark.parametrize("kind,s,closed", [
    ("j", 1.67, coulomb_j(1.67)),
    ("k", 2.0, exchange_k(2.0)),
    ("l", 1.67, hybrid_l(1.67)),
])
def test_mc_agrees_with_closed_forms(kind, s, closed):
    est = mc_two_electron(kind, s, 1_000_000, 42)
    assert abs(est.mean - closed) <= 3.0 * est.stderr


def test_mc_bitwise_deterministic():
    a = mc_two_electron("j", 1.0, 50_000, 7)
    b = mc_two_electron("j", 1.0, 50_000, 7)
    assert a.mean == b.mean and a.stderr == b.stderr
    c = mc_two_electron("j", 1.0, 50_000, 8)
    assert c.mean != a.mean


def test_mc_stderr_scales_like_inverse_sqrt_n():
    small = mc_two_electron("j", 0.5, 10_000, 11)
    large = mc_two_electron("j", 0.5, 1_000_000, 11)
    ratio = small.stderr / large.stderr
    assert 5.0 <= ratio <= 20.0


def test_mc_finite_variance_near_coalescence():
    est = mc_two_electron("m", 0.5, 100_000, 3)
    assert est.stderr < 5e-3


def test_mc_rejects_bad_arguments():
    with pytest.raises(ValueError):
        mc_two_electron("x", 1.0, 100_000, 1)
    with pytest.raises(ValueError):
        mc_two_electron("j", 1.0, 9_999, 1)
    with pytest.raises(ValueError):
        mc_two_electron("j", 1.0, 100_000, -1)
    with pytest.raises(ValueError):
        mc_two_electron("j", -1.0, 100_000, 1)


def test_mc_refuses_bools_for_counts_and_seeds():
    # True ran as seed 1, because a bool is an int
    for seed in (True, False):
        with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer, got "):
            mc_two_electron("j", 1.0, 10_000, seed)
    with pytest.raises(ValueError, match=r"^n_samples must be an integer >= \d+, got True$"):
        mc_two_electron("j", 1.0, True, 1)


def test_radius_transform_inverts_cdf():
    u = np.linspace(1e-6, 1.0 - 1e-6, 1001)
    r = kernels.radius_from_uniform(u)
    back = 1.0 - np.exp(-2.0 * r) * (2.0 * r * r + 2.0 * r + 1.0)
    assert np.max(np.abs(back - u)) < 1e-9


# The unfused one-pass kernel of earlier versions (8 Newton steps from a
# cube-root or iterated-log start, two cosines and two sines per sample,
# 1 - tanh(d) as such), kept as the reference every per-sample value must
# match to a stated tolerance; mpmath decides where the two differ most.
def _reference_radius(u):
    lnq = np.log1p(-u)
    big = -lnq
    x_big = big + np.log1p(big + 0.5 * big * big)
    x_big = big + np.log1p(x_big + 0.5 * x_big * x_big)
    x = np.where(u < 0.9, np.cbrt(6.0 * u), x_big)
    for _ in range(8):
        t = x * (1.0 + 0.5 * x)
        phi = -x + np.log1p(t) - lnq
        dphi = -(0.5 * x * x) / (1.0 + t)
        safe = dphi != 0.0
        x = x - np.where(safe, phi / np.where(safe, dphi, 1.0), 0.0)
        x = np.maximum(x, 1e-300)
    return 0.5 * x


def _reference_positions(u3, center_z):
    r = _reference_radius(u3[:, 0])
    cz = 2.0 * u3[:, 1] - 1.0
    ph = 2.0 * math.pi * u3[:, 2]
    st = np.sqrt(np.maximum(1.0 - cz * cz, 0.0))
    return (r * st * np.cos(ph), r * st * np.sin(ph), center_z + r * cz)


def _reference_sech(d):
    e = np.exp(-np.abs(d))
    return 2.0 * e / (1.0 + e * e)


def _reference_samples(kind, s, u):
    n = u.shape[0]
    if kind == "j":
        c1, c2 = np.zeros(n), np.full(n, s)
    elif kind == "m":
        c1, c2 = np.zeros(n), np.zeros(n)
    else:
        c1, c2 = np.where(u[:, 3] < 0.5, 0.0, s), np.where(u[:, 7] < 0.5, 0.0, s)
    x1, y1, z1 = _reference_positions(u[:, 0:3], c1)
    x2, y2, z2 = _reference_positions(u[:, 4:7], c2)
    inv = 1.0 / np.sqrt((x1 - x2) ** 2 + (y1 - y2) ** 2 + (z1 - z2) ** 2)
    if kind in ("j", "m"):
        return inv
    da1 = np.sqrt(x1 * x1 + y1 * y1 + z1 * z1)
    db1 = np.sqrt(x1 * x1 + y1 * y1 + (z1 - s) ** 2)
    da2 = np.sqrt(x2 * x2 + y2 * y2 + z2 * z2)
    db2 = np.sqrt(x2 * x2 + y2 * y2 + (z2 - s) ** 2)
    sech2 = _reference_sech(da2 - db2)
    if kind == "k":
        return _reference_sech(da1 - db1) * sech2 * inv
    return (1.0 - np.tanh(da1 - db1)) * sech2 * inv


def _mp_radius(u):
    """The inverse-CDF radius at the working mpmath precision."""
    lnq = mpmath.log1p(-mpmath.mpf(u))
    x0 = mpmath.cbrt(-6 * lnq) if lnq > -1 else -lnq + mpmath.log(1 - lnq + lnq * lnq / 2)
    return mpmath.findroot(lambda x: x - mpmath.log1p(x + x * x / 2) + lnq, x0) / 2


def _mp_sample_l(s, row):
    """The l integrand at one row of uniforms, as the reference computes it,
    at the working mpmath precision."""
    s = mpmath.mpf(s)
    pos = []
    for e in (0, 4):
        r = _mp_radius(row[e])
        cz = 2 * mpmath.mpf(row[e + 1]) - 1
        ph = 2 * mpmath.pi * mpmath.mpf(row[e + 2])
        rst = r * mpmath.sqrt(1 - cz * cz)
        center = 0 if row[e + 3] < 0.5 else s
        pos.append((rst * mpmath.cos(ph), rst * mpmath.sin(ph), center + r * cz))
    (x1, y1, z1), (x2, y2, z2) = pos
    r12 = mpmath.sqrt((x1 - x2) ** 2 + (y1 - y2) ** 2 + (z1 - z2) ** 2)
    d1, d2 = (mpmath.sqrt(x * x + y * y + z * z) - mpmath.sqrt(x * x + y * y + (z - s) ** 2)
              for x, y, z in pos)
    return (1 - mpmath.tanh(d1)) * mpmath.sech(d2) / r12


def test_radius_matches_reference_bitwise():
    # named when the kernel equalled the reference bit for bit; now to 1e-11
    u = np.random.default_rng(21).random(200_003)
    u[:4] = (1.0 - 1e-16, 0.9, np.nextafter(0.9, 0.0), 0.5)
    ref = _reference_radius(u)
    assert np.all(np.abs(kernels.radius_from_uniform(u) - ref) <= 1e-11 * ref)
    # the reference floors x at 1e-300
    assert kernels.radius_from_uniform([0.0, 0.5])[0] == 0.0


def test_radius_against_mpmath():
    # below u ~ 1e-8 the reference's residual ln(1 + t) - x - ln Q cancels
    # (4e-16/x^2 relative), and its radius is off by 1.6e-6 at u = 1e-16;
    # the kernel sums that residual from its Taylor series there
    tiny = np.array([1e-16, 1e-12, 1e-9, 1e-7, 1e-6, 4e-6])
    # elsewhere two Newton steps from the table reach the float64 root
    u = np.array([0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 0.999, 1.0 - 1e-12, 1.0 - 1e-16])
    with mpmath.workdps(40):
        for ui, g, rf in zip(tiny, kernels.radius_from_uniform(tiny), _reference_radius(tiny)):
            exact = _mp_radius(ui)
            assert abs(g - exact) <= 1e-14 * exact
            assert abs(g - exact) <= abs(rf - exact)
        for ui, g in zip(u, kernels.radius_from_uniform(u)):
            assert abs(g - _mp_radius(ui)) <= 1e-15 * g


@pytest.mark.parametrize("kind", ["j", "k", "l", "m"])
@pytest.mark.parametrize("s", [0.5, 1.67, 8.0])
def test_kernel_matches_reference_bitwise(kind, s):
    # named when the kernel equalled the reference bit for bit; now to 1e-9
    u = np.random.default_rng(17).random((20_011, 8))
    u[0, 0], u[1, 4], u[2, 0], u[3, 4] = 1e-16, 1.0 - 1e-16, 0.9, np.nextafter(0.9, 0.0)
    np.clip(u, 1e-16, 1.0 - 1e-16, out=u)
    before = u.copy()
    got = kernels.integrand_samples(kind, s, u)
    assert np.array_equal(u, before)
    ref = _reference_samples(kind, s, u)
    assert np.all(np.abs(got - ref) <= 1e-9 * np.abs(ref))


def test_kernel_l_closer_to_mpmath_where_reference_differs_most():
    # at s = 8 the reference's 1 - tanh(d) loses digits as d nears s: the
    # five samples it differs most on (about 3e-10 relative) are each
    # nearer the 40-digit value in the kernel's 2 / (1 + e^(2d))
    u = np.random.default_rng(17).random((20_011, 8))
    got = kernels.integrand_samples("l", 8.0, u)
    ref = _reference_samples("l", 8.0, u)
    worst = np.argsort(np.abs(got / ref - 1.0))[-5:]
    assert np.abs(got[worst] / ref[worst] - 1.0).max() > 1e-10
    with mpmath.workdps(40):
        for i in worst:
            exact = _mp_sample_l(8.0, u[i])
            assert abs(got[i] - exact) <= 1e-13 * abs(exact)
            assert abs(got[i] - exact) < abs(ref[i] - exact)


def test_kernel_finite_without_overflow_at_large_distance():
    u = np.random.default_rng(5).random((1000, 8))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for kind in ("j", "k", "l", "m"):
            values = kernels.integrand_samples(kind, 400.0, u)
            assert np.all(np.isfinite(values)) and np.all(values >= 0.0)


@pytest.mark.parametrize("kind", ["j", "k", "l", "m"])
def test_mc_blocks_match_one_whole_draw(kind, monkeypatch):
    # several full blocks and a short tail, against one (n, 8) draw; the
    # blocks run on worker threads in any order, so each is put back at the
    # position of its first row in the whole draw
    n = 3 * BLOCK_ROWS + 1001
    u = np.random.default_rng(13).random((n, 8))
    np.clip(u, 1e-16, 1.0 - 1e-16, out=u)
    whole = kernels.integrand_samples(kind, 1.67, u)
    seen = []

    def recording(which, s, block):
        values = kernels.integrand_samples(which, s, block)
        seen.append((block[0].copy(), values))
        return values

    monkeypatch.setattr(oracle, "integrand_samples", recording)
    est = mc_two_electron(kind, 1.67, n, 13)
    assert sorted(len(v) for _, v in seen) == [1001] + [BLOCK_ROWS] * 3
    placed = np.full(n, np.nan)
    for first_row, v in seen:
        (start,) = np.flatnonzero((u == first_row).all(axis=1))
        assert np.isnan(placed[start:start + len(v)]).all()
        placed[start:start + len(v)] = v
    assert np.array_equal(placed, whole)
    assert est.mean == float(np.mean(whole))
    assert est.stderr == float(np.std(whole, ddof=1) / math.sqrt(n))


@pytest.mark.parametrize("seed", [0, 13, 2**63 + 5])
def test_block_substreams_match_one_sequential_stream(seed):
    n = 3 * BLOCK_ROWS + 1001
    whole = np.random.default_rng(seed).random((n, 8))
    for start in range(0, n, BLOCK_ROWS):
        rows = min(BLOCK_ROWS, n - start)
        assert np.array_equal(oracle._block_uniforms(seed, start, rows),
                              whole[start:start + rows])


def test_mc_estimate_independent_of_worker_count(monkeypatch):
    n = 5 * BLOCK_ROWS + 17
    estimate = lambda: [repr(mc_two_electron(kind, 1.67, n, 29)) for kind in MC_KINDS]
    pooled = estimate()
    monkeypatch.setattr(oracle, "MAX_WORKERS", 1)
    assert oracle._worker_count() == 1
    assert estimate() == pooled
    # more workers than cores, switching threads as often as possible: a
    # block written to the wrong slice or lost would change the estimate
    monkeypatch.setattr(oracle, "_worker_count", lambda: 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert estimate() == pooled
    finally:
        sys.setswitchinterval(interval)


def test_oracle_e1_frozen_values():
    assert oracle_e1(1.0) == pytest.approx(0.21938393439552029, rel=1e-12)
    assert oracle_e1(10.0) == pytest.approx(4.156968929685324e-06, rel=1e-11)


def test_oracle_e1_small_x_consistency():
    x = 1e-3
    assert oracle_e1(x) + math.log(x) == pytest.approx(-EULER_GAMMA + x, abs=5e-4)


def test_oracle_e1_against_mpmath_from_tiny_to_large_x():
    for x in (1e-300, 1e-60, 1e-20, 1e-8, 3e-3, 0.7, 5.0, 50.0, 700.0):
        ref = float(mpmath.e1(x))
        assert abs(oracle_e1(x) - ref) <= 1e-14 * ref, x


def test_oracle_e1_rejects_bad_input():
    with pytest.raises(ValueError):
        oracle_e1(0.0)
    with pytest.raises(ValueError):
        oracle_e1(-2.0)
