import math
import sys

import numpy as np
import pytest

import h2ent._mc_kernels as kernels
import h2ent.oracle as oracle
from h2ent.integrals import coulomb_j, exchange_k, hybrid_l, overlap, jprime, kprime
from h2ent.oracle import (BLOCK_ROWS, MC_KINDS, McEstimate, mc_two_electron, oracle_e1,
                          quad_one_electron)
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
    with pytest.raises(ValueError):
        quad_one_electron("overlap", -1.0)


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


def test_radius_transform_inverts_cdf():
    u = np.linspace(1e-6, 1.0 - 1e-6, 1001)
    r = kernels.radius_from_uniform(u)
    back = 1.0 - np.exp(-2.0 * r) * (2.0 * r * r + 2.0 * r + 1.0)
    assert np.max(np.abs(back - u)) < 1e-9


# The unfused one-pass kernel the blocked one replaced, kept as the reference
# that every per-sample value must equal bit for bit.
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


def test_radius_matches_reference_bitwise():
    u = np.random.default_rng(21).random(200_003)
    u[:6] = (1e-16, 1.0 - 1e-16, 0.9, np.nextafter(0.9, 0.0), 0.5, 0.0)
    assert np.array_equal(kernels.radius_from_uniform(u), _reference_radius(u))


@pytest.mark.parametrize("kind", ["j", "k", "l", "m"])
@pytest.mark.parametrize("s", [0.5, 1.67, 8.0])
def test_kernel_matches_reference_bitwise(kind, s):
    u = np.random.default_rng(17).random((20_011, 8))
    u[0, 0], u[1, 4], u[2, 0], u[3, 4] = 1e-16, 1.0 - 1e-16, 0.9, np.nextafter(0.9, 0.0)
    np.clip(u, 1e-16, 1.0 - 1e-16, out=u)
    got = kernels.integrand_samples(kernels.KIND_CODES[kind], s, u)
    assert np.array_equal(got, _reference_samples(kind, s, u))


@pytest.mark.parametrize("kind", ["j", "k", "l", "m"])
def test_mc_blocks_match_one_whole_draw(kind, monkeypatch):
    # several full blocks and a short tail, against one (n, 8) draw; the
    # blocks run on worker threads in any order, so each is put back at the
    # position of its first row in the whole draw
    n = 3 * BLOCK_ROWS + 1001
    u = np.random.default_rng(13).random((n, 8))
    np.clip(u, 1e-16, 1.0 - 1e-16, out=u)
    whole = kernels.integrand_samples(kernels.KIND_CODES[kind], 1.67, u)
    seen = []

    def recording(code, s, block):
        values = kernels.integrand_samples(code, s, block)
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


def test_oracle_e1_rejects_bad_input():
    with pytest.raises(ValueError):
        oracle_e1(0.0)
    with pytest.raises(ValueError):
        oracle_e1(-2.0)
