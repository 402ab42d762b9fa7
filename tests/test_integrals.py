import math

import numpy as np
import pytest

from h2ent.integrals import (EXCHANGE_SMALL_S, coulomb_j, exchange_k, hybrid_l,
                             integral_set, integral_table, jprime, kprime, one_center_m,
                             overlap, s_prime)
from h2ent.oracle import mc_two_electron, quad_one_electron

GRID = np.linspace(0.05, 20.0, 80)


def test_overlap_values():
    assert overlap(0.0) == 1.0
    # frozen; independently cross-checked by quad_one_electron below
    assert overlap(2.0) == pytest.approx(0.5864528940253216, rel=1e-14)
    assert overlap(40.0) < 1e-13


def test_overlap_matches_quadrature():
    for s in (0.5, 2.0, 8.0):
        assert overlap(s) == pytest.approx(quad_one_electron("overlap", s), abs=1e-10)


def test_overlap_domain_error():
    with pytest.raises(ValueError):
        overlap(-0.5)


def test_s_prime_values():
    assert s_prime(0.0) == 1.0
    # S'(1) = e/3, frozen from direct high-precision evaluation
    assert s_prime(1.0) == pytest.approx(0.9060939428196817, rel=1e-14)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf, 700.0, 800.0])
def test_s_prime_domain_errors(bad):
    # like overlap and kprime it accepts finite s >= 0; past about s = 697
    # the value leaves float64 (700: the product overflows to inf, 800:
    # math.exp itself overflows), and both are refused the same way
    with pytest.raises(ValueError, match="s_prime"):
        s_prime(bad)


def test_s_prime_product_even_in_s():
    # S(s) S'(s) = 1 - s^2/3 + s^4/9 exactly, an even polynomial
    for s in (0.3, 1.0, 1.67, 2.5):
        prod = overlap(s) * s_prime(s)
        poly = 1.0 - s * s / 3.0 + s ** 4 / 9.0
        assert prod == pytest.approx(poly, rel=1e-12)


def test_jprime_values_and_limits():
    assert jprime(2.0) == pytest.approx(0.4725265416668987, rel=1e-14)
    assert jprime(1e-6) == pytest.approx(1.0, abs=1e-5)
    assert 50.0 * jprime(50.0) == pytest.approx(1.0, abs=1e-12)


def test_kprime_values_and_limits():
    assert kprime(0.0) == 1.0
    assert kprime(1.0) == pytest.approx(0.7357588823428847, rel=1e-14)
    assert kprime(50.0) < 1e-19


def test_one_electron_integrals_match_quadrature():
    for s in (0.5, 1.67, 4.0):
        assert jprime(s) == pytest.approx(quad_one_electron("jprime", s), abs=1e-10)
        assert kprime(s) == pytest.approx(quad_one_electron("kprime", s), abs=1e-10)


def test_coulomb_j_values_and_limits():
    assert coulomb_j(1.67) == pytest.approx(0.4680003650684854, rel=1e-14)
    assert coulomb_j(1e-3) == pytest.approx(0.625, abs=2e-3)
    assert 50.0 * coulomb_j(50.0) == pytest.approx(1.0, abs=1e-12)


def test_exchange_k_values():
    # frozen; the Monte Carlo oracle agrees (see verify / acceptance suite)
    assert exchange_k(2.0) == pytest.approx(0.18415645713222623, rel=1e-13)
    assert exchange_k(1.67) == pytest.approx(0.254634508781884, rel=1e-13)
    k8 = exchange_k(8.0)
    assert 0.0 < k8 < 1e-3
    assert k8 == pytest.approx(3.2895901040143284e-05, rel=1e-12)


def test_exchange_k_coincidence_limit():
    assert exchange_k(1e-3) == pytest.approx(0.625, abs=2e-3)


def test_exchange_k_small_s_guard_is_a_linear_blend():
    k_cut = exchange_k(EXCHANGE_SMALL_S)
    for frac in (0.25, 0.5, 0.9):
        s = frac * EXCHANGE_SMALL_S
        expect = 0.625 + (k_cut - 0.625) * frac
        assert exchange_k(s) == pytest.approx(expect, rel=1e-12)
    # continuity across the cutoff
    assert exchange_k(EXCHANGE_SMALL_S * (1 - 1e-9)) == pytest.approx(k_cut, abs=1e-9)


def test_exchange_k_cancellation_pinned_by_oracle():
    # the log-divergent pieces of the closed form cancel; pin it at s = 0.01
    est = mc_two_electron("k", 0.01, 1_000_000, 4242)
    assert abs(exchange_k(0.01) - est.mean) <= 3.0 * est.stderr


def test_hybrid_l_values_and_limits():
    assert hybrid_l(1.67) == pytest.approx(0.3710471951950372, rel=1e-13)
    assert hybrid_l(1e-3) == pytest.approx(0.625, abs=2e-3)
    assert hybrid_l(50.0) < 1e-19


def test_one_center_m_exact():
    assert one_center_m() == 0.625


def test_integral_set_bundles_members():
    q = integral_set(1.67)
    assert q.s == 1.67
    assert q.S == overlap(1.67)
    assert q.jp == jprime(1.67)
    assert q.kp == kprime(1.67)
    assert q.j == coulomb_j(1.67)
    assert q.k == exchange_k(1.67)
    assert q.l == hybrid_l(1.67)
    assert q.m == 0.625


def test_integral_table_matches_integral_set():
    # through the s < 1e-3 exchange blend, the crossover and the far tail
    s = np.concatenate([np.geomspace(1e-6, 0.99 * EXCHANGE_SMALL_S, 9),
                        [EXCHANGE_SMALL_S], np.geomspace(1.01e-3, 0.3, 20),
                        GRID, np.geomspace(20.5, 600.0, 20)])
    table = integral_table(s)
    for i, si in enumerate(s.tolist()):
        ref = integral_set(si)
        assert table.s[i] == si
        assert table.m == ref.m
        for name in ("S", "jp", "kp", "j", "l"):
            assert getattr(table, name)[i] == pytest.approx(getattr(ref, name),
                                                            rel=1e-14, abs=1e-300), name
        # k's closed form cancels log-divergent terms, which amplify an ulp
        # of numpy's log or exp about a thousandfold near s = 1e-3
        assert table.k[i] == pytest.approx(ref.k, rel=1e-12 if si < 0.3 else 1e-14)
        if si < EXCHANGE_SMALL_S:
            assert table.k[i] == ref.k


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_integral_table_domain_errors(bad):
    with pytest.raises(ValueError):
        integral_table(np.array([1.0, bad]))


def test_integral_set_m_is_distance_independent():
    assert {integral_set(float(s)).m for s in (0.1, 1.0, 5.0, 20.0)} == {0.625}


def test_integral_set_coincidence_limit():
    q = integral_set(1e-3)
    for val in (q.j, q.k, q.l):
        assert val == pytest.approx(0.625, abs=1e-3)
    assert q.S == pytest.approx(1.0, abs=1e-3)


def test_integral_set_dissociation_asymptotics():
    q = integral_set(20.0)
    assert q.S < 1e-6
    assert q.k < 1e-12
    assert q.s * q.j == pytest.approx(1.0, abs=1e-10)


def test_positivity_and_ordering_on_grid():
    for s in GRID:
        q = integral_set(float(s))
        assert q.j >= q.k > 0.0
        assert q.l > 0.0
        assert q.jp > 0.0 and q.kp > 0.0
        assert 0.0 < q.S < 1.0
        assert q.m - q.j > 0.0


@pytest.mark.parametrize("fn", [jprime, coulomb_j, exchange_k, hybrid_l, integral_set])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_domain_errors(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)
