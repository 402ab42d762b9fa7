import dataclasses
import math

import numpy as np
import pytest

import h2ent.ci
from h2ent.ci import (E1S, HamiltonianBlock, _block_of, ci_solve, ci_table, ground_concurrence,
                      ground_entropy, hamiltonian_block, solve_block, w_from_ci)
from h2ent.entanglement import concurrence4, slater_decompose, von_neumann_entropy
from h2ent.integrals import integral_set, integral_table
from h2ent.scan import record_at
from h2ent.specfun import MATH_XP, binary_entropy, numpy_xp
from test_scalar_golden import DISTANCES
from test_specfun import BEYOND_FLOAT

SQ2 = math.sqrt(0.5)
GRID = np.linspace(0.3, 8.0, 60)


def energy_of_angle(block, omega):
    c1, c2 = math.cos(omega), math.sin(omega)
    return (c1 * c1 * block.h11 + 2.0 * c1 * c2 * block.h12 + c2 * c2 * block.h22)


def test_h11_near_equilibrium():
    # frozen; the shallow minimum of the single-configuration curve
    assert (hamiltonian_block(1.67).h11 - 2.0 * E1S
            == pytest.approx(-0.09839885086607802, abs=1e-12))


def test_h11_repulsive_wall():
    assert hamiltonian_block(0.1).h11 > hamiltonian_block(1.0).h11


def test_h11_dissociation_tail():
    # tends to m/2 above 2 E1S, approached through a -1/(2s) ionic tail
    assert (hamiltonian_block(20.0).h11 - 2.0 * E1S
            == pytest.approx(5.0 / 16.0 - 1.0 / 40.0, abs=1e-6))
    assert hamiltonian_block(500.0).h11 - 2.0 * E1S == pytest.approx(5.0 / 16.0, abs=1.1e-3)


def test_block_symmetric_and_positive_coupling():
    for s in GRID:
        block = hamiltonian_block(float(s))
        assert block.h12 > 0.0
        assert block.h11 < block.h22


def test_block_variants_differ_as_documented():
    q = integral_set(2.0)
    blocks = {v: hamiltonian_block(2.0, v) for v in ("corrected", "printed")}
    assert blocks["corrected"].h11 == blocks["printed"].h11
    assert blocks["corrected"].h12 == blocks["printed"].h12
    delta = (-2.0 * (q.jp - q.kp) / (1.0 - q.S)
             + (q.j + 2.0 * q.k + q.m - 4.0 * q.l) / (2.0 * (1.0 - q.S) ** 2)
             + 2.0 * (q.jp - q.kp) / (1.0 + q.S)
             - (q.j + 2.0 * q.k + q.m - 4.0 * q.l) / (2.0 * (1.0 + q.S) ** 2))
    assert blocks["corrected"].h22 - blocks["printed"].h22 == pytest.approx(delta, rel=1e-12)


def test_block_rejects_unknown_variant():
    with pytest.raises(ValueError):
        hamiltonian_block(1.0, "bogus")


def solution_bits(sol):
    """Every CiSolution field with its type, floats by their exact bits."""
    return [(type(v), v.hex() if isinstance(v, float) else v)
            for v in dataclasses.astuple(sol)]


@pytest.mark.parametrize("args, message", [
    ((True,), "integral_set requires finite s > 0, got True"),
    ((np.bool_(True),), f"integral_set requires finite s > 0, got {np.bool_(True)!r}"),
    ((float("nan"),), "integral_set requires finite s > 0, got nan"),
    ((-0.0,), "integral_set requires finite s > 0, got -0.0"),
    ((1.0, "Corrected"), "unknown h22 variant 'Corrected'; expected one of "
                         "('corrected', 'printed')"),
    ((1.0, ["corrected"]), "unknown h22 variant ['corrected']; expected one of "
                           "('corrected', 'printed')"),
])
def test_ci_solve_refuses_before_the_memo_looks_up(args, message):
    # True == 1.0 and hash(True) == hash(1.0): a memo keyed on the raw
    # argument would hand ci_solve(True) the solution at s = 1.0
    ci_solve(1.0)
    with pytest.raises(ValueError) as info:
        ci_solve(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("s, same", [(np.float64(1.7), 1.7), (2, 2.0)])
def test_ci_solve_gives_the_same_bits_for_the_same_float(s, same):
    first = solution_bits(ci_solve(s))
    assert solution_bits(ci_solve(same)) == first
    h2ent.ci._ci_solve.cache_clear()
    assert solution_bits(ci_solve(same)) == first
    assert first == solution_bits(solve_block(hamiltonian_block(same)))


def test_ci_solve_solves_each_distance_once(monkeypatch):
    # a profiler wraps integral_set in the ci namespace and E1 in specfun's,
    # as this test does; E1 is called twice per integral_set at these s
    import h2ent.specfun as specfun

    calls, e1_calls = [], []
    integrals, e1 = h2ent.ci.integral_set, specfun.exp_integral_e1
    monkeypatch.setattr(h2ent.ci, "integral_set", lambda s: calls.append(s) or integrals(s))
    monkeypatch.setattr(specfun, "exp_integral_e1", lambda x: e1_calls.append(x) or e1(x))
    record_at(1.3)
    ci_solve(1.3)
    record_at(1.3, unit="ev")
    assert (calls, len(e1_calls)) == ([1.3], 2)
    ci_solve(1.4)
    ci_solve(1.3, "printed")
    assert (calls, len(e1_calls)) == ([1.3, 1.4, 1.3], 6)
    # the layers under the memo are not memoized themselves
    hamiltonian_block(1.3)
    hamiltonian_block(1.3)
    assert (calls, len(e1_calls)) == ([1.3, 1.4, 1.3, 1.3, 1.3], 10)


def test_ci_solution_normalized_and_variational():
    for s in GRID:
        sol = ci_solve(float(s))
        assert sol.c1 ** 2 + sol.c2 ** 2 == pytest.approx(1.0, abs=1e-12)
        assert sol.e_ground < min(sol.e_psi1, sol.e_psi2)
        assert sol.c1 > 0.0 and sol.c2 < 0.0   # h12 > 0, h11 < h22 on this grid


def test_closed_form_squares_match_eigenvector():
    for s in GRID:
        block = hamiltonian_block(float(s))
        sol = solve_block(block)
        t = 2.0 * block.h12 / (block.h11 - block.h22)
        c1_sq = 0.5 + 0.5 / math.sqrt(1.0 + t * t)
        c2_sq = 0.5 - 0.5 / math.sqrt(1.0 + t * t)
        assert sol.c1 ** 2 == pytest.approx(c1_sq, abs=1e-10)
        assert sol.c2 ** 2 == pytest.approx(c2_sq, abs=1e-10)


def test_energy_stationary_at_solution():
    h = 1e-6
    for s in (0.8, 1.67, 5.0):
        block = hamiltonian_block(s)
        sol = solve_block(block)
        omega = math.atan2(sol.c2, sol.c1)
        deriv = (energy_of_angle(block, omega + h) - energy_of_angle(block, omega - h)) / (2 * h)
        assert abs(deriv) < 1e-8


def test_decoupled_block():
    sol = solve_block(HamiltonianBlock(s=1.0, h11=-1.0, h12=0.0, h22=1.0))
    assert (sol.c1, sol.c2) == (1.0, 0.0)
    assert not sol.degenerate


def test_degenerate_block_flagged():
    sol = solve_block(HamiltonianBlock(s=1.0, h11=0.5, h12=0.0, h22=0.5))
    assert (sol.c1, sol.c2) == (1.0, 0.0)
    assert sol.degenerate
    assert sol.e_ground == 0.5


def test_symmetric_mixing_when_diagonal_degenerate():
    sol = solve_block(HamiltonianBlock(s=1.0, h11=0.3, h12=0.2, h22=0.3))
    assert sol.c1 ** 2 == pytest.approx(0.5, abs=1e-14)
    assert sol.c2 ** 2 == pytest.approx(0.5, abs=1e-14)


def test_ground_eigenvector_sign_follows_coupling():
    up = solve_block(HamiltonianBlock(s=1.0, h11=0.0, h12=0.3, h22=1.0))
    dn = solve_block(HamiltonianBlock(s=1.0, h11=0.0, h12=-0.3, h22=1.0))
    assert up.c2 < 0.0 < dn.c2
    assert up.c2 * 0.3 <= 0.0 and dn.c2 * (-0.3) <= 0.0


def test_block_holds_one_coupling_and_no_label():
    # a separate h21 was stored and never read, so a block with h21 = -5
    # against h12 = 0.3 and an unknown variant label solved as the symmetric
    # one; a block now holds H12 once and can only be symmetric
    with pytest.raises(TypeError):
        HamiltonianBlock(s=1.0, h11=0.0, h12=0.3, h21=-5.0, h22=1.0, variant="nonsense")


# (h11, h12, h22): decoupled, degenerate, symmetric mixing, both coupling
# signs, H11 above H22, and decoupled with H11 above H22 for both signed
# zeros: atan2 = +-pi there, the only place c1 = cos(phi) could reach 0
HAND_BLOCKS = [(-1.0, 0.0, 1.0), (0.5, 0.0, 0.5), (0.3, 0.2, 0.3), (0.0, 0.3, 1.0),
               (0.0, -0.3, 1.0), (1.0, 0.3, 0.0), (-0.4, 1e-9, 2.0),
               (1.0, 0.0, -1.0), (1.0, -0.0, -1.0)]


def test_solve_table_matches_solve_block_elementwise():
    h11, h12, h22 = (np.array(col) for col in zip(*HAND_BLOCKS))
    s = np.arange(1.0, len(HAND_BLOCKS) + 1.0)
    # the array solve of ci_table, on blocks no distance gives
    table = h2ent.ci._solve(HamiltonianBlock(s=s, h11=h11, h12=h12, h22=h22), numpy_xp())
    for i, (a, b, d) in enumerate(HAND_BLOCKS):
        sol = solve_block(HamiltonianBlock(s=s[i], h11=a, h12=b, h22=d))
        # c1 > 0 (6.1e-17 at atan2 = +-pi) and c2 takes the sign opposite to
        # H12's, signed zeros included: -1 for +0.0, +1 for -0.0
        for c1, c2 in ((table.c1[i], table.c2[i]), (sol.c1, sol.c2)):
            assert c1 > 0.0
            assert math.copysign(1.0, c2) == -math.copysign(1.0, b)
        assert table.degenerate[i] == sol.degenerate
        for field in ("c1", "c2", "e_ground", "e_psi1", "e_psi2"):
            assert getattr(table, field)[i] == pytest.approx(getattr(sol, field), abs=1e-15)


def test_ci_table_matches_ci_solve_on_grid():
    for variant in ("corrected", "printed"):
        block = _block_of(integral_table(GRID), variant)
        table = ci_table(GRID, variant)
        for i, s in enumerate(GRID.tolist()):
            ref = hamiltonian_block(s, variant)
            for field in ("h11", "h12", "h22"):
                assert getattr(block, field)[i] == pytest.approx(getattr(ref, field),
                                                                 rel=1e-12, abs=1e-13)
            sol = ci_solve(s, variant)
            assert table.c1[i] == pytest.approx(sol.c1, abs=1e-12)
            assert table.c2[i] == pytest.approx(sol.c2, abs=1e-12)
            assert table.e_ground[i] == pytest.approx(sol.e_ground, rel=1e-12, abs=1e-13)
    with pytest.raises(ValueError, match="unknown h22 variant 'typo'"):
        ci_table(GRID, "typo")


def _closed_form_misses(block, sol):
    # the paper's c1^2 and c2^2 against the solution's squares where
    # H11 < H22, the formula's domain; 4.5e-16 is 2 ulp of 1
    h11, h12, h22, c1, c2 = (np.atleast_1d(x) for x in
                             (block.h11, block.h12, block.h22, sol.c1, sol.c2))
    lower = h11 < h22
    t = 2.0 * h12[lower] / (h11[lower] - h22[lower])
    half = 0.5 / np.sqrt(1.0 + t * t)
    return np.count_nonzero((np.abs(0.5 + half - c1[lower] ** 2) > 4.5e-16)
                            | (np.abs(0.5 - half - c2[lower] ** 2) > 4.5e-16))


@pytest.mark.parametrize("variant", ["corrected", "printed"])
def test_closed_form_squares_match_the_solution_to_2_ulp(variant):
    for s in DISTANCES:
        block = hamiltonian_block(s, variant)
        assert _closed_form_misses(block, solve_block(block)) == 0, s
    grid = np.linspace(0.305, 19.995, 50_000)
    block = _block_of(integral_table(grid), variant)
    assert np.all(block.h11 < block.h22)
    assert _closed_form_misses(block, ci_table(grid, variant)) == 0
    for a, b, d in HAND_BLOCKS:
        if a < d:
            block = HamiltonianBlock(s=1.0, h11=a, h12=b, h22=d)
            assert _closed_form_misses(block, solve_block(block)) == 0, (a, b, d)


def test_dissociation_limit():
    sol = ci_solve(20.0)
    assert sol.e_ground - 2.0 * E1S == pytest.approx(0.0, abs=2e-3)
    assert sol.c1 ** 2 == pytest.approx(0.5, abs=1e-3)
    assert sol.c2 ** 2 == pytest.approx(0.5, abs=1e-3)


def test_equilibrium_numbers():
    # frozen values of this model at s = 1.67 (corrected variant)
    sol = ci_solve(1.67)
    assert (sol.e_ground - 2.0 * E1S) * 2.0 == pytest.approx(-0.23729970736710637, abs=1e-12)
    assert sol.c2 ** 2 == pytest.approx(0.019094376129162444, abs=1e-12)


def test_w_from_ci_single_configuration():
    w = w_from_ci(1.0, 0.0)
    assert w.w[0, 1] == w.w[2, 3] == w.w[0, 3] == 0.25
    assert w.w[1, 2] == -0.25
    assert w.w[0, 2] == w.w[1, 3] == 0.0
    assert concurrence4(w) == pytest.approx(0.0, abs=1e-15)


def test_w_from_ci_symmetric_mixture():
    w = w_from_ci(SQ2, SQ2)
    assert w.w[0, 1] == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), abs=1e-15)
    assert w.w[0, 3] == pytest.approx(0.0, abs=1e-15)
    assert w.w[1, 2] == pytest.approx(0.0, abs=1e-15)
    assert concurrence4(w) == pytest.approx(1.0, abs=1e-14)


def test_w_from_ci_rejects_unnormalized():
    with pytest.raises(ValueError):
        w_from_ci(1.0, 0.5)


def test_w_from_ci_rejects_nan():
    with pytest.raises(ValueError, match="w_from_ci"):
        w_from_ci(math.nan, 1.0)


def test_concurrence_chain_identity(rng):
    for _ in range(100):
        th = rng.uniform(0.0, 2.0 * math.pi)
        c1, c2 = math.cos(th), math.sin(th)
        w = w_from_ci(c1, c2)
        z = slater_decompose(w).z
        target = 2.0 * abs(c1 * c2)
        assert concurrence4(w) == pytest.approx(target, abs=1e-12)
        assert 8.0 * z[0] * z[1] == pytest.approx(target, abs=1e-12)
        assert np.allclose(np.sort(z)[::-1],
                           sorted([abs(c1) / 2.0, abs(c2) / 2.0], reverse=True),
                           atol=1e-12)


def test_ground_concurrence_values():
    assert ground_concurrence(1.0, 0.0) == 0.0
    assert ground_concurrence(SQ2, -SQ2) == pytest.approx(1.0, abs=1e-14)


def test_ground_entropy_values_and_identity(rng):
    assert ground_entropy(1.0, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert ground_entropy(SQ2, SQ2) == pytest.approx(2.0, abs=1e-14)
    for _ in range(25):
        th = rng.uniform(0.0, 2.0 * math.pi)
        c1, c2 = math.cos(th), math.sin(th)
        via_spectrum = von_neumann_entropy(slater_decompose(w_from_ci(c1, c2)))
        assert ground_entropy(c1, c2) == pytest.approx(via_spectrum, abs=1e-10)
        assert ground_entropy(c1, c2) == pytest.approx(
            1.0 + binary_entropy(c1 * c1), abs=1e-14)


def test_ground_entropy_is_one_formula_on_both_paths():
    # the scalar record and the array table share _ground_entropy; numpy's
    # log2 can differ from math.log2 by an ulp (about 0.2% of arguments),
    # which none of these points meets
    c1 = [0.0, SQ2, 1.0, 0.1, 0.3, 0.6, 0.8, 0.95, 0.999, -0.5]
    table = h2ent.ci._ground_entropy(np.array(c1), numpy_xp())
    scalar = [h2ent.ci._ground_entropy(x, MATH_XP) for x in c1]
    assert table.tolist() == scalar
    assert scalar[:3] == [1.0, 2.0, 1.0]
    assert scalar[3:] == [ground_entropy(x, math.sqrt(1.0 - x * x)) for x in c1[3:]]


def test_ground_measures_reject_unnormalized():
    with pytest.raises(ValueError):
        ground_concurrence(1.0, 1.0)
    with pytest.raises(ValueError):
        ground_entropy(0.2, 0.2)


COEFFICIENT_FUNCTIONS = {"w_from_ci": w_from_ci, "ground_concurrence": ground_concurrence,
                         "ground_entropy": ground_entropy}


@pytest.mark.parametrize("name", sorted(COEFFICIENT_FUNCTIONS))
@pytest.mark.parametrize("c1, c2", [(True, False), (0.6 + 0j, 0.8), (np.complex128(0.6), 0.8),
                                    (0.6, np.complex64(0.8)), (np.True_, 0.0), ("0.6", 0.8)])
def test_coefficient_functions_refuse_non_real_coefficients(name, c1, c2):
    # True, False made a state; 0.6+0j gave a concurrence of 0.96, numpy's
    # complex an entropy of (1.94+0j), and w_from_ci a bare TypeError
    with pytest.raises(ValueError, match=rf"^{name} requires real c1 and c2, got "):
        COEFFICIENT_FUNCTIONS[name](c1, c2)


@pytest.mark.parametrize("name", sorted(COEFFICIENT_FUNCTIONS))
@pytest.mark.parametrize("big", BEYOND_FLOAT)
def test_coefficient_functions_refuse_reals_past_the_float_range(name, big):
    # 10**400 raised an OverflowError
    for c1, c2 in ((big, 0.0), (0.6, big)):
        with pytest.raises(ValueError, match=rf"^{name} requires c1\^2 \+ c2\^2 = 1, got inf$"):
            COEFFICIENT_FUNCTIONS[name](c1, c2)


def test_coefficient_functions_take_numpy_floats():
    c1, c2 = np.float64(0.6), np.float64(0.8)
    assert ground_concurrence(c1, c2) == ground_concurrence(0.6, 0.8)
    assert ground_entropy(c1, c2) == ground_entropy(0.6, 0.8)
    assert np.array_equal(w_from_ci(c1, c2).w, w_from_ci(0.6, 0.8).w)


@pytest.mark.parametrize("name", sorted(COEFFICIENT_FUNCTIONS))
@pytest.mark.parametrize("c1, c2", [(0.6, np.float32(0.8)), (np.float32(0.6), np.float32(0.8))])
def test_coefficient_functions_check_float32_at_float64_precision(name, c1, c2):
    # float32(0.8) is 0.800000011920929: c1^2 + c2^2 is 1 + 1.9e-8 in float64,
    # as for ground_concurrence(0.6, 0.80000001), but rounds to 1 in float32,
    # which gave a concurrence of float32(0.96000004)
    with pytest.raises(ValueError, match=rf"^{name} requires c1\^2 \+ c2\^2 = 1, got "):
        COEFFICIENT_FUNCTIONS[name](c1, c2)


def test_ground_concurrence_rejects_nan():
    with pytest.raises(ValueError, match="ground_concurrence"):
        ground_concurrence(math.nan, math.nan)
    with pytest.raises(ValueError, match="ground_entropy"):
        ground_entropy(math.nan, 1.0)
