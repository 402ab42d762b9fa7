import copy
import dataclasses
import math
import pickle
import warnings

import mpmath
import numpy as np
import pytest

from conftest import mode_rotate, random_antisym, random_unitary
from h2ent.ci import H22_VARIANTS, ci_solve, w_from_ci
from h2ent.entanglement import (NORM_TOL, AntisymW, SlaterSpectrum, concurrence4, make_antisym,
                                reduced_density, slater_decompose, slater_rank,
                                von_neumann_entropy)
from h2ent.specfun import binary_entropy
from test_scalar_golden import DISTANCES

INV_SQRT8 = 1.0 / (2.0 * math.sqrt(2.0))


def norm2(w):
    return float(np.sum(np.abs(w.w) ** 2))


def test_make_antisym_single_pair():
    w = make_antisym([1.0, 0, 0, 0, 0, 0])
    assert w.w[0, 1] == 0.5
    assert w.w[1, 0] == -0.5
    assert norm2(w) == pytest.approx(0.5, abs=1e-15)


def test_make_antisym_two_pairs_uniform_rescale():
    w = make_antisym([1.0, 0, 0, 0, 0, 1.0])
    assert w.w[0, 1] == pytest.approx(INV_SQRT8, abs=1e-15)
    assert w.w[2, 3] == pytest.approx(INV_SQRT8, abs=1e-15)


def test_make_antisym_preserves_phase():
    w = make_antisym([5.0j])
    assert w.w[0, 1] == pytest.approx(0.5j, abs=1e-15)


def test_make_antisym_rejects_bad_input():
    with pytest.raises(ValueError, match="^all-zero"):
        make_antisym([0.0] * 6)
    # three entries are the upper triangle of a 3x3 w
    with pytest.raises(ValueError, match="^single-particle dimension must be even and >= 2, "
                                         "got 3$"):
        make_antisym([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=r"^make_antisym requires n\(n-1\)/2 entries, got 2$"):
        make_antisym([1.0, 2.0])


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_make_antisym_accepts_finite_entries_whose_squares_leave_the_float_range(scale):
    # sum |w_ij|^2 overflowed to inf (refused as non-finite) or underflowed
    # to 0 (refused as all-zero)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = make_antisym([scale, 0, 0, 0, 0, scale])
    assert w.w.tobytes() == make_antisym([1, 0, 0, 0, 0, 1]).w.tobytes()


def test_make_antisym_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="make_antisym"):
        make_antisym([math.nan] * 6)
    with pytest.raises(ValueError, match="make_antisym"):
        make_antisym([math.inf, 0, 0, 0, 0, 0])


def test_concurrence_of_single_slater_determinant_is_zero():
    w = make_antisym([1.0, 0, 0, 0, 0, 0])
    assert concurrence4(w) == pytest.approx(0.0, abs=1e-15)
    assert slater_rank(slater_decompose(w), 1e-10) == 1


def test_concurrence_of_maximally_entangled_state_is_one():
    w = make_antisym([1.0, 0, 0, 0, 0, 1.0])
    assert concurrence4(w) == pytest.approx(1.0, abs=1e-14)


def test_concurrence_requires_dimension_four():
    with pytest.raises(ValueError):
        concurrence4(make_antisym([1.0]))
    with pytest.raises(ValueError):
        concurrence4(make_antisym([1.0] + [0.0] * 14))


def test_slater_decompose_block_state():
    w = make_antisym([1.0, 0, 0, 0, 0, 0])
    spec = slater_decompose(w)
    assert spec.z[0] == pytest.approx(0.5, abs=1e-14)
    assert spec.z[1] == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_slater_spectrum_normalization(rng, n):
    for _ in range(20):
        spec = slater_decompose(random_antisym(rng, n))
        assert len(spec.z) <= n // 2
        assert float(np.sum(spec.z ** 2)) == pytest.approx(0.25, abs=1e-12)


def test_slater_decompose_surfaces_pairing_violation():
    # a non-antisymmetric matrix has no doubly degenerate w^dag w spectrum;
    # it is refused when made, before the eigensolver
    w = np.zeros((4, 4), dtype=complex)
    w[0, 1], w[1, 0] = 0.7, -0.1
    w *= math.sqrt(0.5 / np.sum(np.abs(w) ** 2))
    with pytest.raises(ValueError, match="^AntisymW requires an antisymmetric w"):
        slater_decompose(AntisymW(w))


def test_slater_decompose_surfaces_eigensolver_failure(monkeypatch):
    # a NaN w is refused when made, so a failing eigensolver is simulated;
    # n >= 6 takes the eigensolver, n = 4 the closed form
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        slater_decompose(make_antisym([1.0] + [0.0] * 13 + [1.0]))


def test_slater_decompose_of_four_modes_calls_no_eigensolver(monkeypatch, rng):
    def fail(a):
        raise AssertionError("eigvalsh called for n = 4")
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    states = [random_antisym(rng, 4) for _ in range(20)]
    states += [w_from_ci(sol.c1, sol.c2) for sol in map(ci_solve, (0.01, 1.67, 650.0))]
    states += [make_antisym([1.0, 0, 0, 0, 0, 0]), make_antisym([1.0, 0, 0, 0, 0, 1.0])]
    for w in states:
        assert slater_decompose(w).n == 4


def _mp_slater(w):
    """Slater coefficients of w from 40-digit mpmath: the eigenvalues of
    w^dag w, sorted descending, paired, averaged and square-rooted."""
    with mpmath.workdps(40):
        m = mpmath.matrix([[mpmath.mpc(v) for v in row] for row in w.w.tolist()])
        e = mpmath.eighe(m.H * m, eigvals_only=True)
        evals = sorted((e[i] for i in range(e.rows)), reverse=True)
        return [mpmath.sqrt(max((a + b) / 2, 0)) for a, b in zip(evals[::2], evals[1::2])]


def _four_mode_states(source):
    if source == "random":
        rng = np.random.default_rng(20261021)
        return [random_antisym(rng, 4) for _ in range(300)]
    return [w_from_ci(sol.c1, sol.c2) for variant in H22_VARIANTS
            for s in np.logspace(-2.0, math.log10(650.0), 150).tolist()
            for sol in [ci_solve(s, variant)]]


@pytest.mark.parametrize("source", ["random", "ci"])
def test_slater_decompose_of_four_modes_is_within_4e_16_of_mpmath(source):
    # eigvalsh was up to 7.0e-16 off on these states, and z1 - z2 taken as
    # sqrt(1/4 - 2|Pf|), which cancels as C -> 1, up to 3.7e-9
    worst = 0.0
    for w in _four_mode_states(source):
        got = slater_decompose(w).z.tolist()
        want = _mp_slater(w)
        worst = max(worst, max(abs(float(g - t)) for g, t in zip(got, want, strict=True)))
    assert worst <= 4e-16


def test_slater_decompose_of_a_ci_state_is_half_its_coefficients():
    # w_from_ci's canonical blocks carry c1 and c2: z = (|c1|, |c2|) / 2,
    # sorted; maximally entangled at c1 = c2 (theta = pi/4)
    pairs = [(sol.c1, sol.c2) for variant in H22_VARIANTS for s in DISTANCES
             for sol in [ci_solve(s, variant)]]
    pairs += [(math.cos(t), math.sin(t)) for t in np.linspace(0.0, 2.0 * math.pi, 401).tolist()]
    for c1, c2 in pairs:
        z = slater_decompose(w_from_ci(c1, c2)).z.tolist()
        want = (max(abs(c1), abs(c2)) / 2.0, min(abs(c1), abs(c2)) / 2.0)
        assert abs(z[0] - want[0]) <= 1e-15 and abs(z[1] - want[1]) <= 1e-15, (c1, c2, z)


def test_slater_decompose_keeps_a_small_coefficient_to_its_last_bits():
    # a block state has z = (|w12|, |w34|); z2 = (A - B) / 2 instead of
    # |Pf| / z1 was off by 5.6e-17 absolute, 3.3e-5 relative
    for t in np.logspace(-12.0, 0.0, 97).tolist():
        for phase in (1.0, 1j, -1.0, (1.0 + 1j) / math.sqrt(2.0)):
            w = make_antisym([1.0, 0, 0, 0, 0, t * phase])
            with mpmath.workdps(40):
                want = [abs(mpmath.mpc(w.w[0, 1])), abs(mpmath.mpc(w.w[2, 3]))]
            got = slater_decompose(w).z.tolist()
            assert all(abs(float(g / x - 1)) <= 4e-16 for g, x in zip(got, want)), (t, phase)


def test_slater_decompose_keeps_a_maximally_entangled_spectrum_sorted(rng):
    # z1 = z2 = 1/sqrt(8): the quotient |Pf| / z1 can round one bit above z1
    # (in about 1 of 12 rotated states), which SlaterSpectrum would refuse
    base = make_antisym([1.0, 0, 0, 0, 0, 1.0])
    for _ in range(300):
        z = slater_decompose(mode_rotate(base, random_unitary(rng, 4))).z.tolist()
        assert z[0] >= z[1] and z[0] - z[1] <= 1e-15
        assert abs(z[0] - INV_SQRT8) <= 1e-15


@pytest.mark.parametrize("norm_sign", [1.0, -1.0])
@pytest.mark.parametrize("sym_sign", [1.0, -1.0])
@pytest.mark.parametrize("n", [4, 6])
def test_slater_decompose_accepts_every_state_just_inside_the_tolerances(rng, n, norm_sign,
                                                                         sym_sign):
    # sum |w_ij|^2 off 1/2 and |w + w^T|_F each 0.99 NORM_TOL, the symmetric
    # part along the upper triangle, where it moves sum z_k^2 the most
    for _ in range(20):
        w = random_antisym(rng, n).w
        sym = np.triu(w) - np.tril(w)           # symmetric, as w's upper triangle
        sym /= np.linalg.norm(sym + sym.T)
        shifted = w + sym_sign * 0.99 * NORM_TOL * sym
        shifted *= math.sqrt((0.5 + norm_sign * 0.99 * NORM_TOL) / np.vdot(shifted, shifted).real)
        aw = AntisymW(shifted)
        spec = slater_decompose(aw)
        assert spec.n == n
        assert float(np.sum(spec.z ** 2)) == pytest.approx(0.25, abs=NORM_TOL)


def test_concurrence_rejects_nan():
    with pytest.raises(ValueError, match=r"^AntisymW requires a normalized w, "
                                         r"got sum \|w_ij\|\^2 = nan$"):
        concurrence4(AntisymW(np.full((4, 4), np.nan, dtype=complex)))


def test_concurrence_refuses_an_unnormalized_state():
    # three times a normalized state gave C = 9, outside [0, 1]
    w = make_antisym([1.0, 0, 0, 0, 0, 1.0])
    with pytest.raises(ValueError, match=r"^AntisymW requires a normalized w"):
        concurrence4(AntisymW(3.0 * w.w))


# the two tests below are parametrized by the measures that read an
# AntisymW: the state is refused when it is made, so none of them sees it
@pytest.mark.parametrize("measure", [concurrence4, slater_decompose, reduced_density])
def test_antisym_measures_refuse_a_matrix_that_is_not_antisymmetric(measure):
    # normalized, but w^T != -w: concurrence4 gave C = 1.815, outside [0, 1],
    # and reduced_density a unit-trace matrix
    w = np.zeros((4, 4), dtype=complex)
    w[0, 1], w[1, 0], w[2, 3], w[3, 2] = 0.7, -0.1, 0.7, 0.3
    w *= math.sqrt(0.5 / np.sum(np.abs(w) ** 2))
    with pytest.raises(ValueError, match=r"^AntisymW requires an antisymmetric w, "
                                         r"got \|w \+ w\^T\|_F = "):
        measure(AntisymW(w))


@pytest.mark.parametrize("measure", [concurrence4, slater_decompose, reduced_density])
def test_antisym_measures_bound_the_symmetric_part(rng, measure):
    # |w + w^T|_F <= NORM_TOL = 1e-10, so a symmetric part (w + w^T)/2 of
    # Frobenius norm 2e-10 is refused and one of 2e-11 accepted
    w = random_antisym(rng, 4)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    sym = (m + m.T) / np.linalg.norm(m + m.T)
    with pytest.raises(ValueError, match="^AntisymW requires an antisymmetric w"):
        measure(AntisymW(w.w + 2e-10 * sym))
    measure(AntisymW(w.w + 2e-11 * sym))


def test_antisymw_refuses_an_odd_dimension():
    # a normalized antisymmetric 3x3 w: slater_decompose raised zip()'s bare
    # ValueError, and reduced_density returned a unit-trace matrix
    w = np.zeros((3, 3), dtype=complex)
    w[0, 1], w[1, 0] = 0.5, -0.5
    with pytest.raises(ValueError, match="^single-particle dimension must be even and >= 2, "
                                         "got 3$"):
        AntisymW(w)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_the_dimension_is_derived_from_the_state(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    entries = np.array([m[i, j] for i in range(n) for j in range(i + 1, n)])
    aw = make_antisym(entries)
    spec = slater_decompose(aw)
    # from the entries, from w and from z, a Python int each time: a numpy
    # integer given as n was stored as it came
    for value in (aw, AntisymW(aw.w), spec, SlaterSpectrum(spec.z)):
        assert type(value.n) is int and value.n == n
    assert len(spec.z) == n // 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        aw.n = n + 2


@pytest.mark.parametrize("w", [np.zeros((4, 2)), np.zeros(4), np.zeros((2, 2, 2)),
                               np.array(0.5)])
def test_antisymw_refuses_a_w_that_is_not_square(w):
    with pytest.raises(ValueError, match=r"^AntisymW requires a square w, got shape \("):
        AntisymW(w)


def test_antisymw_refuses_an_empty_w():
    with pytest.raises(ValueError, match="^single-particle dimension must be even and >= 2, "
                                         "got 0$"):
        AntisymW(np.zeros((0, 0)))


@pytest.mark.parametrize("count", [4, 5, 7, 14])
def test_make_antisym_refuses_an_entry_count_that_is_not_triangular(count):
    with pytest.raises(ValueError, match=rf"^make_antisym requires n\(n-1\)/2 entries, "
                                         rf"got {count}$"):
        make_antisym([1.0] * count)


@pytest.mark.parametrize("make, value", [
    (AntisymW, np.array([[0.0, 0.5], [-0.5, 0.0]])),
    (SlaterSpectrum, [0.5]),
    (make_antisym, [1.0]),
])
def test_the_dimension_is_not_an_argument(make, value):
    with pytest.raises(TypeError):
        make(value, n=2)
    with pytest.raises(TypeError):
        make(value, 2)


def test_antisymw_keeps_a_read_only_copy():
    given = make_antisym([1.0, 0, 0, 0, 0, 1.0]).w.copy()
    aw = AntisymW(given)
    with pytest.raises(ValueError, match="read-only"):
        aw.w[0, 1] = 5.0
    given[0, 1] = 5.0
    assert not np.shares_memory(aw.w, given)
    assert aw.w[0, 1] == pytest.approx(INV_SQRT8, abs=1e-15)
    assert concurrence4(aw) == pytest.approx(1.0, abs=1e-14)


def test_slater_spectrum_keeps_a_read_only_copy():
    given = np.array([0.5, 0.0])
    spec = SlaterSpectrum(given)
    with pytest.raises(ValueError, match="read-only"):
        spec.z[1] = 0.5
    given[1] = 0.5
    assert not np.shares_memory(spec.z, given)
    assert von_neumann_entropy(spec) == pytest.approx(1.0, abs=1e-14)


COPIES = {"pickle": lambda x: pickle.loads(pickle.dumps(x)), "copy": copy.copy,
          "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("how", sorted(COPIES))
def test_copies_are_checked_and_read_only(how):
    # pickle and deepcopy gave a writable array, and copy.copy shared it
    aw = make_antisym([1.0, 0.5j, 0, 0, -0.25, 1.0])
    spec = slater_decompose(aw)
    for value, field in ((aw, "w"), (spec, "z")):
        dup = COPIES[how](value)
        assert type(dup) is type(value) and type(dup.n) is int and dup.n == value.n
        array, original = getattr(dup, field), getattr(value, field)
        assert not array.flags.writeable and not np.shares_memory(array, original)
        assert array.tobytes() == original.tobytes() and array.dtype == original.dtype
    with pytest.raises(ValueError, match="read-only"):
        COPIES[how](aw).w[0, 1] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        COPIES[how](spec).z[1] = 0.5


@pytest.mark.parametrize("z, message", [
    ([-0.5], "z_k >= 0 sorted descending"),   # Slater rank 0
    ([0.0, 0.5], "sorted descending"),
    ([[0.5, 0.0]], "requires a 1-D z"),
    (0.5, "requires a 1-D z"),
    ([0.5 + 0j, 0.0], "real Slater coefficients"),
    (np.array([0.5 + 1e-3j, 0.0]), "real Slater coefficients"),
])
def test_slater_spectrum_refuses_what_it_does_not_hold(z, message):
    # a z of the wrong shape and a list of complex raised a TypeError; the
    # others were accepted, the complex array with its imaginary part dropped
    with pytest.raises(ValueError, match=message):
        SlaterSpectrum(z)


def test_slater_rank_rejects_nan():
    with pytest.raises(ValueError, match="^SlaterSpectrum requires finite Slater coefficients"):
        slater_rank(SlaterSpectrum(np.array([np.nan, np.nan])))


def test_slater_rank_counts_above_tolerance():
    spec = SlaterSpectrum(np.array([0.5, 0.0]))
    assert slater_rank(spec, 1e-10) == 1
    spec2 = SlaterSpectrum(np.array([0.49, math.sqrt(0.25 - 0.49 ** 2)]))
    assert slater_rank(spec2, 1e-6) == 2
    with pytest.raises(ValueError):
        slater_rank(spec, 0.0)


def test_reduced_density_rejects_nan():
    with pytest.raises(ValueError, match="^AntisymW requires a normalized w"):
        reduced_density(AntisymW(np.full((4, 4), np.nan, dtype=complex)))


def test_reduced_density_of_block_state():
    w = make_antisym([1.0, 0, 0, 0, 0, 0])
    rho = reduced_density(w)
    assert np.allclose(rho, np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-14)


def test_reduced_density_unit_trace_and_paired_eigenvalues(rng):
    for _ in range(20):
        w = random_antisym(rng, 4)
        rho = reduced_density(w)
        assert np.allclose(rho, rho.conj().T, atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        evals = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert np.all(evals >= -1e-12)
        z = slater_decompose(w).z
        expect = np.sort(np.repeat(2.0 * z ** 2, 2))[::-1]
        assert np.allclose(evals, expect, atol=1e-12)


def test_entropy_of_single_determinant_is_one():
    spec = SlaterSpectrum(np.array([0.5, 0.0]))
    assert von_neumann_entropy(spec) == pytest.approx(1.0, abs=1e-14)


def test_entropy_of_maximally_mixed_state_is_two():
    spec = SlaterSpectrum(np.array([INV_SQRT8, INV_SQRT8]))
    assert von_neumann_entropy(spec) == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("z", [[math.nan, math.nan], [0.5, math.nan], [math.inf, 0.0]])
def test_entropy_rejects_non_finite_coefficients(z):
    with pytest.raises(ValueError, match="^SlaterSpectrum requires finite Slater coefficients"):
        von_neumann_entropy(SlaterSpectrum(z))


def test_entropy_rejects_unnormalized_spectrum():
    # sum z_k^2 = 1/2, not 1/4: the formula alone would return 3.0
    with pytest.raises(ValueError, match=r"^SlaterSpectrum requires finite Slater coefficients "
                                         r"with sum z_k\^2 = 1/4, got 0\.5 from z = "):
        von_neumann_entropy(SlaterSpectrum(np.array([0.5, 0.5])))


def test_entropy_reduces_to_binary_entropy_for_two_blocks():
    for c1sq in np.linspace(1e-6, 1.0 - 1e-6, 23):
        z = np.array([math.sqrt(c1sq) / 2.0, math.sqrt(1.0 - c1sq) / 2.0])
        spec = SlaterSpectrum(np.sort(z)[::-1])
        assert von_neumann_entropy(spec) == pytest.approx(
            1.0 + binary_entropy(c1sq), abs=1e-10)


def test_entropy_via_density_matrix_matches_spectrum(rng):
    for _ in range(15):
        w = random_antisym(rng, 4)
        spec = slater_decompose(w)
        rho = reduced_density(w)
        evals = np.linalg.eigvalsh(rho)
        evals = evals[evals > 1e-14]
        s_rho = float(-np.sum(evals * np.log2(evals)))
        assert s_rho == pytest.approx(von_neumann_entropy(spec), abs=1e-10)


def test_measures_invariant_under_mode_rotation(rng):
    for _ in range(20):
        w = random_antisym(rng, 4)
        u = random_unitary(rng, 4)
        wp = mode_rotate(w, u)
        assert norm2(wp) == pytest.approx(0.5, abs=1e-12)
        assert concurrence4(wp) == pytest.approx(concurrence4(w), abs=1e-10)
        assert np.allclose(slater_decompose(wp).z, slater_decompose(w).z, atol=1e-10)


def test_concurrence_equals_8_z1z2_for_real_block_family(rng):
    for _ in range(30):
        th = rng.uniform(0.0, 2.0 * math.pi)
        c1, c2 = math.cos(th), math.sin(th)
        entries = [(c1 + c2) / 4, 0, (c1 - c2) / 4, -(c1 - c2) / 4, 0, (c1 + c2) / 4]
        w = make_antisym(entries)
        z = slater_decompose(w).z
        assert concurrence4(w) == pytest.approx(8.0 * z[0] * z[1], abs=1e-12)


def test_rotated_single_determinants_have_zero_concurrence(rng):
    for _ in range(30):
        base = make_antisym([1.0, 0, 0, 0, 0, 0])
        wp = mode_rotate(base, random_unitary(rng, 4))
        assert concurrence4(wp) < 1e-8
        assert slater_rank(slater_decompose(wp), 1e-6) == 1
