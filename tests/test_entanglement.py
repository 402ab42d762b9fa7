import copy
import dataclasses
import math
import pickle
import warnings
from decimal import Decimal

import mpmath
import numpy as np
import pytest

from conftest import mode_rotate, random_antisym, random_unitary
from h2ent.ci import H22_VARIANTS, ci_solve, w_from_ci
from h2ent.entanglement import (NORM_TOL, AntisymW, SlaterSpectrum, _matrix, concurrence4,
                                make_antisym, reduced_density, slater_decompose, slater_rank,
                                von_neumann_entropy)
from h2ent.specfun import binary_entropy
from test_cli import run_python
from test_scalar_golden import DISTANCES

INV_SQRT8 = 1.0 / (2.0 * math.sqrt(2.0))


def matrix(w):
    return _matrix(w.upper, w.n)


def norm2(w):
    return float(np.sum(np.abs(matrix(w)) ** 2))


def test_make_antisym_single_pair():
    w = make_antisym([1.0, 0, 0, 0, 0, 0])
    assert w.upper[0] == 0.5
    assert matrix(w)[1, 0] == -0.5
    assert norm2(w) == pytest.approx(0.5, abs=1e-15)


def test_make_antisym_two_pairs_uniform_rescale():
    w = make_antisym([1.0, 0, 0, 0, 0, 1.0])
    assert w.upper[0] == pytest.approx(INV_SQRT8, abs=1e-15)
    assert w.upper[5] == pytest.approx(INV_SQRT8, abs=1e-15)


def test_make_antisym_preserves_phase():
    w = make_antisym([5.0j])
    assert w.upper[0] == pytest.approx(0.5j, abs=1e-15)


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
    assert matrix(w).tobytes() == matrix(make_antisym([1, 0, 0, 0, 0, 1])).tobytes()


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
        assert float(np.sum(np.square(spec.z))) == pytest.approx(0.25, abs=1e-12)


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
        m = mpmath.matrix([[mpmath.mpc(v) for v in row] for row in matrix(w).tolist()])
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
        got = list(slater_decompose(w).z)
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
        z = list(slater_decompose(w_from_ci(c1, c2)).z)
        want = (max(abs(c1), abs(c2)) / 2.0, min(abs(c1), abs(c2)) / 2.0)
        assert abs(z[0] - want[0]) <= 1e-15 and abs(z[1] - want[1]) <= 1e-15, (c1, c2, z)


def test_slater_decompose_keeps_a_small_coefficient_to_its_last_bits():
    # a block state has z = (|w12|, |w34|); z2 = (A - B) / 2 instead of
    # |Pf| / z1 was off by 5.6e-17 absolute, 3.3e-5 relative
    for t in np.logspace(-12.0, 0.0, 97).tolist():
        for phase in (1.0, 1j, -1.0, (1.0 + 1j) / math.sqrt(2.0)):
            w = make_antisym([1.0, 0, 0, 0, 0, t * phase])
            with mpmath.workdps(40):
                want = [abs(mpmath.mpc(w.upper[0])), abs(mpmath.mpc(w.upper[5]))]
            got = list(slater_decompose(w).z)
            assert all(abs(float(g / x - 1)) <= 4e-16 for g, x in zip(got, want)), (t, phase)


def test_slater_decompose_keeps_a_maximally_entangled_spectrum_sorted(rng):
    # z1 = z2 = 1/sqrt(8): the quotient |Pf| / z1 can round one bit above z1
    # (in about 1 of 12 rotated states), which SlaterSpectrum would refuse
    base = make_antisym([1.0, 0, 0, 0, 0, 1.0])
    for _ in range(300):
        z = list(slater_decompose(mode_rotate(base, random_unitary(rng, 4))).z)
        assert z[0] >= z[1] and z[0] - z[1] <= 1e-15
        assert abs(z[0] - INV_SQRT8) <= 1e-15


@pytest.mark.parametrize("norm_sign", [1.0, -1.0])
@pytest.mark.parametrize("n", [4, 6])
def test_slater_decompose_accepts_every_state_just_inside_the_tolerances(rng, n, norm_sign):
    # sum |w_ij|^2 off 1/2 by 0.99 NORM_TOL
    for _ in range(20):
        upper = np.array(random_antisym(rng, n).upper)
        upper *= math.sqrt((0.5 + norm_sign * 0.99 * NORM_TOL) / (2.0 * np.vdot(upper, upper).real))
        aw = AntisymW(upper)
        spec = slater_decompose(aw)
        assert spec.n == n
        assert float(np.sum(np.square(spec.z))) == pytest.approx(0.25, abs=NORM_TOL)


def test_concurrence_rejects_nan():
    with pytest.raises(ValueError, match=r"^AntisymW requires a normalized w, "
                                         r"got sum \|w_ij\|\^2 = nan$"):
        concurrence4(AntisymW([math.nan] * 6))


def test_concurrence_refuses_an_unnormalized_state():
    # three times a normalized state gave C = 9, outside [0, 1]
    w = make_antisym([1.0, 0, 0, 0, 0, 1.0])
    with pytest.raises(ValueError, match=r"^AntisymW requires a normalized w"):
        concurrence4(AntisymW([3.0 * v for v in w.upper]))


def test_antisymw_refuses_an_odd_dimension():
    # a normalized antisymmetric 3x3 w: slater_decompose raised zip()'s bare
    # ValueError, and reduced_density returned a unit-trace matrix
    with pytest.raises(ValueError, match="^single-particle dimension must be even and >= 2, "
                                         "got 3$"):
        AntisymW([0.5, 0.0, 0.0])


@pytest.mark.parametrize("n", [2, 4, 6])
def test_the_dimension_is_derived_from_the_state(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    entries = np.array([m[i, j] for i in range(n) for j in range(i + 1, n)])
    aw = make_antisym(entries)
    spec = slater_decompose(aw)
    # from the entries, from w and from z, a Python int each time: a numpy
    # integer given as n was stored as it came
    for value in (aw, AntisymW(aw.upper), spec, SlaterSpectrum(spec.z)):
        assert type(value.n) is int and value.n == n
    assert len(spec.z) == n // 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        aw.n = n + 2


@pytest.mark.parametrize("w", [np.zeros((4, 2)), np.zeros(4), np.zeros((2, 2, 2)),
                               np.array(0.5), np.zeros((4, 4)), [[0.0, 0.5], [-0.5, 0.0]]])
def test_antisymw_refuses_a_w_that_is_not_square(w):
    # no array of any shape is taken for a state: the rows of a matrix are not
    # numbers, and four entries are no upper triangle
    with pytest.raises(ValueError, match=r"^AntisymW requires (a sequence of complex w_ij, "
                                         r"i < j, got |n\(n-1\)/2 entries, got 4$)"):
        AntisymW(w)


def test_antisymw_refuses_an_empty_w():
    with pytest.raises(ValueError, match="^single-particle dimension must be even and >= 2, "
                                         "got 0$"):
        AntisymW(())


NOT_COMPLEX = "a sequence of complex w_ij, i < j, got "


@pytest.mark.parametrize("upper, message", [
    ([None] * 6, NOT_COMPLEX),
    ([[0.5]] * 6, NOT_COMPLEX),
    ([object()] * 6, NOT_COMPLEX),
    (0.5, NOT_COMPLEX),
    ([0.5, 0.0], r"n\(n-1\)/2 entries, got 2$"),
    ([0.5] + [0.0] * 13, r"n\(n-1\)/2 entries, got 14$"),
    ([math.inf] + [0.0] * 5, r"a normalized w, got sum \|w_ij\|\^2 = inf$"),
    ([1e200] + [0.0] * 5, r"a normalized w, got sum \|w_ij\|\^2 = inf$"),
])
def test_antisymw_refuses_what_is_not_an_upper_triangle_of_a_state(upper, message):
    # object() raised a TypeError when the state was a matrix; a finite entry
    # past the float range must not raise an OverflowError
    with pytest.raises(ValueError, match="^AntisymW requires " + message):
        AntisymW(upper)


def test_concurrence4_returns_a_python_float():
    # it returned numpy.float64, though annotated float
    for w in (w_from_ci(0.6, 0.8), make_antisym([1.0, 0.5j, 0, 0, -0.25, 1.0])):
        assert type(concurrence4(w)) is float


def test_the_library_sweep_chain_loads_no_numpy():
    # a state holds Python complexes: the scalar chain from a distance to the
    # entropy, and pickling and copying a state, leave numpy unloaded
    code = ("import copy, pickle, sys\n"
            "from h2ent import ci, entanglement as e, scan\n"
            "scan.record_at(1.7)\n"
            "sol = ci.ci_solve(1.7)\n"
            "w = ci.w_from_ci(sol.c1, sol.c2)\n"
            "assert 0.0 < e.concurrence4(w) < 1.0\n"
            "spec = e.slater_decompose(w)\n"
            "assert e.slater_rank(spec) == 2 and 1.0 < e.von_neumann_entropy(spec) < 2.0\n"
            "for dup in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):\n"
            "    assert type(dup.upper) is tuple and dup.upper == w.upper and dup.n == 4\n"
            "    assert all(type(v) is complex for v in dup.upper)\n"
            "    try:\n"
            "        dup.upper[0] = 1.0\n"
            "    except TypeError:\n"
            "        pass\n"
            "    else:\n"
            "        raise AssertionError('upper took an item assignment')\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded'\n")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("count", [4, 5, 7, 14])
def test_make_antisym_refuses_an_entry_count_that_is_not_triangular(count):
    with pytest.raises(ValueError, match=rf"^make_antisym requires n\(n-1\)/2 entries, "
                                         rf"got {count}$"):
        make_antisym([1.0] * count)


@pytest.mark.parametrize("make, value", [
    (AntisymW, [0.5]),
    (SlaterSpectrum, [0.5]),
    (make_antisym, [1.0]),
])
def test_the_dimension_is_not_an_argument(make, value):
    with pytest.raises(TypeError):
        make(value, n=2)
    with pytest.raises(TypeError):
        make(value, 2)


def test_antisymw_keeps_a_read_only_copy():
    given = np.array(make_antisym([1.0, 0, 0, 0, 0, 1.0]).upper)
    aw = AntisymW(given)
    with pytest.raises(TypeError):
        aw.upper[0] = 5.0
    given[0] = 5.0
    assert type(aw.upper) is tuple and all(type(v) is complex for v in aw.upper)
    assert aw.upper[0] == pytest.approx(INV_SQRT8, abs=1e-15)
    assert concurrence4(aw) == pytest.approx(1.0, abs=1e-14)


def test_slater_spectrum_keeps_a_read_only_copy():
    given = np.array([0.5, 0.0])
    spec = SlaterSpectrum(given)
    with pytest.raises(TypeError):
        spec.z[1] = 0.5
    given[1] = 0.5
    assert spec.z == (0.5, 0.0) and all(type(v) is float for v in spec.z)
    assert von_neumann_entropy(spec) == pytest.approx(1.0, abs=1e-14)


def test_a_spectrum_and_its_measures_load_no_numpy():
    # z is a tuple of Python floats: making, reading, pickling and copying a
    # spectrum leave numpy unloaded
    code = ("import copy, pickle, sys\n"
            "from h2ent.entanglement import SlaterSpectrum, slater_rank, von_neumann_entropy\n"
            "spec = SlaterSpectrum([0.5, 0.0])\n"
            "assert slater_rank(spec) == 1 and von_neumann_entropy(spec) == 1.0\n"
            "for dup in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):\n"
            "    assert type(dup) is SlaterSpectrum and dup.z == (0.5, 0.0) and dup.n == 4\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded'\n")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr


COPIES = {"pickle": lambda x: pickle.loads(pickle.dumps(x)), "copy": copy.copy,
          "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("how", sorted(COPIES))
def test_copies_are_checked_and_read_only(how):
    # pickle and deepcopy of a state held as an array gave a writable array,
    # and copy.copy shared it
    aw = make_antisym([1.0, 0.5j, 0, 0, -0.25, 1.0])
    spec = slater_decompose(aw)
    for value in (aw, spec):
        dup = COPIES[how](value)
        assert type(dup) is type(value) and type(dup.n) is int and dup.n == value.n
    dup = COPIES[how](aw)
    assert type(dup.upper) is tuple and dup.upper == aw.upper
    assert all(type(v) is complex for v in dup.upper)
    dup = COPIES[how](spec)
    assert type(dup.z) is tuple and dup.z == spec.z and all(type(v) is float for v in dup.z)
    with pytest.raises(TypeError):
        COPIES[how](aw).upper[0] = 5.0
    with pytest.raises(TypeError):
        COPIES[how](spec).z[1] = 0.5


@pytest.mark.parametrize("z, message", [
    ([-0.5], "z_k >= 0 sorted descending"),   # Slater rank 0
    ([0.0, 0.5], "sorted descending"),
    ([[0.5, 0.0]], "requires a 1-D z"),
    (0.5, "requires a 1-D z"),
    ([0.5 + 0j, 0.0], "real Slater coefficients"),
    (np.array([0.5 + 1e-3j, 0.0]), "real Slater coefficients"),
    ([Decimal("0.5"), Decimal(0)], "real Slater coefficients"),
    ([0.5, False], "real Slater coefficients"),
    (np.array(0.5), "requires a 1-D z"),
])
def test_slater_spectrum_refuses_what_it_does_not_hold(z, message):
    # a z of the wrong shape and a list of complex raised a TypeError; the
    # others were accepted, the complex array with its imaginary part dropped.
    # Decimals and bools were taken through float(), as no other check of a
    # real number in the package takes them
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
        reduced_density(AntisymW([math.nan] * 6))


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
        expect = np.sort(np.repeat(2.0 * np.square(z), 2))[::-1]
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
