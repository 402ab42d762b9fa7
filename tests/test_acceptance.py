"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Tolerances are fixed here, not calibrated.  One criterion encodes an
external target number that this model's own verified closed forms do not
reproduce (C02: equilibrium concurrence 0.2378).  It is asserted as stated
and fails honestly; the oracle-checked computed values are printed alongside.
C06's single-configuration target at s = 20 is 5/16 - 1/(2s), not the
s -> oo limit 5/16, which a correct evaluation reaches only for s > 500.
"""

import math
import time

import numpy as np
import pytest

from conftest import mode_rotate, random_antisym, random_unitary
from h2ent.ci import E1S, ci_solve, ground_concurrence, ground_entropy, w_from_ci
from h2ent.cli import main as cli_main
from h2ent.entanglement import (concurrence4, make_antisym, slater_decompose,
                                slater_rank, von_neumann_entropy)
from h2ent.integrals import coulomb_j, exchange_k, hybrid_l, one_center_m, overlap, \
    jprime, kprime
from h2ent.oracle import mc_two_electron, oracle_e1, quad_one_electron
from h2ent.scan import ScanConfig, ScanRecord, scan_table
from h2ent.specfun import binary_entropy, exp_integral_e1

S_GRID = (0.5, 1.0, 1.67, 2.0, 4.0, 8.0)


def report(cid, ok, detail):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def ci_energy_ry(s):
    sol = ci_solve(s, "corrected")
    return (sol.e_ground - 2.0 * E1S) * 2.0


def golden_minimum(fn, lo, hi, iters=60):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    s = 0.5 * (a + b)
    return s, fn(s)


@pytest.fixture(scope="module")
def equilibrium():
    t0 = time.perf_counter()
    s_star, e_min = golden_minimum(ci_energy_ry, 1.0, 2.5)
    elapsed = time.perf_counter() - t0
    return s_star, e_min, elapsed


def test_c01_equilibrium_energy(equilibrium):
    s_star, e_min, elapsed = equilibrium
    ok = (abs(e_min - (-0.237)) <= 0.010 and abs(s_star - 1.67) <= 0.05
          and elapsed < 1.0)
    assert report("C01", ok,
                  f"min e_ci = {e_min:.6f} Ry at s = {s_star:.4f} "
                  f"(target -0.237 +- 0.010 at 1.67 +- 0.05; {elapsed:.2f} s)")


def test_c02_equilibrium_concurrence(equilibrium):
    s_star, _, _ = equilibrium
    t0 = time.perf_counter()
    sol = ci_solve(s_star, "corrected")
    con = ground_concurrence(sol.c1, sol.c2)
    elapsed = time.perf_counter() - t0
    ok = abs(con - 0.2378) <= 0.010 and elapsed < 1.0
    assert report("C02", ok,
                  f"at the energy minimum s* = {s_star:.4f}: concurrence = "
                  f"{con:.6f}, c2^2 = {sol.c2 ** 2:.6f} "
                  f"(target 0.2378 +- 0.010; {elapsed:.2f} s)")


def test_c03_large_distance_entanglement():
    records = [ScanRecord(*row) for row in scan_table(ScanConfig()).tolist()]
    tail = [r for r in records if r.s >= 8.0]
    worst = min(r.concurrence for r in tail)
    ok = len(tail) > 0 and worst >= 0.98
    assert report("C03", ok,
                  f"min concurrence on grid s >= 8 is {worst:.6f} (target >= 0.98)")


def test_c04_one_center_integral():
    exact = one_center_m() == 0.625
    est = mc_two_electron("m", 1.0, 1_000_000, 42)
    within = abs(est.mean - 0.625) <= 3.0 * est.stderr
    ok = exact and within
    assert report("C04", ok,
                  f"m = {one_center_m()} exact: {exact}; MC {est.mean:.6f} "
                  f"+- {est.stderr:.1e} within 3 sigma: {within}")


def test_c05_integral_oracle_suite():
    closed_quad = {"overlap": overlap, "jprime": jprime, "kprime": kprime}
    closed_mc = {"j": coulomb_j, "k": exchange_k, "l": hybrid_l}
    t0 = time.perf_counter()
    worst_quad = 0.0
    for s in S_GRID:
        for kind, fn in closed_quad.items():
            worst_quad = max(worst_quad, abs(fn(s) - quad_one_electron(kind, s)))
    worst_pull, worst_sigma, seed = 0.0, 0.0, 42
    for s in S_GRID:
        for kind, fn in closed_mc.items():
            seed += 1
            est = mc_two_electron(kind, s, 2_000_000, seed)
            worst_pull = max(worst_pull, abs(fn(s) - est.mean) / est.stderr)
            worst_sigma = max(worst_sigma, est.stderr)
    elapsed = time.perf_counter() - t0
    ok = worst_quad <= 1e-8 and worst_pull <= 3.0 and worst_sigma <= 1e-3 and elapsed < 120.0
    assert report("C05", ok,
                  f"quad |diff| <= {worst_quad:.1e} (tol 1e-8); MC worst pull "
                  f"{worst_pull:.2f} sigma (tol 3), worst sigma {worst_sigma:.1e} "
                  f"(tol 1e-3); {elapsed:.1f} s")


def test_c06_dissociation_properties():
    s = 20.0
    sol = ci_solve(s, "corrected")
    e_ci = sol.e_ground - 2.0 * E1S
    e_psi1 = sol.e_psi1 - 2.0 * E1S
    ok_ci = abs(e_ci) <= 2e-3
    ok_coeffs = abs(sol.c1 ** 2 - 0.5) <= 1e-3 and abs(sol.c2 ** 2 - 0.5) <= 1e-3
    # For large s, S, k', k and l vanish exponentially and j, j' -> 1/s, so
    # H11 - 2 E1s = 1/s - 2(j'+k')/(1+S) + (j+2k+m+4l)/(2(1+S)^2)
    #             -> 1/s - 2/s + (1/s + m)/2 = m/2 - 1/(2s).
    # psi_+^2 is half covalent (energy -> 0) and half ionic H+H- (m - 1/s):
    # the ionic offset m/2 = 5/16 is reached only as s -> oo, 1/(2s) = 0.025
    # below it at s = 20.
    expected_psi1 = 5.0 / 16.0 - 1.0 / (2.0 * s)
    ok_psi1 = abs(e_psi1 - expected_psi1) <= 1e-3
    ok = ok_ci and ok_coeffs and ok_psi1
    assert report("C06", ok,
                  f"e_ci = {e_ci:.2e} Ha (|.| <= 2e-3: {ok_ci}); "
                  f"c1^2 = {sol.c1 ** 2:.6f}, c2^2 = {sol.c2 ** 2:.6f} "
                  f"(0.5 +- 1e-3: {ok_coeffs}); e_psi1 = {e_psi1:.8f} Ha "
                  f"(5/16 - 1/(2s) = {expected_psi1:.8f}, diff "
                  f"{e_psi1 - expected_psi1:.1e}, tol 1e-3: {ok_psi1})")


def test_c07_measure_chain_identity(rng):
    worst_con, worst_ent = 0.0, 0.0
    for _ in range(100):
        th = rng.uniform(0.0, 2.0 * math.pi)
        c1, c2 = math.cos(th), math.sin(th)
        w = w_from_ci(c1, c2)
        z = slater_decompose(w).z
        target = 2.0 * abs(c1 * c2)
        worst_con = max(worst_con,
                        abs(concurrence4(w) - target),
                        abs(8.0 * z[0] * z[1] - target))
        worst_ent = max(worst_ent, abs(von_neumann_entropy(slater_decompose(w))
                                       - (1.0 + binary_entropy(c1 * c1))))
    ok = worst_con <= 1e-12 and worst_ent <= 1e-10
    assert report("C07", ok,
                  f"100 random coefficient pairs: concurrence chain |diff| <= "
                  f"{worst_con:.1e} (tol 1e-12), entropy |diff| <= {worst_ent:.1e} "
                  f"(tol 1e-10)")


def test_c08_closed_form_eigensolver_equivalence():
    from h2ent.ci import hamiltonian_block, solve_block
    worst_sq, worst_deriv = 0.0, 0.0
    h = 1e-6
    records = ScanConfig()
    grid = np.linspace(records.s_min, records.s_max, records.steps)
    for s in grid:
        block = hamiltonian_block(float(s), "corrected")
        sol = solve_block(block)
        t = 2.0 * block.h12 / (block.h11 - block.h22)
        root = math.sqrt(1.0 + t * t)
        worst_sq = max(worst_sq, abs(sol.c1 ** 2 - (0.5 + 0.5 / root)),
                       abs(sol.c2 ** 2 - (0.5 - 0.5 / root)))
        omega = math.atan2(sol.c2, sol.c1)

        def energy(w):
            return (math.cos(w) ** 2 * block.h11
                    + 2.0 * math.cos(w) * math.sin(w) * block.h12
                    + math.sin(w) ** 2 * block.h22)

        worst_deriv = max(worst_deriv,
                          abs((energy(omega + h) - energy(omega - h)) / (2.0 * h)))
    ok = worst_sq <= 1e-10 and worst_deriv <= 1e-8
    assert report("C08", ok,
                  f"grid of {len(grid)}: coefficient squares |diff| <= {worst_sq:.1e} "
                  f"(tol 1e-10), |dE/domega| <= {worst_deriv:.1e} (tol 1e-8)")


def test_c09_fermionic_invariants(rng):
    ok = True
    worst_norm = 0.0
    for _ in range(10_000):
        w = random_antisym(rng, 4)
        con = concurrence4(w)
        spec = slater_decompose(w)
        ent = von_neumann_entropy(spec)
        worst_norm = max(worst_norm, abs(float(np.sum(spec.z ** 2)) - 0.25))
        rank1 = slater_rank(spec, 1e-6) == 1
        ok &= (-1e-12 <= con <= 1.0 + 1e-12)
        ok &= ((con < 1e-8) == rank1)
        ok &= (1.0 - 1e-12 <= ent <= 2.0 + 1e-12)
    # rotated single determinants exercise the C ~ 0 <=> rank 1 direction
    base = make_antisym([1.0, 0, 0, 0, 0, 0])
    for _ in range(100):
        wp = mode_rotate(base, random_unitary(rng, 4))
        spec = slater_decompose(wp)
        ok &= concurrence4(wp) < 1e-8
        ok &= slater_rank(spec, 1e-6) == 1
        ok &= 1.0 - 1e-12 <= von_neumann_entropy(spec) <= 2.0 + 1e-12
    ok &= worst_norm <= 1e-12
    assert report("C09", ok,
                  f"10^4 random + 100 rotated-determinant states: C in [0,1], "
                  f"sum z^2 - 1/4 <= {worst_norm:.1e}, C<1e-8 <=> rank 1, "
                  f"entropy in [1,2]")


def test_c10_special_function_certification():
    t0 = time.perf_counter()
    worst = 0.0
    for x in np.logspace(-3.0, math.log10(50.0), 50):
        ref = oracle_e1(float(x))
        worst = max(worst, abs(exp_integral_e1(float(x)) - ref) / ref)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    assert report("C10", ok,
                  f"50 log-spaced points in [1e-3, 50]: max rel diff {worst:.2e} "
                  f"(tol 1e-12); {elapsed:.2f} s")


def test_c11_figure_regression(tmp_path, capsys):
    ok = True
    for which in ("fig1", "fig2", "fig3", "fig4"):
        blobs = []
        for tag, par in (("r1", "1"), ("r2", "1"), ("p2", "2")):
            out = tmp_path / f"{which}_{tag}.csv"
            code = cli_main(["figure", "--which", which, "--out", str(out),
                             "--parallel", par])
            ok &= (code == 0)
            blobs.append(out.read_bytes())
        ok &= (blobs[0] == blobs[1] == blobs[2])
    # fig3 peak at the grid neighborhood of 1/sqrt(2)
    fig3 = (tmp_path / "fig3_r1.csv").read_text().strip().split("\n")[1:]
    rows = [tuple(map(float, ln.split(","))) for ln in fig3]
    nearest = min(rows, key=lambda rc: abs(rc[0] - 1.0 / math.sqrt(2.0)))
    peak_ok = nearest[1] >= 1.0 - 1e-6
    ok &= peak_ok
    capsys.readouterr()  # swallow CLI stdout so the report line stays visible
    assert report("C11", ok,
                  f"figures byte-identical across reruns and --parallel; fig3 value "
                  f"at c1 ~ 0.7071 is {nearest[1]:.8f} (>= 1 - 1e-6: {peak_ok})")
