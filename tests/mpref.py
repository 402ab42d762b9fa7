"""50-digit mpmath evaluation of the closed forms behind every scan field.

The same formulas as h2ent.integrals / h2ent.ci, written again in mpmath
(E1 is mpmath.e1, Euler's constant mpmath.euler), so that a float64 value
can be decided to far below its 12th printed digit.  Energies are relative
to 2 E1s, in the given unit.
"""

import mpmath as mp

DPS = 50
UNIT = {"hartree": 1, "rydberg": 2, "ev": mp.mpf("27.211386245988")}
FIELDS = ("s", "e_psi1", "e_psi2", "e_ci", "c1_sq", "c2_sq", "concurrence", "entropy")
ENERGIES = ("e_psi1", "e_psi2", "e_ci")
# what the 12 printed digits promise: the 12th digit's rounding, plus an
# absolute floor for energies (differences of O(1) Hartree terms)
RTOL = 1e-11
ENERGY_ATOL_HARTREE = 1e-12
PLAIN_ATOL = 1e-13


def integrals(s):
    """Integral name -> mpf value at the float s: S, jp, kp (one-electron),
    j, k, l, m (two-electron), in Hartree."""
    with mp.workdps(DPS):
        s = mp.mpf(s)
        e1, e2 = mp.exp(-s), mp.exp(-2 * s)
        S = (1 + s + s * s / 3) * e1
        Sp = (1 - s + s * s / 3) * mp.exp(s)
        k = ((6 / s) * ((mp.euler + mp.log(s)) * S * S - mp.e1(4 * s) * Sp * Sp
                        + 2 * mp.e1(2 * s) * S * Sp)
             - (mp.mpf(-25) / 8 + mp.mpf(23) / 4 * s + 3 * s * s + s ** 3 / 3) * e2) / 5
        return {"S": S, "jp": (1 - (1 + s) * e2) / s, "kp": (1 + s) * e1,
                "j": 1 / s - (1 / s + mp.mpf(11) / 8 + 3 * s / 4 + s * s / 6) * e2,
                "k": k, "l": s * e1 + (mp.mpf(1) / 8 + 5 / (16 * s)) * e1 * (1 - e2),
                "m": mp.mpf(5) / 8}


def record(s, variant="corrected", unit="rydberg"):
    """Field name -> mpf value at the float s."""
    with mp.workdps(DPS):
        ints = integrals(s)
        S, jp, kp, j, k, l, m = (ints[n] for n in ("S", "jp", "kp", "j", "k", "l", "m"))
        s = mp.mpf(s)
        one = 1 / s - 1
        h11 = one - 2 * (jp + kp) / (1 + S) + (j + 2 * k + m + 4 * l) / (2 * (1 + S) ** 2)
        h12 = (m - j) / (2 * (1 - S * S))
        den = 1 - S if variant == "corrected" else 1 + S
        h22 = one - 2 * (jp - kp) / den + (j + 2 * k + m - 4 * l) / (2 * den ** 2)
        e = (h11 + h22) / 2 - mp.sqrt(((h22 - h11) / 2) ** 2 + h12 ** 2)
        phi = mp.atan2(2 * h12, h22 - h11) / 2
        c1, c2 = mp.cos(phi), -mp.sin(phi)
        p = c1 * c1
        f = UNIT[unit]
        return {"s": s, "e_psi1": (h11 + 1) * f, "e_psi2": (h22 + 1) * f,
                "e_ci": (e + 1) * f, "c1_sq": p, "c2_sq": c2 * c2,
                "concurrence": 2 * abs(c1 * c2),
                "entropy": 1 - p * mp.log(p, 2) - (1 - p) * mp.log(1 - p, 2)}


def tolerance(field, ref, unit="rydberg"):
    atol = ENERGY_ATOL_HARTREE * float(UNIT[unit]) if field in ENERGIES else PLAIN_ATOL
    return RTOL * abs(float(ref)) + atol
