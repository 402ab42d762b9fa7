"""Independent high-precision reference for the h2ent model outputs.

Evaluates the model's closed forms (two-center integrals of two 1s
orbitals, the 2x2 CI block and its ground state, the entanglement of the
ground state) in mpmath at DPS decimal digits.  It shares no code with
h2ent: E1 is ``mpmath.e1``, Euler's constant is ``mpmath.euler`` and the
2x2 block is diagonalised in mpmath.  At 50 digits the cancellations that
float64 suffers as s -> 0 (1 - S, j + 2k + m - 4l) are resolved down to
s = 1e-9, so the reference also decides the domain-edge calls.
"""

import mpmath as mp

DPS = 50

E1S = mp.mpf(-1) / 2                      # Hartree, one hydrogen atom
UNIT_FACTORS = {"hartree": mp.mpf(1), "rydberg": mp.mpf(2),
                "ev": mp.mpf("27.211386245988")}
FIELDS = ("s", "e_psi1", "e_psi2", "e_ci", "c1_sq", "c2_sq", "concurrence", "entropy")


def integrals(s):
    """Dict of S, S', j', k', j, k, l, m at reduced distance s (Hartree)."""
    with mp.workdps(DPS):
        s = mp.mpf(s)
        em, ep, e2 = mp.exp(-s), mp.exp(s), mp.exp(-2 * s)
        S = (1 + s + s * s / 3) * em
        Sp = (1 - s + s * s / 3) * ep
        jp = (1 - (1 + s) * e2) / s
        kp = (1 + s) * em
        j = 1 / s - (1 / s + mp.mpf(11) / 8 + 3 * s / 4 + s * s / 6) * e2
        a = (6 / s) * ((mp.euler + mp.log(s)) * S * S
                       - mp.e1(4 * s) * Sp * Sp + 2 * mp.e1(2 * s) * S * Sp)
        b = (mp.mpf(-25) / 8 + mp.mpf(23) / 4 * s + 3 * s * s + s ** 3 / 3) * e2
        k = (a - b) / 5
        l = s * em + (mp.mpf(1) / 8 + 5 / (16 * s)) * (em - em * e2)
        return {"S": S, "Sp": Sp, "jp": jp, "kp": kp, "j": j, "k": k, "l": l,
                "m": mp.mpf(5) / 8}


def block(s, variant="corrected"):
    """(H11, H12, H22) in Hartree for the 'corrected' or 'printed' H22."""
    with mp.workdps(DPS):
        q = integrals(s)
        S, one = q["S"], 2 * E1S + 1 / mp.mpf(s)
        rep = q["j"] + 2 * q["k"] + q["m"]
        h11 = one - 2 * (q["jp"] + q["kp"]) / (1 + S) + (rep + 4 * q["l"]) / (2 * (1 + S) ** 2)
        h12 = (q["m"] - q["j"]) / (2 * (1 - S * S))
        d = 1 - S if variant == "corrected" else 1 + S
        h22 = one - 2 * (q["jp"] - q["kp"]) / d + (rep - 4 * q["l"]) / (2 * d * d)
        return h11, h12, h22


def binary_entropy(p):
    if p <= 0 or p >= 1:
        return mp.mpf(0)
    return -(p * mp.log(p, 2) + (1 - p) * mp.log(1 - p, 2))


def record(s, variant="corrected", unit="rydberg"):
    """The eight scan fields at s as mpf: energies relative to 2 E1s in `unit`.

    The ground state of the symmetric block [[a, b], [b, d]] is
    e = (a + d)/2 - sqrt(((d - a)/2)^2 + b^2) with eigenvector
    (c1, c2) = (cos phi, -sin phi), 2 phi = atan2(2b, d - a).
    """
    with mp.workdps(DPS):
        a, b, d = block(s, variant)
        e = (a + d) / 2 - mp.sqrt(((d - a) / 2) ** 2 + b * b)
        phi = mp.atan2(2 * b, d - a) / 2
        c1, c2 = mp.cos(phi), -mp.sin(phi)
        f = UNIT_FACTORS[unit]
        rel = lambda x: (x - 2 * E1S) * f
        c1sq = c1 * c1
        return {"s": mp.mpf(s), "e_psi1": rel(a), "e_psi2": rel(d), "e_ci": rel(e),
                "c1_sq": c1sq, "c2_sq": c2 * c2, "concurrence": 2 * abs(c1 * c2),
                "entropy": 1 + binary_entropy(c1sq)}
