"""An exact certificate of the closed forms: sympy integrates each defining
integral and the difference from the closed form simplifies to 0.

The one-electron integrals S, j', k' and the two-electron j and l are
integrated in prolate spheroidal coordinates about the two nuclei,

    r_a = s (mu + nu) / 2,   r_b = s (mu - nu) / 2,
    d^3 r = (s^3 / 8) (mu^2 - nu^2) dmu dnu dphi,

mu over [1, oo), nu over [-1, 1], phi over [0, 2 pi).  The densities are
a^2 = e^(-2 r_a) / pi, b^2 = e^(-2 r_b) / pi and ab = e^(-s mu) / pi; the
two-electron integrals put b^2 (j) or ab (l) in the potential of a^2,
V_a = 1/r_a - (1 + 1/r_a) e^(-2 r_a), which is itself derived here from
Gauss's law.  sp.cancel takes each 1/r against mu^2 - nu^2, so that every
integrand is a polynomial times an exponential; nu is integrated first,
then mu.  m = 5/8 is the radial integral of a^2 in V_a.  The closed forms
are typed here from the formulas the integrals module documents, and
checked against the module's functions at a few distances; a perturbed
form is shown not to simplify to 0, so a passing check is not vacuous.
The exchange integral k is not covered.
"""

import pytest

from h2ent import integrals

sp = pytest.importorskip("sympy")

s, mu, nu, r, t = sp.symbols("s mu nu r t", positive=True)


def potential(x):
    """V_a at distance x from nucleus a: the potential of the density a^2."""
    return 1 / x - (1 + 1 / x) * sp.exp(-2 * x)


R_A, R_B = s * (mu + nu) / 2, s * (mu - nu) / 2
A2, B2, AB = sp.exp(-2 * R_A) / sp.pi, sp.exp(-2 * R_B) / sp.pi, sp.exp(-s * mu) / sp.pi

# name -> (integrand over space, closed form, the module's function)
CLOSED_FORMS = {
    "S": (AB, (1 + s + s ** 2 / 3) * sp.exp(-s), integrals.overlap),
    "j'": (A2 / R_B, (1 - (1 + s) * sp.exp(-2 * s)) / s, integrals.jprime),
    "k'": (AB / R_A, (1 + s) * sp.exp(-s), integrals.kprime),
    "j": (B2 * potential(R_A),
          1 / s - (1 / s + sp.Rational(11, 8) + 3 * s / 4 + s ** 2 / 6) * sp.exp(-2 * s),
          integrals.coulomb_j),
    "l": (AB * potential(R_A),
          ((2 * s + sp.Rational(1, 4) + 5 / (8 * s)) * sp.exp(-s)
           - (sp.Rational(1, 4) + 5 / (8 * s)) * sp.exp(-3 * s)) / 2,
          integrals.hybrid_l),
}


def space_integral(integrand):
    """The integral of integrand over all space, in prolate spheroidal
    coordinates, as an expression in s."""
    volume = sp.cancel(sp.expand(integrand * 2 * sp.pi * s ** 3 / 8 * (mu ** 2 - nu ** 2)))
    return sp.integrate(sp.integrate(volume, (nu, -1, 1)), (mu, 1, sp.oo))


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_form_is_its_defining_integral(name):
    integrand, closed, function = CLOSED_FORMS[name]
    assert sp.simplify(space_integral(integrand) - closed) == 0
    for x in (0.5, 1.67, 8.0):  # the formula typed here is the module's
        assert float(closed.subs(s, x)) == pytest.approx(function(x), rel=1e-14)


def test_potential_of_the_one_center_density():
    # Gauss's law: the charge inside r acts from the center, each shell
    # outside r at its own radius
    density = sp.exp(-2 * t) / sp.pi
    inside = sp.integrate(4 * sp.pi * t ** 2 * density, (t, 0, r)) / r
    outside = sp.integrate(4 * sp.pi * t * density, (t, r, sp.oo))
    assert sp.simplify(inside + outside - potential(r)) == 0


def test_one_center_repulsion_is_five_eighths():
    m = sp.integrate(4 * sp.pi * r ** 2 * sp.exp(-2 * r) / sp.pi * potential(r), (r, 0, sp.oo))
    assert m == sp.Rational(5, 8)
    assert integrals.one_center_m() == 0.625


def test_a_perturbed_closed_form_is_refused():
    # S with s^2/4 in place of s^2/3 differs from its integral by s^2 e^-s / 12
    residue = space_integral(CLOSED_FORMS["S"][0]) - (1 + s + s ** 2 / 4) * sp.exp(-s)
    assert sp.simplify(residue) != 0
    assert sp.simplify(residue - s ** 2 * sp.exp(-s) / 12) == 0
