"""h2ent: minimal-basis CI ground state of H2 and two-electron entanglement.

The package computes, in Hartree atomic units as functions of the reduced
internuclear distance s = R/a0:

* the closed-form two-center integrals of two 1s orbitals,
* the two-configuration (bonding^2 / antibonding^2) CI ground state,
* fermionic entanglement measures of the two electrons: concurrence,
  Slater decomposition, reduced density matrix, von Neumann entropy,
* an independent quadrature / Monte Carlo oracle validating every closed
  form, exposed through the `h2e verify` command.

Importing the package loads no numpy: the scalar path is `math` alone, the
array functions import numpy on first use, and the oracle names below load
the (numpy-native) oracle on first access.
"""

from .specfun import EULER_GAMMA, binary_entropy, exp_integral_e1, exp_integral_e1_array
from .integrals import (IntegralSet, coulomb_j, exchange_k, hybrid_l, integral_set,
                        integral_table, jprime, kprime, one_center_m, overlap, s_prime)
from .entanglement import (AntisymW, SlaterSpectrum, concurrence4, make_antisym,
                           reduced_density, slater_decompose, slater_rank,
                           von_neumann_entropy)
from .ci import (E1S, CiSolution, HamiltonianBlock, ci_solve, ci_table, ground_concurrence,
                 ground_entropy, hamiltonian_block, solve_block, w_from_ci)
from .scan import ScanConfig, ScanRecord, record_at, scan_table

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "EULER_GAMMA", "exp_integral_e1", "exp_integral_e1_array", "binary_entropy",
    "IntegralSet", "overlap", "s_prime", "jprime", "kprime", "coulomb_j",
    "exchange_k", "hybrid_l", "one_center_m", "integral_set", "integral_table",
    "AntisymW", "SlaterSpectrum", "make_antisym", "concurrence4",
    "slater_decompose", "slater_rank", "reduced_density", "von_neumann_entropy",
    "E1S", "HamiltonianBlock", "CiSolution", "hamiltonian_block", "solve_block",
    "ci_solve", "ci_table", "w_from_ci",
    "ground_concurrence", "ground_entropy",
    "McEstimate", "quad_one_electron", "quad_two_electron", "mc_two_electron", "oracle_e1",
    "ScanConfig", "ScanRecord", "record_at", "scan_table",
]

_ORACLE_NAMES = ("McEstimate", "mc_two_electron", "oracle_e1", "quad_one_electron",
                 "quad_two_electron")


def __getattr__(name):
    # PEP 562: resolves the oracle's names on first access
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
