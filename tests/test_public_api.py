"""Every name in h2ent.__all__ and in each h2ent module's __all__, and the
signature of each public callable.

A refactor must not drop a public name or change a signature by accident;
a deliberate change edits API below in the same change.
"""

import importlib
import inspect
import pkgutil

import pytest

import h2ent

# name -> str(inspect.signature(...)), or None for a non-callable constant
API = {
    "__version__": None,
    "EULER_GAMMA": None,
    "exp_integral_e1": "(x: float) -> float",
    "exp_integral_e1_array": "(x) -> 'numpy.ndarray'",
    "binary_entropy": "(p: float) -> float",
    "IntegralSet": "(s: float, S: float, jp: float, kp: float, j: float, k: float, "
                   "l: float, m: float) -> None",
    "overlap": "(s: float) -> float",
    "s_prime": "(s: float) -> float",
    "jprime": "(s: float) -> float",
    "kprime": "(s: float) -> float",
    "coulomb_j": "(s: float) -> float",
    "exchange_k": "(s: float) -> float",
    "hybrid_l": "(s: float) -> float",
    "one_center_m": "() -> float",
    "integral_set": "(s: float) -> h2ent.integrals.IntegralSet",
    "integral_table": "(s) -> h2ent.integrals.IntegralSet",
    "AntisymW": "(upper: tuple[complex, ...]) -> None",
    "SlaterSpectrum": "(z: tuple[float, ...]) -> None",
    "make_antisym": "(upper_entries) -> h2ent.entanglement.AntisymW",
    "concurrence4": "(w: h2ent.entanglement.AntisymW) -> float",
    "slater_decompose": "(w: h2ent.entanglement.AntisymW) -> h2ent.entanglement.SlaterSpectrum",
    "slater_rank": "(spec: h2ent.entanglement.SlaterSpectrum, tol: float = 1e-10) -> int",
    "reduced_density": "(w: h2ent.entanglement.AntisymW) -> 'numpy.ndarray'",
    "von_neumann_entropy": "(spec: h2ent.entanglement.SlaterSpectrum) -> float",
    "E1S": None,
    "HamiltonianBlock": "(s: float, h11: float, h12: float, h22: float) -> None",
    "CiSolution": "(s: float, c1: float, c2: float, e_ground: float, e_psi1: float, "
                  "e_psi2: float, degenerate: bool = False) -> None",
    "hamiltonian_block": "(s: float, variant: str = 'corrected') -> h2ent.ci.HamiltonianBlock",
    "solve_block": "(block: h2ent.ci.HamiltonianBlock) -> h2ent.ci.CiSolution",
    "ci_solve": "(s: float, variant: str = 'corrected') -> h2ent.ci.CiSolution",
    "ci_table": "(s, variant: str = 'corrected') -> h2ent.ci.CiSolution",
    "w_from_ci": "(c1: float, c2: float) -> h2ent.entanglement.AntisymW",
    "ground_concurrence": "(c1: float, c2: float) -> float",
    "ground_entropy": "(c1: float, c2: float) -> float",
    "McEstimate": "(mean: float, stderr: float, n_samples: int, seed: int) -> None",
    "quad_one_electron": "(kind: str, s: float) -> float",
    "quad_two_electron": "(kind: str, s: float) -> float",
    "mc_two_electron": "(kind: str, s: float, n_samples: int, seed: int) "
                       "-> h2ent.oracle.McEstimate",
    "oracle_e1": "(x: float) -> float",
    "ScanConfig": "(s_min: float = 0.5, s_max: float = 10.0, steps: int = 400, "
                  "unit: str = 'rydberg', h22_variant: str = 'corrected') -> None",
    "ScanRecord": "(s: float, e_psi1: float, e_psi2: float, e_ci: float, c1_sq: float, "
                  "c2_sq: float, concurrence: float, entropy: float) -> None",
    "record_at": "(s: float, variant: str = 'corrected', unit: str = 'rydberg') "
                 "-> h2ent.scan.ScanRecord",
    "scan_table": "(config: h2ent.scan.ScanConfig) -> 'numpy.ndarray'",
}


def test_all_names_exist():
    assert len(set(h2ent.__all__)) == len(h2ent.__all__)
    assert set(API) <= set(h2ent.__all__)
    for name in h2ent.__all__:
        assert hasattr(h2ent, name), name


@pytest.mark.parametrize("name", sorted(API))
def test_public_signature(name):
    obj = getattr(h2ent, name)
    if API[name] is None:
        assert not callable(obj)
    else:
        assert str(inspect.signature(obj)) == API[name]


# every module of the package but __main__, which runs the CLI when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(h2ent.__path__) if m.name != "__main__")


@pytest.mark.parametrize("module", MODULES)
def test_module_all_names_exist(module):
    # a function removed from a module must leave its __all__ too
    mod = importlib.import_module(f"h2ent.{module}")
    names = mod.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(mod, name), name
