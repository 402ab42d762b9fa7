import numpy as np
import pytest

import h2ent.ci
from h2ent.entanglement import AntisymW, _matrix, make_antisym


@pytest.fixture(autouse=True)
def empty_ci_memo():
    """Each test starts with no memoized ci_solve result, so one that patches
    a layer under ci_solve never reads a solution made before the patch."""
    h2ent.ci._ci_solve.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def random_antisym(rng, n=4):
    """Random normalized two-fermion coefficient matrix."""
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    entries = [m[i, j] for i in range(n) for j in range(i + 1, n)]
    return make_antisym(entries)


def random_unitary(rng, n=4):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    d = np.diag(r)
    return q * (d / np.abs(d))


def mode_rotate(w: AntisymW, u: np.ndarray) -> AntisymW:
    """Coefficient matrix after rotating the modes: w' = U^dag w U*, given to
    AntisymW as its upper triangle."""
    rotated = u.conj().T @ _matrix(w.upper, w.n) @ u.conj()
    return AntisymW(rotated[np.triu_indices(w.n, k=1)].tolist())
