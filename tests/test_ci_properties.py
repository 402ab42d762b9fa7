"""Property test of the ci_solve memo: on the distances the CLI accepts, a
memoized solution has the bits of the uncached solve, asked once or twice."""

import math

import pytest

from h2ent.ci import H22_VARIANTS, ci_solve, hamiltonian_block, solve_block
from test_ci import solution_bits

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# log-uniform on [1e-2, 650]
DISTANCES = st.floats(math.log(1e-2), math.log(650.0)).map(math.exp)


@hypothesis.settings(derandomize=True, database=None, deadline=None)
@hypothesis.given(s=DISTANCES, variant=st.sampled_from(H22_VARIANTS))
def test_memoized_solution_has_the_bits_of_the_solve(s, variant):
    solved = solution_bits(solve_block(hamiltonian_block(s, variant)))
    assert solution_bits(ci_solve(s, variant)) == solved
    assert solution_bits(ci_solve(s, variant)) == solved
