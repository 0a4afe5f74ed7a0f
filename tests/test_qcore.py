import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapproc.qcore import (
    is_density_operator,
    is_unitary,
    pauli,
    trace_distance,
)

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


class TestPauli:
    def test_index_zero_is_identity(self):
        assert np.array_equal(pauli(0), np.eye(2))

    def test_product_algebra(self):
        assert np.allclose(pauli(1) @ pauli(2), 1j * pauli(3))
        # sigma_j sigma_k = delta_jk I + i eps_jkl sigma_l
        eps = np.zeros((3, 3, 3))
        eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1
        eps[2, 1, 0] = eps[0, 2, 1] = eps[1, 0, 2] = -1
        for j in range(1, 4):
            for k in range(1, 4):
                expected = (j == k) * np.eye(2) + 1j * sum(
                    eps[j - 1, k - 1, m - 1] * pauli(m) for m in range(1, 4)
                )
                assert np.allclose(pauli(j) @ pauli(k), expected, atol=1e-14)

    @given(st.lists(finite, min_size=8, max_size=8))
    @settings(max_examples=30)
    def test_twirl_is_twice_trace(self, vals):
        x = np.array(vals[:4]).reshape(2, 2) + 1j * np.array(vals[4:]).reshape(2, 2)
        twirl = sum(pauli(k) @ x @ pauli(k) for k in range(4))
        assert np.allclose(twirl, 2 * np.trace(x) * np.eye(2), atol=1e-10)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            pauli(4)

    @pytest.mark.parametrize("k", [True, 1.0], ids=["bool", "float"])
    def test_non_integer_index_is_refused(self, k):
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {k!r}")):
            pauli(k)


class TestStructureChecks:
    def test_sigma_y_unitary(self):
        assert is_unitary(pauli(2))

    def test_tetrahedron_element_is_not_a_projector(self):
        f0 = 0.25 * (np.eye(2) + (pauli(1) + pauli(2) + pauli(3)) / np.sqrt(3))
        # eigensolver oracle: spectrum is {0, 1/2}, not {0, 1}
        evals = np.sort(np.linalg.eigvalsh(f0))
        assert np.allclose(evals, [0.0, 0.5], atol=1e-12)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            is_unitary(np.ones((2, 3)))

    def test_vector_is_not_a_square_matrix(self):
        with pytest.raises(ValueError, match="expects a square matrix"):
            is_unitary(np.ones(3))

    def test_vector_is_not_a_density_operator(self):
        assert is_density_operator(np.ones(3)) is False

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [1e200, 1e300j, np.inf, np.nan])
    def test_huge_or_non_finite_entries_are_not_unitary(self, entry):
        assert is_unitary(np.full((2, 2), entry)) is False

    def test_unitary_within_tolerance_stays_unitary(self):
        # entries of a unitary reach 1; rounding above it is not a refusal
        assert is_unitary(pauli(1) * (1 + 2e-11))
        assert not is_unitary(pauli(1) * (1 + 1e-9))


def test_trace_distance_of_orthogonal_pure_states():
    assert abs(trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) - 1.0) < 1e-14
