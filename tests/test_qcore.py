import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapproc.qcore import (
    bell_anchor,
    bloch_expand,
    is_unitary,
    pauli,
    tensor,
    trace_distance,
)

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def hermitian_from(a, b, c, d):
    return a * pauli(0) + b * pauli(1) + c * pauli(2) + d * pauli(3)


class TestTensor:
    def test_identity_case(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_x_with_identity_is_antidiagonal_blocks(self):
        m = tensor(pauli(1), np.eye(2))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0:2, 2:4] = np.eye(2)
        expected[2:4, 0:2] = np.eye(2)
        assert np.array_equal(m, expected)

    def test_sigma_z_squared_diagonal(self):
        # hand expansion: diag(1,-1) (x) diag(1,-1)
        assert np.allclose(tensor(pauli(3), pauli(3)), np.diag([1, -1, -1, 1]))


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


class TestBellAnchor:
    def test_normalized(self):
        assert abs(np.linalg.norm(bell_anchor()) - 1.0) < 1e-14

    def test_pauli_translates_are_orthonormal(self):
        family = [tensor(pauli(k), np.eye(2)) @ bell_anchor() for k in range(4)]
        overlaps = np.array([[a.conj() @ b for b in family] for a in family])
        assert np.allclose(overlaps, np.eye(4), atol=1e-14)


class TestBlochExpand:
    def test_half_identity(self):
        exp = bloch_expand(0.5 * np.eye(2))
        assert abs(exp.scalar - 0.5) < 1e-14
        assert np.allclose(exp.vector, 0, atol=1e-14)

    def test_tetrahedron_anchor_element(self):
        f0 = 0.25 * (np.eye(2) + (pauli(1) + pauli(2) + pauli(3)) / np.sqrt(3))
        exp = bloch_expand(f0)
        assert abs(exp.scalar - 0.25) < 1e-12
        assert np.allclose(exp.vector, np.full(3, 1 / (4 * np.sqrt(3))), atol=1e-12)

    def test_ground_state_projector(self):
        exp = bloch_expand(np.diag([1.0, 0.0]))
        assert abs(exp.scalar - 0.5) < 1e-14
        assert np.allclose(exp.vector, [0, 0, 0.5], atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            bloch_expand(np.array([[0, 1], [0, 0]], dtype=complex))

    @given(finite, finite, finite, finite)
    @settings(max_examples=50)
    def test_round_trip(self, a, b, c, d):
        h = hermitian_from(a, b, c, d)
        assert np.max(np.abs(bloch_expand(h).assemble() - h)) < 1e-12


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
