import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapproc.serialize import decode_numbers
from timelimit import time_limit

from mapproc.qcore import (
    _brief,
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
        message = "operator must be a square matrix, got shape (2, 3)"
        with pytest.raises(ValueError, match=re.escape(message)):
            is_unitary(np.ones((2, 3)))

    def test_vector_is_not_a_square_matrix(self):
        message = "operator must have shape (n, n) with n >= 1, got (3,)"
        with pytest.raises(ValueError, match=re.escape(message)):
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


# eigvalsh reads one triangle only, so a non-Hermitian operand would give a
# silent wrong answer ([[0, 1], [0, 0]] read as 0, not 0.5), and a NaN one 0
@pytest.mark.parametrize(
    "a, b, message",
    [
        ([[np.nan, 0], [0, 0]], np.zeros((2, 2)), "operand a has an entry that is not finite"),
        (np.eye(2) / 2, [[0.5, 0], [0, np.inf]], "operand b has an entry that is not finite"),
        ([[0, 1], [0, 0]], np.zeros((2, 2)), "operand a is not Hermitian within 1e-10"),
        (np.eye(2) / 2, [[0.5, 1e-9], [0, 0.5]], "operand b is not Hermitian within 1e-10"),
        (np.diag([1e308, 0.0]), np.diag([-1e308, 0.0]),
         "operand a - b has a trace norm beyond the float range"),
        (np.diag([1e308, 1e308]), np.zeros((2, 2)),
         "operand a - b has a trace norm beyond the float range"),
        (np.full((2, 2), 1e308), np.zeros((2, 2)),
         "operand a - b has a trace norm beyond the float range"),
        ([[0, 1e308], [-1e308, 0]], np.zeros((2, 2)), "operand a is not Hermitian within 1e-10"),
    ],
    ids=["nan-a", "inf-b", "upper-triangle", "skew-b", "difference-overflows",
         "norm-overflows", "eigenvalue-overflows", "skew-huge"],
)
def test_trace_distance_refuses_what_has_no_trace_distance(a, b, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        trace_distance(a, b)


def test_trace_distance_of_huge_operands_within_the_float_range():
    distance = trace_distance(np.diag([1e307, 0.0]), np.diag([-1e307, 0.0]))
    assert abs(distance / 1e307 - 1.0) < 1e-15


# values a refusal may quote: JSON-like nests of lists, tuples and dicts
quotable = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=30),
    lambda inner: st.lists(inner, max_size=8) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=40,
)


class Counted:
    """An element whose repr counts its calls."""

    calls = 0

    def __repr__(self):
        Counted.calls += 1
        return "c"


def nested(depth, width):
    """``width`` references to one list, ``depth`` levels deep: little memory, a huge repr."""
    value = [Counted()]
    for _ in range(depth):
        value = [value] * width
    return value


def whole_quote(value):
    """The quote made from the whole repr: the reference for any repr of at most 100 characters."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"an integer of {value.bit_length()} bits"
    text = " ".join(repr(value).split())
    return text if len(text) <= 100 else text[:97] + "..."


class TestBrief:
    @settings(max_examples=200, deadline=None)
    @given(quotable)
    def test_a_quote_is_the_repr_up_to_100_characters(self, value):
        quote = _brief(value)
        if len(" ".join(repr(value).split())) <= 100:
            assert quote == whole_quote(value)
        else:
            assert len(quote) == 100 and quote.endswith("...")

    @pytest.mark.parametrize(
        "value",
        [[Counted()] * 10**6, (Counted(),) * 10**6, {k: Counted() for k in range(10**5)},
         nested(40, 10)],
        ids=["list", "tuple", "dict", "shared-nest"],
    )
    def test_a_quote_reprs_at_most_101_elements(self, value):
        Counted.calls = 0
        with time_limit(2.0, "the quote"):
            quote = _brief(value)
        assert len(quote) == 100 and 0 < Counted.calls <= 101

    def test_a_huge_integer_is_quoted_by_its_size(self):
        assert _brief(10**5000) == "an integer of 16610 bits"
        assert _brief([10**5000]) == "an object of type list"

    def test_a_deep_list_is_quoted_in_bounded_depth(self):
        value = []
        for _ in range(10 * sys.getrecursionlimit()):
            value = [value]
        assert _brief(value) == "[" * 97 + "..."

    def test_a_refused_million_entry_list_is_quoted_from_its_head(self):
        Counted.calls = 0
        with time_limit(2.0, "the refusal"), pytest.raises(ValueError) as refusal:
            decode_numbers([[Counted()] * 10**6])
        assert str(refusal.value).startswith("list entry must be a real number, got [c, c, ")
        assert Counted.calls <= 101
