"""Hypothesis strategies for malformed JSON documents.

``mutants(doc)`` draws a valid document with one subtree replaced by an
arbitrary JSON value or one object key deleted, so a decoder is driven
past its first check into every nested field.
"""

import copy
import json

from hypothesis import strategies as st

KEYS = (
    "rows", "cols", "data", "dim", "amp", "components", "weight", "state", "data_dim",
    "program_dim", "gate", "program_basis", "blocks", "elements", "projectors", "basis",
    "measurements", "alpha", "probabilities", "outcome_counts",
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=6),
    st.sampled_from([2**63, 10**400]),
    st.floats(),
    st.text(max_size=3),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=12,
)


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def mutants(draw, doc):
    """``doc`` unchanged (one draw in ten), or with one subtree replaced or deleted."""
    doc = copy.deepcopy(doc)
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return doc
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(json_values)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values)
    return doc


def strict_json(text: str):
    """json.loads that refuses the NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=refuse)
