import numpy as np
import pytest

from mapproc.processor import _POVM_MEMO
from mapproc.qid import qid_unitary, qid_povm, sic_program


@pytest.fixture(scope="session")
def qid_proc():
    return qid_unitary()


@pytest.fixture(scope="session")
def sic_elements():
    return [np.asarray(f) for f in qid_povm(sic_program()).elements]


@pytest.fixture
def empty_povm_memo():
    """The one POVM memo, emptied: each POVM a test meets is checked and decomposed anew."""
    _POVM_MEMO.clear()
    return _POVM_MEMO
