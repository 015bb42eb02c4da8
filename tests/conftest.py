"""Shared fixtures: canonical parameter set, cached ladders and a block reference.

The canonical set m=1, gamma=1, k=1.25 gives omega=1 and lambda=1/2 exactly,
so frozen eigenvalue targets stay integer-and-half valued.
"""

import numpy as np
import pytest

from bateman.fock import build_ladder
from bateman.params import derive_params


@pytest.fixture(scope="session")
def params():
    return derive_params(m=1.0, gamma=1.0, k=1.25)


@pytest.fixture(scope="session")
def ladder8():
    return build_ladder(8)


@pytest.fixture(scope="session")
def ladder12():
    return build_ladder(12)


def _connected_blocks(rows, cols, shape) -> list[tuple[np.ndarray, np.ndarray]]:
    """Connected (rows, cols) blocks of the nonzero pattern, found by label propagation.

    Rows and columns are the two sides of a bipartite graph with an edge at
    every nonzero entry (rows[k], cols[k]); each block is one connected
    component, and a row or column with no entry is a block of its own whose
    other side is empty.  Index arrays are ascending; blocks come in the order
    of their smallest row, those without rows last, in the order of their column.
    """
    n_rows, n_cols = shape
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp) + n_rows  # nodes: rows first, then columns
    # label every node by the smallest node of its component: pull the
    # smaller label across each edge, then jump labels to their own labels
    label = np.arange(n_rows + n_cols)
    while True:
        low = np.minimum(label[rows], label[cols])
        pulled = label.copy()
        np.minimum.at(pulled, rows, low)
        np.minimum.at(pulled, cols, low)
        pulled = pulled[pulled]
        if np.array_equal(pulled, label):
            break
        label = pulled
    _, component, sizes = np.unique(label, return_inverse=True, return_counts=True)
    members = np.split(np.argsort(component, kind="stable"), np.cumsum(sizes))[:-1]
    return [(nodes[nodes < n_rows], nodes[nodes >= n_rows] - n_rows) for nodes in members]


@pytest.fixture(scope="session")
def connected_blocks():
    """The label-propagation reference that declared charge sectors are checked against."""
    return _connected_blocks
