"""Shared fixtures: the worked storage examples used throughout the suite,
and the engine's frame budget.

The three reference tensors (a 16-vector, a 3x4 matrix A, a 3x3x4 tensor T)
and their expected packed layouts are frozen here once; storage, engine,
and acceptance tests all check against the same numbers.
"""

import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest import mock

import pytest

from sparsec import engine
from sparsec.storage import CooTensor

# 16-element sparse vector with nonzeros at positions 3, 6, 7, 10.
X3, X6, X7, X10 = 1.5, 2.5, 3.5, 4.5

# 3x4 matrix with entries a00, a03, a20.
A00, A03, A20 = 1.0, 2.0, 3.0

# 3x3x4 tensor with entries t000, t200, t202, t212, t213.
T000, T200, T202, T212, T213 = 1.0, 2.0, 3.0, 4.0, 5.0


@pytest.fixture
def vec_x():
    return CooTensor((16,), [((3,), X3), ((6,), X6), ((7,), X7), ((10,), X10)])


@pytest.fixture
def mat_a():
    return CooTensor((3, 4), [((0, 0), A00), ((0, 3), A03), ((2, 0), A20)])


@pytest.fixture
def tensor_t():
    return CooTensor(
        (3, 3, 4),
        [
            ((0, 0, 0), T000),
            ((2, 0, 0), T200),
            ((2, 0, 2), T202),
            ((2, 1, 2), T212),
            ((2, 1, 3), T213),
        ],
    )


@contextmanager
def row_budget(rows: int):
    """Run the engine with its frame budget, `_MAX_FRAME_ROWS`, at `rows`,
    and fail on any frame built with more rows than that."""
    build = engine._Frame.__init__

    def checked(self, n, *args, **kwargs):
        if n > rows:
            raise AssertionError(f"a frame of {n} rows passes the budget of {rows}")
        build(self, n, *args, **kwargs)

    with mock.patch.object(engine, "_MAX_FRAME_ROWS", rows):
        with mock.patch.object(engine._Frame, "__init__", checked):
            yield


@pytest.fixture
def frame_budget():
    """`row_budget` for the rest of the test: call it with a row count,
    which replaces the budget set before."""
    with ExitStack() as stack:

        def set_budget(rows: int):
            stack.close()
            stack.enter_context(row_budget(rows))

        yield set_budget


def pytest_configure(config):
    # Hypothesis caches the literals of local modules in its home directory,
    # `.hypothesis/` in the working directory, even with no example
    # database; keep it in the system's temporary directory instead.
    try:
        from hypothesis import configuration
    except ImportError:
        return
    configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "sparsec-hypothesis")
