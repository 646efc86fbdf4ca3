from contextlib import contextmanager

import numpy as np
import pytest

from bucklab import counterexample, eigen, make_disk_mesh, make_rectangle_mesh


@pytest.fixture(scope="session")
def disk2():
    return make_disk_mesh(1.0, 2)


@pytest.fixture(scope="session")
def disk3():
    return make_disk_mesh(1.0, 3)


@pytest.fixture(scope="session")
def disk4():
    return make_disk_mesh(1.0, 4)


@pytest.fixture(scope="session")
def rect16():
    return make_rectangle_mesh(1.0, 1.0, 16, 16)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def refuse_every_factor(monkeypatch):
    """A context manager under which every checked sparse factor fails
    its growth check, so each sparse factorization raises
    :class:`~bucklab.errors.FactorCheckError` naming it. Spectrum
    prefixes and trace pencils are to be cached before it is entered."""

    @contextmanager
    def refused():
        with monkeypatch.context() as m:
            m.setattr(eigen, "_MAX_GROWTH", 0.5)  # max|L| >= 1: the unit diagonal
            yield

    return refused


@pytest.fixture()
def empty_clamped_fields(monkeypatch):
    """Empties the per-mesh memo of :func:`bucklab.counterexample.clamped_fields`
    now and at each call of the returned function, and restores the
    memo afterwards, so a test that counts solves or factorizations does
    not depend on which tests ran before it."""

    def empty():
        monkeypatch.setattr(counterexample, "_FIELDS_CACHE", {})

    empty()
    return empty
