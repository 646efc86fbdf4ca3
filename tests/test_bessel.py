"""Bessel zeros behind the unit-disk oracles, against tabulated values."""

import numpy as np
import pytest

from bucklab.spectra import disk_oracle


def test_first_zeros_match_tabulated():
    # disk eigenvalues are squared zeros: take the roots back
    d = np.sqrt(disk_oracle("dirichlet", 15).values)
    n = np.sqrt(disk_oracle("neumann", 6).values)
    b = np.sqrt(disk_oracle("buckling", 1).values)
    # j_{0,1}, j_{0,2}, j_{0,3} (simple), j_{1,1}, j_{2,1} (doubled)
    assert d[[0, 5, 14]] == pytest.approx([2.404826, 5.520078, 8.653728], abs=5e-7)
    assert d[[1, 2]] == pytest.approx([3.831706, 3.831706], abs=5e-7)
    assert d[[3, 4]] == pytest.approx([5.135622, 5.135622], abs=5e-7)
    # j'_{1,1} (doubled)
    assert n[[1, 2]] == pytest.approx([1.841184, 1.841184], abs=5e-7)
    # zeros of J0' are the zeros of J1, and buckling starts at j_{1,1}
    assert n[5] == pytest.approx(d[1], abs=1e-10)
    assert b[0] == pytest.approx(d[1], abs=1e-10)
