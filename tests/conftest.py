"""Fixtures shared by the test modules."""

import pytest

from fds import linalg


@pytest.fixture
def sampled_path(monkeypatch):
    """Shapes of the blocks ``low_rank_approx`` sent down the sampled path
    (SVD or range finder) because the sketch refused their cross
    approximation."""
    shapes = []
    real = linalg._sampled_approx
    monkeypatch.setattr(linalg, "_sampled_approx",
                        lambda A, tol: shapes.append(A.shape) or real(A, tol))
    return shapes
