import numpy as np
import pytest


def _lemma_value(A, v):
    """||A||_F^2 + 2 v.Av + (d - 1)/d |v|^4, which is >= 0 for symmetric
    traceless d x d matrices A; leading axes of A and v are batched."""
    d = v.shape[-1]
    vv = np.sum(v * v, axis=-1)
    return (np.sum(A * A, axis=(-2, -1))
            + 2 * np.einsum("...i,...ij,...j->...", v, A, v)
            + (d - 1) / d * vv ** 2)


@pytest.fixture
def lemma_value():
    """The pointwise matrix inequality's left-hand side, shared by the
    acceptance and the diagnostics tests."""
    return _lemma_value
