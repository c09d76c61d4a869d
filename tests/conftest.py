import contextlib
import itertools
import os
from pathlib import Path

import numpy as np
import pytest

import gradflow1d
from gradflow1d import jko


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


@pytest.fixture
def child_env():
    """The environment of a child interpreter that imports the same
    gradflow1d as the tests, installed or not."""
    src = str(Path(gradflow1d.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


@contextlib.contextmanager
def _copying(*steps):
    step = jko.jko_step
    calls = itertools.count(1)

    def copied(x_prev, energy, tau, gap, phi_prev, x_start=None):
        if next(calls) in steps:
            return x_prev.copy(), phi_prev, phi_prev, True
        return step(x_prev, energy, tau, gap, phi_prev, x_start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jko, "jko_step", copied)
        yield


@pytest.fixture(scope="session")
def copied_steps():
    """The negative control: inside `with copied_steps(n, ...)`, call n of
    `jko.jko_step`, counted from the `with`, returns the previous map and
    energy, converged, instead of minimizing; every other call steps as
    usual.  In a single run, call n is step n, which then dissipates
    nothing, and `run`, `execute` and `main` all step through the copy."""
    return _copying
