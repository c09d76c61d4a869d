import importlib.machinery

import numpy as np
import pytest
import scipy
from scipy.linalg import get_lapack_funcs

from gradflow1d import _lapack

ZERO = (np.zeros(1),)
BW = 2


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("seed", range(3))
def test_banded_factor_and_solve_match_scipy_linalg(seed):
    # a random symmetric positive definite pentadiagonal system as the
    # lower band of LAPACK's symmetric band storage, Cholesky-factored in
    # place and solved as jko does
    rng = np.random.default_rng(seed)
    n = 40
    ab = np.asfortranarray(rng.standard_normal((BW + 1, n)))
    ab[0] = 2 * BW + 1 + np.abs(ab[0])
    rhs = rng.standard_normal(n)
    pbtrf, pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), ZERO)
    results = []
    for factor, solve in ((_lapack.dpbtrf, _lapack.dpbtrs), (pbtrf, pbtrs)):
        c = ab.copy(order="F")
        _, info = factor(c, lower=1, overwrite_ab=1)
        assert info == 0
        x, info = solve(c, rhs, lower=1)
        assert info == 0
        results.append((_bits(c), _bits(x)))
    for ours, ref in zip(*results):
        assert np.array_equal(ours, ref)


@pytest.mark.parametrize("seed", range(3))
def test_batched_gtsv_matches_scipy_linalg(seed):
    # one tridiagonal matrix, a Fortran-ordered block of right-hand sides
    # solved in place, with the positional overwrite flags of transport
    rng = np.random.default_rng(seed)
    n, rows = 33, 5
    dl, du = rng.standard_normal(n - 1), rng.standard_normal(n - 1)
    d = 4.0 + rng.standard_normal(n)
    b = rng.standard_normal((rows, n))
    gtsv, = get_lapack_funcs(("gtsv",), ZERO)
    results = []
    for solve in (_lapack.dgtsv, gtsv):
        out = solve(dl.copy(), d.copy(), du.copy(), b.copy().T, 1, 1, 1, 1)
        assert out[4] == 0
        results.append([_bits(a) for a in out[:4]])
    for ours, ref in zip(*results):
        assert np.array_equal(ours, ref)


def test_missing_extension_names_the_paths_tried(tmp_path, monkeypatch):
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError) as err:
        _lapack._load_flapack()
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        assert str(tmp_path / "linalg" / f"_flapack{suffix}") in str(err.value)
