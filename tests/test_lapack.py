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
    # a random pentadiagonal system in LAPACK band storage, with BW fill-in
    # rows above the band, factored in place and solved as jko does
    rng = np.random.default_rng(seed)
    n = 40
    ab = np.zeros((3 * BW + 1, n), order="F")
    ab[BW:] = rng.standard_normal((2 * BW + 1, n))
    ab[2 * BW] += 4.0
    rhs = rng.standard_normal(n)
    gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), ZERO)
    results = []
    for factor, solve in ((_lapack.dgbtrf, _lapack.dgbtrs), (gbtrf, gbtrs)):
        lu = ab.copy(order="F")
        _, piv, info = factor(lu, BW, BW, overwrite_ab=True)
        assert info == 0
        x, info = solve(lu, BW, BW, rhs, piv)
        assert info == 0
        results.append((_bits(lu), piv, _bits(x)))
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
