"""The three LAPACK routines of the solver, taken from scipy's `_flapack`.

`dpbtrf` and `dpbtrs` Cholesky-factor and solve each JKO step's banded
symmetric positive definite Newton system (`jko`); `dgtsv` solves the tridiagonal spline systems of resampling
(`transport`).  They are the f2py functions that scipy.linalg's
`get_lapack_funcs` returns for float64 arrays, but the extension is loaded
by file: importing scipy.linalg runs its package `__init__`, which imports
about 300 more modules and adds about 24 MiB of resident memory, while the
extension alone adds about 3 MiB.  The top-level `scipy` package is
imported first (it is light, and on Windows it sets the DLL path the
extension needs).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os

import scipy


def _load_flapack():
    tried = []
    for package in scipy.__path__:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(package, "linalg", "_flapack" + suffix)
            tried.append(path)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(
                    "scipy.linalg._flapack", path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return module
    raise ImportError("scipy's LAPACK extension not found; tried "
                      + ", ".join(tried))


_flapack = _load_flapack()
dpbtrf, dpbtrs, dgtsv = _flapack.dpbtrf, _flapack.dpbtrs, _flapack.dgtsv
