import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradflow1d
from gradflow1d import (ConfigurationError, GridDensity, Interval,
                        MobilitySpec, TemporalWeight, TestFunction,
                        alpha_window, dissipation_constants,
                        validate_assumption_f)
from gradflow1d.lagrangian import nf_density

UNIT = Interval(0.0, 1.0)
IDENTITY = MobilitySpec.identity()  # thin film in the mobility class


def staggered_gradient_quadrature(w, h):
    """1/2 int |w'|^2 using interface differences (zero at the walls).

    With this stencil the discrete integration by parts against the 3-point
    Neumann Laplacian is exact.
    """
    dw = np.diff(w) / h
    return float(0.5 * h * np.sum(dw * dw))


def energy_mobility(f, u):
    """1/2 int |(f o u)'|^2 by the staggered quadrature of f o u."""
    return staggered_gradient_quadrature(f.f(np.maximum(u.values, 0.0)), u.h)


def weak_operator_Nf(f, u, phi):
    """int N_f(u, phi): the midpoint sum of nf_density."""
    return float(u.h * np.sum(nf_density(f, u, phi, u.values)))


def constant_phi(lo, hi):
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return TestFunction(lo, hi, f=lambda x: np.ones_like(np.asarray(x, float)),
                        d1=zero, d2=zero)


# --- test functions and weights --------------------------------------------

def test_cosine_test_function_is_neumann():
    phi = TestFunction.cosine(0, 1, k=3)
    assert phi.d1(0.0) == 0.0 and phi.d1(1.0) == pytest.approx(0.0, abs=1e-12)


def test_non_neumann_function_rejected():
    with pytest.raises(ConfigurationError):
        TestFunction(0, 1, f=np.sin, d1=np.cos, d2=lambda x: -np.sin(x))


def test_temporal_weight_bump():
    eta = TemporalWeight.smooth_bump(0.2, 0.8)
    assert eta(0.0) == 0.0
    assert eta(0.5) == pytest.approx(1.0, abs=1e-12)
    assert eta(0.9) == 0.0 and eta(0.1) == 0.0


def test_temporal_weight_must_avoid_origin():
    with pytest.raises(ConfigurationError):
        TemporalWeight.smooth_bump(-0.1, 0.5)


# --- energies ---------------------------------------------------------------

def test_thin_film_energy_uniform_zero():
    assert energy_mobility(IDENTITY, GridDensity.uniform(UNIT, 64)) == 0.0


def test_thin_film_energy_cosine_mode():
    # u = 1 + 0.5 cos(2 pi x): 0.5 int u'^2 = pi^2 / 4
    u = GridDensity.cosine(UNIT, 256, eps=0.5, k=2)
    assert energy_mobility(IDENTITY, u) == pytest.approx(np.pi ** 2 / 4,
                                                         rel=1e-3)


def test_mobility_energy_identity_matches_thin_film():
    # thin film F = p^2 / 2 on the interface differences of u
    u = GridDensity.cosine(UNIT, 128, eps=0.3, k=3)
    plain = 0.5 * u.h * np.sum((np.diff(u.values) / u.h) ** 2)
    assert energy_mobility(IDENTITY, u) == pytest.approx(plain, rel=1e-12)


def test_mobility_energy_uniform_zero():
    assert energy_mobility(MobilitySpec.sqrt_mobility(),
                           GridDensity.uniform(UNIT, 64)) == 0.0


def test_sqrt_energy_against_refined_quadrature():
    f = MobilitySpec.sqrt_mobility()
    coarse = GridDensity.bump(UNIT, 256)
    fine = GridDensity.bump(UNIT, 4096)
    assert energy_mobility(f, coarse) == pytest.approx(
        energy_mobility(f, fine), rel=5e-3)


def test_energy_coercivity_lower_bound():
    # thin-film energy >= c ||u'||^2 with c = 1/2, same quadrature
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = GridDensity.from_samples(UNIT, rng.uniform(0.2, 2.0, 64))
        gradsq = 2 * staggered_gradient_quadrature(u.values, u.h)
        assert energy_mobility(IDENTITY, u) >= 0.5 * gradsq - 1e-12


# --- weak operators ---------------------------------------------------------

def test_weak_operator_constant_phi_zero():
    u = GridDensity.cosine(UNIT, 64, eps=0.4, k=2)
    assert weak_operator_Nf(IDENTITY, u, constant_phi(0, 1)) == 0.0
    assert weak_operator_Nf(MobilitySpec.sqrt_mobility(), u,
                            constant_phi(0, 1)) == 0.0


def test_weak_operator_uniform_density_zero():
    u = GridDensity.uniform(UNIT, 64)
    phi = TestFunction.cosine(0, 1, k=2)
    assert weak_operator_Nf(IDENTITY, u, phi) == pytest.approx(0.0, abs=1e-12)
    assert weak_operator_Nf(MobilitySpec.sqrt_mobility(), u, phi) == \
        pytest.approx(0.0, abs=1e-10)


def test_weak_operator_thin_film_analytic_value():
    # u = 1 + a cos(wx), phi = cos(wx), w = 2 pi:
    # at f = identity, int N_f = int(u'' u' phi' + u u'' phi'') = a w^4 / 2
    a, w = 0.5, 2 * np.pi
    u = GridDensity.cosine(UNIT, 512, eps=a, k=2)
    phi = TestFunction.cosine(0, 1, k=2)
    assert weak_operator_Nf(IDENTITY, u, phi) == pytest.approx(a * w ** 4 / 2,
                                                               rel=2e-3)


def test_weak_operator_linear_in_phi():
    u = GridDensity.bump(UNIT, 128)
    p1 = TestFunction.cosine(0, 1, k=1)
    p2 = TestFunction.cosine(0, 1, k=3)
    a, b = 2.0, -0.7
    combo = TestFunction(
        0, 1,
        f=lambda x: a * p1.f(x) + b * p2.f(x),
        d1=lambda x: a * p1.d1(x) + b * p2.d1(x),
        d2=lambda x: a * p1.d2(x) + b * p2.d2(x))
    lhs = weak_operator_Nf(IDENTITY, u, combo)
    rhs = (a * weak_operator_Nf(IDENTITY, u, p1)
           + b * weak_operator_Nf(IDENTITY, u, p2))
    assert lhs == pytest.approx(rhs, rel=1e-12)


# --- validators -------------------------------------------------------------

def test_sqrt_mobility_passes_assumption_d1():
    assert validate_assumption_f(MobilitySpec.sqrt_mobility(), 1).passed


def test_linear_mobility_fails_concavity():
    rep = validate_assumption_f(MobilitySpec.power_mobility(1.0, 1.0), 1)
    assert not rep.passed
    assert rep.context["margins"]["concavity"] < 0


def test_small_power_fails_window_d2():
    rep = validate_assumption_f(MobilitySpec.power_mobility(1.0, 0.1), 2)
    assert not rep.passed
    assert rep.context["margins"]["alpha_window"] < 0


@pytest.mark.parametrize("alpha", [1e-3, 0.05, 0.5, 0.7, 0.99, 1.0])
@pytest.mark.parametrize("d", [1, 2, 8])
def test_verdict_is_independent_of_the_constant(alpha, d):
    # no clause reads C beyond 0 < C < inf: the ratio f''' f' / f''^2 is
    # free of it, also where a sample of f's derivatives would overflow
    ref = validate_assumption_f(MobilitySpec.power_mobility(1.0, alpha), d)
    for C in (1e-300, 1e-150, 1.0, 1e150, 1e300):
        rep = validate_assumption_f(MobilitySpec.power_mobility(C, alpha), d)
        assert (rep.passed, rep.context) == (ref.passed, ref.context)


@pytest.mark.parametrize("C", [1e150, 1e160, 1e200])
def test_ratio_clause_ignores_a_huge_constant(C):
    # the ratio f''' f' / f''^2 is checked as the alpha window, which does
    # not depend on f's constant factor, even where f''' f' alone overflows
    rep = validate_assumption_f(MobilitySpec.power_mobility(C, 0.7), 1)
    ref = validate_assumption_f(MobilitySpec.power_mobility(1.0, 0.7), 1)
    assert rep.passed and ref.passed
    assert rep.context["margins"]["alpha_window"] \
        == ref.context["margins"]["alpha_window"] > 0


@pytest.mark.parametrize("d", [2, 3, 8])
def test_alpha_window_boundary(d):
    amin = alpha_window(d)
    for alpha, passed in ((amin + 1e-6, True), (amin, False),
                          (amin - 1e-6, False)):
        rep = validate_assumption_f(MobilitySpec.power_mobility(1.0, alpha), d)
        assert rep.passed == passed
        assert rep.context["worst_clause"] == "alpha_window"


def test_tiny_exponent_passes_d1():
    # the window's lower end is 0 at d = 1
    rep = validate_assumption_f(MobilitySpec.power_mobility(1.0, 1e-6), 1)
    assert rep.passed and rep.context["worst_clause"] == "alpha_window"


@pytest.mark.parametrize("C", [0.0, -1.0, np.inf, np.nan])
def test_constant_must_be_finite_and_positive(C):
    rep = validate_assumption_f(MobilitySpec.power_mobility(C, 0.5), 1)
    assert not rep.passed
    assert rep.context["worst_clause"] == "constant"


@pytest.mark.parametrize("d", [1, 2, 3, 8, 50])
def test_alpha_window_is_the_ratio_bound(d):
    # (2 - a) / (1 - a) >= R(d) = 1 - d/2 + sqrt(d^2 + 8 d)/2 exactly when
    # a >= (R - 2) / (R - 1), the window's lower end
    R = 1.0 - d / 2.0 + 0.5 * np.sqrt(d ** 2 + 8.0 * d)
    assert alpha_window(d) == pytest.approx((R - 2.0) / (R - 1.0), abs=1e-14)
    for a in np.linspace(0.005, 0.995, 199):
        if abs(a - alpha_window(d)) > 1e-9:
            assert ((2 - a) / (1 - a) >= R) == (a > alpha_window(d))


def test_power_outside_unit_interval_rejected():
    with pytest.raises(ConfigurationError):
        MobilitySpec.power_mobility(1.0, 1.2)


# --- constants --------------------------------------------------------------

def test_alpha_window_values():
    assert alpha_window(1) == pytest.approx(0.0, abs=1e-14)
    assert alpha_window(2) == pytest.approx(0.75 - np.sqrt(5) / 4, abs=1e-12)
    assert alpha_window(2) == pytest.approx(0.190983, abs=1e-6)
    assert alpha_window(10 ** 9) == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(ConfigurationError):
        alpha_window(0)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 50))
def test_alpha_window_bounds(d):
    amin = alpha_window(d)
    assert 0.0 <= amin < 0.5
    assert amin >= 0.5 - 1.0 / d - 1e-12


def test_dissipation_constants():
    sq = MobilitySpec.sqrt_mobility()
    chi, delta = dissipation_constants(sq, 1)
    assert chi == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert delta == pytest.approx(0.5, abs=1e-12)
    chi8, _ = dissipation_constants(sq, 8)
    assert chi8 == pytest.approx(np.sqrt(0.5), abs=1e-12)
    # a linear mobility dissipates exactly: delta = 1
    assert dissipation_constants(IDENTITY, 1) == (chi, 1.0)
    with pytest.raises(ConfigurationError):
        # alpha = 1e-17 rounds delta_bar = (2 - a)/(1 - a) - 2 to 0
        dissipation_constants(MobilitySpec.power_mobility(1.0, 1e-17), 1)


def _delta_bar(f):
    """(2 - alpha)/(1 - alpha) - 2, the cap that the ratio bound puts on
    delta_bar for f(z) = C z^alpha."""
    return (2 - f.alpha) / (1 - f.alpha) - 2.0


def _bisected_delta(f, d):
    """delta by the 60 bisection steps on the linear condition that the
    closed form replaced."""
    delta_bar = _delta_bar(f)
    bracket = delta_bar + 1.0 - d / 2.0 + 0.5 * np.sqrt(d ** 2 + 8.0 * d) - 2.0
    lo, hi = 0.0, 1.0
    if delta_bar - bracket >= 0.0:
        return 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if delta_bar - mid * bracket >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * lo


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dissipation_delta_closed_form(d):
    # the largest delta in (0, 1] with delta_bar - delta * bracket >= 0,
    # halved; at d = 1 the bracket is delta_bar itself, so delta = 1/2
    for alpha in np.linspace(0.3, 0.99, 70):
        f = MobilitySpec.power_mobility(1.0, alpha)
        bracket = (_delta_bar(f) + 1.0 - d / 2.0
                   + 0.5 * np.sqrt(d ** 2 + 8.0 * d) - 2.0)
        delta = dissipation_constants(f, d)[1]
        assert delta == 0.5 * min(1.0, _delta_bar(f) / bracket)
        ref = _bisected_delta(f, d)
        assert abs(delta - ref) <= (0.0 if d == 1 else np.spacing(ref))


def test_thin_film_config_load_skips_scipy_stats(tmp_path):
    # loading a config must not import scipy.stats (about 0.5 s alone), so
    # that it stays out of the benchmark's setup time; the mobility configs
    # also run validate_assumption_f at load
    paths = []
    for lagrangian in ({"name": "thin_film"}, {"name": "sqrt_mobility"},
                       {"name": "power_mobility", "alpha": 0.7}):
        paths.append(tmp_path / f"{lagrangian['name']}.json")
        paths[-1].write_text(json.dumps({
            "m": 32, "k": 32, "tau": 1e-4, "n_steps": 1,
            "lagrangian": lagrangian, "out": str(tmp_path / "out")}))
    src = str(Path(gradflow1d.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from gradflow1d.cli import load_config; "
            "print(*[load_config(p).mobility.name for p in sys.argv[1:]], "
            "'scipy.stats' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, *map(str, paths)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["identity", "sqrt", "power[1.0*z^0.7]",
                                   "False"]


def test_certified_run_skips_scipy_interpolate_sparse_optimize(tmp_path):
    # a whole certified run (every check, the refinement study, the output
    # files) must not import these: keeping scipy.interpolate, .sparse and
    # .optimize out cut peak RSS from about 84 to 60 MiB, and loading the
    # LAPACK extension without scipy.linalg's package cut the resident
    # memory after importing gradflow1d.cli from about 56 to 32 MiB
    paths = []
    for lagrangian in ({"name": "thin_film"}, {"name": "sqrt_mobility"},
                       {"name": "power_mobility", "alpha": 0.7}):
        paths.append(tmp_path / f"{lagrangian['name']}.json")
        paths[-1].write_text(json.dumps({
            "m": 32, "k": 32, "tau": 1e-4, "n_steps": 10, "refine_levels": 2,
            "lagrangian": lagrangian,
            "out": str(tmp_path / lagrangian["name"])}))
    src = str(Path(gradflow1d.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    modules = ("scipy.interpolate", "scipy.sparse", "scipy.optimize",
               "scipy.linalg")
    code = ("import sys; from gradflow1d import cli; "
            "print(*[cli.execute(cli.load_config(p)) for p in sys.argv[1:]], "
            f"*[m in sys.modules for m in {modules!r}])")
    proc = subprocess.run([sys.executable, "-c", code, *map(str, paths)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"] * 3 + ["False"] * 4
    assert all((tmp_path / p.stem / "trajectory.json").exists()
               for p in paths)
