import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradflow1d
from gradflow1d import (ConfigurationError, GridDensity, Interval,
                        LagrangianSpec, MobilitySpec, TemporalWeight,
                        TestFunction, alpha_window, dissipation_constants,
                        energy, energy_mobility, validate_assumption_A,
                        validate_assumption_f, weak_operator_Nf)
from gradflow1d.lagrangian import _halton, _schur_pi_form

UNIT = Interval(0.0, 1.0)
THIN = LagrangianSpec.thin_film()
IDENTITY = MobilitySpec.identity()  # thin film in the mobility class


# --- test functions and weights --------------------------------------------

def test_cosine_test_function_is_neumann():
    phi = TestFunction.cosine(0, 1, k=3, amplitude=2.0)
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
    assert energy(THIN, GridDensity.uniform(UNIT, 64)) == 0.0


def test_thin_film_energy_cosine_mode():
    # u = 1 + 0.5 cos(2 pi x): 0.5 int u'^2 = pi^2 / 4
    u = GridDensity.cosine(UNIT, 256, eps=0.5, k=2)
    assert energy(THIN, u) == pytest.approx(np.pi ** 2 / 4, rel=1e-3)


def test_mobility_energy_identity_matches_thin_film():
    u = GridDensity.cosine(UNIT, 128, eps=0.3, k=3)
    assert energy_mobility(MobilitySpec.identity(), u) == pytest.approx(
        energy(THIN, u), rel=1e-12)


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
    # energy >= c * ||u'||^2 with the declared c, same quadrature
    from gradflow1d.lagrangian import staggered_gradient_quadrature
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = GridDensity.from_samples(UNIT, rng.uniform(0.2, 2.0, 64))
        gradsq = 2 * staggered_gradient_quadrature(u.values, u.h)
        assert energy(THIN, u) >= THIN.c * gradsq - 1e-12


# --- weak operators ---------------------------------------------------------

def test_weak_operator_constant_phi_zero():
    u = GridDensity.cosine(UNIT, 64, eps=0.4, k=2)
    assert weak_operator_Nf(IDENTITY, u, TestFunction.constant(0, 1)) == 0.0
    assert weak_operator_Nf(MobilitySpec.sqrt_mobility(), u,
                            TestFunction.constant(0, 1)) == 0.0


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

def test_thin_film_passes_assumption():
    rep = validate_assumption_A(THIN)
    assert rep.passed
    assert rep.context["gamma_observed"] >= 1.0 - 1e-9


def test_sqrt_lagrangian_fails_hessian_bound():
    spec = LagrangianSpec.from_mobility(MobilitySpec.sqrt_mobility())
    rep = validate_assumption_A(spec)
    assert not rep.passed
    assert rep.context["margins"]["hessian_gamma"] < 0


def test_quadratic_z_term_fails_upper_bound():
    bad = LagrangianSpec(
        name="bad", F=lambda x, z, p: 0.5 * p ** 2 + z ** 2,
        F_x=lambda x, z, p: np.zeros_like(p),
        F_z=lambda x, z, p: 2.0 * np.asarray(z, float),
        F_p=lambda x, z, p: np.asarray(p, float),
        hessian=THIN.hessian, gamma=1.0, c=0.5, C=0.5, D=1.0)
    rep = validate_assumption_A(bad)
    assert not rep.passed
    assert rep.context["margins"]["upper_bound"] < 0


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
        dissipation_constants(replace(sq, delta_bar=0.0), 1)


@pytest.mark.parametrize("spec", [
    THIN, LagrangianSpec.from_mobility(MobilitySpec.sqrt_mobility())])
def test_schur_step_matches_per_sample_lstsq(spec):
    # the batched Schur-complement step of validate_assumption_A against a
    # per-sample least-squares solve on its own (default-range) samples
    n = 200
    q = _halton(n, 3)
    H = spec.hessian(q[:, 0], 1e-3 + q[:, 1] * (4.0 - 1e-3),
                     -8.0 + 16.0 * q[:, 2])
    ref = np.empty(n)
    for i in range(n):
        best = np.linalg.lstsq(H[i, :2, :2], -H[i, :2, 2], rcond=None)[0]
        d = np.append(best, 1.0)
        ref[i] = d @ H[i] @ d
    scale = np.abs(H).max(axis=(1, 2))
    assert np.all(np.abs(_schur_pi_form(H) - ref) <= 1e-12 * scale)
    rep = validate_assumption_A(spec, n_samples=n)
    assert rep.context["gamma_observed"] == pytest.approx(
        ref.min(), abs=1e-12 * scale.max())


@pytest.mark.parametrize("n", [1, 200, 10_000])
def test_halton_matches_scipy(n):
    from scipy.stats import qmc
    assert np.array_equal(_halton(n, 3), qmc.Halton(d=3, seed=0).random(n))


def test_thin_film_config_load_skips_scipy_stats(tmp_path):
    # a thin-film config load must not import scipy.stats (~0.5 s alone)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"m": 32, "k": 32, "tau": 1e-4, "n_steps": 1,
                                "out": str(tmp_path / "out")}))
    src = str(Path(gradflow1d.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from gradflow1d.cli import load_config; "
            "cfg = load_config(sys.argv[1]); "
            "assert cfg.mobility.name == 'identity'; "
            "print('scipy.stats' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
