import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline, PPoly

from gradflow1d import (ConfigurationError, DegenerateQuantileError,
                        GridDensity, Interval, JkoConfig, MobilityMapEnergy,
                        MobilitySpec, MonotonicityError, boltzmann_entropy,
                        densities_from_maps, map_from_density, run,
                        transport)
from gradflow1d.transport import (MASS_TOL, _bracketed_inverse,
                                  _spline_coefficients, w2sq_between_maps)
from quantiles import cdf_at_edges, mass, p1_cdf, quantile, wasserstein2

UNIT = Interval(0.0, 1.0)


def positive_density(values, domain=UNIT):
    return GridDensity.from_samples(domain, values)


def pushforward(x, m, domain=UNIT):
    """The pushforward of one map: the one-row block of densities_from_maps."""
    return GridDensity(domain, densities_from_maps(domain, x[None], m)[0])


@st.composite
def densities(draw, m=32, domain=UNIT):
    vals = draw(st.lists(st.floats(0.05, 10.0), min_size=m, max_size=m))
    return positive_density(np.array(vals), domain)


# --- construction and validation ------------------------------------------

def test_interval_rejects_empty():
    with pytest.raises(ConfigurationError):
        Interval(1.0, 1.0)


@pytest.mark.parametrize("lo, hi", [(0.0, np.inf), (-np.inf, 0.0),
                                    (-np.inf, np.inf), (-1e308, 1e308)])
def test_interval_rejects_infinite_ends_and_length(lo, hi):
    with pytest.raises(ConfigurationError, match="finite ends and length"):
        Interval(lo, hi)


def test_density_mass_check_fails_a_nan_mass():
    # abs(nan - 1) > MASS_TOL is False: a NaN mass passed the check
    nan_length = SimpleNamespace(length=np.nan)
    with pytest.raises(ConfigurationError, match="mass differs from 1"):
        GridDensity(nan_length, np.ones(16))


def test_density_requires_unit_mass():
    with pytest.raises(ConfigurationError):
        GridDensity(UNIT, np.full(16, 2.0))


def test_density_rejects_negative_and_small():
    with pytest.raises(ConfigurationError):
        GridDensity(UNIT, np.array([1.0] * 8 + [-0.5] + [1.0] * 7))
    with pytest.raises(ConfigurationError):
        GridDensity(UNIT, np.ones(4))


@pytest.mark.parametrize("width", [0.0, -0.1, float("inf"), float("nan")])
def test_bump_rejects_width_not_finite_positive(width):
    # a zero width divided by zero and returned the bare uniform background
    with pytest.raises(ConfigurationError, match="width"):
        GridDensity.bump(UNIT, 64, width=width)


@pytest.mark.parametrize("center, width", [(5.0, None), (-0.3, 0.5),
                                           (None, 1e9)])
def test_bump_rejects_constant_samples(center, width):
    # missing every cell, or flat across the grid, it was the bare uniform
    # background
    with pytest.raises(ConfigurationError, match="constant on the grid"):
        GridDensity.bump(UNIT, 32, center=center, width=width)
    assert np.ptp(GridDensity.bump(UNIT, 32, center=1.2, width=0.5).values) > 0


def test_from_samples_normalizes():
    u = positive_density(np.random.default_rng(0).uniform(0.1, 2.0, 64))
    assert abs(mass(u) - 1.0) < 1e-12


@pytest.mark.parametrize("make, match", [
    (lambda: GridDensity(UNIT, [1.0] * 7 + [np.inf]), "non-finite"),
    (lambda: GridDensity.from_samples(UNIT, np.zeros(8)), "zero-mass"),
    (lambda: GridDensity.cosine(UNIT, 8, eps=1.0), "amplitude"),
    (lambda: map_from_density(GridDensity.uniform(UNIT, 8), 7), "K >= 8"),
], ids=["non_finite_sample", "zero_mass", "cosine_eps", "k_below_8"])
def test_invalid_input_rejected(make, match):
    with pytest.raises(ConfigurationError, match=match):
        make()


def test_map_requires_monotone_positions():
    # the node check of both converters, on a one-row block
    pos = np.linspace(0, 1, 17)
    pos[5] = pos[4]
    with pytest.raises(MonotonicityError):
        densities_from_maps(UNIT, pos[None], 16)
    # a NaN node, interior or at an end, fails the gap test too
    for node in (5, 0, -1):
        nan = np.linspace(0, 1, 17)
        nan[node] = np.nan
        with pytest.raises(MonotonicityError):
            densities_from_maps(UNIT, nan[None], 16)


def test_map_from_density_repairs_the_minimum_spacing():
    # one cell holds all but about 3e-5 of the mass, which the P1
    # reconstruction spreads as a tent over the two pieces meeting at its
    # midpoint, so the interior levels near the tent's peak land closer than
    # the minimum gap: the repair spreads those nodes 2 gaps apart (29,214
    # of the K gaps) and keeps them in the domain
    m = k = 32768
    values = np.full(m, 1e-9)
    values[m // 2] = 1.0
    x = map_from_density(positive_density(values), k)
    gaps = np.diff(x)
    assert (gaps > UNIT.gap).all()
    assert UNIT.lo <= x[0] and x[-1] <= UNIT.hi
    assert np.isclose(gaps, 2 * UNIT.gap, rtol=1e-6, atol=0).sum() == 29214


# --- the P1 quantile map ------------------------------------------------------

def assert_p1_quantile(u, k):
    """Check u's quantile map at K cells against the P1 oracle and return
    its nodes: each reaches its level j/K to 4 eps plus the oracle CDF's
    change across 4 ulps of the node, which no node moved by the gap repair
    (at least a gap, 1e-9 of the domain) meets; the end nodes are the
    support edges."""
    x = map_from_density(u, k)
    cdf, density = p1_cdf(u, x)
    eps = np.finfo(float).eps
    levels = np.arange(k + 1) / k
    assert np.all(np.abs(cdf - levels) <= 4 * eps * (1 + density * np.abs(x)))
    support = np.flatnonzero(u.values)
    assert x[0] == u.edges[support[0]] and x[-1] == u.edges[support[-1] + 1]
    return x


def with_empty_cells(values, cells):
    values = np.array(values, dtype=float)
    values[cells] = 0.0
    return positive_density(values)


@pytest.mark.parametrize("u", [
    GridDensity.cosine(UNIT, 64, eps=0.9, k=1),
    GridDensity.cosine(UNIT, 64, eps=0.5, k=3),
    GridDensity.bump(Interval(-2.0, 3.5), 64, center=0.3),
    *(positive_density(np.random.default_rng(seed).lognormal(0.0, 2.0, 64))
      for seed in range(3)),
    with_empty_cells(np.random.default_rng(3).uniform(0.05, 10.0, 64), 20),
    with_empty_cells(1.0 + 0.5 * np.cos(np.arange(64)), 31),
    # level 1/2 lands on the empty cell's midpoint, where r = a = 0
    with_empty_cells(np.ones(9), 4)],
    ids=["cosine_k1", "cosine_k3", "bump_shifted", "lognormal0",
         "lognormal1", "lognormal2", "empty_cell_uniform", "empty_cell_cos",
         "empty_centre_cell"])
@pytest.mark.parametrize("k", [8, 64, 1000])
def test_map_from_density_is_the_exact_p1_quantile(u, k):
    # measured: at most 2.0 of the bound's 4 eps-units
    assert_p1_quantile(u, k)


def test_map_from_density_of_a_linear_density_is_closed_form():
    # rho = 1/2 + x on [0, 1] is linear, so its P1 reconstruction is rho
    # itself between the first and last midpoints and rho at those
    # midpoints on the end half-cells: its quantile is linear there and the
    # root of one quadratic between them.  Measured: within 2.2e-16
    m, k = 64, 1000
    u = positive_density(0.5 + (np.arange(m) + 0.5) / m)
    h, s = 1.0 / m, np.arange(k + 1) / k
    first, last = 0.5 + h / 2, 1.5 - h / 2
    below = first * h / 2
    c = s - below + h / 4 + h * h / 8
    ref = np.where(s <= below, s / first, -0.5 + np.sqrt(0.25 + 2 * c))
    ref = np.where(1 - s <= last * h / 2, 1 - (1 - s) / last, ref)
    x = map_from_density(u, k)
    assert np.abs(x - ref).max() <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("m, k, empty", [(8, 1024, [0]), (64, 4096, [0, -1])],
                         ids=["first", "both"])
def test_empty_end_cells_pin_the_ends_to_the_support_edges(m, k, empty):
    # the reconstruction covers the support only, so no mass leaks into an
    # empty end cell; the nodes increase strictly, by more than the repair's
    # 2 gaps, and are exact (assert_p1_quantile), so the repair never fired
    x = assert_p1_quantile(
        with_empty_cells(1.0 + 0.5 * np.cos(np.arange(m)), empty), k)
    assert np.diff(x).min() > 2 * UNIT.gap


# --- quantile --------------------------------------------------------------

def test_quantile_uniform_identity():
    u = GridDensity.uniform(UNIT, 32)
    np.testing.assert_allclose(quantile(u, [0.0, 0.5, 1.0]), [0.0, 0.5, 1.0],
                               atol=1e-14)


def test_quantile_of_compressed_uniform():
    # density 2 on [0, 0.5]: CDF(x) = 2x, so the median sits at 0.25
    u = GridDensity(Interval(0.0, 0.5), np.full(16, 2.0))
    assert quantile(u, [0.5])[0] == pytest.approx(0.25, abs=1e-14)


def test_quantile_level_zero_is_support_infimum():
    vals = np.concatenate([np.zeros(8), np.ones(24)])
    u = positive_density(vals)
    assert quantile(u, [0.0])[0] == pytest.approx(0.25, abs=1e-12)


def test_quantile_rejects_bad_levels():
    u = GridDensity.uniform(UNIT, 16)
    with pytest.raises(ConfigurationError):
        quantile(u, [1.5])


def test_quantile_plateau_resolves_to_left_edge():
    vals = np.concatenate([np.ones(8), np.zeros(16), np.ones(8)])
    u = positive_density(vals)
    assert quantile(u, [0.5])[0] == pytest.approx(0.25, abs=1e-12)


# --- wasserstein2 ----------------------------------------------------------

def test_w2_identical_is_zero():
    u = GridDensity.cosine(UNIT, 64)
    assert wasserstein2(u, u) == 0.0


def test_w2_translation_of_uniform():
    dom = Interval(0.0, 2.0)
    left = positive_density(np.concatenate([np.ones(32), np.zeros(32)]), dom)
    right = positive_density(np.concatenate([np.zeros(32), np.ones(32)]), dom)
    assert wasserstein2(left, right) == pytest.approx(1.0, abs=1e-10)


def test_w2_uniform_to_compressed():
    u = GridDensity.uniform(UNIT, 256)
    v = positive_density(np.concatenate([np.full(128, 2.0), np.zeros(128)]))
    assert wasserstein2(u, v) == pytest.approx(np.sqrt(1 / 12), abs=1e-6)


def test_w2_domain_mismatch():
    with pytest.raises(ConfigurationError):
        wasserstein2(GridDensity.uniform(UNIT, 16),
                     GridDensity.uniform(Interval(0, 2), 16))


@settings(max_examples=40, deadline=None)
@given(densities(), densities())
def test_w2_symmetry_exact(u, v):
    assert wasserstein2(u, v) == wasserstein2(v, u)


@settings(max_examples=25, deadline=None)
@given(densities(), densities(), densities())
def test_w2_triangle_inequality(u, v, w):
    assert wasserstein2(u, w) <= wasserstein2(u, v) + wasserstein2(v, w) + 1e-12


def test_w2_grid_translation_is_exact():
    rng = np.random.default_rng(3)
    base = np.concatenate([rng.uniform(0.5, 2.0, 64), np.zeros(192)])
    u = positive_density(base)
    shift = 64  # cells = 0.25 length units
    v = positive_density(np.roll(base, shift))
    assert wasserstein2(u, v) == pytest.approx(0.25, abs=1e-9)


@pytest.mark.parametrize("k", [1, 2, 7, 64, 129, 1024])
def test_w2sq_batched_matches_single_pairs(k):
    rng = np.random.default_rng(k)
    xa = np.sort(rng.uniform(0.0, 1.0, (5, 3, k + 1)), axis=-1)
    xb = np.sort(rng.uniform(0.0, 1.0, (3, k + 1)), axis=-1)
    batched = w2sq_between_maps(xa, xb)  # xb broadcast over the first axis
    assert batched.shape == (5, 3)
    for idx in np.ndindex(5, 3):
        d = xa[idx] - xb[idx[1]]
        single = (1.0 / k / 3.0) * np.sum(d[:-1] ** 2 + d[:-1] * d[1:]
                                          + d[1:] ** 2)
        assert np.array_equal(batched[idx], single)  # bitwise
        assert isinstance(w2sq_between_maps(xa[idx], xb[idx[1]]), float)


# --- entropy ----------------------------------------------------------------

def test_entropy_uniform_values():
    uniform = GridDensity.uniform(UNIT, 32)
    assert boltzmann_entropy(uniform, uniform.values) == 0.0
    half = GridDensity(Interval(0.0, 0.5), np.full(16, 2.0))
    assert boltzmann_entropy(half, half.values) == pytest.approx(np.log(2),
                                                                abs=1e-12)
    wide = GridDensity.uniform(Interval(0.0, 2.0), 32)
    assert boltzmann_entropy(wide, wide.values) == pytest.approx(-np.log(2),
                                                                abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(densities())
def test_entropy_minimized_by_uniform(u):
    assert boltzmann_entropy(u, u.values) >= -1e-12


# --- map <-> density --------------------------------------------------------

def test_map_from_uniform_density():
    u = GridDensity.uniform(UNIT, 32)
    x = map_from_density(u, 8)
    np.testing.assert_allclose(x, np.linspace(0, 1, 9), atol=1e-10)


def test_map_quantiles_of_compressed_uniform():
    u = GridDensity(Interval(0.0, 0.5), np.full(16, 2.0))
    x = map_from_density(u, 8)
    np.testing.assert_allclose(x, np.linspace(0, 0.5, 9), atol=1e-10)


def test_density_from_linear_map_is_uniform():
    v = pushforward(np.linspace(0, 1, 33), 32)
    np.testing.assert_allclose(v.values, 1.0, atol=1e-10)
    assert abs(mass(v) - 1.0) < 1e-10


def test_round_trip():
    u = GridDensity.cosine(UNIT, 256, eps=0.5, k=2)
    v = pushforward(map_from_density(u, 256), 256)
    assert np.max(np.abs(v.values - u.values)) < 1e-4


def test_map_from_density_degenerate_plateau():
    vals = np.concatenate([np.ones(8), np.zeros(16), np.ones(8)])
    with pytest.raises(DegenerateQuantileError):
        map_from_density(positive_density(vals), 16)


@settings(max_examples=20, deadline=None)
@given(densities())
def test_round_trip_property(u):
    v = pushforward(map_from_density(u, 64), u.m)
    # rough samples smear over a few cells; compare in transport distance
    assert wasserstein2(u, v) < 3 * u.h
    assert abs(mass(v) - 1.0) < 1e-10


# --- bracketed inversion ----------------------------------------------------

def ppoly_columns(knots, coefficients):
    """(value, slope) of each row's spline at its own row of points, by
    scipy's PPoly on the (4, rows, K) coefficients of _spline_coefficients
    (1-D points for one row)."""
    polys = [PPoly(np.ascontiguousarray(coefficients[:, j]), knots)
             for j in range(coefficients.shape[1])]

    def pair(t):
        rows = np.reshape(t, (len(polys), -1))
        return tuple(np.array([p(r, nu) for p, r in zip(polys, rows)])
                     .reshape(np.shape(t)) for nu in (0, 1))
    return pair


def fixed_sweeps(spline, target, x, lo, hi, slope_floor, sweeps):
    """Plain clipped Newton sweeps over [lo, hi] from x, where spline(x)
    returns (value, slope): (result, value at x, value at the result)."""
    start = spline(x)[0]
    for _ in range(sweeps):
        value, slope = spline(x)
        x = np.clip(x - (value - target) / np.maximum(slope, slope_floor),
                    lo, hi)
    return x, start, spline(x)[0]


def pushforward_inversion(x, m, domain=UNIT):
    """Arguments (without the sweep count) of the clipped Newton sweeps that
    invert a block of maps x (one map or rows of maps) at the edges of an
    M-cell grid: the block's not-a-knot splines, the edges clipped into
    each map's range and the piecewise-linear inverse as the start."""
    pos = transport._checked_nodes(domain, np.atleast_2d(x))
    levels = np.linspace(0.0, 1.0, pos.shape[-1])
    spline = ppoly_columns(levels, _spline_coefficients(levels, pos))
    edges = np.linspace(domain.lo, domain.hi, m + 1)
    target = np.clip(edges, pos[:, :1], pos[:, -1:])
    linear = np.array([np.interp(edges, p, levels) for p in pos])
    return spline, target, linear, 0.0, 1.0, 1e-14


def newton_pushforward(x, m):
    """Cell values of the pushforwards of a block of maps on UNIT through 30
    clipped Newton sweeps over the whole block: the reference the bracketed
    solve must agree with on smooth maps.  The fallback, wall pins and
    monotone repair are those of densities_from_maps."""
    args = pushforward_inversion(x, m)
    target, linear = args[1:3]
    s, start, end = fixed_sweeps(*args, 30)
    s = np.where(np.abs(end - target) > np.abs(start - target) + 1e-15,
                 linear, s)
    pos, edges = np.atleast_2d(x), np.linspace(0.0, 1.0, m + 1)
    s = np.where(edges <= pos[:, :1], 0.0, s)
    s = np.where(edges >= pos[:, -1:], 1.0, s)
    s = np.maximum.accumulate(np.clip(s, 0.0, 1.0), axis=-1)
    return np.maximum(np.diff(s, axis=-1) * m, 0.0)


def bracketed_solves(call):
    """(arguments, result) of every bracketed solve call() makes."""
    seen = []

    def spy(*args):
        seen.append((args, _bracketed_inverse(*args)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "_bracketed_inverse", spy)
        call()
    return seen


def plain_bracketed(knots, coefficients, interval, target, start):
    """The bracketed solve one entry at a time, in Python floats: the loop
    _bracketed_inverse must reproduce bitwise, as (result, start residual,
    result residual)."""
    out = np.empty((3,) + interval.shape)
    for idx in np.ndindex(interval.shape):
        i = int(interval[idx])
        c0, c1, c2, c3 = coefficients[:, idx[0], i].tolist()
        c3 = c3 - float(target[idx])
        left, a, b = float(knots[i]), 0.0, float(knots[i + 1] - knots[i])
        t = min(max(float(start[idx]) - left, a), b)
        r = r_start = ((c0 * t + c1) * t + c2) * t + c3
        for _ in range(transport.BRACKET_ITERATIONS):
            a, b = (t, b) if r <= 0.0 else (a, t)
            newton = t - r / max((3.0 * c0 * t + 2.0 * c1) * t + c2, 1e-14)
            t_new = newton if a <= newton <= b else 0.5 * (a + b)
            step, t = t_new - t, t_new
            r = ((c0 * t + c1) * t + c2) * t + c3
            if abs(step) <= 4 * np.finfo(float).eps:
                break
        out[(slice(None), *idx)] = left + t, r_start, r
    return out


def assert_exact(args):
    got = _bracketed_inverse(*args)[:3]
    for a, b in zip(got, plain_bracketed(*args)):
        assert np.array_equal(a, b)


def assert_brackets_hold(args, result, values):
    # the spline's values at the knots (`values`, one row per spline) bracket
    # each target, and each result lies between its interval's knots
    knots, _, interval, target, _ = args
    assert np.all(np.take_along_axis(values, interval, -1) <= target)
    assert np.all(target <= np.take_along_axis(values, interval + 1, -1))
    assert np.all((knots[interval] <= result[0])
                  & (result[0] <= knots[interval + 1]))


def rough_map(seed, k=64):
    """Nodes of a map on UNIT with lognormal gaps; the last node can lie a
    few ulps outside the domain."""
    gaps = np.random.default_rng(seed).lognormal(0.0, 2.0, k)
    return np.concatenate([[0.0], np.cumsum(gaps)]) / gaps.sum()


@settings(max_examples=20, deadline=None)
@given(densities())
def test_newton_inverse_exact_on_rough_densities(u):
    # one bracketed solve on the pushforward of the density's quantile map;
    # it holds its brackets and is the plain loop bitwise
    x = map_from_density(u, 64)
    ((args, result),) = bracketed_solves(
        lambda: densities_from_maps(UNIT, x[None], u.m))
    assert_brackets_hold(args, result, x[None])
    assert_exact(args)


@pytest.mark.parametrize("seed", range(2, 6))
def test_newton_inverse_exact_on_rough_maps(seed):
    ((args, (_, r_start, r_end, _)),) = bracketed_solves(
        lambda: densities_from_maps(UNIT, rough_map(seed)[None], 50))
    assert_exact(args)
    # the spline is non-monotone here: plain Newton sweeps from the
    # piecewise-linear start can end with a larger residual than the
    # start's, and need the fallback to it; the bracketed solve does not
    sweeps = pushforward_inversion(rough_map(seed), 50)
    spline, target, linear = sweeps[:3]
    s = fixed_sweeps(*sweeps, 30)[0]
    assert np.any(np.abs(spline(s)[0] - target)
                  > np.abs(spline(linear)[0] - target) + 1e-15)
    assert np.all(np.abs(r_end) <= np.abs(r_start))


def test_newton_inverse_exact_on_a_batch():
    # one solve for the whole batch, on a 2-D array of edges
    pos = np.array([rough_map(seed) for seed in range(2, 7)])
    ((args, _),) = bracketed_solves(lambda: densities_from_maps(UNIT, pos, 50))
    assert args[2].shape == (5, 51)
    assert_exact(args)


# --- bracketed pushforward solve --------------------------------------------

def pushforward_cases():
    """(maps, M): rough maps (non-monotone splines) and smooth ones."""
    rough = np.array([rough_map(seed) for seed in range(2, 10)])
    smooth = np.array([map_from_density(GridDensity.cosine(UNIT, 256, 0.5, j),
                                        256) for j in (1, 2, 3)])
    return [(rough, 50), (rough, 200), (smooth, 256), (smooth, 100)]


@pytest.mark.parametrize("x, m", pushforward_cases())
def test_pushforward_roots_stay_in_their_knot_intervals(x, m):
    ((args, result),) = bracketed_solves(
        lambda: densities_from_maps(UNIT, x, m))
    knots, _, _, target, start = args
    s, r_start, r_end, _ = result
    # the edge lies between the interval's nodes, its level between the
    # interval's knots
    nodes = transport._checked_nodes(UNIT, x)
    assert_brackets_hold(args, result, nodes)
    # every residual is at most the piecewise-linear start's, also on
    # scipy's spline through the nodes, up to its rounding
    assert np.all(np.abs(r_end) <= np.abs(r_start))
    splines = [CubicSpline(knots, p) for p in nodes]
    end = np.array([f(v) for f, v in zip(splines, s)]) - target
    first = np.array([f(v) for f, v in zip(splines, start)]) - target
    assert np.all(np.abs(end) <= np.abs(first) + 1e-15)


@pytest.mark.parametrize("energy", [
    MobilityMapEnergy(MobilitySpec.identity()),
    MobilityMapEnergy(MobilitySpec.sqrt_mobility())])
@pytest.mark.parametrize("k", [64, 1024])
@pytest.mark.parametrize("mode", [2, 3])
def test_pushforward_matches_newton_sweeps_on_smooth_maps(energy, k, mode):
    u0 = GridDensity.cosine(UNIT, k, eps=0.5, k=mode)
    traj = run(u0, energy, JkoConfig(tau=1e-5, n_steps=4, k=k))
    ref = newton_pushforward(traj.positions, k)
    got = densities_from_maps(UNIT, traj.positions, k)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def near_uniform(k):
    x = np.linspace(0.0, 1.0, k + 1)
    x[1:-1] += 1e-9 * np.sin(3 * np.pi * x[1:-1])
    return x[None]


def relaxed_maps():
    # the last states of a thin-film run toward equilibrium (energy ~ 1e-21)
    u0 = GridDensity.cosine(UNIT, 128, eps=0.5, k=3)
    traj = run(u0, MobilityMapEnergy(MobilitySpec.identity()),
               JkoConfig(tau=1e-4, n_steps=300, k=64))
    return traj.positions[-30:]


@pytest.mark.parametrize("maps, m", [
    (lambda: near_uniform(1024), 1024), (lambda: near_uniform(64), 128),
    (lambda: near_uniform(256), 256), (relaxed_maps, 128)],
    ids=["k1024", "k64_m128", "k256", "relaxed"])
def test_pushforward_solve_ends_quickly_near_equilibrium(maps, m):
    # entries that cycle in rounding noise never repeat exactly, so a stop
    # on exact repetition would run every block to the iteration cap here
    x = maps()
    ((_, (*_, iterations)),) = bracketed_solves(
        lambda: densities_from_maps(UNIT, x, m))
    assert iterations <= 3


def test_batch_matches_one_map_at_a_time():
    # rough maps make non-monotone splines, on which the fallback fires
    pos = np.array([rough_map(seed) for seed in range(2, 10)])
    for m in (50, 64, 200):
        batch = densities_from_maps(UNIT, pos, m)
        assert batch.shape == (len(pos), m)
        for x, v in zip(pos, batch):
            assert np.array_equal(v, densities_from_maps(UNIT, x[None], m)[0])


def test_end_node_one_ulp_outside_is_clipped():
    # the lognormal map of seed 0 at K = 9 ends 1 ulp above the domain; its
    # end node is clipped onto the wall before resampling, as within 1e-12
    x = rough_map(0, 9)
    assert x[-1] == np.nextafter(1.0, 2.0)
    v = densities_from_maps(UNIT, x[None], 9)[0]
    assert abs(v.sum() / 9 - 1.0) <= MASS_TOL
    on_wall = x.copy()
    on_wall[-1] = 1.0
    assert np.array_equal(v, densities_from_maps(UNIT, on_wall[None], 9)[0])
    x[-1] = 1.0 + 1e-9
    with pytest.raises(ConfigurationError, match="leave the domain"):
        densities_from_maps(UNIT, x[None], 9)


def test_batch_checks_nodes_and_states():
    # the node check and the states' mass check, once per block
    pos = np.array([rough_map(seed) for seed in range(2, 5)])
    close = pos.copy()
    close[1, 5] = close[1, 4] + 0.5 * UNIT.gap
    with pytest.raises(MonotonicityError):
        densities_from_maps(UNIT, close, 50)
    for row, col in ((1, 5), (2, 0), (0, -1)):  # interior and end nodes
        nan = pos.copy()
        nan[row, col] = np.nan
        with pytest.raises(MonotonicityError):
            densities_from_maps(UNIT, nan, 50)
    for row, col, shift in ((2, 0, -1e-9), (0, -1, 1e-9)):
        out = pos.copy()
        out[row, col] += shift
        with pytest.raises(ConfigurationError, match="leave the domain"):
            densities_from_maps(UNIT, out, 50)
    # a non-finite inversion (injected) fails the states' mass check
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "_bracketed_inverse",
                   lambda knots, coefficients, interval, target, start:
                   (np.full(start.shape, np.nan),) * 3 + (1,))
        with pytest.raises(ConfigurationError, match="mass differs from 1"):
            densities_from_maps(UNIT, pos, 50)


# --- spline evaluation in the solve -----------------------------------------

def evaluation_points(x, rng):
    """Every breakpoint, their neighbours on both sides, points beyond both
    ends and random interior points."""
    span = x[-1] - x[0]
    return np.concatenate([
        x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
        [x[0] - 0.3 * span, x[-1] + 0.3 * span],
        rng.uniform(x[0], x[-1], 100)])


def row_major(spline):
    """A CubicSpline's coefficients as (4, columns, intervals)."""
    c = spline.c.reshape(4, spline.c.shape[1], -1)
    return np.ascontiguousarray(c.transpose(0, 2, 1))


def assert_matches_ppoly(spline, t):
    # the bracketed solve's start residuals for target 0 are its spline's
    # values at the points clipped into their knot intervals; row j of t is
    # evaluated in column j, a 1-D t by a one-column spline.  Both sides are
    # Horner-type sums, each within 6 eps of the sum of its absolute terms
    rows = np.atleast_2d(t)
    knots, c = spline.x, row_major(spline)
    interval = np.clip(np.searchsorted(knots, rows, side="right") - 1,
                       0, knots.size - 2)
    residual = _bracketed_inverse(knots, c, interval, np.zeros(rows.shape),
                                  rows)[1]
    points = np.clip(rows, knots[interval], knots[interval + 1])
    local = points - knots[interval]
    terms = sum(np.abs(np.take_along_axis(c[j], interval, -1)) * local
                ** (3 - j) for j in range(4))
    for j, (r, p) in enumerate(zip(residual, points)):
        ref = spline(p)
        if ref.ndim == 2:
            ref = ref[:, j]
        assert np.all(np.abs(r - ref) <= 12 * np.finfo(float).eps * terms[j])


def test_evaluator_matches_ppoly_on_not_a_knot_splines():
    rng = np.random.default_rng(0)
    levels = np.linspace(0.0, 1.0, 65)
    pos = np.array([rough_map(seed) for seed in range(2, 8)])
    multi = CubicSpline(levels, pos.T)
    assert_matches_ppoly(multi, np.array(
        [evaluation_points(levels, rng) for _ in pos]))
    for p in pos:
        assert_matches_ppoly(CubicSpline(levels, p),
                             evaluation_points(levels, rng))


@pytest.mark.parametrize("u", [GridDensity.cosine(UNIT, 64, eps=0.9, k=1),
                               GridDensity.bump(UNIT, 128),
                               positive_density(np.random.default_rng(1)
                                                .uniform(0.05, 10.0, 32))],
                         ids=["cosine", "bump", "rough"])
def test_evaluator_matches_ppoly_on_clamped_splines(u):
    v = u.values
    spline = CubicSpline(u.edges, cdf_at_edges(u),
                         bc_type=((1, v[0]), (1, v[-1])))
    assert_matches_ppoly(spline, evaluation_points(u.edges,
                                                   np.random.default_rng(2)))


# --- spline builder ---------------------------------------------------------

def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("k", [8, 9, 64, 1024])
@pytest.mark.parametrize("rows", [1, 3, 16])
def test_builder_matches_not_a_knot_cubic_spline(k, rows):
    levels = np.linspace(0.0, 1.0, k + 1)
    pos = np.array([rough_map(seed, k) for seed in range(rows)])
    assert_same_bits(_spline_coefficients(levels, pos),
                     row_major(CubicSpline(levels, pos.T)))


@pytest.mark.parametrize("call", [
    "_spline_coefficients(np.linspace(0, 1, 41), np.empty((0, 41)))",
    "densities_from_maps(Interval(0, 1), np.empty((0, 41)), 48)"],
    ids=["spline", "pushforward"])
def test_empty_block_is_rejected_before_the_solve(call, child_env):
    # gtsv given a zero-column right-hand side left the interpreter to die
    # with SIGSEGV at exit (code -11), after the call had returned or raised
    # a broadcasting error; in a child, so that such a crash fails the test
    code = ("import numpy as np\n"
            "from gradflow1d.transport import (Interval, "
            "_spline_coefficients, densities_from_maps)\n"
            "try:\n"
            f"    {call}\n"
            "except ValueError as exc:\n"
            "    assert 'no spline rows' in str(exc), exc\n"
            "else:\n"
            "    raise SystemExit('no error')\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=child_env)
    assert proc.returncode == 0, proc.stderr.decode()


def quantile_maps(values, k):
    """The quantile map of each row of grid values on UNIT (None where a
    detached wall left a vacuum the quantile map rejects)."""
    out = []
    for v in values:
        try:
            out.append(map_from_density(GridDensity(UNIT, v), k))
        except DegenerateQuantileError:
            out.append(None)
    return out


def p1_newton_sweeps(u, k):
    """u's quantile map at K cells by 50 plain Newton sweeps on the P1
    oracle's CDF, clipped to the support, from the piecewise-constant
    quantile: an inversion independent of the closed form."""
    levels = np.linspace(0.0, 1.0, k + 1)
    x = quantile(u, levels)
    for _ in range(50):
        cdf, density = p1_cdf(u, x)
        x = np.clip(x - (cdf - levels) / np.maximum(density, 1e-300),
                    x[0], x[-1])
    return x


def assert_maps_match_newton_sweeps(values, k):
    # within 1e-12 of the Newton sweeps; a state is rejected exactly when
    # two adjacent interior cells are empty
    for x, v in zip(quantile_maps(values, k), values):
        empty = np.asarray(v)[1:-1] <= 0
        assert (x is None) == bool(np.any(empty[:-1] & empty[1:]))
        if x is not None:
            ref = p1_newton_sweeps(GridDensity(UNIT, v), k)
            assert np.max(np.abs(x - ref)) <= 1e-12


@pytest.mark.parametrize("energy", [
    MobilityMapEnergy(MobilitySpec.identity()),
    MobilityMapEnergy(MobilitySpec.sqrt_mobility())])
@pytest.mark.parametrize("k", [64, 1024])
@pytest.mark.parametrize("mode", [2, 3])
def test_conversions_match_fixed_sweeps_on_trajectories(energy, k, mode):
    # every state's quantile map; the states' pushforwards are compared with
    # the sweeps in test_pushforward_matches_newton_sweeps_on_smooth_maps
    u0 = GridDensity.cosine(UNIT, k, eps=0.5, k=mode)
    traj = run(u0, energy, JkoConfig(tau=1e-5, n_steps=4, k=k))
    assert_maps_match_newton_sweeps(traj.values, k)


@pytest.mark.parametrize("k", [64, 256, 1024])
@pytest.mark.parametrize("make", [
    lambda k: GridDensity.cosine(UNIT, k, eps=0.99, k=1),
    lambda k: GridDensity.cosine(UNIT, k, eps=0.1, k=5),
    lambda k: GridDensity.bump(UNIT, k)], ids=["cosine_k1", "cosine_k5",
                                               "bump"])
def test_quantile_map_matches_newton_sweeps_on_smooth_data(make, k):
    assert_maps_match_newton_sweeps([make(k).values], k)
