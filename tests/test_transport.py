from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline, PPoly

from gradflow1d import (ConfigurationError, DegenerateQuantileError,
                        GridDensity, Interval, JkoConfig, MobilityMapEnergy,
                        MobilitySpec, MonotonicityError, boltzmann_entropy,
                        densities_from_maps, map_from_density, quantile, run,
                        transport, wasserstein2)
from gradflow1d.transport import (MASS_TOL, _bracketed_inverse,
                                  _newton_inverse, _spline_coefficients,
                                  _SplineColumns, w2sq_between_maps)

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
    assert abs(u.mass - 1.0) < 1e-12


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


@pytest.mark.parametrize("node", [1, 5, -2])
def test_map_from_density_rejects_a_nan_node(node):
    # a non-finite inversion (injected) fails the node check of the quantile
    # map; the end nodes are pinned to the support after the inversion
    u = GridDensity.cosine(UNIT, 64, eps=0.5, k=2)

    def nan_at(spline, target, x, *args):
        x, start, end = _newton_inverse(spline, target, x, *args)
        x = x.copy()
        x[node] = np.nan
        return x, start, end

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "_newton_inverse", nan_at)
        with pytest.raises(MonotonicityError):
            map_from_density(u, 16)


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
    assert boltzmann_entropy(GridDensity.uniform(UNIT, 32)) == 0.0
    half = GridDensity(Interval(0.0, 0.5), np.full(16, 2.0))
    assert boltzmann_entropy(half) == pytest.approx(np.log(2), abs=1e-12)
    wide = GridDensity.uniform(Interval(0.0, 2.0), 32)
    assert boltzmann_entropy(wide) == pytest.approx(-np.log(2), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(densities())
def test_entropy_minimized_by_uniform(u):
    assert boltzmann_entropy(u) >= -1e-12


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
    assert abs(v.mass - 1.0) < 1e-10


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
    assert abs(v.mass - 1.0) < 1e-10


# --- early-stopping Newton inversion ----------------------------------------

SWEEPS = list(range(1, 13)) + [30, 50]  # every period and parity up to 4


def scipy_columns(spline):
    """(value, slope) from scipy's own PPoly on the coefficients of a
    _SplineColumns, row j of the points in column j (1-D points for one
    column): the reference the evaluator must reproduce."""
    cols = spline.c.reshape(4, -1, spline.n)
    polys = [PPoly(np.ascontiguousarray(cols[:, j]), spline.x)
             for j in range(cols.shape[1])]

    def pair(t):
        rows = np.reshape(t, (len(polys), -1))
        return tuple(np.array([p(r, nu) for p, r in zip(polys, rows)])
                     .reshape(np.shape(t)) for nu in (0, 1))
    return pair


def fixed_sweeps(spline, target, x, lo, hi, slope_floor, sweeps):
    # the plain loop _newton_inverse must reproduce bitwise, with the values
    # at the start and at the result; a spline is evaluated by PPoly, a
    # stand-in as it is
    if isinstance(spline, _SplineColumns):
        spline = scipy_columns(spline)
    start = spline(x)[0]
    for _ in range(sweeps):
        value, slope = spline(x)
        x = np.clip(x - (value - target) / np.maximum(slope, slope_floor),
                    lo, hi)
    return x, start, spline(x)[0]


def inversions(call):
    """Arguments (without the sweep count) of every inversion call() makes;
    each call returns the (result, start value, result value) triple."""
    seen = []

    def spy(*args):
        seen.append(args[:-1])
        return _newton_inverse(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "_newton_inverse", spy)
        call()
    return seen


def pushforward_inversion(x, m, domain=UNIT):
    """Arguments (without the sweep count) of the clipped Newton sweeps that
    invert a block of maps x (one map or rows of maps) at the edges of an
    M-cell grid: the block's not-a-knot splines, the edges clipped into
    each map's range and the piecewise-linear inverse as the start."""
    pos = transport._checked_nodes(domain, np.atleast_2d(x))
    levels = np.linspace(0.0, 1.0, pos.shape[-1])
    spline = _SplineColumns(levels, _spline_coefficients(levels, pos))
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
    s, start, end = _newton_inverse(*args, 30)
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


def assert_exact_for_all_sweeps(args):
    for n in SWEEPS:
        got, ref = _newton_inverse(*args, n), fixed_sweeps(*args, n)
        assert len(got) == len(ref) == 3
        for a, b in zip(got, ref):
            assert np.array_equal(a, b), n


def assert_values_are_the_splines(args):
    # the returned values are the spline's own at the start and the result
    spline, x0 = args[0], args[2]
    for n in SWEEPS:
        x, start, end = _newton_inverse(*args, n)
        assert np.array_equal(start, spline(x0)[0]), n
        assert np.array_equal(end, spline(x)[0]), n


def rough_map(seed, k=64):
    """Nodes of a map on UNIT with lognormal gaps; the last node can lie a
    few ulps outside the domain."""
    gaps = np.random.default_rng(seed).lognormal(0.0, 2.0, k)
    return np.concatenate([[0.0], np.cumsum(gaps)]) / gaps.sum()


@settings(max_examples=20, deadline=None)
@given(densities())
def test_newton_inverse_exact_on_rough_densities(u):
    # the quantile map's inversion, and the sweeps on that map's pushforward
    calls = inversions(lambda: map_from_density(u, 64))
    assert len(calls) == 1
    x = map_from_density(u, 64)
    for args in calls + [pushforward_inversion(x, u.m)]:
        assert_exact_for_all_sweeps(args)


@pytest.mark.parametrize("seed", range(2, 6))
def test_newton_inverse_exact_on_rough_maps(seed):
    args = pushforward_inversion(rough_map(seed), 50)
    assert_exact_for_all_sweeps(args)
    assert_values_are_the_splines(args)
    # the spline is non-monotone here: Newton's residual can exceed the
    # piecewise-linear start's, where a fallback to the start is needed
    spline, target, linear = args[:3]
    s = _newton_inverse(*args, 30)[0]
    assert np.any(np.abs(spline(s)[0] - target)
                  > np.abs(spline(linear)[0] - target) + 1e-15)


def test_newton_inverse_exact_on_a_batch():
    # one inversion for the whole batch, on a 2-D array of edges
    pos = np.array([rough_map(seed) for seed in range(2, 7)])
    args = pushforward_inversion(pos, 50)
    assert args[2].shape == (5, 51)
    assert_exact_for_all_sweeps(args)


# --- bracketed pushforward solve --------------------------------------------

def pushforward_cases():
    """(maps, M): rough maps (non-monotone splines) and smooth ones."""
    rough = np.array([rough_map(seed) for seed in range(2, 10)])
    smooth = np.array([map_from_density(GridDensity.cosine(UNIT, 256, 0.5, j),
                                        256) for j in (1, 2, 3)])
    return [(rough, 50), (rough, 200), (smooth, 256), (smooth, 100)]


@pytest.mark.parametrize("x, m", pushforward_cases())
def test_pushforward_roots_stay_in_their_knot_intervals(x, m):
    (((knots, _, interval, target, start), (s, r_start, r_end, _)),) = \
        bracketed_solves(lambda: densities_from_maps(UNIT, x, m))
    # the edge lies between the interval's nodes, its level between the
    # interval's knots
    nodes = transport._checked_nodes(UNIT, x)
    assert np.all(np.take_along_axis(nodes, interval, -1) <= target)
    assert np.all(target <= np.take_along_axis(nodes, interval + 1, -1))
    assert np.all((knots[interval] <= s) & (s <= knots[interval + 1]))
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


class Logistic:
    # a stand-in spline whose Newton sweep is x -> r x (1 - x): fixed
    # points, cycles of period 2 to 4 and orbits that never repeat
    def __init__(self, r):
        self.r = r

    def __call__(self, x):
        return x - self.r * x * (1 - x), np.ones_like(x)


@pytest.mark.parametrize("r", [2.5, 3.2, 3.5, 3.83, 4.0])
def test_newton_inverse_exact_on_cycles_and_chaos(r):
    x0 = np.random.default_rng(0).uniform(0.0, 1.0, 200)
    args = (Logistic(r), np.zeros(200), x0, 0.0, 1.0, 1e-14)
    assert_exact_for_all_sweeps(args)
    assert_values_are_the_splines(args)


def test_newton_inverse_exact_on_a_2d_batch_of_cycles():
    # each row has its own r, so rows settle or cycle at different sweeps
    x0 = np.random.default_rng(1).uniform(0.0, 1.0, (5, 40))
    r = np.array([[2.5], [3.2], [3.5], [3.83], [4.0]])
    args = (Logistic(r), np.zeros(x0.shape), x0, 0.0, 1.0, 1e-14)
    assert_exact_for_all_sweeps(args)
    assert_values_are_the_splines(args)


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


# --- spline evaluator -------------------------------------------------------

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
    # row j of t is evaluated in column j; a 1-D t by a one-column spline
    value, slope = _SplineColumns(spline.x, row_major(spline))(t)
    assert value.shape == slope.shape == t.shape
    rows = np.atleast_2d(t)
    for j, r in enumerate(rows):
        ref_value, ref_slope = spline(r), spline(r, 1)
        if ref_value.ndim == 2:
            ref_value, ref_slope = ref_value[:, j], ref_slope[:, j]
        assert np.array_equal(np.atleast_2d(value)[j], ref_value)
        assert np.array_equal(np.atleast_2d(slope)[j], ref_slope)


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
    spline = CubicSpline(u.edges, u.cdf_at_edges(),
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


@pytest.mark.parametrize("domain", [UNIT, Interval(-2.0, 3.5)],
                         ids=["unit", "shifted"])
@pytest.mark.parametrize("make", [
    lambda dom: GridDensity.cosine(dom, 64, eps=0.9, k=1),
    lambda dom: GridDensity.bump(dom, 128),
    lambda dom: positive_density(
        np.random.default_rng(1).uniform(0.05, 10.0, 32), dom)],
    ids=["cosine", "bump", "rough"])
def test_builder_matches_clamped_cubic_spline(make, domain):
    u = make(domain)
    v, cdf = u.values, u.cdf_at_edges()
    assert_same_bits(
        _spline_coefficients(u.edges, cdf[None], (v[0], v[-1])),
        row_major(CubicSpline(u.edges, cdf, bc_type=((1, v[0]), (1, v[-1])))))


def conversions(traj, k):
    """Every state's pushforward and every state's quantile map (None where
    a detached wall left a vacuum the quantile map rejects)."""
    out = []
    dom = traj.grid.domain
    for x, v in zip(traj.positions, traj.values):
        try:
            positions = map_from_density(GridDensity(dom, v), k)
        except DegenerateQuantileError:
            positions = None
        out.append((densities_from_maps(dom, x[None], k)[0], positions))
    return out


@pytest.mark.parametrize("energy", [
    MobilityMapEnergy(MobilitySpec.identity()),
    MobilityMapEnergy(MobilitySpec.sqrt_mobility())])
@pytest.mark.parametrize("k", [64, 1024])
@pytest.mark.parametrize("mode", [2, 3])
def test_conversions_match_fixed_sweeps_on_trajectories(energy, k, mode):
    u0 = GridDensity.cosine(UNIT, k, eps=0.5, k=mode)
    traj = run(u0, energy, JkoConfig(tau=1e-5, n_steps=4, k=k))
    got = conversions(traj, k)
    # only the quantile map calls _newton_inverse: the states compare the
    # bracketed pushforward with itself here, and with the sweeps in
    # test_pushforward_matches_newton_sweeps_on_smooth_maps
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "_newton_inverse", fixed_sweeps)
        ref = conversions(traj, k)
    for (state, positions), (ref_state, ref_positions) in zip(got, ref):
        assert np.array_equal(state, ref_state)
        assert (positions is None) == (ref_positions is None)
        if positions is not None:
            assert np.array_equal(positions, ref_positions)
