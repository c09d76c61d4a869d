import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline, PPoly

from gradflow1d import (ConfigurationError, DegenerateQuantileError,
                        GridDensity, Interval, JkoConfig, MobilityMapEnergy,
                        MobilitySpec, MonotonicityError, ThinFilmMapEnergy,
                        TransportMap, boltzmann_entropy, densities_from_maps,
                        density_from_map, map_from_density, quantile, run,
                        transport, wasserstein2)
from gradflow1d.transport import (_newton_inverse, _SplineColumns,
                                  w2sq_between_maps)

UNIT = Interval(0.0, 1.0)


def positive_density(values, domain=UNIT):
    return GridDensity.from_samples(domain, values)


@st.composite
def densities(draw, m=32, domain=UNIT):
    vals = draw(st.lists(st.floats(0.05, 10.0), min_size=m, max_size=m))
    return positive_density(np.array(vals), domain)


# --- construction and validation ------------------------------------------

def test_interval_rejects_empty():
    with pytest.raises(ConfigurationError):
        Interval(1.0, 1.0)


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
    pos = np.linspace(0, 1, 17)
    pos[5] = pos[4]
    with pytest.raises(MonotonicityError):
        TransportMap(UNIT, pos)
    # a NaN node, interior or at an end, fails the gap test too
    for node in (5, 0, -1):
        nan = np.linspace(0, 1, 17)
        nan[node] = np.nan
        with pytest.raises(MonotonicityError):
            TransportMap(UNIT, nan)


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
    np.testing.assert_allclose(x.positions, np.linspace(0, 1, 9), atol=1e-10)


def test_map_quantiles_of_compressed_uniform():
    u = GridDensity(Interval(0.0, 0.5), np.full(16, 2.0))
    x = map_from_density(u, 8)
    np.testing.assert_allclose(x.positions, np.linspace(0, 0.5, 9), atol=1e-10)


def test_density_from_linear_map_is_uniform():
    x = TransportMap(UNIT, np.linspace(0, 1, 33))
    v = density_from_map(x)
    np.testing.assert_allclose(v.values, 1.0, atol=1e-10)
    assert abs(v.mass - 1.0) < 1e-10


def test_round_trip():
    u = GridDensity.cosine(UNIT, 256, eps=0.5, k=2)
    v = density_from_map(map_from_density(u, 256))
    assert np.max(np.abs(v.values - u.values)) < 1e-4


def test_map_from_density_degenerate_plateau():
    vals = np.concatenate([np.ones(8), np.zeros(16), np.ones(8)])
    with pytest.raises(DegenerateQuantileError):
        map_from_density(positive_density(vals), 16)


@settings(max_examples=20, deadline=None)
@given(densities())
def test_round_trip_property(u):
    v = density_from_map(map_from_density(u, 64), u.m)
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
    # the plain loop _newton_inverse must reproduce bitwise; a spline is
    # evaluated by PPoly, a stand-in as it is
    if isinstance(spline, _SplineColumns):
        spline = scipy_columns(spline)
    for _ in range(sweeps):
        value, slope = spline(x)
        x = np.clip(x - (value - target) / np.maximum(slope, slope_floor),
                    lo, hi)
    return x


def inversions(call):
    """Arguments (without the sweep count) of every inversion call() makes."""
    seen = []

    def spy(*args):
        seen.append(args[:-1])
        return _newton_inverse(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "_newton_inverse", spy)
        call()
    return seen


def assert_exact_for_all_sweeps(args):
    for n in SWEEPS:
        assert np.array_equal(_newton_inverse(*args, n),
                              fixed_sweeps(*args, n)), n


def rough_map(seed, k=64):
    gaps = np.random.default_rng(seed).lognormal(0.0, 2.0, k)
    return TransportMap(UNIT, np.concatenate([[0.0], np.cumsum(gaps)]) / gaps.sum())


@settings(max_examples=20, deadline=None)
@given(densities())
def test_newton_inverse_exact_on_rough_densities(u):
    calls = inversions(lambda: density_from_map(map_from_density(u, 64), u.m))
    assert len(calls) == 2
    for args in calls:
        assert_exact_for_all_sweeps(args)


@pytest.mark.parametrize("seed", range(2, 6))
def test_newton_inverse_exact_on_rough_maps(seed):
    (args,) = inversions(lambda: density_from_map(rough_map(seed), 50))
    assert_exact_for_all_sweeps(args)
    # the spline is non-monotone here: the piecewise-linear fallback fires
    spline, target, linear = args[:3]
    s = _newton_inverse(*args, 30)
    assert np.any(np.abs(spline(s)[0] - target)
                  > np.abs(spline(linear)[0] - target) + 1e-15)


def test_newton_inverse_exact_on_a_batch():
    # one inversion for the whole batch, on a 2-D array of edges
    pos = np.array([rough_map(seed).positions for seed in range(2, 7)])
    (args,) = inversions(lambda: densities_from_maps(UNIT, pos, 50))
    assert args[2].shape == (5, 51)
    assert_exact_for_all_sweeps(args)


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
    assert_exact_for_all_sweeps((Logistic(r), np.zeros(200), x0, 0.0, 1.0, 1e-14))


def test_newton_inverse_exact_on_a_2d_batch_of_cycles():
    # each row has its own r, so rows settle or cycle at different sweeps
    x0 = np.random.default_rng(1).uniform(0.0, 1.0, (5, 40))
    r = np.array([[2.5], [3.2], [3.5], [3.83], [4.0]])
    assert_exact_for_all_sweeps((Logistic(r), np.zeros(x0.shape), x0, 0.0,
                                 1.0, 1e-14))


def test_batch_matches_one_map_at_a_time():
    # rough maps make non-monotone splines, on which the fallback fires
    maps = [rough_map(seed) for seed in range(2, 10)]
    pos = np.array([x.positions for x in maps])
    for m in (50, 64, 200):
        batch = densities_from_maps(UNIT, pos, m)
        assert batch.shape == (len(maps), m)
        for x, v in zip(maps, batch):
            assert np.array_equal(v, density_from_map(x, m).values)


def test_batch_checks_nodes_and_states():
    # what TransportMap and GridDensity check per object, once per block
    pos = np.array([rough_map(seed).positions for seed in range(2, 5)])
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
        mp.setattr(transport, "_newton_inverse",
                   lambda spline, target, x, *a: np.full(x.shape, np.nan))
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


def assert_matches_ppoly(spline, t):
    # row j of t is evaluated in column j; a 1-D t by a one-column spline
    value, slope = _SplineColumns(spline)(t)
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
    pos = np.array([rough_map(seed).positions for seed in range(2, 8)])
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


def conversions(traj, k):
    """Every state's pushforward and every state's quantile map (None where
    a detached wall left a vacuum the quantile map rejects)."""
    out = []
    dom = traj.grid.domain
    for x, v in zip(traj.positions, traj.values):
        try:
            positions = map_from_density(GridDensity(dom, v), k).positions
        except DegenerateQuantileError:
            positions = None
        out.append((density_from_map(TransportMap(dom, x), k).values,
                    positions))
    return out


@pytest.mark.parametrize("energy", [ThinFilmMapEnergy(),
                                    MobilityMapEnergy(MobilitySpec.sqrt_mobility())])
@pytest.mark.parametrize("k", [64, 1024])
@pytest.mark.parametrize("mode", [2, 3])
def test_conversions_match_fixed_sweeps_on_trajectories(energy, k, mode):
    u0 = GridDensity.cosine(UNIT, k, eps=0.5, k=mode)
    traj = run(u0, energy, JkoConfig(tau=1e-5, n_steps=4, k=k))
    got = conversions(traj, k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "_newton_inverse", fixed_sweeps)
        ref = conversions(traj, k)
    for (state, positions), (ref_state, ref_positions) in zip(got, ref):
        assert np.array_equal(state, ref_state)
        assert (positions is None) == (ref_positions is None)
        if positions is not None:
            assert np.array_equal(positions, ref_positions)
