"""The blocked Cauchy-kernel pass and the batched evaluations built on it,
compared with one-point sums and the loops in tests/oracles.py.

Sides, NaN rows, refusals and the distances must match exactly. Windings,
Cauchy sums and what is built on them come from BLAS products, whose
summation order depends on the batch; they must lie within the bound the
kernel states, `oracles.kernel_row_bound`, 8 n eps * sum_k |w num_k/(z_k
- p)|. The rows of `double_cauchy_batch` that `curve.clear_rows` places
are exact sums of residues; they must lie within `oracles.double_cauchy_bound`
of the one-point sums."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

import schwarzbundles as sb
from schwarzbundles import curve as curve_mod
from schwarzbundles import laurent, quaddom, transforms
from schwarzbundles.errors import (
    BranchUnresolvedError,
    CoincidentInteriorPointsError,
    CurveNotSimpleError,
    NearBoundaryError,
    ParseError,
    RankDeficientError,
)
import oracles
from oracles import EPS, same_bits
from strategies import certified_curves

QUARTIC = [0.1 + 0.05j, 1, 0.15, 0.08j, 0.03]


@pytest.fixture(scope="module")
def quartic_grid():
    return sb.sample(sb.build_polynomial_curve(QUARTIC, 0.72), 512)


def _points(grid, count, seed, on_nodes):
    """Random points around the curve, the first `on_nodes` exactly on nodes."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2.5, 2.5, count) + 1j * rng.uniform(-2.5, 2.5, count)
    pts[:on_nodes] = grid.z[rng.integers(0, grid.n, on_nodes)]
    return rng.permutation(pts)


def _within_row_bounds(got, want, grid, num, pts):
    """Finite exactly where want is, and within kernel_row_bound elsewhere."""
    got, want = np.asarray(got), np.asarray(want)
    finite = np.isfinite(want)
    if not np.array_equal(np.isfinite(got), finite):
        return False
    bounds = [oracles.kernel_row_bound(grid, num, p) for p in pts[finite]]
    return bool(np.all(np.abs(got[finite] - want[finite]) <= bounds))


CURVES = {"disk": ([0, 1], 0.5), "cardioid": ([0, 1, 0.3], 0.7), "quartic": (QUARTIC, 0.72)}


@functools.lru_cache(maxsize=None)
def _grid(name, n):
    return sb.sample(sb.build_polynomial_curve(*CURVES[name]), n)


def _subtraction_sides(grid, pts, density=None):
    """(nearest, near, inside) of the points from the blocks of
    `oracles.distance_blocks_by_subtraction`, summed as `kernel_sums` sums
    its rows and decided as `sides` decides them."""
    cols = grid.dz if density is None else np.stack([grid.dz, density * grid.dz], 1)
    parts = cols.view(float).reshape(grid.n, -1)
    nearest, winding = [], []
    with np.errstate(all="ignore"):
        for _, dr, di, d2 in oracles.distance_blocks_by_subtraction(grid, pts):
            nearest.append(np.sqrt(d2.min(axis=1)))
            inverse = 1.0 / d2
            re_k, im_k = (dr * inverse) @ parts, (di * inverse) @ parts
            winding.append(grid.weight / curve_mod.TWO_PI * (re_k[:, 1] - im_k[:, 0]))
    nearest, winding = np.concatenate(nearest), np.concatenate(winding)
    near = nearest < grid.exclusion_band
    return nearest, near, ~near & (winding > 0.5)


def _keeps_the_subtraction(grid, pts):
    """kernel_sums' nearest distances have the bits of the subtraction's, and
    `sides` makes its decisions, by clear rows and by one pass for all."""
    want, near, inside = _subtraction_sides(grid, pts)
    with np.errstate(all="ignore"):
        nearest = sb.kernel_sums(grid, pts)[0]
    density = np.conjugate(grid.z)
    return (same_bits(nearest, want)
            and all(np.array_equal(got, ref) for got, ref in
                    zip(curve_mod.sides(grid, pts)[:2], (near, inside)))
            and all(np.array_equal(got, ref) for got, ref in
                    zip(curve_mod.sides(grid, pts, density)[:2],
                        _subtraction_sides(grid, pts, density)[1:])))


@example(size=(16, 3), name="quartic", seed=1).via("one-row blocks at n = 65536")
@example(size=(15, 2), name="disk", seed=2).via("one-row blocks at n = 32768")
@given(size=st.integers(4, 16).flatmap(
           lambda log_n: st.tuples(st.just(log_n), st.integers(1, 300 if log_n <= 12 else 3))),
       name=st.sampled_from(sorted(CURVES)), seed=st.integers(0, 2 ** 16))
def test_distance_products_keep_the_subtraction_bits(size, name, seed):
    # blocks of one row (n >= 32768, and up to 3 points at n = 65536) up to
    # full blocks of 32 (n = 1024) to 300 rows (n = 16). Among the points:
    # one on a node, parts equal to a node's, signed zeros and squared
    # distances that overflow to inf. No node part is -0, so the products
    # give every bit of the subtraction
    log_n, count = size
    grid = _grid(name, 2 ** log_n)
    nodes = grid.z.view(float)
    assert not np.any(np.signbit(nodes) & (nodes == 0.0))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2.5, 2.5, count) + 1j * rng.uniform(-2.5, 2.5, count)
    k = rng.integers(0, grid.n)
    special = [grid.z[k], complex(grid.z[k].real, 0.5), complex(-0.0, 0.0),
               complex(0.0, -0.0), complex(-0.0, -0.0), 1e155 + 1e155j, -3e160 + 0.25j]
    pts[:min(count, len(special))] = special[:count]
    assert _keeps_the_subtraction(grid, rng.permutation(pts))


def test_distance_products_differ_only_in_the_sign_of_a_zero():
    # a node part -0 against a point part +0: the subtraction gives -0, the
    # products +0; d2 and everything after it do not see the sign
    grid = _grid("cardioid", 256)
    z = grid.z.copy()
    z[3], z[7] = complex(-0.0, z[3].imag), complex(z[7].real, -0.0)
    grid = dataclasses.replace(grid, z=z)
    pts = np.full(40, 0.25 + 0.0j)
    pts[::2] = 0.0  # real part +0 in 20 points, imaginary part +0 in all 40
    with np.errstate(all="ignore"):
        blocks = [(dr.copy(), di.copy()) for _, dr, di, _ in
                  oracles.distance_blocks_by_subtraction(grid, pts)]
    for part, flips in zip(map(np.concatenate, zip(*blocks)), (20, 40)):
        assert (np.signbit(part) & (part == 0.0)).sum() == flips
    assert _keeps_the_subtraction(grid, pts)


@given(count=st.integers(1, 240), seed=st.integers(0, 2 ** 16),
       on_nodes=st.integers(0, 3))
def test_kernel_sums_equal_one_point_sums(cardioid_grid, count, seed, on_nodes):
    # 32 rows per block at n = 1024: counts cross block edges
    grid = cardioid_grid
    pts = _points(grid, count, seed, min(on_nodes, count))
    dens = np.conjugate(grid.z) ** 2
    nearest, winding, sums = sb.kernel_sums(grid, pts, dens)
    singles = [sb.kernel_sums(grid, [p], dens) for p in pts]
    hypot = np.array([oracles.nearest_node_distance(grid, p) for p in pts])
    # sqrt(dr^2 + di^2) is the same in any batch, and within 1.5 eps of |z - p|
    assert same_bits(nearest, [one[0][0] for one in singles])
    assert np.all(np.abs(nearest - hypot) <= 2 * EPS * hypot)
    with np.errstate(all="ignore"):  # the one-point sums divide by zero on a node
        one_winding = [oracles.trapezoid_winding(grid, p) for p in pts]
        one_sums = [oracles.trapezoid_cauchy(grid, dens, p) for p in pts]
    assert _within_row_bounds(winding, one_winding, grid, grid.dz, pts)
    assert _within_row_bounds(sums, one_sums, grid, dens * grid.dz, pts)
    assert _within_row_bounds(winding, [one[1][0] for one in singles], grid, grid.dz, pts)
    assert _within_row_bounds(sums, [one[2][0] for one in singles], grid,
                              dens * grid.dz, pts)
    assert np.all(np.isnan(sums[nearest == 0.0]))
    assert sb.kernel_sums(grid, pts)[2] is None
    sides = [sb.Location.NEAR_BOUNDARY if d < grid.exclusion_band
             else sb.Location.INTERIOR if wn > 0.5 else sb.Location.EXTERIOR
             for d, wn in zip(nearest, winding)]
    assert sides == [sb.locate(grid, p) for p in pts]
    assert sides == [sb.Location.NEAR_BOUNDARY if d < grid.exclusion_band
                     else sb.Location.INTERIOR if wn > 0.5 else sb.Location.EXTERIOR
                     for d, wn in zip(hypot, one_winding)]


SPLIT_CURVES = {"disk": ([0, 1], 0.5), "cardioid": ([0, 1, 0.3], 0.7),
                "quartic": (QUARTIC, 0.72)}


@functools.cache
def _split_grid(name, n):
    return sb.sample(sb.build_polynomial_curve(*SPLIT_CURVES[name]), n)


def _split_points(grid, q_max, edges, rng):
    """240 points outside and 120 inside the nodes' annulus about c at
    ratios q up to q_max, and 24 points near the curve. With edges, 10
    points within 4 ulps of a distance to the annulus of one band, on each
    side (both ends of `clear_rows`' reach), come first; the near points
    follow."""
    c, big, small = grid._node_annulus
    radii = np.concatenate([big / rng.uniform(0.01, q_max, 240),
                            small * rng.uniform(0.0, q_max, 120)])
    if edges:
        ulps = 1.0 + np.array([-4, -1, 0, 1, 4]) * EPS
        band = grid.exclusion_band
        radii = np.concatenate([(big + band) * ulps, np.maximum(small - band, 0.0) * ulps,
                                radii])
    pts = c + radii * np.exp(2j * np.pi * rng.uniform(size=radii.size))
    near = grid.z[rng.integers(0, grid.n, 24)] * (1.0 + rng.uniform(-0.01, 0.01, 24))
    lead = 10 if edges else 0
    return np.concatenate([pts[:lead], near, pts[lead:]]), lead + 24


def _split_densities(grid, columns, rng):
    """conj z^k, log|z - a|^2 and random normal densities as columns."""
    kinds = [np.conjugate(grid.z) ** rng.integers(0, 4),
             np.log(np.abs(grid.z - 0.3 * rng.normal(size=2).view(complex)[0]) ** 2),
             rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)]
    return np.stack([kinds[j % 3] for j in range(columns)], axis=1)


def _location(near, inside):
    if near:
        return sb.Location.NEAR_BOUNDARY
    return sb.Location.INTERIOR if inside else sb.Location.EXTERIOR


@given(name=st.sampled_from(sorted(SPLIT_CURVES)), n=st.sampled_from([256, 1024, 4096]),
       columns=st.integers(1, 9), q_max=st.floats(0.05, 0.95), edges=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_far_rows_equal_one_point_sums(name, n, columns, q_max, edges, seed):
    # Rows on both sides of the nodes' annulus and near the curve in one
    # batch: windings and sums within the row bound of the one-point sums,
    # nearest the exact distance, and each Location the one-point
    # hypot/winding decision. The edge and near rows and 24 more drawn at
    # random are checked against the one-point loops. Every row that
    # `clear_rows` places is off the band on the side it names
    grid = _split_grid(name, n)
    rng = np.random.default_rng(seed)
    pts, lead = _split_points(grid, q_max, edges, rng)
    dens = _split_densities(grid, columns, rng)
    nearest, winding, sums = sb.kernel_sums(grid, pts, dens)
    bare = sb.kernel_sums(grid, pts)[1]  # no density: one column, its own split
    near, inside, _ = curve_mod.sides(grid, pts, dens)
    assert (near == (nearest < grid.exclusion_band)).all()  # decided from the pass's distances
    outside, within = curve_mod.clear_rows(grid, pts)
    assert not near[outside | within].any() and not (outside & within).any()
    assert inside[within].all() and not inside[outside].any()
    for i in np.concatenate([np.arange(lead), rng.integers(lead, pts.size, 24)]):
        p = pts[i]
        hypot = oracles.nearest_node_distance(grid, p)
        assert abs(nearest[i] - hypot) <= 2 * EPS * hypot
        one_winding = oracles.trapezoid_winding(grid, p)
        bound = oracles.kernel_row_bound(grid, grid.dz, p)
        assert abs(winding[i] - one_winding) <= bound
        assert abs(bare[i] - one_winding) <= bound
        for j in range(columns):
            want = oracles.trapezoid_cauchy(grid, dens[:, j], p)
            assert abs(sums[i, j] - want) \
                <= oracles.kernel_row_bound(grid, dens[:, j] * grid.dz, p)
        want = _location(hypot < grid.exclusion_band, one_winding > 0.5)
        assert _location(near[i], inside[i]) == want


@pytest.mark.parametrize("name", sorted(SPLIT_CURVES))
def test_mixed_batch_rows_equal_their_lone_values(name):
    # sweep's 40 x 40 lattice, with 150 more points inside the annulus of
    # the nodes, in one batch: each row within its row bound of the value
    # it gets alone, and the same distance
    grid = _split_grid(name, 1024)
    c, big, small = grid._node_annulus
    xs = np.linspace(-2.0, 2.0, 40)
    lattice = (c + xs[None, :] + 1j * xs[:, None]).ravel()
    rng = np.random.default_rng(7)
    inn = c + small * rng.uniform(0.0, 0.95, 150) * np.exp(2j * np.pi * rng.uniform(size=150))
    pts = np.concatenate([lattice, inn])
    dens = np.log(np.abs(grid.z - 3.0) ** 2)
    nearest, winding, sums = sb.kernel_sums(grid, pts, dens)
    alone = [sb.kernel_sums(grid, [p], dens) for p in pts]
    assert _within_row_bounds(winding, [one[1][0] for one in alone], grid, grid.dz, pts)
    assert _within_row_bounds(sums, [one[2][0] for one in alone], grid, dens * grid.dz, pts)
    assert same_bits(nearest, [one[0][0] for one in alone])


def test_padded_map_keeps_the_grid_and_sums_of_its_degree():
    # the cardioid padded with three zero coefficients has degree 2, not 5:
    # its grid, clear rows, sums and batched C on sweep's lattice are the
    # cardioid's, bit for bit
    padded = sb.sample(sb.build_polynomial_curve([0, 1, 0.3, 0, 0, 0], 0.7), 1024)
    grid = _split_grid("cardioid", 1024)
    assert padded.curve.degree == grid.curve.degree == 2
    assert same_bits(padded.z, grid.z) and same_bits(padded.dz, grid.dz)
    xs = np.linspace(-2.0, 2.0, 40)
    pts = (xs[None, :] + 1j * xs[:, None]).ravel()
    dens = np.log(np.abs(grid.z - 3.0) ** 2)
    assert all(same_bits(a, b) for a, b in zip(curve_mod.clear_rows(padded, pts),
                                               curve_mod.clear_rows(grid, pts)))
    assert all(same_bits(a, b) for a, b in zip(sb.kernel_sums(padded, pts, dens),
                                               sb.kernel_sums(grid, pts, dens)))
    for w in (2.5 - 1j, 0.2 + 0.1j):
        assert same_bits(sb.double_cauchy_batch(padded, pts, w),
                         sb.double_cauchy_batch(grid, pts, w))


@given(name=st.sampled_from(sorted(CURVES)), log_n=st.integers(4, 12),
       columns=st.integers(0, 3), on_node=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_one_point_row_is_the_term_by_term_sum(name, log_n, columns, on_node, seed):
    # kernel_sums on one point: the nearest distance within 2 eps of |z_k -
    # p|, and the winding and each column's sum within the stated bound 8 n
    # eps * sum_k |w num_k/(z_k - p)| of the complex sums taken term by
    # term; on a node, distance 0 and NaN sums; a single column given as a
    # 1-D density gives one sum per point
    grid = _grid(name, 2 ** log_n)
    rng = np.random.default_rng(seed)
    p = grid.z[rng.integers(grid.n)] if on_node else complex(*rng.uniform(-2.5, 2.5, 2))
    dens = rng.normal(size=(grid.n, columns, 2)) @ [1.0, 1j] if columns else None
    if columns == 1:
        dens = dens[:, 0]
    nearest, winding, sums = sb.kernel_sums(grid, [p], dens)
    hypot = oracles.nearest_node_distance(grid, p)
    assert nearest.shape == winding.shape == (1,)
    assert abs(nearest[0] - hypot) <= 2 * EPS * hypot
    if dens is None:
        assert sums is None
    else:
        assert sums.shape == (1, *dens.shape[1:])
    if on_node:
        assert nearest[0] == 0.0 and np.isnan(winding[0])
        assert dens is None or np.isnan(sums).all()
        return
    assert abs(winding[0] - oracles.trapezoid_winding(grid, p)) \
        <= oracles.kernel_row_bound(grid, grid.dz, p)
    if dens is not None:
        cols = dens.reshape(grid.n, -1)
        for got, col in zip(sums.reshape(-1), cols.T):
            assert abs(got - oracles.trapezoid_cauchy(grid, col, p)) \
                <= oracles.kernel_row_bound(grid, col * grid.dz, p)


def test_an_empty_batch_gives_empty_rows(cardioid_grid):
    # no point: no block to sum
    nearest, winding, sums = sb.kernel_sums(cardioid_grid, [], np.ones((cardioid_grid.n, 2)))
    assert nearest.shape == winding.shape == (0,) and sums.shape == (0, 2)


@given(count=st.integers(1, 70), seed=st.integers(0, 2 ** 16),
       columns=st.integers(1, 9))
def test_kernel_sums_density_columns(cardioid_grid, count, seed, columns):
    # m densities as columns: the same pass with more columns. Column j lies
    # within the row bound of the 1-D call with density j; a single column
    # gives the 1-D call's bits, and locations do not depend on m
    grid = cardioid_grid
    pts = _points(grid, count, seed, min(1, count))
    rng = np.random.default_rng(seed)
    dens = np.conjugate(grid.z)[:, None] ** rng.integers(0, 4, columns) \
        + rng.normal(size=(grid.n, columns))
    nearest, winding, sums = sb.kernel_sums(grid, pts, dens)
    assert sums.shape == (count, columns)
    assert same_bits(nearest, sb.kernel_sums(grid, pts)[0])
    for j in range(columns):
        one = sb.kernel_sums(grid, pts, np.ascontiguousarray(dens[:, j]))
        assert one[2].shape == (count,)
        assert _within_row_bounds(sums[:, j], one[2], grid, dens[:, j] * grid.dz, pts)
        assert _within_row_bounds(winding, one[1], grid, grid.dz, pts)
        single = sb.kernel_sums(grid, pts, dens[:, j:j + 1])
        assert all(same_bits(a, b) for a, b in zip(one[:2], single[:2]))
        assert same_bits(single[2][:, 0], one[2])


def _assert_matches_one_point(grid, zs, w, got):
    """Each z's C within double_cauchy_bound of the one-point oracle, and
    NaN exactly where the oracle refuses; returns the number of blanks."""
    blanks = 0
    for z, c in zip(zs, got):
        want = oracles.double_cauchy_one_point(grid, z, w)
        if want is None:
            blanks += 1
            assert np.isnan(c)
        else:
            assert abs(c - want) <= oracles.double_cauchy_bound(grid, z, w, want)
    return blanks


@pytest.mark.parametrize("grid_name", ["disk_grid", "cardioid_grid", "quartic_grid"])
@pytest.mark.parametrize("w", [0.2 + 0.1j, -0.3j, 2.5 - 1j, -1.7 + 1.9j])
def test_double_cauchy_batch_equals_scalar(request, grid_name, w):
    grid = request.getfixturevalue(grid_name)
    zs = np.concatenate([_points(grid, 60, 11, 2), [w, w + 1e-13, 0.25 - 0.2j, 3.0]])
    got = sb.double_cauchy_batch(grid, zs, w)
    blanks = _assert_matches_one_point(grid, zs, w, got)
    for z, c in zip(zs, got):
        if np.isnan(c):
            with pytest.raises((NearBoundaryError, CoincidentInteriorPointsError)):
                sb.double_cauchy(grid, z, w)
        else:
            lone = sb.double_cauchy(grid, z, w).C
            want = oracles.double_cauchy_one_point(grid, z, w)
            assert abs(lone - want) <= oracles.double_cauchy_bound(grid, z, w, want)
    assert 0 < blanks < zs.size
    z_sides = {sb.double_cauchy(grid, z, w).quadrant[0]
               for z, c in zip(zs, got) if not np.isnan(c)}
    assert len(z_sides) == 2  # both quadrants of this w


def _interior_points(curve, count, seed, radius=0.8):
    """phi of random pullback points in |zeta| <= radius: interior points."""
    rng = np.random.default_rng(seed)
    zeta = radius * np.sqrt(rng.uniform(size=count)) \
        * np.exp(2j * np.pi * rng.uniform(size=count))
    return curve.phi(zeta)


def test_double_cauchy_batch_mixed_rows_span_blocks(disk_grid):
    # 150 interior z at one exterior w: three blocks of 64 rows at n = 512
    zs = _interior_points(disk_grid.curve, 150, 2)
    w = 1.5 + 0.5j
    got = sb.double_cauchy_batch(disk_grid, zs, w)
    assert _assert_matches_one_point(disk_grid, zs, w, got) == 0


@pytest.mark.parametrize("grid_name", ["disk_grid", "cardioid_grid", "quartic_grid"])
def test_double_cauchy_batch_mixed_rows_on_three_curves(request, grid_name):
    # interior z at exterior w take log|zeta - z|^2 times one vector per w;
    # 97 interior z, with exterior z and band z between them, span 4 blocks
    # of 32 rows at n = 1024 and 2 of 64 at n = 512
    grid = request.getfixturevalue(grid_name)
    zs = np.concatenate([_interior_points(grid.curve, 97, 3, 0.85),
                         _points(grid, 40, 4, 3)])
    zs = np.random.default_rng(5).permutation(zs)
    for w in (2.5 - 1j, grid.curve.phi(1.2 * np.exp(0.7j))):
        got = sb.double_cauchy_batch(grid, zs, w)
        blanks = _assert_matches_one_point(grid, zs, w, got)
        assert 3 <= blanks < 40
        mixed = [z for z, c in zip(zs, got) if not np.isnan(c)
                 and sb.double_cauchy(grid, z, w).quadrant == (sb.Location.INTERIOR,
                                                               sb.Location.EXTERIOR)]
        assert len(mixed) >= 97


LATTICE_CURVES = {**SPLIT_CURVES,  # and the Taylor polynomials of (e^(s zeta) - 1)/s
                  "taylor-6": ([0.0] + [1.5 ** (j - 1) / math.factorial(j)
                                        for j in range(1, 7)], 0.7),
                  "taylor-12": ([0.0] + [2.0 ** (j - 1) / math.factorial(j)
                                         for j in range(1, 13)], 0.7),
                  "taylor-30": ([0.0] + [1.0 / math.factorial(j) for j in range(1, 31)], 0.7)}


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("name", sorted(LATTICE_CURVES))
def test_double_cauchy_batch_clear_rows_on_lattices(name, n):
    # a 40 x 40 lattice over c + [-2R, 2R]^2 at an interior, an exterior and
    # a far w (a w in the band is refused): NaN exactly at the pass's band
    # points, and 12 rows that `clear_rows` places, with 4 direct ones,
    # within double_cauchy_bound of the one-point oracle
    grid = sb.sample(sb.build_polynomial_curve(*LATTICE_CURVES[name]), n)
    c, big, small = grid._node_annulus
    xs = np.linspace(-2.0 * big, 2.0 * big, 40)
    pts = (c + xs[None, :] + 1j * xs[:, None]).ravel()
    near = curve_mod.sides(grid, pts)[0]
    outside, inside = curve_mod.clear_rows(grid, pts)
    closed = outside | (inside & (grid.curve.degree == 1))
    assert closed.sum() > 500
    rng = np.random.default_rng(n)
    for w in (c + 0.3 * small * np.exp(0.4j), c + 1.5 * big * np.exp(0.3j), c + 1e6j):
        if curve_mod.sides(grid, [w])[0][0]:
            with pytest.raises(NearBoundaryError):
                sb.double_cauchy_batch(grid, pts, w)
            continue
        got = sb.double_cauchy_batch(grid, pts, w)
        assert np.array_equal(np.isnan(got), near)
        rows = np.concatenate([rng.permutation(np.flatnonzero(closed))[:12],
                               rng.permutation(np.flatnonzero(~closed & ~near))[:4]])
        assert _assert_matches_one_point(grid, pts[rows], w, got[rows]) == 0


@settings(max_examples=30, deadline=None)
@given(curve=certified_curves(), n=st.sampled_from([256, 1024]), seed=st.integers(0, 2 ** 16))
def test_clear_rows_match_the_one_point_oracle(curve, n, seed):
    # 12 points past the nodes' annulus, from one band to 3R beyond it, and
    # 12 inside it, from c to one band short of it, on a certified curve:
    # `clear_rows` places each, the pass puts it off the band on that side,
    # and its C at an interior, an exterior and a far w is within
    # double_cauchy_bound of the one-point oracle, closed or direct
    grid = sb.sample(curve, n)
    c, big, small = grid._node_annulus
    band = grid.exclusion_band
    rng = np.random.default_rng(seed)
    turns = np.exp(2j * np.pi * rng.uniform(size=24))
    radii = np.concatenate([(big + band) * (1.0 + 1e-9) + rng.uniform(0.0, 3.0 * big, 12),
                            max(small - band, 0.0) * (1.0 - 1e-9) * rng.uniform(size=12)])
    zs = c + radii * turns
    outside, inside = curve_mod.clear_rows(grid, zs)
    near, sided, _ = curve_mod.sides(grid, zs)
    placed = outside | inside
    assert outside[:12].all() and not near[placed].any()
    assert sided[inside].all() and not sided[outside].any()
    ws = [curve.phi(0.5 * turns[0]), c + 1.5 * big * turns[1], c + 1e6 * turns[2]]
    for w in ws:
        if curve_mod.sides(grid, [w])[0][0]:
            continue
        got = sb.double_cauchy_batch(grid, zs[placed], w)
        assert _assert_matches_one_point(grid, zs[placed], w, got) == 0


def _side_points(grid, rng):
    """Points for every branch of the side decision: past the nodes' annulus
    and short of it, clear of the band by up to 3R; within 16 ulps of one
    band from it along the rays through its 8 outermost and 8 innermost
    nodes (both ends of `clear_rows`' reach, where the slack decides); in the
    annulus between them; in the band about random nodes and beyond the
    outermost one; and one finite point at 1e200, whose squared distances
    overflow. On a degree-1 map the annulus has zero width."""
    c, big, small = grid._node_annulus
    band = grid.exclusion_band
    gaps = grid.z - c
    order = np.argsort(np.abs(gaps))
    outer, inner = gaps[order[-8:]], gaps[order[:8]]
    far = outer[-1]
    ulps = 1.0 + np.arange(-16, 17)[:, None] * EPS
    turns = np.exp(2j * np.pi * rng.uniform(size=(3, 16)))
    nodes = gaps[rng.integers(0, grid.n, 16)]
    return np.concatenate([
        c + (big + band) * (1.0 + 3.0 * rng.uniform(size=16)) * turns[0],
        c + max(small - band, 0.0) * rng.uniform(size=16) * turns[1],
        (c + outer / np.abs(outer) * (big + band) * ulps).ravel(),
        (c + inner / np.abs(inner) * max(small - band, 0.0) * ulps).ravel(),
        c + rng.uniform(small, big, 16) * turns[2],
        c + nodes * (1.0 + rng.uniform(-1.0, 1.0, 16) * band / np.abs(nodes)),
        c + far / abs(far) * (big + band * rng.uniform(size=8)),
        [1e200 + 0j]])


@settings(max_examples=40, deadline=None)
@given(curve=st.one_of(certified_curves(), st.just(sb.build_circle(0.3 - 0.2j, 1.3))),
       n=st.sampled_from([64, 256, 1024]), seed=st.integers(0, 2 ** 16))
def test_clear_points_take_the_decision_of_a_full_pass(curve, n, seed):
    # `sides` places the points that `clear_rows` places with no pass and
    # passes over the rest only: every band and side decision, in the batch
    # and one point at a time through `locate`, is that of one kernel pass
    # over every point with the same thresholds. One NaN, never clear,
    # still refuses the whole batch with the pass's text
    grid = sb.sample(curve, n)
    rng = np.random.default_rng(seed)
    pts = _side_points(grid, rng)
    near, sided, sums = curve_mod.sides(grid, pts)
    want_near, want_inside = oracles.one_pass_sides(grid, pts)
    assert sums is None and same_bits(near, want_near) and same_bits(sided, want_inside)
    outside, inside = curve_mod.clear_rows(grid, pts)
    assert outside[:16].all() and outside[-1] and not (outside & inside).any()
    for i in rng.permutation(pts.size)[:12]:
        assert sb.locate(grid, pts[i]) is _location(want_near[i], want_inside[i])
    nan = np.insert(pts, rng.integers(0, pts.size + 1), np.nan)
    for decide in (curve_mod.sides, oracles.one_pass_sides):
        with pytest.raises(ParseError, match="^points must be finite$"):
            decide(grid, nan)


def _pullback_points(curve, rng, count):
    """count points of each kind about a curve: phi of |zeta| <= 0.9
    (inside), of |zeta| within 2e-3 of 1 (in the band at some n, or just off
    it), of 1.05 <= |zeta| < 1/rho (outside), and c + (1.5 .. 4) R e^{it}
    (far outside, R the curve's largest |phi - c| on the circle)."""
    turns = np.exp(2j * np.pi * rng.uniform(size=(4, count)))
    c = curve.conformal_center
    big = np.abs(curve.phi(np.exp(2j * np.pi * np.arange(64) / 64)) - c).max()
    return np.concatenate([curve.phi(0.9 * np.sqrt(rng.uniform(size=count)) * turns[0]),
                           curve.phi((1.0 + rng.uniform(-2e-3, 2e-3, count)) * turns[1]),
                           curve.phi(rng.uniform(1.05, 0.99 / curve.rho, count) * turns[2]),
                           c + big * rng.uniform(1.5, 4.0, count) * turns[3]])


@settings(max_examples=25, deadline=None)
@given(curve=certified_curves(), seed=st.integers(0, 2 ** 16))
def test_double_cauchy_is_the_batch_route_on_one_point(curve, seed):
    # z and w inside, in the band and outside a certified curve, and w = z:
    # one-point C has the bits of the batch's row for [z]; NearBoundaryError
    # falls exactly where the batch gives NaN in the band (`locate`) and
    # CoincidentInteriorPointsError where it gives NaN off it; the quadrant
    # is `locate` of z and of w; a w in the band refuses both; and a z that
    # `clear_rows` places at n = 256, 1024 and 4096 (outside, or inside at
    # degree 1) has the same bits at all three, at a w off every band
    rng = np.random.default_rng(seed)
    zs = _pullback_points(curve, rng, 2)
    ws = np.append(_pullback_points(curve, rng, 1), zs[0])
    grids = [sb.sample(curve, n) for n in (256, 1024, 4096)]
    by_n = []
    for grid in grids:
        outside, inside = curve_mod.clear_rows(grid, zs)
        clear = outside | (inside & (curve.degree == 1))
        values = {}
        for w in ws:
            w_side = sb.locate(grid, w)
            if w_side is sb.Location.NEAR_BOUNDARY:
                for call in (sb.double_cauchy, sb.double_cauchy_batch):
                    with pytest.raises(NearBoundaryError):
                        call(grid, zs[0], w)
                continue
            for j, z in enumerate(zs):
                batch = sb.double_cauchy_batch(grid, [z], w)[0]
                z_side = sb.locate(grid, z)
                if np.isnan(batch):
                    error = (NearBoundaryError if z_side is sb.Location.NEAR_BOUNDARY
                             else CoincidentInteriorPointsError)
                    with pytest.raises(error):
                        sb.double_cauchy(grid, z, w)
                    continue
                tv = sb.double_cauchy(grid, z, w)
                assert same_bits(tv.C, batch)
                assert tv.quadrant == (z_side, w_side)
                if clear[j]:
                    values[j, w] = tv.C
        by_n.append(values)
    for key in set(by_n[0]) & set(by_n[1]) & set(by_n[2]):
        assert same_bits(by_n[0][key], by_n[1][key]) and same_bits(by_n[0][key], by_n[2][key])


def test_outside_rows_keep_each_factors_branch(quartic_grid):
    # the quartic at an exterior w whose reflected preimage b0 lies near the
    # circle: on a ring one band past the nodes' annulus each factor's
    # principal log(1 - x_b) is the branch of its sum over z's preimages,
    # and Im C follows the one-point sum where a factor's phase passes 1
    # rad and the phases of the four factors add up to 1.1 rad
    grid = sb.sample(quartic_grid.curve, 1024)
    w = 1.3435052224024382 - 0.19734856763703773j
    c, big, _ = grid._node_annulus
    zs = c + (big + grid.exclusion_band) * 1.0001 * np.exp(2j * np.pi * np.arange(64) / 64)
    assert curve_mod.clear_rows(grid, zs)[0].all()
    series = laurent.schwarz_pole(grid.curve, laurent.pole_roots(grid.curve, w))
    b = np.array([root for root, _ in series.inner])
    lift = npoly.polyval(b, (0j, *grid.curve.coeffs[1:]))
    phases = np.angle(1.0 - lift / (zs - c)[:, None])
    assert np.abs(phases).max() > 1.0 and np.abs(phases.sum(axis=1)).max() > 1.05
    got = sb.double_cauchy_batch(grid, zs, w)
    assert _assert_matches_one_point(grid, zs, w, got) == 0
    assert np.allclose(got.imag, phases.sum(axis=1), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("z, closed", [(2.0 + 0.5j, True), (0.1 - 0.2j, False),
                                      (-0.84 + 0.3j, False)])
@pytest.mark.parametrize("w", [3.0 - 1j, 0.2 + 0.1j])
def test_one_point_takes_one_route(cardioid_grid, monkeypatch, z, closed, w):
    # a z that `clear_rows` places takes the closed rows with no kernel pass
    # over z and no density; any other z takes one pass and calls no
    # closed-row function, not even on an empty selection
    def refuse(*args, **kwargs):
        raise AssertionError("the route must not call this")

    want = sb.double_cauchy(cardioid_grid, z, w)
    assert bool(curve_mod.clear_rows(cardioid_grid, [z])[0][0]) == closed
    located = curve_mod.sides
    if closed:
        monkeypatch.setattr(laurent, "spectra", refuse)
        monkeypatch.setattr(transforms, "sides", lambda grid, pts, density=None:
                            located(grid, pts) if density is None else refuse())
    else:
        for name in ("_outside_rows", "_inside_rows"):
            monkeypatch.setattr(transforms, name, refuse)
    got = sb.double_cauchy(cardioid_grid, z, w)
    assert same_bits(got.C, want.C) and got.quadrant == want.quadrant


def test_double_cauchy_batch_refuses_w_in_the_band(disk_grid):
    with pytest.raises(NearBoundaryError):
        sb.double_cauchy_batch(disk_grid, [2.0, 0.1], 1.0)


def _fit_outcome(fit, *args):
    """The fit, or the text of its rank refusal (above the curve's degree)."""
    try:
        return fit(*args)
    except RankDeficientError as exc:
        return str(exc)


def _dense_outcome(zs, fmat, deg_q, deg_p):
    want = oracles.dense_fit(zs, fmat, deg_q, deg_p)
    if isinstance(want, str):
        return want
    q_coeffs, p_coeffs, residual = want
    return quaddom.RationalStructure(q_coeffs=q_coeffs, p_coeffs=p_coeffs,
                                     residual=residual)


@pytest.mark.parametrize("coeffs,rho,n", [([0, 1], 0.5, 512), ([0, 1, 0.3], 0.7, 512),
                                          (QUARTIC, 0.72, 1024)])
@pytest.mark.parametrize("degree", [1, 2, 4])
def test_rational_fit_equals_the_pairwise_loop(coeffs, rho, n, degree):
    # The one-pass F matrix differs from the one-point one by eta (relative).
    # First-order least-squares perturbation: p moves by at most
    # 8 kappa_1 (eta + eps) relative, q by 8 kappa_2 (eta + dP + eps) with
    # dP the relative change of P at the samples, and the residual by
    # 8 kappa_2 (eta + dP + eps), kappa the condition numbers of the dense
    # systems. Rank, and so the refusal, and the classification must be
    # the same.
    grid = sb.sample(sb.build_polynomial_curve(coeffs, rho), n)
    zs = sb.default_exterior_samples(grid, 14)
    fmat = oracles.exterior_f_matrix(grid, zs)
    got = _fit_outcome(sb.fit_rational_structure, grid, degree, degree, zs)
    want = _dense_outcome(zs, fmat, degree, degree)
    if isinstance(want, str):
        assert got == want
        return
    assert got.classification == want.classification
    eta = np.abs(quaddom._exterior_f_matrix(grid, zs) - fmat).max() / np.abs(fmat).max()
    kappa1 = np.linalg.cond(oracles.denominator_system(zs, fmat, degree, degree)[0])
    kappa2 = np.linalg.cond(oracles.numerator_system(zs, fmat, degree, want.p_coeffs)[0])
    pw, pg = npoly.polyval(zs, want.p_coeffs), npoly.polyval(zs, got.p_coeffs)
    d_p = np.abs(pg - pw).max() / np.abs(pw).min()
    rel = np.linalg.norm(got.p_coeffs - want.p_coeffs) / np.linalg.norm(want.p_coeffs)
    assert rel <= 8 * kappa1 * (eta + EPS)
    rel = np.linalg.norm(got.q_coeffs - want.q_coeffs) / np.linalg.norm(want.q_coeffs)
    assert rel <= 8 * kappa2 * (eta + d_p + EPS)
    assert abs(got.residual - want.residual) <= 8 * kappa2 * (eta + d_p + EPS)


FIT_CURVES = {"disk": ([0, 1], 0.5), "cardioid": ([0, 1, 0.3], 0.7),
              "cubic": ([0, 1, 0.1, 0.1], 0.7), "quartic": (QUARTIC, 0.72)}


@pytest.mark.parametrize("count", [12, 14, 24])
@pytest.mark.parametrize("name", sorted(FIT_CURVES))
def test_rational_fit_refusals_match_the_dense_oracle(name, count):
    # Block elimination decides both ranks on the dense systems' scale, so
    # at every degree the refusal text (the rank) and the classification
    # equal those of the dense lstsq on the one-point F matrix
    grid = sb.sample(sb.build_polynomial_curve(*FIT_CURVES[name]), 512)
    zs = sb.default_exterior_samples(grid, count)
    fmat = oracles.exterior_f_matrix(grid, zs)
    refused = 0
    for degree in range(1, 6):
        got = _fit_outcome(sb.fit_rational_structure, grid, degree, degree, zs)
        want = _dense_outcome(zs, fmat, degree, degree)
        if isinstance(want, str):
            refused += 1
            assert got == want
        else:
            assert got.classification == want.classification
    # every degree above the curve's is refused, every other one fitted
    assert refused == 5 - grid.curve.degree


def test_rational_fit_numerator_refusal_matches_the_dense_oracle():
    # 16 samples on a small circle about 3: their Vandermonde is nearly
    # rank deficient at degree 3, so the denominator stage (deg_p = 0)
    # passes and the numerator's Kronecker stage loses rank
    grid = sb.sample(sb.build_polynomial_curve([0, 1, 0.3], 0.7), 512)
    zs = 3 + 0.01 * np.exp(2j * np.pi * (np.arange(16) + 0.25) / 16)
    fmat = oracles.exterior_f_matrix(grid, zs)
    got = _fit_outcome(sb.fit_rational_structure, grid, 3, 0, zs)
    assert got == _dense_outcome(zs, fmat, 3, 0) == "numerator stage rank 13 < 16"


@pytest.mark.parametrize("count", [12, 24])
@pytest.mark.parametrize("name", sorted(FIT_CURVES))
def test_rational_fit_denominator_is_exact(name, count):
    # The domain of a polynomial map of degree d is a quadrature domain with
    # one node, of order d, at phi(0) = a0 (Aharonov & Shapiro 1976), so
    # the fitted P at degree d is (z - a0)^d: exact up to kappa eps relative,
    # kappa the condition number of the dense denominator stage on the F
    # matrix the fit takes
    curve = sb.build_polynomial_curve(*FIT_CURVES[name])
    grid = sb.sample(curve, 512)
    zs = sb.default_exterior_samples(grid, count)
    d = curve.degree
    fit = sb.fit_rational_structure(grid, d, d, zs)
    exact = npoly.polypow([-curve.conformal_center, 1], d)
    fmat = quaddom._exterior_f_matrix(grid, zs)
    kappa = np.linalg.cond(oracles.denominator_system(zs, fmat, d, d)[0])
    assert np.abs(fit.p_coeffs - exact).max() <= kappa * EPS * np.abs(exact).max()


@pytest.mark.parametrize("name", sorted(FIT_CURVES))
def test_rational_fit_rank_cut_holds_for_scaled_f(name):
    # The fit is homogeneous in F, so F scaled by 1e3 must give the dense
    # lstsq's refusal text or classification. |F| ~ 1e3 puts |B|_2 orders
    # above sigma_max(V) in the stage-one cut: a cut on sigma_max(V) alone
    # keeps rank the dense system drops (the disk at (1, 2) fits instead of
    # refusing with rank 25 < 26).
    grid = sb.sample(sb.build_polynomial_curve(*FIT_CURVES[name]), 512)
    zs = sb.default_exterior_samples(grid, 12)
    fmat = 1e3 * oracles.exterior_f_matrix(grid, zs)
    for deg_q in range(1, 5):
        for deg_p in range(1, 6):
            got = _fit_outcome(quaddom._solve_stages, zs, fmat, deg_q, deg_p)
            want = _dense_outcome(zs, fmat, deg_q, deg_p)
            if isinstance(want, str):
                assert got == want
            else:
                assert got.classification == want.classification


def _fit_f_bound(curve, zs, m, c):
    """Bound on |log(F/exp C)| for the fit's F from the modes at m nodes,
    with rho the least modulus of a root of phi - z over zs and N the
    degree: the modes' truncation and aliasing, N^2 rho^-m/(1 - 1/rho);
    their rounding, at most eps (3m + (2 + log2 m) L) per mode, the unwrap's
    m phase steps and the FFT of logs of size at most L = max |log|z -
    a0|| + pi + N log(rho/(rho - 1)), against sum_k k |l_k| <= N/(rho - 1)
    on each side; and 8 eps |C| for the closed rows' factors and exp."""
    degree = curve.degree
    rho = min(np.abs(laurent.pole_roots(curve, z)).min() for z in zs)
    size = (np.abs(np.log(np.abs(zs - curve.coeffs[0]))).max() + np.pi
            + degree * math.log(rho / (rho - 1.0)))
    rounding = 4 * degree / (rho - 1.0) * (3 * m + (2 + math.log2(m)) * size)
    return degree ** 2 * rho ** -m / (1.0 - 1.0 / rho) + EPS * (8 * np.abs(c) + rounding)


@settings(max_examples=25, deadline=None)
@given(curve=certified_curves(), n=st.sampled_from([256, 1024]), count=st.integers(1, 4),
       seed=st.integers(0, 2 ** 16))
def test_fit_f_is_exp_c_on_every_pair(curve, n, count, seed):
    # two independent routes to F(z, w) of exterior samples: the fit's, the
    # modes of log(phi - z) at m pullback nodes, and double_cauchy's closed
    # rows, the roots of phi - w; at phi(1.05 <= |zeta| < 1/rho), off the
    # band, where m often reaches n, and far out
    grid = sb.sample(curve, n)
    zs = _pullback_points(curve, np.random.default_rng(seed), count)[2 * count:]
    zs = zs[~curve_mod.sides(grid, zs)[0]]
    f = quaddom._exterior_f_matrix(grid, zs)
    c = np.array([[sb.double_cauchy(grid, z, w).C for w in zs] for z in zs])
    m = quaddom._mode_nodes(curve, zs, n)
    assert np.all(np.abs(np.log(f / np.exp(c))) <= _fit_f_bound(curve, zs, m, c))


def test_fit_f_takes_every_node_where_the_root_bound_is_below_one():
    # samples at phi(1.2 e^{it}) on the cardioid, off the band at n = 1024,
    # within sum_j |a_j| = 1.3 of a0: the root bound is at most 1, so m = n,
    # and F is exp C on every pair within the stated bound
    curve = sb.build_polynomial_curve([0, 1, 0.3], 0.7)
    grid = sb.sample(curve, 1024)
    zs = curve.phi(1.2 * np.exp(1j * np.array([2.8, 3.1, 3.5])))
    assert not curve_mod.sides(grid, zs)[0].any()
    assert quaddom._root_modulus_bound(curve, zs) <= 1.0
    assert quaddom._mode_nodes(curve, zs, grid.n) == grid.n
    f = quaddom._exterior_f_matrix(grid, zs)
    c = np.array([[sb.double_cauchy(grid, z, w).C for w in zs] for z in zs])
    assert np.all(np.abs(np.log(f / np.exp(c))) <= _fit_f_bound(curve, zs, grid.n, c))


def test_rational_fit_takes_f_from_one_unwrap_at_mode_nodes(quartic_grid, monkeypatch):
    # no per-column double_cauchy_batch, no per-sample locate and no kernel
    # pass: one side decision locates the samples, clear of the nodes'
    # annulus, and one unwrap over m <= n pullback nodes, fewer than the
    # grid's, gives every sample's modes
    def refuse(*args, **kwargs):
        raise AssertionError("the fit must not call this")

    counts = {"sides": 0, "unwrap_log": 0}
    shapes = []

    def counted(module, name):
        inner = getattr(module, name)

        def call(*args, **kwargs):
            counts[name] += 1
            if name == "unwrap_log":
                shapes.append(np.shape(args[0]))
            return inner(*args, **kwargs)
        return call

    zs = sb.default_exterior_samples(quartic_grid, 24)
    want = sb.fit_rational_structure(quartic_grid, 4, 4, zs)
    for name in ("double_cauchy_batch", "locate", "kernel_sums"):
        # each name binds somewhere: a stale one would patch nothing
        targets = [t for t in (curve_mod, sb.transforms, quaddom, sb) if hasattr(t, name)]
        assert targets, name
        for target in targets:
            monkeypatch.setattr(target, name, refuse)
    monkeypatch.setattr(quaddom, "unwrap_log", counted(quaddom, "unwrap_log"))
    # the samples are located through curve.off_band, whose decision is there
    monkeypatch.setattr(curve_mod, "sides", counted(curve_mod, "sides"))
    got = sb.fit_rational_structure(quartic_grid, 4, 4, zs)
    assert counts == {"sides": 1, "unwrap_log": 1}
    assert curve_mod.clear_rows(quartic_grid, zs)[0].all()
    m = shapes[0][0]
    assert shapes == [(m, zs.size)] and 16 <= m < quartic_grid.n and m & (m - 1) == 0
    assert same_bits(got.p_coeffs, want.p_coeffs)
    assert same_bits(got.q_coeffs, want.q_coeffs)


def test_rational_fit_refuses_after_one_unwrap_at_mode_nodes(cardioid, monkeypatch):
    # samples at |z| = 2.5 and 1e13: 1/(S - conj z) is about 1e-13 at the
    # far one, a modulus refusal at the m = 128 mode nodes already, which
    # the 512 nodes, a superset, would give as well
    grid = sb.sample(cardioid, 512)
    zs = np.append(2.5 * np.exp(2j * np.pi * np.arange(5) / 5 + 0.1j), 1e13)
    with pytest.raises(BranchUnresolvedError) as at_n:
        transforms.unwrap_log(transforms._pole_transition(grid, zs))
    shapes = []
    unwrap = quaddom.unwrap_log
    monkeypatch.setattr(quaddom, "unwrap_log",
                        lambda values: shapes.append(np.shape(values)) or unwrap(values))
    with pytest.raises(BranchUnresolvedError) as refused:
        sb.fit_rational_structure(grid, 1, 1, zs)
    assert str(refused.value) == str(at_n.value) == "values are zero or not finite; no branch exists"
    assert shapes == [(128, 6)]


@pytest.mark.parametrize("zs,deg_q,deg_p", [
    (np.array([2.0, -1.5j, 0.3 + 2.2j]), 0, 0),
    (np.array([2.0, -1.5j, 0.3 + 2.2j, -2.4 + 0.1j]), 1, 3),
    (3.0 * np.exp(2j * np.pi * np.arange(14) / 14 + 0.4j), 4, 4),
    (2.1 * np.exp(2j * np.pi * np.arange(24) / 24), 5, 2),
])
def test_fit_systems_equal_the_pair_loops(zs, deg_q, deg_p):
    # the dense oracle's broadcast assembly is the pair-by-pair definition
    rng = np.random.default_rng(zs.size)
    fmat = rng.normal(size=(zs.size, zs.size)) + 1j * rng.normal(size=(zs.size, zs.size))
    got = oracles.denominator_system(zs, fmat, deg_q, deg_p)
    want = oracles.denominator_system_loop(zs, fmat, deg_q, deg_p)
    assert all(same_bits(a, b) for a, b in zip(got, want))
    p_coeffs = np.concatenate([rng.normal(size=deg_p) + 1j * rng.normal(size=deg_p), [1.0]])
    got = oracles.numerator_system(zs, fmat, deg_q, p_coeffs)
    want = oracles.numerator_system_loop(zs, fmat, deg_q, p_coeffs)
    assert all(same_bits(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("coeffs,rho,n", [([0.1, 1], 0.5, 256), ([0, 1, 0.3], 0.7, 4096),
                                          (QUARTIC, 0.72, 1024)])
@pytest.mark.parametrize("k_max", [1, 2, 4, 6])
def test_moment_expansion_check_equals_the_loop(coeffs, rho, n, k_max):
    # The ring's sums each lie within their row bound B of the one-point
    # sums; the inverse FFT moves coefficient m by at most max B, plus its
    # own rounding of log2(N) eps max |vals| on each side, and coefficient k
    # is scaled by radius^(k+1).
    grid = sb.sample(sb.build_polynomial_curve(coeffs, rho), n)
    n_fft = max(256, 4 * (k_max + 2))
    radius = 2.0 * np.abs(grid.z).max()
    ring = radius * np.exp(2j * np.pi * np.arange(n_fft) / n_fft)
    dens_dz = np.conjugate(grid.z) * grid.dz
    row = max(oracles.kernel_row_bound(grid, dens_dz, p) for p in ring)
    vals = max(abs(oracles.trapezoid_cauchy(grid, np.conjugate(grid.z), p)) for p in ring)
    bound = radius ** (k_max + 1) * (row + 2 * np.log2(n_fft) * EPS * vals)
    # the check's moments from the coefficient table and the loop's by exact
    # algebra differ by the table's rounding, measured here
    table = grid.curve.moments(k_max)
    moments = max(abs(table[k] - oracles.exact_moment(grid.curve.coeffs, k))
                  for k in range(k_max + 1))
    want = oracles.moment_expansion_loop(grid, k_max)
    assert abs(sb.moment_expansion_check(grid, k_max) - want) \
        <= bound + moments + 2 * EPS * want


@given(size=st.integers(16, 160), seed=st.integers(0, 2 ** 16))
def test_far_pair_gap_equals_all_pairs(size, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=size) + 1j * rng.normal(size=size)
    assert curve_mod._far_pair_gap(z) == oracles.far_pair_gap_all_pairs(z)


def _exp_map_coeffs(p, count=24):
    """phi with phi' = the degree count - 2 Taylor polynomial of exp(p)."""
    dphi, term = np.zeros(count - 1, complex), np.ones(1, complex)
    for k in range(count - 1):
        dphi[:term.size] += term[:count - 1]
        term = npoly.polymul(term, p)[:count - 1] / (k + 1)
    return np.concatenate([[0], dphi / np.arange(1, count)])


@pytest.mark.parametrize("coeffs,simple", [
    ([0, 1, 0.3], True),
    (QUARTIC, True),
    # locally univalent, so only the pair scan can refuse it
    (_exp_map_coeffs([0, 1.51 + 2.42j, 0.86 + 1.63j]), False),
    (_exp_map_coeffs([0, -4.53 + 1.79j, 0.72 - 0.32j]), False),
])
def test_far_pair_gap_keeps_the_injectivity_decision(coeffs, simple):
    curve = sb.ConformalMapCurve(tuple(coeffs), 0.97)
    z = curve.point(2.0 * np.pi * np.arange(512) / 512)
    gap = curve_mod._far_pair_gap(z)
    assert gap == oracles.far_pair_gap_all_pairs(z)
    half_step = 0.5 * np.abs(np.roll(z, -1) - z).min()
    assert bool(gap >= half_step) == simple
    if simple:
        sb.build_polynomial_curve(coeffs, 0.97)
    else:
        with pytest.raises(CurveNotSimpleError, match="self-intersects"):
            sb.build_polynomial_curve(coeffs, 0.97)
