"""The blocked Cauchy-kernel pass and the batched evaluations built on it,
compared bit for bit with one-point sums and the loops in tests/oracles.py."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

import schwarzbundles as sb
from schwarzbundles import curve as curve_mod
from schwarzbundles import quaddom
from schwarzbundles.errors import (
    CoincidentInteriorPointsError,
    CurveNotSimpleError,
    NearBoundaryError,
    RankDeficientError,
)
import oracles

QUARTIC = [0.1 + 0.05j, 1, 0.15, 0.08j, 0.03]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b, dtype=np.asarray(a).dtype)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def quartic_grid():
    return sb.sample(sb.build_polynomial_curve(QUARTIC, 0.72), 512)


def _points(grid, count, seed, on_nodes):
    """Random points around the curve, the first `on_nodes` exactly on nodes."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2.5, 2.5, count) + 1j * rng.uniform(-2.5, 2.5, count)
    pts[:on_nodes] = grid.z[rng.integers(0, grid.n, on_nodes)]
    return rng.permutation(pts)


@given(count=st.integers(1, 70), seed=st.integers(0, 2 ** 16),
       on_nodes=st.integers(0, 3))
def test_kernel_sums_equal_one_point_sums(cardioid_grid, count, seed, on_nodes):
    # 32 rows per block at n = 1024: counts cross one and two block edges
    grid = cardioid_grid
    pts = _points(grid, count, seed, min(on_nodes, count))
    dens = np.conjugate(grid.z) ** 2
    nearest, winding, sums = sb.kernel_sums(grid, pts, dens)
    with np.errstate(all="ignore"):  # the one-point sums divide by zero on a node
        assert same_bits(nearest, [oracles.nearest_node_distance(grid, p) for p in pts])
        assert same_bits(winding, [oracles.trapezoid_winding(grid, p) for p in pts])
        assert same_bits(sums, [oracles.trapezoid_cauchy(grid, dens, p) for p in pts])
    assert same_bits(winding, [sb.winding_number(grid, p) for p in pts])
    assert same_bits(sums, [sb.cauchy_integral(grid, dens, p) for p in pts])
    assert sb.kernel_sums(grid, pts)[2] is None
    sides = [sb.Location.NEAR_BOUNDARY if d < grid.exclusion_band
             else sb.Location.INTERIOR if wn > 0.5 else sb.Location.EXTERIOR
             for d, wn in zip(nearest, winding)]
    assert sides == [sb.locate(grid, p) for p in pts]


def test_kernel_sums_density_rows(quartic_grid):
    grid = quartic_grid
    pts = _points(grid, 37, 5, 2)
    with np.errstate(divide="ignore"):  # log 0 on the node rows
        rows = np.log(np.abs(grid.z - pts[:, None]) ** 2)
    _, _, per_point = sb.kernel_sums(grid, pts, rows)
    w = 2.0 - 1.5j
    nearest, winding, at_w = sb.kernel_sums(grid, [w], rows)
    assert nearest.shape == winding.shape == at_w.shape == (37,)
    with np.errstate(all="ignore"):  # the node rows hold log 0
        assert same_bits(per_point, [oracles.trapezoid_cauchy(grid, r, p)
                                     for r, p in zip(rows, pts)])
        assert same_bits(at_w, [oracles.trapezoid_cauchy(grid, r, w) for r in rows])
    assert np.all(nearest == oracles.nearest_node_distance(grid, w))
    assert np.all(winding == oracles.trapezoid_winding(grid, w))


@pytest.mark.parametrize("grid_name", ["disk_grid", "cardioid_grid", "quartic_grid"])
@pytest.mark.parametrize("w", [0.2 + 0.1j, -0.3j, 2.5 - 1j, -1.7 + 1.9j])
def test_double_cauchy_batch_equals_scalar(request, grid_name, w):
    grid = request.getfixturevalue(grid_name)
    zs = np.concatenate([_points(grid, 60, 11, 2), [w, w + 1e-13, 0.25 - 0.2j, 3.0]])
    got = sb.double_cauchy_batch(grid, zs, w)
    blanks = 0
    for z, c in zip(zs, got):
        want = oracles.double_cauchy_one_point(grid, z, w)
        if want is None:
            blanks += 1
            assert np.isnan(c)
            with pytest.raises((NearBoundaryError, CoincidentInteriorPointsError)):
                sb.double_cauchy(grid, z, w)
        else:
            assert same_bits(c, want)
            assert same_bits(sb.double_cauchy(grid, z, w).C, want)
    assert 0 < blanks < zs.size
    z_sides = {sb.double_cauchy(grid, z, w).quadrant[0]
               for z, c in zip(zs, got) if not np.isnan(c)}
    assert len(z_sides) == 2  # both quadrants of this w


def test_double_cauchy_batch_mixed_rows_span_blocks(disk_grid):
    # 150 interior z at one exterior w: three blocks of 64 density rows at n = 512
    rng = np.random.default_rng(2)
    zs = 0.8 * np.sqrt(rng.uniform(size=150)) * np.exp(2j * np.pi * rng.uniform(size=150))
    w = 1.5 + 0.5j
    assert same_bits(sb.double_cauchy_batch(disk_grid, zs, w),
                     [oracles.double_cauchy_one_point(disk_grid, z, w) for z in zs])


def test_double_cauchy_batch_refuses_w_in_the_band(disk_grid):
    with pytest.raises(NearBoundaryError):
        sb.double_cauchy_batch(disk_grid, [2.0, 0.1], 1.0)


@pytest.mark.parametrize("coeffs,rho,n", [([0, 1], 0.5, 512), ([0, 1, 0.3], 0.7, 512),
                                          (QUARTIC, 0.72, 1024)])
@pytest.mark.parametrize("degree", [1, 2, 4])
def test_rational_fit_equals_the_pairwise_loop(coeffs, rho, n, degree):
    grid = sb.sample(sb.build_polynomial_curve(coeffs, rho), n)
    zs = sb.default_exterior_samples(grid, 14)

    def outcome(fit, *args):
        try:
            got = fit(*args)
        except RankDeficientError as exc:  # above the curve's degree
            return str(exc)
        return got.residual, got.q_coeffs.tobytes(), got.p_coeffs.tobytes()

    fmat = oracles.exterior_f_matrix(grid, zs)
    assert outcome(sb.fit_rational_structure, grid, degree, degree, zs) == \
        outcome(quaddom._fit_transform_matrix, zs, fmat, degree, degree)


@pytest.mark.parametrize("coeffs,rho,n", [([0.1, 1], 0.5, 256), ([0, 1, 0.3], 0.7, 4096),
                                          (QUARTIC, 0.72, 1024)])
@pytest.mark.parametrize("k_max", [1, 2, 4, 6])
def test_moment_expansion_check_equals_the_loop(coeffs, rho, n, k_max):
    grid = sb.sample(sb.build_polynomial_curve(coeffs, rho), n)
    assert sb.moment_expansion_check(grid, k_max) == \
        oracles.moment_expansion_loop(grid, k_max)


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
