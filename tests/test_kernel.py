"""The blocked Cauchy-kernel pass and the batched evaluations built on it,
compared with one-point sums and the loops in tests/oracles.py.

Distances, sides, NaN rows and refusals must match exactly. Windings, Cauchy
sums and what is built on them come from BLAS products, whose summation
order depends on the batch; they must lie within the bound the kernel
states, `oracles.kernel_row_bound`, 8 n eps * sum_k |w num_k/(z_k - p)|."""

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
from oracles import EPS, same_bits

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


@given(count=st.integers(1, 70), seed=st.integers(0, 2 ** 16),
       on_nodes=st.integers(0, 3))
def test_kernel_sums_equal_one_point_sums(cardioid_grid, count, seed, on_nodes):
    # 32 rows per block at n = 1024: counts cross one and two block edges
    grid = cardioid_grid
    pts = _points(grid, count, seed, min(on_nodes, count))
    dens = np.conjugate(grid.z) ** 2
    nearest, winding, sums = sb.kernel_sums(grid, pts, dens)
    singles = [sb.kernel_sums(grid, [p], dens) for p in pts]
    # sqrt(dr^2 + di^2) is the same in any batch, and within 1.5 eps of |z - p|
    assert same_bits(nearest, [one[0][0] for one in singles])
    hypot = np.array([oracles.nearest_node_distance(grid, p) for p in pts])
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


def test_rational_fit_takes_f_from_one_kernel_pass(quartic_grid, monkeypatch):
    # no per-column double_cauchy_batch and no per-sample locate: one pass
    # locates the samples, one unwrap forms every density and one pass sums
    def refuse(*args, **kwargs):
        raise AssertionError("the fit must not call this")

    counts = {"kernel_sums": 0, "unwrap_log": 0}

    def counted(name):
        inner = getattr(quaddom, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        return call

    zs = sb.default_exterior_samples(quartic_grid, 24)
    want = sb.fit_rational_structure(quartic_grid, 4, 4, zs)
    for target in (curve_mod, sb.transforms, quaddom, sb):
        for name in ("double_cauchy_batch", "locate", "require_off_band"):
            monkeypatch.setattr(target, name, refuse, raising=False)
    for name in counts:
        monkeypatch.setattr(quaddom, name, counted(name))
    got = sb.fit_rational_structure(quartic_grid, 4, 4, zs)
    assert counts == {"kernel_sums": 2, "unwrap_log": 1}
    assert same_bits(got.p_coeffs, want.p_coeffs)
    assert same_bits(got.q_coeffs, want.q_coeffs)


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
    want = oracles.moment_expansion_loop(grid, k_max)
    assert abs(sb.moment_expansion_check(grid, k_max) - want) <= bound + 2 * EPS * want


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
