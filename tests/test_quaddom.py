import numpy as np
import pytest

import schwarzbundles as sb
from schwarzbundles.errors import (
    NearBoundaryError,
    NotConformalMapCurveError,
    ParseError,
    RankDeficientError,
    TangentNotMeromorphicError,
    WrongQuadrantError,
)

from oracles import area_integral_pullback, exact_moment, polygon_area_integral

EPS = np.finfo(float).eps
QUARTIC = [0.1 + 0.05j, 1, 0.15, 0.08j, 0.03]
MOMENT_CURVES = [([0.3 + 0.1j, 1], 0.5), ([0, 1, 0.3], 0.7), (QUARTIC, 0.72), ([800, 1], 0.5),
                 ([5j, 1, 0.3], 0.7)]


def test_classical_disk(disk):
    assert sb.classical_quadrature(disk, [1]) == pytest.approx(1.0, abs=1e-12)


def test_classical_shifted_circle_centroid():
    a = 0.3 + 0.1j
    c = sb.build_circle(a, 1.0)
    # (1/pi) * integral of z over the disk centered at a is a * r^2
    assert sb.classical_quadrature(c, [0, 1]) == pytest.approx(a, abs=1e-12)


def test_classical_cardioid_area(cardioid):
    assert sb.classical_quadrature(cardioid, [1]) == pytest.approx(1.18, abs=1e-12)


def test_classical_rejects_polygon(unit_square):
    with pytest.raises(NotConformalMapCurveError):
        sb.classical_quadrature(unit_square, [1])


def test_abelian_disk(disk):
    assert sb.abelian_quadrature(disk, [0, 1]) == pytest.approx(1.0, abs=1e-12)
    assert sb.abelian_quadrature(disk, [0, 0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_abelian_shifted_circle():
    a = 0.4 + 0.3j
    c = sb.build_circle(a, 1.0)
    assert sb.abelian_quadrature(c, [0, 0, 1]) == pytest.approx(2 * a, abs=1e-12)


@pytest.mark.parametrize("coeffs,rho", MOMENT_CURVES)
def test_classical_moments_equal_the_exact_coefficient_sums(coeffs, rho):
    curve = sb.build_polynomial_curve(coeffs, rho)
    for k in range(9):
        want = exact_moment(coeffs, k)
        got = sb.classical_quadrature(curve, [0] * k + [1])
        assert abs(got - want) <= 8 * EPS * abs(want), k


def test_abelian_of_a_constant_is_exactly_zero(disk, cardioid):
    for curve in (disk, cardioid, sb.build_polynomial_curve(QUARTIC, 0.72),
                  sb.build_circle(800, 1)):
        assert sb.abelian_quadrature(curve, [2.5 - 1j]) == 0


def test_arclength_disk(disk, disk_grid):
    assert sb.arclength_quadrature(disk, [1], disk_grid) == pytest.approx(
        2 * np.pi, abs=1e-10)
    assert sb.arclength_quadrature(disk, [0, 0, 1], disk_grid) == pytest.approx(
        0.0, abs=1e-10)


def test_arclength_mean_value(disk, disk_grid):
    # degree-8 truncation of 1/(z - 3); the boundary mean is 2 pi f(0)
    coeffs = [-(3.0 ** -(j + 1)) for j in range(9)]
    value = sb.arclength_quadrature(disk, coeffs, disk_grid)
    assert value == pytest.approx(2 * np.pi * (-1 / 3), abs=1e-10)


def test_arclength_rejects_branching_tangent(cardioid, cardioid_grid):
    with pytest.raises(TangentNotMeromorphicError):
        sb.arclength_quadrature(cardioid, [1], cardioid_grid)


def test_polygon_weights_square(unit_square):
    weights = sb.polygon_quadrature(unit_square)
    total = sum(c for _, c in weights)
    first = sum(c * a for a, c in weights)
    assert abs(total) < 1e-12
    assert abs(first) < 1e-12
    # linear f gives zero
    assert sb.apply_polygon_quadrature(weights, [0.7, 2.1j]) == pytest.approx(
        0.0, abs=1e-12)
    assert sb.apply_polygon_quadrature(weights, [0, 0, 1]) == pytest.approx(
        2 / np.pi, abs=1e-12)
    assert sb.apply_polygon_quadrature(weights, [0, 0, 0, 1]) == pytest.approx(
        6 * (0.5 + 0.5j) / np.pi, abs=1e-12)


def test_polygon_matches_area_oracle(unit_square):
    weights = sb.polygon_quadrature(unit_square)
    for coeffs in ([0, 0, 1], [0, 0, 0, 1]):
        lhs = sb.apply_polygon_quadrature(weights, coeffs)
        fpp = sb.poly_derivative(coeffs, 2)
        oracle = polygon_area_integral(
            unit_square, lambda z: np.polynomial.polynomial.polyval(z, fpp)) / np.pi
        assert abs(lhs - oracle) < 1e-5


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("side", [1e-20, 1e-10, 1.0, 1e150])
def test_polygon_identity_holds_at_every_scale(side):
    # the square [0, side]^2 and f = z^2 + z^3 / side: both sides of the
    # identity are side^2 (5 + 3i) / pi
    square = sb.build_polygon([0, side, side * (1 + 1j), side * 1j])
    coeffs = [0, 0, 1, 1 / side]
    ours = sb.area_mean_polygon(square, sb.poly_derivative(coeffs, 2))
    got = sb.apply_polygon_quadrature(sb.polygon_quadrature(square), coeffs)
    assert abs(got - ours) <= 1e-12 * abs(ours)
    assert abs(ours - side ** 2 * (5 + 3j) / np.pi) <= 1e-12 * abs(ours)


def test_polygon_area_mean_is_exact_off_the_grid_axes():
    tri = sb.build_polygon([0, 1, 0.3 + 0.8j])
    area, centroid = 0.4, (1.3 + 0.8j) / 3
    assert abs(sb.area_mean_polygon(tri, [1]) - area / np.pi) < 1e-15
    assert abs(sb.area_mean_polygon(tri, [0, 1]) - area * centroid / np.pi) < 1e-15
    weights = sb.polygon_quadrature(tri)
    for coeffs in ([0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1j], [1, 2, 3, 4, 5, 6]):
        fpp = sb.poly_derivative(coeffs, 2)
        ours = sb.area_mean_polygon(tri, fpp)
        assert abs(sb.apply_polygon_quadrature(weights, coeffs) - ours) < 1e-13
        oracle = polygon_area_integral(
            tri, lambda z: np.polynomial.polynomial.polyval(z, fpp)) / np.pi
        assert abs(ours - oracle) < 1e-4 * max(1.0, abs(ours))


def test_residues_match_boundary_oracles(disk, disk_grid, cardioid, cardioid_grid):
    polys = ([1], [0, 1], [0, 0, 1], [0, 0, 0, 1])
    for curve, grid in ((disk, disk_grid), (cardioid, cardioid_grid)):
        for coeffs in polys:
            assert abs(sb.classical_quadrature(curve, coeffs)
                       - sb.boundary_classical(grid, coeffs)) < 1e-9
            assert abs(sb.abelian_quadrature(curve, coeffs)
                       - sb.boundary_abelian(grid, coeffs)) < 1e-9
    for coeffs in polys:
        assert abs(sb.arclength_quadrature(disk, coeffs, disk_grid)
                   - sb.boundary_arclength(disk_grid, coeffs)) < 1e-9


def test_residues_match_area_oracles(disk, cardioid):
    polys = ([1], [0, 1], [0, 0, 1])
    for curve in (disk, cardioid):
        for coeffs in polys:
            fn = lambda z: np.polynomial.polynomial.polyval(z, coeffs)
            oracle = area_integral_pullback(curve, fn) / np.pi
            assert abs(sb.classical_quadrature(curve, coeffs) - oracle) < 1e-5
            dfn = sb.poly_derivative(coeffs)
            oracle_d = area_integral_pullback(
                curve, lambda z: np.polynomial.polynomial.polyval(z, dfn)) / np.pi
            assert abs(sb.abelian_quadrature(curve, coeffs) - oracle_d) < 1e-5


def test_quadrature_linearity(disk, cardioid):
    rng = np.random.default_rng(7)
    for curve in (disk, cardioid):
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        g = rng.normal(size=4) + 1j * rng.normal(size=4)
        a, b = complex(rng.normal(), rng.normal()), complex(rng.normal())
        combo = a * f + b * g
        for op in (sb.classical_quadrature, sb.abelian_quadrature):
            assert op(curve, combo) == pytest.approx(
                a * op(curve, f) + b * op(curve, g), abs=1e-10)


def test_moment_consistency(disk, disk_grid, cardioid, cardioid_grid):
    for curve, grid in ((disk, disk_grid), (cardioid, cardioid_grid)):
        table = sb.harmonic_moments(grid, 0, 4)
        for k in range(5):
            coeffs = [0] * k + [1]
            assert abs(sb.classical_quadrature(curve, coeffs) - table[k]) < 1e-9


def test_rational_fit_disk(disk_grid):
    fit = sb.fit_rational_structure(
        disk_grid, 1, 1, sb.default_exterior_samples(disk_grid, 12))
    assert fit.residual < 1e-8
    assert fit.is_quadrature_domain_at_degree
    scale = fit.q_coeffs[1, 1]
    assert np.abs(fit.q_coeffs / scale - np.array([[-1, 0], [0, 1]])).max() < 1e-8
    assert np.abs(fit.p_coeffs - np.array([0, 1])).max() < 1e-8
    # hermitian coefficients
    assert np.abs(fit.q_coeffs - fit.q_coeffs.conj().T).max() < 1e-10


def test_rational_fit_needs_denominator(disk_grid):
    fit = sb.fit_rational_structure(
        disk_grid, 1, 0, sb.default_exterior_samples(disk_grid, 12))
    assert fit.residual > 1e-3
    assert not fit.is_quadrature_domain_at_degree


def test_rational_fit_cardioid(cardioid_grid):
    fit = sb.fit_rational_structure(
        cardioid_grid, 2, 2, sb.default_exterior_samples(cardioid_grid, 12))
    assert fit.residual < 1e-6
    assert sb.verify_algebraic_boundary(fit.q_coeffs, cardioid_grid) < 1e-5


def test_rational_fit_low_degree_rejection():
    # valid degree-3 map fit at too-low degree: not a quadrature domain there
    curve = sb.build_polynomial_curve([0, 1, 0.1, 0.1], 0.7)
    grid = sb.sample(curve, 512)
    fit = sb.fit_rational_structure(grid, 1, 1,
                                    sb.default_exterior_samples(grid, 12))
    assert fit.residual > 1e-3
    assert fit.classification == sb.quaddom.NOT_QUADRATURE_DOMAIN


def test_rational_fit_guards(disk_grid):
    with pytest.raises(RankDeficientError):
        sb.fit_rational_structure(disk_grid, 2, 1, np.array([2.0, 3.0]))
    with pytest.raises(WrongQuadrantError):
        sb.fit_rational_structure(disk_grid, 1, 1,
                                  np.array([2.0, 3.0, 0.5, 2j, -3.0, 4.0]))
    with pytest.raises(NearBoundaryError):  # a sample in the band, not interior
        sb.fit_rational_structure(disk_grid, 1, 1,
                                  np.array([2.0, 3.0, 1.0 + 1e-9, 2j, -3.0, 4.0]))


@pytest.mark.parametrize("deg_q, deg_p", [(-1, 1), (1, -1), (-7, -7)])
def test_rational_fit_refuses_negative_degrees(disk_grid, deg_q, deg_p):
    samples = sb.default_exterior_samples(disk_grid, 12)
    with pytest.raises(ParseError, match="nonnegative"):
        sb.fit_rational_structure(disk_grid, deg_q, deg_p, samples)


def test_verify_algebraic_boundary_values(disk_grid):
    good = np.array([[-1, 0], [0, 1]], dtype=complex)  # z conj(z) - 1
    assert sb.verify_algebraic_boundary(good, disk_grid) < 1e-12
    # z conj(z) - 2 misses by 1 on the circle; largest coefficient is 2
    bad = np.array([[-2, 0], [0, 1]], dtype=complex)
    assert sb.verify_algebraic_boundary(bad, disk_grid) == pytest.approx(0.5)


def test_quadrature_report_shape():
    rep = sb.quaddom.quadrature_report("classical", 1 + 0j, 1 + 1e-12j)
    assert rep["kind"] == "classical"
    assert rep["discrepancy"] < 1e-10


@pytest.mark.parametrize("coeffs,rho", MOMENT_CURVES)
def test_classical_primitive_matches_polyint_bit_for_bit(coeffs, rho):
    curve = sb.build_polynomial_curve(coeffs, rho)
    rng = np.random.default_rng(11)
    polys = [[0] * k + [1] for k in range(9)] + [[2.5 - 1j], [1, 2, 3, 4, 5, 6, 7]]
    polys += [list(rng.normal(size=6) * 10.0 ** rng.integers(-4, 5, 6)) for _ in range(5)]
    polys.append(list(rng.normal(size=7) + 1j * rng.normal(size=7)))
    for f in polys:
        want = sb.quaddom._derivative_area_mean(curve, np.polynomial.polynomial.polyint(f))
        got = sb.classical_quadrature(curve, f)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), f
