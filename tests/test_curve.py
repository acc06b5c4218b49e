import math
import warnings

import numpy as np
import pytest

import schwarzbundles as sb
from schwarzbundles.curve import off_band, sides
from schwarzbundles.errors import (
    BadNodeCountError,
    CurveNotSimpleError,
    DegenerateEdgeError,
    NearBoundaryError,
    NonPositiveRadiusError,
    NotConformalMapCurveError,
    ParseError,
)


def test_build_circle_unit():
    c = sb.build_circle(0, 1)
    assert c.coeffs == (0j, 1 + 0j)


def test_build_circle_affine():
    c = sb.build_circle(2 + 1j, 0.5)
    assert c.coeffs == (2 + 1j, 0.5 + 0j)
    assert c.phi(1.0) == pytest.approx(2.5 + 1j)


def test_build_circle_rejects_nonpositive_radius():
    with pytest.raises(NonPositiveRadiusError):
        sb.build_circle(0, -1)
    with pytest.raises(NonPositiveRadiusError):
        sb.build_circle(0, 0)


@pytest.mark.parametrize("build", [
    lambda: sb.build_circle(0, float("nan")),
    lambda: sb.build_circle(float("inf"), 1),
    lambda: sb.build_circle(complex(0, float("nan")), 1),
    lambda: sb.build_polynomial_curve([float("nan"), 1], 0.5),
    lambda: sb.build_polynomial_curve([0, float("inf")], 0.5),
    lambda: sb.build_polynomial_curve([0, 1, complex(0, float("inf"))], 0.5),
    lambda: sb.build_polygon([0, 1, complex(float("nan"), 1), 1j]),
    lambda: sb.build_polygon([0, 1, float("inf")]),
])
def test_builders_refuse_non_finite_data(build):
    with pytest.raises(ParseError, match="finite"):
        build()


@pytest.mark.parametrize("build", [
    lambda: sb.build_circle(0, 1e200),
    lambda: sb.build_circle(1e200, 1),
    lambda: sb.build_circle(0, 1e154),  # extent 2e154 at rho 0.5
    lambda: sb.build_polynomial_curve([0, 1, 1e155], 0.5),
    lambda: sb.build_polynomial_curve([0, complex(1.5e308, 1.5e308)], 0.5),
    lambda: sb.build_polygon([0, 1e200, 1e200 + 1e200j, 1e200j]),
    lambda: sb.build_polygon([0, complex(1.5e308, 1.5e308), 1j]),
])
def test_builders_refuse_an_extent_whose_square_overflows(build):
    with pytest.raises(ParseError, match="overflows when squared"):
        build()


def test_a_1e150_disk_and_square_still_build():
    assert sb.build_circle(0, 1e150).coeffs == (0j, 1e150 + 0j)
    assert sb.build_polygon([0, 1e150, 1e150 + 1e150j, 1e150j]).n_vertices == 4


def test_polynomial_curve_valid():
    c = sb.build_polynomial_curve([0, 1, 0.3], 0.9)
    assert c.degree == 2


def test_polynomial_curve_derivative_vanishes():
    # phi' = 1 + 1.2 zeta has its root at -5/6, inside the 1/0.8 disk
    with pytest.raises(CurveNotSimpleError):
        sb.build_polynomial_curve([0, 1, 0.6], 0.8)


def test_identity_map_is_valid():
    c = sb.build_polynomial_curve([0, 1], 0.9)
    assert c.degree == 1


def test_sample_rejects_bad_counts(disk):
    with pytest.raises(BadNodeCountError):
        sb.sample(disk, 12)
    with pytest.raises(BadNodeCountError):
        sb.sample(disk, 100)


def test_sample_unit_circle_nodes(disk):
    g = sb.sample(disk, 16)
    expect = np.exp(2j * np.pi * np.arange(16) / 16)
    assert np.allclose(g.z, expect, atol=1e-15)
    assert np.allclose(g.dz, 1j * expect, atol=1e-15)
    assert g.weight == pytest.approx(2 * np.pi / 16)
    spacing = np.abs(np.roll(g.z, -1) - g.z).max()
    assert g.exclusion_band == pytest.approx(5.0 * spacing)


def test_closed_curve_consistency(cardioid_grid):
    total = abs(np.sum(cardioid_grid.dz) * cardioid_grid.weight)
    scale = np.sum(np.abs(cardioid_grid.dz)) * cardioid_grid.weight
    assert total < 1e-12 * scale


def test_refinement_self_consistency(cardioid):
    def area(grid):
        return (grid.weight / (2j * np.pi)) * np.sum(np.conjugate(grid.z) * grid.dz)

    a256 = area(sb.sample(cardioid, 256))
    a512 = area(sb.sample(cardioid, 512))
    assert abs(a256 - a512) < 1e-10


def test_locate_trivial(disk, disk_grid):
    assert sb.locate(disk_grid, 0) is sb.Location.INTERIOR
    assert sb.locate(disk_grid, 3) is sb.Location.EXTERIOR
    assert sb.locate(disk_grid, 1 + 1e-15) is sb.Location.NEAR_BOUNDARY


NON_FINITE = [np.nan, np.inf, -np.inf, complex(np.inf, np.nan), complex(0.0, -np.inf)]
NON_FINITE_IDS = ["nan", "inf", "-inf", "inf+nanj", "-infj"]


@pytest.mark.parametrize("p", NON_FINITE, ids=NON_FINITE_IDS)
def test_band_decision_refuses_non_finite_points(cardioid_grid, p):
    # one point, a small batch and a batch large enough for far rows
    lattice = np.linspace(-4.0, 4.0, 40)[:, None] + 1j * np.linspace(-4.0, 4.0, 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: sb.locate(cardioid_grid, p),
                     lambda: sides(cardioid_grid, [2.0, p]),
                     lambda: off_band(cardioid_grid, np.append(lattice, p))):
            with pytest.raises(ParseError, match="finite"):
                call()


def test_band_decision_keeps_far_finite_points(cardioid_grid):
    # their squared distances overflow, the points are still decided
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sb.locate(cardioid_grid, 1e300) is sb.Location.EXTERIOR
        assert sb.locate(cardioid_grid, -1e300j) is sb.Location.EXTERIOR
        near, inside, _ = sides(cardioid_grid, np.append(np.linspace(3.0, 9.0, 400), 1e300))
        assert not near.any() and not inside.any()


def test_winding_prerounding(disk_grid, cardioid_grid):
    for grid, pts in ((disk_grid, [0.2, -0.3 + 0.4j, 2.0, -1.7j]),
                      (cardioid_grid, [0.1, 3.0, -2.0 + 1j])):
        for p in pts:
            w = sb.winding_number(grid, p)
            assert abs(w - round(w)) < 1e-6


def test_unit_tangent_circle(disk):
    assert sb.unit_tangent(disk, 0.0) == pytest.approx(1j)
    assert sb.unit_tangent(disk, np.pi / 2) == pytest.approx(-1.0)


def test_unit_tangent_squared_matches_schwarz_prime(disk):
    # closed-form reflection on the circle: S'(z) = -1/z^2 = 1/T^2
    t = 2 * np.pi * np.arange(64) / 64
    z = disk.point(t)
    tang = sb.unit_tangent(disk, t)
    assert np.abs(-1.0 / z ** 2 - 1.0 / tang ** 2).max() < 1e-12


def test_adaptive_refine_area(disk):
    def area(grid):
        return (grid.weight / (2j * np.pi)) * np.sum(np.conjugate(grid.z) * grid.dz)

    g = sb.adaptive_refine(disk, area, 1e-10)
    assert g.n <= 64
    assert complex(area(g)).real == pytest.approx(1.0, abs=1e-12)


def test_adaptive_refine_cardioid_moment(cardioid):
    def m0(grid):
        return sb.harmonic_moments(grid, 0, 0)[0]

    g = sb.adaptive_refine(cardioid, m0, 1e-10)
    assert m0(g) == pytest.approx(1.18, abs=1e-10)


def test_adaptive_refine_near_boundary_point(disk):
    # the evaluation point sits in the band at every node count
    def f(grid):
        return sb.cauchy_transform(grid, 1.0 + 1e-9)

    with pytest.raises(NearBoundaryError):
        sb.adaptive_refine(disk, f, 1e-10, n_max=2 ** 12)


def test_geometric_convergence(cardioid):
    def functional(grid):
        return (grid.weight / (2j * np.pi)) * np.sum(
            np.exp(grid.z) * np.conjugate(grid.z) * grid.dz)

    reference = functional(sb.sample(cardioid, 2048))
    errors = [abs(functional(sb.sample(cardioid, n)) - reference)
              for n in (16, 32, 64)]
    for coarse, fine in zip(errors, errors[1:]):
        if coarse > 1e-13:
            assert fine / coarse < 0.5


@pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan"), float("inf")])
def test_adaptive_refine_refuses_a_tolerance_that_is_not_positive(disk, tol):
    with pytest.raises(ParseError, match="positive"):
        sb.adaptive_refine(disk, lambda grid: 0j, tol)


def test_adaptive_refine_no_convergence(disk):
    from schwarzbundles.errors import NoConvergenceError

    def never_converges(grid):
        return complex(grid.n)

    with pytest.raises(NoConvergenceError):
        sb.adaptive_refine(disk, never_converges, 1e-10, n_max=256)


def test_sample_polygon_rejected(unit_square):
    with pytest.raises(NotConformalMapCurveError):
        sb.sample(unit_square, 64)


def test_polygon_validation():
    with pytest.raises(CurveNotSimpleError):
        sb.build_polygon([0, 1])
    with pytest.raises(DegenerateEdgeError):
        sb.build_polygon([0, 0, 1, 1j])
    with pytest.raises(CurveNotSimpleError):
        sb.build_polygon([0, 1, 1j, 1 + 1j])  # bowtie
    # clockwise input is normalized counterclockwise
    p = sb.build_polygon([0, 1j, 1 + 1j, 1])
    assert p.area_over_pi() > 0


def test_a_regular_2000_gon_validates_with_balanced_corner_weights():
    a = np.exp(2j * np.pi * np.arange(2000) / 2000)
    polygon = sb.build_polygon(a)
    assert polygon.vertices == tuple(a)
    c = np.array([weight for _, weight in sb.polygon_quadrature(polygon)])
    scale = np.sum(np.abs(c) * (1.0 + np.abs(a)))
    # sum c_j = 0 and sum c_j a_j = 0: the quadrature is exact for f = z, z^2
    assert abs(c.sum()) <= 1e-12 * scale
    assert abs(np.sum(c * a)) <= 1e-12 * scale


def test_polygon_extent_is_computed_once(monkeypatch):
    # build_polygon's checks and the corner quadrature's per-edge zero-length
    # rule all read the one extent of the polygon: one hypot per vertex
    calls = []
    hypot = math.hypot

    def counted(x, y):
        calls.append(1)
        return hypot(x, y)

    monkeypatch.setattr(math, "hypot", counted)
    polygon = sb.build_polygon(np.exp(2j * np.pi * np.arange(50) / 50))
    sb.polygon_quadrature(polygon)
    sb.area_mean_polygon(polygon, [1])
    assert len(calls) == 50


def test_curve_json_roundtrip(cardioid, unit_square):
    for curve in (cardioid, unit_square):
        again = sb.curve_from_json(sb.curve_to_json(curve))
        assert type(again) is type(curve)
    with pytest.raises(ParseError):
        sb.curve_from_json("{not json")
    with pytest.raises(ParseError):
        sb.curve_from_json({"kind": "mystery"})
