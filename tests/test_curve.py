import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import schwarzbundles as sb
from schwarzbundles import cli
from schwarzbundles import curve as curve_mod
from schwarzbundles.curve import off_band, sides
from schwarzbundles.errors import (
    BadNodeCountError,
    CurveNotSimpleError,
    DegenerateEdgeError,
    NearBoundaryError,
    NoConvergenceError,
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


# the disk, the cardioid and the benchmark's quartic (its coefficients
# perturbed by up to 0.01), each certified
CERTIFIED = [([0.2 - 0.1j, 1], 0.5), ([0, 1, 0.3], 0.7), ([0, 1, 0.1, 0.04, 0.02], 0.75),
             ([0, 1, 0.11, 0.05 - 0.01j, 0.03], 0.75)]


def _taylor_exp_map(k, degree=30):
    """The degree-30 Taylor polynomial of (e^{k zeta} - 1)/k."""
    return [0.0] + [k ** (j - 1) / math.factorial(j) for j in range(1, degree + 1)]


@pytest.mark.parametrize("coeffs,rho", CERTIFIED)
def test_certified_build_skips_the_root_and_pair_checks(monkeypatch, coeffs, rho):
    def refuse(*_):
        raise AssertionError("the sampled pair check ran")

    monkeypatch.setattr(curve_mod, "_far_pair_gap", refuse)
    curve = sb.build_polynomial_curve(coeffs, rho)
    assert curve_mod._certified(curve.coeffs, rho)
    assert "dphi_roots" not in curve.__dict__  # kept lazily, for the tangent


def test_certificate_fails_at_equality_and_within_its_margin():
    # phi = zeta + a2 zeta^2 with 2 a2 R = 1 at the root check's radius R:
    # phi' vanishes on |zeta| = R. At equality, and a few ulps below it (the
    # margin is 16 eps at degree 2), the curve is not certified
    rho = 0.8
    a2 = 0.5 / ((1.0 / rho) * (1.0 + 1e-12))
    for scale in (1.0, 1.0 - 8 * np.finfo(float).eps):
        assert not curve_mod._certified((0j, 1 + 0j, complex(a2 * scale)), rho)
    assert curve_mod._certified((0j, 1 + 0j, complex(a2 * (1.0 - 1e-9))), rho)
    assert not curve_mod._certified((0j, 0j, 0j, 1e-3 + 0j), rho)  # a1 = 0
    assert not curve_mod._certified((0j, 1 + 0j, 1e308 + 0j, 1e308 + 0j), rho)  # overflow


@pytest.mark.parametrize("coeffs,rho", [
    (_taylor_exp_map(4), 0.9),  # self-intersects on |zeta| = 1
    (_taylor_exp_map(3), 0.9),  # not injective on the annulus
    # phi' has a 6-fold zero at |zeta| = 1.82, just past 1/rho = 1.79
    (npoly.polysub(npoly.polypow([1, 0.55], 7), [1]) / 3.85, 0.56),
    ([0.1 + 0.05j, 1, 0.15, 0.08j, 0.03], 0.72),  # the test quartic, univalent
])
def test_uncertified_curves_take_the_root_and_pair_checks(monkeypatch, coeffs, rho):
    # the first three are wrongly accepted by the sampled checks (a known
    # defect); failing the certificate, they are decided as before
    calls = []
    gap = curve_mod._far_pair_gap
    monkeypatch.setattr(curve_mod, "_far_pair_gap", lambda z: calls.append(z) or gap(z))
    assert not curve_mod._certified(tuple(complex(c) for c in coeffs), rho)
    curve = sb.build_polynomial_curve(coeffs, rho)
    assert "dphi_roots" in curve.__dict__ and len(calls) == 1


@pytest.mark.parametrize("coeffs,rho", CERTIFIED[:3])
def test_validate_prints_the_same_bytes_certified_or_not(monkeypatch, tmp_path, coeffs, rho):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(sb.curve_to_json(sb.build_polynomial_curve(coeffs, rho))))
    outputs = []
    for certify in (True, False):
        if not certify:
            monkeypatch.setattr(curve_mod, "_certified", lambda *_: False)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["validate", str(path)]) == 0
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1] and outputs[0]


def test_identity_map_is_valid():
    c = sb.build_polynomial_curve([0, 1], 0.9)
    assert c.degree == 1


def test_sample_rejects_bad_counts(disk):
    with pytest.raises(BadNodeCountError):
        sb.sample(disk, 12)
    with pytest.raises(BadNodeCountError):
        sb.sample(disk, 100)


@pytest.mark.parametrize("n", [2 ** 17, 2 ** 32, 2 ** 60])
def test_node_counts_beyond_the_cap_are_refused(n):
    # the count alone is checked: nothing of size n is allocated
    assert sb.curve.node_count(sb.curve.MAX_NODES) == 2 ** 16
    with pytest.raises(BadNodeCountError, match="exceeds the cap"):
        sb.curve.node_count(n)


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


@pytest.mark.parametrize("p", NON_FINITE, ids=NON_FINITE_IDS)
def test_non_finite_refusal_does_not_rest_on_the_clear_rows_slack(cardioid_grid, monkeypatch, p):
    # without its slack term clear_rows places |p - c| = inf outside (inf -
    # R >= band), where the slack made it inf - inf = NaN; sides refuses the
    # point before it asks clear_rows
    def without_slack(grid, points):
        c, big, small = grid._node_annulus
        with np.errstate(invalid="ignore"):
            gap = np.abs(np.asarray(points, dtype=complex).reshape(-1) - c)
            return gap - big >= grid.exclusion_band, small - gap >= grid.exclusion_band

    monkeypatch.setattr(curve_mod, "clear_rows", without_slack)
    for call in (lambda: sb.locate(cardioid_grid, p), lambda: sides(cardioid_grid, [5.0, p]),
                 lambda: off_band(cardioid_grid, [p, 0.0])):
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


@pytest.mark.parametrize("t", [np.nan, np.inf, [0.0, np.nan]], ids=["nan", "inf", "array"])
@pytest.mark.parametrize("function", [sb.unit_tangent, sb.schwarz_boundary],
                         ids=["unit_tangent", "schwarz_boundary"])
def test_non_finite_parameter_is_a_parse_error(disk, function, t):
    with pytest.raises(ParseError, match="not finite"):
        function(disk, t)


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
    def m0(grid):  # the grid's trapezoidal area; M_0 itself is exact
        return sb.boundary_classical(grid, [1])

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


def test_adaptive_refine_reraises_only_a_refusal_on_the_last_grid(disk):
    def refuses_first_grid(grid):
        if grid.n == 16:
            raise NearBoundaryError("refused at n = 16 only")
        return complex(grid.n)

    with pytest.raises(NoConvergenceError):
        sb.adaptive_refine(disk, refuses_first_grid, 1e-10, n_max=256)


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


@pytest.mark.parametrize("scale", [1e-150, 1e-200, 1e-310])
def test_a_crossing_bowtie_is_refused_at_every_scale(scale):
    # the turns are taken on the vertices scaled by a power of two; unscaled,
    # their products underflowed to 0 from about 1e-160 and the bowtie passed
    with pytest.raises(CurveNotSimpleError, match="cross"):
        sb.build_polygon([0, scale * (1 + 1j), scale, scale * 1j])


@pytest.mark.parametrize("scale", [1e-200, 1e-310])
def test_a_tiny_clockwise_polygon_is_turned_counterclockwise(scale):
    # the orientation is the sign of the scaled area, which does not
    # underflow, although the area itself does
    vertices = [0, scale * 1j, scale * (1 + 1j), scale]
    assert sb.build_polygon(vertices).vertices == tuple(complex(v) for v in vertices[::-1])


@pytest.mark.parametrize("coeffs, rho", [([0, 1e-310], 0.5), ([0, 1e-155], 0.5),
                                         ([0, 1e-200, 3e-201], 0.7),
                                         ([1e-300, 1e-300j, 0, 1e-302], 0.5)])
def test_a_map_whose_scale_underflows_when_squared_is_refused(coeffs, rho):
    # the kernel's squared distances underflow: every point would lie in the
    # exclusion band, and the conformal center with it
    with pytest.raises(ParseError, match="underflows when squared"):
        sb.build_polynomial_curve(coeffs, rho)


def test_the_scale_refusal_follows_univalence():
    assert sb.build_polynomial_curve([0, 1.5e-154], 0.5).coeffs[1] == 1.5e-154
    for coeffs in ([0, 0, 1], [0, 1e-170, 1]):  # phi' vanishes near 0: not univalent
        with pytest.raises(CurveNotSimpleError):
            sb.build_polynomial_curve(coeffs, 0.5)


@pytest.mark.parametrize("coeffs, rho", [([0, 1], 0.5), ([0, 1, 0.3], 0.7),
                                         ([0.1 + 0.05j, 1, 0.15, 0.08j, 0.03], 0.72)])
def test_unit_tangent_is_the_closed_form(coeffs, rho):
    # one formula for T: the closed form at e^{it}, within rounding of the
    # velocity's direction on the curve
    curve = sb.build_polynomial_curve(coeffs, rho)
    t = 2 * np.pi * np.arange(1024) / 1024
    tangent = sb.unit_tangent(curve, t)
    assert np.array_equal(tangent, sb.curve._pullback_tangent(curve, np.exp(1j * t)))
    velocity = curve.velocity(t)
    assert np.abs(tangent - velocity / np.abs(velocity)).max() <= 1e-15


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, None, "x"])
@pytest.mark.parametrize("call, error", [
    (lambda grid, v: sb.sample(grid.curve, v), BadNodeCountError),
    (lambda grid, v: sb.annulus_verification_points(grid, v), ParseError),
    (lambda grid, v: sb.default_exterior_samples(grid, v), ParseError),
    (lambda grid, v: sb.harmonic_moments(grid, v, 3), ParseError),
    (lambda grid, v: sb.harmonic_moments(grid, 0, v), ParseError),
    (lambda grid, v: sb.moment_expansion_check(grid, v), ParseError),
    (lambda grid, v: sb.fit_rational_structure(
        grid, v, 1, sb.default_exterior_samples(grid)), ParseError),
    (lambda grid, v: sb.fit_rational_structure(
        grid, 1, v, sb.default_exterior_samples(grid)), ParseError),
    (lambda grid, v: sb.polygon_schwarz(sb.build_polygon([0, 1, 1j]), v), ParseError),
], ids=["sample", "annulus_verification_points", "default_exterior_samples",
        "harmonic_moments-k_min", "harmonic_moments-k_max", "moment_expansion_check",
        "fit_rational_structure-deg_q", "fit_rational_structure-deg_p",
        "polygon_schwarz"])
def test_a_count_that_is_not_a_finite_integer_is_refused(disk_grid, call, error, value):
    # int() of NaN, an infinity or a non-number used to leak ValueError,
    # OverflowError or TypeError
    with pytest.raises(error, match="must be a finite integer"):
        call(disk_grid, value)


@pytest.mark.parametrize("z", [np.nan, np.inf, complex(0, np.nan), complex(np.inf, 1)])
def test_winding_number_refuses_a_point_that_is_not_finite(disk_grid, z):
    # as locate does; it used to return NaN
    with pytest.raises(ParseError, match="not finite"):
        sb.winding_number(disk_grid, z)


@pytest.mark.parametrize("call", [
    lambda polygon: sb.unit_tangent(polygon, 0.0),
    lambda polygon: sb.schwarz_boundary(polygon, 0.0),
    lambda polygon: sb.invert_conformal_map(polygon, 0.5),
], ids=["unit_tangent", "schwarz_boundary", "invert_conformal_map"])
def test_map_curve_helpers_refuse_a_polygon(unit_square, call):
    with pytest.raises(NotConformalMapCurveError):
        call(unit_square)


def test_polygon_schwarz_refuses_a_map_curve(disk):
    with pytest.raises(NotConformalMapCurveError):
        sb.polygon_schwarz(disk, 0)


def test_curve_to_json_refuses_an_unknown_curve():
    with pytest.raises(ParseError, match="unknown curve type"):
        sb.curve_to_json(object())


def test_linear_roots_are_the_bits_np_roots_gives():
    # the linear polynomial's root is formed without np.roots' eigenvalue
    # call: the same bits, a zero constant term giving +0 as np.roots does
    rng = np.random.default_rng(5)
    for _ in range(500):
        c0, c1 = (rng.normal(size=2) + 1j * rng.normal(size=2)) * 10.0 ** rng.uniform(-8, 8, 2)
        for coeffs in ((c0, c1), (0j, c1), (c0, c1, 0j), (complex(c0.real), complex(c1.real))):
            got = curve_mod._poly_roots(coeffs)
            want = np.roots(np.array(coeffs[:2][::-1]))
            assert got.tobytes() == want.tobytes(), coeffs


@pytest.mark.parametrize("top", [1e-16, 1e-30, 1e-100, 2.4e-236])
def test_negligible_top_coefficients_leave_the_near_roots(top):
    # a top coefficient at most eps times the one below puts its root beyond
    # 1/eps and is trimmed: the near roots are the quadratic's, where
    # np.roots on the cubic lost them (no root near the disk at 1e-100); a
    # top coefficient below eps^2 times one two places below is trimmed too
    w = -0.33068780629352573 - 0.3482048664676646j
    want = np.sort_complex(np.roots([0.125, 1.0, -w]))
    for coeffs in ((-w, 1.0, 0.125, top * 0.125), (-w, 1.0, 0.125, 0.0, top * 1e-16 * 0.125)):
        got = np.sort_complex(curve_mod._poly_roots(coeffs))
        assert np.allclose(got, want, rtol=4 * curve_mod.EPS, atol=0.0)


def test_top_coefficients_whose_roots_count_are_kept():
    # c4 = 1e-17 c2 across a zero c3 puts two roots near 3e8, whose factors
    # (about 3e-9) are not below rounding: kept, and the near roots stay
    # near the quadratic's; at 1e-33 c2, below eps^2, they are trimmed
    w = -0.33068780629352573 - 0.3482048664676646j
    want = np.sort_complex(np.roots([0.125, 1.0, -w]))
    kept = curve_mod._poly_roots((-w, 1.0, 0.125, 0.0, 1e-17 * 0.125))
    far = np.abs(kept) > 1e8
    assert kept.size == 4 and far.sum() == 2
    assert np.allclose(np.sort_complex(kept[~far]), want, rtol=1e-12, atol=0.0)
    assert curve_mod._poly_roots((-w, 1.0, 0.125, 0.0, 1e-33 * 0.125)).size == 2


def test_near_roots_beside_a_far_one_are_polished():
    # phi - w for [0, 1, 0, 1/24, 1.56e-16] has a root at 2.7e14, which left
    # np.roots' three near ones 1e-10 off in backward error; polished, each
    # is a root to a few eps of the polynomial's terms, and the far one stays
    coeffs = (-(0.3 + 0.2j), 1.0, 0.0, 0.04166666666666625, 1.5624999999999845e-16)
    roots = curve_mod._poly_roots(coeffs)
    near = roots[np.abs(roots) < 1e3]
    assert near.size == 3 and roots.size == 4
    residual = np.abs(npoly.polyval(near, coeffs)) / npoly.polyval(np.abs(near), np.abs(coeffs))
    assert residual.max() <= 4 * curve_mod.EPS
    far = np.roots(coeffs[::-1])
    assert roots[~(np.abs(roots) < 1e3)].tobytes() == far[~(np.abs(far) < 1e3)].tobytes()
    # real roots, which np.roots returns as a real array, are polished too
    real = (-0.5, 1.0, 1e-7)
    near = curve_mod._poly_roots(real)
    near = near[np.abs(near) < 1e3]
    assert abs(npoly.polyval(near[0], real)) <= 4 * curve_mod.EPS
