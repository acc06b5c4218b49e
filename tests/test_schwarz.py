import re
import warnings

import numpy as np
import pytest

import schwarzbundles as sb
from schwarzbundles.errors import (
    DegenerateEdgeError,
    NewtonDivergedError,
    OutsideAnnulusError,
    ParseError,
)

from oracles import central_difference


def test_boundary_values(disk, cardioid):
    assert sb.schwarz_boundary(disk, 0.0) == pytest.approx(1.0)
    assert sb.schwarz_boundary(disk, np.pi / 2) == pytest.approx(-1j)
    assert sb.schwarz_boundary(cardioid, 0.0) == pytest.approx(1.3)


def test_near_disk(disk):
    assert sb.schwarz_near(disk, 0.9) == pytest.approx(1 / 0.9, abs=1e-12)


def test_near_circle_radius_two():
    c = sb.build_circle(0, 2)
    # reflection in a circle of radius r: S(z) = r^2 / z
    assert sb.schwarz_near(c, 2.5) == pytest.approx(4 / 2.5, abs=1e-12)


def test_near_outside_annulus(disk):
    with pytest.raises(OutsideAnnulusError):
        sb.schwarz_near(disk, 0.05)


def test_prime_disk(disk):
    assert sb.schwarz_prime(disk, 0.9) == pytest.approx(-1 / 0.81, abs=1e-12)


def test_prime_circle_radius_two():
    c = sb.build_circle(0, 2)
    assert sb.schwarz_prime(c, 2.5) == pytest.approx(-4 / 2.5 ** 2, abs=1e-12)


def test_prime_tangent_identity(disk):
    t = 2 * np.pi * np.arange(64) / 64
    for tt in t:
        z = complex(disk.point(tt))
        tangent = complex(sb.unit_tangent(disk, tt))
        assert abs(sb.schwarz_prime(disk, z) - 1.0 / tangent ** 2) < 1e-10


def test_prime_matches_finite_difference(cardioid):
    for z in (1.25, 0.1 + 0.95j, -0.62 - 0.1j):
        exact = sb.schwarz_prime(cardioid, z)
        approx = central_difference(lambda p: sb.schwarz_near(cardioid, p), z)
        assert abs(exact - approx) / abs(exact) < 1e-6


def test_boundary_consistency_every_node(cardioid, cardioid_grid):
    worst = np.abs(sb.schwarz_near(cardioid, cardioid_grid.z)
                   - np.conjugate(cardioid_grid.z)).max()
    assert worst < 1e-12


HELPERS = (sb.schwarz_near, sb.schwarz_prime, sb.schwarz_reflect,
           sb.holomorphic_tangent)


@pytest.mark.parametrize("helper", HELPERS, ids=lambda f: f.__name__)
def test_helpers_take_arrays_and_scalars(cardioid, helper):
    zs = np.array([[1.25, 0.1 + 0.95j], [-0.62 - 0.1j, 1.05 - 0.4j]])
    batch = helper(cardioid, zs)
    assert batch.shape == zs.shape
    for z, value in zip(zs.flat, batch.flat):
        one = helper(cardioid, z)
        assert type(one) is complex
        assert one == pytest.approx(value, rel=1e-14)


@pytest.mark.parametrize("helper", HELPERS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("z", [np.nan, np.inf, -np.inf, complex(np.inf, np.nan)],
                         ids=["nan", "inf", "-inf", "inf+nanj"])
def test_helpers_refuse_non_finite_points(cardioid, helper, z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for points in (z, [1.25, z]):
            with pytest.raises(ParseError, match="finite"):
                helper(cardioid, points)


def test_batch_refusal_names_the_failing_point(disk):
    # 0.3 has its preimage inside rho = 0.5; 30 escapes the validation region
    with pytest.raises(OutsideAnnulusError, match=re.escape(str(0.3 + 0j))):
        sb.invert_conformal_map(disk, [0.9, 1.2j, 0.3, 1.5])
    with pytest.raises(OutsideAnnulusError, match=re.escape(str(30 + 0j))):
        sb.invert_conformal_map(disk, [0.9, 30.0, 1.5])
    # the first failing point is named, whichever fails first in the loop
    with pytest.raises(OutsideAnnulusError, match=re.escape(str(0.3 + 0j))):
        sb.invert_conformal_map(disk, [0.9, 0.3, 30.0])


def test_batch_refusal_names_the_first_unconverged_point(monkeypatch, cardioid):
    # 1.3 = phi(1) is a seed and converges before the first step
    monkeypatch.setattr(sb.schwarz, "NEWTON_MAX_ITER", 1)
    assert sb.invert_conformal_map(cardioid, [1.3]).tolist() == [1.0]
    with pytest.raises(NewtonDivergedError, match=re.escape(str(1.25 + 0j))):
        sb.invert_conformal_map(cardioid, [1.3, 1.25, 0.05])


def test_reflection_involution(cardioid):
    for z in (1.2, 0.8j, -0.55 + 0.2j, 1.05 - 0.4j):
        back = sb.schwarz_reflect(cardioid, sb.schwarz_reflect(cardioid, z))
        assert abs(back - z) < 1e-10


def test_polygon_edges(unit_square):
    alpha, beta = sb.polygon_schwarz(unit_square, 0)  # edge on the real axis
    assert alpha == pytest.approx(1.0)
    assert beta == pytest.approx(0.0)
    alpha, beta = sb.polygon_schwarz(unit_square, 1)  # vertical edge x = 1
    assert alpha == pytest.approx(-1.0)
    assert beta == pytest.approx(2.0)


@pytest.mark.parametrize("scale", [1e-20, 1.0, 1e150])
def test_polygon_edges_share_the_zero_length_rule(scale):
    # an edge is zero at 1e-14 of the extent max |vertex|, in validation and
    # in the edge Schwarz data alike
    short, long = 0.5e-14 * scale, 2e-14 * scale
    for edge, degenerate in ((short, True), (long, False)):
        vertices = [0, scale, scale * (1 + 1j), scale * 1j, (scale - edge) * 1j]
        polygon = sb.curve.PolygonCurve(vertices)
        assert polygon.is_zero_length(edge) is degenerate
        if degenerate:
            with pytest.raises(DegenerateEdgeError, match="edge 3 "):
                sb.build_polygon(vertices)
            with pytest.raises(DegenerateEdgeError, match="edge 3 "):
                sb.polygon_schwarz(polygon, 3)
        else:
            sb.build_polygon(vertices)
            sb.polygon_schwarz(polygon, 3)


def test_polygon_diagonal_edge():
    tri = sb.build_polygon([0, 1 + 1j, -1 + 1j])
    alpha, beta = sb.polygon_schwarz(tri, 0)  # 45 degree edge through 0
    assert alpha == pytest.approx(-1j)
    assert beta == pytest.approx(0.0)
