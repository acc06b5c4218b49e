import numpy as np
import pytest

import schwarzbundles as sb
from schwarzbundles.errors import (
    AdjustmentPointNotInteriorError,
    BranchUnresolvedError,
    NoHolomorphicSectionError,
)

QUARTIC = [0.1 + 0.05j, 1, 0.15, 0.08j, 0.03]


def builtin_bundles(curve):
    return (sb.exp_schwarz_bundle(curve),
            sb.schwarz_pole_bundle(curve, 3),
            sb.schwarz_pole_bundle(curve, 0.3 + 0.1j),
            sb.tangent_power_bundle(curve, 2),
            sb.tangent_power_bundle(curve, -1))


def test_chern_classes_disk(disk, disk_grid):
    assert sb.chern_class(sb.exp_schwarz_bundle(disk), disk_grid) == 0
    assert sb.chern_class(sb.schwarz_pole_bundle(disk, 3), disk_grid) == 0
    assert sb.chern_class(sb.schwarz_pole_bundle(disk, 0), disk_grid) == 1
    assert sb.chern_class(sb.tangent_power_bundle(disk, 2), disk_grid) == -2


def test_chern_classes_cardioid(cardioid, cardioid_grid):
    assert sb.chern_class(sb.exp_schwarz_bundle(cardioid), cardioid_grid) == 0
    assert sb.chern_class(sb.schwarz_pole_bundle(cardioid, 3), cardioid_grid) == 0
    assert sb.chern_class(sb.schwarz_pole_bundle(cardioid, 0.4 + 0.2j),
                          cardioid_grid) == 1
    assert sb.chern_class(sb.tangent_power_bundle(cardioid, 2), cardioid_grid) == -2


def test_chern_jump_across_curve(disk, disk_grid):
    z0 = complex(disk_grid.z[37])
    inner = sb.chern_class(sb.schwarz_pole_bundle(disk, 0.95 * z0), disk_grid)
    outer = sb.chern_class(sb.schwarz_pole_bundle(disk, 1.05 * z0), disk_grid)
    assert inner - outer == 1


def test_exp_schwarz_section_disk(disk, disk_grid):
    section = sb.canonical_section(sb.exp_schwarz_bundle(disk), disk_grid)
    assert section.chern == 0
    assert section.normalization == sb.bundles.ONE_AT_INFINITY
    assert sb.evaluate_section(section, 0.5) == pytest.approx(1.0, abs=1e-12)
    for z in (2.0, 5.0):
        assert sb.evaluate_section(section, z) == pytest.approx(
            np.exp(-1.0 / z), abs=1e-12)


def test_schwarz_pole_section_exterior_parameter(disk, disk_grid):
    bundle = sb.schwarz_pole_bundle(disk, 3)
    section = sb.canonical_section(bundle, disk_grid)
    assert sb.evaluate_section(section, 0.5) == pytest.approx(-1 / 3, abs=1e-12)
    for z in (2.0, 5.0):
        assert sb.evaluate_section(section, z) == pytest.approx(
            1 - 1 / (3 * z), abs=1e-12)


def test_schwarz_pole_section_interior_parameter(disk, disk_grid):
    bundle = sb.schwarz_pole_bundle(disk, 0)
    section = sb.canonical_section(bundle, disk_grid, a=0)
    assert section.chern == 1
    assert section.normalization == sb.bundles.LEADING_ONE_OVER_Z
    assert sb.evaluate_section(section, 0.5) == pytest.approx(1.0, abs=1e-12)
    for z in (2.0, 5.0):
        assert sb.evaluate_section(section, z) == pytest.approx(1.0 / z, abs=1e-12)


def test_section_normalization_at_infinity(disk, disk_grid):
    s0 = sb.canonical_section(sb.exp_schwarz_bundle(disk), disk_grid)
    assert abs(s0.f2(1e6) - 1.0) < 1e-6
    s1 = sb.canonical_section(sb.schwarz_pole_bundle(disk, 0), disk_grid)
    assert abs(1e6 * s1.f2(1e6) - 1.0) < 1e-6


def test_negative_chern_has_no_section(disk, disk_grid):
    with pytest.raises(NoHolomorphicSectionError):
        sb.canonical_section(sb.tangent_power_bundle(disk, 2), disk_grid)


def test_adjustment_point_validation(disk, disk_grid):
    bundle = sb.schwarz_pole_bundle(disk, 0)
    with pytest.raises(AdjustmentPointNotInteriorError):
        sb.canonical_section(bundle, disk_grid, a=5.0)


def test_adjustment_defaults_to_pole(disk, disk_grid):
    bundle = sb.schwarz_pole_bundle(disk, 0.3 + 0.2j)
    section = sb.canonical_section(bundle, disk_grid)
    assert section.adjustment == pytest.approx(0.3 + 0.2j)


def test_verify_transition_disk(disk, disk_grid):
    pts = sb.annulus_verification_points(disk_grid, 32)
    for w in (3, 0, 0.4 + 0.2j):
        bundle = sb.schwarz_pole_bundle(disk, w)
        section = sb.canonical_section(bundle, disk_grid)
        assert sb.verify_transition(section, bundle, pts) < 1e-9


def test_verify_transition_trivial_bundle(disk, disk_grid):
    bundle = sb.custom_bundle(disk, lambda z: 1.0 + 0j)
    section = sb.canonical_section(bundle, disk_grid)
    pts = sb.annulus_verification_points(disk_grid, 16)
    assert sb.verify_transition(section, bundle, pts) == pytest.approx(0.0, abs=1e-14)
    assert section.f1(0.3) == pytest.approx(1.0)
    assert section.f2(2.5) == pytest.approx(1.0)


def test_cocycle(disk, disk_grid, cardioid, cardioid_grid):
    for curve, grid in ((disk, disk_grid), (cardioid, cardioid_grid)):
        for bundle in (sb.exp_schwarz_bundle(curve),
                       sb.schwarz_pole_bundle(curve, 3),
                       sb.tangent_power_bundle(curve, 2)):
            for z in grid.z[::97]:
                prod = bundle.transition(complex(z)) \
                    * bundle.transition_reciprocal(complex(z))
                assert abs(prod - 1.0) < 1e-12


def test_section_branch_constant_ratio(disk, disk_grid):
    bundle = sb.exp_schwarz_bundle(disk)
    s0 = sb.canonical_section(bundle, disk_grid, branch_offset=0)
    s1 = sb.canonical_section(bundle, disk_grid, branch_offset=1)
    r1 = s0.f2(2.0) / s1.f2(2.0)
    r2 = s0.f2(3.5j) / s1.f2(3.5j)
    assert abs(r1 - r2) < 1e-9


def test_exp_schwarz_matches_cauchy_transform(cardioid, cardioid_grid):
    section = sb.canonical_section(sb.exp_schwarz_bundle(cardioid), cardioid_grid)
    for z in (0.2, -0.4 + 0.1j, 2.0, 1.5j, -3.0):
        side = sb.locate(cardioid_grid, z)
        ct = sb.cauchy_transform(cardioid_grid, z)
        expect = np.exp(ct) if side is sb.Location.INTERIOR else np.exp(-ct)
        assert abs(sb.evaluate_section(section, z) - expect) < 1e-9


def test_section_pieces_consistency(disk, disk_grid):
    w_ext = 3.0
    section = sb.canonical_section(sb.schwarz_pole_bundle(disk, w_ext), disk_grid)
    for z in (0.3, -0.5j):
        assert abs(sb.evaluate_section(section, z)
                   - sb.piece_g(disk_grid, z, w_ext)) < 1e-9
    for z in (2.0, -4.0):
        assert abs(sb.evaluate_section(section, z)
                   - sb.piece_f(disk_grid, z, w_ext)) < 1e-9
    w_int = 0.4 + 0.2j
    section = sb.canonical_section(sb.schwarz_pole_bundle(disk, w_int), disk_grid)
    for z in (0.25j, -0.3):
        assert abs(sb.evaluate_section(section, z)
                   - sb.piece_h(disk_grid, z, w_int)) < 1e-9
    for z in (2.0, 3j):
        assert abs(sb.evaluate_section(section, z)
                   + sb.piece_gstar(disk_grid, z, w_int)) < 1e-9


def test_m_differential_matching(disk, disk_grid):
    # z dz and S dz agree under conjugation on the curve (classical case)
    resid = sb.verify_m_differential_match(
        lambda z: z, lambda z: sb.schwarz_near(disk, z), disk, disk_grid, 0)
    assert resid < 1e-12
    resid = sb.verify_m_differential_match(
        lambda z: 1.0, lambda z: sb.schwarz_prime(disk, z), disk, disk_grid, 2)
    assert resid < 1e-12
    resid = sb.verify_m_differential_match(
        lambda z: 1.0, lambda z: 1.0 / sb.holomorphic_tangent(disk, z),
        disk, disk_grid, 1)
    assert resid < 1e-12


def test_tangent_bundle_section(cardioid, cardioid_grid):
    # transition T itself winds once, so it carries a 1/z-normalized section;
    # verifying it exercises the tangent's square-root tracking off the grid
    bundle = sb.tangent_power_bundle(cardioid, -1)
    assert sb.chern_class(bundle, cardioid_grid) == 1
    section = sb.canonical_section(bundle, cardioid_grid)
    pts = sb.annulus_verification_points(cardioid_grid, 32)
    assert sb.verify_transition(section, bundle, pts) < 1e-9


def test_holomorphic_tangent_matches_grid(cardioid, cardioid_grid):
    for j in range(0, cardioid_grid.n, 111):
        z = complex(cardioid_grid.z[j])
        grid_tangent = cardioid_grid.dz[j] / abs(cardioid_grid.dz[j])
        assert abs(sb.holomorphic_tangent(cardioid, z) - grid_tangent) < 1e-10


def test_branch_unresolved_on_coarse_grid(cardioid):
    g16 = sb.sample(cardioid, 16)
    bundle = sb.schwarz_pole_bundle(cardioid, 0.9 + 0.05j)
    try:
        c = sb.chern_class(bundle, g16)
    except BranchUnresolvedError:
        return
    assert isinstance(c, int)


def test_branch_unresolved_resolves_under_refinement(disk, disk_grid):
    g16 = sb.sample(disk, 16)
    pole = 0.95 * complex(g16.z[3])  # transition zero hugs the curve
    bundle = sb.schwarz_pole_bundle(disk, pole)
    with pytest.raises(BranchUnresolvedError):
        sb.chern_class(bundle, g16)
    assert sb.chern_class(bundle, disk_grid) == 1


def test_transition_nonvanishing_guard(disk, disk_grid):
    bundle = sb.custom_bundle(disk, lambda z: z - 1.0)  # vanishes on the curve
    with pytest.raises(BranchUnresolvedError):
        sb.chern_class(bundle, disk_grid)


def test_evaluate_section_refuses_band(disk, disk_grid):
    from schwarzbundles.errors import NearBoundaryError
    section = sb.canonical_section(sb.exp_schwarz_bundle(disk), disk_grid)
    with pytest.raises(NearBoundaryError):
        sb.evaluate_section(section, 1.0 + 1e-12)


def test_verify_transition_refuses_band(disk, disk_grid):
    from schwarzbundles.errors import NearBoundaryError
    bundle = sb.schwarz_pole_bundle(disk, 3)
    section = sb.canonical_section(bundle, disk_grid)
    with pytest.raises(NearBoundaryError):
        sb.verify_transition(section, bundle, [1.0 + 1e-12])


def test_holomorphic_tangent_outside_annulus(disk):
    from schwarzbundles.errors import OutsideAnnulusError
    with pytest.raises(OutsideAnnulusError):
        sb.holomorphic_tangent(disk, 5.0)


def test_section_pieces_consistency_cardioid(cardioid, cardioid_grid):
    w = 2.5
    section = sb.canonical_section(sb.schwarz_pole_bundle(cardioid, w),
                                   cardioid_grid)
    assert abs(sb.evaluate_section(section, 0.2)
               - sb.piece_g(cardioid_grid, 0.2, w)) < 1e-9
    assert abs(sb.evaluate_section(section, 3.0j)
               - sb.piece_f(cardioid_grid, 3.0j, w)) < 1e-9
    w = 0.4 + 0.2j
    section = sb.canonical_section(sb.schwarz_pole_bundle(cardioid, w),
                                   cardioid_grid)
    assert abs(sb.evaluate_section(section, -0.3)
               - sb.piece_h(cardioid_grid, -0.3, w)) < 1e-9
    assert abs(sb.evaluate_section(section, 2.2)
               + sb.piece_gstar(cardioid_grid, 2.2, w)) < 1e-9


def test_custom_bundle_chern_two(disk, disk_grid):
    # transition z^2 has winding 2; the canonical pair is (1, z^{-2})
    bundle = sb.custom_bundle(disk, lambda z: z * z)
    assert sb.chern_class(bundle, disk_grid) == 2
    section = sb.canonical_section(bundle, disk_grid, a=0)
    assert sb.evaluate_section(section, 0.4) == pytest.approx(1.0, abs=1e-12)
    assert sb.evaluate_section(section, 2.0) == pytest.approx(0.25, abs=1e-12)
    pts = sb.annulus_verification_points(disk_grid, 16)
    assert sb.verify_transition(section, bundle, pts) < 1e-12


def test_section_dump(disk, disk_grid):
    section = sb.canonical_section(sb.schwarz_pole_bundle(disk, 0), disk_grid)
    blob = sb.section_to_json(section)
    assert blob["chern"] == 1
    assert blob["adjustment"] == [0.0, 0.0]
    assert blob["normalization"] == sb.bundles.LEADING_ONE_OVER_Z
    assert len(blob["density"]) == disk_grid.n
    assert set(blob["density"][0]) == {"t", "re", "im"}


@pytest.mark.parametrize("n", [1024, 4096])
def test_node_transitions_match_inverted_points(n, disk, cardioid):
    # closed forms at grid.zeta against one Newton inversion per node
    quartic = sb.build_polynomial_curve(QUARTIC, 0.72)
    for curve in (disk, cardioid, quartic):
        grid = sb.sample(curve, n)
        for bundle in builtin_bundles(curve):
            closed = bundle.transition_at_nodes(grid)
            for j in range(0, n, 7):
                newton = bundle.transition(complex(grid.z[j]))
                assert abs(closed[j] - newton) <= 1e-12 * abs(newton)


def test_node_path_makes_no_newton_calls(monkeypatch, cardioid, cardioid_grid):
    def refuse(curve, z):
        raise AssertionError("Newton inversion on the node path")

    monkeypatch.setattr(sb.bundles, "invert_conformal_map", refuse)
    for bundle in builtin_bundles(cardioid):
        with pytest.raises(AssertionError):
            bundle.transition(complex(cardioid_grid.z[0]))
        if sb.chern_class(bundle, cardioid_grid) < 0:
            with pytest.raises(NoHolomorphicSectionError):
                sb.canonical_section(bundle, cardioid_grid)
        else:
            sb.canonical_section(bundle, cardioid_grid)


def test_exp_schwarz_log_density_anchor():
    # S has imaginary part -5 at node 0, so the principal branch moves it by 2 pi
    curve = sb.build_polynomial_curve([5j, 1, 0.3], 0.7)
    grid = sb.sample(curve, 1024)
    bundle = sb.exp_schwarz_bundle(curve)
    unwrapped, winding = sb.unwrap_log(bundle.transition_at_nodes(grid))
    section = sb.canonical_section(bundle, grid)
    assert winding == pytest.approx(0.0, abs=1e-12)
    assert section.density[0].imag == pytest.approx(2 * np.pi - 5, abs=1e-12)
    assert np.abs(section.density - unwrapped).max() < 1e-12


@pytest.mark.filterwarnings("error")
def test_exp_schwarz_far_from_origin_does_not_overflow():
    # exp(S) ~ e^800 overflows at the nodes; the log density S does not
    far = sb.build_polynomial_curve([800, 1], 0.5)
    grid = sb.sample(far, 512)
    bundle = sb.exp_schwarz_bundle(far)
    assert sb.chern_class(bundle, grid) == 0
    section = sb.canonical_section(bundle, grid)
    assert np.isfinite(section.density).all()
    for z in (803.0, 800 - 2.5j):
        assert sb.evaluate_section(section, z) == pytest.approx(
            np.exp(-1.0 / (z - 800)), abs=1e-12)
