"""Schwarz functions of analytic curves, Cauchy and exponential transforms,
canonical sections of line bundles on the Riemann sphere, and
quadrature-domain residue identities."""

from .curve import (
    ConformalMapCurve,
    ContourGrid,
    Location,
    PolygonCurve,
    adaptive_refine,
    build_circle,
    build_polygon,
    build_polynomial_curve,
    curve_from_json,
    curve_to_json,
    kernel_sums,
    locate,
    sample,
    unit_tangent,
    winding_number,
)
from .schwarz import (
    invert_conformal_map,
    polygon_schwarz,
    schwarz_boundary,
    schwarz_near,
    schwarz_prime,
    schwarz_reflect,
)
from .transforms import (
    TransformValue,
    cauchy_integral,
    cauchy_transform,
    double_cauchy,
    double_cauchy_batch,
    harmonic_moments,
    moment_expansion_check,
    piece_f,
    piece_g,
    piece_gstar,
    piece_h,
    transform_values_to_csv,
    transform_values_to_json,
    unwrap_log,
)
from .bundles import (
    LineBundle,
    SectionPair,
    annulus_verification_points,
    canonical_section,
    chern_class,
    custom_bundle,
    evaluate_section,
    exp_schwarz_bundle,
    holomorphic_tangent,
    schwarz_pole_bundle,
    section_to_json,
    tangent_power_bundle,
    verify_m_differential_match,
    verify_transition,
)
from .quaddom import (
    RationalStructure,
    abelian_quadrature,
    apply_polygon_quadrature,
    arclength_quadrature,
    area_mean_polygon,
    boundary_abelian,
    boundary_arclength,
    boundary_classical,
    classical_quadrature,
    default_exterior_samples,
    fit_rational_structure,
    poly_derivative,
    polygon_quadrature,
    verify_algebraic_boundary,
)
from . import errors

__version__ = "0.1.0"
