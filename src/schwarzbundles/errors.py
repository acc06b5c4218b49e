"""Exception hierarchy for curve, transform, bundle and quadrature failures."""


class SchwarzBundleError(Exception):
    """Base class for every error raised by this package."""


# curve construction and sampling

class NonPositiveRadiusError(SchwarzBundleError):
    """Circle radius must be a positive real number."""


class CurveNotSimpleError(SchwarzBundleError):
    """Map derivative vanishes in the validation disk, the boundary
    self-intersects at sample resolution, or orientation is wrong."""


class BadNodeCountError(SchwarzBundleError):
    """Grid node counts must be powers of two from 16 to 2^16."""


class NoConvergenceError(SchwarzBundleError):
    """Refinement exhausted the node budget without meeting the tolerance."""


class NotConformalMapCurveError(SchwarzBundleError):
    """Operation requires a curve given as a polynomial image of the circle."""


# Schwarz function evaluation

class OutsideAnnulusError(SchwarzBundleError):
    """Point is outside the validated annular neighborhood of the curve."""


class NewtonDivergedError(SchwarzBundleError):
    """Newton iteration for the inverse map failed to converge."""


class DegenerateEdgeError(SchwarzBundleError):
    """Polygon edge has zero length."""


# transforms

class NearBoundaryError(SchwarzBundleError):
    """Evaluation point is inside the exclusion band around the curve."""


class OriginNotInteriorError(SchwarzBundleError):
    """Harmonic moments with negative index need the origin inside the domain."""


class CoincidentInteriorPointsError(SchwarzBundleError):
    """The interior exponential transform is singular on the diagonal."""


class BranchUnresolvedError(SchwarzBundleError):
    """Phase steps between adjacent nodes are too large to unwrap reliably;
    refine the grid."""


class WrongQuadrantError(SchwarzBundleError):
    """Arguments are on the wrong sides of the curve for the requested piece."""


# bundles

class AdjustmentPointNotInteriorError(SchwarzBundleError):
    """The supplied adjustment point is not strictly inside the curve."""


class NoHolomorphicSectionError(SchwarzBundleError):
    """Bundles of negative Chern class carry no holomorphic sections."""


# quadrature identities

class TangentNotMeromorphicError(SchwarzBundleError):
    """The reciprocal unit tangent, continued into the pullback disk, is not
    a simple pole at zeta = 0 plus a holomorphic part, so the arc-length
    residue identity does not apply: phi' is not constant (the curve is not
    a circle), and 1/T has a branch point in the disk or, when phi' is a
    perfect square, a pole of higher order at zeta = 0."""


class RankDeficientError(SchwarzBundleError):
    """Sample set too degenerate for the requested rational fit."""


# input

class ParseError(SchwarzBundleError):
    """Malformed input file or argument, non-finite curve data, or an
    argument out of its range."""
