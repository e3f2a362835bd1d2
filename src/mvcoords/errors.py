"""Exception and warning types shared across the package."""


class PolygonError(ValueError):
    """Base class for polygon construction failures."""


class NonConvex(PolygonError):
    """A vertex loop turns the wrong way somewhere (reflex vertex)."""


class DegenerateEdge(PolygonError):
    """Two consecutive vertices coincide within tolerance."""


class WrongOrientation(UserWarning):
    """Input vertices were clockwise and have been reversed."""


class EvaluationError(ValueError):
    """Base class for coordinate evaluation failures."""


class OutsidePolygon(EvaluationError):
    """Evaluation point lies outside the polygon."""


class PointTooCloseToBoundary(EvaluationError):
    """Point is within the boundary tolerance; use the edge-limit path."""


class CollinearVertices(EvaluationError):
    """Polygon has an interior angle at (or numerically at) pi, which the
    requested coordinate kind cannot handle."""


class StepTooLarge(EvaluationError):
    """A finite difference stencil leaves the interior of the polygon: the
    evaluation point is closer to the boundary than the step plus the
    interior tolerance."""


class UnsupportedDegree(ValueError):
    """No quadrature rule of the requested polynomial degree is available."""


class DegenerateDenominator(ValueError):
    """A normalizing quantity is too close to zero to divide by."""


class NoConvergence(RuntimeError):
    """Iterative solver failed to reach the requested residual."""


class NonTranslateElement(ValueError):
    """A mesh element is not a translate of element 0, which the shared
    reference-element tables require."""
