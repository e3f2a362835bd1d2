"""Barycentric coordinates on convex polygons and a polygonal FEM pipeline."""

from .audit import (
    PropertyAuditReport,
    random_convex_polygon,
    run_property_audit,
    sample_interior,
)
from .coords import (
    ScanResult,
    fd_gradient,
    mvc_gradients,
    mvc_values,
    sup_gradient_scan,
    wachspress_gradients,
    wachspress_values,
)
from .errors import (
    CollinearVertices,
    DegenerateDenominator,
    DegenerateEdge,
    EvaluationError,
    NoConvergence,
    NonConvex,
    NonTranslateElement,
    OutsidePolygon,
    PointTooCloseToBoundary,
    PolygonError,
    StepTooLarge,
    UnsupportedDegree,
    WrongOrientation,
)
from .fem import (
    ConvergenceReport,
    LinearSystem,
    Mesh,
    assemble,
    build_mesh,
    convergence_study,
    solution_errors,
    solve,
)
from .geometry import (
    GeometricConstants,
    Polygon,
    apex_pentagon,
    compute_hstar,
    geometric_constants,
    load_polygon,
    min_vertex_distance,
    normalize_to_unit_diameter,
    polygon_from_json,
    save_polygon,
)
from .interp import (
    QuadratureRule,
    ScalarField,
    error_norms,
    estimate_ratio,
    fan_quadrature,
    field_linear,
    field_sin_exp,
    field_x2,
    field_xy,
    field_y2,
    h2_seminorm,
    standard_fields,
    triangle_rule,
)

__version__ = "0.1.0"
