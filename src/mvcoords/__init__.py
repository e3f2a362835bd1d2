"""Barycentric coordinates on convex polygons and a polygonal FEM pipeline."""

import os as _os

# numpy's OpenBLAS starts a worker thread per core when it loads, and the
# workers spin for about 0.1 s of CPU before they sleep, in every process.
# No product here gains from a second thread, so unless the caller names a
# thread count numpy loads with one; the environment is then restored.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_one_blas_thread = not any(var in _os.environ for var in _BLAS_THREAD_VARS)
if _one_blas_thread:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as _np
finally:
    if _one_blas_thread:
        del _os.environ["OPENBLAS_NUM_THREADS"]

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
