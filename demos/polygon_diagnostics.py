"""Quality diagnostics for convex polygons.

Builds a few polygons, normalizes each to unit diameter, and prints the
geometric constants that control coordinate conditioning: aspect ratio
(diameter over inradius), the minimum pairwise vertex distance, interior
angle extremes, and the derived h* / alpha* thresholds. A polygon is
"shape regular" when its aspect ratio stays below gamma_star and its
minimum vertex distance above d_star; the needle rectangle below fails
the first bound while keeping the second.
"""

import numpy as np

from mvcoords import (
    Polygon,
    apex_pentagon,
    geometric_constants,
    normalize_to_unit_diameter,
)

GAMMA_STAR = 6.0
D_STAR = 0.1

shapes = {
    "unit square": Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
    "regular hexagon": Polygon(
        [(np.cos(t), np.sin(t)) for t in np.linspace(0, 2 * np.pi, 7)[:-1]]
    ),
    "apex pentagon h=1.5": apex_pentagon(1.5),
    "apex pentagon h=1.01": apex_pentagon(1.01),
    "needle rectangle": Polygon([(0, 0), (10, 0), (10, 1.05), (0, 1.05)]),
}

header = f"{'polygon':24s} {'gamma':>8s} {'d_min':>8s} {'beta_max':>9s} {'h*':>8s} verdict"
print(header)
print("-" * len(header))

for name, p in shapes.items():
    q = normalize_to_unit_diameter(p)
    gc = geometric_constants(q)
    # d_min is the pairwise minimum: non-adjacent vertices, not just edges
    g1 = gc.aspect_ratio <= GAMMA_STAR
    g2 = gc.d_min >= D_STAR
    verdict = "regular" if (g1 and g2) else ("fails gamma" if not g1 else "fails d_min")
    print(
        f"{name:24s} {gc.aspect_ratio:8.4f} {gc.d_min:8.4f}"
        f" {np.degrees(gc.beta_max):8.2f}d {gc.h_star:8.4f} {verdict}"
    )

print()
print("h* is the largest ball radius around any boundary point that meets")
print("at most two (adjacent) edges; alpha* bounds the angle subtended by")
print("an edge from a point at distance h*. Both feed the gradient bounds.")
