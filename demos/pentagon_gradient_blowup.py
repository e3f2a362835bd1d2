"""Gradient growth of two coordinate families on a flattening pentagon.

The pentagon is the square [-1, 1]^2 with a fifth vertex, the apex, at
(0, h) over its top edge. As h drops toward 1 the apex angle opens
toward pi and the polygon stays convex but becomes "nearly degenerate". Mean value coordinates keep bounded
gradients in this limit; the rational (Wachspress) coordinates do not,
and the scan below watches their sup gradient norm take off while the
mean value numbers barely move.
"""

from mvcoords import apex_pentagon, sup_gradient_scan

HEIGHTS = [1.5, 1.25, 1.1, 1.05, 1.01]
RESOLUTION = 64


def main():
    print(f"{'h':>6s} {'mvc sup |grad|':>15s} {'wachspress sup |grad|':>22s}")
    for h in HEIGHTS:
        p = apex_pentagon(h)
        mvc = sup_gradient_scan(p, "mvc", RESOLUTION)
        wac = sup_gradient_scan(p, "wachspress", RESOLUTION)
        print(f"{h:6.2f} {mvc.overall_max:15.5f} {wac.overall_max:22.5f}")

    print()
    p = apex_pentagon(1.05)
    wac = sup_gradient_scan(p, "wachspress", RESOLUTION)
    print(f"worst wachspress vertex at h=1.05: index {wac.overall_vertex}")
    print(f"scan margin {wac.margin:g}, {wac.n_points} interior points")
    print("shrinking the margin pushes the wachspress maximum up further;")
    print("the mean value maximum saturates instead.")


if __name__ == "__main__":
    main()
