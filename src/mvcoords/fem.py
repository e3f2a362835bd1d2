"""Poisson solver on conforming meshes of convex polygons.

Mean value coordinates are the element basis. Assembly and the error
norms take any conforming mesh whose elements are convex CCW loops of
one valence k (triangles, squares, ...). ``build_mesh`` makes the mesh of
the convergence study: squares with mid-side nodes, so each element is an
octagon whose four extra vertices have interior angles of pi. The
pipeline is standard Galerkin: assemble the stiffness matrix and load
vector, eliminate Dirichlet rows against exact nodal boundary values,
solve with Jacobi-preconditioned conjugate gradients, and measure errors
against the manufactured solution.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .coords import mvc_gradients
from .errors import NoConvergence, PolygonError
from .geometry import Polygon, _frame_table
from .interp import ScalarField, fan_quadrature, field_sin_exp

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_ASSEMBLY_RULE = (8, 1)
DEFAULT_ERROR_RULE = (10, 2)
CG_TOL = 1e-10
# quadrature points per chunk of elements in assembly and error norms:
# a chunk's (m, 2) point and field arrays then stay in cache, and its
# matmuls against the k basis functions stay below the size at which
# OpenBLAS hands work to a second thread that spin-waits between calls
_CHUNK_POINTS = 2**15


@dataclass(frozen=True)
class Mesh:
    """Nodes, CCW element loops of one valence, and boundary node indices.

    ``nodes`` is a finite (N, 2) float array, ``elements`` an integer (E, k)
    table with k >= 3, row e the node loop of element e; ``boundary_nodes``
    is a 1-D integer list of the Dirichlet nodes. Every index must lie in
    [0, n_nodes). A bad array raises PolygonError naming its shape, its
    first non-finite node, or the element or boundary entry and the index.
    """

    nodes: np.ndarray
    elements: np.ndarray
    boundary_nodes: np.ndarray

    def __post_init__(self) -> None:
        nodes = self.nodes
        if nodes.ndim != 2 or nodes.shape[1] != 2 or not np.issubdtype(nodes.dtype, np.floating):
            raise PolygonError(f"nodes are {nodes.dtype} {nodes.shape}, not float (N, 2)")
        bad = np.flatnonzero(~np.isfinite(nodes).all(axis=1))
        if bad.size:
            raise PolygonError(f"node {bad[0]} is not finite: {nodes[bad[0]].tolist()}")
        el = self.elements
        if el.ndim != 2 or el.shape[1] < 3:
            raise PolygonError(f"elements must be an (E, k) table with k >= 3, not {el.shape}")
        bnd = self.boundary_nodes
        if bnd.ndim != 1:
            raise PolygonError(f"boundary_nodes must be a 1-D index list, not {bnd.shape}")
        for name, table in (("element", el), ("boundary entry", bnd)):
            if not np.issubdtype(table.dtype, np.integer):
                raise PolygonError(f"{name} table holds {table.dtype}, not integer node indices")
            bad = np.argwhere((table < 0) | (table >= self.n_nodes))
            if bad.size:
                raise PolygonError(
                    f"{name} {bad[0, 0]}: node index {table[tuple(bad[0])]} "
                    f"outside [0, {self.n_nodes})"
                )

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]


def build_mesh(n: int) -> Mesh:
    """n-by-n mesh of [0,1]²: unit squares scaled by 1/n, each element an
    8-node loop corner, mid-side, corner, ... in CCW order.

    Node layout: (n+1)² corners, then n(n+1) horizontal-edge midpoints,
    then (n+1)n vertical-edge midpoints, each block numbered row by row
    from the bottom left.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    # half-grid index table: entry [b, a] numbers the node at (a, b) / 2n;
    # cell centres (a and b odd) keep -1
    table = np.full((2 * n + 1, 2 * n + 1), -1)
    n_c, n_h = (n + 1) ** 2, n * (n + 1)
    table[0::2, 0::2] = np.arange(n_c).reshape(n + 1, n + 1)
    table[0::2, 1::2] = n_c + np.arange(n_h).reshape(n + 1, n)
    table[1::2, 0::2] = n_c + n_h + np.arange(n_h).reshape(n, n + 1)
    b, a = np.nonzero(table >= 0)
    nodes = np.empty((n_c + 2 * n_h, 2))
    nodes[table[b, a]] = np.column_stack([a, b]) / (2 * n)
    # element j * n + i: the ring around cell centre (2i+1, 2j+1), CCW
    # from its lower-left corner
    da, db = np.array([[-1, 0, 1, 1, 1, 0, -1, -1], [-1, -1, -1, 0, 1, 1, 1, 0]])
    c = 2 * np.arange(n) + 1
    elements = table[c[:, None, None] + db, c[:, None] + da].reshape(n * n, 8)
    rim = np.concatenate([table[0], table[-1], table[:, 0], table[:, -1]])
    return Mesh(nodes=nodes, elements=elements, boundary_nodes=np.unique(rim))


@dataclass
class LinearSystem:
    """Reduced SPD system plus the data to reconstruct full coefficients."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    dof_map: np.ndarray
    boundary_index: np.ndarray
    boundary_values: np.ndarray
    n_nodes: int


def _shape_groups(mesh: Mesh, degree: int, subdivision: int):
    """Yield (element indices, origins, rule, basis) per group of translates
    (local offsets equal to 1e-12 of the mesh's largest, one tolerance so
    similar elements of different sizes stay apart), tabulated on the
    group's first element. A clockwise element, or one that fails Polygon
    validation, raises an error whose message starts with its index."""
    coords = mesh.nodes[mesh.elements]
    origins = coords[:, 0, :]
    local = coords - origins[:, None, :]
    tol = 1e-12 * max(float(np.max(np.abs(local))), 1e-300)
    key = np.rint(local.reshape(mesh.n_elements, -1) / tol)
    _, first, group = np.unique(key, axis=0, return_index=True, return_inverse=True)
    for g, e in enumerate(first):
        if _frame_table(local[e])[3] < 0.0:  # twice the signed area
            raise PolygonError(f"element {e}: clockwise vertex loop")
        try:
            ref = Polygon(local[e])
        except ValueError as exc:
            raise type(exc)(f"element {e}: {exc}") from None
        idx = np.flatnonzero(group == g)
        rule = fan_quadrature(ref, degree=degree, subdivision=subdivision)
        yield idx, origins[idx], rule, mvc_gradients(ref, rule.points)


def _slices(n_elements: int, n_q: int):
    """Consecutive runs of elements holding at most _CHUNK_POINTS
    quadrature points, and one element per run when a single element
    holds more."""
    step = max(1, _CHUNK_POINTS // n_q)
    return (slice(start, start + step) for start in range(0, n_elements, step))


def _chunks(origins: np.ndarray, points: np.ndarray):
    """Yield (element slice, that chunk's quadrature points as (m, 2)) over
    _slices.

    Each point is its element's origin plus a reference point, added as
    flat rows so numpy does not loop over a length-2 innermost axis."""
    n_q = points.shape[0]
    flat = points.reshape(1, -1)
    for sl in _slices(origins.shape[0], n_q):
        yield sl, (np.tile(origins[sl], (1, n_q)) + flat).reshape(-1, 2)


def _jets(u: ScalarField, origins: np.ndarray, points: np.ndarray):
    """Yield (element slice, (values, gradients)) of u at each chunk's
    quadrature points, as ``u.jet`` on the points of _chunks returns them.

    A field with ``factors`` fx(x) fy(y) is tabulated instead: fx once per
    distinct origin x and reference point, fy once per distinct origin y,
    from the same float sums as _chunks; each chunk gathers and multiplies
    its elements' rows. The tables are used only when they have no more
    rows than the group has elements (build_mesh(n) needs 2n rows for n²
    elements), so they never hold more points than the chunks would.
    """
    (ux, ix), (uy, iy) = (np.unique(origins[:, a], return_inverse=True) for a in (0, 1))
    if u.factors is None or ux.size + uy.size > origins.shape[0]:
        for sl, pts in _chunks(origins, points):
            yield sl, u.jet(pts)
        return
    f, df = u.factors[0](ux[:, None] + points[:, 0])
    g, dg = u.factors[1](uy[:, None] + points[:, 1])
    for sl in _slices(origins.shape[0], points.shape[0]):
        fe, ge = f[ix[sl]], g[iy[sl]]
        # interleaved [f' g, f g'] written in place: np.stack would copy both
        grad = np.empty(fe.shape + (2,))
        np.multiply(df[ix[sl]], ge, out=grad[..., 0])
        np.multiply(fe, dg[iy[sl]], out=grad[..., 1])
        yield sl, (fe * ge, grad)


def assemble(mesh: Mesh, u_exact: ScalarField) -> LinearSystem:
    """Stiffness and load for -Δu = f with f = u_exact.source, Dirichlet
    data u_exact on the boundary nodes, eliminated by rhs lift; quadrature
    by DEFAULT_ASSEMBLY_RULE. Any Mesh works: k nodes per element give k²
    stiffness entries per element. No other function makes a sparse
    matrix, so this one imports scipy.sparse, and importing the package
    does not."""
    import scipy.sparse as sp

    n_nodes = mesh.n_nodes
    k = mesh.elements.shape[1]
    rows = np.repeat(mesh.elements, k, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, k)).ravel()
    data = np.empty((mesh.n_elements, k * k))
    load = np.empty(mesh.elements.shape)
    for idx, origins, rule, basis in _shape_groups(mesh, *DEFAULT_ASSEMBLY_RULE):
        g = basis.gradients
        data[idx] = np.einsum("q,qia,qja->ij", rule.weights, g, g).ravel()
        # load[e, i] = sum_q f(x_eq) w_q phi_i(q), one matmul per chunk
        w_phi = rule.weights[:, None] * basis.values
        for sl, pts in _chunks(origins, rule.points):
            load[idx[sl]] = u_exact.source(pts).reshape(-1, rule.weights.size) @ w_phi
    b_full = np.zeros(n_nodes)
    np.add.at(b_full, mesh.elements.ravel(), load.ravel())
    k_full = sp.coo_matrix((data.ravel(), (rows, cols)), shape=(n_nodes, n_nodes)).tocsr()

    bnd = mesh.boundary_nodes
    free = np.setdiff1d(np.arange(n_nodes), bnd)
    ub = u_exact.value(mesh.nodes[bnd])
    k_free = k_full[free]
    k_ff, k_fb = k_free[:, free].tocsr(), k_free[:, bnd]
    rhs = b_full[free] - k_fb @ ub
    return LinearSystem(
        matrix=k_ff,
        rhs=rhs,
        dof_map=free,
        boundary_index=bnd,
        boundary_values=ub,
        n_nodes=n_nodes,
    )


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of two vectors without BLAS: OpenBLAS runs dots longer than
    10,000 entries on two threads, so CG's wall time would hang on a second
    core and its rounding on how many cores the machine has."""
    return float(np.einsum("i,i->", a, b))


def solve(system: LinearSystem, max_iter: int | None = None) -> np.ndarray:
    """Jacobi-preconditioned CG on the reduced system to relative residual
    CG_TOL; returns the full nodal coefficients (boundary values included).

    Raises NoConvergence when the iteration cap (default 10x the free DOF
    count) is hit or the matrix reveals itself as not positive definite.
    """
    a = system.matrix
    b = system.rhs
    n_free = b.shape[0]
    coeffs = np.empty(system.n_nodes)
    coeffs[system.boundary_index] = system.boundary_values
    if max_iter is None:
        max_iter = 10 * n_free
    diag = a.diagonal()
    if np.any(diag <= 0.0):
        raise NoConvergence("non-positive diagonal entry; system is not SPD")
    b_norm = math.sqrt(_dot(b, b))
    if b_norm == 0.0:
        coeffs[system.dof_map] = 0.0
        return coeffs
    x = np.zeros(n_free)
    r = b.copy()
    z = r / diag
    p = r / diag
    rz = _dot(r, z)
    converged = False
    for _ in range(max_iter):
        ap = a @ p
        pap = _dot(p, ap)
        if pap <= 0.0:
            raise NoConvergence("curvature p.Ap <= 0; system is not positive definite")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if math.sqrt(_dot(r, r)) <= CG_TOL * b_norm:
            converged = True
            break
        z = r / diag
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    if not converged:
        rel = math.sqrt(_dot(r, r)) / b_norm
        raise NoConvergence(
            f"no convergence in {max_iter} iterations (relative residual {rel:.3e})"
        )
    coeffs[system.dof_map] = x
    return coeffs


def solution_errors(mesh: Mesh, coeffs: np.ndarray, u_exact: ScalarField) -> tuple[float, float]:
    """Quadrature L2 and H1-seminorm errors of the discrete solution, by
    DEFAULT_ERROR_RULE; coeffs holds one value per mesh node. A field with
    ``factors`` is read from per-group tables of its factors (see _jets),
    any other through one ``jet`` call per chunk of elements."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (mesh.n_nodes,):
        raise ValueError(f"coeffs has shape {coeffs.shape}, not ({mesh.n_nodes},), one per node")
    l2_sq = 0.0
    h1_sq = 0.0
    for idx, origins, rule, basis in _shape_groups(mesh, *DEFAULT_ERROR_RULE):
        w = rule.weights
        n_q = w.size
        phi_t = basis.values.T
        # (k, 2Q) with column 2q + a = d phi_i / dx_a at point q, the layout of
        # the jet's gradient reshaped per element, so gradients are one matmul
        grad_t = basis.gradients.transpose(1, 0, 2).reshape(mesh.elements.shape[1], 2 * n_q)
        w2 = np.repeat(w, 2)
        for sl, (uv, ug) in _jets(u_exact, origins, rule.points):
            nodal = coeffs[mesh.elements[idx[sl]]]
            n_e = nodal.shape[0]
            du = uv.reshape(n_e, n_q) - nodal @ phi_t
            dg = ug.reshape(n_e, 2 * n_q) - nodal @ grad_t
            l2_sq += float(np.sum(du * du @ w))
            h1_sq += float(np.sum(dg * dg @ w2))
    return float(np.sqrt(l2_sq)), float(np.sqrt(h1_sq))


@dataclass
class ConvergenceReport:
    """Per-level errors and the successive log2 convergence rates."""

    ns: list[int]
    hs: list[float]
    l2_errors: list[float]
    h1_errors: list[float]
    l2_rates: list[float] = field(init=False)
    h1_rates: list[float] = field(init=False)

    def __post_init__(self) -> None:
        self.l2_rates = _rates(self.l2_errors)
        self.h1_rates = _rates(self.h1_errors)

    def to_csv(self) -> str:
        lines = ["n,h,l2_error,l2_rate,h1_error,h1_rate"]
        for k, n in enumerate(self.ns):
            l2r = _format_rate(self.l2_rates, k, "")
            h1r = _format_rate(self.h1_rates, k, "")
            lines.append(
                f"{n},{self.hs[k]:.6g},{self.l2_errors[k]:.6e},{l2r},"
                f"{self.h1_errors[k]:.6e},{h1r}"
            )
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        lines = [
            "| n | L2 error | rate | H1 error | rate |",
            "|---:|---:|---:|---:|---:|",
        ]
        for k, n in enumerate(self.ns):
            l2r = _format_rate(self.l2_rates, k, "-")
            h1r = _format_rate(self.h1_rates, k, "-")
            lines.append(
                f"| {n} | {self.l2_errors[k]:.6g} | {l2r} |"
                f" {self.h1_errors[k]:.6g} | {h1r} |"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "levels": [
                {"n": n, "h": self.hs[k], "l2_error": self.l2_errors[k],
                 "h1_error": self.h1_errors[k]}
                for k, n in enumerate(self.ns)
            ],
            "l2_rates": [None if np.isnan(r) else r for r in self.l2_rates],
            "h1_rates": [None if np.isnan(r) else r for r in self.h1_rates],
        })


def _format_rate(rates: list[float], k: int, blank: str) -> str:
    """Rate cell for row k: blank on the first row and for flagged rates."""
    if k == 0 or np.isnan(rates[k - 1]):
        return blank
    return f"{rates[k - 1]:.2f}"


def _rates(errors: list[float]) -> list[float]:
    out = []
    for a, b in zip(errors, errors[1:]):
        # errors at or below the solver tolerance are roundoff, and a log2
        # ratio of roundoff is noise, so the rate is flagged as undefined
        defined = min(a, b) > 1e-9
        out.append(float(np.log2(a / b)) if defined else float("nan"))
    return out


def convergence_study(levels) -> ConvergenceReport:
    """Solve the Dirichlet problem for u = sin(x) e^y on each mesh level and
    report errors and rates. Levels must be strictly increasing."""
    levels = [int(n) for n in levels]
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    u_exact = field_sin_exp()
    l2s, h1s = [], []
    for n in levels:
        mesh = build_mesh(n)
        coeffs = solve(assemble(mesh, u_exact))
        l2, h1 = solution_errors(mesh, coeffs, u_exact)
        l2s.append(l2)
        h1s.append(h1)
    return ConvergenceReport(
        ns=levels,
        hs=[1.0 / n for n in levels],
        l2_errors=l2s,
        h1_errors=h1s,
    )
