"""Polygonal-element Poisson solver: meshing, assembly, solve, convergence."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from mvcoords import fem
from mvcoords.coords import mvc_gradients, mvc_values
from mvcoords.errors import NoConvergence, NonConvex, PolygonError
from mvcoords.fem import (
    DEFAULT_ASSEMBLY_RULE,
    DEFAULT_ERROR_RULE,
    ConvergenceReport,
    LinearSystem,
    assemble,
    build_mesh,
    convergence_study,
    solution_errors,
    solve,
)
from mvcoords.geometry import Polygon
from mvcoords.interp import fan_quadrature, field_linear, field_sin_exp, field_x2

# measured once with the default rules (assembly degree 8 / subdivision 1,
# error norms degree 10 / subdivision 2) and frozen; the study is
# deterministic so these are exact to quadrature and solver tolerance
STUDY_LEVELS = [2, 4, 8, 16]
STUDY_L2 = [3.528115534700e-03, 8.661122819589e-04, 2.178271260571e-04, 5.492196187167e-05]
STUDY_H1 = [7.571734796779e-02, 3.605226659397e-02, 1.765062623080e-02, 8.749081843892e-03]


def element_polygon(mesh, e):
    return Polygon(mesh.nodes[mesh.elements[e]])


def square_mesh(n):
    """n-by-n mesh of [0,1]² into 4-node squares, each CCW from its lower
    left corner; node j(n+1) + i sits at (i, j)/n."""
    i = np.arange(n + 1)
    nodes = np.column_stack([np.tile(i, n + 1), np.repeat(i, n + 1)]) / n
    ll = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    elements = np.column_stack([ll, ll + 1, ll + n + 2, ll + n + 1])
    rim = np.flatnonzero(((nodes == 0.0) | (nodes == 1.0)).any(axis=1))
    return fem.Mesh(nodes=nodes, elements=elements, boundary_nodes=rim)


def triangle_mesh(n):
    """square_mesh(n) with each square cut along its lower-left to
    upper-right diagonal into two CCW triangles."""
    mesh = square_mesh(n)
    lower = mesh.elements[:, [0, 1, 2]]
    upper = mesh.elements[:, [0, 2, 3]]
    return dataclasses.replace(mesh, elements=np.concatenate([lower, upper]))


def graded(mesh):
    """The mesh with x mapped to x^2/2 + x/2: one element shape per column."""
    x, y = mesh.nodes.T
    return dataclasses.replace(mesh, nodes=np.column_stack([x**2 / 2 + x / 2, y]))


SINGLE_VALENCE = {"square": square_mesh, "triangle": triangle_mesh}


def diag_system(diag, rhs):
    """Wrap a small dense matrix as a LinearSystem with no boundary."""
    m = sp.csr_matrix(np.asarray(diag, dtype=float))
    rhs = np.asarray(rhs, dtype=float)
    return LinearSystem(
        matrix=m,
        rhs=rhs,
        dof_map=np.arange(rhs.size),
        boundary_index=np.array([], dtype=np.int64),
        boundary_values=np.array([]),
        n_nodes=rhs.size,
    )


@pytest.fixture(scope="module")
def study():
    return convergence_study(STUDY_LEVELS)


# -------------------------------------------------------------------- meshing

def test_single_element_mesh():
    mesh = build_mesh(1)
    assert mesh.n_nodes == 8
    assert mesh.n_elements == 1
    assert len(mesh.boundary_nodes) == 8


def test_two_by_two_mesh_counts():
    """9 corners plus 12 edge midpoints, four cells, 16 nodes on the rim."""
    mesh = build_mesh(2)
    assert mesh.n_nodes == 21
    assert mesh.n_elements == 4
    assert len(mesh.boundary_nodes) == 16


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_node_count_formula(n):
    mesh = build_mesh(n)
    assert mesh.n_nodes == (n + 1) ** 2 + 2 * n * (n + 1)
    assert mesh.n_elements == n * n


@pytest.mark.parametrize("n", [1, 2, 5])
def test_node_numbering(n):
    """Corner (i, j) is node j(n+1) + i at (i, j)/n, the midpoint of the
    horizontal edge from it is (n+1)² + jn + i at (i+½, j)/n, and the
    midpoint of the vertical edge from it is (n+1)² + n(n+1) + j(n+1) + i
    at (i, j+½)/n, all to the last bit; the boundary list is sorted."""
    mesh = build_mesh(n)
    n_c, n_h = (n + 1) ** 2, n * (n + 1)
    for j in range(n + 1):
        for i in range(n + 1):
            assert_allclose(mesh.nodes[j * (n + 1) + i], [i / n, j / n], rtol=0, atol=0)
            if i < n:
                assert_allclose(mesh.nodes[n_c + j * n + i], [(i + 0.5) / n, j / n],
                                rtol=0, atol=0)
            if j < n:
                assert_allclose(mesh.nodes[n_c + n_h + j * (n + 1) + i], [i / n, (j + 0.5) / n],
                                rtol=0, atol=0)
    assert np.all(np.diff(mesh.boundary_nodes) > 0)


def test_invalid_size_rejected():
    with pytest.raises(ValueError):
        build_mesh(0)


def test_elements_are_degenerate_octagons():
    """Every element is a CCW 8-node loop with area 1/n² and the
    corner/midside angle pattern 90, 180, 90, 180, ..., starting at the
    lower left corner of its cell; element j * n + i is cell (i, j)."""
    mesh = build_mesh(3)
    want = np.radians([90.0, 180.0] * 4)
    for e in range(mesh.n_elements):
        poly = element_polygon(mesh, e)
        assert poly.area == pytest.approx(1.0 / 9.0, rel=1e-12)
        assert_allclose(poly.interior_angles, want, atol=1e-12)
        j, i = divmod(e, 3)
        assert_allclose(mesh.nodes[mesh.elements[e, 0]], [i / 3, j / 3], rtol=0, atol=0)


def test_boundary_tags_match_coordinates():
    mesh = build_mesh(4)
    on_rim = np.zeros(mesh.n_nodes, dtype=bool)
    on_rim[mesh.boundary_nodes] = True
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    geometric = (x == 0.0) | (y == 0.0) | (x == 1.0) | (y == 1.0)
    assert np.array_equal(on_rim, geometric)


def test_every_node_belongs_to_an_element():
    mesh = build_mesh(3)
    assert np.array_equal(np.unique(mesh.elements), np.arange(mesh.n_nodes))


# ------------------------------------------------------------------- assembly

def test_stiffness_row_sums_vanish():
    """Partition of unity makes the gradients sum to zero, so every row of
    the stiffness matrix sums to zero. For constant data (source 0,
    boundary values c) the reduced system is then K_ff (c 1) = -K_fb (c 1),
    and its solution is exactly the constant."""
    c = 1.5
    system = assemble(build_mesh(2), field_linear(c, 0.0, 0.0))
    ones = np.full(system.dof_map.size, c)
    assert np.abs(system.matrix @ ones - system.rhs).max() < 1e-9
    assert_allclose(solve(system), c, rtol=1e-9)


def test_stiffness_symmetric():
    system = assemble(build_mesh(3), field_sin_exp())
    asym = abs(system.matrix - system.matrix.T).max()
    assert asym < 1e-12


def test_harmonic_load_is_pure_boundary_lift():
    """sin(x)e^y has zero Laplacian, so the reduced right-hand side is
    exactly the Dirichlet lift -K_fb u_b."""
    mesh = build_mesh(2)
    u = field_sin_exp()
    system = assemble(mesh, u)
    k_ref, load_ref, _, _ = per_element_reference(mesh, u, np.zeros(mesh.n_nodes))
    assert not load_ref.any()
    free, bnd = system.dof_map, system.boundary_index
    lift = -(k_ref[free][:, bnd] @ system.boundary_values)
    assert_allclose(system.rhs, lift, rtol=0.0, atol=1e-13)


def test_reduced_system_excludes_boundary():
    system = assemble(build_mesh(2), field_sin_exp())
    assert np.intersect1d(system.dof_map, system.boundary_index).size == 0
    assert system.dof_map.size + system.boundary_index.size == system.n_nodes
    assert system.matrix.shape == (system.dof_map.size,) * 2


# ------------------------------------------------------ batched element path

def per_element_reference(mesh, u, coeffs):
    """Stiffness, load and error norms one element at a time, each element
    with its own quadrature rule and basis tables, in the einsum forms the
    batched path replaced. Returns (full matrix, load, l2, h1)."""
    n_nodes = mesh.n_nodes
    rows, cols, data = [], [], []
    load = np.zeros(n_nodes)
    l2_sq = h1_sq = 0.0
    for e in range(mesh.n_elements):
        poly = element_polygon(mesh, e)
        idx = mesh.elements[e]
        rule = fan_quadrature(poly, *DEFAULT_ASSEMBLY_RULE)
        basis = mvc_gradients(poly, rule.points)
        g = basis.gradients
        rows.append(np.repeat(idx, len(idx)))
        cols.append(np.tile(idx, len(idx)))
        data.append(np.einsum("q,qia,qja->ij", rule.weights, g, g).ravel())
        np.add.at(load, idx, basis.values.T @ (rule.weights * u.source(rule.points)))

        rule = fan_quadrature(poly, *DEFAULT_ERROR_RULE)
        basis = mvc_gradients(poly, rule.points)
        nodal = coeffs[idx]
        du = u.value(rule.points) - basis.values @ nodal
        dg = u.gradient(rule.points) - np.einsum("qia,i->qa", basis.gradients, nodal)
        l2_sq += float(np.dot(rule.weights, du * du))
        h1_sq += float(np.dot(rule.weights, np.sum(dg * dg, axis=1)))
    k = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_nodes, n_nodes),
    ).tocsr()
    return k, load, np.sqrt(l2_sq), np.sqrt(h1_sq)


def assert_matches_per_element_reference(mesh):
    """Stiffness, rhs and both error norms for x^2 agree with the
    per-element reference. x^2 has the nonzero source -2, so the load
    vector is exercised, not only the Dirichlet lift."""
    u = field_x2()
    system = assemble(mesh, u)
    coeffs = solve(system)
    k_ref, load_ref, l2_ref, h1_ref = per_element_reference(mesh, u, coeffs)
    free, bnd = system.dof_map, system.boundary_index
    rhs_ref = load_ref[free] - k_ref[free][:, bnd] @ system.boundary_values
    k = system.matrix.toarray()
    k_ref_ff = k_ref[free][:, free].toarray()
    assert_allclose(k, k_ref_ff, rtol=1e-12, atol=1e-12 * np.abs(k).max())
    assert np.abs(load_ref).min() > 0.0
    assert_allclose(system.rhs, rhs_ref, rtol=1e-12)
    l2, h1 = solution_errors(mesh, coeffs, u)
    assert l2 > 1e-6 and h1 > 1e-4
    assert_allclose([l2, h1], [l2_ref, h1_ref], rtol=1e-12)


def test_batched_path_matches_per_element_reference():
    assert_matches_per_element_reference(build_mesh(3))


def _refuse(x):
    raise AssertionError("the FEM hot path evaluated a field callable it should not need")


@pytest.mark.parametrize("field", [field_x2, field_sin_exp])
def test_hot_paths_use_laplacian_and_jet_only(field):
    """assemble takes its load from the laplacian, never a hessian, and
    solution_errors makes no value or gradient call. It makes one jet call
    per chunk for x^2; for the product field sin(x)e^y it makes no jet
    call and two factor calls per shape group, one per distinct origin
    coordinate table. Guarded fields give bit-identical results to the
    unguarded field."""
    u = field()
    for mesh in (build_mesh(4), triangle_mesh(4)):
        system = assemble(mesh, u)
        no_hessian = dataclasses.replace(u, hessian=_refuse)
        assert np.array_equal(assemble(mesh, no_hessian).rhs, system.rhs)

        coeffs = solve(system)
        calls = []

        def counted(name, fn):
            def wrapper(x):
                calls.append((name, x.shape))
                return fn(x)
            return wrapper

        groups = list(fem._shape_groups(mesh, *DEFAULT_ERROR_RULE))
        if u.factors is None:
            guarded = dataclasses.replace(u, value=_refuse, gradient=_refuse,
                                          jet=counted("jet", u.jet))
            expected = [("jet", pts.shape) for _, origins, rule, _ in groups
                        for _, pts in fem._chunks(origins, rule.points)]
        else:
            fx, fy = u.factors
            guarded = dataclasses.replace(u, value=_refuse, gradient=_refuse, jet=_refuse,
                                          factors=(counted("fx", fx), counted("fy", fy)))
            # build_mesh(4) is one group, triangle_mesh(4) two; each group's
            # origins have 4 distinct x and 4 distinct y
            expected = [(name, (4, rule.weights.size))
                        for _, _, rule, _ in groups for name in ("fx", "fy")]
        assert solution_errors(mesh, coeffs, guarded) == solution_errors(mesh, coeffs, u)
        assert calls == expected


def test_factored_and_jet_paths_are_bit_identical(monkeypatch):
    """The factor tables of sin(x)e^y give the same floats as its jet:
    (l2, h1) are bit-identical with and without factors on octagon meshes
    n = 1..16 and 32, the graded octagon mesh, uniform and graded square
    and triangle meshes, and 7-element chunks that leave a ragged final
    chunk."""
    u = field_sin_exp()
    plain = dataclasses.replace(u, factors=None)

    def assert_identical(mesh):
        coeffs = u.value(mesh.nodes)
        assert solution_errors(mesh, coeffs, u) == solution_errors(mesh, coeffs, plain)

    meshes = [build_mesh(n) for n in [*range(1, 17), 32]] + [graded(build_mesh(3))]
    meshes += [make(n) for make in SINGLE_VALENCE.values() for n in (1, 3)]
    meshes += [graded(make(3)) for make in SINGLE_VALENCE.values()]
    for mesh in meshes:
        assert_identical(mesh)
    mesh = build_mesh(5)
    q_err = next(fem._shape_groups(mesh, *DEFAULT_ERROR_RULE))[2].weights.size
    monkeypatch.setattr(fem, "_CHUNK_POINTS", 7 * q_err)
    elements = range(mesh.n_elements)
    assert [len(elements[sl]) for sl in fem._slices(mesh.n_elements, q_err)] == [7, 7, 7, 4]
    assert_identical(mesh)


def test_factor_tables_need_repeated_origin_coordinates():
    """build_mesh(4) turned by 30 degrees is still translates of one
    octagon, but no two origins share an x or a y, so factor tables would
    hold a row per element: sin(x)e^y is read through its jet instead,
    and the factors are never called."""
    mesh = build_mesh(4)
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    turned = dataclasses.replace(mesh, nodes=mesh.nodes @ np.array([[c, s], [-s, c]]))
    u = field_sin_exp()
    coeffs = u.value(turned.nodes)
    no_tables = dataclasses.replace(u, factors=(_refuse, _refuse))
    assert solution_errors(turned, coeffs, no_tables) == solution_errors(turned, coeffs, u)


@pytest.mark.parametrize("shape", [(26,), (20,), (21, 2)])
def test_coefficient_shape_checked(shape):
    """Coefficients must be one value per node: build_mesh(2) has 21 nodes,
    and a long, short or 2-D vector raises a ValueError naming both
    shapes."""
    mesh = build_mesh(2)
    assert mesh.n_nodes == 21
    msg = re.escape(f"coeffs has shape {shape}, not (21,)")
    with pytest.raises(ValueError, match=msg):
        solution_errors(mesh, np.zeros(shape), field_sin_exp())


def test_ragged_final_chunk(monkeypatch):
    """Chunking only regroups sums: the default chunks and chunks of 7
    elements (25 elements leave a final chunk of 4) match one chunk."""
    mesh = build_mesh(5)
    u = field_x2()
    coeffs = solve(assemble(mesh, u))
    default = (assemble(mesh, u).rhs, solution_errors(mesh, coeffs, u))
    q_asm, q_err = (next(fem._shape_groups(mesh, *rule))[2].weights.size
                    for rule in (DEFAULT_ASSEMBLY_RULE, DEFAULT_ERROR_RULE))
    assert mesh.n_elements * q_err > fem._CHUNK_POINTS

    def chunked(elements_per_chunk):
        monkeypatch.setattr(fem, "_CHUNK_POINTS", elements_per_chunk * q_asm)
        rhs = assemble(mesh, u).rhs
        monkeypatch.setattr(fem, "_CHUNK_POINTS", elements_per_chunk * q_err)
        return rhs, solution_errors(mesh, coeffs, u)

    one_rhs, one_errors = chunked(mesh.n_elements)
    for rhs, errors in (default, chunked(7)):
        assert_allclose(rhs, one_rhs, rtol=1e-13)
        assert_allclose(errors, one_errors, rtol=1e-13)


def test_chunks_cover_elements_within_the_point_budget():
    """Chunks are contiguous runs covering every element once, hold at
    most _CHUNK_POINTS points, and their points are bit-equal to origin +
    reference point; a rule with more points than the budget still gets
    one element per chunk. The 81 elements leave a ragged final chunk
    under both default rules."""
    mesh = build_mesh(9)
    mesh_origins = mesh.nodes[mesh.elements[:, 0]]
    oversized = np.random.default_rng(3).uniform(0.0, 0.1, (fem._CHUNK_POINTS + 1, 2))
    cases = [(next(fem._shape_groups(mesh, *rule))[2].points, mesh_origins)
             for rule in (DEFAULT_ASSEMBLY_RULE, DEFAULT_ERROR_RULE)]
    cases.append((oversized, mesh_origins[:3]))
    for points, origins in cases:
        n_q = points.shape[0]
        elements = np.arange(origins.shape[0])
        chunks = list(fem._chunks(origins, points))
        covered = [elements[sl] for sl, _ in chunks]
        assert np.array_equal(np.concatenate(covered), elements)
        for idx, (_, pts) in zip(covered, chunks):
            assert pts.shape == (idx.size * n_q, 2)
            assert pts.shape[0] <= fem._CHUNK_POINTS or idx.size == 1
        if n_q > fem._CHUNK_POINTS:
            assert all(idx.size == 1 for idx in covered)
        else:
            assert 0 < covered[-1].size < covered[0].size
        ref = (origins[:, None, :] + points[None]).reshape(-1, 2)
        assert np.array_equal(np.concatenate([pts for _, pts in chunks]), ref)


@pytest.mark.parametrize("n", [1, 3, 7, 128])
def test_uniform_mesh_is_one_shape_group(n):
    """Every element of build_mesh(n) is a translate of element 0, so the
    rule and basis are tabulated once, on element 0, for all elements."""
    mesh = build_mesh(n)
    (idx, origins, _, _), = fem._shape_groups(mesh, *DEFAULT_ASSEMBLY_RULE)
    assert np.array_equal(idx, np.arange(mesh.n_elements))
    assert np.array_equal(origins, mesh.nodes[mesh.elements[:, 0]])


def test_graded_mesh_matches_per_element_reference():
    """build_mesh(3) with x mapped to x^2/2 + x/2 has one element shape per
    column; it gets one table per shape and matches the per-element
    reference."""
    mesh = graded(build_mesh(3))
    columns = np.arange(mesh.n_elements) % 3
    groups = [np.unique(columns[idx]).tolist()
              for idx, *_ in fem._shape_groups(mesh, *DEFAULT_ASSEMBLY_RULE)]
    assert sorted(groups) == [[0], [1], [2]]
    assert_matches_per_element_reference(mesh)


@pytest.mark.parametrize("family", SINGLE_VALENCE)
@pytest.mark.parametrize("grade", [False, True], ids=["uniform", "graded"])
def test_single_valence_meshes_match_per_element_reference(family, grade):
    """Assembly and error norms take the valence from the element table:
    meshes of 4-node squares and of triangles, uniform and graded, match
    the per-element reference."""
    mesh = SINGLE_VALENCE[family](3)
    assert_matches_per_element_reference(graded(mesh) if grade else mesh)


def test_similar_elements_of_different_sizes_stay_apart():
    """build_mesh(2) with x and y both mapped piecewise linearly by 0, 1/2,
    1 -> 0, 1/3, 1: the diagonal elements are squares of sides 1/3 and 2/3,
    similar but not translates, so each of the four elements is its own
    group and the result matches the per-element reference."""
    mesh = build_mesh(2)
    graded = np.interp(mesh.nodes, [0.0, 0.5, 1.0], [0.0, 1 / 3, 1.0])
    mesh = dataclasses.replace(mesh, nodes=graded)
    groups = [idx.tolist() for idx, *_ in fem._shape_groups(mesh, *DEFAULT_ASSEMBLY_RULE)]
    assert sorted(groups) == [[0], [1], [2], [3]]
    assert_matches_per_element_reference(mesh)


@pytest.mark.filterwarnings("error")
def test_clockwise_element_named():
    """An element row given clockwise is rejected, not silently reversed
    with its basis functions on the wrong nodes."""
    mesh = build_mesh(3)
    elements = mesh.elements.copy()
    elements[4] = elements[4, ::-1]
    flipped = dataclasses.replace(mesh, elements=elements)
    msg = "^element 4: clockwise vertex loop$"
    with pytest.raises(PolygonError, match=msg):
        assemble(flipped, field_x2())
    with pytest.raises(PolygonError, match=msg):
        solution_errors(flipped, np.zeros(mesh.n_nodes), field_x2())


def test_non_convex_element_named():
    """Pushing the midpoint of the edge between elements 4 and 7 down into
    element 4 gives it a reflex vertex; the error names element 4."""
    mesh = build_mesh(3)
    node = mesh.elements[4, 5]  # top mid-side node of the centre element
    assert node == mesh.elements[7, 1]
    nodes = mesh.nodes.copy()
    nodes[node, 1] -= 0.05
    dented = dataclasses.replace(mesh, nodes=nodes)
    msg = "^element 4: reflex turn at vertex 5$"
    with pytest.raises(NonConvex, match=msg):
        assemble(dented, field_x2())
    with pytest.raises(NonConvex, match=msg):
        solution_errors(dented, np.zeros(mesh.n_nodes), field_x2())


def _set(table, index, value):
    out = table.copy()
    out[index] = value
    return out


@pytest.mark.parametrize("field, edit, msg", [
    pytest.param("elements", lambda t: _set(t, (3, 2), 21),
                 r"^element 3: node index 21 outside \[0, 21\)$", id="element-past-end"),
    pytest.param("elements", lambda t: _set(t, (1, 0), -1),
                 r"^element 1: node index -1 outside \[0, 21\)$", id="element-negative"),
    pytest.param("elements", lambda t: t.astype(float),
                 r"^element table holds float64, not integer", id="element-float"),
    pytest.param("elements", lambda t: t[:, :2],
                 r"^elements must be an \(E, k\) table with k >= 3", id="two-node-elements"),
    pytest.param("elements", lambda t: t.ravel(),
                 r"^elements must be an \(E, k\) table with k >= 3", id="flat-element-table"),
    pytest.param("boundary_nodes", lambda t: _set(t, 5, 21),
                 r"^boundary entry 5: node index 21 outside", id="boundary-past-end"),
    pytest.param("boundary_nodes", lambda t: _set(t, 0, -2),
                 r"^boundary entry 0: node index -2 outside", id="boundary-negative"),
    pytest.param("boundary_nodes", lambda t: t.astype(float),
                 r"^boundary entry table holds float64", id="boundary-float"),
    pytest.param("boundary_nodes", lambda t: t.reshape(4, 4),
                 r"^boundary_nodes must be a 1-D index list, not \(4, 4\)$", id="boundary-2d"),
    pytest.param("nodes", lambda t: t.ravel(),
                 r"^nodes are float64 \(42,\), not float \(N, 2\)$", id="flat-nodes"),
    pytest.param("nodes", lambda t: np.column_stack([t, t[:, 0]]),
                 r"^nodes are float64 \(21, 3\), not float \(N, 2\)$", id="three-columns"),
    pytest.param("nodes", lambda t: _set(t, (7, 1), np.inf),
                 r"^node 7 is not finite: \[0\.5, inf\]$", id="inf-node"),
    pytest.param("nodes", lambda t: _set(t, (4, 0), np.nan),
                 r"^node 4 is not finite: \[nan, 0\.5\]$", id="nan-node"),
])
def test_malformed_mesh_named(field, edit, msg):
    """A node array that is not a finite (N, 2) float array, or a mesh table
    that is not integer, not of its shape ((E, k) with k >= 3 for elements,
    1-D for the boundary nodes), or holds an index outside [0, n_nodes)
    raises PolygonError on construction, naming the array's shape, the first
    non-finite node, or the element or boundary entry and the index; a
    negative index is not read from the end of the node array."""
    mesh = build_mesh(2)
    with pytest.raises(PolygonError, match=msg):
        dataclasses.replace(mesh, **{field: edit(getattr(mesh, field))})


# ---------------------------------------------------------------------- solve

def test_identity_system_solved_in_one_iteration():
    rhs = np.array([3.0, -1.0, 2.0, 0.5, 4.0])
    x = solve(diag_system(np.eye(5), rhs), max_iter=1)
    assert_allclose(x, rhs, rtol=0.0, atol=0.0)


def test_zero_rhs_short_circuits():
    x = solve(diag_system(np.eye(3), np.zeros(3)))
    assert_allclose(x, 0.0, atol=0.0)


def test_non_positive_diagonal_raises():
    with pytest.raises(NoConvergence):
        solve(diag_system([[1.0, 0.0], [0.0, -1.0]], [1.0, 1.0]))


def test_indefinite_matrix_raises():
    # positive diagonal but eigenvalues 3 and -1: CG meets negative curvature
    with pytest.raises(NoConvergence):
        solve(diag_system([[1.0, 2.0], [2.0, 1.0]], [1.0, 0.0]))


SOLVE_DIGEST = """
import hashlib
from mvcoords.fem import assemble, build_mesh, solve
from mvcoords.interp import field_sin_exp
x = solve(assemble(build_mesh(64), field_sin_exp()))
print(hashlib.sha256(x.tobytes()).hexdigest())
"""


def test_solve_does_not_depend_on_blas_threads():
    # n=64 has 12,545 free DOFs, enough for OpenBLAS to split a BLAS dot
    # over two threads, which rounds differently from one thread
    src = str(Path(fem.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run([sys.executable, "-c", SOLVE_DIGEST],
                                env=env, capture_output=True, text=True, check=True)
        digests.add(result.stdout.strip())
    assert len(digests) == 1


def test_iteration_cap_raises():
    system = assemble(build_mesh(2), field_sin_exp())
    with pytest.raises(
        NoConvergence,
        match=r"^no convergence in 1 iterations \(relative residual \d\.\d{3}e[+-]\d+\)$",
    ) as exc:
        solve(system, max_iter=1)
    # the residual reached is reported, and it is above the 1e-10 target
    rel = float(str(exc.value).split("residual ")[1].rstrip(")"))
    assert 1e-10 < rel < 1.0


def test_reduced_residual_below_tolerance():
    system = assemble(build_mesh(2), field_sin_exp())
    coeffs = solve(system)
    res = system.matrix @ coeffs[system.dof_map] - system.rhs
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(system.rhs)


def test_boundary_coefficients_are_exact():
    mesh = build_mesh(4)
    u = field_sin_exp()
    coeffs = solve(assemble(mesh, u))
    bnd = mesh.boundary_nodes
    assert_allclose(coeffs[bnd], u.value(mesh.nodes[bnd]), rtol=0.0, atol=0.0)


# ----------------------------------------------------------------- patch test

@pytest.mark.parametrize("n", [1, 2, 4])
def test_affine_patch_reproduced_at_nodes(n):
    """An affine field solves the discrete problem exactly: the nodal
    coefficients match the field and both error norms sit at solver
    tolerance. n = 1 also covers the empty reduced system (every node
    of the single element is a boundary node)."""
    u = field_linear(2.0, -3.0, 0.5)
    mesh = build_mesh(n)
    coeffs = solve(assemble(mesh, u))
    assert np.abs(coeffs - u.value(mesh.nodes)).max() < 1e-9
    l2, h1 = solution_errors(mesh, coeffs, u)
    assert l2 < 1e-9
    assert h1 < 1e-9


@pytest.mark.parametrize("family", SINGLE_VALENCE)
def test_affine_patch_on_single_valence_meshes(family):
    """The patch test on graded meshes of squares and of triangles: an
    affine field is reproduced at the nodes and both error norms vanish."""
    u = field_linear(2.0, -3.0, 0.5)
    mesh = graded(SINGLE_VALENCE[family](4))
    coeffs = solve(assemble(mesh, u))
    assert np.abs(coeffs - u.value(mesh.nodes)).max() < 1e-12
    assert max(solution_errors(mesh, coeffs, u)) < 1e-12


def test_roundoff_errors_flag_rates():
    """Errors at roundoff level carry no rate information, so the report
    flags them instead of printing log2 of noise; a rate between two
    resolved errors is still printed."""
    report = ConvergenceReport(ns=[1, 2, 4], hs=[1.0, 0.5, 0.25],
                               l2_errors=[4e-3, 1e-3, 3e-16], h1_errors=[2e-15, 5e-16, 1e-15])
    assert report.l2_rates[0] == 2.0
    assert np.isnan(report.l2_rates[1])
    assert all(np.isnan(r) for r in report.h1_rates)
    # flagged cells render blank, not "nan"
    assert "nan" not in report.to_csv()
    assert "nan" not in report.to_markdown()
    assert json.loads(report.to_json())["l2_rates"] == [2.0, None]
    assert json.loads(report.to_json())["h1_rates"] == [None, None]


# ----------------------------------------------------------------- conformity

def edge_traces(mesh, e, pts):
    """Map global node index -> basis values of that node's hat on pts,
    evaluated inside element e."""
    vals = mvc_values(element_polygon(mesh, e), pts)
    return {int(g): vals[:, k] for k, g in enumerate(mesh.elements[e])}


@pytest.mark.parametrize(
    "pair, start, end, normal",
    [
        ((0, 1), (0.5, 0.0), (0.5, 0.5), (1.0, 0.0)),  # vertical shared edge
        ((0, 2), (0.0, 0.5), (0.5, 0.5), (0.0, 1.0)),  # horizontal shared edge
    ],
)
def test_basis_conforms_across_shared_edges(pair, start, end, normal):
    """Traces from the two sides of a shared edge agree: 10 sample points
    per edge, offset 1e-7 into each element, agreement within 1e-5. Nodes
    private to one element must trace to ~0 there, so those are compared
    against a zero trace from the other side."""
    mesh = build_mesh(2)
    ea, eb = pair
    start, end, normal = map(np.asarray, (start, end, normal))
    t = ((np.arange(10) + 0.5) / 10)[:, None]
    on_edge = start + t * (end - start)
    side_a = edge_traces(mesh, ea, on_edge - 1e-7 * normal)
    side_b = edge_traces(mesh, eb, on_edge + 1e-7 * normal)
    zero = np.zeros(10)
    for g in set(side_a) | set(side_b):
        gap = np.abs(side_a.get(g, zero) - side_b.get(g, zero)).max()
        assert gap < 1e-5, f"node {g} jumps by {gap:.3e} across the edge"


# ---------------------------------------------------------------- convergence

def test_frozen_study_values(study):
    assert study.ns == STUDY_LEVELS
    assert study.hs == [0.5, 0.25, 0.125, 0.0625]
    assert_allclose(study.l2_errors, STUDY_L2, rtol=1e-9)
    assert_allclose(study.h1_errors, STUDY_H1, rtol=1e-9)


def test_l2_converges_at_second_order(study):
    assert_allclose(study.l2_rates, [2.026, 1.991, 1.988], atol=5e-3)
    assert study.l2_rates[-1] == pytest.approx(2.0, abs=0.05)


def test_h1_converges_at_first_order(study):
    assert_allclose(study.h1_rates, [1.071, 1.030, 1.013], atol=5e-3)
    assert study.h1_rates[-1] == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("family", SINGLE_VALENCE)
def test_single_valence_rates(family):
    """sin(x)e^y from n = 16 to 32 on squares and on triangles converges
    at the same rates as on the octagons: 2 in L2, 1 in H1."""
    u = field_sin_exp()
    errors = []
    for n in (16, 32):
        mesh = SINGLE_VALENCE[family](n)
        errors.append(solution_errors(mesh, solve(assemble(mesh, u)), u))
    l2_rate, h1_rate = np.log2(np.divide(*errors))
    assert l2_rate == pytest.approx(2.0, abs=0.05)
    assert h1_rate == pytest.approx(1.0, abs=0.05)


def test_error_quadrature_refinement_insensitive(monkeypatch):
    """One extra subdivision of the error rule moves the reported norms by
    far less than the rate tolerances care about."""
    mesh = build_mesh(4)
    u = field_sin_exp()
    coeffs = solve(assemble(mesh, u))
    assert DEFAULT_ERROR_RULE == (10, 2)
    l2_a, h1_a = solution_errors(mesh, coeffs, u)
    monkeypatch.setattr(fem, "DEFAULT_ERROR_RULE", (10, 3))
    l2_b, h1_b = solution_errors(mesh, coeffs, u)
    assert abs(l2_a - l2_b) / l2_a < 1e-3
    assert abs(h1_a - h1_b) / h1_a < 1e-3


def test_levels_must_be_strictly_increasing():
    with pytest.raises(ValueError):
        convergence_study([4, 2])
    with pytest.raises(ValueError):
        convergence_study([2, 2, 4])


def test_single_level_study_has_no_rates():
    report = convergence_study([2])
    assert report.l2_rates == []
    assert report.h1_rates == []


# -------------------------------------------------------------- report output

def test_report_csv_format(study):
    lines = study.to_csv().strip().split("\n")
    assert lines[0] == "n,h,l2_error,l2_rate,h1_error,h1_rate"
    assert len(lines) == 1 + len(STUDY_LEVELS)
    first = lines[1].split(",")
    assert first[0] == "2"
    assert first[3] == "" and first[5] == ""  # no rate on the first row
    assert lines[2].split(",")[3] == "2.03"


def test_report_markdown_format(study):
    lines = study.to_markdown().strip().split("\n")
    assert lines[0] == "| n | L2 error | rate | H1 error | rate |"
    assert lines[1].startswith("|---")
    assert "| - |" in lines[2]
    assert "| 16 |" in lines[-1]


def test_report_json_round_trip(study):
    doc = json.loads(study.to_json())
    assert [row["n"] for row in doc["levels"]] == STUDY_LEVELS
    # JSON carries full precision, not the 6-digit table formatting
    assert doc["levels"][0]["l2_error"] == study.l2_errors[0]
    assert len(doc["l2_rates"]) == len(STUDY_LEVELS) - 1
    assert doc["h1_rates"][-1] == pytest.approx(1.013, abs=5e-3)
