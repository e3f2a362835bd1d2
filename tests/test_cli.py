"""Command line interface: flags, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mvcoords
from mvcoords import cli, coords
from mvcoords.cli import main
from mvcoords.coords import (
    mvc_gradients,
    mvc_values,
    wachspress_gradients,
    wachspress_values,
)
from mvcoords.errors import EvaluationError
from mvcoords.geometry import apex_pentagon, load_polygon

SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
OCT8 = [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 0.5],
        [1.0, 1.0], [0.5, 1.0], [0.0, 1.0], [0.0, 0.5]]
PENTAGON = [[-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [0.0, 1.001]]
# 10 x 1.05 rectangle: aspect ratio ~19 fails G1 while the normalized
# smallest vertex distance 1.05/diag ~ 0.104 still clears d_* = 0.1
NEEDLE = [[0.0, 0.0], [10.0, 0.0], [10.0, 1.05], [0.0, 1.05]]
# kite of diameter 2: every edge is longer than 1, but the two vertices
# (0, -eps) and (0, eps) are 2 eps apart, 0.001 after normalization
KITE = [[-1.0, 0.0], [0.0, -1e-3], [1.0, 0.0], [0.0, 1e-3]]


@pytest.fixture(scope="module")
def polys(tmp_path_factory):
    d = tmp_path_factory.mktemp("polygons")
    out = {}
    for name, verts in [("square", SQUARE), ("oct8", OCT8),
                        ("pentagon", PENTAGON), ("needle", NEEDLE),
                        ("kite", KITE)]:
        path = d / f"{name}.json"
        path.write_text(json.dumps({"vertices": verts}))
        out[name] = str(path)
    return out


def run_cli(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# ----------------------------------------------------------------------- eval

def test_eval_square_center(polys, capsys):
    rc, out, _ = run_cli(capsys, "eval", "--polygon", polys["square"],
                         "--point", "0.5,0.5")
    assert rc == 0
    header, row = out.strip().split("\n")
    assert header.startswith("x,y,status,lambda_0,grad_x_0,grad_y_0,lambda_1")
    cells = row.split(",")
    assert cells[:3] == ["0.5", "0.5", "ok"]
    assert [cells[3 + 3 * i] for i in range(4)] == ["0.25"] * 4


def test_eval_repeatable_points(polys, capsys):
    rc, out, _ = run_cli(capsys, "eval", "--polygon", polys["square"],
                         "--point", "0.25,0.5", "--point", "0.75,0.5")
    assert rc == 0
    assert len(out.strip().split("\n")) == 3


def test_eval_grid_row_count(polys, capsys):
    rc, out, _ = run_cli(capsys, "eval", "--polygon", polys["pentagon"],
                         "--grid", "64")
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 64 * 64
    # bounding-box corners fall outside the pentagon: flagged, not fatal
    flagged = [l for l in lines[1:] if ",OutsidePolygon," in l]
    assert flagged


def test_eval_boundary_point_keeps_values(polys, capsys):
    """On the boundary the coordinate values are still defined (edge
    limits), so the row carries them and flags only the gradient."""
    rc, out, _ = run_cli(capsys, "eval", "--polygon", polys["square"],
                         "--point", "0.3,0")
    assert rc == 0
    cells = out.strip().split("\n")[1].split(",")
    assert cells[2] == "PointTooCloseToBoundary"
    assert [cells[3 + 3 * i] for i in range(4)] == ["0.7", "0.3", "0", "0"]
    assert cells[4] == "" and cells[5] == ""  # no gradient cells


def test_eval_point_next_to_edge_is_ok(polys, capsys):
    """3e-9 from the bottom edge is past the 1e-9 * sqrt(2) boundary band,
    so the row carries gradients, at their edge limits."""
    rc, out, _ = run_cli(capsys, "eval", "--polygon", polys["square"],
                         "--point", "0.5,3e-9")
    assert rc == 0
    cells = out.strip().split("\n")[1].split(",")
    assert cells[2] == "ok"
    assert cells[3:6] == ["0.5", "-1", "-0.5"]


def test_eval_outside_point_run_continues(polys, capsys):
    rc, out, _ = run_cli(capsys, "eval", "--polygon", polys["square"],
                         "--point", "2,2", "--point", "0.5,0.5")
    assert rc == 0
    lines = out.strip().split("\n")
    first = lines[1].split(",")
    assert first[2] == "OutsidePolygon"
    assert all(c == "" for c in first[3:])
    assert lines[2].split(",")[2] == "ok"


def test_eval_infinite_point_is_outside(polys, capsys):
    rc, out, err = run_cli(capsys, "eval", "--polygon", polys["square"], "--point", "inf,0.2")
    assert rc == 0 and err == ""
    assert out.strip().split("\n")[1].split(",")[:3] == ["inf", "0.2", "OutsidePolygon"]


def test_eval_negative_point(polys, capsys):
    """A point value starting with "-" is read as the point, not an option."""
    _, joined, _ = run_cli(capsys, "eval", "--polygon", polys["pentagon"], "--point=-0.5,0.2")
    rc, out, err = run_cli(capsys, "eval", "--polygon", polys["pentagon"], "--point", "-0.5,0.2")
    assert rc == 0 and err == ""
    assert out == joined
    assert out.strip().split("\n")[1].split(",")[:3] == ["-0.5", "0.2", "ok"]
    rc, out, err = run_cli(capsys, "eval", "--polygon", polys["square"], "--point", "-inf,0.5")
    assert rc == 0 and err == ""
    assert out.strip().split("\n")[1].split(",")[:3] == ["-inf", "0.5", "OutsidePolygon"]


def test_eval_trailing_point_flag_rejected(polys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--polygon", polys["square"], "--point"])
    assert exc.value.code == 2


def test_eval_non_finite_point_run_continues(polys, capsys, monkeypatch):
    """An interior point whose values come out non-finite gets the status
    EvaluationError and empty cells; every other row prints as before."""
    argv = ["eval", "--polygon", polys["square"], "--point", "2,2", "--point", "0.25,0.5",
            "--point", "0.5,0.5", "--point", "0.3,0", "--point", "0.75,0.5"]
    rc, clean, _ = run_cli(capsys, *argv)
    assert rc == 0
    real = coords._mvc_weights

    def poisoned(g):
        w = real(g)
        if w.shape[1] == 3:  # the interior points, in input order
            w[0, 1] = np.nan  # vertex 0 at (0.5, 0.5)
        return w

    monkeypatch.setattr(coords, "_mvc_weights", poisoned)
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    got, want = out.splitlines(), clean.splitlines()
    assert [line.split(",")[2] for line in got[1:]] == [
        "OutsidePolygon", "ok", "EvaluationError", "PointTooCloseToBoundary", "ok"]
    assert all(c == "" for c in got[3].split(",")[3:])
    assert got[:3] + got[4:] == want[:3] + want[4:]
    assert want[3].split(",")[2] == "ok"


def eval_one_point_at_a_time(path, points, grid, kind):
    """Reference for ``eval``: each point through the public coordinate
    functions on its own, the row status named by the exception raised."""
    p = load_polygon(path)
    if kind == "mvc":
        val_fn, grad_fn = mvc_values, mvc_gradients
    else:
        val_fn, grad_fn = wachspress_values, wachspress_gradients
    x0, y0, x1, y1 = p.bbox
    gx, gy = np.meshgrid(np.linspace(x0, x1, grid), np.linspace(y0, y1, grid))
    pts = np.concatenate([np.asarray(points, dtype=float),
                          np.column_stack([gx.ravel(), gy.ravel()])])
    n = len(p.vertices)
    header = ["x", "y", "status"]
    for i in range(n):
        header += [f"lambda_{i}", f"grad_x_{i}", f"grad_y_{i}"]
    lines = [",".join(header)]
    for x, y in pts:
        cells = [""] * (3 * n)
        status = "ok"
        try:
            lam = val_fn(p, [[x, y]])[0]
            for i in range(n):
                cells[3 * i] = f"{lam[i]:.6g}"
            grad = grad_fn(p, [[x, y]]).gradients[0]
            for i in range(n):
                cells[3 * i + 1] = f"{grad[i, 0]:.6g}"
                cells[3 * i + 2] = f"{grad[i, 1]:.6g}"
        except EvaluationError as exc:
            status = type(exc).__name__
        lines.append(f"{x:.6g},{y:.6g},{status}," + ",".join(cells))
    return "\n".join(lines) + "\n"


# outside (one far off, one infinite), two vertices, two edge points, the
# band on both sides of an edge (eps = 1e-9 * sqrt(2) here), just past the
# band on both sides, inside, a NaN point, -0.0; the lattice adds more
EVAL_POINTS = [(2.0, 2.0), (-0.5, 0.5), (np.inf, 0.0), (1e308, 1e308), (0.0, 0.0),
               (1.0, 1.0), (0.3, 0.0), (1.0, 0.6), (0.5, 1e-9), (0.5, -1e-9), (0.5, -2e-9),
               (0.5, 1e-8), (0.5, 0.5), (0.25, 0.7), (np.nan, 0.0), (-0.0, 0.5), (0.5, 0.5 + 1e-7)]


@pytest.mark.parametrize("name,kind,vertices", [("square", "mvc", 4), ("square", "wachspress", 4),
                                               ("oct8", "mvc", 8)],
                         ids=["mvc", "wachspress", "oct8-mvc"])
def test_eval_matches_one_point_at_a_time(polys, capsys, name, kind, vertices):
    argv = ["eval", "--polygon", polys[name], "--kind", kind, "--grid", "11"]
    argv += [f"--point={x!r},{y!r}" for x, y in EVAL_POINTS]
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert out == eval_one_point_at_a_time(polys[name], EVAL_POINTS, 11, kind)
    lines = out.splitlines()
    assert {len(line.split(",")) for line in lines} == {3 + 3 * vertices}
    assert {line.split(",")[2] for line in lines[1:]} == {
        "ok", "OutsidePolygon", "PointTooCloseToBoundary", "EvaluationError"}


# where %g output changes form: signed zeros, infinities, NaN, the smallest
# subnormal and normal, rounding up to 1e+06 (exponent form) and to 0.0001
# (fixed form) and the float just below each, the largest float
FORMAT_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, 2.2250738585072014e-308,
                999999.5, np.nextafter(999999.5, 0.0), -999999.5, 9.999995e-5,
                np.nextafter(9.999995e-5, 0.0), 1.7976931348623157e308]


@given(v=st.one_of(st.floats(), st.floats(999999.0, 1.000001e6), st.floats(-1.000001e6, -999999.0),
                   st.floats(9.9999e-5, 1.00001e-4), st.floats(0.0, 1e-307)))
def test_percent_format_matches_format_spec(v):
    """The CSV dumps fill row templates with %-formatting; every float
    prints exactly as f"{v:.6g}" would."""
    assert "%.6g" % v == format(v, ".6g")


@pytest.mark.parametrize("v", FORMAT_EDGES)
def test_percent_format_matches_format_spec_at_the_edges(v):
    assert "%.6g" % v == format(v, ".6g")


def test_eval_wachspress_needs_strict_convexity(polys, capsys):
    rc, _, err = run_cli(capsys, "eval", "--polygon", polys["oct8"],
                         "--point", "0.5,0.5", "--kind", "wachspress")
    assert rc == 1
    assert "CollinearVertices" in err


def test_eval_without_points_rejected(polys, capsys):
    rc, _, err = run_cli(capsys, "eval", "--polygon", polys["square"])
    assert rc == 1
    assert "--point" in err


def test_eval_bad_point_string(polys, capsys):
    rc, _, err = run_cli(capsys, "eval", "--polygon", polys["square"],
                         "--point", "0.5;0.5")
    assert rc == 1
    assert "error" in err


def test_eval_missing_file(capsys):
    rc, _, err = run_cli(capsys, "eval", "--polygon", "/does/not/exist.json",
                         "--point", "0.5,0.5")
    assert rc == 1
    assert "error" in err


def test_eval_reruns_byte_identical(polys, tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        rc, _, _ = run_cli(capsys, "eval", "--polygon", polys["pentagon"],
                           "--grid", "16", "--out", str(path))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_flag_rejected(polys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--polygon", polys["square"], "--bogus", "1"])
    assert exc.value.code == 2


# -------------------------------------------------------------- check-polygon

def test_check_square_passes(polys, capsys):
    rc, out, _ = run_cli(capsys, "check-polygon", "--polygon", polys["square"])
    assert rc == 0
    assert "G1 (gamma <= 6): PASS" in out
    assert "G2 (d_min >= 0.1): PASS" in out
    assert "gamma       2.82843" in out
    assert "d_min       0.707107" in out
    assert "h_star      0.353553" in out


def test_check_flat_pentagon_passes(polys, capsys):
    """An interior angle close to pi violates neither the aspect-ratio nor
    the edge-length bound; that family stays admissible."""
    rc, out, _ = run_cli(capsys, "check-polygon", "--polygon", polys["pentagon"])
    assert rc == 0
    assert out.count("PASS") == 2
    beta_max = float(out.split("beta_max")[1].split("\n")[0])
    assert beta_max > 3.13


def test_check_needle_fails_aspect_only(polys, capsys):
    rc, out, _ = run_cli(capsys, "check-polygon", "--polygon", polys["needle"])
    assert rc == 1
    assert "G1 (gamma <= 6): FAIL" in out
    assert "G2 (d_min >= 0.1): PASS" in out


def test_check_kite_fails_vertex_separation(polys, capsys):
    """G2 bounds the distance between any two vertices, not only the edge
    lengths: the kite's edges all exceed d_* while two opposite vertices
    nearly touch."""
    rc, out, _ = run_cli(capsys, "check-polygon", "--polygon", polys["kite"])
    assert rc == 1
    assert "G2 (d_min >= 0.1): FAIL" in out
    assert "d_min       0.001" in out


def test_check_thin_rectangle_gamma(tmp_path, capsys):
    """The 1 x 1e-7 rectangle has inradius 5e-8 at unit diameter, so gamma
    is 2e+07, not the 1e+07 of a radius read twice too large."""
    path = tmp_path / "thin.json"
    path.write_text(json.dumps({"vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1e-7], [0.0, 1e-7]]}))
    rc, out, _ = run_cli(capsys, "check-polygon", "--polygon", str(path))
    assert rc == 1
    assert "gamma       2e+07\n" in out


@pytest.mark.parametrize(("doc", "named"), [
    pytest.param('{"verts": [[0, 0], [1, 0], [0, 1]]}', '"vertices"', id="doc0"),
    pytest.param("[[0, 0], [1, 0], [0, 1]]", '"vertices"', id="doc1"),
    pytest.param('{"vertices": 3}', "at least 3 vertices", id="doc2"),
    pytest.param('{"vertices": [[0, 0], [1]]}', "vertices are not an array of numbers", id="doc3"),
    pytest.param('{"vertices": "abc"}', "vertices are not an array of numbers", id="doc4"),
    pytest.param('{"vertices": [[0, 0], [1, 0], [1e400, 1]]}', "vertices must be finite", id="doc5"),
])
def test_check_polygon_json_without_vertices_key(tmp_path, capsys, doc, named):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    rc, out, err = run_cli(capsys, "check-polygon", "--polygon", str(path))
    assert rc == 1
    assert out == ""
    assert err.startswith("error: PolygonError: ") and named in err
    assert "Traceback" not in err


def test_check_custom_thresholds(polys, capsys):
    rc, out, _ = run_cli(capsys, "check-polygon", "--polygon", polys["square"],
                         "--gamma-star", "2")
    assert rc == 1
    assert "G1 (gamma <= 2): FAIL" in out


# ------------------------------------------------------------- pentagon-study

def test_pentagon_study_default_table(capsys):
    rc, out, _ = run_cli(capsys, "pentagon-study")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "apex,kind,max_grad_norm"
    assert len(lines) == 5
    vals = {}
    for line in lines[1:]:
        apex, kind, g = line.split(",")
        vals[(apex, kind)] = float(g)
    # tall apex: both families comparable; flat apex: only Wachspress grows
    assert vals[("1.5", "wachspress")] / vals[("1.5", "mvc")] < 3.0
    assert vals[("1.05", "wachspress")] / vals[("1.05", "mvc")] > 5.0
    assert vals[("1.5", "mvc")] == pytest.approx(1.24592, rel=1e-4)
    assert vals[("1.05", "wachspress")] == pytest.approx(19.1809, rel=1e-4)


def test_pentagon_study_surface_dump(tmp_path, capsys):
    """The surface rows are byte for byte the f-string of each interior
    lattice point and the apex vertex's value and gradient there."""
    surf = tmp_path / "surface.csv"
    rc, _, _ = run_cli(capsys, "pentagon-study", "--apex", "1.5,1.01",
                       "--grid", "16", "--surface", str(surf))
    assert rc == 0
    want = ["apex,kind,x,y,lambda,grad_x,grad_y"]
    for a in (1.5, 1.01):
        p = apex_pentagon(a)
        x0, y0, x1, y1 = p.bbox
        gx, gy = np.meshgrid(np.linspace(x0, x1, 16), np.linspace(y0, y1, 16))
        lattice = np.column_stack([gx.ravel(), gy.ravel()])
        for kind in ("mvc", "wachspress"):
            ev = coords.evaluate(p, lattice, kind, gradients=True)
            ok = ev.status == coords.OK
            apex = ev.values[-1, ok], *ev.gradients[:, -1, ok]
            for (x, y), lam, dx, dy in zip(lattice[ok], *apex):
                want.append(f"{a:g},{kind},{x:.6g},{y:.6g},{lam:.6g},{dx:.6g},{dy:.6g}")
    assert surf.read_text() == "\n".join(want) + "\n"
    assert {line.split(",")[0] for line in want[1:]} == {"1.5", "1.01"}
    lam = [float(line.split(",")[4]) for line in want[1:]]
    assert min(lam) >= -1e-12
    assert max(lam) <= 1.0


def test_pentagon_study_validates_apex(capsys):
    for apex in ("0.9", "nan", "inf", "1.5,inf"):
        rc, out, err = run_cli(capsys, "pentagon-study", "--apex", apex)
        assert rc == 1
        assert out == ""
        assert err == "error: ValueError: apex height must be finite and exceed 1\n"


@pytest.mark.parametrize("command, least", [
    (["eval", "--polygon", "square"], 2),
    (["pentagon-study", "--apex", "1.5"], 8),
    (["pentagon-study", "--apex", "1.5", "--surface", "surface.csv"], 8),
], ids=["eval", "pentagon-study", "pentagon-study-surface"])
def test_grid_past_the_limit_is_an_error(command, least, polys, tmp_path, monkeypatch, capsys):
    """A grid one past MAX_GRID exits with code 1 and an error line, and
    no lattice or scan grid is built for it."""
    def refused(*args):
        raise AssertionError("a grid was built past the limit")

    monkeypatch.setattr(cli, "_bbox_lattice", refused)
    monkeypatch.setattr(coords, "_scan_grid", refused)
    monkeypatch.chdir(tmp_path)
    argv = [polys.get(arg, arg) for arg in command] + ["--grid", str(coords.MAX_GRID + 1)]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err == f"error: ValueError: --grid must lie in {least}..{coords.MAX_GRID}\n"
    assert not (tmp_path / "surface.csv").exists()


def test_grid_too_large_for_the_vertex_count_is_an_error(tmp_path, monkeypatch, capsys):
    """eval's memory grows with grid^2 * n, so a lattice of more than
    MAX_GRID_VALUES values on the polygon read is refused before it is
    built; on a regular 64-gon --grid 300 (5.76M values) still builds."""
    def refused(*args):
        raise AssertionError("a lattice was built")

    monkeypatch.setattr(cli, "_bbox_lattice", refused)
    a = 2.0 * np.pi * np.arange(64) / 64
    path = tmp_path / "64-gon.json"
    path.write_text(json.dumps({"vertices": np.column_stack([np.cos(a), np.sin(a)]).tolist()}))
    with pytest.raises(AssertionError, match="lattice was built"):
        run_cli(capsys, "eval", "--polygon", str(path), "--grid", "300")
    rc, out, err = run_cli(capsys, "eval", "--polygon", str(path), "--grid", "310")
    assert rc == 1
    assert out == ""
    assert err == ("error: ValueError: --grid 310 on 64 vertices needs 6150400 lattice values, "
                   f"more than the {cli.MAX_GRID_VALUES} allowed\n")
    assert cli.MAX_GRID_VALUES == 5_898_240


def test_pentagon_study_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        rc, _, _ = run_cli(capsys, "pentagon-study", "--apex", "1.25",
                           "--grid", "32", "--out", str(path))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------------- converge

def test_converge_csv(capsys):
    rc, out, _ = run_cli(capsys, "converge", "--levels", "2,4")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,h,l2_error,l2_rate,h1_error,h1_rate"
    assert len(lines) == 3
    assert lines[2].split(",")[3] == "2.03"


def test_converge_markdown(capsys):
    rc, out, _ = run_cli(capsys, "converge", "--levels", "2,4", "--format", "md")
    assert rc == 0
    assert out.startswith("| n | L2 error | rate | H1 error | rate |")


def test_converge_json_full_precision(capsys):
    rc, out, _ = run_cli(capsys, "converge", "--levels", "2,4", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["levels"][0]["l2_error"] == pytest.approx(3.528115534700e-03, rel=1e-9)
    assert doc["l2_rates"][0] == pytest.approx(2.026, abs=5e-3)


def test_converge_single_level_no_rates(capsys):
    rc, out, _ = run_cli(capsys, "converge", "--levels", "4", "--format", "json")
    assert rc == 0
    assert json.loads(out)["l2_rates"] == []


def test_converge_levels_must_increase(capsys):
    rc, out, err = run_cli(capsys, "converge", "--levels", "4,2")
    assert rc == 1
    assert out == ""
    assert err == "error: ValueError: levels must be strictly increasing\n"


@pytest.mark.parametrize("levels", ["8,4", "2,2", "0,2", "2,200"])
def test_converge_rejects_bad_levels(levels, capsys):
    rc, _, err = run_cli(capsys, "converge", "--levels", levels)
    assert rc == 1
    assert "levels" in err


# ----------------------------------------------------------------- properties

def test_properties_clean_run(capsys):
    rc, out, _ = run_cli(capsys, "properties", "--polygons", "2", "--samples", "150")
    assert rc == 0
    assert "total violations: 0" in out
    assert "seed=42" in out


def test_properties_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        rc, _, _ = run_cli(capsys, "properties", "--polygons", "2",
                           "--samples", "150", "--seed", "7", "--out", str(path))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_properties_validates_counts(capsys):
    rc, _, err = run_cli(capsys, "properties", "--polygons", "0")
    assert rc == 1
    assert "error" in err


# -------------------------------------------------------------- installed CLI

def test_console_script_runs(polys):
    # the child imports the same package as this suite, installed or not
    src = str(Path(mvcoords.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "mvcoords.cli", "eval",
         "--polygon", polys["square"], "--point", "0.5,0.5"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert ",ok,0.25," in result.stdout


IMPORT_PROBE = """
import json, sys
from mvcoords.cli import main

def loaded():
    watched = ("scipy", "scipy.sparse", "scipy.spatial", "scipy.optimize")
    return [m for m in watched if m in sys.modules]

seen = {"import": loaded()}
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    seen[argv[0]] = loaded()
print(json.dumps(seen))
"""


def test_only_converge_loads_scipy(polys, tmp_path):
    """Importing the CLI and running every command but ``converge`` loads
    no scipy module: the audit's polygon draw takes its hulls in-house.
    ``converge`` then loads scipy.sparse for its matrices, and neither
    scipy.spatial nor scipy.optimize."""
    out = str(tmp_path / "out.txt")
    runs = [
        ["pentagon-study", "--apex", "1.5", "--grid", "8", "--out", out],
        ["eval", "--polygon", polys["square"], "--point", "0.5,0.5", "--out", out],
        ["check-polygon", "--polygon", polys["square"], "--out", out],
        ["properties", "--polygons", "1", "--samples", "10", "--out", out],
        ["converge", "--levels", "1,2", "--out", out],
    ]
    src = str(Path(mvcoords.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(runs)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "import": [], "pentagon-study": [], "eval": [], "check-polygon": [],
        "properties": [], "converge": ["scipy", "scipy.sparse"],
    }


THREAD_PROBE = """
import json, os, sys
before = dict(os.environ)
from mvcoords.cli import main
assert main(json.loads(sys.argv[1])) == 0
print(json.dumps([len(os.listdir("/proc/self/task")), dict(os.environ) == before]))
"""
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _openblas_cores() -> int:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas or not os.path.isdir("/proc/self/task"):
        pytest.skip("counts OpenBLAS threads through /proc")
    return len(os.sched_getaffinity(0))


@pytest.mark.parametrize("var", [None, *BLAS_THREAD_VARS])
def test_blas_loads_one_thread_unless_the_caller_names_a_count(var, tmp_path):
    """Importing the package loads numpy's OpenBLAS with no worker thread
    and leaves the environment as it was; a thread count the caller sets
    in any variable OpenBLAS reads is kept."""
    cores = _openblas_cores()
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if var is not None:
        env[var] = "2"
    src = str(Path(mvcoords.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["pentagon-study", "--apex", "1.5", "--grid", "8", "--out", str(tmp_path / "out.csv")]
    result = subprocess.run([sys.executable, "-c", THREAD_PROBE, json.dumps(argv)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    threads = 1 if var is None else min(2, cores)
    assert json.loads(result.stdout) == [threads, True]
