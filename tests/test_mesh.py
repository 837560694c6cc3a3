import gc
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import Voronoi, cKDTree

from wgstokes import mesh as mesh_module
from wgstokes.errors import ConfigurationError, MeshFormatError, MeshValidationError
from wgstokes.mesh import (
    _MERGE_TOL,
    FAMILIES,
    PolygonalMesh,
    _renumber,
    generate_mesh,
    load_mesh,
    refinement_ladder,
    save_mesh,
    shape_regularity,
)


class TestGenerators:
    def test_quad_2x2_counts(self):
        mesh = generate_mesh("uniform-quad", 2)
        assert mesh.num_cells == 4
        assert mesh.num_edges == 12
        assert mesh.num_vertices == 9
        assert mesh.diameters == pytest.approx(np.full(4, np.sqrt(2) / 2))

    def test_triangle_n1_counts(self):
        mesh = generate_mesh("uniform-triangle", 1)
        assert mesh.num_cells == 2
        assert mesh.num_edges == 5
        assert mesh.num_vertices == 4

    def test_hexagonal_interior_cells_are_hexagons(self):
        mesh = generate_mesh("hexagonal", 4)
        on_bdry = (
            (mesh.vertices[:, 0] == 0)
            | (mesh.vertices[:, 0] == 1)
            | (mesh.vertices[:, 1] == 0)
            | (mesh.vertices[:, 1] == 1)
        )
        interior = np.bincount(mesh.side_cell, on_bdry[mesh.side_vertices[:, 0]]) == 0
        assert interior.any(), "expected interior cells at n=4"
        assert set(np.bincount(mesh.side_cell)[interior]) == {6}
        assert mesh.areas.sum() == pytest.approx(1.0, abs=1e-12)

    def test_perturbed_polygon_census(self):
        mesh = generate_mesh("perturbed-polygon", 8, seed=3)
        assert mesh.areas.sum() == pytest.approx(1.0, abs=1e-12)
        sides = np.bincount(mesh.side_cell)
        # genuinely polygonal: most cells have >= 5 sides
        assert (sides >= 5).sum() > mesh.num_cells / 2

    def test_perturbed_polygon_is_seeded(self):
        a = generate_mesh("perturbed-polygon", 4, seed=11)
        b = generate_mesh("perturbed-polygon", 4, seed=11)
        c = generate_mesh("perturbed-polygon", 4, seed=12)
        assert np.array_equal(a.vertices, b.vertices)
        assert not np.array_equal(a.vertices, c.vertices)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_partitions_the_square(self, family):
        mesh = generate_mesh(family, 4)
        assert mesh.areas.sum() == pytest.approx(1.0, abs=1e-12)
        assert (mesh.areas > 0).all()

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_mesh("octagonal", 4)

    def test_bad_subdivision_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_mesh("uniform-quad", 0)

    def test_coincident_voronoi_vertices_are_merged(self, monkeypatch):
        # a 1e-9 jitter leaves near-co-circular generators: their Delaunay
        # triangles give 574 distinct circumcentres, merged into 510 vertices
        monkeypatch.setattr(mesh_module, "JITTER", 1e-9)
        mesh = generate_mesh("perturbed-polygon", 16, seed=3)
        assert mesh.num_vertices == 510
        v = mesh.vertices
        pairs = cKDTree(v).query_pairs(_MERGE_TOL, p=np.inf, output_type="ndarray")
        assert (np.abs(v[pairs[:, 0]] - v[pairs[:, 1]]).max(axis=1) >= _MERGE_TOL).all()
        assert mesh.areas.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16])
    @pytest.mark.parametrize(
        "family, seed",
        [
            ("perturbed-polygon", 0),
            ("perturbed-polygon", 1),
            ("perturbed-polygon", 7),
            ("hexagonal", 0),  # the triangular lattice takes no seed
        ],
    )
    def test_voronoi_cells_match_all_mirrors_oracle(self, family, n, seed, monkeypatch):
        mesh = generate_mesh(family, n, seed)
        monkeypatch.setattr(mesh_module, "_clipped_voronoi", all_mirrors_voronoi)
        oracle = generate_mesh(family, n, seed)
        assert (mesh.num_vertices, mesh.num_cells) == (oracle.num_vertices, oracle.num_cells)
        for c in range(mesh.num_cells):
            cycle, expected = mesh.cell_vertices(c), oracle.cell_vertices(c)
            assert len(cycle) == len(expected), f"cell {c}"
            start = np.argmin(np.abs(expected - cycle[0]).max(axis=1))
            np.testing.assert_allclose(np.roll(expected, -start, axis=0), cycle, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("band, cell", [(0.0, 0), (0.6, 2)])
    def test_too_narrow_a_mirror_band_names_the_cell(self, band, cell, monkeypatch):
        # Without mirrors, cell 0's generator is on the hull and its cell
        # unbounded.  Generator 2 lies 0.67 spacings above y = 0: a band of
        # 0.6 leaves it unmirrored, and its cell reaches below y = 0.
        monkeypatch.setattr(mesh_module, "MIRROR_BAND", band)
        with pytest.raises(MeshValidationError, match=f"^cell {cell} is not certified"):
            generate_mesh("perturbed-polygon", 4, seed=0)

    def test_voronoi_family_leaves_the_collector_idle(self):
        # qhull's Voronoi regions, one Python list per cell, used to set off 29
        # collections here, a full pass among them once sympy has filled the heap
        collections = []
        gc.collect()
        gc.callbacks.append(lambda phase, info: collections.append(info["generation"]))
        try:
            generate_mesh("perturbed-polygon", 32)
        finally:
            gc.callbacks.pop()
        assert collections == []

    def test_merge_keeps_the_first_vertex_of_each_cluster(self):
        # vertex 0 is unused; 2, 3, 4 form one chain-linked cluster on (1, 0)
        tol = _MERGE_TOL
        verts = np.array(
            [[5, 5], [0, 0], [1, 0], [1 + 0.6 * tol, 0], [1 + 1.2 * tol, 0], [1, 1], [0, 1]]
        )
        points, cells = _renumber(verts, np.array([1, 2, 3, 4, 5, 6]), np.array([6]))
        assert np.array_equal(points, verts[[1, 2, 5, 6]])
        assert [c.tolist() for c in cells] == [[0, 1, 2, 3]]


class TestInvariants:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [2, 5])
    def test_euler_relation(self, family, n):
        mesh = generate_mesh(family, n, seed=1)
        assert mesh.num_vertices - mesh.num_edges + mesh.num_cells == 1

    @pytest.mark.parametrize("family", FAMILIES)
    def test_interior_normals_are_opposite(self, family):
        mesh = generate_mesh(family, 3, seed=2)
        seen = {}
        for e, normal in zip(mesh.side_edge, mesh.side_normal):
            if e in seen:
                assert normal == pytest.approx(-seen[e], abs=1e-13)
            else:
                seen[e] = normal

    @pytest.mark.parametrize("family", FAMILIES)
    def test_side_table_and_edge_numbering(self, family, hostile_mesh):
        """Sides run cell-major in loop order; edges are numbered by first
        appearance there, which fixes the DOF layout and the LU fill."""
        for mesh in (generate_mesh(family, 3, seed=4), hostile_mesh):
            edges, edge_cells, side = {}, [], 0
            for ci in range(mesh.num_cells):
                loop, p = mesh.side_vertices[mesh.side_cell == ci, 0], mesh.cell_vertices(ci)
                t = np.roll(p, -1, axis=0) - p
                normals = np.column_stack([t[:, 1], -t[:, 0]]) / np.hypot(*t.T)[:, None]
                assert mesh.side_starts[ci] == side
                for a, b, normal in zip(loop, np.roll(loop, -1), normals):
                    key = (min(a, b), max(a, b))
                    if key not in edges:
                        edges[key] = len(edges)
                        edge_cells.append([-1, -1])
                    edge_cells[edges[key]][int(a > b)] = ci
                    assert mesh.side_cell[side] == ci
                    assert mesh.side_vertices[side].tolist() == [a, b]
                    assert mesh.side_edge[side] == edges[key]
                    assert np.array_equal(mesh.side_normal[side], normal)
                    side += 1
            assert mesh.edges.tolist() == [list(k) for k in edges]
            assert mesh.edge_cells.tolist() == edge_cells

    @pytest.mark.parametrize("family", FAMILIES)
    def test_refinement_halves_mesh_size(self, family):
        meshes = [generate_mesh(family, n, seed=5) for n in refinement_ladder(2, 4)]
        hs = [m.mesh_size for m in meshes]
        assert all(h2 < h1 for h1, h2 in zip(hs, hs[1:]))
        ratios = np.array(hs[1:]) / np.array(hs[:-1])
        assert ((ratios > 0.4) & (ratios < 0.6)).all()

    def test_refinement_ladder_cell_counts(self):
        meshes = [generate_mesh("uniform-quad", n) for n in refinement_ladder(4, 3)]
        assert [m.num_cells for m in meshes] == [16, 64, 256]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_mesh_holds_only_arrays_and_numbers(self, family):
        # no per-cell Python lists: every attribute is a table or a count
        mesh = generate_mesh(family, 4)
        for name, value in vars(mesh).items():
            assert isinstance(value, (np.ndarray, int, float)), name

    def test_boundary_edges_lie_on_square(self):
        mesh = generate_mesh("perturbed-polygon", 6, seed=9)
        for e in np.nonzero(mesh.boundary_edges)[0]:
            p, q = mesh.vertices[mesh.edges[e]]
            on_side = any(p[d] == q[d] and p[d] in (0.0, 1.0) for d in (0, 1))
            assert on_side, f"boundary edge {e} not on the square: {p}, {q}"


class TestValidation:
    def test_missing_vertex_reference(self):
        with pytest.raises(MeshValidationError, match="missing vertex"):
            PolygonalMesh(np.zeros((3, 2)), [[0, 1, 5]])

    def test_clockwise_cell_rejected(self):
        verts = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
        with pytest.raises(MeshValidationError, match="CCW"):
            PolygonalMesh(verts, [[0, 2, 1]])

    def test_edge_shared_by_three_cells(self):
        # two triangles stacked on the same (0,1) edge with consistent
        # orientation is impossible; the third (CCW) cell must traverse 0->1 again
        verts = np.array([[0, 0], [1, 0], [0.5, 1], [0.5, -1], [0.5, 2]], dtype=float)
        cells = [[0, 1, 2], [0, 3, 1], [0, 1, 4]]
        match = r"edge \(0, 1\) traversed twice .*\(cells 0 and 2\)"
        with pytest.raises(MeshValidationError, match=match):
            PolygonalMesh(verts, cells)

    @pytest.mark.parametrize(
        "vertices, cells, match",
        [
            (np.zeros((3, 3)), [[0, 1, 2]], r"vertices must be an \(nv, 2\) array"),
            ([(0, 0), (1, 0), (np.nan, 1)], [[0, 1, 2]], "non-finite vertex coordinates"),
            ([(0, 0), (1, 0), (0, 1)], [], "mesh has no cells"),
            ([(0, 0), (1, 0), (0, 1)], [[0, 1, 2], [0, 1]], "cell 1 has fewer than 3 vertices"),
            ([(0, 0), (1, 0), (0, 1)], [[0, 1, 1, 2]], "cell 0 repeats a vertex"),
            # two disjoint triangles: the Euler check
            ([(0, 0), (1, 0), (0, 1), (2, 0), (3, 0), (2, 1)], [[0, 1, 2], [3, 4, 5]], r"V-E\+F = 2"),
            # cells that are not flat sequences of indices
            ([(0, 0), (1, 0), (0, 1)], [[0, 1, [2]]], "cell 0 is not a flat sequence"),
            (np.zeros((9, 2)), [[0, 1, 2], [[3, 4, 5], [6, 7, 8], [0, 1, 2]]], "cell 1 is not a flat"),
            (np.zeros((9, 2)), [[[3, 4, 5], [6, 7, 8], [0, 1, 2]]], "cell 0 is not a flat sequence"),
            ([(0, 0), (1, 0), (0, 1)], [[0, 1, 2], 5], "cell 1 is not a flat sequence"),
        ],
    )
    def test_malformed_input_is_typed(self, vertices, cells, match):
        with pytest.raises(MeshValidationError, match=match):
            PolygonalMesh(vertices, cells)

    @pytest.mark.parametrize(
        "cells, bad",
        [
            ([[0, 1, 2.7]], 0),
            ([[0, 1.2, 2]], 0),
            ([["0", "1", "2"]], 0),
            ([[0, 1, 10**23]], 0),
            ([[0, 1, 2], [0, 2.0, 3]], 1),
        ],
        ids=["float", "float-inside", "strings", "past-int64", "second-cell-float"],
    )
    def test_non_integer_indices_name_the_cell(self, cells, bad):
        """Indices are not truncated, parsed from text or overflowed: the
        first cell whose entries are not integers is named."""
        vertices = [(0, 0), (1, 0), (0, 1), (1, 1)]
        with pytest.raises(MeshValidationError, match=f"^cell {bad} has non-integer vertex"):
            PolygonalMesh(vertices, cells)

    def test_degenerate_cell_rejected(self):
        verts = np.array([[0, 0], [1, 0], [2, 0]], dtype=float)
        with pytest.raises(MeshValidationError):
            PolygonalMesh(verts, [[0, 1, 2]])

    def test_self_intersecting_cell_rejected(self):
        # positive signed area, but sides (1,3)-(2,1) and (1,1)-(2,3) cross
        verts = [(0, 0), (3, 0), (3, 3), (1, 3), (2, 1), (1, 1), (2, 3), (0, 3)]
        with pytest.raises(MeshValidationError, match="cell 0 is self-intersecting"):
            PolygonalMesh(verts, [list(range(8))])

    def test_pinched_cell_rejected(self):
        # vertex 4 touches the opposite side (0,0)-(2,0) of its own loop
        verts = [(0, 0), (2, 0), (2, 2), (1.5, 2), (1, 0), (0.5, 2), (0, 2)]
        with pytest.raises(MeshValidationError, match="cell 0 is self-intersecting"):
            PolygonalMesh(verts, [list(range(7))])

    def test_collinear_and_hanging_vertices_accepted(self, hostile_mesh):
        assert hostile_mesh.num_cells == 2
        assert hostile_mesh.areas.sum() == pytest.approx(1.0, abs=1e-15)


class TestIO:
    def test_roundtrip_identical(self, tmp_path):
        mesh = generate_mesh("perturbed-polygon", 3, seed=7)
        path = tmp_path / "mesh.txt"
        save_mesh(mesh, path)
        again = load_mesh(path)
        assert np.array_equal(mesh.vertices, again.vertices)
        assert np.array_equal(mesh.side_starts, again.side_starts)
        assert np.array_equal(mesh.side_vertices, again.side_vertices)

    def test_saved_text_is_golden(self, tmp_path):
        path = tmp_path / "mesh.txt"
        save_mesh(generate_mesh("uniform-quad", 1), path)
        assert path.read_text() == (
            "wgmesh 2d v1\n"
            "vertices 4\n"
            "0.0 0.0\n"
            "1.0 0.0\n"
            "0.0 1.0\n"
            "1.0 1.0\n"
            "cells 1\n"
            "0 1 3 2\n"
        )

    def test_header_first_line(self, tmp_path):
        mesh = generate_mesh("uniform-quad", 2)
        path = tmp_path / "mesh.txt"
        save_mesh(mesh, path)
        assert path.read_text().splitlines()[0] == "wgmesh 2d v1"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("wgmesh 3d v7\n")
        with pytest.raises(MeshFormatError, match="line 1"):
            load_mesh(path)

    def test_bad_coordinate_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("wgmesh 2d v1\nvertices 2\n0 0\n0 oops\ncells 0\n")
        with pytest.raises(MeshFormatError, match="line 4"):
            load_mesh(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("wgmesh 2d v1\nvertices -3\n", 2),
            # a count larger than the file, checked before anything is allocated
            ("wgmesh 2d v1\nvertices 100000000000000\n0 0\n", 2),
            ("wgmesh 2d v1\nvertices 3\n0 0\n1 0\n0 1\ncells -1\n", 6),
            # content after the declared cell block
            ("wgmesh 2d v1\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n0 1 2\n\n0 1 2\ngarbage here\n", 9),
        ],
    )
    def test_negative_count_reports_line(self, tmp_path, text, line):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(MeshFormatError, match=f"line {line}"):
            load_mesh(path)

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"wgmesh 2d v1\nvertices x\n", 2),
            (b"wgmesh 2d v1\nvertices 3\n0 0 0\n1 0\n0 1\ncells 1\n0 1 2\n", 3),
            (b"wgmesh 2d v1\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n0 1.5 2\n", 7),
            # an index past any integer type
            (b"wgmesh 2d v1\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n0 1 99999999999999999999999\n", 7),
            (b"\xff\xfe\x00", 1),  # not UTF-8
        ],
    )
    def test_malformed_file_reports_line(self, tmp_path, data, line):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(MeshFormatError, match=f"^line {line}: "):
            load_mesh(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("wgmesh 2d v1\nvertices 3\n0 0\n")
        with pytest.raises(MeshFormatError):
            load_mesh(path)

    def test_cell_with_missing_vertex_is_validation_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("wgmesh 2d v1\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n0 1 9\n")
        with pytest.raises(MeshValidationError):
            load_mesh(path)


class TestShapeRegularity:
    def test_uniform_quad_all_equal(self):
        mesh = generate_mesh("uniform-quad", 3)
        rep = shape_regularity(mesh)
        # square of side s: diameter s*sqrt(2), inradius s/2
        assert rep.aspect == pytest.approx(np.full(9, 2 * np.sqrt(2)), rel=1e-9)
        assert rep.edge_ratio == pytest.approx(np.ones(9))
        assert len(rep.flagged) == 0

    def test_uniform_triangle_matches_closed_form(self):
        mesh = generate_mesh("uniform-triangle", 2)
        rep = shape_regularity(mesh)
        # right isoceles triangle, legs s: inradius s(2-sqrt(2))/2, diameter s*sqrt(2)
        expect = 2 * np.sqrt(2) / (2 - np.sqrt(2))
        assert rep.aspect == pytest.approx(np.full(8, expect), rel=1e-9)

    def test_perturbed_reported_finite(self):
        mesh = generate_mesh("perturbed-polygon", 6, seed=0)
        rep = shape_regularity(mesh)
        assert np.isfinite(rep.aspect).all()
        assert rep.max_aspect >= 2 * np.sqrt(2) - 1e-9  # the disc bound
        assert "max diameter/star radius" in rep.summary()

    def test_threshold_flags(self):
        mesh = generate_mesh("perturbed-polygon", 6, seed=0)
        rep = shape_regularity(mesh, threshold=rep_threshold(mesh))
        assert len(rep.flagged) >= 1

    @pytest.mark.parametrize("n", [4, 16])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_star_radius_matches_lp(self, family, n):
        mesh = generate_mesh(family, n, seed=0)
        rho = [lp_star_radius(mesh.cell_vertices(c)) for c in range(mesh.num_cells)]
        assert shape_regularity(mesh).aspect == pytest.approx(mesh.diameters / rho, rel=1e-12)

    def test_star_shaped_chevron_is_measured_exactly(self):
        # nonconvex, with its centroid (0.5, 0.6) outside the cell
        mesh = PolygonalMesh([(0, 0), (0.5, 0.8), (1, 0), (0.5, 1)], [[0, 1, 2, 3]])
        rho = lp_star_radius(mesh.vertices)
        assert rho == pytest.approx(0.0485100, abs=1e-7)
        aspect = shape_regularity(mesh).aspect
        assert aspect == pytest.approx([mesh.diameters[0] / rho], rel=1e-12)
        assert aspect[0] == pytest.approx(23.05, abs=0.005)

    def test_cell_that_is_not_star_shaped_is_rejected(self, hostile_mesh):
        # the U cell's kernel is empty
        with pytest.raises(MeshValidationError, match=r"cell 0\b"):
            shape_regularity(hostile_mesh)

    def test_lp_solver_is_not_imported_by_the_cli(self):
        # no command and no shape-regularity report needs scipy.optimize
        code = (
            "import sys, wgstokes.cli\n"
            "from wgstokes.cases import get_case\n"
            "from wgstokes.mesh import FAMILIES, generate_mesh, shape_regularity\n"
            "get_case('taylor-trig')\n"
            "for family in FAMILIES:\n"
            "    shape_regularity(generate_mesh(family, 4))\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.stdout.strip() == "False", out.stderr


def lp_star_radius(loop):
    """Star radius of a CCW vertex loop by linear programming: the largest r
    with a centre x such that n_i . x + r <= n_i . p_i for every side i."""
    t = np.roll(loop, -1, axis=0) - loop
    normal = np.column_stack([t[:, 1], -t[:, 0]]) / np.hypot(*t.T)[:, None]
    A = np.column_stack([normal, np.ones(len(loop))])
    b = (normal * loop).sum(axis=1)
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=A, b_ub=b, bounds=[(None, None)] * 3)
    assert res.success, res.message
    return res.x[2]


def all_mirrors_voronoi(pts):
    """Clipped Voronoi cells from qhull's Voronoi diagram of the generators
    and their mirror images across all four sides of the square."""
    n = len(pts)
    flip_x, flip_y = pts * [-1.0, 1.0], pts * [1.0, -1.0]
    mirrored = np.vstack([pts, flip_x, flip_x + [2.0, 0.0], flip_y, flip_y + [0.0, 2.0]])
    vor = Voronoi(mirrored)
    verts = vor.vertices.copy()
    for coord in (0.0, 1.0):
        verts[np.abs(verts - coord) < 1e-10] = coord
    regions = [vor.regions[r] for r in vor.point_region[:n]]
    sizes = np.array([len(r) for r in regions])
    loops = np.concatenate(regions)
    assert (loops >= 0).all(), "every original cell is bounded"
    owner = np.repeat(np.arange(n), sizes)
    ang = np.arctan2(verts[loops, 1] - pts[owner, 1], verts[loops, 0] - pts[owner, 0])
    return _renumber(verts, loops[np.lexsort((ang, owner))], sizes)


def rep_threshold(mesh):
    # pick a threshold strictly inside the observed range so some cell flags
    rep = shape_regularity(mesh)
    return float(np.quantile(rep.aspect, 0.9))
