import math

import numpy as np
import pytest

from snpp import fem, mesh
from snpp.errors import (
    InclusionTouchesBoundary,
    MeshGenerationFailure,
    ResolutionTooCoarse,
    ValidationError,
)

from oracles import (
    boundary_edges_reference,
    count_interior_loops,
    edge_table_reference,
    match_faces_reference,
    merge_nodes_reference,
    mesh_quality_report,
    structured_square_reference,
    tile_reference,
)


def disk_geometry(h, radius=0.25, center=(0.5, 0.5)):
    return mesh.UnitCellGeometry(mesh.DiskInclusion(center, radius), h)


def test_full_square_has_unit_porosity_and_no_interface():
    m = mesh.generate_unit_cell_mesh(mesh.UnitCellGeometry(None, 0.1))
    assert mesh.mesh_area(m) == pytest.approx(1.0, abs=1e-12)
    assert mesh.GAMMA_INTERIOR not in set(m.boundary_tags)


def test_structured_square_min_angle_is_45_degrees():
    m = mesh.generate_unit_cell_mesh(mesh.UnitCellGeometry(None, 0.1))
    report = mesh_quality_report(m)
    assert report["min_angle_deg"] == pytest.approx(45.0, abs=1e-9)
    assert report["h_max"] >= report["h_min"] > 0


def test_cell_coarser_than_three_target_sizes_is_rejected(monkeypatch):
    # The cell triangulations keep the longest edge below 1.8 target
    # sizes over radii 0.05 to 0.45 and sizes down to 0.004, so a
    # one-square triangulation stands in for one that misses the size.
    monkeypatch.setattr(mesh, "_build_cell",
                        lambda inclusion, h: mesh._structured_square(1))
    with pytest.raises(MeshGenerationFailure) as info:
        mesh.generate_unit_cell_mesh(mesh.UnitCellGeometry(None, 0.1))
    assert info.value.where == "mesh.generate_unit_cell_mesh"


def test_periodic_faces_with_different_traces_are_rejected(monkeypatch):
    # The x=1 face carries a node at y=0.5 that the x=0 face lacks.
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [1.0, 1.0],
                      [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 4]])
    monkeypatch.setattr(mesh, "_build_cell",
                        lambda inclusion, h: (nodes, tris))
    with pytest.raises(MeshGenerationFailure) as info:
        mesh.generate_unit_cell_mesh(mesh.UnitCellGeometry(None, 0.5))
    assert info.value.where == "mesh.generate_unit_cell_mesh"
    assert "traces" in str(info.value)


def test_disk_cell_porosity_close_to_analytic():
    m = mesh.generate_unit_cell_mesh(disk_geometry(0.05))
    assert mesh.mesh_area(m) == pytest.approx(1 - math.pi * 0.25 ** 2,
                                              abs=5e-3)


def test_disk_cell_porosity_converges_quadratically():
    exact = 1 - math.pi * 0.25 ** 2
    errors = [abs(mesh.mesh_area(mesh.generate_unit_cell_mesh(
        disk_geometry(h))) - exact) for h in (0.1, 0.05, 0.025)]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8


def test_large_disk_touches_boundary():
    with pytest.raises(InclusionTouchesBoundary):
        mesh.generate_unit_cell_mesh(disk_geometry(0.05, radius=0.55))


def test_mesh_size_must_resolve_interface():
    with pytest.raises(ValidationError):
        mesh.generate_unit_cell_mesh(disk_geometry(0.2, radius=0.25))


@pytest.mark.parametrize("eps", [0.3, 1.5, 1e-320])
def test_perforated_domain_scale_must_be_an_integer_reciprocal(eps):
    # 1/1e-320 overflows to inf, which has no nearest integer.
    with pytest.raises(ValidationError) as raised:
        mesh.PerforatedDomain(eps, disk_geometry(0.05)).validate()
    assert raised.value.field == "eps"
    mesh.PerforatedDomain(1 / 16, disk_geometry(0.05)).validate()


def test_all_four_faces_carry_periodic_pairs():
    m = mesh.generate_unit_cell_mesh(disk_geometry(0.05))
    deltas = m.nodes[m.periodic_pairs[:, 1]] - m.nodes[m.periodic_pairs[:, 0]]
    lattice = np.round(deltas)
    assert np.max(np.abs(deltas - lattice)) <= 1e-12
    directions = {tuple(v) for v in lattice}
    assert (1.0, 0.0) in directions and (0.0, 1.0) in directions


def test_periodic_canonical_map_is_idempotent():
    m = mesh.generate_unit_cell_mesh(disk_geometry(0.05))
    canon = fem.canonical_from_pairs(m.num_nodes, m.periodic_pairs)
    assert np.array_equal(canon[canon], canon)


@pytest.mark.parametrize("eps", [1.0, 0.5])
def test_edge_table_matches_dict_reference(eps):
    # eps=1 is the unit cell itself, with its periodic faces.
    if eps == 1.0:
        m = mesh.generate_unit_cell_mesh(disk_geometry(0.1))
    else:
        dom = mesh.PerforatedDomain(eps, disk_geometry(0.05))
        m = mesh.generate_perforated_mesh(dom, 0.0625)
    table = mesh.edge_table(m)
    edges, tri_edges, counts, owners = edge_table_reference(m.triangles)
    assert np.array_equal(table.edges, edges)
    assert np.array_equal(table.tri_edges, tri_edges)
    assert np.array_equal(table.counts, counts)
    assert np.array_equal(table.owner, owners)
    assert np.array_equal(table.lookup(edges[:, ::-1]), np.arange(len(edges)))
    assert [(tuple(pair), tag) for pair, tag in zip(
        m.boundary_edges.tolist(), m.boundary_tags.tolist())] == \
        boundary_edges_reference(m.nodes, m.triangles)
    assert set(m.boundary_tags) == {
        mesh.GAMMA_INTERIOR, mesh.OUTER_BOUNDARY}


def test_interface_edges_form_closed_curve():
    m = mesh.generate_unit_cell_mesh(disk_geometry(0.05))
    assert count_interior_loops(m) == 1
    degree = {}
    for (a, b), tag in zip(m.boundary_edges, m.boundary_tags):
        if tag == mesh.GAMMA_INTERIOR:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
    assert degree and all(d == 2 for d in degree.values())


def test_mesh_is_conforming():
    m = mesh.generate_unit_cell_mesh(disk_geometry(0.05))
    count = {}
    for tri in m.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            count[(min(a, b), max(a, b))] = count.get((min(a, b), max(a, b)), 0) + 1
    boundary = {k for k, c in count.items() if c == 1}
    interior = {k for k, c in count.items() if c == 2}
    assert len(boundary) + len(interior) == len(count)


def test_perforated_mesh_has_one_hole_per_cell():
    dom = mesh.PerforatedDomain(0.5, disk_geometry(0.05))
    m = mesh.generate_perforated_mesh(dom, 0.03125)
    assert count_interior_loops(m) == 4
    assert mesh.mesh_area(m) == pytest.approx(1 - math.pi * 0.25 ** 2,
                                              abs=5e-3)
    assert len(m.periodic_pairs) == 0


def test_perforated_hole_count_matches_cell_tiling():
    for k in (2, 3):
        dom = mesh.PerforatedDomain(1.0 / k, disk_geometry(0.05))
        m = mesh.generate_perforated_mesh(dom, 1.0 / (8 * k))
        assert count_interior_loops(m) == k * k


def test_perforated_single_full_cell():
    dom = mesh.PerforatedDomain(1.0, mesh.UnitCellGeometry(None, 0.1))
    m = mesh.generate_perforated_mesh(dom, 0.25)
    assert count_interior_loops(m) == 0
    assert mesh.mesh_area(m) == pytest.approx(1.0, abs=1e-12)


def test_perforated_resolution_guard():
    dom = mesh.PerforatedDomain(1.0 / 3, disk_geometry(0.05))
    with pytest.raises(ResolutionTooCoarse):
        mesh.generate_perforated_mesh(dom, 0.2)


def test_perforated_outer_and_interface_tags_are_disjoint():
    dom = mesh.PerforatedDomain(0.5, disk_geometry(0.05))
    m = mesh.generate_perforated_mesh(dom, 0.0625)
    for (a, b), tag in zip(m.boundary_edges, m.boundary_tags):
        xa, ya = m.nodes[a]
        xb, yb = m.nodes[b]
        on_outer = all(min(abs(v), abs(v - 1.0)) < 1e-9
                       for v in (xa, ya)) or min(abs(xa), abs(xa - 1), abs(ya), abs(ya - 1)) < 1e-9
        if tag == mesh.OUTER_BOUNDARY:
            assert min(abs(xa), abs(xa - 1), abs(ya), abs(ya - 1)) < 1e-9
            assert min(abs(xb), abs(xb - 1), abs(yb), abs(yb - 1)) < 1e-9


def test_tiled_mesh_triangles_never_straddle_cells():
    # Every corner of a triangle lies in the eps-cell of its centroid,
    # the cell verify.cell_average bins the triangle in.
    dom = mesh.PerforatedDomain(0.25, disk_geometry(0.05))
    m = mesh.generate_perforated_mesh(dom, 1.0 / 32)
    corners = m.nodes[m.triangles] / 0.25
    cell = np.floor(corners.mean(axis=1))[:, None, :]
    assert np.all(corners >= cell - 1e-12)
    assert np.all(corners <= cell + 1.0 + 1e-12)


def test_inverted_triangle_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 2, 1]])
    m = mesh.TriMesh(nodes, tris, np.array([[0, 1], [1, 2], [0, 2]]),
                     np.array(3 * [mesh.OUTER_BOUNDARY]),
                     np.empty((0, 2), dtype=int))
    with pytest.raises(ValidationError):
        m.validate()


def test_centered_disk_mesh_is_mirror_symmetric():
    m = mesh.generate_unit_cell_mesh(disk_geometry(0.05))
    keys = {(round(x, 12), round(y, 12)) for x, y in m.nodes}
    mirrored = {(round(1.0 - x, 12), round(y, 12)) for x, y in m.nodes}
    assert keys == mirrored


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_structured_square_matches_loop_reference(n):
    nodes, tris = mesh._structured_square(n)
    ref_nodes, ref_tris = structured_square_reference(n)
    assert np.array_equal(nodes, ref_nodes)
    assert np.array_equal(tris, ref_tris) and tris.dtype == ref_tris.dtype


@pytest.mark.parametrize("center", [(0.5, 0.5), (0.4, 0.55)],
                         ids=["centred", "off_centre"])
@pytest.mark.parametrize("cells", [2, 4, 8, 16])
def test_tiled_mesh_matches_loop_reference(monkeypatch, center, cells):
    # The array kernels (node merge, face matching, structured square and
    # tiling) against the per-node loops, at the pore-scale mesh size
    # eps/8 of the study.
    dom = mesh.PerforatedDomain(1.0 / cells, disk_geometry(0.05,
                                                           center=center))
    m = mesh.generate_perforated_mesh(dom, 1.0 / (8 * cells))
    nodes, tris, origin = tile_reference(m.cell_mesh, m.eps)
    assert np.array_equal(m.nodes, nodes)
    assert np.array_equal(m.triangles, tris)
    assert np.array_equal(m.node_cell_origin, origin)

    monkeypatch.setattr(mesh, "_merge_nodes", merge_nodes_reference)
    monkeypatch.setattr(mesh, "_match_faces", match_faces_reference)
    monkeypatch.setattr(mesh, "_structured_square",
                        structured_square_reference)
    ref = mesh.generate_perforated_mesh(dom, 1.0 / (8 * cells))
    for got, want in ((m.cell_mesh, ref.cell_mesh), (m, ref)):
        assert np.array_equal(got.nodes, want.nodes)
        assert np.array_equal(got.triangles, want.triangles)
        assert np.array_equal(got.periodic_pairs, want.periodic_pairs)
        assert np.array_equal(got.boundary_edges, want.boundary_edges)
        assert np.array_equal(got.boundary_tags, want.boundary_tags)
    assert np.array_equal(m.node_cell_origin, ref.node_cell_origin)
