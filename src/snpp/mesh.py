"""Triangulation of the periodic unit cell and of tiled perforated domains.

The unit cell is the unit square with an optional disk inclusion; only the
fluid part is meshed.  Perforated domains are produced by tiling one cell
triangulation, so every cell carries an identical copy of the hole and no
triangle straddles a cell boundary.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InclusionTouchesBoundary,
    MeshGenerationFailure,
    ResolutionTooCoarse,
    ValidationError,
)

log = logging.getLogger(__name__)

GAMMA_INTERIOR = "GammaInterior"
OUTER_BOUNDARY = "OuterBoundary"

# Grid points closer to the inclusion circle than this fraction of the grid
# spacing are removed before triangulating, so no sliver survives between
# the background grid and the circle sampling.
_CLEARANCE = 0.4


def is_integer_reciprocal(eps):
    """Whether eps = 1/k for an integer k >= 1, to 1e-12 relative.  A
    positive eps so small that 1/eps overflows to inf is not."""
    inverse = 1.0 / eps
    return (math.isfinite(inverse) and round(inverse) >= 1
            and abs(eps * round(inverse) - 1.0) <= 1e-12)


@dataclass(frozen=True)
class DiskInclusion:
    center: tuple
    radius: float


@dataclass(frozen=True)
class UnitCellGeometry:
    """Unit square cell with an optional disk inclusion.

    Parameters
    ----------
    inclusion : DiskInclusion or None
        Solid part of the cell; None leaves the full square as fluid.
    target_h : float
        Requested mesh size in cell units.
    """

    inclusion: object
    target_h: float

    def validate(self):
        if not (self.target_h > 0):
            raise ValidationError("target_h must be positive", field="target_h")
        if self.inclusion is not None:
            cx, cy = self.inclusion.center
            r = self.inclusion.radius
            if r <= 0:
                raise ValidationError("inclusion radius must be positive",
                                      field="inclusion.radius")
            if cx - r <= 0 or cx + r >= 1 or cy - r <= 0 or cy + r >= 1:
                raise InclusionTouchesBoundary(
                    "disk of radius %g centered at (%g, %g) reaches the cell "
                    "boundary" % (r, cx, cy),
                    where="mesh.generate_unit_cell_mesh")
            if not (self.target_h < r / 2):
                raise ValidationError(
                    "target_h=%g does not resolve the interface; need "
                    "target_h < radius/2 = %g" % (self.target_h, r / 2),
                    field="target_h")


@dataclass(frozen=True)
class PerforatedDomain:
    """Unit square covered by 1/eps x 1/eps scaled cells.

    Parameters
    ----------
    eps : float
        Cell scale, the reciprocal of an integer.
    cell : UnitCellGeometry
        Cell geometry replicated in every tile (its target_h is ignored;
        the perforated mesh gets its own resolution).
    """

    eps: float
    cell: UnitCellGeometry

    def validate(self):
        if not (0 < self.eps <= 1):
            raise ValidationError("eps must lie in (0, 1]", field="eps")
        if not is_integer_reciprocal(self.eps):
            raise ValidationError("eps must be the reciprocal of an integer",
                                  field="eps")
        if self.cell.inclusion is not None:
            # Reuse the strict geometric check; resolution is checked later.
            UnitCellGeometry(self.cell.inclusion, 1e-9).validate()


@dataclass
class TriMesh:
    """Conforming triangulation with boundary tags and periodic pairing.

    nodes : (N, 2) float array
    triangles : (M, 3) int array, counterclockwise
    boundary_edges : (B, 2) int array of the endpoints of the boundary
        edges
    boundary_tags : (B,) str array, the tag of each boundary edge
    periodic_pairs : (P, 2) int array of (master, slave) node ids
    eps, cell_mesh, node_cell_origin : set on tiled meshes only (None
        elsewhere): the cell scale, the unit-cell mesh that was tiled and
        each node's id in it.  Every triangle of a tiled mesh lies in the
        eps-cell that holds its centroid.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: np.ndarray
    periodic_pairs: np.ndarray
    eps: float = None
    cell_mesh: object = None
    node_cell_origin: np.ndarray = None
    _caches: dict = field(default_factory=dict, repr=False)

    def validate(self):
        areas = triangle_areas(self)
        if np.any(areas <= 0):
            raise ValidationError("mesh contains a non-positively oriented "
                                  "or degenerate triangle")
        table = edge_table(self)
        if np.any(table.counts > 2):
            raise ValidationError("mesh is not conforming: an edge is shared "
                                  "by more than two triangles")
        tagged = np.sort(self.boundary_edges, axis=1)
        if not np.array_equal(np.unique(tagged, axis=0),
                              table.edges[table.boundary()]):
            raise ValidationError("boundary edge tags do not cover the "
                                  "topological boundary exactly")
        gamma_degree = np.bincount(
            tagged_edges(self, {GAMMA_INTERIOR}).ravel())
        if np.any((gamma_degree != 0) & (gamma_degree != 2)):
            raise ValidationError("interior boundary edges do not form "
                                  "closed curves")
        if len(self.periodic_pairs):
            delta = (self.nodes[self.periodic_pairs[:, 1]]
                     - self.nodes[self.periodic_pairs[:, 0]])
            snapped = np.round(delta)
            if np.max(np.abs(delta - snapped)) > 1e-12:
                raise ValidationError("periodic pairs are not exact lattice "
                                      "translates")

    @property
    def num_nodes(self):
        return len(self.nodes)

    @property
    def num_triangles(self):
        return len(self.triangles)


class EdgeTable:
    """Unique edges of a triangulation.

    Edges are numbered in order of first appearance, triangle by triangle
    over the local edges (1, 2), (2, 0), (0, 1); the P2 edge dofs follow
    this numbering.

    edges : (E, 2) int array of endpoints, smaller node id first
    tri_edges : (M, 3) int array, edge id of each local edge
    counts : (E,) number of triangles sharing each edge
    owner : (E,) first triangle containing each edge
    """

    def __init__(self, triangles):
        tris = np.asarray(triangles, dtype=np.int64)
        pairs = np.sort(tris[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2), axis=1)
        self._base = int(tris.max()) + 1 if tris.size else 1
        keys, first, inverse, counts = np.unique(
            pairs[:, 0] * self._base + pairs[:, 1], return_index=True,
            return_inverse=True, return_counts=True)
        # np.unique numbers the edges by key; renumber them by first use.
        by_use = np.argsort(first)
        self._keys = keys
        self._ids = np.empty_like(by_use)
        self._ids[by_use] = np.arange(len(by_use))
        self.edges = pairs[first[by_use]]
        self.tri_edges = self._ids[inverse].reshape(-1, 3)
        self.counts = counts[by_use]
        self.owner = first[by_use] // 3

    def lookup(self, pairs):
        """Edge ids of (a, b) node pairs given in either orientation."""
        pairs = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
                        axis=1)
        keys = pairs[:, 0] * self._base + pairs[:, 1]
        pos = np.minimum(np.searchsorted(self._keys, keys),
                         len(self._keys) - 1)
        ids = self._ids[pos]
        if not np.array_equal(self.edges[ids], pairs):
            raise ValidationError("node pair is not an edge of the mesh")
        return ids

    def boundary(self):
        """Ids of the edges of a single triangle, sorted by endpoints."""
        return self._ids[self.counts[self._ids] == 1]


def edge_table(mesh):
    """The mesh's EdgeTable, built on first use."""
    table = mesh._caches.get("edges")
    if table is None:
        table = mesh._caches["edges"] = EdgeTable(mesh.triangles)
    return table


def triangle_areas(mesh):
    p = mesh.nodes
    t = mesh.triangles
    d1 = p[t[:, 1]] - p[t[:, 0]]
    d2 = p[t[:, 2]] - p[t[:, 0]]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def mesh_area(mesh):
    """Total fluid area covered by the triangulation."""
    return float(np.sum(triangle_areas(mesh)))


def tagged_edges(mesh, tags):
    """(B, 2) endpoints of the boundary edges whose tag is in tags, in the
    order of mesh.boundary_edges; np.unique of it gives their nodes."""
    return mesh.boundary_edges[np.isin(mesh.boundary_tags, list(tags))]


def _structured_square(n):
    """Exact right-isoceles triangulation of the unit square, n x n cells.

    Node (i, j) sits at (i/n, j/n) with id i (n + 1) + j; square (i, j)
    is split into (a, b, c) and (a, c, d) from its corners a = (i, j),
    b = (i+1, j), c = (i+1, j+1), d = (i, j+1), squares in row-major
    order.
    """
    xs = np.arange(n + 1) / n
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    nodes = np.column_stack([xs[ii.ravel()], xs[jj.ravel()]])
    a = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    b, c, d = a + n + 1, a + n + 2, a + 1
    tris = np.column_stack([a, b, c, a, c, d]).reshape(-1, 3)
    return nodes, tris


def _circle_point_count(radius, h):
    """Circle sampling count: multiple of 8 so octant seams get nodes."""
    return 8 * max(2, round(2.0 * math.pi * radius / (8.0 * h)))


def _snap(values, target, tol=1e-13):
    values = np.asarray(values, dtype=float).copy()
    values[np.abs(values - target) < tol] = target
    return values


def _triangulate_region(points, circle_ids):
    """Delaunay triangulation minus the triangles spanning the hole."""
    # Imported here: scipy.spatial takes 0.1 s or more to import, which
    # every command would pay, while only the disk cells need it.
    from scipy.spatial import Delaunay

    tri = Delaunay(points)
    simplices = tri.simplices
    in_circle = np.zeros(len(points), dtype=bool)
    in_circle[list(circle_ids)] = True
    keep = ~np.all(in_circle[simplices], axis=1)
    return simplices[keep]


def _orient_ccw(nodes, tris):
    d1 = nodes[tris[:, 1]] - nodes[tris[:, 0]]
    d2 = nodes[tris[:, 2]] - nodes[tris[:, 0]]
    flipped = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] < 0
    tris = tris.copy()
    tris[flipped] = tris[flipped][:, [0, 2, 1]]
    return tris


def _merge_nodes(nodes, tris):
    """Deduplicate coincident nodes (equal to 12 decimals) and remap the
    triangles; the merged nodes keep the order of first appearance.

    Returns the merged nodes, the remapped triangles and the new id of
    every input node.
    """
    _, first, inverse = np.unique(np.round(nodes, 12), axis=0,
                                  return_index=True, return_inverse=True)
    # np.unique numbers the nodes by coordinates; renumber them by first use.
    by_use = np.argsort(first)
    rank = np.empty_like(by_use)
    rank[by_use] = np.arange(len(by_use))
    remap = rank[inverse.ravel()]
    return nodes[first[by_use]], remap[tris], remap


def _centered_disk_cell(n, radius):
    """Dihedrally symmetric fluid mesh of the cell with a centered disk.

    One octant (x >= 1/2, 1/2 <= y <= x) is triangulated, then reflected
    across the diagonal y = x (a coordinate swap, exact in floats), then
    across both cell midlines (1 - t is exact for t in [1/2, 1]), so the
    mesh carries every symmetry of the geometry bitwise and the discrete
    effective tensors inherit exact isotropy.  n must be even.
    """
    h = 1.0 / n
    half = n // 2
    xs = 0.5 + np.arange(half + 1) / n
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    grid = grid[grid[:, 1] <= grid[:, 0]]
    dist = np.hypot(grid[:, 0] - 0.5, grid[:, 1] - 0.5)
    on_outer = grid[:, 0] == xs[-1]
    keep = on_outer | (dist >= radius + _CLEARANCE * h)
    grid = grid[keep]

    m = _circle_point_count(radius, h)
    theta = 2.0 * math.pi * np.arange(m // 8 + 1) / m
    cx = 0.5 + radius * np.cos(theta)
    cy = _snap(0.5 + radius * np.sin(theta), 0.5)
    # Put the 45-degree point exactly on the diagonal so the reflection
    # seam merges bitwise.
    cx[-1] = cy[-1] = 0.5 + radius * math.sqrt(0.5)
    circle = np.column_stack([cx, cy])

    points = np.vstack([grid, circle])
    circle_ids = range(len(grid), len(points))
    tris = _triangulate_region(points, circle_ids)
    tris = _orient_ccw(points, tris)

    def merge_mirror(nodes, tris, reflected):
        flipped = tris[:, [0, 2, 1]] + len(nodes)
        merged, tris, _ = _merge_nodes(np.vstack([nodes, reflected]),
                                       np.vstack([tris, flipped]))
        return merged, tris

    nodes, tris = merge_mirror(points, tris, points[:, ::-1])
    for axis in (1, 0):
        reflected = nodes.copy()
        reflected[:, axis] = 1.0 - reflected[:, axis]
        nodes, tris = merge_mirror(nodes, tris, reflected)
    return nodes, tris


def _offcenter_disk_cell(n, center, radius):
    """Fluid mesh for an arbitrary interior disk (no symmetry guarantee)."""
    h = 1.0 / n
    nodes, _ = _structured_square(n)
    dist = np.hypot(nodes[:, 0] - center[0], nodes[:, 1] - center[1])
    on_outer = ((nodes[:, 0] == 0.0) | (nodes[:, 0] == 1.0)
                | (nodes[:, 1] == 0.0) | (nodes[:, 1] == 1.0))
    keep = on_outer | (dist >= radius + _CLEARANCE * h)
    grid = nodes[keep]

    m = _circle_point_count(radius, h)
    theta = 2.0 * math.pi * np.arange(m) / m
    circle = np.column_stack([center[0] + radius * np.cos(theta),
                              center[1] + radius * np.sin(theta)])
    points = np.vstack([grid, circle])
    circle_ids = range(len(grid), len(points))
    tris = _triangulate_region(points, circle_ids)
    return points, _orient_ccw(points, tris)


def _cell_node_count(h):
    n = max(int(math.ceil(1.0 / h - 1e-12)), 2)
    if n % 2:
        n += 1
    return n


def _build_cell(inclusion, target_h):
    """Nodes and triangles of the fluid part of one unit cell.

    Shared by the public unit-cell constructor and the perforated-domain
    tiler; geometry and resolution guards live in the callers.
    """
    if inclusion is None:
        n = max(int(math.ceil(1.0 / target_h - 1e-12)), 1)
        return _structured_square(n)
    n = _cell_node_count(target_h)
    if inclusion.center == (0.5, 0.5):
        nodes, tris = _centered_disk_cell(n, inclusion.radius)
    else:
        nodes, tris = _offcenter_disk_cell(n, inclusion.center,
                                           inclusion.radius)
    return nodes, tris


def _find_boundary_edges(nodes, table):
    """Single-triangle edges in lexicographic order and their tags.

    An edge with both endpoints on the sides of the unit square is
    OuterBoundary, any other GammaInterior.
    """
    edges = table.edges[table.boundary()]
    x, y = nodes[:, 0], nodes[:, 1]
    on_outer = ((np.minimum(np.abs(x), np.abs(x - 1.0)) < 1e-9)
                | (np.minimum(np.abs(y), np.abs(y - 1.0)) < 1e-9))
    outer = on_outer[edges].all(axis=1)
    return edges, np.where(outer, OUTER_BOUNDARY, GAMMA_INTERIOR)


def _tagged_mesh(nodes, tris, periodic_pairs, **record):
    """Validated TriMesh with boundary tags and its edge table cached."""
    tris = np.asarray(tris, dtype=int)
    table = EdgeTable(tris)
    edges, tags = _find_boundary_edges(nodes, table)
    mesh = TriMesh(
        nodes=nodes,
        triangles=tris,
        boundary_edges=edges,
        boundary_tags=tags,
        periodic_pairs=np.asarray(periodic_pairs, dtype=int).reshape(-1, 2),
        **record)
    mesh._caches["edges"] = table
    mesh.validate()
    return mesh


def _match_faces(nodes, axis, low, high):
    """(K, 2) pairs of nodes on two opposite faces with the same
    complementary coordinate (to 12 decimals), in increasing order of it."""
    coord = nodes[:, axis]
    on_low = np.abs(coord - low) < 1e-9
    on_high = ~on_low & (np.abs(coord - high) < 1e-9)
    traces = []
    for on_face in (on_low, on_high):
        # Reversed, so that the last node of a repeated key is kept.
        ids = np.flatnonzero(on_face)[::-1]
        keys, last = np.unique(np.round(nodes[ids, 1 - axis], 12),
                               return_index=True)
        traces.append((keys, ids[last]))
    (low_keys, lows), (high_keys, highs) = traces
    if not np.array_equal(low_keys, high_keys):
        raise MeshGenerationFailure(
            "periodic faces carry different node traces",
            where="mesh.generate_unit_cell_mesh")
    return np.column_stack([lows, highs])


def _check_mesh_size(nodes, tris, target_h, where):
    p = nodes[tris]
    edges = np.concatenate([
        p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
    h_max = float(np.max(np.hypot(edges[:, 0], edges[:, 1])))
    if h_max > 3.0 * target_h:
        raise MeshGenerationFailure(
            "triangulation could not achieve mesh size %g (longest edge %g)"
            % (target_h, h_max), where=where)


def generate_unit_cell_mesh(geom):
    """Triangulate the fluid part of the unit cell.

    Returns a mesh with the inclusion boundary tagged GammaInterior, the
    four outer faces tagged OuterBoundary, and periodic node pairs in both
    coordinate directions.
    """
    geom.validate()
    nodes, tris = _build_cell(geom.inclusion, geom.target_h)
    _check_mesh_size(nodes, tris, geom.target_h,
                     where="mesh.generate_unit_cell_mesh")
    pairs = np.vstack([_match_faces(nodes, 0, 0.0, 1.0),
                       _match_faces(nodes, 1, 0.0, 1.0)])
    mesh = _tagged_mesh(nodes, tris, pairs)
    log.debug("unit cell mesh: %d nodes, %d triangles, area %.6f",
              mesh.num_nodes, mesh.num_triangles, mesh_area(mesh))
    return mesh


def generate_perforated_mesh(dom, target_h):
    """Mesh the perforated unit square by tiling one scaled cell mesh.

    Every cell carries an identical copy of the inclusion, duplicated face
    nodes are merged exactly, and the returned mesh remembers eps, the
    tiled cell mesh and each node's origin in it.
    """
    dom.validate()
    if target_h > dom.eps / 4 + 1e-12:
        raise ResolutionTooCoarse(
            "target_h=%g exceeds eps/4=%g" % (target_h, dom.eps / 4),
            where="mesh.generate_perforated_mesh")
    h_cell = target_h / dom.eps
    cell_nodes, cell_tris = _build_cell(dom.cell.inclusion, h_cell)
    cell_pairs = np.vstack([_match_faces(cell_nodes, 0, 0.0, 1.0),
                            _match_faces(cell_nodes, 1, 0.0, 1.0)])
    cell_mesh = _tagged_mesh(cell_nodes, cell_tris, cell_pairs)

    eps = dom.eps
    n = round(1.0 / eps)
    nc = len(cell_nodes)
    # Tile k = cy n + cx is the cell shifted by (cx, cy).
    cy, cx = np.divmod(np.arange(n * n), n)
    shifts = np.column_stack([cx, cy]).astype(float)
    stacked = ((cell_nodes + shifts[:, None]) * eps).reshape(-1, 2)
    tiled = (cell_tris + nc * np.arange(n * n)[:, None, None]).reshape(-1, 3)
    merged, tris, remap = _merge_nodes(stacked, tiled)
    node_origin = np.empty(len(merged), dtype=int)
    node_origin[remap] = np.tile(np.arange(nc), n * n)

    mesh = _tagged_mesh(
        merged, tris, (), eps=eps, cell_mesh=cell_mesh,
        node_cell_origin=node_origin)
    log.debug("perforated mesh eps=%g: %d nodes, %d triangles",
              eps, mesh.num_nodes, mesh.num_triangles)
    return mesh
