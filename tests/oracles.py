"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written along a different route than the
package: element integrals come from a high-order barycentric quadrature
loop instead of closed forms, and the linear solve is plain dense Gaussian
elimination. Slow and simple on purpose.  relative_weak_divergence is a
measure on the package's own divergence rows, shared by the Stokes tests.
"""

import numpy as np

from snpp import fem

# Degree-5 symmetric triangle rule (7 points), barycentric coordinates and
# weights summing to 1.  Classic Radon rule, written in closed form so the
# rule is exact to machine precision.
_S15 = np.sqrt(15.0)
_B1 = (6.0 + _S15) / 21.0
_A1 = 1.0 - 2.0 * _B1
_B2 = (6.0 - _S15) / 21.0
_A2 = 1.0 - 2.0 * _B2
_W1 = (155.0 + _S15) / 1200.0
_W2 = (155.0 - _S15) / 1200.0
QUAD_BARY = np.array(
    [
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [_A1, _B1, _B1],
        [_B1, _A1, _B1],
        [_B1, _B1, _A1],
        [_A2, _B2, _B2],
        [_B2, _A2, _B2],
        [_B2, _B2, _A2],
    ]
)
QUAD_W = np.array([9.0 / 40.0, _W1, _W1, _W1, _W2, _W2, _W2])


def tri_area(coords):
    (x0, y0), (x1, y1), (x2, y2) = coords
    return 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))


def p1_basis_gradients(coords):
    """Constant gradients of the three linear nodal basis functions."""
    (x0, y0), (x1, y1), (x2, y2) = coords
    two_a = 2.0 * tri_area(coords)
    return np.array(
        [
            [y1 - y2, x2 - x1],
            [y2 - y0, x0 - x2],
            [y0 - y1, x1 - x0],
        ]
    ) / two_a


def dense_p1_stiffness(coords, coeff=None):
    """3x3 stiffness matrix of one triangle by numerical quadrature."""
    coords = np.asarray(coords, dtype=float)
    if coeff is None:
        coeff = np.eye(2)
    coeff = np.asarray(coeff, dtype=float)
    if coeff.ndim == 0:
        coeff = float(coeff) * np.eye(2)
    area = tri_area(coords)
    grads = p1_basis_gradients(coords)
    out = np.zeros((3, 3))
    for lam, w in zip(QUAD_BARY, QUAD_W):
        for i in range(3):
            for j in range(3):
                out[i, j] += w * area * grads[i] @ coeff @ grads[j]
    return out


def dense_p1_mass(coords):
    """3x3 consistent mass matrix of one triangle by quadrature."""
    coords = np.asarray(coords, dtype=float)
    area = tri_area(coords)
    out = np.zeros((3, 3))
    for lam, w in zip(QUAD_BARY, QUAD_W):
        for i in range(3):
            for j in range(3):
                out[i, j] += w * area * lam[i] * lam[j]
    return out


def dense_p1_convection(coords, velocity):
    """3x3 matrix B with (Bc)_i = integral of c * (velocity . grad phi_i).

    ``velocity`` is a callable point -> (2,) so oracle quadrature samples it
    exactly where it wants; c is expanded in the P1 basis (columns).
    """
    coords = np.asarray(coords, dtype=float)
    area = tri_area(coords)
    grads = p1_basis_gradients(coords)
    out = np.zeros((3, 3))
    for lam, w in zip(QUAD_BARY, QUAD_W):
        point = lam @ coords
        vel = np.asarray(velocity(point), dtype=float)
        for i in range(3):
            for j in range(3):
                out[i, j] += w * area * lam[j] * (vel @ grads[i])
    return out


def gauss_solve(matrix, rhs):
    """Dense Gaussian elimination with partial pivoting."""
    a = np.array(matrix, dtype=float)
    b = np.array(rhs, dtype=float)
    n = a.shape[0]
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[p, k]) < 1e-300:
            raise ZeroDivisionError("singular matrix in oracle solve")
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        for i in range(k + 1, n):
            f = a[i, k] / a[k, k]
            a[i, k:] -= f * a[k, k:]
            b[i] -= f * b[k]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - a[i, i + 1:] @ x[i + 1:]) / a[i, i]
    return x


def edge_table_reference(triangles):
    """Edges, triangle-to-edge map, use counts and first owners by dict.

    Edges are numbered on first appearance, triangle by triangle over the
    local edges (1, 2), (2, 0), (0, 1), smaller node id first.
    """
    index = {}
    counts = []
    owners = []
    tri_edges = np.empty((len(triangles), 3), dtype=int)
    for ti, tri in enumerate(triangles):
        for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
            key = (min(tri[i], tri[j]), max(tri[i], tri[j]))
            if key not in index:
                index[key] = len(index)
                counts.append(0)
                owners.append(ti)
            counts[index[key]] += 1
            tri_edges[ti, k] = index[key]
    edges = np.array(sorted(index, key=index.get), dtype=int).reshape(-1, 2)
    return edges, tri_edges, np.array(counts), np.array(owners)


def boundary_edges_reference(nodes, triangles, width=1.0, height=1.0):
    """Single-triangle edges in lexicographic order with their tags.

    An edge is "OuterBoundary" when both endpoints lie on the sides of the
    width x height rectangle and "GammaInterior" otherwise.
    """
    edges, _, counts, _ = edge_table_reference(triangles)
    out = []
    for a, b in sorted(tuple(int(v) for v in e) for e in edges[counts == 1]):
        outer = all(
            min(abs(x), abs(x - width)) < 1e-9
            or min(abs(y), abs(y - height)) < 1e-9
            for x, y in (nodes[a], nodes[b]))
        out.append(((a, b), "OuterBoundary" if outer else "GammaInterior"))
    return out


def _locate_reference(mesh, tree, point, tol):
    for k in (8, 40):
        _, candidates = tree.query(point, k=min(k, mesh.num_triangles))
        best, best_min = None, -np.inf
        for ti in np.atleast_1d(candidates):
            a, b, c = mesh.nodes[mesh.triangles[ti]]
            m = np.array([[b[0] - a[0], c[0] - a[0]],
                          [b[1] - a[1], c[1] - a[1]]])
            st = np.linalg.solve(m, point - a)
            lam = np.array([1.0 - st[0] - st[1], st[0], st[1]])
            if lam.min() > best_min:
                best, best_min = (int(ti), lam), lam.min()
            if lam.min() >= 0:
                return best
        if best_min >= tol:
            return best
    raise ValueError("point %s lies outside the mesh" % (point,))


def p1_interpolate_reference(mesh, values, points, tol=-1e-8):
    """Triangle ids and P1 values at points, located one point at a time.

    Each point takes the first of its 8 nearest centroids whose triangle
    contains it (all barycentric coordinates nonnegative); failing that,
    the candidate with the largest smallest coordinate if that is at
    least tol; failing that, the same over 40 candidates.  Raises
    ValueError for a point that no candidate accepts.
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(mesh.nodes[mesh.triangles].mean(axis=1))
    values = np.asarray(values, dtype=float)
    tris, out = [], []
    for point in np.atleast_2d(np.asarray(points, dtype=float)):
        ti, lam = _locate_reference(mesh, tree, point, tol)
        lam = np.clip(lam, 0.0, None)
        lam /= lam.sum()
        tris.append(ti)
        out.append(lam @ values[mesh.triangles[ti]])
    return np.array(tris), np.array(out)


def relative_weak_divergence(mesh, vel):
    """Largest entry of fem.weak_divergence over the largest sum of the
    sizes of the terms that make up one entry."""
    bx, by = fem.assemble_divergence(mesh)
    terms = (abs(bx) @ np.abs(vel.values[:, 0])
             + abs(by) @ np.abs(vel.values[:, 1]))
    if len(mesh.periodic_pairs):
        fold, _ = fem.periodic_prolongation(mesh.num_nodes,
                                            mesh.periodic_pairs)
        terms = fold.T @ terms
    residual = fem.weak_divergence(mesh, vel)
    return float(np.max(np.abs(residual)) / np.max(terms))
