"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written along a different route than the
package: element integrals come from a high-order barycentric quadrature
loop instead of closed forms, and the linear solve is plain dense
Gaussian elimination. Slow and simple on purpose.
relative_weak_divergence is a measure on the package's own divergence
rows, shared by the Stokes tests; fixed_point_checked measures the stop
rule of the stepping loop against sweeps continued well past it. The
*_reference kernels gather element values and accumulate with np.add.at,
or loop over boundary edges, the routes that the per-mesh sparse
operators and the np.bincount interface load of fem replaced.
reacting_pair_block and reacting_pair_step build and solve the transport
block along the sparse-sum route (the convection matrices of
convection_weights_reference, sums and sp.bmat) that the refilled
fixed-pattern block of fem.TransportSolver is checked against.
stokes_saddle_reference folds the full Taylor-Hood saddle with one
three-field prolongation and pins the no-slip dofs by elimination, the
route that fem.StokesOperator's block build replaced.  The *_coo
routes and dirichlet_by_masks, stokes_blocks_coo and
transport_block_coo build the package's matrices along the plain
coordinate-format route, with int64 indices, einsum kernels and mask
products, which the lean builds of fem must match bit for bit;
bordered_bmat and stokes_saddle_bmat build the bordered systems by
sp.bmat, the route of the one-pass fem.bordered and fem.stokes_saddle,
and stokes_direct_solve solves that saddle by scipy's default splu, the
direct route that the Schur route of periodic cells is checked against.
structured_square_reference, match_faces_reference,
merge_nodes_reference and tile_reference build meshes with the
per-node Python loops and dicts, and write_vtk_reference writes a VTK
file value by value, the routes that the array kernels of mesh and
output.write_vtk replaced. solve_spd,
mesh_quality_report, count_interior_loops and read_coefficients have no
caller in the package; they are the test-side conjugate-gradient route,
mesh statistics, hole count and coefficient-file reader.
"""

from dataclasses import replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from snpp import fem
from snpp.errors import MaxIterationsExceeded, SolverBreakdown
from snpp.mesh import GAMMA_INTERIOR, edge_table

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


def boundary_edges_reference(nodes, triangles):
    """Single-triangle edges in lexicographic order with their tags, as a
    list of ((a, b), tag).

    An edge is "OuterBoundary" when both endpoints lie on the sides of the
    unit square and "GammaInterior" otherwise.
    """
    edges, _, counts, _ = edge_table_reference(triangles)
    out = []
    for a, b in sorted(tuple(int(v) for v in e) for e in edges[counts == 1]):
        outer = all(
            min(abs(x), abs(x - 1.0)) < 1e-9
            or min(abs(y), abs(y - 1.0)) < 1e-9
            for x, y in (nodes[a], nodes[b]))
        out.append(((a, b), "OuterBoundary" if outer else "GammaInterior"))
    return out


def structured_square_reference(n):
    """Right-isoceles triangulation of the unit square, square by square."""
    xs = np.arange(n + 1) / n
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    nodes = np.column_stack([xs[ii.ravel()], xs[jj.ravel()]])

    def nid(i, j):
        return i * (n + 1) + j

    tris = []
    for i in range(n):
        for j in range(n):
            a, b = nid(i, j), nid(i + 1, j)
            c, d = nid(i + 1, j + 1), nid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    return nodes, np.array(tris, dtype=int)


def match_faces_reference(nodes, axis, low, high):
    """Node pairs on two opposite faces, matched through a dict keyed by
    the complementary coordinate rounded to 12 decimals."""
    other = 1 - axis
    lows, highs = {}, {}
    for idx, point in enumerate(nodes):
        if abs(point[axis] - low) < 1e-9:
            lows[round(point[other], 12)] = idx
        elif abs(point[axis] - high) < 1e-9:
            highs[round(point[other], 12)] = idx
    assert set(lows) == set(highs)
    return np.array([(lows[key], highs[key]) for key in sorted(lows)],
                    dtype=int).reshape(-1, 2)


def merge_nodes_reference(nodes, tris):
    """Merged nodes, remapped triangles and the remap, node by node through
    a dict keyed by the coordinates rounded to 12 decimals."""
    key_of = {}
    order = []
    remap = np.empty(len(nodes), dtype=int)
    for idx, (x, y) in enumerate(nodes):
        key = (round(x, 12), round(y, 12))
        if key in key_of:
            remap[idx] = key_of[key]
        else:
            key_of[key] = len(order)
            remap[idx] = len(order)
            order.append(idx)
    return nodes[np.array(order)], remap[tris], remap


def tile_reference(cell_mesh, eps):
    """Nodes, triangles and node_cell_origin of the cell mesh tiled over
    the unit square at scale eps, cell by cell."""
    n = round(1.0 / eps)
    nc = cell_mesh.num_nodes
    all_nodes, all_tris, origins = [], [], []
    for cy in range(n):
        for cx in range(n):
            all_nodes.append(
                (cell_mesh.nodes + np.array([float(cx), float(cy)])) * eps)
            all_tris.append(cell_mesh.triangles + (cy * n + cx) * nc)
            origins.append(np.arange(nc))
    merged, tris, remap = merge_nodes_reference(np.vstack(all_nodes),
                                                np.vstack(all_tris))
    origin = np.empty(len(merged), dtype=int)
    origin[remap] = np.concatenate(origins)
    return merged, tris, origin


def write_vtk_reference(path, mesh, state):
    """Legacy ASCII VTK file of one state, written line by line with one
    %.17g per value."""
    def fmt(value):
        return "%.17g" % float(value)

    with open(path, "w") as handle:
        handle.write("# vtk DataFile Version 3.0\n")
        handle.write("snpp fields t=%s\n" % fmt(state.t))
        handle.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        handle.write("POINTS %d double\n" % mesh.num_nodes)
        for x, y in mesh.nodes:
            handle.write("%s %s 0\n" % (fmt(x), fmt(y)))
        tris = mesh.triangles
        handle.write("CELLS %d %d\n" % (len(tris), 4 * len(tris)))
        for a, b, c in tris:
            handle.write("3 %d %d %d\n" % (a, b, c))
        handle.write("CELL_TYPES %d\n" % len(tris))
        for _ in range(len(tris)):
            handle.write("5\n")
        handle.write("POINT_DATA %d\n" % mesh.num_nodes)
        for name in ("c_plus", "c_minus", "phi", "pressure"):
            handle.write("SCALARS %s double 1\nLOOKUP_TABLE default\n"
                         % name)
            for value in np.asarray(getattr(state, name), dtype=float):
                handle.write("%s\n" % fmt(value))
        handle.write("CELL_DATA %d\n" % len(tris))
        handle.write("VECTORS velocity double\n")
        for vx, vy in np.asarray(state.velocity, dtype=float):
            handle.write("%s %s 0\n" % (fmt(vx), fmt(vy)))


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
    terms = abs(bx) @ np.abs(vel[:, 0]) + abs(by) @ np.abs(vel[:, 1])
    if len(mesh.periodic_pairs):
        fold, _ = fem.periodic_prolongation(mesh.num_nodes,
                                            mesh.periodic_pairs)
        terms = fold.T @ terms
    residual = fem.weak_divergence(mesh, vel)
    return float(np.max(np.abs(residual)) / np.max(terms))


def stokes_saddle_reference(mesh, bc, viscosity):
    """Folded, pinned Stokes saddle and its zero-mean constraint weight.

    The full saddle [[A, 0, -Bx^T], [0, A, -By^T], [-Bx, -By, 0]] over
    (ux, uy, p) is reduced to P^T S P by one prolongation P of all three
    fields, and the no-slip dofs of both components are eliminated with
    fem.apply_dirichlet.  bc states the walls explicitly ("periodic" and
    "no_slip_tags"), where the operator reads them off the mesh.
    """
    n2 = fem.p2_dof_count(mesh)
    n1 = mesh.num_nodes
    a = viscosity * fem.assemble_p2_stiffness(mesh)
    bx, by = fem.assemble_divergence(mesh)
    zero = sp.csr_matrix((n2, n2))
    saddle = sp.bmat([[a, zero, -bx.T], [zero, a, -by.T], [-bx, -by, None]],
                     format="csr")
    pairs = np.empty((0, 2), dtype=int)
    if bc.get("periodic", False):
        p2_pairs = fem._p2_periodic_pairs(mesh)
        pairs = np.vstack([p2_pairs, p2_pairs + n2,
                           mesh.periodic_pairs + 2 * n2])
    prolong, cols = fem.periodic_prolongation(2 * n2 + n1, pairs)
    no_slip = np.asarray(fem._p2_boundary_dofs(
        mesh, set(bc.get("no_slip_tags", ()))), dtype=int)
    fixed = np.unique(cols[np.concatenate([no_slip, no_slip + n2])])
    weight = np.zeros(2 * n2 + n1)
    weight[2 * n2:] = fem.assemble_mass(mesh) @ np.ones(n1)
    matrix = fem.apply_dirichlet((prolong.T @ saddle @ prolong).tocsr(),
                                 fixed)
    return matrix, prolong.T @ weight


def p1_element_gradients_reference(mesh, values):
    """Gradients (M, 2) of a P1 scalar from its values at each element's
    nodes."""
    _, grads = fem.triangle_data(mesh)
    v = np.asarray(values, dtype=float)[mesh.triangles]
    return np.einsum("mi,mid->md", v, grads)


def gradient_load_reference(mesh, field):
    """Load vector of the integral of field . grad(phi_i) for an
    elementwise field (M, 2)."""
    areas, grads = fem.triangle_data(mesh)
    out = np.zeros(mesh.num_nodes)
    contrib = np.einsum("md,mid->mi", field, grads) * areas[:, None]
    np.add.at(out, mesh.triangles.ravel(), contrib.ravel())
    return out


def p2_load_reference(mesh, forcing):
    """P2 load (p2_dofs, 2) of an elementwise forcing (M, 2): area/3 at
    each edge dof, nothing at the vertices."""
    areas, _ = fem.triangle_data(mesh)
    tri_edges = edge_table(mesh).tri_edges
    out = np.zeros((fem.p2_dof_count(mesh), 2))
    contrib = forcing * (areas / 3.0)[:, None]
    for k in range(3):
        np.add.at(out, mesh.num_nodes + tri_edges[:, k], contrib)
    return out


def p2_element_means_reference(mesh, values):
    """Mean (M, 2) of the three edge values of a P2 field on each
    element."""
    edge_values = np.asarray(values, dtype=float)[mesh.num_nodes:]
    return edge_values[edge_table(mesh).tri_edges].mean(axis=1)


def element_means_reference(mesh, values):
    """Mean (M,) or (M, k) of a nodal field over each element's nodes."""
    return np.asarray(values, dtype=float)[mesh.triangles].mean(axis=1)


def lumped_mass_reference(mesh):
    """A third of each element's area at each of its vertices, (N,)."""
    areas, _ = fem.triangle_data(mesh)
    diag = np.zeros(mesh.num_nodes)
    np.add.at(diag, mesh.triangles.ravel(), np.repeat(areas / 3.0, 3))
    return diag


def recover_nodal_gradient_reference(mesh, values):
    """Area-weighted average (N, 2) of the element gradients at the
    nodes."""
    areas, _ = fem.triangle_data(mesh)
    eg = p1_element_gradients_reference(mesh, values)
    out = np.zeros((mesh.num_nodes, 2))
    weight = np.zeros(mesh.num_nodes)
    t = mesh.triangles
    for i in range(3):
        np.add.at(out, t[:, i], eg * areas[:, None])
        np.add.at(weight, t[:, i], areas)
    return out / weight[:, None]


def interface_normal_load_reference(mesh, direction):
    """Load of -integral (e_direction . nu) phi_i ds over the inclusion
    boundary, edge by edge."""
    rhs = np.zeros(mesh.num_nodes)
    for (a, b), length, normal in zip(
            *fem.boundary_edge_geometry(mesh)):
        flux = -normal[direction] * length / 2.0
        rhs[a] += flux
        rhs[b] += flux
    return rhs


def convection_weights_reference(mesh, velocity, drift, tensor, sign):
    """Weights (M, 3) of w . grad(phi_i) |K| / 3 with w = velocity -
    sign * tensor grad(drift) (None for none)."""
    areas, grads = fem.triangle_data(mesh)
    w = np.zeros((mesh.num_triangles, 2))
    if velocity is not None:
        w = w + velocity
    if drift is not None:
        g = p1_element_gradients_reference(mesh, drift)
        if tensor is not None:
            g = g @ np.asarray(tensor, dtype=float).T
        w = w - sign * g
    return np.einsum("md,mid->mi", w, grads) * (areas / 3.0)[:, None]


def convection_reference(mesh, velocity, drift, tensor, sign):
    """The matrix of fem.assemble_convection, entry (i, j) of element K
    being weight i of convection_weights_reference."""
    weights = convection_weights_reference(mesh, velocity, drift, tensor,
                                           sign)
    t = mesh.triangles
    n = mesh.num_nodes
    return sp.coo_matrix(
        (np.repeat(weights, 3, axis=1).ravel(),
         (np.repeat(t, 3, axis=1).ravel(), np.tile(t, (1, 3)).ravel())),
        shape=(n, n)).tocsr()


def reacting_pair_block(mesh, stiffness, lumped, dt, velocity, drift,
                        tensor):
    """The block of fem.TransportSolver(mesh, stiffness, lumped, dt)
    refilled for (velocity, drift, tensor), from each species' convection
    matrix, sparse sums and sp.bmat."""
    mass = sp.diags(np.asarray(lumped, dtype=float))
    diagonal = [mass + dt * (stiffness - convection_reference(
        mesh, velocity, drift, tensor, sign)) + dt * mass
        for sign in (1.0, -1.0)]
    return sp.bmat([[diagonal[0], -dt * mass], [-dt * mass, diagonal[1]]],
                   format="csc")


def reacting_pair_step(mesh, stiffness, lumped, dt, velocity, drift, tensor,
                       c_plus, c_minus):
    """fem.step_reacting_pair by a fresh LU of reacting_pair_block."""
    lumped = np.asarray(lumped, dtype=float)
    block = reacting_pair_block(mesh, stiffness, lumped, dt, velocity, drift,
                                tensor)
    x = splu(block).solve(np.concatenate([lumped * c_plus,
                                          lumped * c_minus]))
    return x[:len(lumped)], x[len(lumped):]


def fixed_point_checked(run_steps, errors, tol=1e-14, max_sweeps=20):
    """run_steps that measures every accepted step against a reference.

    A step's accepted concentrations are checked when the first transport
    of the next step starts, or, for the last step, from the final
    snapshot once the run returns, whether or not the fields were
    updated after the step.  The check continues the sweeps of the step
    from the accepted concentrations, on a copy of the state, until the
    gap is at most tol times the scale.  errors receives max|accepted -
    reference| / scale for every step, with the scale of the stop test:
    the largest accepted concentration, at least 1.  The reference
    sweeps refill the transport operator for their own fields, so the
    run's transport after a check refills it again.
    """
    def wrapped(problem, update_fields, transport, lumped, **kwargs):
        start = {}

        def check(accepted_state):
            accepted = np.concatenate([accepted_state.c_plus,
                                       accepted_state.c_minus])
            scale = max(1.0, float(np.max(np.abs(accepted))))
            probe = replace(accepted_state)
            x = accepted
            for _ in range(max_sweeps):
                probe.c_plus, probe.c_minus = np.split(x, 2)
                update_fields(probe, fem.DEFAULT_TOL)
                y = np.concatenate(transport(probe, *start["c"], True))
                gap = float(np.max(np.abs(y - x)))
                x = y
                if gap <= tol * scale:
                    break
            else:
                raise AssertionError("reference sweeps did not settle")
            errors.append(float(np.max(np.abs(accepted - x))) / scale)

        def recording_transport(current, c_plus, c_minus, refill):
            if start and current.t > start["t"]:
                check(current)
                refill = True
            start["t"] = current.t
            start["c"] = (c_plus, c_minus)
            return transport(current, c_plus, c_minus, refill)

        states, diagnostics, counts = run_steps(
            problem, update_fields, recording_transport, lumped, **kwargs)
        check(states[-1])
        return states, diagnostics, counts

    return wrapped


def solve_spd(matrix, rhs, tol=fem.DEFAULT_TOL, max_iter=None,
              project_constant=False, mean_weight=None):
    """Jacobi-preconditioned conjugate gradients, the independent route
    the direct constrained solves of fem are checked against.

    project_constant removes the constant component from the residual at
    every step, which solves compatible singular Neumann systems; the
    returned iterate is then shifted to zero weighted mean when
    mean_weight is given.  Raises SolverBreakdown on indefinite input,
    residual stagnation, or a true residual b - A x (projected alike)
    above 10 tol |b| once the recursive one has converged, and
    MaxIterationsExceeded past the budget.
    """
    matrix = sp.csr_matrix(matrix)
    n = matrix.shape[0]
    if max_iter is None:
        max_iter = 10 * n + 200
    b = np.asarray(rhs, dtype=float).copy()
    diag = matrix.diagonal()
    if np.any(diag <= 0):
        raise SolverBreakdown("nonpositive diagonal entry: matrix is not "
                              "positive definite",
                              where="oracles.solve_spd")
    inv_diag = 1.0 / diag
    ones = np.ones(n) / np.sqrt(n)
    if project_constant:
        b -= (ones @ b) * ones
    bnorm = float(np.linalg.norm(b))
    x = np.zeros(n)
    if bnorm == 0.0:
        return x
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    best = float(np.linalg.norm(r))
    best_iter = 0
    for it in range(1, max_iter + 1):
        ap = matrix @ p
        if project_constant:
            ap -= (ones @ ap) * ones
        pap = float(p @ ap)
        if pap <= 0.0:
            raise SolverBreakdown("nonpositive curvature: matrix is not "
                                  "positive definite",
                                  where="oracles.solve_spd")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if project_constant:
            r -= (ones @ r) * ones
        res = float(np.linalg.norm(r))
        if res <= tol * bnorm:
            break
        if res < best * (1.0 - 1e-6):
            best, best_iter = res, it
        elif it - best_iter > 100:
            raise SolverBreakdown(
                "residual stagnated at relative %.2e after %d iterations"
                % (res / bnorm, it), where="oracles.solve_spd")
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        raise MaxIterationsExceeded(
            "conjugate gradients: %d iterations, relative residual %.2e"
            % (max_iter, float(np.linalg.norm(r)) / bnorm),
            where="oracles.solve_spd")
    # On an incompatible singular system the recursive residual can
    # converge while the iterate blows up: on the h=0.25 square the
    # stiffness against the lumped mass gives |x| ~ 1e16 and a true
    # residual 7.6e11 times the gate, while the compatible systems of the
    # tests read below tol |b|.
    true = b - matrix @ x
    if project_constant:
        true -= (ones @ true) * ones
    res = float(np.linalg.norm(true))
    if res > 10.0 * tol * bnorm:
        raise SolverBreakdown(
            "true relative residual %.2e misses the tolerance %.1e"
            % (res / bnorm, tol), where="oracles.solve_spd")
    if mean_weight is not None:
        w = np.asarray(mean_weight, dtype=float)
        x = x - (w @ x) / np.sum(w)
    return x


def mesh_quality_report(mesh):
    """Smallest angle in degrees and longest and shortest edge."""
    p = mesh.nodes[mesh.triangles]
    edges = [p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]]
    lengths = np.stack([np.hypot(e[:, 0], e[:, 1]) for e in edges], axis=1)
    angles = []
    for out_a, out_b in ((edges[2], edges[1]), (edges[0], edges[2]),
                         (edges[1], edges[0])):
        u, v = out_a, -out_b
        cross = np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
        dot = u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1]
        angles.append(np.degrees(np.arctan2(cross, dot)))
    return {"min_angle_deg": float(np.min(angles)),
            "h_max": float(np.max(lengths)),
            "h_min": float(np.min(lengths))}


def count_interior_loops(mesh):
    """Number of closed inclusion boundaries (holes)."""
    adjacency = {}
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        if tag == GAMMA_INTERIOR:
            adjacency.setdefault(int(a), []).append(int(b))
            adjacency.setdefault(int(b), []).append(int(a))
    seen = set()
    loops = 0
    for start in adjacency:
        if start in seen:
            continue
        loops += 1
        stack = [start]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adjacency[node])
    return loops


def read_coefficients(path):
    """Read a key=value coefficient file back into a plain dict."""
    out = {}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, text = line.partition("=")
            out[key] = float(text)
    return out


# ----------------------------------------------------------------------
# Coordinate-format routes of the fem builds.  Each is the route the
# package took before its builds dropped their temporaries: int64
# element-pair indices, einsum kernels, fold products with identity
# prolongations and Dirichlet pinning by diagonal mask products.  The
# package's matrices must equal these bit for bit.


def _coo_scatter(rows, cols, data, shape):
    return sp.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())),
                         shape=shape).tocsr()


def p1_stiffness_coo(mesh, coeff=None):
    """fem.assemble_stiffness along the coordinate-format route."""
    areas, grads = fem.triangle_data(mesh)
    coeff = np.eye(2) if coeff is None else np.asarray(coeff, dtype=float)
    if coeff.ndim == 0:
        coeff = float(coeff) * np.eye(2)
    t = mesh.triangles
    n = mesh.num_nodes
    local = np.einsum("mid,mjd->mij", grads @ coeff.T, grads) \
        * areas[:, None, None]
    return _coo_scatter(np.repeat(t, 3, axis=1), np.tile(t, (1, 3)),
                        local.reshape(len(t), 9), (n, n))


def p1_mass_coo(mesh):
    """fem.assemble_mass along the coordinate-format route."""
    areas, _ = fem.triangle_data(mesh)
    t = mesh.triangles
    n = mesh.num_nodes
    base = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    local = base[None, :, :] * areas[:, None, None]
    return _coo_scatter(np.repeat(t, 3, axis=1), np.tile(t, (1, 3)),
                        local.reshape(len(t), 9), (n, n))


def convection_coo(mesh, velocity, drift, tensor, sign):
    """fem.assemble_convection along the coordinate-format route, from
    the package's own element weights."""
    moved, drifted = fem._convection_weights(mesh, velocity, drift, tensor)
    t = mesh.triangles
    n = mesh.num_nodes
    return _coo_scatter(np.repeat(t, 3, axis=1), np.tile(t, (1, 3)),
                        np.repeat((moved - sign * drifted).T, 3, axis=1),
                        (n, n))


def _p2_dofs(mesh):
    return np.hstack([mesh.triangles,
                      mesh.num_nodes + edge_table(mesh).tri_edges])


def p2_stiffness_coo(mesh):
    """fem.assemble_p2_stiffness with an einsum kernel per point."""
    areas, grads = fem.triangle_data(mesh)
    m = mesh.num_triangles
    local = np.zeros((m, 6, 6))
    for lam, w in zip(fem._QP4, fem._QW4):
        g = fem._p2_basis_gradients(lam, grads)
        local += w * np.einsum("mid,mjd->mij", g, g)
    local *= areas[:, None, None]
    dofs = _p2_dofs(mesh)
    n2 = fem.p2_dof_count(mesh)
    return _coo_scatter(np.repeat(dofs, 6, axis=1), np.tile(dofs, (1, 6)),
                        local.reshape(m, 36), (n2, n2))


def divergence_coo(mesh):
    """fem.assemble_divergence with an einsum kernel per point."""
    areas, grads = fem.triangle_data(mesh)
    m = mesh.num_triangles
    local = np.zeros((m, 3, 6, 2))
    for lam, w in zip(fem._QP4, fem._QW4):
        g = fem._p2_basis_gradients(lam, grads)
        local += w * np.einsum("q,mjd->mqjd", lam, g)
    local *= areas[:, None, None, None]
    dofs = _p2_dofs(mesh)
    rows = np.repeat(mesh.triangles, 6, axis=1)
    cols = np.tile(dofs, (1, 3))
    shape = (mesh.num_nodes, fem.p2_dof_count(mesh))
    return tuple(_coo_scatter(rows, cols, local[:, :, :, d].reshape(m, 18),
                              shape) for d in (0, 1))


def dirichlet_by_masks(matrix, nodes):
    """fem.apply_dirichlet by products with a diagonal 0/1 mask."""
    keep = np.ones(matrix.shape[0])
    keep[nodes] = 0.0
    mask = sp.diags(keep)
    return (mask @ matrix @ mask + sp.diags(1.0 - keep)).tocsr()


def _stokes_folds(mesh):
    """The velocity and pressure prolongations of mesh (identities on a
    mesh without periodic pairs) and the folded no-slip dofs."""
    periodic = len(mesh.periodic_pairs) > 0
    fold, cols = fem.periodic_prolongation(
        fem.p2_dof_count(mesh),
        fem._p2_periodic_pairs(mesh) if periodic else ())
    pressure_fold, _ = fem.periodic_prolongation(
        mesh.num_nodes, mesh.periodic_pairs if periodic else ())
    fixed = np.unique(cols[fem._p2_boundary_dofs(
        mesh, {GAMMA_INTERIOR} if periodic else set(mesh.boundary_tags))])
    return fold, pressure_fold, fixed


def stokes_blocks_coo(mesh, viscosity):
    """The blocks a and b of fem.StokesOperator(mesh, viscosity), folded
    by prolongation products (identities on a mesh without periodic
    pairs) and pinned by dirichlet_by_masks and a column mask."""
    fold, pressure_fold, fixed = _stokes_folds(mesh)
    free = np.ones(fold.shape[1])
    free[fixed] = 0.0
    viscous = fold.T @ (viscosity * p2_stiffness_coo(mesh)) @ fold
    a = dirichlet_by_masks(viscous.tocsr(), fixed)
    b = (sp.hstack([pressure_fold.T @ -divergence @ fold
                    for divergence in divergence_coo(mesh)], format="csr")
         @ sp.diags(np.tile(free, 2))).sorted_indices()
    return a, b


def bordered_bmat(matrix, weight):
    """The CSC matrix [[matrix, w], [w^T, 0]] by sp.bmat over a column
    of w, summed as splu sums it: fem.bordered writes it in one pass."""
    col = sp.csr_matrix(np.reshape(weight, (-1, 1)))
    bordered = sp.bmat([[matrix, col], [col.T, None]], format="csc")
    bordered.sum_duplicates()
    return bordered


def stokes_saddle_bmat(a, b, pressure_weight):
    """The bordered saddle of fem.StokesOperator.saddle from its blocks,
    by sp.bmat over sp.block_diag((a, a)) and b, bordered by
    bordered_bmat with the weight (0, 0, pressure_weight)."""
    matrix = sp.bmat([[sp.block_diag((a, a)), b.T], [b, None]])
    return bordered_bmat(matrix, np.concatenate(
        [np.zeros(b.shape[1]), pressure_weight]))


def stokes_direct_solve(mesh, viscosity, forcing):
    """Velocity (p2_dofs, 2) and zero-mean pressure of the Stokes system
    of fem.StokesOperator(mesh, viscosity) for elementwise-constant
    forcing, by scipy's default splu of the saddle of stokes_saddle_bmat
    over the blocks of stokes_blocks_coo, bordered by the folded row sums
    of the consistent mass.  It is a direct route for periodic cells
    too, which the operator solves on its Schur route only."""
    fold, pressure_fold, fixed = _stokes_folds(mesh)
    a, b = stokes_blocks_coo(mesh, viscosity)
    weight = pressure_fold.T @ (fem.assemble_mass(mesh)
                                @ np.ones(mesh.num_nodes))
    load = fold.T @ p2_load_reference(mesh, forcing)
    load[fixed] = 0.0
    rhs = np.concatenate([load.T.ravel(), np.zeros(len(weight) + 1)])
    solution = splu(stokes_saddle_bmat(a, b, weight)).solve(rhs)
    u, p = np.split(solution[:-1], [2 * a.shape[0]])
    return fold @ u.reshape(2, -1).T, pressure_fold @ p


def transport_block_coo(mesh, stiffness, lumped, dt):
    """The pattern of fem.TransportSolver's block by np.unique over int64
    keys col 2n + row, with its convection scatter as a sparse matrix
    from the stacked element weights of c+ and c- to the block's entries.
    Returns the block at zero convection and refill(velocity, drift,
    tensor), which returns the block's values for that field."""
    lumped = np.asarray(lumped, dtype=float)
    n = mesh.num_nodes
    t = mesh.triangles
    k = sp.coo_matrix(stiffness)
    node = np.arange(n)
    element_rows = np.repeat(t, 3, axis=1).ravel()
    element_cols = np.tile(t, (1, 3)).ravel()
    rows = np.concatenate([element_rows, element_rows + n, k.row,
                           k.row + n, node, node + n, node, node + n])
    cols = np.concatenate([element_cols, element_cols + n, k.col,
                           k.col + n, node, node + n, node + n, node])
    keys, slot = np.unique(cols * (2 * n) + rows, return_inverse=True)
    fixed = 2 * len(element_rows)
    m = len(t)
    entry = np.arange(len(element_rows))
    weight = entry // 3 % 3 * m + entry // 9
    scatter = sp.csr_matrix(
        (np.ones(fixed), (slot[:fixed],
                          np.concatenate([weight, weight + 3 * m]))),
        shape=(len(keys), 6 * m))
    mass = np.bincount(slot[fixed + 2 * k.nnz:][:2 * n],
                       weights=np.tile(lumped, 2), minlength=len(keys))
    scaled = np.bincount(slot[fixed:], weights=np.concatenate(
        [k.data, k.data, np.tile(lumped, 2), np.tile(-lumped, 2)]),
        minlength=len(keys))
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(keys // (2 * n), minlength=2 * n))])
    block = sp.csc_matrix(
        (mass + dt * scaled, (keys % (2 * n)).astype(np.intc),
         indptr.astype(np.intc)), shape=(2 * n, 2 * n))

    def refill(velocity, drift, tensor):
        moved, drifted = fem._convection_weights(mesh, velocity, drift,
                                                 tensor)
        convection = scatter @ np.concatenate(
            [(moved - drifted).ravel(), (moved + drifted).ravel()])
        return mass + dt * (scaled - convection)

    return block, refill
