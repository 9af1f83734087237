"""Finite-element core: P1/Taylor-Hood assembly, constraints, solvers.

Scalars (potential, pressure, concentrations) use P1 elements; velocity
uses P2 on the same triangulation (Taylor-Hood pair).  Assembly is
vectorized over elements and accumulated via coordinate-format scatter.
The coupled transport block of both species is solved by a
TransportSolver, which keeps one LU per run and reuses it as the
preconditioner of at most two short GMRES cycles, refactoring only when
they miss the TRANSPORT_TOL residual.
"""

import logging

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .errors import (
    DegenerateElement,
    FieldMeshMismatch,
    InconsistentConstraint,
    MaxIterationsExceeded,
    NoSolidPhase,
    PointOutsideFluidPart,
    SolverBreakdown,
)
from .mesh import GAMMA_INTERIOR, edge_table

log = logging.getLogger(__name__)

DIRECT_DOF_LIMIT = 50000
DEFAULT_TOL = 1e-10
TRANSPORT_TOL = 1e-12
TRANSPORT_KRYLOV_ITERS = 20
SCHUR_MAX_ITER = 500
# kappa in theta = kappa * fine / darcy of StokesOperator._prepare_schur.
# Schur-CG iterations to a relative residual of 1e-10 are flat for
# kappa in [0.5, 1] (35-42 on the eps=1/16 micro forcing and on random
# forcings at eps 1/16, 1/8, 1/4 with h=1/128) and grow on either side
# (40-69 at 0.1 and at 3).  The periodic cell favours smaller kappa
# (37, 44 and 30 at 0.5, 1 and 0.1 for h=1/32), so 0.5 is the choice.
SCHUR_LAPLACE_WEIGHT = 0.5

# Degree-4 triangle quadrature (6 points); barycentric rows, weights sum 1.
_QP4 = np.array([
    [0.108103018168070, 0.445948490915965, 0.445948490915965],
    [0.445948490915965, 0.108103018168070, 0.445948490915965],
    [0.445948490915965, 0.445948490915965, 0.108103018168070],
    [0.816847572980459, 0.091576213509771, 0.091576213509771],
    [0.091576213509771, 0.816847572980459, 0.091576213509771],
    [0.091576213509771, 0.091576213509771, 0.816847572980459],
])
_QW4 = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)

_EDGE_LOCAL = ((1, 2), (2, 0), (0, 1))


class Field:
    """Discrete field: value array tied to a mesh and an element space.

    space is one of "p1" (nodal scalars, or (N, 2) nodal vectors) and
    "p2v" (vector velocity; values shaped (ndof_p2, 2)).
    """

    def __init__(self, mesh, space, values):
        self.mesh = mesh
        self.space = space
        self.values = np.asarray(values, dtype=float)
        expected = {"p1": mesh.num_nodes,
                    "p2v": p2_dof_count(mesh)}[space]
        if self.values.shape[0] != expected:
            raise FieldMeshMismatch(
                "field has %d rows, space %s on this mesh needs %d"
                % (self.values.shape[0], space, expected))


def _p1_data(mesh):
    cached = mesh._caches.get("p1")
    if cached is not None:
        return cached
    p = mesh.nodes
    t = mesh.triangles
    x = p[t, 0]
    y = p[t, 1]
    two_a = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
             - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    areas = 0.5 * two_a
    if np.any(areas < 1e-14):
        raise DegenerateElement(
            "triangle area below 1e-14 (min %g)" % float(np.min(areas)),
            where="fem.assembly")
    grads = np.empty((len(t), 3, 2))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        grads[:, i, 0] = (y[:, j] - y[:, k]) / two_a
        grads[:, i, 1] = (x[:, k] - x[:, j]) / two_a
    mesh._caches["p1"] = (areas, grads)
    return areas, grads


def triangle_data(mesh):
    """Areas (M,) and P1 basis gradients (M, 3, 2)."""
    return _p1_data(mesh)


def _scatter(rows, cols, data, shape):
    return sp.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())),
                         shape=shape).tocsr()


def assemble_stiffness(mesh, coeff=None):
    """Stiffness matrix of the bilinear form grad u . C grad v.

    coeff may be a scalar or a symmetric 2x2 tensor; None means identity.
    """
    areas, grads = _p1_data(mesh)
    if coeff is None:
        coeff = np.eye(2)
    coeff = np.asarray(coeff, dtype=float)
    if coeff.ndim == 0:
        coeff = float(coeff) * np.eye(2)
    t = mesh.triangles
    n = mesh.num_nodes
    cg = grads @ coeff.T  # (M, 3, 2)
    local = np.einsum("mid,mjd->mij", cg, grads) * areas[:, None, None]
    rows = np.repeat(t, 3, axis=1)
    cols = np.tile(t, (1, 3))
    return _scatter(rows, cols, local.reshape(len(t), 9), (n, n))


def assemble_mass(mesh, lumped=False):
    """Consistent P1 mass matrix, or its row-sum lumped diagonal."""
    areas, _ = _p1_data(mesh)
    t = mesh.triangles
    n = mesh.num_nodes
    if lumped:
        diag = np.zeros(n)
        np.add.at(diag, t.ravel(), np.repeat(areas / 3.0, 3))
        return sp.diags(diag).tocsr()
    base = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    local = base[None, :, :] * areas[:, None, None]
    rows = np.repeat(t, 3, axis=1)
    cols = np.tile(t, (1, 3))
    return _scatter(rows, cols, local.reshape(len(t), 9), (n, n))


def element_means(mesh, values):
    """Elementwise mean of a nodal scalar/vector or a P2 velocity field."""
    if isinstance(values, Field):
        if values.mesh is not mesh:
            raise FieldMeshMismatch("field lives on a different mesh")
        if values.space == "p2v":
            _, tri_edges, _ = _p2_data(mesh)
            edge_vals = values.values[mesh.num_nodes:]
            return edge_vals[tri_edges].mean(axis=1)
        values = values.values
    values = np.asarray(values, dtype=float)
    return values[mesh.triangles].mean(axis=1)


def p1_element_gradients(mesh, values):
    """Piecewise-constant gradient of a P1 scalar, shape (M, 2)."""
    _, grads = _p1_data(mesh)
    v = np.asarray(values, dtype=float)[mesh.triangles]
    return np.einsum("mi,mid->md", v, grads)


def recover_nodal_gradient(mesh, values):
    """Area-weighted average of element gradients at the nodes, (N, 2)."""
    areas, _ = _p1_data(mesh)
    eg = p1_element_gradients(mesh, values)
    out = np.zeros((mesh.num_nodes, 2))
    weight = np.zeros(mesh.num_nodes)
    t = mesh.triangles
    for i in range(3):
        np.add.at(out, t[:, i], eg * areas[:, None])
        np.add.at(weight, t[:, i], areas)
    return out / weight[:, None]


def assemble_convection(mesh, velocity=None, drift=None, drift_tensor=None,
                        drift_sign=1.0):
    """Matrix B with (B c)_i = integral of c * w . grad(phi_i).

    The transporting field is w = velocity - drift_sign * T grad(drift)
    with T = drift_tensor (identity when None).  velocity may be an
    elementwise (M, 2) array, a nodal (N, 2) array, or a P2 velocity
    Field; drift is a nodal scalar.  Columns sum to zero (partition of
    unity), which is what conserves total content under no-flux stepping.
    """
    areas, grads = _p1_data(mesh)
    m = mesh.num_triangles
    n = mesh.num_nodes
    w = np.zeros((m, 2))
    if velocity is not None:
        if isinstance(velocity, Field) or np.asarray(velocity).shape[0] == n:
            w = w + element_means(mesh, velocity)
        else:
            vel = np.asarray(velocity, dtype=float)
            if vel.shape != (m, 2):
                raise FieldMeshMismatch(
                    "velocity shape %s matches neither nodes nor elements"
                    % (vel.shape,))
            w = w + vel
    if drift is not None:
        if isinstance(drift, Field):
            if drift.mesh is not mesh:
                raise FieldMeshMismatch("drift field lives on another mesh")
            drift = drift.values
        g = p1_element_gradients(mesh, drift)
        if drift_tensor is not None:
            tensor = np.asarray(drift_tensor, dtype=float)
            if tensor.ndim == 0:
                g = float(tensor) * g
            else:
                g = g @ tensor.T
        w = w - drift_sign * g
    wg = np.einsum("md,mid->mi", w, grads) * (areas / 3.0)[:, None]
    t = mesh.triangles
    rows = np.repeat(t, 3, axis=1)
    cols = np.tile(t, (1, 3))
    data = np.repeat(wg, 3, axis=1)
    return _scatter(rows, cols, data, (n, n))


def _tagged_pairs(mesh, tags):
    """(B, 2) endpoints of the boundary edges whose tag is in tags."""
    return np.array([pair for pair, tag in mesh.boundary_edges
                     if tag in tags], dtype=int).reshape(-1, 2)


def boundary_edge_geometry(mesh, tag):
    """Per tagged edge: endpoints, length, unit normal outward of the fluid."""
    pairs = _tagged_pairs(mesh, {tag})
    table = edge_table(mesh)
    tris = mesh.triangles[table.owner[table.lookup(pairs)]]
    a, b = pairs[:, 0], pairs[:, 1]
    pa, pb = mesh.nodes[a], mesh.nodes[b]
    pc = mesh.nodes[tris.sum(axis=1) - a - b]
    edge = pb - pa
    length = np.hypot(edge[:, 0], edge[:, 1])
    normal = np.column_stack([edge[:, 1], -edge[:, 0]]) / length[:, None]
    toward_third = np.einsum("ed,ed->e", normal, pc - 0.5 * (pa + pb)) > 0
    normal[toward_third] = -normal[toward_third]
    return list(zip(a.tolist(), b.tolist(), length.tolist(), normal))


def boundary_measure(mesh, tag):
    return sum(length for _, _, length, _ in boundary_edge_geometry(mesh, tag))


def assemble_boundary_load(mesh, tag, value):
    """Load vector of the surface term value * integral phi_i ds."""
    rhs = np.zeros(mesh.num_nodes)
    for a, b, length, _ in boundary_edge_geometry(mesh, tag):
        rhs[a] += value * length / 2.0
        rhs[b] += value * length / 2.0
    return rhs


def assemble_interface_normal_load(mesh, direction):
    """Load vector -integral (e_j . nu) phi_i ds over the inclusion boundary.

    nu is the unit normal pointing out of the fluid; this is the natural
    boundary datum of the periodic corrector problems, and it sums to zero
    over each closed interface (discretely, to rounding).
    """
    rhs = np.zeros(mesh.num_nodes)
    for a, b, length, normal in boundary_edge_geometry(mesh, GAMMA_INTERIOR):
        flux = -normal[direction] * length / 2.0
        rhs[a] += flux
        rhs[b] += flux
    return rhs


# ----------------------------------------------------------------------
# constraints


def canonical_from_pairs(n, pairs):
    """Smallest dof of each class of identified dofs, for each of n dofs.

    The classes are the connected components of the graph whose edges are
    the (a, b) pairs; applying the map twice gives the map.
    """
    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    graph = sp.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                          shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    _, smallest = np.unique(labels, return_index=True)
    return smallest[labels]


def periodic_prolongation(n, pairs):
    """Sparse P mapping reduced (master) dofs to the full dof vector.

    Returns (P, cols) with cols[i] the reduced index of dof i; masters are
    numbered in increasing order.
    """
    _, cols = np.unique(canonical_from_pairs(n, pairs), return_inverse=True)
    p = sp.coo_matrix((np.ones(n), (np.arange(n), cols)),
                      shape=(n, cols.max() + 1)).tocsr()
    return p, cols


def apply_dirichlet(matrix, rhs, nodes, values):
    """Symmetric elimination of prescribed dofs."""
    nodes = np.asarray(nodes, dtype=int)
    values = np.broadcast_to(np.asarray(values, dtype=float), nodes.shape)
    n = matrix.shape[0]
    keep = np.ones(n, dtype=bool)
    keep[nodes] = False
    full_values = np.zeros(n)
    full_values[nodes] = values
    rhs = rhs - matrix @ full_values
    rhs[nodes] = values
    mask = sp.diags(keep.astype(float))
    pin = sp.diags((~keep).astype(float))
    matrix = (mask @ matrix @ mask + pin).tocsr()
    return matrix, rhs


def apply_zero_mean(matrix, rhs, mass):
    """Append one Lagrange multiplier row/column enforcing zero mean.

    mass may be the P1 mass matrix or a precomputed weight vector; the
    constraint is weight . u = 0.  The augmented system is symmetric
    indefinite; solve it with the direct solver.
    """
    if sp.issparse(mass):
        weight = np.asarray(mass @ np.ones(mass.shape[0])).ravel()
    else:
        weight = np.asarray(mass, dtype=float)
    n = matrix.shape[0]
    col = sp.csr_matrix(weight.reshape(n, 1))
    aug = sp.bmat([[matrix, col], [col.T, None]], format="csr")
    return aug, np.concatenate([rhs, [0.0]])


def constrain_system(matrix, rhs, periodic_pairs=None, dirichlet=None,
                     zero_mean=None):
    """Compose the constraint operations in a fixed order.

    dirichlet is (dofs, values); zero_mean is the mass matrix or weight
    vector.  Requesting both dirichlet and zero-mean on the same scalar
    field is contradictory and raises InconsistentConstraint.  Returns
    (matrix, rhs, finish) where finish maps the solution of the returned
    system back to the full dof vector.
    """
    if dirichlet is not None and zero_mean is not None:
        raise InconsistentConstraint(
            "zero-mean and Dirichlet constraints requested together",
            where="fem.constrain_system")
    expand = None
    augmented = False
    if periodic_pairs is not None and len(periodic_pairs):
        p, cols = periodic_prolongation(matrix.shape[0], periodic_pairs)
        matrix = (p.T @ matrix @ p).tocsr()
        rhs = p.T @ rhs
        expand = p
        if dirichlet is not None:
            dofs, values = dirichlet
            dirichlet = (cols[np.asarray(dofs, dtype=int)], values)
        if zero_mean is not None:
            if sp.issparse(zero_mean):
                zero_mean = np.asarray(
                    zero_mean @ np.ones(zero_mean.shape[0])).ravel()
            zero_mean = p.T @ zero_mean
    if dirichlet is not None:
        matrix, rhs = apply_dirichlet(matrix, rhs, *dirichlet)
    if zero_mean is not None:
        matrix, rhs = apply_zero_mean(matrix, rhs, zero_mean)
        augmented = True

    def finish(x):
        if augmented:
            x = x[:-1]
        if expand is not None:
            x = expand @ x
        return x

    return matrix, rhs, finish


# ----------------------------------------------------------------------
# solvers


def solve_direct(matrix, rhs):
    """Sparse LU solve; deterministic workhorse for non-SPD systems."""
    lu = splu(sp.csc_matrix(matrix))
    return lu.solve(np.asarray(rhs, dtype=float))


def solve_spd(matrix, rhs, tol=DEFAULT_TOL, max_iter=None,
              project_constant=False, mean_weight=None):
    """Jacobi-preconditioned conjugate gradients.

    project_constant removes the constant component from the residual at
    every step, which solves compatible singular Neumann systems; the
    returned iterate is then shifted to zero weighted mean when
    mean_weight is given.  Raises SolverBreakdown on indefinite input or
    residual stagnation and MaxIterationsExceeded past the budget.
    """
    matrix = sp.csr_matrix(matrix)
    n = matrix.shape[0]
    if max_iter is None:
        max_iter = 10 * n + 200
    b = np.asarray(rhs, dtype=float).copy()
    diag = matrix.diagonal()
    if np.any(diag <= 0):
        raise SolverBreakdown("nonpositive diagonal entry: matrix is not "
                              "positive definite", where="fem.solve_spd")
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
                                  "positive definite", where="fem.solve_spd")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if project_constant:
            r -= (ones @ r) * ones
        res = float(np.linalg.norm(r))
        if res <= tol * bnorm:
            log.debug("solve_spd converged in %d iterations (rel %.2e)",
                      it, res / bnorm)
            break
        if res < best * (1.0 - 1e-6):
            best, best_iter = res, it
        elif it - best_iter > 100:
            raise SolverBreakdown(
                "residual stagnated at relative %.2e after %d iterations"
                % (res / bnorm, it), where="fem.solve_spd")
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        raise MaxIterationsExceeded(
            "conjugate gradients: %d iterations, relative residual %.2e"
            % (max_iter, float(np.linalg.norm(r)) / bnorm),
            where="fem.solve_spd")
    if mean_weight is not None:
        w = np.asarray(mean_weight, dtype=float)
        x = x - (w @ x) / np.sum(w)
    return x


class TransportSolver:
    """Transport block solves that keep one LU between calls.

    Each solve first runs GMRES preconditioned by the kept LU, for at
    most two restart cycles of TRANSPORT_KRYLOV_ITERS iterations, and
    accepts the result only when scipy reports convergence and the true
    residual satisfies ||b - A x|| <= TRANSPORT_TOL ||b||.  scipy ends
    its inner loop on the preconditioned residual, so the second cycle
    takes up results whose true residual is still just above the gate.
    Otherwise the old LU is dropped and the current block is factored
    and solved directly; that LU is kept for the following calls.  A fresh solver
    holds no LU, so its first solve is the direct one.  Between the
    sweeps and steps of one run the block changes only through the
    convection and drift terms, which keeps the lagged LU a near-exact
    preconditioner.  One solver serves one run: its LU is as large as
    the run's transport factorization.
    """

    def __init__(self):
        self._lu = None
        self.factorizations = 0
        self.krylov_solves = 0
        self.krylov_iterations = 0

    def solve(self, matrix, rhs):
        matrix = sp.csc_matrix(matrix)
        rhs = np.asarray(rhs, dtype=float)
        if self._lu is not None:
            x = self._krylov(matrix, rhs)
            if x is not None:
                return x
            self._lu = None
        self._lu = splu(matrix)
        self.factorizations += 1
        return self._lu.solve(rhs)

    def _krylov(self, matrix, rhs):
        """The preconditioned GMRES result if it passes the gate, else None.

        The preconditioner refers to the kept LU, so it must be gone
        before a refresh factors the block; returning from this method
        drops it.
        """
        iterations = []
        precondition = LinearOperator(matrix.shape, self._lu.solve)
        x, info = gmres(matrix, rhs, rtol=TRANSPORT_TOL, atol=0.0,
                        restart=TRANSPORT_KRYLOV_ITERS, maxiter=2,
                        M=precondition, callback=iterations.append,
                        callback_type="pr_norm")
        residual = float(np.linalg.norm(rhs - matrix @ x))
        if info != 0 or residual > TRANSPORT_TOL * np.linalg.norm(rhs):
            return None
        self.krylov_solves += 1
        self.krylov_iterations += len(iterations)
        return x

    def summary(self):
        return ("%d factorizations, %d Krylov solves, %d Krylov iterations"
                % (self.factorizations, self.krylov_solves,
                   self.krylov_iterations))


def step_reacting_pair(mass, op_plus, op_minus, c_plus, c_minus, dt,
                       solver=None):
    """Coupled implicit step for two species exchanging through the
    reaction pair (-q, +q) with q = c_plus - c_minus.

    Both species and the reaction are advanced in one block solve, so the
    discrete total charge obeys Q_new = Q_old / (1 + 2 dt) and the total
    mass is conserved whenever the operators have zero column sums
    (stiffness plus convection under no-flux conditions), both up to the
    residual of the solve: round-off for a direct solve, at most
    TRANSPORT_TOL relative for a Krylov one.  solver is the
    TransportSolver of the run, which reuses its LU across calls; None
    means a fresh one, which factors this block and solves it directly.
    """
    if solver is None:
        solver = TransportSolver()
    a11 = mass + dt * op_plus + dt * mass
    a22 = mass + dt * op_minus + dt * mass
    coupling = -dt * mass
    block = sp.bmat([[a11, coupling], [coupling, a22]], format="csc")
    rhs = np.concatenate([mass @ c_plus, mass @ c_minus])
    solution = solver.solve(block, rhs)
    n = mass.shape[0]
    return solution[:n], solution[n:]


# ----------------------------------------------------------------------
# P2 space and Stokes


def _p2_data(mesh):
    """Edges (E, 2), triangle-to-edge map (M, 3) and edge count E."""
    table = edge_table(mesh)
    return table.edges, table.tri_edges, len(table.edges)


def p2_dof_count(mesh):
    _, _, n_edges = _p2_data(mesh)
    return mesh.num_nodes + n_edges


def _p2_basis(lam):
    """Values (6,) of the P2 basis at one barycentric point."""
    out = np.empty(6)
    out[:3] = lam * (2 * lam - 1)
    for k, (i, j) in enumerate(_EDGE_LOCAL):
        out[3 + k] = 4 * lam[i] * lam[j]
    return out


def _p2_basis_gradients(lam, grads):
    """Gradients (M, 6, 2) of the P2 basis at one barycentric point."""
    m = grads.shape[0]
    out = np.empty((m, 6, 2))
    for i in range(3):
        out[:, i, :] = (4 * lam[i] - 1) * grads[:, i, :]
    for k, (i, j) in enumerate(_EDGE_LOCAL):
        out[:, 3 + k, :] = 4 * (lam[i] * grads[:, j, :]
                                + lam[j] * grads[:, i, :])
    return out


def _p2_global_dofs(mesh):
    _, tri_edges, _ = _p2_data(mesh)
    return np.hstack([mesh.triangles, mesh.num_nodes + tri_edges])


def assemble_p2_stiffness(mesh):
    """Scalar P2 stiffness (one velocity component of the viscous term)."""
    areas, grads = _p1_data(mesh)
    m = mesh.num_triangles
    local = np.zeros((m, 6, 6))
    for lam, w in zip(_QP4, _QW4):
        g = _p2_basis_gradients(lam, grads)
        local += w * np.einsum("mid,mjd->mij", g, g)
    local *= areas[:, None, None]
    dofs = _p2_global_dofs(mesh)
    rows = np.repeat(dofs, 6, axis=1)
    cols = np.tile(dofs, (1, 6))
    n2 = p2_dof_count(mesh)
    return _scatter(rows, cols, local.reshape(m, 36), (n2, n2))


def assemble_divergence(mesh):
    """P1-pressure rows of the constraint integral q * div(u).

    Returns (Bx, By) with shape (num_nodes, p2_dofs); the full constraint
    is Bx @ ux + By @ uy.
    """
    areas, grads = _p1_data(mesh)
    m = mesh.num_triangles
    local = np.zeros((m, 3, 6, 2))
    for lam, w in zip(_QP4, _QW4):
        g = _p2_basis_gradients(lam, grads)
        local += w * np.einsum("q,mjd->mqjd", lam, g)
    local *= areas[:, None, None, None]
    dofs = _p2_global_dofs(mesh)
    rows = np.repeat(mesh.triangles, 6, axis=1)
    cols = np.tile(dofs, (1, 3))
    n2 = p2_dof_count(mesh)
    shape = (mesh.num_nodes, n2)
    bx = _scatter(rows, cols, local[:, :, :, 0].reshape(m, 18), shape)
    by = _scatter(rows, cols, local[:, :, :, 1].reshape(m, 18), shape)
    return bx, by


def assemble_p2_load(mesh, forcing):
    """Load vector (p2_dofs, 2) for elementwise-constant vector forcing."""
    areas, _ = _p1_data(mesh)
    forcing = np.asarray(forcing, dtype=float)
    if forcing.ndim == 1:
        forcing = np.broadcast_to(forcing, (mesh.num_triangles, 2))
    _, tri_edges, _ = _p2_data(mesh)
    n2 = p2_dof_count(mesh)
    out = np.zeros((n2, 2))
    # Vertex P2 basis functions integrate to zero over the element; the
    # edge ones integrate to area/3.
    contrib = forcing * (areas / 3.0)[:, None]
    for k in range(3):
        np.add.at(out, mesh.num_nodes + tri_edges[:, k], contrib)
    return out


def _p2_boundary_dofs(mesh, tags):
    """Sorted list of the vertex and edge dofs on edges with the given tags."""
    pairs = _tagged_pairs(mesh, tags)
    edge_dofs = mesh.num_nodes + edge_table(mesh).lookup(pairs)
    return np.unique(np.concatenate([pairs.ravel(), edge_dofs])).tolist()


def _p2_periodic_pairs(mesh):
    """Periodic dof pairs (P, 2) for the P2 space (vertices plus edges).

    Boundary edges whose endpoint canonical representatives coincide are
    translates of each other, so their midpoint dofs are identified by
    grouping edges on the canonical endpoint pair.
    """
    n = mesh.num_nodes
    canon = canonical_from_pairs(n, mesh.periodic_pairs)
    ends = np.sort(canon[edge_table(mesh).edges], axis=1)
    _, group = np.unique(ends[:, 0] * n + ends[:, 1], return_inverse=True)
    # Edge ids ascend, so each group's first edge is its smallest.
    _, first = np.unique(group, return_index=True)
    master = first[group]
    slaves = np.flatnonzero(master != np.arange(len(master)))
    edge_pairs = np.column_stack([n + master[slaves], n + slaves])
    return np.vstack([mesh.periodic_pairs, edge_pairs])


class StokesOperator:
    """Taylor-Hood saddle-point operator with reusable factorization.

    bc is a dict with keys "no_slip_tags" (list of boundary tags) and
    "periodic" (bool).  The pressure is constrained to zero mean.
    Systems below DIRECT_DOF_LIMIT unknowns, and periodic ones without a
    no-slip wall, are solved by one sparse factorization of the saddle
    matrix bordered with Lagrange multipliers.  Larger ones are solved by
    preconditioned conjugate gradients on the pressure Schur complement
    S = B A^-1 B^T.  After periodic reduction and no-slip pinning the
    velocity block is blockdiag(A, A), so one LU of the scalar block A
    serves both components.  The preconditioner M_p^-1 + theta L_p^-1
    adds the inverse pressure Laplacian to the inverse lumped pressure
    mass, because S acts like M_p / viscosity on pore-scale modes and
    like a Darcy operator K eps^2 / viscosity L_p on longer ones
    (Cahouet & Chabard, IJNMF 8, 1988); theta is read off the operator
    when it is built.  solves and schur_iterations count the calls to
    solve and the conjugate-gradient iterations they took.
    """

    def __init__(self, mesh, bc, viscosity=1.0):
        self.mesh = mesh
        self.viscosity = viscosity
        no_slip_tags = set(bc.get("no_slip_tags", ()))
        periodic = bool(bc.get("periodic", False))
        present = {tag for _, tag in mesh.boundary_edges}
        self.no_slip_dofs = _p2_boundary_dofs(mesh, no_slip_tags & present)
        self.periodic = periodic
        self.solves = 0
        self.schur_iterations = 0
        self._build()

    def _build(self):
        mesh = self.mesh
        n2 = p2_dof_count(mesh)
        n1 = mesh.num_nodes
        a = self.viscosity * assemble_p2_stiffness(mesh)
        bx, by = assemble_divergence(mesh)
        mass = assemble_mass(mesh)

        # Full block system over (ux, uy, p) in the symmetric form.
        zero = sp.csr_matrix((n2, n2))
        saddle = sp.bmat([
            [a, zero, -bx.T],
            [zero, a, -by.T],
            [-bx, -by, None],
        ], format="csr")

        nfull = 2 * n2 + n1
        p2_pairs = _p2_periodic_pairs(mesh) if self.periodic else ()
        if len(p2_pairs):
            pairs = np.vstack([p2_pairs, p2_pairs + n2,
                               mesh.periodic_pairs + 2 * n2])
            self.prolong, cols = periodic_prolongation(nfull, pairs)
        else:
            self.prolong = sp.identity(nfull, format="csr")
            cols = np.arange(nfull)

        reduced = (self.prolong.T @ saddle @ self.prolong).tocsr()
        no_slip = np.asarray(self.no_slip_dofs, dtype=int)
        self.fixed = np.unique(cols[np.concatenate([no_slip, no_slip + n2])])
        self.n2 = n2
        self.n1 = n1
        self.nred = reduced.shape[0]

        weight_full = np.zeros(nfull)
        weight_full[2 * n2:] = np.asarray(mass @ np.ones(n1)).ravel()
        self.pressure_weight = self.prolong.T @ weight_full

        keep = np.ones(self.nred, dtype=bool)
        keep[self.fixed] = False
        mask = sp.diags(keep.astype(float))
        pin = sp.diags((~keep).astype(float))
        self.matrix = (mask @ reduced @ mask + pin).tocsr()
        self.keep = keep

        columns = [self.pressure_weight]
        self.unconstrained = self.periodic and not self.no_slip_dofs
        if self.unconstrained:
            # No solid interface pins the velocity: constrain its mean in
            # both components so compatible (zero-mean) forcings remain
            # solvable and incompatible ones are rejected at solve time.
            unit = assemble_p2_load(mesh, (1.0, 0.0))[:, 0]
            wx = np.concatenate([unit, np.zeros(n2), np.zeros(n1)])
            wy = np.concatenate([np.zeros(n2), unit, np.zeros(n1)])
            columns.append(self.prolong.T @ wx)
            columns.append(self.prolong.T @ wy)
        self.n_multipliers = len(columns)

        total = self.nred + self.n_multipliers
        if total < DIRECT_DOF_LIMIT or self.unconstrained:
            cols = sp.csr_matrix(np.column_stack(columns))
            aug = sp.bmat([[self.matrix, cols], [cols.T, None]],
                          format="csc")
            self._lu = splu(aug)
            self._mode = "direct"
        else:
            self._prepare_schur()
            self._mode = "schur_cg"
        log.debug("stokes operator: %d reduced dofs, mode=%s",
                  self.nred, self._mode)

    def _prepare_schur(self):
        # Split the reduced, no-slip-pinned matrix into velocity and
        # pressure blocks.  Reduced dof layout follows the master order of
        # the full layout (ux, uy, p), so classify masters by origin.  The
        # uy masters are the ux masters shifted by n2 and both components
        # share their pins, so the first half of u_ids carries the scalar
        # block of each component.
        marker = np.zeros(2 * self.n2 + self.n1)
        marker[2 * self.n2:] = 1.0
        is_pressure = (self.prolong.T @ marker) > 0
        self.u_ids = np.flatnonzero(~is_pressure)
        self.p_ids = np.flatnonzero(is_pressure)
        ux_ids = self.u_ids[:len(self.u_ids) // 2]
        self._lu_a = splu(self.matrix[ux_ids][:, ux_ids].tocsc())
        self.b_pu = self.matrix[self.p_ids][:, self.u_ids].tocsr()
        weight = self.pressure_weight[self.p_ids]
        self.wp = weight / np.linalg.norm(weight)
        # Lumped pressure mass and P1 stiffness on the reduced pressure
        # dofs; the stiffness is bordered by the zero-mean constraint.
        to_pressure = self.prolong[2 * self.n2:][:, self.p_ids]
        mass_diag = assemble_mass(self.mesh, lumped=True).diagonal()
        self.p_mass = to_pressure.T @ mass_diag
        laplacian = to_pressure.T @ assemble_stiffness(self.mesh) @ to_pressure
        aug, _ = apply_zero_mean(laplacian, np.zeros(len(weight)), weight)
        self._lu_laplacian = splu(sp.csc_matrix(aug))
        # theta is the ratio of two Rayleigh quotients of S: against the
        # mass on a broadband probe (about 1 / viscosity) and against the
        # Laplacian on the smooth probe x (about K eps^2 / viscosity).
        coord = (to_pressure.T @ (mass_diag * self.mesh.nodes[:, 0])
                 / self.p_mass)
        smooth = coord - (weight @ coord) / weight.sum()
        broad = self._project(
            np.random.default_rng(0).standard_normal(len(weight)))
        darcy = (smooth @ self._schur(smooth)) / (smooth @ laplacian @ smooth)
        fine = (broad @ self._schur(broad)) / (broad @ (self.p_mass * broad))
        self.theta = SCHUR_LAPLACE_WEIGHT * fine / darcy

    def _solve_velocity(self, rhs):
        """A^-1 on a stacked (ux, uy) vector, both components in one solve."""
        return self._lu_a.solve(rhs.reshape(2, -1).T).T.ravel()

    def _schur(self, p):
        return self.b_pu @ self._solve_velocity(self.b_pu.T @ p)

    def _project(self, v):
        return v - (self.wp @ v) * self.wp

    def _precondition(self, r):
        laplace = self._lu_laplacian.solve(np.append(r, 0.0))[:-1]
        return r / self.p_mass + self.theta * laplace

    def summary(self):
        return "%d solves, %d Schur iterations" % (self.solves,
                                                   self.schur_iterations)

    def solve(self, forcing):
        """Velocity and pressure for elementwise-constant forcing."""
        if self.unconstrained:
            areas, _ = _p1_data(self.mesh)
            forcing_arr = np.asarray(forcing, dtype=float)
            if forcing_arr.ndim == 1:
                mean = forcing_arr * np.sum(areas)
            else:
                mean = areas @ forcing_arr
            if np.linalg.norm(mean) > 1e-12:
                raise NoSolidPhase(
                    "periodic flow without a no-slip interface admits no "
                    "solution for mean forcing", where="fem.solve_stokes")
        load = assemble_p2_load(self.mesh, forcing)
        rhs_full = np.concatenate([load[:, 0], load[:, 1],
                                   np.zeros(self.n1)])
        rhs = self.prolong.T @ rhs_full
        rhs[self.fixed] = 0.0
        if self._mode == "direct":
            padded = np.concatenate([rhs, np.zeros(self.n_multipliers)])
            sol = self._lu.solve(padded)[:self.nred]
        else:
            sol = self._solve_schur_cg(rhs)
        self.solves += 1
        full = self.prolong @ sol
        vel = Field(self.mesh, "p2v",
                    np.column_stack([full[:self.n2],
                                     full[self.n2:2 * self.n2]]))
        pressure = full[2 * self.n2:]
        return vel, pressure

    def _solve_schur_cg(self, rhs):
        fu = rhs[self.u_ids]
        fp = rhs[self.p_ids]
        g = self.b_pu @ self._solve_velocity(fu) - fp
        p = np.zeros(len(self.p_ids))
        r = self._project(g)
        gnorm = float(np.linalg.norm(r))
        if gnorm > 0:
            z = self._precondition(r)
            d = z.copy()
            rz = float(r @ z)
            for it in range(1, SCHUR_MAX_ITER + 1):
                sd = self._project(self._schur(d))
                dsd = float(d @ sd)
                if dsd <= 0:
                    raise SolverBreakdown("Schur complement lost positivity",
                                          where="fem.solve_stokes")
                alpha = rz / dsd
                p += alpha * d
                r -= alpha * sd
                if float(np.linalg.norm(r)) <= DEFAULT_TOL * gnorm:
                    break
                z = self._precondition(r)
                rz_new = float(r @ z)
                d = z + (rz_new / rz) * d
                rz = rz_new
            else:
                raise MaxIterationsExceeded(
                    "Schur-complement CG exceeded %d iterations"
                    % SCHUR_MAX_ITER, where="fem.solve_stokes")
            self.schur_iterations += it
        u = self._solve_velocity(fu - self.b_pu.T @ p)
        sol = np.zeros(self.nred)
        sol[self.u_ids] = u
        sol[self.p_ids] = p
        # Shift pressure to zero weighted mean.
        wp_full = self.pressure_weight[self.p_ids]
        sol[self.p_ids] -= (wp_full @ p) / np.sum(wp_full)
        return sol


def solve_stokes(mesh, forcing, bc, viscosity=1.0):
    """Taylor-Hood Stokes solve; see StokesOperator for the contract.

    Raises NoSolidPhase when the velocity is unconstrained (periodic with
    no no-slip interface) and the forcing has a nonzero mean, which is
    the incompatible configuration.
    """
    op = StokesOperator(mesh, bc, viscosity=viscosity)
    vel, pressure = op.solve(forcing)
    return vel, Field(mesh, "p1", pressure)


def weak_divergence(mesh, vel):
    """Residual vector of the discrete incompressibility constraint.

    On periodic meshes the constraint is tested against the periodic
    pressure space, so paired rows are folded together.
    """
    bx, by = assemble_divergence(mesh)
    residual = bx @ vel.values[:, 0] + by @ vel.values[:, 1]
    if len(mesh.periodic_pairs):
        p, _ = periodic_prolongation(mesh.num_nodes, mesh.periodic_pairs)
        residual = p.T @ residual
    return residual


def integrate_p2(mesh, vel):
    """Integral of a P2 vector field over the mesh, shape (2,)."""
    areas, _ = _p1_data(mesh)
    means = element_means(mesh, vel)
    return areas @ means


# ----------------------------------------------------------------------
# interpolation


class PointLocator:
    """Barycentric point location with a centroid k-d tree.

    A point lies in the first of its k = 8 nearest centroids, in distance
    order, whose barycentric coordinates are all nonnegative.  Failing
    that, it lies in the candidate with the largest smallest coordinate
    if that coordinate is at least tol, and failing that the search is
    repeated with k = 40.
    """

    def __init__(self, mesh):
        from scipy.spatial import cKDTree
        self.mesh = mesh
        areas, grads = _p1_data(mesh)
        self.centroids = mesh.nodes[mesh.triangles].mean(axis=1)
        self.tree = cKDTree(self.centroids)

    def locate(self, points, tol=-1e-8):
        """Triangle ids (P,) and barycentric coordinates (P, 3)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        tris = np.empty(len(points), dtype=int)
        lams = np.empty((len(points), 3))
        todo = np.arange(len(points))
        for k in (8, 40):
            k = min(k, len(self.centroids))
            _, candidates = self.tree.query(points[todo], k=k)
            candidates = candidates.reshape(len(todo), k)
            lam = self._barycentric(candidates, points[todo])
            low = lam.min(axis=2)
            inside = low >= 0
            contained = inside.any(axis=1)
            pick = np.where(contained, np.argmax(inside, axis=1),
                            np.argmax(low, axis=1))
            rows = np.arange(len(todo))
            found = contained | (low[rows, pick] >= tol)
            tris[todo[found]] = candidates[rows, pick][found]
            lams[todo[found]] = lam[rows, pick][found]
            todo = todo[~found]
            if not len(todo):
                return tris, lams
        raise PointOutsideFluidPart(
            "point (%g, %g) lies outside the fluid part"
            % tuple(points[todo[0]]), where="fem.PointLocator")

    def _barycentric(self, tris, points):
        """Barycentric coordinates (P, k, 3) of P points in k triangles."""
        a, b, c = (self.mesh.nodes[self.mesh.triangles[tris, i]]
                   for i in range(3))
        m = np.stack([b - a, c - a], axis=-1)
        st = np.linalg.solve(m, (points[:, None, :] - a)[..., None])[..., 0]
        return np.concatenate(
            [1.0 - st[..., :1] - st[..., 1:], st], axis=-1)


def p1_interpolate(mesh, values, points, locator=None):
    """Evaluate P1 fields at arbitrary points inside the fluid part.

    values is one nodal scalar (N,) or k of them (N, k); the result is
    (P,) or (P, k), with every point located once.
    """
    if locator is None:
        locator = mesh._caches.get("locator")
        if locator is None:
            locator = PointLocator(mesh)
            mesh._caches["locator"] = locator
    values = np.asarray(values, dtype=float)
    tris, lam = locator.locate(points)
    lam = np.clip(lam, 0.0, None)
    lam /= lam.sum(axis=1, keepdims=True)
    return np.einsum("pi,pi...->p...", lam, values[mesh.triangles[tris]])


def l2_norm(mesh, values):
    """Mass-weighted L2 norm of nodal scalars or (N, k) vectors."""
    mass = mesh._caches.get("mass")
    if mass is None:
        mass = assemble_mass(mesh)
        mesh._caches["mass"] = mass
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        return float(np.sqrt(values @ (mass @ values)))
    return float(np.sqrt(sum(values[:, k] @ (mass @ values[:, k])
                             for k in range(values.shape[1]))))
