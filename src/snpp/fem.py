"""Finite-element core: P1/Taylor-Hood assembly, constraints, solvers.

Scalars (potential, pressure, concentrations) use P1 elements; velocity
uses P2 on the same triangulation (Taylor-Hood pair), held as a plain
(p2_dofs, 2) array whose rows are the mesh nodes and then its edges.
Assembly is vectorized over elements and accumulated via
coordinate-format scatter.  The kernels that run at every fixed-point
sweep (P1 element gradients and means, the P2 element means and the
loads of elementwise fields) are each one sparse product with an
operator that is built on first use and kept in mesh._caches; a load,
the lumped mass and the recovered nodal gradient are products with a
transpose.  P1 interpolation reads only the structured macro square,
where a point's triangle follows in closed form.
The coupled transport block of both species belongs to a TransportSolver
built once per run: it fixes the block's sparsity pattern, refills only
the convection values whenever the fields change, in place, scattering
the element weights in chunks, factors the two species' diagonal blocks
apart, in single precision, and solves every block by iterative
refinement in double precision on their LUs, each step corrected so
that each species' summed residual is zero, refactoring only when a
refinement step fails to halve the residual.  So every solve conserves
the total content and decays the charge to round-off, and only strong
convection over a long step, which the species LUs cannot refine, makes
it factor the coupled block, in double precision.

Index arrays are int32 wherever their values fit, the dtype scipy
stores the indices of these matrices in: the element pairs that the P1
and P2 assemblies scatter from (_element_pairs), and the slots of the
transport block's entries.  The keys col 2n + row by which
TransportSolver finds its block's pattern reach (2n)^2, so they are
int32 only while (2n)^2 <= 2^31, that is up to 23,170 nodes, and int64
on larger meshes such as the eps=1/32 pore mesh (60,929 nodes).  The
assemblies and the operator builds drop each temporary once it is
used, so a build allocates little more than it keeps, and every matrix
they return equals, bit for bit, the one of the plain coordinate-format
route.  So do the bordered systems that ZeroMeanLU and stokes_saddle
build: _stack_columns writes each straight into CSC arrays in one
pass, equal bit for bit to those sp.bmat makes, so no coordinate copy
of them is built on the way to the factorization.  The kernels of every
sweep allocate little more than they return: TransportSolver.refill
writes the block's values in place, and the Schur-route Stokes solve
holds no copy of its load through its iterations.  That solve stops at
the tolerance its caller passes: a fixed-point sweep whose fields the
next sweep replaces asks only for the digits its last change has
settled (macro.run_steps), while every field that a run keeps is
solved to DEFAULT_TOL.

stokes_blocks builds the folded and pinned Stokes blocks, the scalar
P2 viscous block and the divergence rows of both velocity components,
and stokes_saddle borders their saddle.  StokesOperator keeps only what
its solves read: the saddle's LU on its direct route, the divergence
rows and the viscous block's LU on its Schur-complement route.  The
consistent mass matrix (mass_matrix) and the lumped mass (lumped_mass),
its row sums and the weight of every zero-mean constraint, are kept per
mesh in mesh._caches too.

Every symmetric system is factored by symmetric_lu: the direct Stokes
saddle bordered by its zero-mean constraint, the bordered zero-mean
systems of ZeroMeanLU (the macro potential and Darcy systems, the P1
Laplacian of a Neumann pore-scale run, which serves both its potential
and the pressure Laplacian of its Schur route, the pressure Laplacian
that any other Schur-route Stokes operator factors itself, the scalar
cell correctors), the scalar velocity block of the Schur route, and the
Dirichlet potentials of the cell and the pore scale.  Its minimum-degree
ordering of A^T + A fills the eps=1/8 Stokes saddle LU five times less
than scipy's default COLAMD ordering.  The transport blocks are not
symmetric, but their patterns are, and symmetric_lu factors them too,
with relax=1.  SuperLU's default relaxation of small supernodes, not the
ordering, is what makes them slow in symmetric mode: at eps=1/16 the
coupled block's LU stores 54M entries and factors in 31 s.  With relax=1
it stores 2.2M entries against COLAMD's 5.0M, and the two species LUs
together 1.09M (see README).  Every symmetric_lu takes a panel of one
column.  SuperLU's default panel sizes its work arrays at about 350
bytes per row on top of the factors: with it the eps=1/8 direct Stokes
build, whose saddle LU holds 2.75M entries, raised the peak memory by
50 MB instead of 39 MB.  The panel changes neither the ordering, the
pivots nor the fill, only the order of the updates, so the factors move
at round-off.
"""

import itertools
import logging

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .errors import (
    DegenerateElement,
    FieldMeshMismatch,
    MaxIterationsExceeded,
    NoSolidPhase,
    SolverBreakdown,
)
from .mesh import GAMMA_INTERIOR, edge_table, tagged_edges, triangle_areas

log = logging.getLogger(__name__)

DIRECT_DOF_LIMIT = 50000
DEFAULT_TOL = 1e-10
TRANSPORT_TOL = 1e-12
TRANSPORT_REACH = 2.0
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


def _cached(mesh, key, build):
    """mesh._caches[key], set to build(mesh) on first use."""
    value = mesh._caches.get(key)
    if value is None:
        value = mesh._caches[key] = build(mesh)
    return value


def _triangle_data(mesh):
    areas = triangle_areas(mesh)
    if np.any(areas < 1e-14):
        raise DegenerateElement(
            "triangle area below 1e-14 (min %g)" % float(np.min(areas)),
            where="fem.assembly")
    x = mesh.nodes[mesh.triangles, 0]
    y = mesh.nodes[mesh.triangles, 1]
    two_a = 2.0 * areas
    # Stored at [K, d, i], the order of the gradient operator's values.
    values = np.empty((mesh.num_triangles, 2, 3))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        values[:, 0, i] = (y[:, j] - y[:, k]) / two_a
        values[:, 1, i] = (x[:, k] - x[:, j]) / two_a
    return areas, values.transpose(0, 2, 1)


def triangle_data(mesh):
    """Areas (M,) and P1 basis gradients (M, 3, 2), a view of the one
    array of them per mesh, which the gradient operator holds."""
    return _cached(mesh, "p1", _triangle_data)


def _index_dtype(limit):
    """int32 when every index below limit fits in it, else int64."""
    return np.int32 if limit <= 2 ** 31 else np.int64


def _element_pairs(row_dofs, col_dofs, shape):
    """Row and column indices (M, k l) of the element pairs of a matrix of
    the given shape, int32 when the shape allows: entry l i + j of
    element K pairs row_dofs[K, i] with col_dofs[K, j], where row_dofs is
    (M, k) and col_dofs (M, l)."""
    dtype = _index_dtype(max(shape))
    rows = np.repeat(row_dofs.astype(dtype), col_dofs.shape[1], axis=1)
    cols = np.tile(col_dofs.astype(dtype), (1, row_dofs.shape[1]))
    return rows, cols


def _scatter(rows, cols, data, shape):
    return sp.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())),
                         shape=shape).tocsr()


def assemble_stiffness(mesh, coeff=None):
    """Stiffness matrix of the bilinear form grad u . C grad v.

    coeff is a symmetric 2x2 tensor; None means identity.
    """
    areas, grads = triangle_data(mesh)
    if coeff is None:
        coeff = np.eye(2)
    coeff = np.asarray(coeff, dtype=float)
    t = mesh.triangles
    n = mesh.num_nodes
    cg = grads @ coeff.T  # (M, 3, 2)
    local = np.einsum("mid,mjd->mij", cg, grads)
    del cg
    local *= areas[:, None, None]
    rows, cols = _element_pairs(t, t, (n, n))
    return _scatter(rows, cols, local, (n, n))


def assemble_mass(mesh):
    """Consistent P1 mass matrix."""
    areas, _ = triangle_data(mesh)
    t = mesh.triangles
    n = mesh.num_nodes
    base = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    local = base[None, :, :] * areas[:, None, None]
    rows, cols = _element_pairs(t, t, (n, n))
    return _scatter(rows, cols, local, (n, n))


def _vertex_operator(mesh):
    """(M, N) CSR matrix with a 1 at each element's three vertices."""
    m = mesh.num_triangles
    return sp.csr_matrix(
        (np.ones(3 * m), mesh.triangles.ravel(),
         np.arange(0, 3 * m + 1, 3)), shape=(m, mesh.num_nodes))


def element_means(mesh, values):
    """Elementwise mean (M,) or (M, k) of a nodal scalar (N,) or of k
    nodal scalars (N, k)."""
    vertices = _cached(mesh, "vertices", _vertex_operator)
    return vertices @ np.asarray(values, dtype=float) / 3.0


def mass_matrix(mesh):
    """The consistent P1 mass matrix, assembled once per mesh and shared
    by every caller."""
    return _cached(mesh, "mass", assemble_mass)


def _lumped_mass(mesh):
    areas, _ = triangle_data(mesh)
    lumped = _cached(mesh, "vertices", _vertex_operator).T @ (areas / 3.0)
    lumped.flags.writeable = False
    return lumped


def lumped_mass(mesh):
    """Diagonal (N,) of the row-sum lumped P1 mass matrix: a third of
    the area of each element at each of its vertices.  That is also the
    integral of each P1 basis function, so it is the weight of every
    zero-mean constraint.  Every caller shares the cached array, so it
    is read-only."""
    return _cached(mesh, "lumped_mass", _lumped_mass)


def _gradient_operator(mesh):
    """(2M, N) CSR matrix whose row 2K + d takes a P1 scalar to the
    component d of its gradient on element K; its values are the
    gradients of triangle_data."""
    _, grads = triangle_data(mesh)
    m = mesh.num_triangles
    return sp.csr_matrix(
        (grads.transpose(0, 2, 1).ravel(),
         np.repeat(mesh.triangles, 2, axis=0).ravel(),
         np.arange(0, 6 * m + 1, 3)), shape=(2 * m, mesh.num_nodes))


def p1_element_gradients(mesh, values):
    """Piecewise-constant gradient of a P1 scalar, shape (M, 2)."""
    gradient = _cached(mesh, "gradient", _gradient_operator)
    return (gradient @ np.asarray(values, dtype=float)).reshape(-1, 2)


def assemble_gradient_load(mesh, field):
    """Load vector of the integral of field . grad(phi_i) for an
    elementwise-constant vector field (M, 2)."""
    areas, _ = triangle_data(mesh)
    gradient = _cached(mesh, "gradient", _gradient_operator)
    return gradient.T @ (np.asarray(field, dtype=float)
                         * areas[:, None]).ravel()


def recover_nodal_gradient(mesh, values):
    """Area-weighted average of element gradients at the nodes, (N, 2)."""
    areas, _ = triangle_data(mesh)
    vertices = _cached(mesh, "vertices", _vertex_operator).T
    weighted = p1_element_gradients(mesh, values) * areas[:, None]
    return (vertices @ weighted) / (vertices @ areas)[:, None]


def _convection_weights(mesh, velocity, drift, drift_tensor):
    """Weights (3, M) of velocity . grad(phi_i) |K| / 3 and of
    (T grad(drift)) . grad(phi_i) |K| / 3 at [i, K].

    Under the field w = velocity - drift_sign * T grad(drift), entry (i, j)
    of element K of the convection matrix is velocity weight i minus
    drift_sign times drift weight i, for every j.  A field given as None
    has zero weights.  The drift weights are formed first and the (M, 2)
    drift gradient is dropped before the velocity weights are formed.
    """
    m = mesh.num_triangles
    if velocity is not None:
        velocity = np.asarray(velocity, dtype=float)
        if velocity.shape != (m, 2):
            raise FieldMeshMismatch(
                "velocity shape %s does not match the elements"
                % (velocity.shape,), where="fem.convection")
    areas, grads = triangle_data(mesh)
    third = areas / 3.0

    def weights_of(w):
        if w is None:
            return np.zeros((3, m))
        # Component d of grad(phi_i) |K| / 3, times w[K, d], summed over d
        # in place: one temporary of the weights' size, not two.
        weight, term = np.empty((3, m)), np.empty((3, m))
        for d, out in enumerate((weight, term)):
            np.multiply(grads[:, :, d].T, third, out=out)
            out *= w[:, d]
        weight += term
        return weight

    gradient = None
    if drift is not None:
        gradient = p1_element_gradients(mesh, drift)
        if drift_tensor is not None:
            gradient = gradient @ np.asarray(drift_tensor, dtype=float).T
    drifted = weights_of(gradient)
    del gradient
    return weights_of(velocity), drifted


def assemble_convection(mesh, velocity=None, drift=None, drift_tensor=None,
                        drift_sign=1.0):
    """Matrix B with (B c)_i = integral of c * w . grad(phi_i).

    The transporting field is w = velocity - drift_sign * T grad(drift)
    with T = drift_tensor (a 2x2 array; identity when None).  velocity is
    an elementwise (M, 2) array; drift is a nodal scalar.  Columns sum to
    zero (partition of unity), which is what conserves total content under
    no-flux stepping.
    """
    moved, drifted = _convection_weights(mesh, velocity, drift, drift_tensor)
    t = mesh.triangles
    n = mesh.num_nodes
    rows, cols = _element_pairs(t, t, (n, n))
    return _scatter(rows, cols, np.repeat((moved - drift_sign * drifted).T,
                                          3, axis=1), (n, n))


def boundary_edge_geometry(mesh):
    """Endpoints (B, 2), lengths (B,) and unit normals (B, 2) outward of
    the fluid of the inclusion boundary edges, in the order of
    tagged_edges."""
    pairs = tagged_edges(mesh, {GAMMA_INTERIOR})
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
    return pairs, length, normal


def assemble_interface_normal_load(mesh, direction):
    """Load vector -integral (e_j . nu) phi_i ds over the inclusion boundary.

    nu is the unit normal pointing out of the fluid; this is the natural
    boundary datum of the periodic corrector problems, and it sums to zero
    over each closed interface (discretely, to rounding).
    """
    pairs, length, normal = boundary_edge_geometry(mesh)
    flux = -normal[:, direction] * length / 2.0
    return np.bincount(pairs.ravel(), weights=np.repeat(flux, 2),
                       minlength=mesh.num_nodes)


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


def apply_dirichlet(matrix, nodes):
    """The matrix with the rows and columns of nodes zeroed and a unit
    diagonal on them, as a CSR matrix with sorted indices and no stored
    zeros.  The caller sets the pinned rows of its right-hand side and
    lifts nonzero prescribed values off the free rows."""
    matrix = sp.csr_matrix(matrix, dtype=float)
    matrix.sum_duplicates()
    pinned = np.zeros(matrix.shape[0], dtype=bool)
    pinned[nodes] = True
    keep = matrix.data != 0
    keep &= ~pinned[matrix.indices]
    keep &= ~np.repeat(pinned, np.diff(matrix.indptr))
    kept = np.zeros(len(keep) + 1, dtype=matrix.indptr.dtype)
    np.cumsum(keep, out=kept[1:])
    free = sp.csr_matrix((matrix.data[keep], matrix.indices[keep],
                          kept[matrix.indptr]), shape=matrix.shape)
    del keep, kept
    return free + sp.diags(pinned.astype(float))


# ----------------------------------------------------------------------
# solvers


def symmetric_lu(matrix, relax=None):
    """SuperLU factorization of a structurally symmetric matrix.

    The columns are ordered by minimum degree on A^T + A, and a diagonal
    entry is kept as pivot while it is at least 0.01 times the largest
    of its column (Li, ACM TOMS 31, 2005).  A threshold of 0 accepts any
    nonzero diagonal, however small, which on the zero-diagonal rows of
    a bordered or saddle system returns wrong solutions silently; 0.1
    fills the eps=1/8 Stokes saddle almost twice as much as COLAMD.
    relax bounds the size of the relaxed supernodes; None keeps
    SuperLU's own value.  The panel, the number of columns the
    factorization updates together, is 1: SuperLU sizes its work arrays
    by the panel, at about 350 bytes per row with its default, on top of
    the factors.  The ordering, the pivots and the fill do not depend on
    it.  With it the eps=1/16 Stokes saddle factored within 2% of the
    default's time, and the other blocks measured 26-39% faster.
    """
    return splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01,
                relax=relax, panel_size=1, options={"SymmetricMode": True})


def _stack_columns(strips, height):
    """The CSC matrix with height rows whose columns are those of the
    strips in turn, written in one pass.

    A strip is a list of blocks of one width stacked top to bottom, each
    block an (offset, indptr, indices, data) whose column c holds the
    rows indices[indptr[c]:indptr[c + 1]], sorted and below the next
    block's offset once offset is added to them, with their values in
    data; indptr may be a slice of a wider matrix's."""
    counts = np.concatenate([sum(np.diff(block[1]) for block in strip)
                             for strip in strips])
    indptr = np.zeros(len(counts) + 1, dtype=np.intc)
    np.cumsum(counts, out=indptr[1:])
    del counts
    indices = np.empty(indptr[-1], dtype=np.intc)
    data = np.empty(indptr[-1])
    first = 0
    for strip in strips:
        width = len(strip[0][1]) - 1
        # The next free slot of each column of the strip.
        free = indptr[first:first + width].copy()
        for offset, ptr, rows, values in strip:
            count = np.diff(ptr)
            slots = np.repeat(free - ptr[:-1], count)
            slots += np.arange(ptr[0], ptr[-1], dtype=np.intc)
            rows = rows[ptr[0]:ptr[-1]]
            indices[slots] = rows + offset if offset else rows
            data[slots] = values[ptr[0]:ptr[-1]]
            free += count
            del slots
        first += width
    return sp.csc_matrix((data, indices, indptr),
                         shape=(height, len(indptr) - 1))


def _border(weight):
    """The nonzero entries of weight as the blocks of _stack_columns of
    the row w^T and of the column w."""
    weight = np.asarray(weight, dtype=float)
    keep = weight != 0
    values = weight[keep]
    ptr = np.zeros(len(weight) + 1, dtype=np.intc)
    np.cumsum(keep, out=ptr[1:])
    row = (ptr, np.zeros(len(values), dtype=np.intc), values)
    column = (np.array([0, len(values)], dtype=np.intc),
              np.flatnonzero(keep).astype(np.intc), values)
    return row, column


def bordered(matrix, weight):
    """The CSC matrix [[matrix, w], [w^T, 0]] of a square matrix without
    duplicate entries, written in one pass.  Like sp.bmat, it keeps the
    stored zeros of matrix and drops the zero entries of w."""
    matrix = sp.csc_matrix(matrix)
    n = matrix.shape[0]
    row, column = _border(weight)
    return _stack_columns(
        [[(0, matrix.indptr, matrix.indices, matrix.data), (n,) + row],
         [(0,) + column]], n + 1)


class ZeroMeanLU:
    """LU of a singular operator bordered by the constraint weight . u = 0.

    The bordered matrix [[matrix, w], [w^T, 0]] is factored once; solve
    returns the u part of its solution for the right-hand side (rhs, 0),
    which for a compatible rhs is the solution of matrix u = rhs with
    w . u = 0.  Callers check or project their rhs themselves.  Only
    the LU is kept.
    """

    def __init__(self, matrix, weight):
        self._lu = symmetric_lu(bordered(matrix, weight))

    def solve(self, rhs):
        return self._lu.solve(np.append(rhs, 0.0))[:-1]


def _unique_slots(keys):
    """The sorted distinct values of keys and, for each key, the position
    of its value among them, as np.unique(keys, return_inverse=True)
    gives them, with the positions in int32 where they fit."""
    order = np.argsort(keys)
    keys = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    distinct = keys[first]
    del keys
    rank = np.cumsum(first, dtype=_index_dtype(len(distinct)))
    del first
    rank -= 1
    slot = np.empty_like(rank)
    slot[order] = rank
    return distinct, slot


class TransportSolver:
    """The coupled transport block of one run, refilled for each new set of
    fields and solved at every sweep.

    Over (c+, c-) the block is [[M + dt (K - B+ + M), -dt M], [-dt M,
    M + dt (K - B- + M)]], with M = diag(lumped), K the stiffness and B+
    and B- the convection matrices of assemble_convection with drift_sign
    +1 and -1.  Only B+ and B- change during a run, and only in value, so
    the CSC pattern of the block attribute (the element pairs of the
    mesh, the stiffness and the diagonals) is fixed here, together with
    the slot in the block of every element pair of both species, listed
    in the order of the element weights the pairs take, and the slots of
    its 2n diagonal entries.  refill computes the velocity and the drift
    weights once each; c+ takes their difference and c- their sum, and
    np.add.at adds them to the block's values, in place, over those
    slots, in four chunks of each species' weights, each repeated for
    the three entries that take it.  np.add.at adds in the order of the
    slots, so the values equal bit for bit those of one bincount over
    all 6M weights repeated three times (M elements), without that copy
    or an output array beside the block's values.  The lumped mass is
    added at the diagonal slots.  dt is read at every refill.

    The species are coupled only through the reaction -dt M, so a
    factorization factors the two diagonal species blocks apart, each by
    symmetric_lu with relax=1 (see the module docstring): their LUs
    together store less than half the entries of the coupled block's.
    They are factored from float32 copies of the blocks, and each
    residual is cast to the dtype of the LU it is solved on.  The LUs
    only precondition a refinement against the exact float64 block, and
    such a refinement reaches the residual of double precision while
    the condition number times the unit roundoff of the factorization
    stays well below 1 (Carson & Higham, SIAM J. Sci. Comput. 40, 2018),
    about 1e-5 at dt=2e-3; single precision halves the bytes of their
    values and takes no more refinement steps in the benchmark runs.
    Every solve refines x <- x + P (b - A x) against the whole block A,
    until the true residual satisfies ||b - A x|| <= TRANSPORT_TOL ||b||
    or a step fails to halve it.  One application of P solves the
    residual with the species LUs and then adds to each species the
    constant that makes its summed residual zero: with Z the (2n, 2)
    matrix of the constant vector of each species, it solves the 2x2
    Galerkin system Z^T A Z for those constants (Nicolaides, SIAM J.
    Numer. Anal. 24, 1987).  refill computes the summed rows Z^T A of the
    block and Z^T A Z, so a step costs one block product and the species
    solves.  Z^T (b - A x) is the change of each species' lumped content
    against the reaction, so every solve conserves the total content and
    decays the charge as Q / (1 + 2 dt) to round-off, however far its
    residual lies from the gate.  The correction also takes the constant
    modes, which the species LUs contract only by dt / (1 + dt), out of
    the refinement: a mode of eigenvalue lambda of M^-1 K is contracted
    by about dt / (1 + dt (1 + lambda)), below 0.1 per step at any dt for
    unit diffusion on the unit square (lambda >= pi^2).

    The first solve factors the species blocks and refines from zero.
    A later solve starts from the solution the solver returned last and
    refines it on the kept LUs; when that misses the gate, the LUs are
    dropped and the current blocks factored and solved afresh.  Between
    the sweeps and steps of one run the block changes only through the
    convection and drift terms, so lagged LUs contract the error far
    faster than by half, and the last solution is closer to the new one
    than zero is.  When fresh species LUs cannot refine their own
    solution to the gate (strong convection over a long step, or a step
    so long that the rounding errors of the residual lie above the gate,
    as at dt=10 on the h=1/32 square), the coupled block is factored in
    float64 by symmetric_lu with relax=1 instead and solved the same
    way, and the last iterate is returned: threshold pivoting can leave
    a strongly convective block a residual several times that of
    partial pivoting.  Every later factorization of that solver factors
    the coupled block at once.  When the returned solution misses the
    gate, the block's attainable residual lies above TRANSPORT_TOL, and
    the refined solves on these LUs are gated at TRANSPORT_REACH times
    the relative residual it reached instead, so such a block is not
    factored again at every solve.  factorizations counts the solves
    that factored the species blocks, coupled_factorizations those that
    factored the coupled block (after the species blocks on the first
    fallback, alone on every later one), refined_solves the solves
    accepted on kept LUs, and refinement_steps the applications of P
    every returned solution took beyond the first.
    """

    def __init__(self, mesh, stiffness, lumped, dt):
        self.mesh = mesh
        self.lumped = np.asarray(lumped, dtype=float)
        self.dt = dt
        n = mesh.num_nodes
        m = mesh.num_triangles
        width = 2 * n
        k = sp.coo_matrix(stiffness)
        # Entry (row, col) of the block has the key col 2n + row.
        dtype = _index_dtype(width ** 2)

        def keys_of(rows, cols):
            keys = np.multiply(cols, width, dtype=dtype)
            keys += rows
            return keys

        rows, cols = _element_pairs(mesh.triangles, mesh.triangles,
                                    (width, width))
        element = keys_of(rows.ravel(), cols.ravel())
        del rows, cols
        stiff = keys_of(k.row, k.col)
        diagonal = np.arange(n, dtype=dtype) * (width + 1)
        shift = n * (width + 1)
        # Entries: the element pairs of both species, then K, the mass
        # and the reaction of both.
        keys, slot = _unique_slots(np.concatenate([
            element, element + shift, stiff, stiff + shift, diagonal,
            diagonal + shift, diagonal + n * width, diagonal + n]))
        del element, stiff, diagonal
        fixed = 18 * m
        # Element entry 9 K + 3 i + j of a species (row t[K, i], column
        # t[K, j]) takes weight [i, K] of that species' weights, which
        # refill stacks as those of c+ and then of c-; in weight order,
        # three entries take each weight.
        self._weight_slots = slot[:fixed].reshape(2, m, 3, 3).transpose(
            0, 2, 1, 3).ravel()
        # The slots of the diagonal, where the mass goes, and the values
        # that dt multiplies.
        self._diagonal_slots = slot[fixed + 2 * k.nnz:][:width].copy()
        self._scaled = np.bincount(slot[fixed:], weights=np.concatenate(
            [k.data, k.data, np.tile(self.lumped, 2),
             np.tile(-self.lumped, 2)]), minlength=len(keys))
        del slot
        indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(keys // width, minlength=width))])
        self.block = sp.csc_matrix(
            (np.empty(len(keys)), (keys % width).astype(np.intc, copy=False),
             indptr.astype(np.intc)), shape=(width, width))
        del keys, indptr
        self.refill(None, None, None)
        self._lu = None
        self._last = None
        self._tol = TRANSPORT_TOL
        self._coupled = False
        self.factorizations = 0
        self.coupled_factorizations = 0
        self.refined_solves = 0
        self.refinement_steps = 0

    def refill(self, velocity, drift, tensor):
        """Set block, in place, for the field w = velocity -+ tensor
        grad(drift) of c+ and c- (None for none), as assemble_convection
        takes them, and the summed rows and Galerkin system of the
        content correction."""
        moved, drifted = _convection_weights(self.mesh, velocity, drift,
                                             tensor)
        moved, drifted = moved.ravel(), drifted.ravel()
        count = len(moved)
        values = self.block.data
        values.fill(0.0)
        # c+ takes the difference of the weights and c- their sum, each
        # scattered in four chunks, so no copy of all the weights is made.
        step = -(-count // 4)
        for species, combine in enumerate((np.subtract, np.add)):
            slots = self._weight_slots[3 * count * species:]
            for start in range(0, count, step):
                chunk = combine(moved[start:start + step],
                                drifted[start:start + step])
                np.add.at(values, slots[3 * start:3 * (start + len(chunk))],
                          np.repeat(chunk, 3))
        del moved, drifted
        np.subtract(self._scaled, values, out=values)
        values *= self.dt
        n = len(self.lumped)
        for diagonal in (self._diagonal_slots[:n], self._diagonal_slots[n:]):
            values[diagonal] += self.lumped
        species = np.repeat(np.eye(2), n, axis=0)
        self._sums = (self.block.T @ species).T
        self._galerkin = self._sums @ species

    def _apply(self, residual):
        """P residual: the LU solves, then the constant per species that
        zeroes its summed residual."""
        step = np.empty_like(residual)
        for part, dtype, lu in self._lu:
            step[part] = lu.solve(residual[part].astype(dtype, copy=False))
        left = residual.reshape(2, -1).sum(axis=1) - self._sums @ step
        step += np.repeat(np.linalg.solve(self._galerkin, left),
                          len(self.lumped))
        return step

    def _refine(self, rhs, x, residual, norm, gate):
        """Apply x <- x + P residual until ||b - A x|| <= gate or a step
        fails to halve the residual norm; return the last x, its residual
        norm and the steps taken beyond the first."""
        for steps in itertools.count():
            x += self._apply(residual)
            residual = rhs - self.block @ x
            previous, norm = norm, np.linalg.norm(residual)
            if norm <= gate or not norm <= 0.5 * previous:
                return x, norm, steps

    def _fresh(self, rhs, gate):
        """Refine from zero on the LUs just factored."""
        return self._refine(rhs, np.zeros_like(rhs), rhs, np.inf, gate)

    def solve(self, rhs):
        scale = np.linalg.norm(rhs)
        if self._lu is not None:
            gate = self._tol * scale
            x, norm, steps = self._refine(
                rhs, self._last.copy(), rhs - self.block @ self._last,
                np.inf, gate)
            if norm <= gate:
                self.refined_solves += 1
                self.refinement_steps += steps
                self._last = x
                return x
            self._lu = None
        n = len(self.lumped)
        gate = TRANSPORT_TOL * scale
        if not self._coupled:
            self._lu = [(part, np.float32, symmetric_lu(
                self.block[part, part].astype(np.float32), relax=1))
                for part in (slice(0, n), slice(n, None))]
            self.factorizations += 1
            x, norm, steps = self._fresh(rhs, gate)
            self._coupled = not norm <= gate
        if self._coupled:
            self._lu = None
            self._lu = [(slice(None), float,
                         symmetric_lu(self.block, relax=1))]
            self.coupled_factorizations += 1
            x, norm, steps = self._fresh(rhs, gate)
        self.refinement_steps += steps
        self._tol = TRANSPORT_TOL if norm <= gate \
            else TRANSPORT_REACH * norm / scale
        self._last = x
        return x

    def profile(self):
        """The counters, and the entries of the kept LUs, by name."""
        return {"transport_factorizations": self.factorizations,
                "coupled_factorizations": self.coupled_factorizations,
                "refined_solves": self.refined_solves,
                "refinement_steps": self.refinement_steps,
                "lu_entries": 0 if self._lu is None
                else sum(lu.nnz for _, _, lu in self._lu)}


def step_reacting_pair(solver, velocity, drift, tensor, c_plus, c_minus,
                       refill=True):
    """Coupled implicit step for two species exchanging through the
    reaction pair (-q, +q) with q = c_plus - c_minus.

    solver is the TransportSolver of the run; its block is refilled for
    velocity, drift and tensor (see TransportSolver.refill), or without
    refill kept as the last refill left it, which must have read the
    same fields, and solved for the lumped content of (c_plus,
    c_minus).  Both species and the reaction are advanced in one block
    solve, so the discrete total charge obeys Q_new = Q_old / (1 + 2 dt)
    and the total mass is conserved whenever the operators have zero
    column sums (stiffness plus convection under no-flux conditions),
    both to round-off on every solve: each refinement step of the solver
    zeroes the summed residual of each species, however far the residual
    itself lies from TRANSPORT_TOL.
    """
    if refill:
        solver.refill(velocity, drift, tensor)
    rhs = np.concatenate([solver.lumped * c_plus, solver.lumped * c_minus])
    solution = solver.solve(rhs)
    n = len(solver.lumped)
    return solution[:n], solution[n:]


# ----------------------------------------------------------------------
# P2 space and Stokes


def p2_dof_count(mesh):
    return mesh.num_nodes + len(edge_table(mesh).edges)


def _edge_dof_operator(mesh):
    """(M, p2_dofs) CSR matrix with a 1 at each element's three edge dofs."""
    m = mesh.num_triangles
    return sp.csr_matrix(
        (np.ones(3 * m), (mesh.num_nodes + edge_table(mesh).tri_edges).ravel(),
         np.arange(0, 3 * m + 1, 3)), shape=(m, p2_dof_count(mesh)))


def p2_element_means(mesh, values):
    """Elementwise mean (M, 2) of a P2 velocity (p2_dofs, 2): the mean of
    its three edge values, exact for quadratics."""
    edges = _cached(mesh, "edge_dofs", _edge_dof_operator)
    return (edges @ np.asarray(values, dtype=float)) / 3.0


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
    return np.hstack([mesh.triangles,
                      mesh.num_nodes + edge_table(mesh).tri_edges])


def assemble_p2_stiffness(mesh):
    """Scalar P2 stiffness (one velocity component of the viscous term)."""
    areas, grads = triangle_data(mesh)
    m = mesh.num_triangles
    local = np.zeros((m, 6, 6))
    # Row i of grad(phi_i) . grad(phi_j) at each point, in buffers that
    # every row and point shares.
    product = np.empty((m, 6))
    term = np.empty((m, 6))
    for lam, w in zip(_QP4, _QW4):
        g = _p2_basis_gradients(lam, grads)
        for i in range(6):
            np.multiply(g[:, i, None, 0], g[:, :, 0], out=product)
            np.multiply(g[:, i, None, 1], g[:, :, 1], out=term)
            product += term
            product *= w
            local[:, i] += product
    del g, product, term
    local *= areas[:, None, None]
    dofs = _p2_global_dofs(mesh)
    n2 = p2_dof_count(mesh)
    rows, cols = _element_pairs(dofs, dofs, (n2, n2))
    return _scatter(rows, cols, local, (n2, n2))


def assemble_divergence(mesh):
    """P1-pressure rows of the constraint integral q * div(u).

    Returns (Bx, By) with shape (num_nodes, p2_dofs); the full constraint
    is Bx @ ux + By @ uy.
    """
    areas, grads = triangle_data(mesh)
    m = mesh.num_triangles
    # local[d, K, q, j] is the integral over K of lam_q d(phi_j)/dx_d.
    local = np.zeros((2, m, 3, 6))
    term = np.empty((2, m, 6))
    for lam, w in zip(_QP4, _QW4):
        g = _p2_basis_gradients(lam, grads).transpose(2, 0, 1)
        for q in range(3):
            np.multiply(lam[q], g, out=term)
            term *= w
            local[:, :, q] += term
    del g, term
    local *= areas[None, :, None, None]
    dofs = _p2_global_dofs(mesh)
    shape = (mesh.num_nodes, p2_dof_count(mesh))
    rows, cols = _element_pairs(mesh.triangles, dofs, shape)
    return tuple(_scatter(rows, cols, part, shape) for part in local)


def assemble_p2_load(mesh, forcing):
    """Load vector (p2_dofs, 2) for elementwise-constant vector forcing."""
    areas, _ = triangle_data(mesh)
    forcing = np.asarray(forcing, dtype=float)
    if forcing.ndim == 1:
        forcing = np.broadcast_to(forcing, (mesh.num_triangles, 2))
    # Vertex P2 basis functions integrate to zero over the element; the
    # edge ones integrate to area/3.
    edges = _cached(mesh, "edge_dofs", _edge_dof_operator)
    return edges.T @ (forcing * (areas / 3.0)[:, None])


def _p2_boundary_dofs(mesh, tags):
    """Sorted list of the vertex and edge dofs on edges with the given tags."""
    pairs = tagged_edges(mesh, tags)
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


def stokes_blocks(mesh, viscosity=1.0):
    """The blocks (a, b, fixed, pressure_weight, fold, pressure_fold) of
    the Taylor-Hood Stokes system on mesh.

    A mesh with periodic pairs is a periodic cell with no-slip on its
    inclusion (GammaInterior), and a cell without one raises
    NoSolidPhase; any other mesh has no-slip on every boundary edge.  a
    is the scalar P2 viscous block folded onto the periodic velocity
    dofs (fold^T A fold) with the no-slip dofs fixed pinned, b the
    divergence rows -[Bx By] on the folded pressure dofs with the pinned
    columns zeroed, and pressure_weight the folded lumped_mass.  The
    folds are None without periodic pairs: identities there, whose
    products would only drop the stored zeros, as the pinnings do.
    """
    periodic = len(mesh.periodic_pairs) > 0
    no_slip = _p2_boundary_dofs(
        mesh, {GAMMA_INTERIOR} if periodic else set(mesh.boundary_tags))
    if periodic and not no_slip:
        raise NoSolidPhase("periodic flow without a no-slip wall has no "
                           "unique velocity", where="fem.StokesOperator")
    fold = pressure_fold = None
    fixed = np.unique(no_slip)
    viscous = assemble_p2_stiffness(mesh)
    viscous.data *= viscosity
    if periodic:
        fold, cols = periodic_prolongation(p2_dof_count(mesh),
                                           _p2_periodic_pairs(mesh))
        pressure_fold, _ = periodic_prolongation(mesh.num_nodes,
                                                 mesh.periodic_pairs)
        fixed = np.unique(cols[no_slip])
        viscous = (fold.T @ viscous @ fold).tocsr()
    a = apply_dirichlet(viscous, fixed)
    del viscous
    divergence = assemble_divergence(mesh)
    for block in divergence:
        np.negative(block.data, out=block.data)
    if periodic:
        divergence = [(pressure_fold.T @ block @ fold).tocsr()
                      for block in divergence]
    for block in divergence:
        block.data[np.isin(block.indices, fixed)] = 0.0
        block.eliminate_zeros()
    b = sp.hstack(divergence, format="csr")
    # Sorted columns make the sums of b @ u run in dof order.
    b.sort_indices()
    weight = pressure_fold.T @ lumped_mass(mesh) if periodic \
        else lumped_mass(mesh)
    return a, b, fixed, weight, fold, pressure_fold


def stokes_saddle(a, b, weight):
    """The saddle [[blockdiag(a, a), b^T], [b, 0]] bordered by the weight
    (0, 0, weight), as bordered would make it, written in one pass.  a
    must be symmetric bit for bit, as that of stokes_blocks is (each of
    its off-diagonal entries sums at most two element values)."""
    n = a.shape[0]
    height = 2 * n + b.shape[0]
    columns = b.tocsc()
    row, column = _border(weight)
    strips = [[(k * n, a.indptr, a.indices, a.data),
               (2 * n, columns.indptr[k * n:(k + 1) * n + 1],
                columns.indices, columns.data)] for k in (0, 1)]
    strips += [[(0, b.indptr, b.indices, b.data), (height,) + row],
               [(2 * n,) + column]]
    return _stack_columns(strips, height + 1)


class StokesOperator:
    """Taylor-Hood Stokes operator with reusable factorization.

    It keeps its factorizations, not its assembly, and reads its route
    off the mesh.  A mesh without periodic pairs whose bordered saddle
    [[blockdiag(a, a), b^T], [b, 0]] of the blocks of stokes_blocks has
    fewer than DIRECT_DOF_LIMIT rows takes the direct route: the saddle
    is bordered (stokes_saddle), a and b are dropped, and the saddle is
    factored by symmetric_lu.  Every periodic cell and every larger mesh
    takes the Schur route, conjugate gradients on the pressure Schur
    complement S = b blockdiag(a, a)^-1 b^T, with one symmetric_lu of a
    for both components; that route keeps b and the LU, not a.  The
    periodic fold fills the saddle LU far more than a perforated mesh of
    the same size: the two cell problems at cell h=0.025 took 1.7 s
    direct and 0.15 s on this route.  The preconditioner M_p^-1 + theta
    L_p^-1 adds the inverse pressure Laplacian to the inverse lumped
    pressure mass, pressure_weight, because S acts like M_p / viscosity
    on pore-scale modes and like a Darcy operator K eps^2 / viscosity
    L_p on longer ones (Cahouet & Chabard, IJNMF 8, 1988); theta is read
    off the operator when it is built, and each solve starts from the
    pressure of the last one.  A solve stops at the relative residual
    tol (DEFAULT_TOL unless the caller asks for less): macro.run_steps
    asks for less on the sweeps whose fields the next sweep replaces,
    which cuts the Schur iterations of the eps=1/16 pore run of 50 steps
    from 1977 to 605 and moves its concentrations by at most 7e-10.  The
    direct route ignores tol.  laplacian, when given, is the pair
    (stiffness, lu) of the mesh's P1 stiffness and the caller's
    ZeroMeanLU of it under the lumped_mass constraint (the pore-scale
    Neumann potential's); a non-periodic operator on the
    Schur route takes lu as its L_p instead of factoring its own, and
    reads stiffness once, for theta, without keeping it.  Any other
    operator on that route factors the stiffness it assembles, folded
    when periodic, and drops it once theta is read.  solves and
    schur_iterations count the calls to solve and the conjugate-gradient
    iterations they took.
    """

    def __init__(self, mesh, viscosity=1.0, laplacian=None):
        self.mesh = mesh
        a, b, self.fixed, self.pressure_weight, self.fold, \
            self.pressure_fold = stokes_blocks(mesh, viscosity)
        self.solves = 0
        self.schur_iterations = 0
        self._last_pressure = None
        rows = 2 * a.shape[0] + b.shape[0]
        # The bordered saddle has one row more.
        if self.fold is None and rows + 1 < DIRECT_DOF_LIMIT:
            saddle = stokes_saddle(a, b, self.pressure_weight)
            del a, b
            self._lu = symmetric_lu(saddle)
            self._mode = "direct"
        else:
            # a is symmetric bit for bit, so its transpose is the CSC
            # matrix of the same arrays, with no copy.
            self._lu_a = symmetric_lu(a.T)
            del a
            self.b = b
            # A periodic operator factors its folded Laplacian itself.
            self._prepare_schur(laplacian if self.fold is None else None)
            self._mode = "schur_cg"
        log.debug("stokes operator: %d saddle rows, mode=%s", rows,
                  self._mode)

    def _prepare_schur(self, laplacian):
        # The weight is the lumped pressure mass on the folded pressure
        # dofs, and it borders the P1 stiffness there.
        weight = self.pressure_weight
        self.wp = weight / np.linalg.norm(weight)
        fold = self.pressure_fold
        coord = lumped_mass(self.mesh) * self.mesh.nodes[:, 0]
        if laplacian is None:
            laplacian = assemble_stiffness(self.mesh)
            if fold is not None:
                laplacian = fold.T @ laplacian @ fold
            self._lu_laplacian = ZeroMeanLU(laplacian, weight)
        else:
            laplacian, self._lu_laplacian = laplacian
        if fold is not None:
            coord = fold.T @ coord
        coord /= weight
        # theta is the ratio of two Rayleigh quotients of S: against the
        # mass on a broadband probe (about 1 / viscosity) and against the
        # Laplacian on the smooth probe x (about K eps^2 / viscosity).
        smooth = coord - (weight @ coord) / weight.sum()
        broad = self._project(
            np.random.default_rng(0).standard_normal(len(weight)))
        darcy = (smooth @ self._schur(smooth)) / (smooth @ laplacian @ smooth)
        fine = (broad @ self._schur(broad)) / (broad @ (weight * broad))
        self.theta = SCHUR_LAPLACE_WEIGHT * fine / darcy

    def _solve_velocity(self, rhs):
        """a^-1 on a stacked (ux, uy) vector, both components in one solve."""
        return self._lu_a.solve(rhs.reshape(2, -1).T).T.ravel()

    def _schur(self, p):
        return self.b @ self._solve_velocity(self.b.T @ p)

    def _project(self, v):
        return v - (self.wp @ v) * self.wp

    def _precondition(self, r):
        laplace = self._lu_laplacian.solve(r)
        return r / self.pressure_weight + self.theta * laplace

    def profile(self):
        """The counters, and the entries of the LU that the build
        factored (the saddle's, or a's on the Schur route), by name."""
        lu = self._lu if self._mode == "direct" else self._lu_a
        return {"stokes_solves": self.solves,
                "schur_iterations": self.schur_iterations,
                "stokes_lu_entries": lu.nnz}

    def _load(self, forcing):
        """The stacked (ux, uy) velocity load of the folded saddle for
        elementwise-constant forcing, zero at the pinned dofs."""
        load = assemble_p2_load(self.mesh, forcing)
        if self.fold is not None:
            load = self.fold.T @ load
        load[self.fixed] = 0.0
        return load.T.ravel()

    def solve(self, forcing, tol=DEFAULT_TOL):
        """Velocity (p2_dofs, 2) and pressure for elementwise-constant
        forcing.  The Schur route stops at the relative residual tol; the
        direct route ignores it."""
        if self._mode == "direct":
            rhs = self._load(forcing)
            u, p = np.split(self._lu.solve(np.append(
                rhs, np.zeros(len(self.pressure_weight) + 1)))[:-1],
                [len(rhs)])
        else:
            u, p = self._solve_schur_cg(forcing, tol)
        self.solves += 1
        u = u.reshape(2, -1).T
        if self.fold is None:
            return u.copy(), p.copy()
        return self.fold @ u, self.pressure_fold @ p

    def _solve_schur_cg(self, forcing, tol):
        """Stacked velocity and pressure of the folded saddle for
        elementwise-constant forcing.  The load is assembled again for
        the last velocity solve instead of held through the iterations,
        which allocate two vectors of its size at every step."""
        g = self.b @ self._solve_velocity(self._load(forcing))
        p = np.zeros(len(self.pressure_weight))
        r = self._project(g)
        # The stop test stays relative to the cold-start residual, so a
        # warm start leaves the tolerance as it is.
        gnorm = float(np.linalg.norm(r))
        if gnorm > 0 and self._last_pressure is not None:
            p = self._last_pressure.copy()
            r = self._project(g - self._schur(p))
        if float(np.linalg.norm(r)) > tol * gnorm:
            z = self._precondition(r)
            d = z.copy()
            rz = float(r @ z)
            for it in range(1, SCHUR_MAX_ITER + 1):
                sd = self._project(self._schur(d))
                dsd = float(d @ sd)
                if dsd <= 0:
                    raise SolverBreakdown("Schur complement lost positivity",
                                          where="fem.StokesOperator.solve")
                alpha = rz / dsd
                p += alpha * d
                r -= alpha * sd
                if float(np.linalg.norm(r)) <= tol * gnorm:
                    break
                z = self._precondition(r)
                rz_new = float(r @ z)
                d = z + (rz_new / rz) * d
                rz = rz_new
            else:
                raise MaxIterationsExceeded(
                    "Schur-complement CG exceeded %d iterations"
                    % SCHUR_MAX_ITER, where="fem.StokesOperator.solve")
            self.schur_iterations += it
        self._last_pressure = p
        rhs = self._load(forcing)
        rhs -= self.b.T @ p
        u = self._solve_velocity(rhs)
        # Shift pressure to zero weighted mean.
        weight = self.pressure_weight
        return u, p - (weight @ p) / np.sum(weight)


def weak_divergence(mesh, vel):
    """Residual vector of the discrete incompressibility constraint.

    On periodic meshes the constraint is tested against the periodic
    pressure space, so paired rows are folded together.
    """
    bx, by = assemble_divergence(mesh)
    residual = bx @ vel[:, 0] + by @ vel[:, 1]
    if len(mesh.periodic_pairs):
        p, _ = periodic_prolongation(mesh.num_nodes, mesh.periodic_pairs)
        residual = p.T @ residual
    return residual


def integrate_p2(mesh, vel):
    """Integral of a P2 vector field over the mesh, shape (2,)."""
    areas, _ = triangle_data(mesh)
    return areas @ p2_element_means(mesh, vel)


# ----------------------------------------------------------------------
# interpolation


def p1_interpolate(mesh, values, points):
    """Evaluate P1 fields on the structured unit square at points in it.

    mesh is the n x n square of generate_unit_cell_mesh(UnitCellGeometry(
    None, h)), whose cell (i, j) holds triangle 2 (n i + j) below its
    diagonal and the next one above, so a point's triangle and barycentric
    coordinates follow from floor(n x), floor(n y) and one comparison.
    values is one nodal scalar (N,) or k of them (N, k); the result is
    (P,) or (P, k).
    """
    n = int(round(np.sqrt(mesh.num_triangles / 2)))
    scaled = n * np.atleast_2d(np.asarray(points, dtype=float))
    cell = np.clip(np.floor(scaled), 0, n - 1).astype(int)
    s, t = (scaled - cell).T
    upper = t > s
    tris = 2 * (n * cell[:, 0] + cell[:, 1]) + upper
    lam = np.where(upper[:, None], np.column_stack([1 - t, s, t - s]),
                   np.column_stack([1 - s, s - t, t]))
    values = np.asarray(values, dtype=float)
    return np.einsum("pi,pi...->p...", lam, values[mesh.triangles[tris]])


def l2_norm(mesh, values):
    """Mass-weighted L2 norm of a nodal scalar."""
    values = np.asarray(values, dtype=float)
    return float(np.sqrt(values @ (mass_matrix(mesh) @ values)))
