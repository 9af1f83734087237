"""Assembly, constraint, and solver behavior of the finite-element core."""

import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from snpp import fem
from snpp.errors import (
    DegenerateElement,
    FieldMeshMismatch,
    MaxIterationsExceeded,
    NoSolidPhase,
    SolverBreakdown,
)
from snpp.mesh import (
    GAMMA_INTERIOR,
    OUTER_BOUNDARY,
    DiskInclusion,
    TriMesh,
    UnitCellGeometry,
    PerforatedDomain,
    edge_table,
    generate_perforated_mesh,
    generate_unit_cell_mesh,
    tagged_edges,
)

from oracles import (
    bordered_bmat,
    convection_coo,
    convection_reference,
    dense_p1_convection,
    dense_p1_mass,
    dense_p1_stiffness,
    dirichlet_by_masks,
    divergence_coo,
    element_means_reference,
    gauss_solve,
    gradient_load_reference,
    interface_normal_load_reference,
    lumped_mass_reference,
    p1_mass_coo,
    p1_stiffness_coo,
    p1_element_gradients_reference,
    p1_interpolate_reference,
    p2_element_means_reference,
    p2_load_reference,
    p2_stiffness_coo,
    reacting_pair_block,
    reacting_pair_step,
    recover_nodal_gradient_reference,
    relative_weak_divergence,
    solve_spd,
    stokes_blocks_coo,
    stokes_direct_solve,
    stokes_saddle_bmat,
    stokes_saddle_reference,
    transport_block_coo,
    tri_area,
)


def one_triangle_mesh(coords):
    coords = np.asarray(coords, dtype=float)
    if tri_area(coords) < 0:
        coords = coords[[0, 2, 1]]
    return TriMesh(coords, np.array([[0, 1, 2]]),
                   np.array([[0, 1], [1, 2], [2, 0]]),
                   np.array(3 * [OUTER_BOUNDARY]),
                   np.empty((0, 2), dtype=int))


def square_mesh(h):
    return generate_unit_cell_mesh(UnitCellGeometry(None, h))


def disk_mesh(h, radius=0.25):
    geom = UnitCellGeometry(DiskInclusion((0.5, 0.5), radius), h)
    return generate_unit_cell_mesh(geom)


PERIODIC_CELL = {"periodic": True, "no_slip_tags": [GAMMA_INTERIOR]}


def random_triangles(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        coords = rng.uniform(-1.0, 2.0, size=(3, 2))
        if abs(tri_area(coords)) > 0.05:
            out.append(coords)
    return out


def test_mass_matrix_single_triangle_closed_form():
    coords = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    mesh = one_triangle_mesh(coords)
    mass = fem.assemble_mass(mesh).toarray()
    expected = (0.5 / 12.0) * np.array(
        [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    assert np.allclose(mass, expected, atol=1e-15)
    assert np.allclose(mass, dense_p1_mass(coords), atol=1e-12)


def test_lumped_mass_preserves_row_sums():
    mesh = square_mesh(0.25)
    consistent = fem.assemble_mass(mesh)
    lumped = fem.lumped_mass(mesh)
    row_sums = np.asarray(consistent.sum(axis=1)).ravel()
    assert np.allclose(lumped, row_sums, atol=1e-15)
    assert lumped.sum() == pytest.approx(1.0, abs=1e-12)
    # It is cached on the mesh and shared by every caller.
    assert fem.lumped_mass(mesh) is lumped
    with pytest.raises(ValueError):
        lumped[0] = 0.0


@pytest.mark.parametrize("make_mesh", [
    lambda: square_mesh(1 / 64), lambda: disk_mesh(1 / 32),
    lambda: eighth_mesh()],
    ids=["square", "periodic_cell", "pore_eps8"])
def test_lumped_mass_is_the_zero_mean_weight_of_the_consistent_mass(
        make_mesh):
    # The lumped mass is the weight of every zero-mean constraint, in
    # place of the row sums of the consistent mass, which it equals up to
    # the order of the sums: by 1.1e-16, 1.7e-16 and 1.7e-16 of the
    # largest row sum here.
    mesh = make_mesh()
    row_sums = fem.assemble_mass(mesh) @ np.ones(mesh.num_nodes)
    assert np.max(np.abs(fem.lumped_mass(mesh) - row_sums)) \
        <= 1e-15 * np.max(np.abs(row_sums))


def test_the_gradient_operator_holds_the_gradients_of_triangle_data():
    # One array of P1 gradient values per mesh: the gradient operator's
    # values are the gradients of triangle_data, not a copy of them.
    mesh = disk_mesh(1 / 16)
    _, grads = fem.triangle_data(mesh)
    fem.p1_element_gradients(mesh, np.zeros(mesh.num_nodes))
    assert np.shares_memory(grads, mesh._caches["gradient"].data)
    assert "convection" not in mesh._caches


def test_stiffness_matches_quadrature_oracle_on_random_triangles():
    coeff = np.array([[2.0, 0.3], [0.3, 1.0]])
    for coords in random_triangles(5, seed=11):
        mesh = one_triangle_mesh(coords)
        ours = fem.assemble_stiffness(mesh, coeff).toarray()
        ref = dense_p1_stiffness(mesh.nodes, coeff)
        assert np.max(np.abs(ours - ref)) < 1e-12


def test_stiffness_zero_row_sums_and_linear_energy():
    mesh = square_mesh(1.0 / 8.0)
    stiff = fem.assemble_stiffness(mesh)
    row_sums = np.asarray(stiff @ np.ones(mesh.num_nodes))
    assert np.max(np.abs(row_sums)) < 1e-13
    u = mesh.nodes[:, 0]
    assert u @ (stiff @ u) == pytest.approx(1.0, abs=1e-13)


def test_convection_matches_quadrature_oracle():
    for k, coords in enumerate(random_triangles(5, seed=23)):
        mesh = one_triangle_mesh(coords)
        w = np.array([0.7 - 0.1 * k, -0.4 + 0.05 * k])
        ours = fem.assemble_convection(
            mesh, velocity=w.reshape(1, 2)).toarray()
        ref = dense_p1_convection(mesh.nodes, lambda _: w)
        assert np.max(np.abs(ours - ref)) < 1e-12


def test_convection_zero_velocity_and_zero_column_sums():
    mesh = disk_mesh(0.1)
    zero = fem.assemble_convection(mesh, velocity=None)
    assert zero.nnz == 0 or np.max(np.abs(zero.data)) == 0.0
    rng = np.random.default_rng(3)
    vel = rng.normal(size=(mesh.num_triangles, 2))
    conv = fem.assemble_convection(mesh, velocity=vel)
    col_sums = np.asarray(np.ones(mesh.num_nodes) @ conv)
    assert np.max(np.abs(col_sums)) < 1e-12


def test_convection_drift_uses_potential_gradient():
    mesh = square_mesh(0.25)
    phi = 2.0 * mesh.nodes[:, 0] + 1.0 * mesh.nodes[:, 1]
    via_drift = fem.assemble_convection(mesh, drift=phi, drift_sign=1.0)
    direct = fem.assemble_convection(
        mesh, velocity=np.tile([-2.0, -1.0], (mesh.num_triangles, 1)))
    assert np.max(np.abs((via_drift - direct).toarray())) < 1e-12
    tensor = np.array([[0.5, 0.0], [0.0, 2.0]])
    via_tensor = fem.assemble_convection(mesh, drift=phi, drift_tensor=tensor,
                                         drift_sign=-1.0)
    direct2 = fem.assemble_convection(
        mesh, velocity=np.tile([1.0, 2.0], (mesh.num_triangles, 1)))
    assert np.max(np.abs((via_tensor - direct2).toarray())) < 1e-12


def test_solve_spd_matches_dense_oracle():
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(40, 40))
    dense = raw @ raw.T + 40.0 * np.eye(40)
    rhs = rng.normal(size=40)
    x = solve_spd(sp.csr_matrix(dense), rhs, tol=1e-12)
    ref = gauss_solve(dense, rhs)
    assert np.max(np.abs(x - ref)) < 1e-9


def test_solve_spd_rejects_indefinite_matrix():
    matrix = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(SolverBreakdown):
        solve_spd(matrix, np.array([1.0, -1.0]))
    with pytest.raises(SolverBreakdown):
        solve_spd(sp.csr_matrix(np.diag([1.0, -1.0])),
                  np.array([1.0, 1.0]))


def test_solve_spd_rejects_incompatible_singular_system():
    mesh = square_mesh(0.25)
    stiff = fem.assemble_stiffness(mesh)
    rhs = fem.assemble_mass(mesh) @ np.ones(mesh.num_nodes)
    with pytest.raises((SolverBreakdown, MaxIterationsExceeded)):
        solve_spd(stiff, rhs)
    # On the lumped mass, equal to those row sums up to the last bits,
    # the recursive residual converges while the iterate does not, so
    # only the true residual tells.
    with pytest.raises(SolverBreakdown, match="true relative residual"):
        solve_spd(stiff, fem.lumped_mass(mesh))


def test_solve_spd_max_iterations():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(60, 60))
    dense = raw @ raw.T + 1e-4 * np.eye(60)
    with pytest.raises(MaxIterationsExceeded):
        solve_spd(sp.csr_matrix(dense), rng.normal(size=60),
                  tol=1e-14, max_iter=3)


def test_neumann_poisson_with_projection_and_mean_shift():
    mesh = square_mesh(1.0 / 16.0)
    stiff = fem.assemble_stiffness(mesh)
    mass = fem.assemble_mass(mesh)
    x, y = mesh.nodes.T
    exact = np.cos(np.pi * x) * np.cos(np.pi * y)
    forcing = 2.0 * np.pi ** 2 * exact
    rhs = mass @ forcing
    lumped = fem.lumped_mass(mesh)
    u = solve_spd(stiff, rhs, project_constant=True, mean_weight=lumped)
    assert abs(lumped @ u) < 1e-10
    assert fem.l2_norm(mesh, u - exact) < 0.02


def test_zero_mean_constraint_direct_route():
    mesh = square_mesh(1.0 / 16.0)
    stiff = fem.assemble_stiffness(mesh)
    mass = fem.assemble_mass(mesh)
    weight = fem.lumped_mass(mesh)
    x, y = mesh.nodes.T
    forcing = 2.0 * np.pi ** 2 * np.cos(np.pi * x) * np.cos(np.pi * y)
    # Remove the discrete kernel component so both solution routes see the
    # same exactly compatible right-hand side.
    forcing = forcing - (weight @ forcing) / weight.sum()
    u = fem.ZeroMeanLU(stiff, weight).solve(mass @ forcing)
    assert abs(weight @ u) < 1e-10
    u_cg = solve_spd(stiff, mass @ forcing, project_constant=True,
                     mean_weight=weight)
    assert fem.l2_norm(mesh, u - u_cg) < 1e-7


def test_dirichlet_elimination():
    mesh = square_mesh(1.0 / 16.0)
    stiff = fem.assemble_stiffness(mesh)
    mass = fem.assemble_mass(mesh)
    fixed = np.unique(tagged_edges(mesh, {OUTER_BOUNDARY}))
    matrix = fem.apply_dirichlet(stiff.copy(), fixed)
    u = solve_spd(matrix, np.zeros(mesh.num_nodes))
    assert np.max(np.abs(u)) == 0.0
    x, y = mesh.nodes.T
    exact = x * (1 - x) * y * (1 - y)
    forcing = 2.0 * (y * (1 - y) + x * (1 - x))
    rhs = mass @ forcing
    rhs[fixed] = 0.0
    u = solve_spd(matrix, rhs)
    assert fem.l2_norm(mesh, u - exact) < 5e-3


def test_periodic_reduction_solves_shifted_problem():
    mesh = square_mesh(1.0 / 8.0)
    stiff = fem.assemble_stiffness(mesh)
    mass = fem.assemble_mass(mesh)
    x, y = mesh.nodes.T
    exact = (np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y)) / 2.0
    forcing = 4.0 * np.pi ** 2 * exact
    fold, _ = fem.periodic_prolongation(mesh.num_nodes, mesh.periodic_pairs)
    weight = fold.T @ fem.lumped_mass(mesh)
    lu = fem.ZeroMeanLU(fold.T @ stiff @ fold, weight)
    u = fold @ lu.solve(fold.T @ (mass @ forcing))
    pairs = mesh.periodic_pairs
    assert np.max(np.abs(u[pairs[:, 0]] - u[pairs[:, 1]])) == 0.0
    assert fem.l2_norm(mesh, u - exact) < 0.03


def test_symmetric_lu_does_not_pivot_on_zero_diagonals():
    # The bordered saddle and potential carry zero diagonals.  With a
    # pivot threshold of 0 SuperLU keeps diagonal pivots wherever they
    # are nonzero, however small, and returns relative residuals of 0.36
    # and 5e-5 on these systems without an error.
    eps = 0.125
    mesh = generate_perforated_mesh(
        PerforatedDomain(eps, UnitCellGeometry(
            DiskInclusion((0.5, 0.5), 0.25), 0.125)), 1 / 32)
    rng = np.random.default_rng(8)
    for bordered in (stokes_saddle_of(mesh, eps ** 2), fem.bordered(
            fem.assemble_stiffness(mesh), fem.lumped_mass(mesh))):
        rhs = rng.standard_normal(bordered.shape[0])
        x = fem.symmetric_lu(bordered).solve(rhs)
        assert np.linalg.norm(bordered @ x - rhs) \
            <= 1e-12 * np.linalg.norm(rhs)


def test_reacting_pair_charge_decay_is_exact():
    mesh = disk_mesh(0.1)
    stiff = fem.assemble_stiffness(mesh)
    lumped = fem.lumped_mass(mesh)
    rng = np.random.default_rng(2)
    c_plus = 1.0 + 0.3 * rng.uniform(-1, 1, mesh.num_nodes)
    c_minus = 1.0 + 0.3 * rng.uniform(-1, 1, mesh.num_nodes)
    dt = 0.05
    charge = lumped @ (c_plus - c_minus)
    total = lumped @ (c_plus + c_minus)
    norms = [fem.l2_norm(mesh, c_plus + c_minus)]
    solver = fem.TransportSolver(mesh, stiff, lumped, dt)
    for _ in range(5):
        c_plus, c_minus = fem.step_reacting_pair(
            solver, None, None, None, c_plus, c_minus)
        charge_new = lumped @ (c_plus - c_minus)
        assert charge_new == pytest.approx(charge / (1 + 2 * dt), rel=1e-12)
        charge = charge_new
        norms.append(fem.l2_norm(mesh, c_plus + c_minus))
    total_new = lumped @ (c_plus + c_minus)
    assert total_new == pytest.approx(total, rel=1e-12)
    # The sum obeys an implicit heat step, so its L2 norm cannot grow.
    assert all(b <= a + 1e-13 for a, b in zip(norms, norms[1:]))


DRIFT_TENSOR = np.diag([0.6, 0.4])


def drift_potential(mesh, scale):
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    return scale * (np.sin(2 * np.pi * x) * np.cos(np.pi * y) + x * y)


def perforated_quarter_mesh():
    return generate_perforated_mesh(
        PerforatedDomain(0.25, UnitCellGeometry(
            DiskInclusion((0.5, 0.5), 0.25), 0.125)), 1 / 32)


@pytest.mark.parametrize("make_mesh", [lambda: square_mesh(1 / 16),
                                       perforated_quarter_mesh],
                         ids=["macro_square", "perforated_quarter"])
def test_refilled_block_matches_sparse_sum_route(make_mesh):
    mesh = make_mesh()
    stiff = fem.assemble_stiffness(mesh, DRIFT_TENSOR)
    lumped = 0.8 * fem.lumped_mass(mesh)
    dt = 2e-3
    velocity = np.random.default_rng(4).normal(size=(mesh.num_triangles, 2))
    phi = drift_potential(mesh, 1.0)
    solver = fem.TransportSolver(mesh, stiff, lumped, dt)
    # The last case refills after the others, so no stale convection
    # value may survive a refill.
    for fields in ((velocity, phi, np.eye(2)), (None, phi, DRIFT_TENSOR),
                   (None, None, None)):
        solver.refill(*fields)
        ref = reacting_pair_block(mesh, stiff, lumped, dt, *fields)
        assert abs(solver.block - ref).max() <= 1e-14 * abs(ref).max()


@pytest.mark.parametrize("make_mesh", [lambda: square_mesh(1 / 16),
                                       perforated_quarter_mesh],
                         ids=["macro_square", "perforated_quarter"])
def test_per_mesh_operators_match_the_gather_routes(make_mesh):
    mesh = make_mesh()
    rng = np.random.default_rng(8)
    phi = drift_potential(mesh, 1.0)
    field = rng.standard_normal((mesh.num_triangles, 2))
    p2_field = rng.standard_normal((fem.p2_dof_count(mesh), 2))
    cases = [
        (fem.p1_element_gradients(mesh, phi),
         p1_element_gradients_reference(mesh, phi)),
        (fem.recover_nodal_gradient(mesh, phi),
         recover_nodal_gradient_reference(mesh, phi)),
        (fem.assemble_gradient_load(mesh, field),
         gradient_load_reference(mesh, field)),
        (fem.assemble_p2_load(mesh, field), p2_load_reference(mesh, field)),
        (fem.p2_element_means(mesh, p2_field),
         p2_element_means_reference(mesh, p2_field)),
    ]
    for sign in (1.0, -1.0):
        cases.append((
            fem.assemble_convection(mesh, field, phi, DRIFT_TENSOR,
                                    sign).toarray(),
            convection_reference(mesh, field, phi, DRIFT_TENSOR,
                                 sign).toarray()))
    for ours, ref in cases:
        assert ours.shape == ref.shape
        assert np.max(np.abs(ours - ref)) <= 1e-14 * np.max(np.abs(ref))
    # These sum the same terms in the same order as their references.
    nodal = np.column_stack([phi, rng.standard_normal(mesh.num_nodes)])
    exact = [
        (fem.element_means(mesh, phi), element_means_reference(mesh, phi)),
        (fem.element_means(mesh, nodal),
         element_means_reference(mesh, nodal)),
        (fem.lumped_mass(mesh), lumped_mass_reference(mesh)),
    ]
    for direction in (0, 1):
        exact.append((fem.assemble_interface_normal_load(mesh, direction),
                      interface_normal_load_reference(mesh, direction)))
    for ours, ref in exact:
        assert ours.shape == ref.shape
        assert np.array_equal(ours, ref)


class TrackedLU:
    """An LU that can be weakly referenced, to see when it is freed, and
    that appends its number to log at every solve."""

    def __init__(self, lu, number, log):
        self.lu = lu
        self.number = number
        self.log = log

    def solve(self, rhs):
        self.log.append(self.number)
        return self.lu.solve(rhs)


def blob_pair(mesh):
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    c_plus = 0.2 + 0.5 * np.exp(-25 * ((x - 0.35) ** 2 + (y - 0.45) ** 2))
    c_minus = 0.2 + 0.5 * np.exp(-25 * ((x - 0.7) ** 2 + (y - 0.6) ** 2))
    return c_plus, c_minus


def test_transport_solver_reuses_its_lu_against_fresh_factorizations(
        monkeypatch):
    kept = []
    applied = []
    # The LUs made before the solve in progress.
    older = [0]

    def tracked_splu(matrix, **options):
        # The old LUs must be freed before a refresh factors the block.
        assert all(ref() is None for ref in kept[:older[0]])
        lu = TrackedLU(splu(matrix, **options), len(kept), applied)
        kept.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(fem, "splu", tracked_splu)
    mesh = square_mesh(1 / 32)
    n = mesh.num_nodes
    lumped = fem.lumped_mass(mesh)
    stiff = fem.assemble_stiffness(mesh, DRIFT_TENSOR)
    c_plus, c_minus = blob_pair(mesh)
    content = lumped @ (c_plus + c_minus)
    dt = 2e-3
    solver = fem.TransportSolver(mesh, stiff, lumped, dt)
    # Like the sweeps of one step, each drift lies within 1% of the
    # first, whose species LUs the solver keeps.
    for sweep, scale in enumerate((1.0, 1.01, 1.005, 1.0025)):
        older[0] = len(kept)
        fields = (None, drift_potential(mesh, scale), DRIFT_TENSOR)
        got = np.concatenate(fem.step_reacting_pair(solver, *fields, c_plus,
                                                    c_minus))
        ref = np.concatenate(reacting_pair_step(mesh, stiff, lumped, dt,
                                                *fields, c_plus, c_minus))
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
        new_content = lumped @ (got[:n] + got[n:])
        assert abs(new_content - content) <= 1e-13 * content
        assert (solver.factorizations, solver.coupled_factorizations,
                solver.refined_solves) == (1, 0, sweep)
        if sweep == 0:
            fresh_steps = solver.refinement_steps
    # One LU per species, applied in turn at every step.
    assert len(kept) == 2
    assert applied == [0, 1] * (len(applied) // 2)
    # Each refined solve here meets the gate in two or three steps.
    refined_steps = solver.refinement_steps - fresh_steps
    assert solver.refined_solves <= refined_steps \
        <= 3 * solver.refined_solves

    # A step 100 times longer makes a block the lagged LUs cannot refine,
    # so the solver factors both species blocks again.
    solver.dt = 100 * dt
    older[0] = len(kept)
    fields = (None, drift_potential(mesh, 1.0), DRIFT_TENSOR)
    before = len(applied)
    got = np.concatenate(fem.step_reacting_pair(solver, *fields, c_plus,
                                                c_minus))
    # The kept LUs are applied until a step fails to halve the residual;
    # then the species blocks are factored again.
    lagged = applied[before:].count(0)
    assert lagged >= 1
    assert applied[before:] == [0, 1] * lagged + [2, 3] * (
        (len(applied) - before) // 2 - lagged)
    assert (solver.factorizations, solver.coupled_factorizations,
            solver.refined_solves) == (2, 0, 3)
    assert len(kept) == 4
    ref = np.concatenate(reacting_pair_step(mesh, stiff, lumped, 100 * dt,
                                            *fields, c_plus, c_minus))
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
    rhs = np.concatenate([lumped * c_plus, lumped * c_minus])
    assert np.linalg.norm(rhs - solver.block @ got) \
        <= fem.TRANSPORT_TOL * np.linalg.norm(rhs)


def test_transport_solver_starts_refinement_from_its_last_solution(
        monkeypatch):
    residuals = []

    class NormLoggingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            residuals.append(np.linalg.norm(rhs))
            return self.lu.solve(rhs)

    monkeypatch.setattr(fem, "splu", lambda matrix, **options:
                        NormLoggingLU(splu(matrix, **options)))
    mesh = square_mesh(1 / 32)
    lumped = fem.lumped_mass(mesh)
    stiff = fem.assemble_stiffness(mesh, DRIFT_TENSOR)
    c_plus, c_minus = blob_pair(mesh)
    rhs = np.concatenate([lumped * c_plus, lumped * c_minus])
    solver = fem.TransportSolver(mesh, stiff, lumped, 2e-3)
    fields = (None, drift_potential(mesh, 1.0), DRIFT_TENSOR)
    got = np.concatenate(fem.step_reacting_pair(solver, *fields, c_plus,
                                                c_minus))
    fresh_steps = solver.refinement_steps
    first = len(residuals)
    # The fresh solve applies both species LUs at every step.
    assert first == 2 * (fresh_steps + 1)
    got = np.concatenate(fem.step_reacting_pair(solver, *fields, c_plus,
                                                c_minus))
    # The second solve of the same block and rhs starts from the first
    # solution, so the one step it takes sees only a residual already
    # below the gate in either species.
    assert len(residuals) == first + 2
    assert max(residuals[first:]) <= fem.TRANSPORT_TOL * np.linalg.norm(rhs)
    assert (solver.factorizations, solver.refined_solves,
            solver.refinement_steps) == (1, 1, fresh_steps)
    direct = splu(solver.block).solve(rhs)
    assert np.max(np.abs(got - direct)) <= 1e-10 * np.max(np.abs(direct))


@pytest.mark.parametrize("dt", [2e-3, 10.0])
def test_every_transport_solve_conserves_content_and_decays_charge(dt):
    # The content correction of every refinement step makes the summed
    # residual of each species zero, so the fresh solve and the refined
    # solves on lagged LUs while the drift changes all conserve the
    # total content and decay the charge as Q / (1 + 2 dt) to round-off.
    mesh = square_mesh(1 / 32)
    n = mesh.num_nodes
    lumped = fem.lumped_mass(mesh)
    stiff = fem.assemble_stiffness(mesh, DRIFT_TENSOR)
    c_plus, c_minus = blob_pair(mesh)
    rhs = np.concatenate([lumped * c_plus, lumped * c_minus])
    content = lumped @ (c_plus + c_minus)
    charge = lumped @ (c_plus - c_minus)
    solver = fem.TransportSolver(mesh, stiff, lumped, dt)
    bound = 1e-13 * (1 + dt) * content
    for scale in (1.0, 1.01, 1.005, 1.05, 1.2):
        fields = (None, drift_potential(mesh, scale), DRIFT_TENSOR)
        got = np.concatenate(fem.step_reacting_pair(solver, *fields, c_plus,
                                                    c_minus))
        assert abs(lumped @ (got[:n] + got[n:]) - content) <= bound
        assert abs(lumped @ (got[:n] - got[n:]) - charge / (1 + 2 * dt)) \
            <= bound
        # Each species' summed residual lies within the rounding errors
        # of the residual itself.
        residual = rhs - solver.block @ got
        rounding = np.finfo(float).eps * (abs(solver.block) @ abs(got)
                                          + abs(rhs))
        assert np.all(abs(residual.reshape(2, n).sum(axis=1))
                      <= 10 * rounding.reshape(2, n).sum(axis=1))
        ref = np.concatenate(reacting_pair_step(mesh, stiff, lumped, dt,
                                                *fields, c_plus, c_minus))
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
    # The lagged LUs refine most solves.  At dt=10 on this mesh no LU
    # reaches TRANSPORT_TOL, so the solver factors the coupled block,
    # which the correction serves as well.
    assert solver.refined_solves >= 3
    assert (solver.factorizations, solver.coupled_factorizations) \
        == (1, 0 if dt < 1 else 1)


def test_a_long_diffusion_step_stays_on_the_species_route(monkeypatch):
    # Unit diffusion at dt=10: the species LUs alone contract the
    # constant modes by only dt / (1 + dt) = 0.91 per step, but with the
    # content correction each step contracts the residual by about
    # dt / (1 + dt (1 + lambda)), 0.093 here, so the fresh species LUs
    # refine to the gate and the coupled block is not factored.  On the
    # h=1/8 square the gate lies above the rounding errors of the
    # residual; on finer meshes at this dt it does not, and any LU
    # misses it.
    norms = []

    class NormLoggingLU:
        def __init__(self, lu):
            self.lu = lu
            self.nnz = lu.nnz

        def solve(self, rhs):
            norms.append(np.linalg.norm(rhs))
            return self.lu.solve(rhs)

    monkeypatch.setattr(fem, "splu", lambda matrix, **options:
                        NormLoggingLU(splu(matrix, **options)))
    mesh = square_mesh(1 / 8)
    lumped = fem.lumped_mass(mesh)
    solver = fem.TransportSolver(mesh, fem.assemble_stiffness(mesh), lumped,
                                 10.0)
    rhs = blob_content(mesh, lumped)
    got = solver.solve(rhs)
    assert solver.profile()["coupled_factorizations"] == 0
    # The residual of each step, from the norms of its two species.
    steps = np.hypot(norms[0::2], norms[1::2])
    assert len(steps) >= 8
    assert np.all(steps[1:] <= 0.1 * steps[:-1])
    monkeypatch.undo()
    assert np.linalg.norm(rhs - solver.block @ got) \
        <= fem.TRANSPORT_TOL * np.linalg.norm(rhs)
    default = splu(solver.block).solve(rhs)
    assert np.max(np.abs(got - default)) <= 1e-10 * np.max(np.abs(default))


@pytest.mark.parametrize("drift", [0.002, 0.02])
def test_transport_solver_refines_a_drifted_block_on_its_first_lu(drift):
    # A drift of 0.2% or 2% from the factored block is solved to the gate
    # by refinement on the kept LU, without a second factorization.
    mesh = square_mesh(1 / 32)
    lumped = fem.lumped_mass(mesh)
    stiff = fem.assemble_stiffness(mesh, DRIFT_TENSOR)
    c_plus, c_minus = blob_pair(mesh)
    dt = 2e-3
    solver = fem.TransportSolver(mesh, stiff, lumped, dt)
    for scale in (1.0, 1.0 + drift):
        fields = (None, drift_potential(mesh, scale), DRIFT_TENSOR)
        got = np.concatenate(fem.step_reacting_pair(solver, *fields, c_plus,
                                                    c_minus))
        ref = np.concatenate(reacting_pair_step(mesh, stiff, lumped, dt,
                                                *fields, c_plus, c_minus))
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert solver.factorizations == 1
    assert solver.refined_solves == 1


def test_transport_solver_keeps_an_lu_whose_block_misses_the_gate():
    # With velocity (1000, 500) and dt=0.2 the direct solution of the
    # block leaves a residual above TRANSPORT_TOL that refinement cannot
    # halve, so the later solves of the same block and rhs are gated at
    # TRANSPORT_REACH times that residual, not factored again.
    mesh = square_mesh(1 / 32)
    lumped = fem.lumped_mass(mesh)
    solver = fem.TransportSolver(mesh, fem.assemble_stiffness(mesh),
                                 lumped, 0.2)
    solver.refill(np.tile([1000.0, 500.0], (mesh.num_triangles, 1)),
                  None, None)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    rhs = np.tile(lumped, 2) * np.concatenate([
        0.2 + 0.5 * np.exp(-25 * ((x - 0.35) ** 2 + (y - 0.45) ** 2)),
        0.2 + 0.5 * np.exp(-25 * ((x - 0.7) ** 2 + (y - 0.6) ** 2))])
    reached = []
    for _ in range(3):
        got = solver.solve(rhs)
        reached.append(np.linalg.norm(rhs - solver.block @ got)
                       / np.linalg.norm(rhs))
    assert reached[0] > fem.TRANSPORT_TOL
    assert all(r <= fem.TRANSPORT_REACH * reached[0] for r in reached[1:])
    assert (solver.factorizations, solver.refined_solves) == (1, 2)
    direct = splu(solver.block).solve(rhs)
    assert np.max(np.abs(got - direct)) <= 1e-6 * np.max(np.abs(direct))


def blob_content(mesh, lumped):
    c_plus, c_minus = blob_pair(mesh)
    return np.concatenate([lumped * c_plus, lumped * c_minus])


def test_transport_lu_stores_half_the_entries_of_the_default_lu():
    # On the eps=1/8 pore-scale block the symmetric-mode LU without
    # relaxed supernodes stores 431,264 entries, COLAMD's 889,236.
    mesh = generate_perforated_mesh(
        PerforatedDomain(1 / 8, UnitCellGeometry(
            DiskInclusion((0.5, 0.5), 0.25), 0.125)), 1 / 64)
    lumped = fem.lumped_mass(mesh)
    solver = fem.TransportSolver(
        mesh, fem.assemble_stiffness(mesh, DRIFT_TENSOR), lumped, 2e-3)
    velocity = np.random.default_rng(6).standard_normal(
        (mesh.num_triangles, 2))
    solver.refill(velocity, drift_potential(mesh, 1.0), DRIFT_TENSOR)
    rhs = blob_content(mesh, lumped)
    got = solver.solve(rhs)
    default = splu(solver.block)
    assert solver.profile()["lu_entries"] <= 0.6 * default.nnz
    direct = default.solve(rhs)
    assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))


@pytest.mark.parametrize("make_mesh", [lambda: eighth_mesh(),
                                       lambda: square_mesh(1 / 64)],
                         ids=["eps8", "macro64"])
def test_species_lus_store_about_half_the_entries_of_the_coupled_lu(
        make_mesh):
    # The species LUs of the headline study: 207,788 entries at
    # eps=1/8 against the coupled block's 431,264, and 406,920 on the
    # h=1/64 macro square against 1,005,624.
    mesh = make_mesh()
    lumped = fem.lumped_mass(mesh)
    solver = fem.TransportSolver(
        mesh, fem.assemble_stiffness(mesh, DRIFT_TENSOR), lumped, 2e-3)
    solver.refill(np.random.default_rng(6).standard_normal(
        (mesh.num_triangles, 2)), drift_potential(mesh, 1.0), DRIFT_TENSOR)
    solver.solve(blob_content(mesh, lumped))
    coupled = fem.symmetric_lu(solver.block, relax=1)
    assert solver.profile()["coupled_factorizations"] == 0
    assert solver.profile()["lu_entries"] <= 0.55 * coupled.nnz


def stokes_saddle_of(mesh, viscosity):
    """The bordered saddle of fem.StokesOperator(mesh, viscosity)."""
    a, b, _, weight, _, _ = fem.stokes_blocks(mesh, viscosity)
    return fem.stokes_saddle(a, b, weight)


def quarter_saddle():
    mesh = perforated_quarter_mesh()
    return stokes_saddle_of(mesh, mesh.eps ** 2)


def quarter_transport_block():
    mesh = perforated_quarter_mesh()
    solver = fem.TransportSolver(
        mesh, fem.assemble_stiffness(mesh, DRIFT_TENSOR),
        fem.lumped_mass(mesh), 2e-3)
    solver.refill(np.random.default_rng(6).standard_normal(
        (mesh.num_triangles, 2)), drift_potential(mesh, 1.0), DRIFT_TENSOR)
    return solver.block


def quarter_laplacian():
    mesh = perforated_quarter_mesh()
    return fem.bordered(fem.assemble_stiffness(mesh), fem.lumped_mass(mesh))


@pytest.mark.parametrize("build, relax", [
    (quarter_saddle, None), (quarter_transport_block, 1),
    (quarter_laplacian, None)], ids=["saddle", "transport", "laplacian"])
def test_symmetric_lu_keeps_the_factors_of_the_default_panel(build, relax):
    # The panel sizes SuperLU's work arrays only: the ordering, the
    # pivots and the fill are those of scipy's default panel, and only
    # the order of the updates, so the round-off, differs.
    matrix = build()
    ours = fem.symmetric_lu(matrix, relax=relax)
    default = splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01,
                   relax=relax, options={"SymmetricMode": True})
    assert np.array_equal(ours.perm_c, default.perm_c)
    assert np.array_equal(ours.perm_r, default.perm_r)
    assert ours.nnz == default.nnz
    rhs = np.random.default_rng(3).standard_normal(matrix.shape[0])
    expected = default.solve(rhs)
    assert np.linalg.norm(ours.solve(rhs) - expected) \
        <= 1e-12 * np.linalg.norm(expected)


def test_transport_solver_refines_a_fresh_lu_to_the_default_residual():
    # Strong convection over a long step: the threshold-pivoted LU leaves
    # a relative residual of 1.1e-8, partial pivoting 1.3e-9.  The solver
    # refines its direct solution until a step fails to halve it.
    mesh = square_mesh(1 / 32)
    lumped = fem.lumped_mass(mesh)
    solver = fem.TransportSolver(mesh, fem.assemble_stiffness(mesh), lumped,
                                 0.2)
    solver.refill(np.tile([1000.0, 500.0], (mesh.num_triangles, 1)), None,
                  None)
    rhs = blob_content(mesh, lumped)
    got = solver.solve(rhs)

    def residual(x):
        return np.linalg.norm(rhs - solver.block @ x)

    default = residual(splu(solver.block).solve(rhs))
    assert residual(fem.symmetric_lu(solver.block, relax=1).solve(rhs)) \
        > 4 * default
    assert residual(got) <= 2 * default
    # The species LUs stop far above that, so the coupled block is
    # factored too.
    assert (solver.factorizations, solver.coupled_factorizations) == (1, 1)
    assert solver.refinement_steps >= 1


def test_a_solver_that_fell_back_to_the_coupled_lu_refactors_it_directly(
        monkeypatch):
    # Once fresh species LUs have missed the gate, a later factorization
    # factors the coupled block at once: under these +-1% velocity
    # changes each solve refactors, and the solver that tried the
    # species blocks first every time factored them 4 times for nothing.
    # The species blocks are factored in single precision, the coupled
    # block in double.
    factored = factored_matrices(monkeypatch)
    mesh = square_mesh(1 / 32)
    lumped = fem.lumped_mass(mesh)
    solver = fem.TransportSolver(mesh, fem.assemble_stiffness(mesh), lumped,
                                 0.2)
    rhs = blob_content(mesh, lumped)
    for scale in (1.0, 1.01, 0.99, 1.01):
        solver.refill(np.tile([1000.0 * scale, 500.0 * scale],
                              (mesh.num_triangles, 1)), None, None)
        got = solver.solve(rhs)
        assert np.linalg.norm(rhs - solver.block @ got) \
            <= 2e-9 * np.linalg.norm(rhs)
    assert (solver.factorizations, solver.coupled_factorizations) == (1, 4)
    assert solver.refined_solves == 0
    assert [matrix.dtype for matrix in factored] == 2 * [np.float32] \
        + 4 * [np.float64]


def perforated_stokes_case():
    mesh = perforated_quarter_mesh()
    forcing = np.random.default_rng(5).standard_normal(
        (mesh.num_triangles, 2))
    bc = {"no_slip_tags": [GAMMA_INTERIOR, OUTER_BOUNDARY]}
    return mesh, bc, mesh.eps ** 2, [forcing]


def periodic_cell_stokes_case():
    # The configuration of cell.solve_stokes_cell_problems.
    return disk_mesh(1 / 32), PERIODIC_CELL, 1.0, [(1.0, 0.0), (0.0, 1.0)]


@pytest.mark.parametrize("case", [perforated_stokes_case,
                                  periodic_cell_stokes_case],
                         ids=["perforated", "periodic_cell"])
def test_block_built_saddle_matches_the_full_saddle_route(case):
    mesh, bc, viscosity, _ = case()
    matrix = stokes_saddle_of(mesh, viscosity)
    ref = bordered_bmat(*stokes_saddle_reference(mesh, bc, viscosity))
    assert matrix.shape == ref.shape
    # The divergence rows keep the sign of the reference's -[Bx By]; a
    # flipped b would flip the pressure and differ here by 2 |B|.  The
    # border row is the zero-mean weight, scaled like the mass matrix.
    assert abs(matrix[:-1] - ref[:-1]).max() <= 1e-14 * abs(ref).max()
    assert abs(matrix[-1] - ref[-1]).max() <= 1e-14 * abs(ref[-1]).max()


@pytest.mark.parametrize("case", [perforated_stokes_case,
                                  periodic_cell_stokes_case],
                         ids=["perforated", "periodic_cell"])
def test_schur_cg_stokes_matches_direct_route(case, monkeypatch):
    # Both routes of the operator against the independent direct solve
    # of the oracle; a periodic cell takes the Schur route either way.
    mesh, bc, viscosity, forcings = case()
    periodic = bc.get("periodic", False)
    default = fem.StokesOperator(mesh, viscosity=viscosity)
    monkeypatch.setattr(fem, "DIRECT_DOF_LIMIT", 0)
    op = fem.StokesOperator(mesh, viscosity=viscosity)
    assert (default._mode, op._mode) == (
        "schur_cg" if periodic else "direct", "schur_cg")
    no_slip = fem._p2_boundary_dofs(mesh, set(bc["no_slip_tags"]))
    for forcing in forcings:
        vel_ref, p_ref = stokes_direct_solve(mesh, viscosity, forcing)
        for route in (default, op):
            vel, p = route.solve(forcing)
            assert np.max(np.abs(vel - vel_ref)) \
                <= 1e-8 * np.max(np.abs(vel_ref))
            assert np.max(np.abs(p - p_ref)) <= 1e-8 * np.max(np.abs(p_ref))
            assert relative_weak_divergence(mesh, vel) <= 1e-8
            # The walls the operator reads off the mesh are the ones bc
            # states.
            assert np.max(np.abs(vel[no_slip])) \
                <= 1e-12 * np.max(np.abs(vel))
    assert default.solves == op.solves == len(forcings)
    assert 0 < op.schur_iterations <= 80 * len(forcings)
    assert default.schur_iterations == (op.schur_iterations if periodic
                                        else 0)

    # One LU of the scalar block solves both components as the LU of the
    # whole two-component velocity block, in the same ordering, does.
    a = fem.stokes_blocks(mesh, viscosity)[0]
    block = fem.symmetric_lu(sp.block_diag((a, a), format="csc"))
    rhs = np.random.default_rng(6).standard_normal(block.shape[0])
    ref = block.solve(rhs)
    assert np.max(np.abs(op._solve_velocity(rhs) - ref)) \
        <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("direct_limit", [fem.DIRECT_DOF_LIMIT, 0],
                         ids=["direct", "schur_cg"])
def test_stokes_profile_counts_the_entries_of_its_lu(monkeypatch,
                                                     direct_limit):
    # The LU the build factors is the saddle's on the direct route and
    # a's on the Schur route, which factors a's transpose, the same
    # arrays in CSC.
    monkeypatch.setattr(fem, "DIRECT_DOF_LIMIT", direct_limit)
    mesh = perforated_quarter_mesh()
    op = fem.StokesOperator(mesh, viscosity=mesh.eps ** 2)
    matrix = stokes_saddle_of(mesh, mesh.eps ** 2) if direct_limit \
        else fem.stokes_blocks(mesh, mesh.eps ** 2)[0].tocsc()
    assert op.profile() == {
        "stokes_solves": 0, "schur_iterations": 0,
        "stokes_lu_entries": fem.symmetric_lu(matrix).nnz}


def test_stokes_tolerance_gates_only_the_schur_route(monkeypatch):
    # The direct route ignores tol, bit for bit; the Schur route stops at
    # it, after fewer iterations, with an error of its order.
    mesh, _, viscosity, (forcing,) = perforated_stokes_case()
    direct = fem.StokesOperator(mesh, viscosity=viscosity)
    assert direct._mode == "direct"
    vel, p = direct.solve(forcing)
    loose_vel, loose_p = direct.solve(forcing, tol=1e-3)
    assert np.array_equal(loose_vel, vel) and np.array_equal(loose_p, p)
    monkeypatch.setattr(fem, "DIRECT_DOF_LIMIT", 0)
    iterations = []
    for tol in (fem.DEFAULT_TOL, 1e-3):
        op = fem.StokesOperator(mesh, viscosity=viscosity)
        loose_vel, loose_p = op.solve(forcing, tol=tol)
        iterations.append(op.schur_iterations)
        assert np.max(np.abs(loose_vel - vel)) \
            <= 100 * tol * np.max(np.abs(vel))
        assert np.max(np.abs(loose_p - p)) <= 100 * tol * np.max(np.abs(p))
    assert 0 < iterations[1] < iterations[0]


def test_schur_cg_starts_from_the_last_pressure(monkeypatch):
    mesh, _, viscosity, (forcing,) = perforated_stokes_case()
    perturbed = forcing + 1e-4 * np.random.default_rng(7).standard_normal(
        forcing.shape)
    direct = fem.StokesOperator(mesh, viscosity=viscosity)
    monkeypatch.setattr(fem, "DIRECT_DOF_LIMIT", 0)
    op = fem.StokesOperator(mesh, viscosity=viscosity)
    iterations = []
    for f in (forcing, perturbed):
        before = op.schur_iterations
        vel, p = op.solve(f)
        iterations.append(op.schur_iterations - before)
        vel_ref, p_ref = direct.solve(f)
        assert np.max(np.abs(vel - vel_ref)) <= 1e-8 * np.max(np.abs(vel_ref))
        assert np.max(np.abs(p - p_ref)) <= 1e-8 * np.max(np.abs(p_ref))
    assert 0 < iterations[1] < iterations[0]


def test_schur_cg_raises_past_its_budget_and_on_lost_positivity(
        monkeypatch):
    mesh, _, viscosity, (forcing,) = perforated_stokes_case()
    monkeypatch.setattr(fem, "DIRECT_DOF_LIMIT", 0)
    monkeypatch.setattr(fem, "SCHUR_MAX_ITER", 1)
    op = fem.StokesOperator(mesh, viscosity=viscosity)
    with pytest.raises(MaxIterationsExceeded) as err:
        op.solve(forcing)
    assert err.value.where == "fem.StokesOperator.solve"
    # S is positive on the zero-mean pressures; a product d.S d <= 0 means
    # it is not, and the iteration stops at once.
    op = fem.StokesOperator(mesh, viscosity=viscosity)
    schur = op._schur
    op._schur = lambda p: -schur(p)
    with pytest.raises(SolverBreakdown, match="lost positivity") as err:
        op.solve(forcing)
    assert err.value.where == "fem.StokesOperator.solve"


def test_stokes_zero_forcing_gives_zero_velocity():
    mesh = disk_mesh(0.1)
    vel, pressure = fem.StokesOperator(mesh).solve((0.0, 0.0))
    assert np.max(np.abs(vel)) < 1e-12
    assert np.max(np.abs(pressure)) < 1e-10


def test_stokes_driven_cell_flow():
    mesh = disk_mesh(0.1)
    vel, _ = fem.StokesOperator(mesh).solve((1.0, 0.0))
    flux = fem.integrate_p2(mesh, vel)
    assert flux[0] > 1e-3
    assert abs(flux[1]) < 1e-12
    assert np.linalg.norm(fem.weak_divergence(mesh, vel)) < 1e-8
    no_slip = fem._p2_boundary_dofs(mesh, {GAMMA_INTERIOR})
    assert np.max(np.abs(vel[no_slip])) < 1e-12


def test_stokes_periodic_velocity_agrees_across_faces():
    mesh = disk_mesh(0.1)
    vel, _ = fem.StokesOperator(mesh).solve((0.0, 1.0))
    pairs = mesh.periodic_pairs
    gap = vel[pairs[:, 0]] - vel[pairs[:, 1]]
    assert np.max(np.abs(gap)) == 0.0


def test_stokes_without_solid_phase_rejects_mean_forcing():
    with pytest.raises(NoSolidPhase):
        fem.StokesOperator(square_mesh(0.25))


def test_p2_element_means_reproduce_linear_fields():
    mesh = disk_mesh(0.1)
    edges = edge_table(mesh).edges
    midpoints = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    points = np.vstack([mesh.nodes, midpoints])
    linear = points @ np.array([[1.5, -0.25], [0.5, 2.0]])
    means = fem.p2_element_means(mesh, linear)
    centroids = mesh.nodes[mesh.triangles].mean(axis=1)
    expected = centroids @ np.array([[1.5, -0.25], [0.5, 2.0]])
    assert np.max(np.abs(means - expected)) < 1e-13


def test_sliver_triangle_passes_validation_but_not_assembly():
    # Area 5e-15 is positive, so the mesh is valid, but below the 1e-14
    # that assembly accepts.
    mesh = one_triangle_mesh([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-14]])
    mesh.validate()
    with pytest.raises(DegenerateElement) as info:
        fem.triangle_data(mesh)
    assert info.value.where == "fem.assembly"


def test_fields_and_velocities_must_match_their_mesh():
    mesh = disk_mesh(0.1)
    for shape in ((mesh.num_triangles + 1, 2), (mesh.num_triangles, 3)):
        with pytest.raises(FieldMeshMismatch):
            fem.assemble_convection(mesh, velocity=np.zeros(shape))


def test_interface_load_is_balanced_and_normals_point_inward():
    mesh = disk_mesh(0.05)
    for direction in (0, 1):
        load = fem.assemble_interface_normal_load(mesh, direction)
        assert abs(load.sum()) < 1e-12
    center = np.array([0.5, 0.5])
    pairs, length, normal = fem.boundary_edge_geometry(mesh)
    mid = 0.5 * (mesh.nodes[pairs[:, 0]] + mesh.nodes[pairs[:, 1]])
    assert np.all(np.einsum("ed,ed->e", normal, center - mid) > 0)
    perimeter = length.sum()
    assert perimeter == pytest.approx(2 * np.pi * 0.25, rel=5e-3)


@pytest.mark.parametrize("h", [1 / 4, 1 / 8, 1 / 64],
                         ids=["h4", "h8", "h64"])
def test_square_interpolation_matches_pointwise_reference(h):
    # Nodes and edge midpoints of the perforated mesh sit on element edges
    # of the square too, where the closed form and the reference may pick
    # different triangles that share the edge; the square's own nodes
    # include x = 1 and y = 1.
    perforated = generate_perforated_mesh(
        PerforatedDomain(0.5, UnitCellGeometry(
            DiskInclusion((0.5, 0.5), 0.25), 0.125)), 1 / 16)
    mesh = square_mesh(h)
    rng = np.random.default_rng(5)
    bary = rng.dirichlet(np.ones(3), size=200)
    owners = rng.integers(perforated.num_triangles, size=200)
    inner = np.einsum("pi,pid->pd", bary,
                      perforated.nodes[perforated.triangles[owners]])
    midpoints = perforated.nodes[edge_table(perforated).edges].mean(axis=1)
    points = np.vstack([perforated.nodes, midpoints, inner, mesh.nodes])
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    values = np.column_stack([np.sin(3 * x) + y * y, np.exp(x - 2 * y),
                              1.0 + x * y])
    got = fem.p1_interpolate(mesh, values, points)
    assert got.shape == (len(points), 3)
    for k in range(3):
        _, ref = p1_interpolate_reference(mesh, values[:, k], points)
        bound = 1e-14 * np.max(np.abs(ref))
        assert np.max(np.abs(got[:, k] - ref)) <= bound
        scalar = fem.p1_interpolate(mesh, values[:, k], points)
        assert scalar.shape == (len(points),)
        assert np.max(np.abs(scalar - ref)) <= bound
    assert np.max(np.abs(got[-len(x):] - values)) <= 1e-14


def test_recovered_gradient_exact_for_linear_field():
    mesh = square_mesh(0.25)
    values = 2.0 * mesh.nodes[:, 0] - 0.5 * mesh.nodes[:, 1]
    grad = fem.recover_nodal_gradient(mesh, values)
    assert np.max(np.abs(grad - [2.0, -0.5])) < 1e-12


# ----------------------------------------------------------------------
# Lean builds: the same bits as the coordinate-format routes, and little
# more allocated than kept.


def assert_same_bits(ours, ref):
    """Both store the same values in the same layout, bit for bit: the
    format, the shape, and the dtype and every byte of each array."""
    if sp.issparse(ref):
        assert (ours.format, ours.shape) == (ref.format, ref.shape)
        for name in ("data", "indices", "indptr"):
            assert_same_bits(getattr(ours, name), getattr(ref, name))
    else:
        assert ours.dtype == ref.dtype
        assert ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("make_mesh", [lambda: square_mesh(1 / 16),
                                       perforated_quarter_mesh,
                                       lambda: square_mesh(1 / 15)],
                         ids=["unit_square", "perforated_quarter",
                              "short_last_chunk"])
def test_assemblies_equal_the_coordinate_routes_bit_for_bit(make_mesh):
    mesh = make_mesh()
    velocity = np.random.default_rng(12).standard_normal(
        (mesh.num_triangles, 2))
    phi = drift_potential(mesh, 1.0)
    stiffness = fem.assemble_stiffness(mesh)
    pairs = [
        (stiffness, p1_stiffness_coo(mesh)),
        (fem.assemble_stiffness(mesh, DRIFT_TENSOR),
         p1_stiffness_coo(mesh, DRIFT_TENSOR)),
        (fem.assemble_mass(mesh), p1_mass_coo(mesh)),
        (fem.assemble_convection(mesh, velocity, phi, DRIFT_TENSOR, -1.0),
         convection_coo(mesh, velocity, phi, DRIFT_TENSOR, -1.0)),
        (fem.assemble_p2_stiffness(mesh), p2_stiffness_coo(mesh)),
        *zip(fem.assemble_divergence(mesh), divergence_coo(mesh)),
    ]
    # Pinned rows with and without a stored diagonal, and the folded
    # CSC input of the periodic cell's wall problem.
    pinned = np.unique(mesh.boundary_edges)[::2]
    holed = stiffness.tolil()
    holed[pinned[0], pinned[0]] = 0.0
    holed = holed.tocsr()
    holed.eliminate_zeros()
    fold, cols = fem.periodic_prolongation(mesh.num_nodes,
                                           mesh.periodic_pairs)
    folded = fold.T @ stiffness @ fold
    for matrix, nodes in ((stiffness, pinned), (holed, pinned),
                          (folded, np.unique(cols[pinned]))):
        pairs.append((fem.apply_dirichlet(matrix, nodes),
                      dirichlet_by_masks(matrix, nodes)))
    # The transport block and its refilled convection values.  refill
    # scatters the 3M weights of each species in four chunks of
    # ceil(3M / 4); on the h=1/15 square (M = 450) the last one is
    # shorter.
    lumped = 0.8 * fem.lumped_mass(mesh)
    solver = fem.TransportSolver(mesh, stiffness, lumped, 2e-3)
    block, refill = transport_block_coo(mesh, stiffness, lumped, 2e-3)
    pairs.append((solver.block.copy(), block))
    for fields in ((velocity, phi, np.eye(2)), (None, phi, DRIFT_TENSOR),
                   (velocity, None, None)):
        solver.refill(*fields)
        pairs.append((solver.block.data.copy(), refill(*fields)))
    for ours, ref in pairs:
        assert_same_bits(ours, ref)


@pytest.mark.parametrize("make_mesh, viscosity", [
    (perforated_quarter_mesh, 0.25 ** 2), (lambda: disk_mesh(1 / 32), 1.0)],
    ids=["perforated_quarter", "periodic_cell"])
def test_stokes_blocks_equal_the_coordinate_route_bit_for_bit(make_mesh,
                                                              viscosity):
    mesh = make_mesh()
    a, b, *_ = fem.stokes_blocks(mesh, viscosity)
    a_ref, b_ref = stokes_blocks_coo(mesh, viscosity)
    assert_same_bits(a, a_ref)
    assert_same_bits(b, b_ref)


def factored_matrices(monkeypatch):
    """The list to which every later call of fem.symmetric_lu appends the
    matrix it factors."""
    factored = []
    factor = fem.symmetric_lu

    def recorded(matrix, relax=None):
        factored.append(matrix)
        return factor(matrix, relax)

    monkeypatch.setattr(fem, "symmetric_lu", recorded)
    return factored


@pytest.mark.parametrize("make_mesh, viscosity", [
    (perforated_quarter_mesh, 0.25 ** 2)], ids=["perforated_quarter"])
def test_direct_stokes_route_factors_the_bmat_saddle_bit_for_bit(
        make_mesh, viscosity, monkeypatch):
    # The LU, and so every solution, depends on these arrays bit for bit.
    mesh = make_mesh()
    factored = factored_matrices(monkeypatch)
    operator = fem.StokesOperator(mesh, viscosity=viscosity)
    assert operator._mode == "direct"
    (matrix,) = factored
    a, b, _, weight, _, _ = fem.stokes_blocks(mesh, viscosity)
    assert_same_bits(matrix, stokes_saddle_bmat(a, b, weight))
    assert_same_bits(fem.stokes_saddle(a, b, weight), matrix)


def test_periodic_cells_take_the_schur_route_at_every_size(monkeypatch):
    # The periodic fold fills the saddle LU far more than a perforated
    # mesh of the same size does, so no cell problem factors a saddle:
    # even this 112-node cell, far below DIRECT_DOF_LIMIT, factors only a
    # and its folded pressure Laplacian, bordered by the zero-mean row.
    mesh = disk_mesh(0.1)
    a, b, _, weight, _, _ = fem.stokes_blocks(mesh, 1.0)
    assert 2 * a.shape[0] + b.shape[0] + 1 < fem.DIRECT_DOF_LIMIT
    factored = factored_matrices(monkeypatch)
    operator = fem.StokesOperator(mesh)
    assert operator._mode == "schur_cg"
    assert [matrix.shape for matrix in factored] == [
        a.shape, (len(weight) + 1, len(weight) + 1)]


def test_zero_mean_lu_borders_like_bmat_bit_for_bit(monkeypatch):
    # The folded stiffness of a periodic square, a product with unsorted
    # column indices, given stored zeros; the zero weights are dropped.
    mesh = square_mesh(1 / 16)
    fold, _ = fem.periodic_prolongation(mesh.num_nodes, mesh.periodic_pairs)
    matrix = fold.T @ fem.assemble_stiffness(mesh) @ fold
    matrix.data[::5] = 0.0
    assert not matrix.has_sorted_indices
    weight = fold.T @ fem.lumped_mass(mesh)
    weight[::3] = 0.0
    factored = factored_matrices(monkeypatch)
    fem.ZeroMeanLU(matrix, weight)
    (bordered,) = factored
    ref = bordered_bmat(matrix, weight)
    assert_same_bits(bordered, ref)
    assert ref.nnz == matrix.nnz + 2 * np.count_nonzero(weight)


def eighth_mesh():
    return generate_perforated_mesh(
        PerforatedDomain(0.125, UnitCellGeometry(
            DiskInclusion((0.5, 0.5), 0.25), 0.125)), 1 / 64)


def traced_build(build):
    """The result of build(), and the bytes above those traced before it
    that tracemalloc traces at the peak of the call and after it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start, kept - start


def matrix_bytes(matrix):
    return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes


def eighth_stokes_build(monkeypatch, direct_limit):
    """The build of the Stokes operator of eighth_mesh under the given
    DIRECT_DOF_LIMIT, with the P1 stiffness and its Laplacian LU of a
    Neumann pore-scale run and the mesh caches that it reads filled, and
    the bytes of the assembled blocks a and b."""
    mesh = eighth_mesh()
    stiffness = fem.assemble_stiffness(mesh)
    laplacian = (stiffness, fem.ZeroMeanLU(stiffness, fem.lumped_mass(mesh)))
    monkeypatch.setattr(fem, "DIRECT_DOF_LIMIT", direct_limit)

    def build():
        return fem.StokesOperator(mesh, viscosity=mesh.eps ** 2,
                                  laplacian=laplacian)

    build()
    a, b, *_ = fem.stokes_blocks(mesh, mesh.eps ** 2)
    return build, matrix_bytes(a) + matrix_bytes(b)


def test_operator_builds_allocate_little_more_than_they_keep(monkeypatch):
    # tracemalloc sees numpy's allocations and not SuperLU's, and every
    # build allocates the same arrays, so the ratios repeat exactly.
    # The coordinate-format transport build reaches 4.1 times what it
    # keeps on this mesh; this one reaches 1.8.  The Stokes operator is
    # built on its Schur route, the route of pore-scale runs above
    # DIRECT_DOF_LIMIT, whose build is the blocks a and b and the LU of
    # a.  It keeps b alone of them, so its peak is bounded by the bytes
    # of a and b: the build that kept a, b and identity folds reached
    # 3.2 times them (3.5 times the 2.9 MB it kept was its bound), and
    # this one reaches 3.1.
    mesh = eighth_mesh()
    stiffness = fem.assemble_stiffness(mesh)

    def transport():
        return fem.TransportSolver(mesh, stiffness, fem.lumped_mass(mesh),
                                   2e-3)

    transport()  # fills the mesh caches that a build reads
    _, peak, kept = traced_build(transport)
    assert peak <= 2.5 * kept
    stokes, blocks = eighth_stokes_build(monkeypatch, 0)
    _, peak, _ = traced_build(stokes)
    assert peak <= 3.5 * blocks


def test_per_sweep_kernels_allocate_little_more_than_they_return(
        monkeypatch):
    # refill writes the block's values in place and scatters the weights
    # in chunks: the bincount over all of them, repeated three times,
    # peaked at 5.8 times the block's values on this mesh, and this one
    # at 1.2.  The Schur-route Stokes solve peaked at 4.7 times the
    # velocity and pressure it returns while it held the load and the
    # right-hand side through its iterations and subtracted b^T p into a
    # copy; it assembles the load again for its last velocity solve and
    # peaks at 3.0.
    mesh = eighth_mesh()
    rng = np.random.default_rng(9)
    fields = (rng.standard_normal((mesh.num_triangles, 2)),
              drift_potential(mesh, 1.0), DRIFT_TENSOR)
    solver = fem.TransportSolver(mesh, fem.assemble_stiffness(mesh),
                                 fem.lumped_mass(mesh), 2e-3)
    solver.refill(*fields)
    _, peak, _ = traced_build(lambda: solver.refill(*fields))
    assert peak <= 3 * solver.block.data.nbytes
    build, _ = eighth_stokes_build(monkeypatch, 0)
    operator = build()
    forcing = rng.standard_normal((mesh.num_triangles, 2))
    operator.solve(forcing)
    (velocity, pressure), peak, _ = traced_build(
        lambda: operator.solve(1.01 * forcing))
    assert operator.schur_iterations > 0
    assert peak <= 4 * (velocity.nbytes + pressure.nbytes)


def test_schur_route_factors_the_stiffness_with_its_stored_zeros(
        monkeypatch):
    # Without a caller's Laplacian a non-periodic Schur-route operator
    # (a Dirichlet pore-scale run above DIRECT_DOF_LIMIT) factors the P1
    # stiffness as assembled, like the Neumann potential's ZeroMeanLU.
    # With the stored zeros dropped minimum degree filled its LU with
    # 170,968 entries here instead of 113,498.
    mesh = eighth_mesh()
    weight = fem.lumped_mass(mesh)
    stiffness = fem.assemble_stiffness(mesh)
    monkeypatch.setattr(fem, "DIRECT_DOF_LIMIT", 0)
    operator = fem.StokesOperator(mesh, viscosity=mesh.eps ** 2)
    assert operator._mode == "schur_cg"
    assert operator._lu_laplacian._lu.nnz \
        == fem.ZeroMeanLU(stiffness, weight)._lu.nnz
    factored = factored_matrices(monkeypatch)
    fem.StokesOperator(mesh, viscosity=mesh.eps ** 2)
    _, laplacian = factored
    assert_same_bits(laplacian, fem.bordered(stiffness, weight))


@pytest.mark.parametrize("direct_limit", [fem.DIRECT_DOF_LIMIT, 0],
                         ids=["direct", "schur_cg"])
def test_stokes_operator_keeps_its_factorizations_not_its_assembly(
        monkeypatch, direct_limit):
    # The direct route keeps the saddle LU and drops a and b before it
    # factors the saddle; the Schur route keeps b and the LU of a.  A
    # mesh without periodic pairs builds no folds.  tracemalloc does not
    # see the LUs.  The operator that kept a, b and identity folds kept
    # 114% (direct) and 117% (Schur) of the bytes of a and b here.
    build, blocks = eighth_stokes_build(monkeypatch, direct_limit)
    operator, _, kept = traced_build(build)
    matrices = [name for name, value in vars(operator).items()
                if sp.issparse(value)]
    assert operator._mode == ("direct" if direct_limit else "schur_cg")
    assert matrices == ([] if direct_limit else ["b"])
    assert operator.fold is operator.pressure_fold is None
    held = 0 if direct_limit else matrix_bytes(operator.b)
    assert kept - held <= 0.05 * blocks


def test_direct_stokes_route_drops_its_blocks_before_it_factors(
        monkeypatch):
    # a and b are dead once the bordered saddle is written, so they are
    # not alive next to the saddle LU while SuperLU fills it.
    blocks = fem.stokes_blocks
    built = []
    alive = []

    def recorded(mesh, viscosity):
        result = blocks(mesh, viscosity)
        built.extend(weakref.ref(matrix) for matrix in result[:2])
        return result

    def factor(matrix, relax=None):
        alive.append([ref() is not None for ref in built])

    monkeypatch.setattr(fem, "stokes_blocks", recorded)
    monkeypatch.setattr(fem, "symmetric_lu", factor)
    mesh = perforated_quarter_mesh()
    fem.StokesOperator(mesh, viscosity=mesh.eps ** 2)
    assert alive == [[False, False]]


def test_direct_stokes_saddle_allocates_at_most_twice_its_size(
        monkeypatch):
    # From the call of saddle to the factorization, the sp.bmat route
    # allocated 3.7 times the bordered saddle's arrays on this mesh (a
    # coordinate copy of the saddle, a second one with the border, and
    # the CSC); the one-pass build allocates 1.5 times.
    mesh = eighth_mesh()
    saddle = fem.stokes_saddle
    factored = []

    def traced_saddle(a, b, weight):
        tracemalloc.start()
        return saddle(a, b, weight)

    def factor(matrix, relax=None):
        factored.append((matrix, tracemalloc.get_traced_memory()[1]))

    monkeypatch.setattr(fem, "stokes_saddle", traced_saddle)
    monkeypatch.setattr(fem, "symmetric_lu", factor)
    try:
        fem.StokesOperator(mesh, viscosity=mesh.eps ** 2)
    finally:
        tracemalloc.stop()
    ((matrix, peak),) = factored
    size = matrix_bytes(matrix)
    assert size > 4e6
    assert peak <= 2 * size


# Builds the eps=1/8 direct Stokes operator of eighth_mesh in a fresh
# process and prints the growth of its peak resident memory (VmHWM)
# over the build, in bytes, and the entries of the saddle LU.
PEAK_OF_A_BUILD = """
import sys
sys.path.insert(0, sys.argv[1])
from snpp import fem
from snpp.mesh import (DiskInclusion, PerforatedDomain, UnitCellGeometry,
                       generate_perforated_mesh)


def peak():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return 1024 * int(line.split()[1])


mesh = generate_perforated_mesh(PerforatedDomain(0.125, UnitCellGeometry(
    DiskInclusion((0.5, 0.5), 0.25), 0.125)), 1 / 64)
fem.lumped_mass(mesh)
before = peak()
operator = fem.StokesOperator(mesh, viscosity=mesh.eps ** 2)
assert operator._mode == "direct"
print(peak() - before, operator._lu.nnz)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="VmHWM is read from /proc/self/status")
def test_direct_stokes_build_peaks_little_above_its_lu():
    # tracemalloc does not see SuperLU's allocations, so the peak
    # resident memory of a fresh process is read instead.  With
    # SuperLU's default panel the build's peak rises by 19.1 bytes per
    # saddle LU entry (2,752,108 entries); with a panel of one column by
    # 15.0.
    src = os.path.dirname(os.path.dirname(os.path.abspath(fem.__file__)))
    done = subprocess.run([sys.executable, "-c", PEAK_OF_A_BUILD, src],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert done.returncode == 0, done.stderr
    growth, entries = map(int, done.stdout.split())
    assert entries > 2e6
    assert growth <= 17 * entries


def test_transport_keys_fall_back_to_int64_on_large_meshes(monkeypatch):
    # The keys col 2n + row reach (2n)^2: int32 holds them up to 23,170
    # nodes, and the eps=1/32 pore mesh (60,929 nodes) needs int64.
    assert fem._index_dtype(2 ** 31) is np.int32
    assert fem._index_dtype(2 ** 31 + 1) is np.int64
    assert fem._index_dtype((2 * 23170) ** 2) is np.int32
    assert fem._index_dtype((2 * 23171) ** 2) is np.int64
    assert fem._index_dtype((2 * 60929) ** 2) is np.int64
    mesh = perforated_quarter_mesh()
    stiffness = fem.assemble_stiffness(mesh)
    lumped = fem.lumped_mass(mesh)
    fields = (np.random.default_rng(2).standard_normal(
        (mesh.num_triangles, 2)), drift_potential(mesh, 1.0), DRIFT_TENSOR)
    narrow = fem.TransportSolver(mesh, stiffness, lumped, 2e-3)
    # Every index of a small mesh takes the int64 route here.
    monkeypatch.setattr(fem, "_index_dtype", lambda limit: np.int64)
    wide = fem.TransportSolver(mesh, stiffness, lumped, 2e-3)
    assert wide._weight_slots.dtype == np.int64
    assert narrow._weight_slots.dtype == np.int32
    assert_same_bits(wide.block, narrow.block)
    for solver in (narrow, wide):
        solver.refill(*fields)
    assert_same_bits(wide.block.data, narrow.block.data)
