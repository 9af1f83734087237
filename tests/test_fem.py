"""Assembly, constraint, and solver behavior of the finite-element core."""

import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from snpp import fem
from snpp.errors import (
    InconsistentConstraint,
    MaxIterationsExceeded,
    NoSolidPhase,
    PointOutsideFluidPart,
    SolverBreakdown,
)
from snpp.mesh import (
    GAMMA_INTERIOR,
    OUTER_BOUNDARY,
    DiskInclusion,
    TriMesh,
    UnitCellGeometry,
    PerforatedDomain,
    boundary_nodes,
    edge_table,
    generate_perforated_mesh,
    generate_unit_cell_mesh,
)

from oracles import (
    dense_p1_convection,
    dense_p1_mass,
    dense_p1_stiffness,
    gauss_solve,
    p1_interpolate_reference,
    relative_weak_divergence,
    tri_area,
)


def one_triangle_mesh(coords):
    coords = np.asarray(coords, dtype=float)
    if tri_area(coords) < 0:
        coords = coords[[0, 2, 1]]
    edges = [((0, 1), OUTER_BOUNDARY), ((1, 2), OUTER_BOUNDARY),
             ((2, 0), OUTER_BOUNDARY)]
    return TriMesh(coords, np.array([[0, 1, 2]]), edges,
                   np.empty((0, 2), dtype=int))


def square_mesh(h):
    return generate_unit_cell_mesh(UnitCellGeometry(None, h))


def disk_mesh(h, radius=0.25):
    geom = UnitCellGeometry(DiskInclusion((0.5, 0.5), radius), h)
    return generate_unit_cell_mesh(geom)


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
    lumped = fem.assemble_mass(mesh, lumped=True)
    row_sums = np.asarray(consistent.sum(axis=1)).ravel()
    assert np.allclose(lumped.diagonal(), row_sums, atol=1e-15)
    assert lumped.sum() == pytest.approx(1.0, abs=1e-12)


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
    x = fem.solve_spd(sp.csr_matrix(dense), rhs, tol=1e-12)
    ref = gauss_solve(dense, rhs)
    assert np.max(np.abs(x - ref)) < 1e-9


def test_solve_spd_rejects_indefinite_matrix():
    matrix = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(SolverBreakdown):
        fem.solve_spd(matrix, np.array([1.0, -1.0]))
    with pytest.raises(SolverBreakdown):
        fem.solve_spd(sp.csr_matrix(np.diag([1.0, -1.0])),
                      np.array([1.0, 1.0]))


def test_solve_spd_rejects_incompatible_singular_system():
    mesh = square_mesh(0.25)
    stiff = fem.assemble_stiffness(mesh)
    mass = fem.assemble_mass(mesh)
    rhs = mass @ np.ones(mesh.num_nodes)
    with pytest.raises((SolverBreakdown, MaxIterationsExceeded)):
        fem.solve_spd(stiff, rhs)


def test_solve_spd_max_iterations():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(60, 60))
    dense = raw @ raw.T + 1e-4 * np.eye(60)
    with pytest.raises(MaxIterationsExceeded):
        fem.solve_spd(sp.csr_matrix(dense), rng.normal(size=60),
                      tol=1e-14, max_iter=3)


def test_neumann_poisson_with_projection_and_mean_shift():
    mesh = square_mesh(1.0 / 16.0)
    stiff = fem.assemble_stiffness(mesh)
    mass = fem.assemble_mass(mesh)
    x, y = mesh.nodes.T
    exact = np.cos(np.pi * x) * np.cos(np.pi * y)
    forcing = 2.0 * np.pi ** 2 * exact
    rhs = mass @ forcing
    lumped = fem.assemble_mass(mesh, lumped=True).diagonal()
    u = fem.solve_spd(stiff, rhs, project_constant=True, mean_weight=lumped)
    assert abs(lumped @ u) < 1e-10
    assert fem.l2_norm(mesh, u - exact) < 0.02


def test_zero_mean_constraint_direct_route():
    mesh = square_mesh(1.0 / 16.0)
    stiff = fem.assemble_stiffness(mesh)
    mass = fem.assemble_mass(mesh)
    weight = np.asarray(mass @ np.ones(mesh.num_nodes)).ravel()
    x, y = mesh.nodes.T
    forcing = 2.0 * np.pi ** 2 * np.cos(np.pi * x) * np.cos(np.pi * y)
    # Remove the discrete kernel component so both solution routes see the
    # same exactly compatible right-hand side.
    forcing = forcing - (weight @ forcing) / weight.sum()
    matrix, rhs, finish = fem.constrain_system(
        stiff, mass @ forcing, zero_mean=mass)
    u = finish(fem.solve_direct(matrix, rhs))
    assert abs(weight @ u) < 1e-10
    u_cg = fem.solve_spd(stiff, mass @ forcing, project_constant=True,
                         mean_weight=weight)
    assert fem.l2_norm(mesh, u - u_cg) < 1e-7


def test_dirichlet_elimination():
    mesh = square_mesh(1.0 / 16.0)
    stiff = fem.assemble_stiffness(mesh)
    mass = fem.assemble_mass(mesh)
    fixed = boundary_nodes(mesh, OUTER_BOUNDARY)
    matrix, rhs = fem.apply_dirichlet(
        stiff.copy(), np.zeros(mesh.num_nodes), fixed, 0.0)
    u = fem.solve_spd(matrix, rhs)
    assert np.max(np.abs(u)) == 0.0
    x, y = mesh.nodes.T
    exact = x * (1 - x) * y * (1 - y)
    forcing = 2.0 * (y * (1 - y) + x * (1 - x))
    matrix, rhs = fem.apply_dirichlet(stiff.copy(), mass @ forcing,
                                      fixed, 0.0)
    u = fem.solve_spd(matrix, rhs)
    assert fem.l2_norm(mesh, u - exact) < 5e-3


def test_conflicting_constraints_raise():
    mesh = square_mesh(0.5)
    stiff = fem.assemble_stiffness(mesh)
    mass = fem.assemble_mass(mesh)
    with pytest.raises(InconsistentConstraint):
        fem.constrain_system(stiff, np.zeros(mesh.num_nodes),
                             dirichlet=(np.array([0]), 0.0),
                             zero_mean=mass)


def test_periodic_reduction_solves_shifted_problem():
    mesh = square_mesh(1.0 / 8.0)
    stiff = fem.assemble_stiffness(mesh)
    mass = fem.assemble_mass(mesh)
    x, y = mesh.nodes.T
    exact = (np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y)) / 2.0
    forcing = 4.0 * np.pi ** 2 * exact
    matrix, rhs, finish = fem.constrain_system(
        stiff, mass @ forcing, periodic_pairs=mesh.periodic_pairs,
        zero_mean=mass)
    u = finish(fem.solve_direct(matrix, rhs))
    pairs = mesh.periodic_pairs
    assert np.max(np.abs(u[pairs[:, 0]] - u[pairs[:, 1]])) == 0.0
    assert fem.l2_norm(mesh, u - exact) < 0.03


def test_reacting_pair_charge_decay_is_exact():
    mesh = disk_mesh(0.1)
    stiff = fem.assemble_stiffness(mesh)
    mass = fem.assemble_mass(mesh, lumped=True)
    rng = np.random.default_rng(2)
    c_plus = 1.0 + 0.3 * rng.uniform(-1, 1, mesh.num_nodes)
    c_minus = 1.0 + 0.3 * rng.uniform(-1, 1, mesh.num_nodes)
    ones = np.ones(mesh.num_nodes)
    dt = 0.05
    charge = ones @ (mass @ (c_plus - c_minus))
    total = ones @ (mass @ (c_plus + c_minus))
    norms = [fem.l2_norm(mesh, c_plus + c_minus)]
    for _ in range(5):
        c_plus, c_minus = fem.step_reacting_pair(
            mass, stiff, stiff, c_plus, c_minus, dt)
        charge_new = ones @ (mass @ (c_plus - c_minus))
        assert charge_new == pytest.approx(charge / (1 + 2 * dt), rel=1e-12)
        charge = charge_new
        norms.append(fem.l2_norm(mesh, c_plus + c_minus))
    total_new = ones @ (mass @ (c_plus + c_minus))
    assert total_new == pytest.approx(total, rel=1e-12)
    # The sum obeys an implicit heat step, so its L2 norm cannot grow.
    assert all(b <= a + 1e-13 for a, b in zip(norms, norms[1:]))


def drifted_pair(mesh, scale):
    """Nernst-Planck operators of both species under a scaled drift."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    phi = scale * (np.sin(2 * np.pi * x) * np.cos(np.pi * y) + x * y)
    tensor = np.diag([0.6, 0.4])
    stiff = fem.assemble_stiffness(mesh, tensor)
    return [stiff - fem.assemble_convection(mesh, drift=phi,
                                            drift_tensor=tensor,
                                            drift_sign=sign)
            for sign in (1.0, -1.0)]


def direct_pair_step(mass, op_plus, op_minus, c_plus, c_minus, dt):
    a11 = mass + dt * op_plus + dt * mass
    a22 = mass + dt * op_minus + dt * mass
    block = sp.bmat([[a11, -dt * mass], [-dt * mass, a22]], format="csc")
    rhs = np.concatenate([mass @ c_plus, mass @ c_minus])
    return splu(block).solve(rhs)


class TrackedLU:
    """An LU that can be weakly referenced, to see when it is freed."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, rhs):
        return self.lu.solve(rhs)


def test_transport_solver_reuses_its_lu_against_fresh_factorizations(
        monkeypatch):
    kept = []

    def tracked_splu(matrix):
        # The old LU must be freed before a refresh factors the block.
        assert all(ref() is None for ref in kept)
        lu = TrackedLU(splu(matrix))
        kept.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(fem, "splu", tracked_splu)
    mesh = square_mesh(1 / 32)
    mass = fem.assemble_mass(mesh, lumped=True)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    c_plus = 0.2 + 0.5 * np.exp(-25 * ((x - 0.35) ** 2 + (y - 0.45) ** 2))
    c_minus = 0.2 + 0.5 * np.exp(-25 * ((x - 0.7) ** 2 + (y - 0.6) ** 2))
    ones = np.ones(2 * mesh.num_nodes)
    content = ones @ np.concatenate([mass @ c_plus, mass @ c_minus])
    dt = 2e-3
    solver = fem.TransportSolver()
    # Like the sweeps of one step, each drift lies within 1% of the
    # first, whose LU the solver keeps.
    for sweep, scale in enumerate((1.0, 1.01, 1.005, 1.0025)):
        ops = drifted_pair(mesh, scale)
        got = np.concatenate(fem.step_reacting_pair(
            mass, *ops, c_plus, c_minus, dt, solver=solver))
        ref = direct_pair_step(mass, *ops, c_plus, c_minus, dt)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
        new_content = ones @ np.concatenate(
            [mass @ got[:mesh.num_nodes], mass @ got[mesh.num_nodes:]])
        assert abs(new_content - content) <= 1e-13 * content
        assert solver.factorizations == 1
        assert solver.krylov_solves == sweep
    assert solver.krylov_iterations >= solver.krylov_solves
    assert solver.krylov_iterations <= \
        fem.TRANSPORT_KRYLOV_ITERS * solver.krylov_solves

    # A block 100 times stiffer defeats the lagged LU, so the solver
    # refactors and returns the direct solution itself.
    ops = drifted_pair(mesh, 1.0)
    got = np.concatenate(fem.step_reacting_pair(
        mass, *ops, c_plus, c_minus, 100 * dt, solver=solver))
    assert solver.factorizations == len(kept) == 2
    assert solver.krylov_solves == 3
    ref = direct_pair_step(mass, *ops, c_plus, c_minus, 100 * dt)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("drift", [0.002, 0.02])
def test_transport_solver_takes_a_second_cycle_before_refactoring(drift):
    # One GMRES cycle stops on the preconditioned residual with the true
    # residual just above the gate for these drifts; the second cycle
    # takes them up without a new factorization.
    mesh = square_mesh(1 / 32)
    mass = fem.assemble_mass(mesh, lumped=True)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    c_plus = 0.2 + 0.5 * np.exp(-25 * ((x - 0.35) ** 2 + (y - 0.45) ** 2))
    c_minus = 0.2 + 0.5 * np.exp(-25 * ((x - 0.7) ** 2 + (y - 0.6) ** 2))
    dt = 2e-3
    solver = fem.TransportSolver()
    for scale in (1.0, 1.0 + drift):
        ops = drifted_pair(mesh, scale)
        got = np.concatenate(fem.step_reacting_pair(
            mass, *ops, c_plus, c_minus, dt, solver=solver))
        ref = direct_pair_step(mass, *ops, c_plus, c_minus, dt)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert solver.factorizations == 1
    assert solver.krylov_solves == 1


def perforated_stokes_case():
    eps = 0.25
    mesh = generate_perforated_mesh(
        PerforatedDomain(eps, UnitCellGeometry(
            DiskInclusion((0.5, 0.5), 0.25), 0.125)), 1 / 32)
    forcing = np.random.default_rng(5).standard_normal(
        (mesh.num_triangles, 2))
    bc = {"no_slip_tags": [GAMMA_INTERIOR, OUTER_BOUNDARY]}
    return mesh, bc, eps ** 2, [forcing]


def periodic_cell_stokes_case():
    # The configuration of cell.solve_stokes_cell_problems.
    bc = {"periodic": True, "no_slip_tags": [GAMMA_INTERIOR]}
    return disk_mesh(1 / 32), bc, 1.0, [(1.0, 0.0), (0.0, 1.0)]


@pytest.mark.parametrize("case", [perforated_stokes_case,
                                  periodic_cell_stokes_case],
                         ids=["perforated", "periodic_cell"])
def test_schur_cg_stokes_matches_direct_route(case, monkeypatch):
    mesh, bc, viscosity, forcings = case()
    direct = fem.StokesOperator(mesh, bc, viscosity=viscosity)
    monkeypatch.setattr(fem, "DIRECT_DOF_LIMIT", 0)
    op = fem.StokesOperator(mesh, bc, viscosity=viscosity)
    assert (direct._mode, op._mode) == ("direct", "schur_cg")
    for forcing in forcings:
        vel_ref, p_ref = direct.solve(forcing)
        vel, p = op.solve(forcing)
        assert np.max(np.abs(vel.values - vel_ref.values)) \
            <= 1e-8 * np.max(np.abs(vel_ref.values))
        assert np.max(np.abs(p - p_ref)) <= 1e-8 * np.max(np.abs(p_ref))
        assert relative_weak_divergence(mesh, vel) <= 1e-8
    assert direct.solves == op.solves == len(forcings)
    assert direct.schur_iterations == 0
    assert 0 < op.schur_iterations <= 80 * len(forcings)

    # One LU of the scalar block solves both components as the LU of the
    # whole two-component velocity block does.
    block = splu(op.matrix[op.u_ids][:, op.u_ids].tocsc())
    rhs = np.random.default_rng(6).standard_normal(len(op.u_ids))
    ref = block.solve(rhs)
    assert np.max(np.abs(op._solve_velocity(rhs) - ref)) \
        <= 1e-14 * np.max(np.abs(ref))


def test_stokes_zero_forcing_gives_zero_velocity():
    mesh = disk_mesh(0.1)
    vel, pressure = fem.solve_stokes(
        mesh, (0.0, 0.0),
        {"periodic": True, "no_slip_tags": [GAMMA_INTERIOR]})
    assert np.max(np.abs(vel.values)) < 1e-12
    assert np.max(np.abs(pressure.values)) < 1e-10


def test_stokes_driven_cell_flow():
    mesh = disk_mesh(0.1)
    vel, _ = fem.solve_stokes(
        mesh, (1.0, 0.0),
        {"periodic": True, "no_slip_tags": [GAMMA_INTERIOR]})
    flux = fem.integrate_p2(mesh, vel)
    assert flux[0] > 1e-3
    assert abs(flux[1]) < 1e-12
    assert np.linalg.norm(fem.weak_divergence(mesh, vel)) < 1e-8
    no_slip = fem._p2_boundary_dofs(mesh, {GAMMA_INTERIOR})
    assert np.max(np.abs(vel.values[no_slip])) < 1e-12


def test_stokes_periodic_velocity_agrees_across_faces():
    mesh = disk_mesh(0.1)
    vel, _ = fem.solve_stokes(
        mesh, (0.0, 1.0),
        {"periodic": True, "no_slip_tags": [GAMMA_INTERIOR]})
    pairs = mesh.periodic_pairs
    gap = vel.values[pairs[:, 0]] - vel.values[pairs[:, 1]]
    assert np.max(np.abs(gap)) == 0.0


def test_stokes_without_solid_phase_rejects_mean_forcing():
    mesh = square_mesh(0.25)
    with pytest.raises(NoSolidPhase):
        fem.solve_stokes(mesh, (1.0, 0.0),
                         {"periodic": True, "no_slip_tags": [GAMMA_INTERIOR]})
    vel, _ = fem.solve_stokes(
        mesh, (0.0, 0.0),
        {"periodic": True, "no_slip_tags": [GAMMA_INTERIOR]})
    assert np.max(np.abs(vel.values)) < 1e-12


def test_p2_element_means_reproduce_linear_fields():
    mesh = disk_mesh(0.1)
    edges, tri_edges, n_edges = fem._p2_data(mesh)
    midpoints = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    points = np.vstack([mesh.nodes, midpoints])
    linear = points @ np.array([[1.5, -0.25], [0.5, 2.0]])
    vel = fem.Field(mesh, "p2v", linear)
    means = fem.element_means(mesh, vel)
    centroids = mesh.nodes[mesh.triangles].mean(axis=1)
    expected = centroids @ np.array([[1.5, -0.25], [0.5, 2.0]])
    assert np.max(np.abs(means - expected)) < 1e-13


def test_interface_load_is_balanced_and_normals_point_inward():
    mesh = disk_mesh(0.05)
    for direction in (0, 1):
        load = fem.assemble_interface_normal_load(mesh, direction)
        assert abs(load.sum()) < 1e-12
    center = np.array([0.5, 0.5])
    for a, b, length, normal in fem.boundary_edge_geometry(
            mesh, GAMMA_INTERIOR):
        mid = 0.5 * (mesh.nodes[a] + mesh.nodes[b])
        assert normal @ (center - mid) > 0
    perimeter = fem.boundary_measure(mesh, GAMMA_INTERIOR)
    assert perimeter == pytest.approx(2 * np.pi * 0.25, rel=5e-3)


def test_p1_interpolation_and_outside_point():
    mesh = disk_mesh(0.05)
    values = 3.0 * mesh.nodes[:, 0] - 2.0 * mesh.nodes[:, 1] + 0.7
    points = np.array([[0.1, 0.1], [0.9, 0.3], [0.5, 0.05]])
    got = fem.p1_interpolate(mesh, values, points)
    expected = 3.0 * points[:, 0] - 2.0 * points[:, 1] + 0.7
    assert np.max(np.abs(got - expected)) < 1e-12
    with pytest.raises(PointOutsideFluidPart):
        fem.p1_interpolate(mesh, values, [[0.5, 0.5]])


@pytest.mark.parametrize("target", ["perforated", "square"])
def test_batched_interpolation_matches_pointwise_reference(target):
    # Nodes and edge midpoints sit on element edges, where the choice of
    # triangle rests on the sign of a rounded barycentric coordinate.
    perforated = generate_perforated_mesh(
        PerforatedDomain(0.5, UnitCellGeometry(
            DiskInclusion((0.5, 0.5), 0.25), 0.125)), 1 / 16)
    mesh = perforated if target == "perforated" else square_mesh(1 / 8)
    rng = np.random.default_rng(5)
    bary = rng.dirichlet(np.ones(3), size=200)
    owners = rng.integers(perforated.num_triangles, size=200)
    inner = np.einsum("pi,pid->pd", bary,
                      perforated.nodes[perforated.triangles[owners]])
    midpoints = perforated.nodes[edge_table(perforated).edges].mean(axis=1)
    points = np.vstack([perforated.nodes, midpoints, inner])
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    values = np.column_stack([np.sin(3 * x) + y * y, np.exp(x - 2 * y),
                              1.0 + x * y])
    tris, _ = fem.PointLocator(mesh).locate(points)
    got = fem.p1_interpolate(mesh, values, points)
    assert got.shape == (len(points), 3)
    for k in range(3):
        ref_tris, ref = p1_interpolate_reference(mesh, values[:, k], points)
        bound = 1e-14 * np.max(np.abs(ref))
        assert np.array_equal(tris, ref_tris)
        assert np.max(np.abs(got[:, k] - ref)) <= bound
        scalar = fem.p1_interpolate(mesh, values[:, k], points)
        assert scalar.shape == (len(points),)
        assert np.max(np.abs(scalar - ref)) <= bound


def test_recovered_gradient_exact_for_linear_field():
    mesh = square_mesh(0.25)
    values = 2.0 * mesh.nodes[:, 0] - 0.5 * mesh.nodes[:, 1]
    grad = fem.recover_nodal_gradient(mesh, values)
    assert np.max(np.abs(grad - [2.0, -0.5])) < 1e-12
