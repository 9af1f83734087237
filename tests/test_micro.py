"""Pore-scale solver behavior on tiled perforated meshes."""

import numpy as np
import pytest
import scipy.sparse as sp

from snpp import fem, macro, micro
from snpp.errors import (
    FixedPointDivergence,
    GridMisaligned,
    IncompatibleSource,
    NoSolidPhase,
    ResolutionTooCoarse,
    ValidationError,
)
from snpp.mesh import (
    GAMMA_INTERIOR,
    OUTER_BOUNDARY,
    DiskInclusion,
    PerforatedDomain,
    UnitCellGeometry,
    boundary_nodes,
    generate_perforated_mesh,
    mesh_area,
)

from oracles import relative_weak_divergence

DISK_CELL = UnitCellGeometry(DiskInclusion((0.5, 0.5), 0.25), 0.125)
PLAIN_CELL = UnitCellGeometry(None, 0.125)


def neumann_regime(sigma=0.0, alpha=0, beta=0, gamma=0):
    return macro.ScalingRegime("neumann", alpha, beta, gamma, sigma=sigma)


def blob(x, y):
    return 0.2 + 0.5 * np.exp(-25 * ((x - 0.35) ** 2 + (y - 0.45) ** 2))


def anti_blob(x, y):
    return 0.2 + 0.5 * np.exp(-25 * ((x - 0.7) ** 2 + (y - 0.6) ** 2))


def neutral_blobs(mesh):
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    return macro.make_neutral(mesh, blob(x, y), anti_blob(x, y))


def test_zero_charge_run_is_inert():
    problem = micro.MicroProblem(
        PerforatedDomain(0.5, DISK_CELL), neumann_regime(),
        lambda x, y: 0.4 + 0.2 * np.exp(-10 * (x - 0.5) ** 2),
        lambda x, y: 0.4 + 0.2 * np.exp(-10 * (x - 0.5) ** 2),
        t_end=0.01, dt=5e-3, target_h=1 / 16)
    states, diagnostics = micro.run_micro(problem)
    for state in states:
        assert np.max(np.abs(state.phi)) <= 1e-12
        assert np.max(np.abs(state.velocity.values)) <= 1e-12
        assert np.max(np.abs(state.c_plus - state.c_minus)) <= 1e-12
    mass0 = diagnostics[0]["mass"]
    assert max(abs(r["mass"] - mass0) for r in diagnostics) <= 1e-12 * mass0
    assert all(r["fp_iters"] == 2 for r in diagnostics[1:])


def test_run_reports_fixed_point_divergence(monkeypatch):
    # The sweep cap is read from macro at run time, so one cap governs
    # both scales.
    monkeypatch.setattr(macro, "FIXED_POINT_MAX_ITER", 1)
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    c_plus, c_minus = neutral_blobs(mesh)
    problem = micro.MicroProblem(domain, neumann_regime(), c_plus, c_minus,
                                 t_end=0.01, dt=5e-3, target_h=1 / 16)
    with pytest.raises(FixedPointDivergence):
        micro.run_micro(problem)


def test_first_sweep_reuses_end_of_step_fields(monkeypatch):
    # One potential solve for the initial fields, one after every step,
    # and one before every sweep but the first of each step.
    calls = []
    solve = micro._Operators.solve_potential

    def counted(self, charge):
        calls.append(charge.copy())
        return solve(self, charge)

    monkeypatch.setattr(micro._Operators, "solve_potential", counted)
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    c_plus, c_minus = neutral_blobs(mesh)
    problem = micro.MicroProblem(domain, neumann_regime(), c_plus, c_minus,
                                 t_end=0.01, dt=2e-3, target_h=1 / 16)
    _, diagnostics = micro.run_micro(problem)
    sweeps = sum(row["fp_iters"] for row in diagnostics)
    assert len(diagnostics) == 6
    assert len(calls) == 1 + sweeps
    for earlier, later in zip(calls, calls[1:]):
        assert not np.array_equal(earlier, later)


def test_eps_one_step_matches_manual_composition():
    # At eps = 1 on an unperforated cell every scaling factor is one, so
    # one splitting sweep must reproduce a hand-assembled sequence of
    # solves exactly.
    domain = PerforatedDomain(1.0, PLAIN_CELL)
    mesh = generate_perforated_mesh(domain, 0.125)
    c_plus, c_minus = neutral_blobs(mesh)
    dt = 5e-3
    problem = micro.MicroProblem(domain, neumann_regime(), c_plus, c_minus,
                                 t_end=dt, dt=dt, target_h=0.125)
    problem._mesh = mesh
    zero_vel = fem.Field(mesh, "p2v",
                         np.zeros((fem.p2_dof_count(mesh), 2)))
    start = micro.MicroState(mesh, 0.0, c_plus, c_minus,
                             np.zeros(mesh.num_nodes),
                             np.zeros(mesh.num_nodes), zero_vel)
    stepped = micro.step_micro(start, problem)

    stiff = fem.assemble_stiffness(mesh)
    mass = fem.assemble_mass(mesh)
    lumped = fem.assemble_mass(mesh, lumped=True)
    weight = np.asarray(mass @ np.ones(mesh.num_nodes)).ravel()
    charge = c_plus - c_minus
    rhs = np.asarray(mass @ charge).ravel()
    rhs -= rhs.sum() / weight.sum() * weight
    aug, aug_rhs = fem.apply_zero_mean(stiff, rhs, weight)
    phi = fem.solve_direct(sp.csc_matrix(aug), aug_rhs)[:-1]
    assert np.max(np.abs(stepped.phi - phi)) <= 1e-12

    charge_e = fem.element_means(mesh, charge)
    forcing = -charge_e[:, None] * fem.p1_element_gradients(mesh, phi)
    stokes = fem.StokesOperator(
        mesh, {"no_slip_tags": [GAMMA_INTERIOR, OUTER_BOUNDARY]},
        viscosity=1.0)
    velocity, pressure = stokes.solve(forcing)
    assert np.max(np.abs(stepped.velocity.values - velocity.values)) <= 1e-12
    assert np.max(np.abs(stepped.pressure - pressure)) <= 1e-12

    ops = []
    for sign in (1.0, -1.0):
        conv = fem.assemble_convection(mesh, velocity=velocity, drift=phi,
                                       drift_tensor=np.eye(2),
                                       drift_sign=sign)
        ops.append(stiff - conv)
    ref_plus, ref_minus = fem.step_reacting_pair(
        lumped, ops[0], ops[1], c_plus, c_minus, dt)
    assert np.max(np.abs(stepped.c_plus - ref_plus)) <= 1e-12
    assert np.max(np.abs(stepped.c_minus - ref_minus)) <= 1e-12
    assert stepped.t == pytest.approx(dt)


def test_charged_run_conserves_mass_and_stays_neutral():
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    c_plus, c_minus = neutral_blobs(mesh)
    problem = micro.MicroProblem(domain, neumann_regime(), c_plus, c_minus,
                                 t_end=0.02, dt=5e-3, target_h=1 / 16)
    problem._mesh = mesh
    states, diagnostics = micro.run_micro(problem)
    mass0 = diagnostics[0]["mass"]
    assert max(abs(r["mass"] - mass0) for r in diagnostics) <= 1e-9 * mass0
    assert max(abs(r["charge"]) for r in diagnostics) <= 1e-12
    assert all(2 <= r["fp_iters"] <= 10 for r in diagnostics[1:])
    final = states[-1]
    final.validate()
    wall = fem._p2_boundary_dofs(mesh, {GAMMA_INTERIOR, OUTER_BOUNDARY})
    assert np.max(np.abs(final.velocity.values[wall])) <= 1e-12
    assert np.max(np.abs(final.velocity.values)) > 0


def test_dirichlet_branch_pins_wall_potential():
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    c_plus, c_minus = neutral_blobs(mesh)
    regime = macro.ScalingRegime("dirichlet", 2, 1, 1, phi_d=0.3)
    problem = micro.MicroProblem(domain, regime, c_plus, c_minus,
                                 t_end=0.01, dt=5e-3, target_h=1 / 16)
    problem._mesh = mesh
    states, _ = micro.run_micro(problem)
    final = states[-1]
    wall_nodes = np.asarray(sorted(boundary_nodes(mesh, GAMMA_INTERIOR)))
    assert np.max(np.abs(final.phi[wall_nodes] - 0.3)) <= 1e-12
    # eps^alpha stiff * phi = mass * charge away from the wall
    stiff = 0.5 ** 2 * fem.assemble_stiffness(mesh)
    mass = fem.assemble_mass(mesh)
    residual = np.asarray(
        stiff @ final.phi
        - mass @ (final.c_plus - final.c_minus)).ravel()
    interior = np.setdiff1d(np.arange(mesh.num_nodes), wall_nodes)
    assert np.max(np.abs(residual[interior])) <= 1e-10


def test_dirichlet_without_inclusion_has_no_wall():
    problem = micro.MicroProblem(
        PerforatedDomain(1.0, PLAIN_CELL),
        macro.ScalingRegime("dirichlet", 2, 1, 1, phi_d=0.3),
        lambda x, y: 0.5 + 0 * x, lambda x, y: 0.5 + 0 * x,
        t_end=0.01, dt=5e-3, target_h=0.125)
    with pytest.raises(NoSolidPhase):
        micro.run_micro(problem)


def test_balanced_surface_charge_solves_then_decays_incompatible():
    # The surface term eps sigma |Gamma_eps| can balance the initial bulk
    # charge, but the reaction decays the bulk side, so a longer run must
    # detect the lost balance.
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    sigma = 0.2
    surface = 0.5 * sigma * fem.boundary_measure(mesh, GAMMA_INTERIOR)
    area = mesh_area(mesh)
    base = 0.4 * np.ones(mesh.num_nodes)
    c_plus = base.copy()
    c_minus = base + surface / area
    regime = neumann_regime(sigma=sigma)
    problem = micro.MicroProblem(domain, regime, c_plus, c_minus,
                                 t_end=0.05, dt=5e-3, target_h=1 / 16)
    problem._mesh = mesh

    zero_vel = fem.Field(mesh, "p2v",
                         np.zeros((fem.p2_dof_count(mesh), 2)))
    start = micro.MicroState(mesh, 0.0, c_plus, c_minus,
                             np.zeros(mesh.num_nodes),
                             np.zeros(mesh.num_nodes), zero_vel)
    stepped = micro.step_micro(start, problem)
    assert np.isfinite(stepped.phi).all()
    assert np.max(np.abs(stepped.phi)) > 1e-3

    with pytest.raises(IncompatibleSource):
        micro.run_micro(problem)


def test_stokes_forcing_lag_matches_exact_resolve():
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    c_plus, c_minus = neutral_blobs(mesh)

    finals = []
    solves = []
    for exact in (False, True):
        problem = micro.MicroProblem(domain, neumann_regime(),
                                     c_plus.copy(), c_minus.copy(),
                                     t_end=0.02, dt=5e-3, target_h=1 / 16,
                                     exact_stokes=exact)
        problem._mesh = mesh
        states, _ = micro.run_micro(problem)
        finals.append(states[-1])
        solves.append(mesh._caches["micro_ops"].stokes_solves)
    assert solves[1] >= solves[0]
    assert np.max(np.abs(finals[0].c_plus - finals[1].c_plus)) <= 1e-8
    assert np.max(np.abs(finals[0].velocity.values
                         - finals[1].velocity.values)) <= 1e-7


@pytest.mark.slow
def test_eps16_step_takes_the_schur_cg_stokes_route():
    domain = PerforatedDomain(1 / 16, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 128)
    c_plus, c_minus = neutral_blobs(mesh)
    problem = micro.MicroProblem(domain, neumann_regime(), c_plus, c_minus,
                                 t_end=2e-3, dt=2e-3, target_h=1 / 128)
    problem._mesh = mesh
    states, _ = micro.run_micro(problem)
    stokes = mesh._caches["micro_ops"].stokes
    assert stokes._mode == "schur_cg"
    assert stokes.solves >= 1
    assert stokes.schur_iterations <= 80 * stokes.solves
    assert relative_weak_divergence(mesh, states[-1].velocity) <= 1e-8


def test_dt_self_convergence_first_order():
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    c_plus, c_minus = neutral_blobs(mesh)
    finals = []
    for dt in (4e-3, 2e-3, 1e-3):
        problem = micro.MicroProblem(domain, neumann_regime(),
                                     c_plus.copy(), c_minus.copy(),
                                     t_end=0.02, dt=dt, target_h=1 / 16,
                                     snapshot_stride=0)
        problem._mesh = mesh
        states, _ = micro.run_micro(problem)
        finals.append(states[-1].c_plus)
    coarse = fem.l2_norm(mesh, finals[0] - finals[1])
    fine = fem.l2_norm(mesh, finals[1] - finals[2])
    assert np.log2(coarse / fine) >= 0.9


def test_average_micro_field_modes():
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    ones = np.ones(mesh.num_nodes)

    intrinsic = micro.average_micro_field(ones, mesh)
    assert intrinsic.shape == (2, 2)
    assert np.max(np.abs(intrinsic - 1.0)) <= 1e-12

    porosity = mesh_area(mesh.cell_mesh)
    superficial = micro.average_micro_field(ones, mesh, mode="superficial")
    assert np.max(np.abs(superficial - porosity)) <= 1e-12

    x = mesh.nodes[:, 0]
    centers = micro.average_micro_field(x, mesh)
    assert np.max(np.abs(centers - np.array([[0.25, 0.75],
                                             [0.25, 0.75]]))) <= 1e-10

    whole = micro.average_micro_field(ones, mesh, cells_per_side=1,
                                      mode="superficial")
    assert whole.shape == (1, 1)
    assert abs(whole[0, 0] - porosity) <= 1e-12

    vec = np.column_stack([x, 1.0 - x])
    vec_avg = micro.average_micro_field(vec, mesh)
    assert vec_avg.shape == (2, 2, 2)
    assert np.max(np.abs(vec_avg[..., 0] + vec_avg[..., 1] - 1.0)) <= 1e-10

    with pytest.raises(GridMisaligned):
        micro.average_micro_field(ones, mesh, cells_per_side=3)
    with pytest.raises(ValidationError):
        micro.average_micro_field(ones, mesh, mode="average")
    plain = generate_perforated_mesh(PerforatedDomain(1.0, PLAIN_CELL),
                                     0.125)
    plain.triangle_cell = None
    with pytest.raises(ValidationError):
        micro.average_micro_field(np.ones(plain.num_nodes), plain)


def test_problem_validation():
    domain = PerforatedDomain(0.5, DISK_CELL)
    regime = neumann_regime()
    good = lambda x, y: 0.5 + 0 * x

    problem = micro.MicroProblem(domain, regime, good, good,
                                 t_end=0.01, dt=-1e-3, target_h=1 / 16)
    with pytest.raises(ValidationError):
        problem.validate()

    problem = micro.MicroProblem(domain, regime,
                                 lambda x, y: 1.5 + 0 * x, good,
                                 t_end=0.01, dt=1e-3, target_h=1 / 16)
    mesh = problem.build_mesh()
    with pytest.raises(ValidationError):
        problem.initial_values(mesh)

    problem = micro.MicroProblem(domain, regime, np.ones(3), good,
                                 t_end=0.01, dt=1e-3, target_h=1 / 16)
    problem._mesh = mesh
    with pytest.raises(ValidationError):
        problem.initial_values(mesh)


def test_resolution_guard():
    problem = micro.MicroProblem(
        PerforatedDomain(0.25, DISK_CELL), neumann_regime(),
        lambda x, y: 0.5 + 0 * x, lambda x, y: 0.5 + 0 * x,
        t_end=0.01, dt=1e-3, target_h=0.125)
    with pytest.raises(ResolutionTooCoarse):
        micro.run_micro(problem)
