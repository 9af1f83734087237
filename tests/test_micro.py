"""Pore-scale solver behavior on tiled perforated meshes."""

import gc
import weakref

import numpy as np
import pytest

from snpp import fem, macro, micro, verify
from snpp.errors import (
    FixedPointDivergence,
    IncompatibleSource,
    NoSolidPhase,
    ValidationError,
)
from snpp.mesh import (
    GAMMA_INTERIOR,
    OUTER_BOUNDARY,
    DiskInclusion,
    PerforatedDomain,
    UnitCellGeometry,
    generate_perforated_mesh,
    mesh_area,
    tagged_edges,
)

from oracles import (
    fixed_point_checked,
    reacting_pair_step,
    relative_weak_divergence,
)

DISK_CELL = UnitCellGeometry(DiskInclusion((0.5, 0.5), 0.25), 0.125)
PLAIN_CELL = UnitCellGeometry(None, 0.125)


def neumann_regime(alpha=0, beta=0, gamma=0):
    return macro.ScalingRegime("neumann", alpha, beta, gamma)


def blob(x, y):
    return 0.2 + 0.5 * np.exp(-25 * ((x - 0.35) ** 2 + (y - 0.45) ** 2))


def anti_blob(x, y):
    return 0.2 + 0.5 * np.exp(-25 * ((x - 0.7) ** 2 + (y - 0.6) ** 2))


def neutral_blobs(mesh):
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    return macro.make_neutral(mesh, blob(x, y), anti_blob(x, y))


def record_stokes_flows(monkeypatch, flows):
    """Append the P2 velocity of every fem.StokesOperator.solve to flows."""
    solve = fem.StokesOperator.solve

    def recorded(self, forcing, tol=fem.DEFAULT_TOL):
        velocity, pressure = solve(self, forcing, tol)
        flows.append(velocity)
        return velocity, pressure

    monkeypatch.setattr(fem.StokesOperator, "solve", recorded)


def record_stokes_operators(monkeypatch, record):
    """Pass every fem.StokesOperator built from now on to record."""
    build = fem.StokesOperator

    def recorded(*args, **kwargs):
        stokes = build(*args, **kwargs)
        record(stokes)
        return stokes

    monkeypatch.setattr(fem, "StokesOperator", recorded)


def test_zero_charge_run_is_inert():
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    c = 0.4 + 0.2 * np.exp(-10 * (mesh.nodes[:, 0] - 0.5) ** 2)
    problem = micro.MicroProblem(domain, mesh, neumann_regime(), c,
                                 c.copy(), t_end=0.01, dt=5e-3)
    states, diagnostics, _ = micro.run_micro(problem)
    for state in states:
        assert type(state) is macro.MacroState
        assert np.max(np.abs(state.phi)) <= 1e-12
        assert state.velocity.shape == (mesh.num_triangles, 2)
        assert np.max(np.abs(state.velocity)) <= 1e-12
        assert np.max(np.abs(state.c_plus - state.c_minus)) <= 1e-12
    mass0 = diagnostics[0]["mass"]
    assert max(abs(r["mass"] - mass0) for r in diagnostics) <= 1e-12 * mass0
    assert all(r["fp_iters"] == 2 for r in diagnostics[1:])


def test_initial_concentrations_neutralize_on_neumann_only():
    mesh = generate_perforated_mesh(PerforatedDomain(0.5, DISK_CELL), 1 / 16)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    c_plus, c_minus = macro.initial_concentrations(mesh, blob, anti_blob,
                                                   neumann_regime())
    ref_plus, ref_minus = macro.make_neutral(mesh, blob(x, y),
                                             anti_blob(x, y))
    assert np.array_equal(c_plus, ref_plus)
    assert np.array_equal(c_minus, ref_minus)
    weight = fem.lumped_mass(mesh)
    assert abs(float(weight @ (c_plus - c_minus))) <= 1e-14

    dirichlet = macro.ScalingRegime("dirichlet", 2, 1, 1, phi_d=0.3)
    c_plus, c_minus = macro.initial_concentrations(mesh, blob, anti_blob,
                                                   dirichlet)
    assert np.array_equal(c_plus, blob(x, y))
    assert np.array_equal(c_minus, anti_blob(x, y))


def test_run_reports_fixed_point_divergence(monkeypatch):
    # The sweep cap is read from macro at run time, so one cap governs
    # both scales.
    monkeypatch.setattr(macro, "FIXED_POINT_MAX_ITER", 1)
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    c_plus, c_minus = neutral_blobs(mesh)
    problem = micro.MicroProblem(domain, mesh, neumann_regime(), c_plus,
                                 c_minus, t_end=0.01, dt=5e-3)
    with pytest.raises(FixedPointDivergence):
        micro.run_micro(problem)


def test_run_steps_stop_within_tolerance_of_the_fixed_point(monkeypatch):
    # At stride 0 only the last step ends with a field update, so every
    # other step starts from the fields of its predecessor's last sweep.
    errors = []
    monkeypatch.setattr(micro, "run_steps",
                        fixed_point_checked(micro.run_steps, errors))
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    c_plus, c_minus = neutral_blobs(mesh)
    for stride in (1, 0):
        errors.clear()
        problem = micro.MicroProblem(domain, mesh, neumann_regime(), c_plus,
                                     c_minus, t_end=0.02, dt=2e-3,
                                     snapshot_stride=stride)
        _, diagnostics, _ = micro.run_micro(problem)
        assert len(errors) == 10
        assert max(errors) <= macro.FIXED_POINT_TOL
        assert all(row["fp_iters"] >= 2 for row in diagnostics[1:])


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
    problem = micro.MicroProblem(domain, mesh, neumann_regime(), c_plus,
                                 c_minus, t_end=0.01, dt=2e-3)
    _, diagnostics, profile = micro.run_micro(problem)
    sweeps = sum(row["fp_iters"] for row in diagnostics)
    assert len(diagnostics) == 6
    assert len(calls) == 1 + sweeps
    assert profile["sweeps"] == sweeps
    assert profile["field_updates"] == 1 + sweeps
    # Every flow update solves Stokes: one per potential solve.
    assert profile["stokes_solves"] == 1 + sweeps
    assert profile["transport_factorizations"] \
        + profile["refined_solves"] == sweeps
    for earlier, later in zip(calls, calls[1:]):
        assert not np.array_equal(earlier, later)


@pytest.mark.parametrize("stride", [0, 2])
def test_steps_between_snapshots_end_without_a_field_update(monkeypatch,
                                                            stride):
    # Only a kept step ends with a potential and a Stokes solve; the next
    # step's first sweep reads the fields and the transport block of the
    # last sweep.
    refills = []
    refill = fem.TransportSolver.refill

    def counted_refill(self, *fields):
        refills.append(fields)
        return refill(self, *fields)

    monkeypatch.setattr(fem.TransportSolver, "refill", counted_refill)
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    c_plus, c_minus = neutral_blobs(mesh)
    problem = micro.MicroProblem(domain, mesh, neumann_regime(), c_plus,
                                 c_minus, t_end=0.01, dt=2e-3,
                                 snapshot_stride=stride)
    states, diagnostics, profile = micro.run_micro(problem)
    kept = len(states) - 1
    assert kept == {0: 1, 2: 3}[stride]
    updates = 1 + sum(row["fp_iters"] - 1 for row in diagnostics[1:]) + kept
    assert profile["field_updates"] == updates
    assert profile["field_updates"] < 1 + profile["sweeps"]
    assert profile["stokes_solves"] == updates
    # The solver's build fills the block once, and every field update but
    # the last is read by a transport step, which refills it once.
    assert len(refills) - 1 == updates - 1


@pytest.mark.parametrize("stride", [0, 2])
def test_every_snapshot_holds_the_fields_of_its_concentrations(stride):
    # Steps between snapshots keep the fields of their last sweep, but a
    # kept step solves them again from its own concentrations.  The mesh
    # is on the direct Stokes route, whose solves repeat exactly.
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    c_plus, c_minus = neutral_blobs(mesh)
    problem = micro.MicroProblem(domain, mesh, neumann_regime(), c_plus,
                                 c_minus, t_end=0.01, dt=2e-3,
                                 snapshot_stride=stride)
    states, _, profile = micro.run_micro(problem)
    assert profile["schur_iterations"] == 0
    assert len(states) == {0: 2, 2: 4}[stride]
    ops = micro._Operators(mesh, problem.regime, problem.dt)
    for state in states:
        charge = state.c_plus - state.c_minus
        phi = ops.solve_potential(charge)
        velocity, pressure = ops.solve_flow(charge, phi, fem.DEFAULT_TOL)
        for ours, ref in ((state.phi, phi), (state.pressure, pressure),
                          (state.velocity, velocity)):
            assert np.max(np.abs(ours - ref)) \
                <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


def field_tol_runs(monkeypatch, problem):
    """run_micro under the field-tolerance rule of macro.run_steps and at
    full tolerance (FIELD_TOL_FACTOR 0), both on the Schur Stokes route,
    as (rule, full)."""
    monkeypatch.setattr(fem, "DIRECT_DOF_LIMIT", 0)
    rule = micro.run_micro(problem)
    monkeypatch.setattr(macro, "FIELD_TOL_FACTOR", 0.0)
    return rule, micro.run_micro(problem)


def assert_same_fixed_points(rule, full):
    """Equal sweeps per step and concentrations within the stop test's
    FIXED_POINT_TOL times its scale at every snapshot."""
    (states, diagnostics, _), (full_states, full_diagnostics, _) = \
        rule, full
    assert [row["fp_iters"] for row in diagnostics] \
        == [row["fp_iters"] for row in full_diagnostics]
    assert len(states) == len(full_states)
    for ours, ref in zip(states, full_states):
        ours = np.concatenate([ours.c_plus, ours.c_minus])
        ref = np.concatenate([ref.c_plus, ref.c_minus])
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(ours - ref)) <= macro.FIXED_POINT_TOL * scale


def test_in_step_stokes_solves_stop_at_the_tolerance_of_the_sweep(
        monkeypatch):
    # Sweeps after the first solve their flow only as accurately as the
    # last gap asks; the initial and the kept steps' fields are solved at
    # full tolerance, so every snapshot holds the flow of its own
    # concentrations.
    domain = PerforatedDomain(0.25, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 32)
    c_plus, c_minus = neutral_blobs(mesh)
    problem = micro.MicroProblem(domain, mesh, neumann_regime(), c_plus,
                                 c_minus, t_end=8e-3, dt=2e-3)
    rule, full = field_tol_runs(monkeypatch, problem)
    assert_same_fixed_points(rule, full)
    (states, diagnostics, profile), (_, _, full_profile) = rule, full
    assert all(row["fp_iters"] >= 2 for row in diagnostics[1:])
    assert profile["stokes_solves"] == full_profile["stokes_solves"]
    assert profile["schur_iterations"] < full_profile["schur_iterations"]
    for state in states:
        # A fresh operator: its solve starts from no earlier pressure.
        ops = micro._Operators(mesh, problem.regime, problem.dt)
        assert ops.stokes._mode == "schur_cg"
        charge = state.c_plus - state.c_minus
        phi = ops.solve_potential(charge)
        velocity, pressure = ops.solve_flow(charge, phi, fem.DEFAULT_TOL)
        for ours, ref in ((state.pressure, pressure),
                          (state.velocity, velocity)):
            assert np.max(np.abs(ours - ref)) <= 1e-8 * np.max(np.abs(ref))


def test_eps_one_step_matches_manual_composition(monkeypatch):
    # At eps = 1 on an unperforated cell every scaling factor is one, so
    # one splitting sweep must reproduce a hand-assembled sequence of
    # solves exactly.
    def one_sweep(*args, **kwargs):
        return macro.run_steps(*args, iterate=False, **kwargs)

    monkeypatch.setattr(micro, "run_steps", one_sweep)
    domain = PerforatedDomain(1.0, PLAIN_CELL)
    mesh = generate_perforated_mesh(domain, 0.125)
    c_plus, c_minus = neutral_blobs(mesh)
    dt = 5e-3
    problem = micro.MicroProblem(domain, mesh, neumann_regime(), c_plus,
                                 c_minus, t_end=dt, dt=dt)
    states, diagnostics, _ = micro.run_micro(problem)
    fields, stepped = states[0], states[-1]
    assert [row["fp_iters"] for row in diagnostics] == [0, 1]

    stiff = fem.assemble_stiffness(mesh)
    mass = fem.assemble_mass(mesh)
    lumped = fem.lumped_mass(mesh)
    weight = fem.lumped_mass(mesh)
    charge = c_plus - c_minus
    rhs = np.asarray(mass @ charge).ravel()
    rhs -= rhs.sum() / weight.sum() * weight
    phi = fem.ZeroMeanLU(stiff, weight).solve(rhs)
    assert np.max(np.abs(fields.phi - phi)) <= 1e-12

    charge_e = fem.element_means(mesh, charge)
    forcing = -charge_e[:, None] * fem.p1_element_gradients(mesh, phi)
    stokes = fem.StokesOperator(mesh, viscosity=1.0)
    velocity, pressure = stokes.solve(forcing)
    velocity = fem.p2_element_means(mesh, velocity)
    assert np.max(np.abs(fields.velocity - velocity)) <= 1e-12
    assert np.max(np.abs(fields.pressure - pressure)) <= 1e-12

    ref_plus, ref_minus = reacting_pair_step(
        mesh, stiff, lumped, dt, velocity, phi, np.eye(2),
        c_plus, c_minus)
    assert np.max(np.abs(stepped.c_plus - ref_plus)) <= 1e-12
    assert np.max(np.abs(stepped.c_minus - ref_minus)) <= 1e-12
    assert stepped.t == pytest.approx(dt)


def test_run_factors_its_transport_block_once_and_solves_it_every_sweep():
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    c_plus, c_minus = neutral_blobs(mesh)
    problem = micro.MicroProblem(domain, mesh, neumann_regime(), c_plus,
                                 c_minus, t_end=2e-3, dt=2e-3)
    _, diagnostics, profile = micro.run_micro(problem)
    factorizations = profile["transport_factorizations"]
    refined = profile["refined_solves"]
    entries = profile["lu_entries"]
    assert factorizations == 1
    assert factorizations + refined == sum(row["fp_iters"]
                                           for row in diagnostics)
    assert refined >= 1
    # The kept LU stores at least the diagonal of the block.
    assert entries >= 2 * mesh.num_nodes


def test_charged_run_conserves_mass_and_stays_neutral(monkeypatch):
    flows = []
    record_stokes_flows(monkeypatch, flows)
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    c_plus, c_minus = neutral_blobs(mesh)
    problem = micro.MicroProblem(domain, mesh, neumann_regime(), c_plus,
                                 c_minus, t_end=0.02, dt=5e-3)
    states, diagnostics, _ = micro.run_micro(problem)
    mass0 = diagnostics[0]["mass"]
    assert max(abs(r["mass"] - mass0) for r in diagnostics) <= 1e-9 * mass0
    assert max(abs(r["charge"]) for r in diagnostics) <= 1e-12
    assert all(2 <= r["fp_iters"] <= 10 for r in diagnostics[1:])
    assert verify.run_invariant_suite(states, diagnostics,
                                      neumann_regime()).passed
    # The state holds the element means of the last P2 flow, which is
    # no-slip on every wall.
    flow = flows[-1]
    assert np.array_equal(states[-1].velocity,
                          fem.p2_element_means(mesh, flow))
    wall = fem._p2_boundary_dofs(mesh, {GAMMA_INTERIOR, OUTER_BOUNDARY})
    assert np.max(np.abs(flow[wall])) <= 1e-12
    assert np.max(np.abs(flow)) > 0


def flux_residual(mesh, means):
    """Nodal sums of area * grad(phi_i) . u over the elements, for the
    elementwise velocity means."""
    areas, grads = fem.triangle_data(mesh)
    residual = np.zeros(mesh.num_nodes)
    contrib = np.einsum("md,mid->mi", means, grads) * areas[:, None]
    np.add.at(residual, mesh.triangles.ravel(), contrib.ravel())
    return residual


def test_no_slip_flow_divergence_is_minus_the_flux_residual_of_its_means(
        monkeypatch):
    # For a P2 field that vanishes on the boundary, integration by parts
    # and the exact edge-midpoint rule give B u = -F(means of u), so the
    # elementwise divergence check on the states checks the P2 flow.  The
    # Stokes flow is divergence-free to rounding, so each component (no
    # longer divergence-free, still no-slip) is checked too.
    flows = []
    record_stokes_flows(monkeypatch, flows)
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    c_plus, c_minus = neutral_blobs(mesh)
    problem = micro.MicroProblem(domain, mesh, neumann_regime(), c_plus,
                                 c_minus, t_end=5e-3, dt=5e-3)
    states, _, _ = micro.run_micro(problem)
    flow = flows[-1]
    assert np.array_equal(states[-1].velocity,
                          fem.p2_element_means(mesh, flow))
    bx, by = fem.assemble_divergence(mesh)
    for mask in ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0)):
        field = flow * np.array(mask)
        terms = abs(bx) @ np.abs(field[:, 0]) + abs(by) @ np.abs(field[:, 1])
        weak = fem.weak_divergence(mesh, field)
        flux = flux_residual(mesh, fem.p2_element_means(mesh, field))
        assert np.max(np.abs(weak + flux)) <= 1e-12 * np.max(terms)
    assert verify._divergence_residual(states[-1]) == np.max(np.abs(
        flux_residual(mesh, states[-1].velocity)))


@pytest.mark.parametrize("regimes", [
    (macro.ScalingRegime("neumann", 0, 0, 0),
     macro.ScalingRegime("neumann", 1, 1, 1)),
    (macro.ScalingRegime("dirichlet", 2, 1, 1, phi_d=0.5),
     macro.ScalingRegime("dirichlet", 1, 0, 0, phi_d=0.5)),
], ids=["neumann_000_111", "dirichlet_211_100"])
def test_exponent_shift_leaves_the_run_unchanged(regimes):
    # eps^alpha (phi - phi_d) solves an alpha-free problem, and the flow
    # and drift see it through eps^(beta - alpha) and eps^(gamma - alpha).
    # Regimes with the same differences therefore give the same run up to
    # rounding, since eps is a power of two.  The potentials sit around
    # phi_d, so their rounding is relative to eps^alpha |phi|.
    eps = 0.25
    domain = PerforatedDomain(eps, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 32)
    c_plus, c_minus = neutral_blobs(mesh)
    runs = []
    for regime in regimes:
        problem = micro.MicroProblem(domain, mesh, regime, c_plus, c_minus,
                                     t_end=0.01, dt=2e-3)
        runs.append(micro.run_micro(problem))
    (states_a, diag_a, _), (states_b, diag_b, _) = runs
    assert [r["fp_iters"] for r in diag_a] == [r["fp_iters"] for r in diag_b]
    (a, b), (final_a, final_b) = regimes, (states_a[-1], states_b[-1])
    assert np.max(np.abs(final_a.c_plus - final_b.c_plus)) <= 1e-13
    assert np.max(np.abs(final_a.c_minus - final_b.c_minus)) <= 1e-13
    shifted_a = eps ** a.alpha * (final_a.phi - a.phi_d)
    shifted_b = eps ** b.alpha * (final_b.phi - b.phi_d)
    scale = max(np.max(np.abs(eps ** a.alpha * final_a.phi)),
                np.max(np.abs(eps ** b.alpha * final_b.phi)))
    assert np.max(np.abs(shifted_a - shifted_b)) <= 1e-13 * scale
    assert np.max(np.abs(final_a.velocity - final_b.velocity)) \
        <= 1e-11 * np.max(np.abs(final_a.velocity))


def test_dirichlet_branch_pins_wall_potential():
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    c_plus, c_minus = neutral_blobs(mesh)
    regime = macro.ScalingRegime("dirichlet", 2, 1, 1, phi_d=0.3)
    problem = micro.MicroProblem(domain, mesh, regime, c_plus, c_minus,
                                 t_end=0.01, dt=5e-3)
    states, _, _ = micro.run_micro(problem)
    final = states[-1]
    wall_nodes = np.unique(tagged_edges(mesh, {GAMMA_INTERIOR}))
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
    domain = PerforatedDomain(1.0, PLAIN_CELL)
    mesh = generate_perforated_mesh(domain, 0.125)
    half = np.full(mesh.num_nodes, 0.5)
    problem = micro.MicroProblem(
        domain, mesh, macro.ScalingRegime("dirichlet", 2, 1, 1, phi_d=0.3),
        half, half.copy(), t_end=0.01, dt=5e-3)
    with pytest.raises(NoSolidPhase):
        micro.run_micro(problem)


def test_run_releases_its_operators(monkeypatch):
    # The operators, the Stokes LU and the P1 Laplacian LU included, live
    # as long as the run: neither the mesh nor the returned states keep
    # them once run_micro returns.
    built = []
    record_stokes_operators(monkeypatch,
                            lambda stokes: built.append(weakref.ref(stokes)))
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    c_plus, c_minus = neutral_blobs(mesh)
    problem = micro.MicroProblem(domain, mesh, neumann_regime(), c_plus,
                                 c_minus, t_end=4e-3, dt=2e-3)
    states, _, _ = micro.run_micro(problem)
    gc.collect()
    assert len(built) == 1
    assert built[0]() is None
    assert "micro_ops" not in mesh._caches
    assert not any(isinstance(value, fem.ZeroMeanLU)
                   for value in mesh._caches.values())


@pytest.mark.parametrize("regime, direct_limit, symmetric", [
    (neumann_regime(), fem.DIRECT_DOF_LIMIT, 2),
    (neumann_regime(), 0, 2),
    (macro.ScalingRegime("dirichlet", 2, 1, 1, phi_d=0.3),
     fem.DIRECT_DOF_LIMIT, 2),
], ids=["neumann_direct", "neumann_schur_cg", "dirichlet_direct"])
def test_only_the_transport_block_factors_without_relaxed_supernodes(
        monkeypatch, regime, direct_limit, symmetric):
    # The potential and the Stokes saddle (or, on the Schur route, the
    # velocity block; the potential's LU is its pressure Laplacian) are
    # symmetric.  The species blocks of the transport solver are only
    # structurally symmetric; in symmetric mode SuperLU's default
    # relaxation of small supernodes fills the eps=1/16 coupled block's
    # LU with 54M entries in 31 s, so they take relax=1.  Every
    # factorization takes a panel of one column.  The species blocks are
    # factored in single precision, since they only precondition a
    # refinement against the double-precision block; every other
    # matrix is factored in double precision.
    factored = []
    factor = fem.splu
    solve = fem.TransportSolver.solve
    transporting = []

    def recorded(matrix, **options):
        factored.append((bool(transporting), matrix.shape[0], matrix.dtype,
                         options))
        return factor(matrix, **options)

    def flagged(solver, rhs):
        transporting.append(True)
        try:
            return solve(solver, rhs)
        finally:
            transporting.pop()

    monkeypatch.setattr(fem, "splu", recorded)
    monkeypatch.setattr(fem.TransportSolver, "solve", flagged)
    monkeypatch.setattr(fem, "DIRECT_DOF_LIMIT", direct_limit)
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    c_plus, c_minus = neutral_blobs(mesh)
    problem = micro.MicroProblem(domain, mesh, regime, c_plus, c_minus,
                                 t_end=2e-3, dt=2e-3)
    micro.run_micro(problem)
    transport = [(rows, dtype, options)
                 for inside, rows, dtype, options in factored if inside]
    others = [(dtype, options)
              for inside, rows, dtype, options in factored if not inside]
    options = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.01,
               "relax": None, "panel_size": 1,
               "options": {"SymmetricMode": True}}
    # One factorization of each species block, none of the coupled one.
    assert transport == 2 * [(mesh.num_nodes, np.float32,
                              dict(options, relax=1))]
    assert others == symmetric * [(np.float64, options)]


@pytest.mark.parametrize("alpha", [0, 1])
def test_schur_route_factors_the_p1_laplacian_once(monkeypatch, alpha):
    # One LU of the P1 stiffness serves the Neumann potential and the
    # pressure Laplacian of the Schur preconditioner; the potential is
    # the one of the eps^alpha-scaled operator factored on its own.
    sizes = []
    factor = fem.splu

    def recorded(matrix, **options):
        sizes.append(matrix.shape[0])
        return factor(matrix, **options)

    potentials = []
    solve_potential = micro._Operators.solve_potential

    def recorded_potential(self, charge):
        phi = solve_potential(self, charge)
        potentials.append((charge.copy(), phi))
        return phi

    monkeypatch.setattr(fem, "splu", recorded)
    monkeypatch.setattr(fem, "DIRECT_DOF_LIMIT", 0)
    monkeypatch.setattr(micro._Operators, "solve_potential",
                        recorded_potential)
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    c_plus, c_minus = neutral_blobs(mesh)
    regime = neumann_regime(alpha=alpha, beta=alpha, gamma=alpha)
    problem = micro.MicroProblem(domain, mesh, regime, c_plus, c_minus,
                                 t_end=4e-3, dt=2e-3)
    micro.run_micro(problem)
    assert sizes.count(mesh.num_nodes + 1) == 1

    weight = fem.lumped_mass(mesh)
    stiffness = fem.assemble_stiffness(mesh)
    scaled = fem.ZeroMeanLU(domain.eps ** alpha * stiffness, weight)
    assert len(potentials) >= 3
    for charge, phi in potentials:
        ref = macro.solve_neumann_potential(
            scaled, weight, fem.mass_matrix(mesh) @ charge, "test")
        assert np.max(np.abs(phi - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.slow
def test_eps16_step_takes_the_schur_cg_stokes_route(monkeypatch):
    built = []
    flows = []
    record_stokes_flows(monkeypatch, flows)
    record_stokes_operators(monkeypatch, built.append)
    domain = PerforatedDomain(1 / 16, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 128)
    c_plus, c_minus = neutral_blobs(mesh)
    problem = micro.MicroProblem(domain, mesh, neumann_regime(), c_plus,
                                 c_minus, t_end=2e-3, dt=2e-3)
    states, _, _ = micro.run_micro(problem)
    (stokes,) = built
    assert stokes._mode == "schur_cg"
    assert stokes.solves >= 1
    assert stokes.schur_iterations <= 80 * stokes.solves
    assert np.array_equal(states[-1].velocity,
                          fem.p2_element_means(mesh, flows[-1]))
    assert relative_weak_divergence(mesh, flows[-1]) <= 1e-8


@pytest.mark.slow
def test_eps16_run_keeps_its_sweeps_with_loose_in_step_stokes_solves(
        monkeypatch):
    domain = PerforatedDomain(1 / 16, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 128)
    c_plus, c_minus = neutral_blobs(mesh)
    problem = micro.MicroProblem(domain, mesh, neumann_regime(), c_plus,
                                 c_minus, t_end=0.02, dt=2e-3,
                                 snapshot_stride=0)
    rule, full = field_tol_runs(monkeypatch, problem)
    assert_same_fixed_points(rule, full)
    assert len(rule[1]) == 11
    assert rule[2]["sweeps"] == full[2]["sweeps"]
    assert 3 * rule[2]["schur_iterations"] \
        <= 2 * full[2]["schur_iterations"]


def test_dt_self_convergence_first_order():
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    c_plus, c_minus = neutral_blobs(mesh)
    finals = []
    for dt in (4e-3, 2e-3, 1e-3):
        problem = micro.MicroProblem(domain, mesh, neumann_regime(),
                                     c_plus.copy(), c_minus.copy(),
                                     t_end=0.02, dt=dt,
                                     snapshot_stride=0)
        states, _, _ = micro.run_micro(problem)
        finals.append(states[-1].c_plus)
    coarse = fem.l2_norm(mesh, finals[0] - finals[1])
    fine = fem.l2_norm(mesh, finals[1] - finals[2])
    assert np.log2(coarse / fine) >= 0.9


def test_average_micro_field_modes():
    # Pore-scale fields are averaged per eps-cell by verify.cell_average:
    # intrinsically over the fluid part, or superficially over the whole
    # cell, which scales a constant by the porosity.
    mesh = generate_perforated_mesh(PerforatedDomain(0.5, DISK_CELL), 1 / 16)
    ones = np.ones(mesh.num_triangles)

    intrinsic = verify.cell_average(mesh, ones, 0.5, intrinsic=True)
    assert intrinsic.shape == (2, 2)
    assert np.max(np.abs(intrinsic - 1.0)) <= 1e-12

    porosity = mesh_area(mesh.cell_mesh)
    superficial = verify.cell_average(mesh, ones, 0.5)
    assert np.max(np.abs(superficial - porosity)) <= 1e-12

    # The centered disk leaves the fluid centroid at the cell center.
    x = mesh.nodes[:, 0]
    centers = verify.cell_average(mesh, fem.element_means(mesh, x), 0.5,
                                  intrinsic=True)
    assert np.max(np.abs(centers - np.array([[0.25, 0.75],
                                             [0.25, 0.75]]))) <= 1e-10

    vec = fem.element_means(mesh, np.column_stack([x, 1.0 - x]))
    vec_avg = verify.cell_average(mesh, vec, 0.5, intrinsic=True)
    assert vec_avg.shape == (2, 2, 2)
    assert np.max(np.abs(vec_avg[..., 0] + vec_avg[..., 1] - 1.0)) <= 1e-10
    flux = verify.cell_average(mesh, vec, 0.5)
    assert np.max(np.abs(flux.sum(axis=-1) - porosity)) <= 1e-12


def test_problem_validation():
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    regime = neumann_regime()
    good = np.full(mesh.num_nodes, 0.5)
    for c_plus, dt in ((good, -1e-3), (good + 1.0, 1e-3), (np.ones(3), 1e-3)):
        problem = micro.MicroProblem(domain, mesh, regime, c_plus, good,
                                     t_end=0.01, dt=dt)
        with pytest.raises(ValidationError):
            problem.validate()
    problem = micro.MicroProblem(domain, mesh, regime, good, good,
                                 t_end=0.01, dt=1e-3)
    problem.validate()
    # Unbalanced initial charge is caught by the first potential solve of
    # the run, before any step.
    with pytest.raises(IncompatibleSource) as err:
        micro.run_micro(micro.MicroProblem(domain, mesh, regime, good,
                                           0.5 * good, t_end=0.01, dt=1e-3))
    assert err.value.where == "micro.solve_potential"
