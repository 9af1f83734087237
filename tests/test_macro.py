"""Regime classification and upscaled solver behavior."""

import gc
import weakref

import numpy as np
import pytest

from snpp import fem, macro, micro
from snpp.cell import EffectiveCoefficients
from snpp.errors import (
    FixedPointDivergence,
    InadmissibleScaling,
    IncompatibleSource,
    NegativeConcentration,
    NonFiniteField,
    ValidationError,
)
from snpp.mesh import (
    DiskInclusion,
    PerforatedDomain,
    UnitCellGeometry,
    generate_perforated_mesh,
    generate_unit_cell_mesh,
)

from oracles import (
    fixed_point_checked,
    gauss_solve,
    p1_basis_gradients,
    tri_area,
)


DISK_CELL = UnitCellGeometry(DiskInclusion((0.5, 0.5), 0.25), 0.125)


def square_mesh(h):
    return generate_unit_cell_mesh(UnitCellGeometry(None, h))


def identity_coeffs(porosity=1.0, k=0.02, m=0.05):
    return EffectiveCoefficients(
        porosity=porosity, diffusion=porosity * np.eye(2),
        permeability=None if k is None else k * np.eye(2), dirichlet_mean=m)


def bare_state(mesh, c_plus=None, c_minus=None, phi=None):
    zeros = np.zeros(mesh.num_nodes)
    return macro.MacroState(
        mesh=mesh, t=0.0,
        c_plus=zeros.copy() if c_plus is None else np.asarray(c_plus, float),
        c_minus=zeros.copy() if c_minus is None else np.asarray(c_minus, float),
        phi=zeros.copy() if phi is None else np.asarray(phi, float),
        pressure=zeros.copy(),
        velocity=np.zeros((mesh.num_triangles, 2)))


def weighted_mean(mesh, values):
    weight = fem.lumped_mass(mesh)
    return float(weight @ values) / weight.sum()


def weak_divergence_residual(mesh, velocity):
    areas, grads = fem.triangle_data(mesh)
    residual = np.zeros(mesh.num_nodes)
    contrib = np.einsum("md,mid->mi", velocity, grads) * areas[:, None]
    np.add.at(residual, mesh.triangles.ravel(), contrib.ravel())
    return residual


def charged_blobs(mesh, neutral):
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    c_plus = 0.2 + 0.5 * np.exp(-25 * ((x - 0.35) ** 2 + (y - 0.45) ** 2))
    c_minus = 0.2 + 0.5 * np.exp(-25 * ((x - 0.7) ** 2 + (y - 0.6) ** 2))
    if neutral:
        return macro.make_neutral(mesh, c_plus, c_minus)
    return c_plus, c_minus


def test_classify_regime_table():
    cases = [
        (("neumann", 0, 0, 0),
         (macro.POTENTIAL_ELLIPTIC, macro.FORCING_ELECTRO, macro.DRIFT_ON)),
        (("neumann", 0, 1, 1),
         (macro.POTENTIAL_ELLIPTIC, macro.FORCING_PLAIN, macro.DRIFT_OFF)),
        (("neumann", 0, 1, 0),
         (macro.POTENTIAL_ELLIPTIC, macro.FORCING_PLAIN, macro.DRIFT_ON)),
        (("neumann", 1, 1, 1),
         (macro.POTENTIAL_ELLIPTIC, macro.FORCING_ELECTRO, macro.DRIFT_ON)),
        (("neumann", 0, 2, 1),
         (macro.POTENTIAL_ELLIPTIC, macro.FORCING_PLAIN, macro.DRIFT_OFF)),
        (("dirichlet", 2, 1, 1),
         (macro.POTENTIAL_ALGEBRAIC, macro.FORCING_PLAIN, macro.DRIFT_OFF)),
        (("dirichlet", 1, 0, 0),
         (macro.POTENTIAL_ALGEBRAIC, macro.FORCING_PLAIN, macro.DRIFT_OFF)),
        (("dirichlet", 0, 2, 2),
         (macro.POTENTIAL_ALGEBRAIC, macro.FORCING_PLAIN, macro.DRIFT_OFF)),
    ]
    for args, expected in cases:
        model = macro.classify_regime(macro.ScalingRegime(*args))
        assert model == macro.MacroModelClass(*expected), args


def test_classify_rejects_inadmissible():
    for args in [("neumann", 0, -1, 0), ("neumann", 0, 0, -1),
                 ("neumann", 1, 0, 1), ("dirichlet", 2, 0.5, 1),
                 ("dirichlet", 2, 1, 0.5)]:
        with pytest.raises(InadmissibleScaling):
            macro.classify_regime(macro.ScalingRegime(*args))


def test_classify_rejects_unknown_bc():
    with pytest.raises(ValidationError):
        macro.classify_regime(macro.ScalingRegime("robin", 0, 0, 0))


def test_poisson_zero_charge_gives_zero_potential():
    mesh = square_mesh(1 / 16)
    state = bare_state(mesh, 0.4 * np.ones(mesh.num_nodes),
                       0.4 * np.ones(mesh.num_nodes))
    coeffs = identity_coeffs()
    phi = macro.solve_macro_poisson(state, coeffs,
                                    macro._Operators(mesh, coeffs))
    assert np.max(np.abs(phi)) <= 1e-12


def test_poisson_manufactured_convergence():
    # -div(grad phi) = cos(pi x) with no-flux walls has the zero-mean
    # solution cos(pi x) / pi^2; the error should shrink at second order.
    errors = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        mesh = square_mesh(h)
        x = mesh.nodes[:, 0]
        state = bare_state(mesh, np.cos(np.pi * x))
        coeffs = identity_coeffs()
        phi = macro.solve_macro_poisson(state, coeffs,
                                        macro._Operators(mesh, coeffs))
        assert abs(weighted_mean(mesh, phi)) <= 1e-10
        errors.append(fem.l2_norm(mesh, phi - np.cos(np.pi * x) / np.pi**2))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 1.9), orders


def test_poisson_incompatible_source():
    mesh = square_mesh(1 / 16)
    state = bare_state(mesh, 0.1 * np.ones(mesh.num_nodes))
    coeffs = identity_coeffs()
    with pytest.raises(IncompatibleSource):
        macro.solve_macro_poisson(state, coeffs,
                                  macro._Operators(mesh, coeffs))


def test_dirichlet_potential_closure():
    mesh = square_mesh(1 / 16)
    coeffs = identity_coeffs(porosity=0.80365, m=0.05)
    equal = 0.7 * np.ones(mesh.num_nodes)
    state = bare_state(mesh, equal, equal.copy())
    regime = macro.ScalingRegime("dirichlet", 2, 1, 1, phi_d=3.0)
    phi = macro.eval_macro_potential_dirichlet(state, coeffs, regime)
    assert np.max(np.abs(phi - 2.41095)) <= 1e-12

    regime_low = macro.ScalingRegime("dirichlet", 1, 1, 1, phi_d=3.0)
    phi_low = macro.eval_macro_potential_dirichlet(state, coeffs, regime_low)
    assert np.max(np.abs(phi_low)) <= 1e-15

    x = mesh.nodes[:, 0]
    state_q = bare_state(mesh, x, np.zeros(mesh.num_nodes))
    phi_q = macro.eval_macro_potential_dirichlet(state_q, coeffs, regime)
    assert np.max(np.abs(phi_q - (0.05 * x + 0.80365 * 3.0))) <= 1e-12


def test_darcy_zero_forcing_is_hydrostatic():
    mesh = square_mesh(1 / 16)
    coeffs = identity_coeffs()
    model = macro.MacroModelClass(macro.POTENTIAL_ELLIPTIC,
                                  macro.FORCING_PLAIN, macro.DRIFT_OFF)
    state = bare_state(mesh, np.ones(mesh.num_nodes))
    pressure, velocity = macro.solve_macro_darcy(
        state, coeffs, model, macro._Operators(mesh, coeffs))
    assert np.max(np.abs(pressure)) <= 1e-13
    assert np.max(np.abs(velocity)) <= 1e-13


def test_darcy_gradient_forcing_gives_no_flow():
    # A gradient forcing is absorbed entirely by the pressure, so the
    # seepage velocity vanishes identically on the discrete level too.
    mesh = square_mesh(1 / 32)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    psi = np.sin(np.pi * x) * np.sin(np.pi * y)
    coeffs = identity_coeffs()
    model = macro.MacroModelClass(macro.POTENTIAL_ELLIPTIC,
                                  macro.FORCING_ELECTRO, macro.DRIFT_ON)
    state = bare_state(mesh, np.ones(mesh.num_nodes), phi=psi)
    pressure, velocity = macro.solve_macro_darcy(
        state, coeffs, model, macro._Operators(mesh, coeffs))
    assert np.max(np.abs(velocity)) <= 1e-12
    assert np.ptp(pressure + psi) <= 1e-12


def test_darcy_curl_forcing_velocity_and_divergence():
    mesh = square_mesh(1 / 32)
    coeffs = identity_coeffs(k=0.02)
    model = macro.MacroModelClass(macro.POTENTIAL_ELLIPTIC,
                                  macro.FORCING_ELECTRO, macro.DRIFT_ON)
    centroids = mesh.nodes[mesh.triangles].mean(axis=1)
    cx, cy = centroids[:, 0], centroids[:, 1]
    forcing = np.column_stack([
        -np.pi * np.sin(np.pi * cx) * np.cos(np.pi * cy),
        np.pi * np.cos(np.pi * cx) * np.sin(np.pi * cy)])
    state = bare_state(mesh, np.ones(mesh.num_nodes))
    pressure, velocity = macro.solve_macro_darcy(
        state, coeffs, model, macro._Operators(mesh, coeffs),
        forcing=forcing)
    kf = forcing @ coeffs.permeability.T
    assert np.max(np.abs(velocity + kf)) <= 1e-3 * np.max(np.abs(kf))
    assert np.max(np.abs(weak_divergence_residual(mesh, velocity))) <= 1e-8


def test_darcy_pressure_matches_dense_oracle():
    mesh = square_mesh(1 / 16)
    kmat = np.array([[0.03, 0.005], [0.005, 0.02]])
    coeffs = EffectiveCoefficients(
        porosity=0.8, diffusion=0.8 * np.eye(2), permeability=kmat,
        dirichlet_mean=0.05)
    model = macro.MacroModelClass(macro.POTENTIAL_ELLIPTIC,
                                  macro.FORCING_ELECTRO, macro.DRIFT_ON)
    rng = np.random.default_rng(7)
    forcing = rng.uniform(-1.0, 1.0, size=(mesh.num_triangles, 2))
    state = bare_state(mesh)
    pressure, velocity = macro.solve_macro_darcy(
        state, coeffs, model, macro._Operators(mesh, coeffs),
        forcing=forcing)
    n = mesh.num_nodes
    dense = np.zeros((n + 1, n + 1))
    rhs = np.zeros(n + 1)
    for tri in range(mesh.num_triangles):
        idx = mesh.triangles[tri]
        coords = mesh.nodes[idx]
        area = tri_area(coords)
        grads = p1_basis_gradients(coords)
        dense[np.ix_(idx, idx)] += area * grads @ kmat @ grads.T
        rhs[idx] -= area * grads @ (kmat @ forcing[tri])
        dense[idx, n] += area / 3.0
        dense[n, idx] += area / 3.0
    expected = gauss_solve(dense, rhs)[:n]
    assert np.max(np.abs(pressure - expected)) <= 1e-9
    grads_p = fem.p1_element_gradients(mesh, pressure)
    assert np.max(np.abs(velocity + (grads_p + forcing) @ kmat.T)) <= 1e-12


def test_darcy_without_permeability_means_no_flow():
    mesh = square_mesh(1 / 16)
    coeffs = identity_coeffs(k=None)
    model = macro.MacroModelClass(macro.POTENTIAL_ELLIPTIC,
                                  macro.FORCING_ELECTRO, macro.DRIFT_ON)
    pressure, velocity = macro.solve_macro_darcy(
        bare_state(mesh), coeffs, model, macro._Operators(mesh, coeffs))
    assert not pressure.any() and not velocity.any()


def test_run_constant_state_is_steady():
    mesh = square_mesh(1 / 16)
    half = 0.5 * np.ones(mesh.num_nodes)
    problem = macro.MacroProblem(
        mesh, identity_coeffs(porosity=0.8),
        macro.ScalingRegime("neumann", 0, 0, 0),
        half.copy(), half.copy(), t_end=0.02, dt=5e-3)
    states, diagnostics, _ = macro.run_macro(problem)
    for state in states:
        assert np.max(np.abs(state.c_plus - 0.5)) <= 1e-12
        assert np.max(np.abs(state.c_minus - 0.5)) <= 1e-12
    assert all(abs(row["charge"]) <= 1e-14 for row in diagnostics)
    assert all(row["fp_iters"] <= 2 for row in diagnostics[1:])


def test_run_builds_and_releases_one_set_of_operators(monkeypatch):
    # The potential and Darcy LUs are built once per run, used by every
    # solve and step of it, and kept by neither the mesh nor the states.
    built = []
    operators = macro._Operators

    def recorded(*args):
        ops = operators(*args)
        built.append(weakref.ref(ops))
        return ops

    monkeypatch.setattr(macro, "_Operators", recorded)
    mesh = square_mesh(1 / 16)
    c_plus, c_minus = charged_blobs(mesh, neutral=True)
    problem = macro.MacroProblem(
        mesh, identity_coeffs(porosity=0.8),
        macro.ScalingRegime("neumann", 0, 0, 0),
        c_plus, c_minus, t_end=0.01, dt=5e-3)
    states, _, _ = macro.run_macro(problem)
    gc.collect()
    assert len(built) == 1
    assert built[0]() is None
    assert "macro_ops" not in mesh._caches


def test_run_decoupled_regime_single_sweep():
    # Without electrostatic forcing or drift nothing feeds back into the
    # transport operators, so each step needs exactly one sweep.
    mesh = square_mesh(1 / 16)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    blob = 0.8 * np.exp(-40 * ((x - 0.4) ** 2 + (y - 0.5) ** 2))
    problem = macro.MacroProblem(
        mesh, identity_coeffs(porosity=0.8),
        macro.ScalingRegime("neumann", 0, 1, 1),
        blob.copy(), blob.copy(), t_end=0.02, dt=5e-3)
    states, diagnostics, _ = macro.run_macro(problem)
    assert all(row["fp_iters"] == 1 for row in diagnostics[1:])
    mass0 = diagnostics[0]["mass"]
    assert max(abs(row["mass"] - mass0) for row in diagnostics) <= 1e-10 * mass0
    assert max(abs(row["charge"]) for row in diagnostics) <= 1e-12
    assert np.max(np.abs(states[-1].c_plus - states[-1].c_minus)) <= 1e-13


def test_run_dirichlet_charge_decay():
    # The reacting step divides the total charge by (1 + 2 dt) exactly;
    # over many steps that tracks the continuous decay exp(-2 t).
    mesh = square_mesh(1 / 16)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    c_plus = 0.2 + 0.6 * np.exp(-30 * ((x - 0.35) ** 2 + (y - 0.5) ** 2))
    c_minus = 0.2 + 0.3 * np.exp(-30 * ((x - 0.65) ** 2 + (y - 0.5) ** 2))
    dt = 1e-3
    problem = macro.MacroProblem(
        mesh, identity_coeffs(porosity=0.8),
        macro.ScalingRegime("dirichlet", 2, 1, 1, phi_d=3.0),
        c_plus, c_minus, t_end=0.02, dt=dt)
    states, diagnostics, _ = macro.run_macro(problem)
    q0 = diagnostics[0]["charge"]
    assert abs(q0) > 1e-3
    for k, row in enumerate(diagnostics):
        assert abs(row["charge"] - q0 / (1 + 2 * dt) ** k) <= 1e-10 * abs(q0)
        assert abs(row["charge"] - q0 * np.exp(-2 * row["t"])) <= 1e-4
    final = states[-1]
    expected_phi = 0.05 * (final.c_plus - final.c_minus) + 0.8 * 3.0
    assert np.max(np.abs(final.phi - expected_phi)) <= 1e-12
    assert not final.velocity.any()


def test_run_coupled_charge_neutrality_and_dt_order():
    mesh = square_mesh(1 / 32)
    coeffs = identity_coeffs(porosity=0.8)
    c_plus, c_minus = charged_blobs(mesh, neutral=True)
    finals = []
    for dt in (4e-3, 2e-3, 1e-3):
        problem = macro.MacroProblem(
            mesh, coeffs, macro.ScalingRegime("neumann", 0, 0, 0),
            c_plus.copy(), c_minus.copy(), t_end=0.04, dt=dt,
            snapshot_stride=0)
        states, diagnostics, _ = macro.run_macro(problem)
        finals.append(states[-1].c_plus)
        mass0 = diagnostics[0]["mass"]
        assert max(abs(r["mass"] - mass0) for r in diagnostics) <= 1e-12 * mass0
        assert max(abs(r["charge"]) for r in diagnostics) <= 1e-12
        assert all(2 <= r["fp_iters"] <= 10 for r in diagnostics[1:])
    coarse = fem.l2_norm(mesh, finals[0] - finals[1])
    fine = fem.l2_norm(mesh, finals[1] - finals[2])
    assert np.log2(coarse / fine) >= 0.9


def test_run_reports_fixed_point_divergence(monkeypatch):
    monkeypatch.setattr(macro, "FIXED_POINT_MAX_ITER", 1)
    mesh = square_mesh(1 / 16)
    c_plus, c_minus = charged_blobs(mesh, neutral=True)
    problem = macro.MacroProblem(
        mesh, identity_coeffs(porosity=0.8),
        macro.ScalingRegime("neumann", 0, 0, 0),
        c_plus, c_minus, t_end=0.01, dt=5e-3)
    with pytest.raises(FixedPointDivergence):
        macro.run_macro(problem)


class LinearSweep:
    """Sweep map with a known fixed point and contraction factor.

    The fields are the concentrations they were computed from, and one
    transport step from c returns x*(c) + q P (x - x*(c)), where P is a
    cyclic shift mixing the nodes of both species and x*(c) moves each
    species towards the other.  Every sweep shrinks the largest
    deviation from x* by exactly q, which q_of_step may vary by step.
    """

    n = 8

    dt = 1e-2

    def __init__(self, q_of_step):
        self.q_of_step = q_of_step
        self.sweeps = 0

    @staticmethod
    def fixed_point(c_plus, c_minus):
        shift = 5e-3 * (c_plus - c_minus)
        return np.concatenate([c_plus - shift, c_minus + shift])

    def update_fields(self, state, tol):
        state.phi = np.concatenate([state.c_plus, state.c_minus])
        state.pressure = np.zeros(1)
        state.velocity = np.zeros(1)

    def transport(self, state, c_plus, c_minus, refill):
        self.sweeps += 1
        step = round(state.t / self.dt) + 1
        target = self.fixed_point(c_plus, c_minus)
        x = target + self.q_of_step(step) * np.roll(state.phi - target, 1)
        return x[:self.n], x[self.n:]

    def run(self, steps=6):
        problem = macro.MacroProblem(
            None, None, None, np.linspace(0.2, 0.6, self.n),
            np.linspace(0.5, 0.3, self.n), t_end=steps * self.dt,
            dt=self.dt)
        states, diagnostics, _ = macro.run_steps(
            problem, self.update_fields, self.transport, np.ones(self.n))
        return states, diagnostics

    def step_errors(self, states):
        return [float(np.max(np.abs(
            np.concatenate([now.c_plus, now.c_minus])
            - self.fixed_point(before.c_plus, before.c_minus))))
            for before, now in zip(states, states[1:])]


def gap_rule_sweeps(q, c_plus, c_minus, steps):
    # The stop test on the gap alone: the first sweep k >= 2 whose change
    # is at most FIXED_POINT_TOL times the scale.
    counts = []
    x = np.concatenate([c_plus, c_minus])
    for _ in range(steps):
        target = LinearSweep.fixed_point(*np.split(x, 2))
        fields, previous, k = x, None, 0
        while True:
            k += 1
            x = target + q * np.roll(fields - target, 1)
            if previous is not None and np.max(np.abs(x - previous)) \
                    <= macro.FIXED_POINT_TOL * max(1.0, np.max(np.abs(x))):
                break
            fields = previous = x
        counts.append(k)
    return counts


@pytest.mark.parametrize("q", [1e-3, 0.3, 0.9])
def test_run_stops_within_tolerance_of_the_fixed_point(q, monkeypatch):
    # q = 0.9 needs about 110 sweeps per step under either rule.
    monkeypatch.setattr(macro, "FIXED_POINT_MAX_ITER", 200)
    sweep = LinearSweep(lambda step: q)
    states, diagnostics = sweep.run()
    sweeps = [row["fp_iters"] for row in diagnostics[1:]]
    assert len(sweeps) == 6
    # Every concentration lies in [0, 1], so the scale is 1.  From
    # q = 1/2 up the rule is the gap rule, which leaves an error of up to
    # q / (1 - q) times the tolerance.
    assert max(sweep.step_errors(states)) \
        <= max(1.0, q / (1 - q)) * macro.FIXED_POINT_TOL
    old = gap_rule_sweeps(q, states[0].c_plus, states[0].c_minus, 6)
    if q == 1e-3:
        assert sweeps == [2] * 6
        assert old == [3] * 6
    elif q == 0.9:
        assert sweeps == old
    else:
        assert all(2 <= k < m for k, m in zip(sweeps, old))


def test_run_measures_the_contraction_on_every_step():
    # The sweeps contract 1000-fold for three steps and only 3-fold after
    # that; a contraction measured once would accept the fourth step's
    # second sweep while it is still about 1e-4 off its fixed point.
    sweep = LinearSweep(lambda step: 1e-3 if step <= 3 else 0.3)
    states, diagnostics = sweep.run()
    assert [row["fp_iters"] for row in diagnostics[1:4]] == [2, 2, 2]
    assert all(row["fp_iters"] > 2 for row in diagnostics[4:])
    assert max(sweep.step_errors(states)) <= macro.FIXED_POINT_TOL


def test_run_after_a_zero_gap_stops_on_the_gap_alone():
    # A first sweep that changes nothing and a second that does measure
    # no contraction: the run takes it as unbounded, so every later step
    # stops on its gap alone, one sweep later than at the measured
    # contraction 1e-3 (compare test_run_stops_within_tolerance_of_the_
    # fixed_point).
    sweep = LinearSweep(lambda step: 1e-3)
    linear = sweep.transport

    def transport(state, c_plus, c_minus, refill):
        if state.t > 0:
            return linear(state, c_plus, c_minus, refill)
        sweep.sweeps += 1
        shift = 0.0 if sweep.sweeps == 1 else 1e-9
        return c_plus + shift, c_minus.copy()

    sweep.transport = transport
    _, diagnostics = sweep.run()
    assert [row["fp_iters"] for row in diagnostics[1:]] == [2] + [3] * 5


# The diverging sweeps dip below zero before the cap.
@pytest.mark.filterwarnings("ignore::snpp.errors.NegativeConcentration")
def test_run_without_contraction_raises_at_the_cap():
    sweep = LinearSweep(lambda step: 1.5)
    with pytest.raises(FixedPointDivergence):
        sweep.run()
    assert sweep.sweeps == macro.FIXED_POINT_MAX_ITER


def test_coupled_run_steps_stop_within_tolerance_of_the_fixed_point(
        monkeypatch):
    # At stride 0 only the last step ends with a field update, so every
    # other step starts from the fields of its predecessor's last sweep.
    errors = []
    monkeypatch.setattr(macro, "run_steps",
                        fixed_point_checked(macro.run_steps, errors))
    mesh = square_mesh(1 / 32)
    c_plus, c_minus = charged_blobs(mesh, neutral=True)
    for stride in (1, 0):
        errors.clear()
        problem = macro.MacroProblem(
            mesh, identity_coeffs(porosity=0.8),
            macro.ScalingRegime("neumann", 0, 0, 0),
            c_plus, c_minus, t_end=0.02, dt=2e-3, snapshot_stride=stride)
        _, diagnostics, profile = macro.run_macro(problem)
        assert len(errors) == 10
        assert max(errors) <= macro.FIXED_POINT_TOL
        assert all(row["fp_iters"] >= 2 for row in diagnostics[1:])
        assert profile["sweeps"] == sum(row["fp_iters"]
                                        for row in diagnostics)


def test_run_factors_its_transport_block_once_and_solves_it_every_sweep(
        monkeypatch):
    # One potential solve for the initial fields, one after every step,
    # and one before every sweep but the first of each step.
    calls = []
    solve = macro.solve_macro_poisson

    def counted(state, coeffs, ops):
        calls.append(state.t)
        return solve(state, coeffs, ops)

    monkeypatch.setattr(macro, "solve_macro_poisson", counted)
    mesh = square_mesh(1 / 16)
    c_plus, c_minus = charged_blobs(mesh, neutral=True)
    problem = macro.MacroProblem(
        mesh, identity_coeffs(porosity=0.8),
        macro.ScalingRegime("neumann", 0, 0, 0),
        c_plus, c_minus, t_end=0.01, dt=2e-3)
    _, diagnostics, profile = macro.run_macro(problem)
    sweeps = sum(row["fp_iters"] for row in diagnostics)
    factorizations = profile["transport_factorizations"]
    refined = profile["refined_solves"]
    assert factorizations == 1
    assert factorizations + refined == sweeps
    assert refined >= 1
    assert profile["sweeps"] == sweeps
    assert len(calls) == 1 + sweeps
    assert profile["field_updates"] == 1 + sweeps
    assert profile["run_s"] > 0 and profile["lu_entries"] > 0


@pytest.mark.parametrize("beta, stride", [
    (0, 0), (0, 1), (0, 2), (1, 0), (1, 2)])
def test_fields_are_solved_only_for_the_sweeps_that_read_them(
        monkeypatch, beta, stride):
    # An iterated step that is not kept ends without a field update: the
    # next step's first sweep reads the fields, and the transport block,
    # of the last sweep.  beta = 1 makes one sweep per step, which reads
    # the fields of the step's starting concentrations.
    calls = []
    solve = macro.solve_macro_poisson
    refills = []
    refill = fem.TransportSolver.refill

    def counted(state, coeffs, ops):
        calls.append(state.t)
        return solve(state, coeffs, ops)

    def counted_refill(self, *fields):
        refills.append(fields)
        return refill(self, *fields)

    monkeypatch.setattr(macro, "solve_macro_poisson", counted)
    monkeypatch.setattr(fem.TransportSolver, "refill", counted_refill)
    mesh = square_mesh(1 / 16)
    c_plus, c_minus = charged_blobs(mesh, neutral=True)
    problem = macro.MacroProblem(
        mesh, identity_coeffs(porosity=0.8),
        macro.ScalingRegime("neumann", 0, beta, beta),
        c_plus, c_minus, t_end=0.01, dt=2e-3, snapshot_stride=stride)
    states, diagnostics, profile = macro.run_macro(problem)
    steps = len(diagnostics) - 1
    kept = len(states) - 1
    assert steps == 5
    assert kept == {0: 1, 1: 5, 2: 3}[stride]
    extra = sum(row["fp_iters"] - 1 for row in diagnostics[1:])
    if beta == 0:
        assert extra >= steps
        assert profile["field_updates"] == 1 + extra + kept
    else:
        assert extra == 0
        assert profile["field_updates"] == 1 + steps
    if stride == 1:
        assert profile["field_updates"] == 1 + profile["sweeps"]
    assert len(calls) == profile["field_updates"]
    # Every field update but the last is read by a transport step, which
    # refills the block once for it; the solver's build fills it once
    # more.
    assert len(refills) == 1 + profile["field_updates"] - 1


@pytest.mark.parametrize("beta", [0, 1])
def test_run_stops_on_non_finite_concentration(monkeypatch, beta):
    # beta = 0 iterates every step to a fixed point, beta = 1 makes one
    # sweep per step, where a NaN would otherwise pass unnoticed.
    def broken_step(solver, velocity, drift, tensor, c_plus, c_minus,
                    refill=True):
        return np.full_like(c_plus, np.nan), c_minus.copy()

    monkeypatch.setattr(fem, "step_reacting_pair", broken_step)
    mesh = square_mesh(1 / 16)
    c_plus, c_minus = charged_blobs(mesh, neutral=True)
    problem = macro.MacroProblem(
        mesh, identity_coeffs(porosity=0.8),
        macro.ScalingRegime("neumann", 0, beta, beta),
        c_plus, c_minus, t_end=0.01, dt=5e-3)
    with pytest.raises(NonFiniteField) as info:
        macro.run_macro(problem)
    assert info.value.where == "macro.run_steps"


def test_step_warns_on_negative_concentration(monkeypatch):
    # A sharp front pushed by a strong velocity undershoots zero, and
    # run_steps warns of it on either scale.  The transport step sees
    # the velocity (speed, 0) whatever the flow solve gave; the pore
    # scale, on the mesh with a cell scale, diffuses 100 times faster
    # than the macro run here, so it is pushed 100 times harder.
    step = fem.step_reacting_pair

    def pushed(solver, velocity, *args, **kwargs):
        speed = 8.0 if solver.mesh.eps is None else 800.0
        return step(solver, np.tile([speed, 0.0], (len(velocity), 1)),
                    *args, **kwargs)

    monkeypatch.setattr(fem, "step_reacting_pair", pushed)
    regime = macro.ScalingRegime("neumann", 0, 1, 1)
    coeffs = identity_coeffs()
    coeffs.diffusion = 0.01 * np.eye(2)
    domain = PerforatedDomain(0.5, DISK_CELL)
    square = square_mesh(1 / 16)
    pores = generate_perforated_mesh(domain, 1 / 16)
    cases = ((macro.run_macro, macro.MacroProblem, square, (square, coeffs)),
             (micro.run_micro, micro.MicroProblem, pores, (domain, pores)))
    for run, problem_type, mesh, lead in cases:
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        blob = np.exp(-200 * ((x - 0.3) ** 2 + (y - 0.5) ** 2))
        with pytest.warns(NegativeConcentration):
            run(problem_type(*lead, regime, blob, blob, t_end=0.05,
                             dt=0.05))


def test_problem_validation_rejects_bad_data():
    mesh = square_mesh(1 / 16)
    coeffs = identity_coeffs(porosity=0.8)
    ones = np.ones(mesh.num_nodes)
    regime = macro.ScalingRegime("neumann", 0, 1, 1)

    with pytest.raises(ValidationError):
        macro.check_problem(macro.MacroProblem(
            mesh, coeffs, regime, 1.5 * ones, ones, 0.1, 1e-3))
    with pytest.raises(ValidationError):
        macro.check_problem(macro.MacroProblem(
            mesh, coeffs, regime, -0.1 * ones, ones, 0.1, 1e-3))
    with pytest.raises(ValidationError):
        macro.check_problem(macro.MacroProblem(
            mesh, coeffs, regime, ones[:-1], ones, 0.1, 1e-3))
    with pytest.raises(ValidationError):
        macro.check_problem(macro.MacroProblem(
            mesh, coeffs, regime, 0.5 * ones, 0.5 * ones, 0.1, -1e-3))
    # Unbalanced initial charge is caught by the first potential solve of
    # the run, before any step.
    with pytest.raises(IncompatibleSource) as err:
        macro.run_macro(macro.MacroProblem(
            mesh, coeffs, regime, ones, np.zeros(mesh.num_nodes), 0.1,
            1e-3))
    assert err.value.where == "macro.solve_macro_poisson"


def test_snapshot_stride_and_final_state():
    mesh = square_mesh(1 / 16)
    half = 0.5 * np.ones(mesh.num_nodes)
    regime = macro.ScalingRegime("neumann", 0, 1, 1)
    coeffs = identity_coeffs(porosity=0.8)

    problem = macro.MacroProblem(mesh, coeffs, regime, half.copy(),
                                 half.copy(), t_end=0.02, dt=5e-3,
                                 snapshot_stride=2)
    states, _, _ = macro.run_macro(problem)
    assert [s.t for s in states] == [0.0, 0.01, 0.02]

    problem = macro.MacroProblem(mesh, coeffs, regime, half.copy(),
                                 half.copy(), t_end=0.02, dt=5e-3,
                                 snapshot_stride=0)
    states, diagnostics, _ = macro.run_macro(problem)
    assert [s.t for s in states] == [0.0, 0.02]
    assert len(diagnostics) == 5
    assert diagnostics[-1]["t"] == pytest.approx(0.02)
