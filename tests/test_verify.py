"""Invariant suite and scale-convergence harness behavior."""

import dataclasses
import json
import multiprocessing.pool
import os
from types import SimpleNamespace

import numpy as np
import pytest

from snpp import fem, macro, micro, verify
from snpp.cell import (
    EffectiveCoefficients,
    compute_effective_coefficients,
    corrector_node_values,
)
from snpp.errors import (
    GridMisaligned,
    InadmissibleScaling,
    MalformedDiagnostics,
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

DISK_CELL = UnitCellGeometry(DiskInclusion((0.5, 0.5), 0.25), 0.125)
PLAIN_CELL = UnitCellGeometry(None, 0.125)


def blob_plus(x, y):
    return 0.2 + 0.5 * np.exp(-25 * ((x - 0.35) ** 2 + (y - 0.45) ** 2))


def blob_minus(x, y):
    return 0.2 + 0.5 * np.exp(-25 * ((x - 0.7) ** 2 + (y - 0.6) ** 2))


def identity_coeffs(porosity=1.0, k=0.02, m=0.05):
    return EffectiveCoefficients(
        porosity=porosity, diffusion=porosity * np.eye(2),
        permeability=None if k is None else k * np.eye(2), dirichlet_mean=m)


def coupled_macro_run(h=1 / 16, t_end=0.02, dt=5e-3):
    mesh = generate_unit_cell_mesh(UnitCellGeometry(None, h))
    regime = macro.ScalingRegime("neumann", 0, 0, 0)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    cp, cm = macro.make_neutral(mesh, blob_plus(x, y), blob_minus(x, y))
    problem = macro.MacroProblem(mesh, identity_coeffs(porosity=0.8), regime,
                                 cp, cm, t_end=t_end, dt=dt)
    states, diagnostics, _ = macro.run_macro(problem)
    return states, diagnostics, regime


def test_invariant_suite_passes_on_coupled_macro_run():
    states, diagnostics, regime = coupled_macro_run()
    report = verify.run_invariant_suite(states, diagnostics, regime)
    assert report.passed
    assert report.failures() == []
    names = [check.name for check in report.checks]
    assert names == ["mass_conservation", "min_concentration",
                     "max_concentration", "potential_zero_mean",
                     "pressure_zero_mean", "velocity_divergence_free"]


def test_invariant_suite_passes_on_pore_scale_run():
    regime = macro.ScalingRegime("dirichlet", 2, 1, 1, phi_d=0.3)
    domain = PerforatedDomain(0.5, DISK_CELL)
    mesh = generate_perforated_mesh(domain, 1 / 16)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    problem = micro.MicroProblem(domain, mesh, regime, blob_plus(x, y),
                                 blob_minus(x, y), t_end=0.01, dt=5e-3)
    states, diagnostics, _ = micro.run_micro(problem)
    report = verify.run_invariant_suite(states, diagnostics, regime)
    assert report.passed
    names = [check.name for check in report.checks]
    assert "potential_zero_mean" not in names
    assert "velocity_divergence_free" in names


def test_invariant_suite_flags_convective_undershoot():
    # A sharp front pushed by a strong prescribed velocity undershoots
    # zero; the suite must record the failure instead of raising.
    h = 1 / 16
    mesh = generate_unit_cell_mesh(UnitCellGeometry(None, h))
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    blob = np.exp(-200 * ((x - 0.3) ** 2 + (y - 0.5) ** 2))
    coeffs = identity_coeffs()
    coeffs.diffusion = 0.01 * np.eye(2)
    model = macro.MacroModelClass(macro.POTENTIAL_ELLIPTIC,
                                  macro.FORCING_PLAIN, macro.DRIFT_OFF)
    state = macro.MacroState(
        mesh=mesh, t=0.0, c_plus=blob.copy(), c_minus=np.zeros_like(blob),
        phi=np.zeros(mesh.num_nodes), pressure=np.zeros(mesh.num_nodes),
        velocity=np.tile([8.0, 0.0], (mesh.num_triangles, 1)))
    lumped = fem.lumped_mass(mesh)

    def diag_row(c_plus, c_minus, t):
        return {"t": t,
                "mass": float(lumped @ (c_plus + c_minus)),
                "charge": float(lumped @ (c_plus - c_minus)),
                "min_c": min(float(c_plus.min()), float(c_minus.min())),
                "max_c": max(float(c_plus.max()), float(c_minus.max())),
                "fp_iters": 1}

    dt = 10 * h ** 2
    diagnostics = [diag_row(state.c_plus, state.c_minus, 0.0)]
    with pytest.warns(NegativeConcentration):
        state.c_plus, state.c_minus = macro.step_macro_np(
            state, coeffs, model, macro._Operators(mesh, coeffs, dt))
    state.t = dt
    diagnostics.append(diag_row(state.c_plus, state.c_minus, dt))
    assert diagnostics[-1]["min_c"] < -1e-3

    report = verify.run_invariant_suite([state], diagnostics,
                                        macro.ScalingRegime("neumann", 0, 1, 1))
    assert not report.passed
    failed = [check.name for check in report.failures()]
    assert "min_concentration" in failed
    assert "mass_conservation" not in failed


def test_invariant_suite_is_deterministic():
    states, diagnostics, regime = coupled_macro_run(t_end=0.01)
    first = verify.run_invariant_suite(states, diagnostics, regime)
    second = verify.run_invariant_suite(states, diagnostics, regime)
    assert first.checks == second.checks


def test_invariant_suite_runs_on_bare_diagnostics():
    _, diagnostics, _ = coupled_macro_run(t_end=0.01)
    report = verify.run_invariant_suite(None, diagnostics)
    assert report.passed
    names = [check.name for check in report.checks]
    assert names == ["mass_conservation", "min_concentration",
                     "max_concentration"]


def test_invariant_suite_rejects_malformed_input():
    states, diagnostics, regime = coupled_macro_run(t_end=0.01)
    with pytest.raises(MalformedDiagnostics):
        verify.run_invariant_suite(states, [], regime)
    with pytest.raises(MalformedDiagnostics):
        verify.run_invariant_suite(states, [{"t": 0.0, "mass": 1.0}], regime)
    broken = [dict(row) for row in diagnostics]
    broken[-1]["mass"] = np.nan
    with pytest.raises(MalformedDiagnostics):
        verify.run_invariant_suite(states, broken, regime)
    with pytest.raises(MalformedDiagnostics):
        verify.run_invariant_suite([], diagnostics, regime)


def test_cell_average_of_smooth_fields_matches_midpoints():
    mesh = generate_unit_cell_mesh(UnitCellGeometry(None, 1 / 32))
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    ones = np.ones(mesh.num_triangles)
    intrinsic = verify.cell_average(mesh, ones, 0.25, intrinsic=True)
    assert intrinsic.shape == (4, 4)
    assert np.max(np.abs(intrinsic - 1.0)) <= 1e-12
    superficial = verify.cell_average(mesh, ones, 0.25)
    assert np.max(np.abs(superficial - 1.0)) <= 1e-12
    # The full-cell mean of a linear field is its value at the cell
    # center, and the first grid index runs along y.
    centers = np.array([0.125, 0.375, 0.625, 0.875])
    gx, gy = (verify.cell_average(mesh, fem.element_means(mesh, v), 0.25)
              for v in (x, y))
    assert np.max(np.abs(gx - centers[None, :])) <= 1e-12
    assert np.max(np.abs(gy - centers[:, None])) <= 1e-12
    both = verify.cell_average(
        mesh, fem.element_means(mesh, np.column_stack([x, y])), 0.25)
    assert both.shape == (4, 4, 2)
    assert np.max(np.abs(both[..., 0] - gx)) <= 1e-14
    assert np.max(np.abs(both[..., 1] - gy)) <= 1e-14


def test_corrector_subtraction_cancels_synthetic_expansion():
    # Build a pore field that is exactly the first-order two-scale
    # expansion of a linear coarse field; subtracting the corrector term
    # must cancel it to rounding while the plain error stays finite.
    eps = 0.25
    mesh = generate_perforated_mesh(PerforatedDomain(eps, DISK_CELL),
                                    eps / 8.0)
    _, solutions = compute_effective_coefficients(DISK_CELL,
                                                  mesh=mesh.cell_mesh)
    macro_mesh = generate_unit_cell_mesh(UnitCellGeometry(None, 1 / 32))
    g = np.array([0.7, -0.4])
    macro_phi = macro_mesh.nodes @ g
    corrector = corrector_node_values(mesh, solutions["scalar"])
    micro_phi = mesh.nodes @ g + eps * (corrector @ g)

    plain, enhanced = verify.corrector_enhanced_error(
        mesh, micro_phi, macro_mesh, macro_phi, solutions["scalar"],
        alpha=0)
    expected_plain = eps * fem.l2_norm(mesh, corrector @ g)
    assert expected_plain > 1e-4
    assert abs(plain - expected_plain) <= 1e-12
    assert enhanced <= 1e-12


def test_corrector_is_inert_without_inclusion():
    eps = 0.5
    mesh = generate_perforated_mesh(PerforatedDomain(eps, PLAIN_CELL),
                                    eps / 8.0)
    _, solutions = compute_effective_coefficients(PLAIN_CELL,
                                                  mesh=mesh.cell_mesh)
    macro_mesh = generate_unit_cell_mesh(UnitCellGeometry(None, 1 / 32))
    g = np.array([0.3, 0.9])
    macro_phi = macro_mesh.nodes @ g
    micro_phi = mesh.nodes @ g + 0.01 * np.sin(np.pi * mesh.nodes[:, 0])
    plain, enhanced = verify.corrector_enhanced_error(
        mesh, micro_phi, macro_mesh, macro_phi, solutions["scalar"],
        alpha=0)
    assert plain > 1e-4
    assert abs(enhanced - plain) <= 1e-12


def test_zero_charge_study_matches_upscaled_fields():
    def shared(x, y):
        return 0.4 + 0.2 * np.exp(-10 * ((x - 0.5) ** 2 + (y - 0.5) ** 2))

    study = verify.run_convergence_study(
        macro.ScalingRegime("neumann", 0, 0, 0), DISK_CELL, shared, shared,
        eps_list=(0.5, 0.25), t_end=0.02, dt=5e-3, macro_h=1 / 32)
    # With no charge the potential and the flow vanish on both scales, so
    # those errors sit at rounding level.  The concentration errors only
    # reflect the fluid-part versus full-cell averaging mismatch of the
    # shared smooth data, which is small but not monotone in general.
    assert all(err <= 1e-8 for err in study.errors["phi"])
    assert all(err <= 1e-8 for err in study.errors["v"])
    assert all(err <= 2e-2 for err in study.errors["c_plus"])
    assert all(err <= 2e-2 for err in study.errors["c_minus"])


def test_charged_study_decays_and_corrector_improves():
    regime = macro.ScalingRegime("neumann", 0, 0, 0)
    study = verify.run_convergence_study(
        regime, DISK_CELL, blob_plus, blob_minus,
        eps_list=(0.5, 0.25), t_end=0.02, dt=5e-3, macro_h=1 / 32)
    assert study.flags == []
    assert study.monotone
    assert study.h_list == [0.5 / 8.0, 0.25 / 8.0]
    for name in verify.study_columns(study.errors):
        values = study.errors[name]
        assert values[1] < values[0]
        assert np.isnan(study.orders[name][0])
        assert study.orders[name][1] > 0.0
    assert len(study.errors["phi_plain"]) == 2
    for plain, enhanced in zip(study.errors["phi_plain"],
                               study.errors["phi_corrected"]):
        assert enhanced < plain
    reports = [verify.run_invariant_suite([study.macro_final],
                                          study.macro_diagnostics, regime)]
    for eps in (0.5, 0.25):
        reports.append(verify.run_invariant_suite(
            [study.micro_finals[eps]], study.micro_diagnostics[eps], regime))
    for report in reports:
        assert report.passed
        assert all(type(check.passed) is bool for check in report.checks)
        json.dumps([dataclasses.asdict(check) for check in report.checks])


@pytest.mark.parametrize("cpus", [1, 2])
def test_pooled_study_matches_the_runs_made_in_process(monkeypatch, cpus):
    # The pool has one worker per usable CPU up to the four tasks; each
    # task's final state and diagnostics must be those of run_macro or
    # run_micro called here on the same problem, bit for bit.
    sizes = []

    class RecordedPool(multiprocessing.pool.Pool):
        def __init__(self, processes=None, *args, **kwargs):
            sizes.append(processes)
            super().__init__(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool, "Pool", RecordedPool)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    regime = macro.ScalingRegime("neumann", 0, 0, 0)
    run = dict(t_end=0.02, dt=5e-3, snapshot_stride=0)
    study = verify.run_convergence_study(
        regime, DISK_CELL, blob_plus, blob_minus, eps_list=(0.5, 0.25),
        t_end=run["t_end"], dt=run["dt"], macro_h=1 / 32)
    assert sizes == [cpus]
    assert list(study.profiles) == ["macro", "eps=0.5", "eps=0.25"]

    def in_process(runner, problem_type, mesh, *lead):
        cp, cm = macro.initial_concentrations(mesh, blob_plus, blob_minus,
                                              regime)
        states, diagnostics, profile = runner(
            problem_type(*lead, regime, cp, cm, **run))
        return states[-1], diagnostics, profile

    mesh = study.macro_final.mesh
    expected = {"macro": in_process(macro.run_macro, macro.MacroProblem,
                                    mesh, mesh, study.coeffs)}
    got = {"macro": (study.macro_final, study.macro_diagnostics)}
    for eps, final in study.micro_finals.items():
        expected["eps=%g" % eps] = in_process(
            micro.run_micro, micro.MicroProblem, final.mesh,
            PerforatedDomain(eps, DISK_CELL), final.mesh)
        got["eps=%g" % eps] = (final, study.micro_diagnostics[eps])
    for task, (final, diagnostics) in got.items():
        want, want_diagnostics, profile = expected[task]
        assert diagnostics == want_diagnostics, task
        assert final.mesh is want.mesh and final.t == want.t, task
        for name in ("c_plus", "c_minus", "phi", "pressure", "velocity"):
            assert np.array_equal(getattr(final, name),
                                  getattr(want, name)), (task, name)
        # The wall time and the peak memory measure the process, not the
        # run's work.
        measured = dict(run_s=0.0, peak_rss_mb=0.0)
        assert dict(study.profiles[task], **measured) \
            == dict(profile, **measured), task
        assert study.profiles[task]["peak_rss_mb"] > 0, task


def test_study_sends_the_longest_tasks_first(monkeypatch):
    # The finest scale, then the macro run, the second longest, and then
    # the coarser scales; the results come back in scale order.
    sent = []

    class RecordedPool(multiprocessing.pool.Pool):
        def imap_unordered(self, func, iterable, chunksize=1):
            sent.extend(iterable)
            return super().imap_unordered(func, sent, chunksize)

    monkeypatch.setattr(multiprocessing.pool, "Pool", RecordedPool)
    study = verify.run_convergence_study(
        macro.ScalingRegime("neumann", 0, 0, 0), DISK_CELL, blob_plus,
        blob_minus, eps_list=(0.5, 0.25, 0.125), t_end=5e-3, dt=5e-3,
        macro_h=1 / 32)
    tasks = list(study.profiles)
    assert tasks == ["macro", "eps=0.5", "eps=0.25", "eps=0.125"]
    assert [tasks[index] for index in sent] \
        == ["eps=0.125", "macro", "eps=0.25", "eps=0.5"]


def test_study_rejects_inadmissible_regime_before_running():
    with pytest.raises(InadmissibleScaling):
        verify.run_convergence_study(
            macro.ScalingRegime("neumann", 0, -1, 0), DISK_CELL,
            blob_plus, blob_minus)


def test_study_validates_scales_and_macro_mesh():
    regime = macro.ScalingRegime("neumann", 0, 0, 0)
    with pytest.raises(ValidationError):
        verify.run_convergence_study(regime, DISK_CELL, blob_plus,
                                     blob_minus, eps_list=(0.25, 0.5))
    with pytest.raises(ValidationError) as info:
        verify.run_convergence_study(regime, DISK_CELL, blob_plus,
                                     blob_minus, eps_list=(0.3,))
    assert str(info.value) == ("scale 0.3 is outside the supported set "
                               "{1/2, 1/4, 1/8}")
    with pytest.raises(GridMisaligned):
        verify.run_convergence_study(regime, DISK_CELL, blob_plus,
                                     blob_minus, eps_list=(0.5,),
                                     macro_h=0.15)


def constant_finals(mesh, macro_mesh, micro_fields, macro_fields):
    """Macro and pore-scale finals on the two meshes whose fields are
    constants, given as (c_plus, c_minus, phi, velocity) pairs."""
    def final(mesh, c_plus, c_minus, phi, velocity):
        return SimpleNamespace(
            mesh=mesh, c_plus=np.full(mesh.num_nodes, c_plus),
            c_minus=np.full(mesh.num_nodes, c_minus),
            phi=np.full(mesh.num_nodes, phi),
            velocity=np.tile(velocity, (mesh.num_triangles, 1)))

    return final(macro_mesh, *macro_fields), final(mesh, *micro_fields)


def test_compare_scales_measures_hand_made_finals_on_both_branches():
    # Constant fields on the eps=1/2 pore mesh and the h=1/16 square: an
    # intrinsic average recovers the pore-scale constant, a superficial
    # one gives the fluid fraction times it.
    eps = 0.5
    mesh = generate_perforated_mesh(PerforatedDomain(eps, DISK_CELL),
                                    eps / 8.0)
    coeffs, solutions = compute_effective_coefficients(
        DISK_CELL, mesh=mesh.cell_mesh)
    macro_mesh = generate_unit_cell_mesh(UnitCellGeometry(None, 1 / 16))
    fluid_fraction = float(fem.triangle_data(mesh)[0].sum())
    assert 1 - fluid_fraction == pytest.approx(0.19134, abs=1e-5)
    velocity = [0.3, -0.1]
    macro_final, final = constant_finals(
        mesh, macro_mesh, (1.1 * 0.4, 0.3, 0.2, velocity),
        (0.4, 0.3, 0.2, velocity))
    errors = verify.compare_scales(macro.ScalingRegime("neumann", 0, 0, 0),
                                   coeffs, solutions, macro_final,
                                   {eps: final})
    assert list(errors) == ["c_plus", "c_minus", "phi", "v", "phi_plain",
                            "phi_corrected"]
    assert errors["c_plus"][0] == pytest.approx(0.1, rel=1e-13)
    for name in ("c_minus", "phi", "phi_plain", "phi_corrected"):
        assert errors[name][0] <= 1.2e-15, name
    assert errors["v"][0] == pytest.approx(1 - fluid_fraction, rel=1e-12)
    # On Dirichlet (2,1,1) the scaled potential phi - phi_d is compared
    # with m (c+ - c-), superficially averaged over each cell.
    regime = macro.ScalingRegime("dirichlet", 2, 1, 1, phi_d=0.5)
    wall = 0.5 + coeffs.dirichlet_mean * (0.4 - 0.3)
    macro_final, final = constant_finals(
        mesh, macro_mesh, (0.4, 0.3, wall, velocity),
        (0.4, 0.3, 0.0, velocity))
    errors = verify.compare_scales(regime, coeffs, solutions, macro_final,
                                   {eps: final})
    assert list(errors) == ["c_plus", "c_minus", "phi", "v"]
    for name in ("c_plus", "c_minus"):
        assert errors[name][0] <= 1.2e-15, name
    for name in ("phi", "v"):
        assert errors[name][0] == pytest.approx(1 - fluid_fraction,
                                                rel=1e-12), name


def decaying_table(eps_list, **columns):
    """An error table whose verify.MEASURES columns halve with each
    scale, with the given measures replaced or added."""
    table = {m.name: [0.4 / 2 ** i for i in range(len(eps_list))]
             for m in verify.MEASURES if m.column}
    table.update(columns)
    return table


def test_study_verdict_reads_hand_made_tables():
    # A column wholly below MONOTONE_FLOOR sits at rounding level and is
    # not checked; a zero error has no order.
    eps_list = [0.5, 0.25, 0.125]
    orders, flags, monotone = verify.study_verdict(eps_list, decaying_table(
        eps_list, c_plus=[0.4, 0.1, 0.0], phi=[1e-12, 5e-11, 2e-11]))
    assert flags == [] and monotone
    assert np.isnan(orders["c_plus"][0])
    assert orders["c_plus"][1] == 2.0
    assert np.isnan(orders["c_plus"][2])
    assert orders["v"][1:] == [1.0, 1.0]
    eps_list = [0.5, 0.25]
    orders, flags, monotone = verify.study_verdict(eps_list, decaying_table(
        eps_list, v=[0.2, 0.3], c_minus=[0.1, 0.1]))
    assert flags == [
        "c_minus errors are not monotone: ['1.000e-01', '1.000e-01']",
        "v errors are not monotone: ['2.000e-01', '3.000e-01']"]
    assert not monotone
    # The corrector rule is a flag only, and the two potential errors it
    # reads are not checked for decay.
    _, flags, monotone = verify.study_verdict(eps_list, decaying_table(
        eps_list, phi_plain=[0.2, 0.1], phi_corrected=[0.1, 0.15]))
    assert flags == ["corrector did not improve the potential error at "
                     "eps=0.25 (1.500e-01 > 1.000e-01)"]
    assert monotone


def test_observed_orders_are_exponents_of_the_scale():
    # Errors that fall like eps^2 read order 2 whatever the scale ratio:
    # a quarter step is two halvings, not one.
    eps_list = [0.5, 0.125]
    orders, _, _ = verify.study_verdict(eps_list, decaying_table(
        eps_list, c_plus=[1.0, 1 / 16], v=[0.4, 0.1]))
    assert orders["c_plus"][1] == 2.0
    assert orders["v"][1] == 1.0
    eps_list = [0.5, 0.25, 0.125]
    orders, _, _ = verify.study_verdict(eps_list, decaying_table(
        eps_list, c_plus=[1.0, 0.25, 1 / 16]))
    assert orders["c_plus"][1:] == [2.0, 2.0]


def test_study_verdict_rejects_non_finite_errors():
    # A non-finite error is a numerical failure of the study, named by
    # its measure, not a configuration error.
    for bad in (np.nan, np.inf):
        for name in ("c_plus", "phi_corrected"):
            with pytest.raises(NonFiniteField) as info:
                verify.study_verdict([0.5, 0.25], decaying_table(
                    [0.5, 0.25], **{name: [0.1, bad]}))
            assert info.value.where == "verify.study_verdict"
            assert str(info.value).startswith(
                "study errors of %s are not finite" % name)

@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "Dirichlet (2,1,1) has Plain Darcy forcing, so its macro velocity is "
    "zero, and verify.StudyScale.cell_error then returns the absolute "
    "micro velocity: 1.3e-8 and then 2.5e-8, flagged as not monotone "
    "(ROADMAP item 4)"))
def test_dirichlet_211_study_passes():
    # The config of `snpp converge` with regime Dirichlet (2,1,1),
    # phi_d=0.5, over eps {1/2, 1/4}, which exits 3 on the v column.
    study = verify.run_convergence_study(
        macro.ScalingRegime("dirichlet", 2, 1, 1, phi_d=0.5), DISK_CELL,
        blob_plus, blob_minus, eps_list=(0.5, 0.25), t_end=0.1, dt=2e-3,
        macro_h=1 / 64)
    assert study.flags == []
    assert study.monotone
