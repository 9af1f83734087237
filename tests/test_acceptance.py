"""End-to-end acceptance criteria, one printed pass/fail line each.

Each test measures the stated quantities, prints a single
"criterion N: PASS/FAIL" line with the measured values, and then
asserts.  The criteria cover effective-tensor exactness and structure,
the golden-value regression, manufactured-solution convergence,
conservation, positivity, regime classification, the two scale-limit
studies, and output determinism.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from snpp import cli, fem, macro, micro, output, verify
from snpp.cell import EffectiveCoefficients, compute_effective_coefficients
from snpp.errors import InadmissibleScaling
from snpp.mesh import (
    DiskInclusion,
    PerforatedDomain,
    UnitCellGeometry,
    generate_perforated_mesh,
    generate_unit_cell_mesh,
)

FLUID_AREA = 1.0 - math.pi * 0.25 ** 2
FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "golden_r025.json")


def verdict(capsys, number, passed, detail):
    with capsys.disabled():
        print("criterion %d: %s  %s"
              % (number, "PASS" if passed else "FAIL", detail))
    assert passed, detail


def blob_plus(x, y):
    return 0.2 + 0.5 * np.exp(-25 * ((x - 0.35) ** 2 + (y - 0.45) ** 2))


def blob_minus(x, y):
    return 0.2 + 0.5 * np.exp(-25 * ((x - 0.7) ** 2 + (y - 0.6) ** 2))


@pytest.fixture(scope="module")
def disk_fine():
    geometry = UnitCellGeometry(DiskInclusion((0.5, 0.5), 0.25), 0.025)
    started = time.perf_counter()
    coeffs, solutions = compute_effective_coefficients(geometry)
    return coeffs, solutions, time.perf_counter() - started


def test_criterion_1_empty_cell_exactness(capsys):
    started = time.perf_counter()
    coeffs, _ = compute_effective_coefficients(UnitCellGeometry(None, 1 / 16))
    elapsed = time.perf_counter() - started
    gap = float(np.max(np.abs(coeffs.diffusion - np.eye(2))))
    porosity_gap = abs(coeffs.porosity - 1.0)
    passed = gap <= 1e-10 and porosity_gap <= 1e-12 and elapsed < 1.0
    verdict(capsys, 1, passed,
            "|D - I| = %.2e, |porosity - 1| = %.2e, %.2fs"
            % (gap, porosity_gap, elapsed))


def test_criterion_2_tensor_structure(capsys, disk_fine):
    coeffs, solutions, elapsed = disk_fine
    d, k = coeffs.diffusion, coeffs.permeability
    conditions = []

    for name, tensor in (("D", d), ("K", k)):
        scale = float(np.max(np.abs(tensor)))
        conditions.append(np.max(np.abs(tensor - tensor.T)) <= 1e-8 * scale)
        conditions.append(np.all(np.linalg.eigvalsh(tensor) > 0))
        conditions.append(abs(tensor[0, 1]) <= 1e-8 * np.trace(tensor))
    conditions.append(0.0 < d[0, 0] < 0.80365)

    mesh = solutions["scalar"].mesh
    areas, _ = fem.triangle_data(mesh)
    phi = solutions["scalar"].phi
    grads = [fem.p1_element_gradients(mesh, phi[:, j]) for j in range(2)]
    energy = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            gi = grads[i].copy()
            gi[:, i] += 1.0
            gj = grads[j].copy()
            gj[:, j] += 1.0
            energy[i, j] = areas @ np.sum(gi * gj, axis=1)
    d_gap = float(np.max(np.abs(energy - d)) / np.max(np.abs(d)))
    conditions.append(d_gap <= 1e-6)

    stiff_p2 = fem.assemble_p2_stiffness(mesh)
    flow = solutions["flow"]
    energy_k = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            vi = flow.velocities[i]
            vj = flow.velocities[j]
            energy_k[i, j] = (vi[:, 0] @ (stiff_p2 @ vj[:, 0])
                              + vi[:, 1] @ (stiff_p2 @ vj[:, 1]))
    k_gap = float(np.max(np.abs(energy_k - k)) / np.max(np.abs(k)))
    conditions.append(k_gap <= 1e-6)
    conditions.append(elapsed < 60.0)

    verdict(capsys, 2, all(conditions),
            "D11 = %.6f in (0, 0.80365), route gaps D %.2e / K %.2e, %.1fs"
            % (d[0, 0], d_gap, k_gap, elapsed))


def test_criterion_3_golden_regression(capsys, disk_fine):
    coeffs, _, elapsed = disk_fine
    with open(FIXTURE) as handle:
        oracle = json.load(handle)["extrapolated"]
    rel = {
        "d": abs(coeffs.diffusion[0, 0] - oracle["d"]) / oracle["d"],
        "k": abs(coeffs.permeability[0, 0] - oracle["k"]) / oracle["k"],
        "m": abs(coeffs.dirichlet_mean - oracle["m"]) / oracle["m"],
    }
    passed = all(value <= 0.005 for value in rel.values()) and elapsed < 60.0
    verdict(capsys, 3, passed,
            "relative gaps d %.2e, k %.2e, m %.2e (allowed 5e-3), %.1fs"
            % (rel["d"], rel["k"], rel["m"], elapsed))


def test_criterion_4_manufactured_poisson(capsys):
    started = time.perf_counter()
    coeffs = EffectiveCoefficients(porosity=1.0, diffusion=np.eye(2))
    errors = []
    for h in (0.1, 0.05, 0.025):
        mesh = generate_unit_cell_mesh(UnitCellGeometry(None, h))
        x = mesh.nodes[:, 0]
        state = macro.MacroState(
            mesh=mesh, t=0.0, c_plus=np.cos(np.pi * x),
            c_minus=np.zeros(mesh.num_nodes), phi=np.zeros(mesh.num_nodes),
            pressure=np.zeros(mesh.num_nodes),
            velocity=np.zeros((mesh.num_triangles, 2)))
        phi = macro.solve_macro_poisson(state, coeffs,
                                        macro._Operators(mesh, coeffs))
        exact = np.cos(np.pi * x) / np.pi ** 2
        errors.append(fem.l2_norm(mesh, phi - exact))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    elapsed = time.perf_counter() - started
    passed = all(order >= 1.9 for order in orders) and elapsed < 30.0
    verdict(capsys, 4, passed,
            "L2 orders %s over h in {0.1, 0.05, 0.025}, %.1fs"
            % (["%.2f" % o for o in orders], elapsed))


def test_criterion_5_conservation_and_charge_decay(capsys):
    started = time.perf_counter()
    coeffs, _ = compute_effective_coefficients(
        UnitCellGeometry(DiskInclusion((0.5, 0.5), 0.25), 0.1))

    mesh = generate_unit_cell_mesh(UnitCellGeometry(None, 1 / 32))
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    regime = macro.ScalingRegime("dirichlet", 2, 1, 1, phi_d=0.2)
    problem = macro.MacroProblem(mesh, coeffs, regime, blob_plus(x, y),
                                 blob_minus(x, y), t_end=0.1, dt=1e-3,
                                 snapshot_stride=0)
    _, macro_diag, _ = macro.run_macro(problem)
    mass0 = macro_diag[0]["mass"]
    macro_drift = max(abs(r["mass"] - mass0) for r in macro_diag) / abs(mass0)
    charge0 = macro_diag[0]["charge"]
    decay_gap = max(abs(r["charge"] - charge0 * math.exp(-2 * r["t"]))
                    for r in macro_diag) / abs(charge0)

    domain = PerforatedDomain(0.5, UnitCellGeometry(
        DiskInclusion((0.5, 0.5), 0.25), 0.1))
    micro_mesh = generate_perforated_mesh(domain, 1 / 16)
    mx, my = micro_mesh.nodes[:, 0], micro_mesh.nodes[:, 1]
    cp, cm = macro.make_neutral(micro_mesh, blob_plus(mx, my),
                                blob_minus(mx, my))
    micro_problem = micro.MicroProblem(
        domain, micro_mesh, macro.ScalingRegime("neumann", 0, 0, 0), cp, cm,
        t_end=0.1, dt=1e-3, snapshot_stride=0)
    _, micro_diag, _ = micro.run_micro(micro_problem)
    mass0 = micro_diag[0]["mass"]
    micro_drift = max(abs(r["mass"] - mass0) for r in micro_diag) / abs(mass0)

    elapsed = time.perf_counter() - started
    steps_ok = len(macro_diag) == 101 and len(micro_diag) == 101
    passed = (macro_drift <= 1e-9 and micro_drift <= 1e-9
              and decay_gap <= 1e-3 and steps_ok and elapsed < 120.0)
    verdict(capsys, 5, passed,
            "mass drift macro %.2e / micro %.2e over 100 steps, "
            "charge vs exp(-2t) %.2e, %.1fs"
            % (macro_drift, micro_drift, decay_gap, elapsed))


def test_criterion_6_positivity_and_boundedness(capsys):
    started = time.perf_counter()
    coeffs, _ = compute_effective_coefficients(
        UnitCellGeometry(DiskInclusion((0.5, 0.5), 0.25), 0.1))

    def split(x, y):
        plus = 0.5 + 0.4 * np.exp(-25 * ((x - 0.4) ** 2 + (y - 0.5) ** 2))
        return plus, 1.0 - plus

    h = 1 / 32
    mesh = generate_unit_cell_mesh(UnitCellGeometry(None, h))
    cp, cm = split(mesh.nodes[:, 0], mesh.nodes[:, 1])
    cp, cm = macro.make_neutral(mesh, cp, cm)
    regime = macro.ScalingRegime("neumann", 0, 0, 0)
    problem = macro.MacroProblem(mesh, coeffs, regime, cp, cm,
                                 t_end=0.05, dt=h * h / 4,
                                 snapshot_stride=0)
    _, macro_diag, _ = macro.run_macro(problem)
    macro_min = min(r["min_c"] for r in macro_diag)
    macro_max = max(r["max_c"] for r in macro_diag)

    h = 1 / 16
    domain = PerforatedDomain(0.5, UnitCellGeometry(
        DiskInclusion((0.5, 0.5), 0.25), 0.1))
    micro_mesh = generate_perforated_mesh(domain, h)
    cp, cm = split(micro_mesh.nodes[:, 0], micro_mesh.nodes[:, 1])
    cp, cm = macro.make_neutral(micro_mesh, cp, cm)
    micro_problem = micro.MicroProblem(
        domain, micro_mesh, regime, cp, cm, t_end=0.05, dt=h * h / 4,
        snapshot_stride=0)
    _, micro_diag, _ = micro.run_micro(micro_problem)
    micro_min = min(r["min_c"] for r in micro_diag)
    micro_max = max(r["max_c"] for r in micro_diag)

    elapsed = time.perf_counter() - started
    low = min(macro_min, micro_min)
    high = max(macro_max, micro_max)
    passed = low >= -1e-6 and high <= 1.0 + 1e-6 and elapsed < 120.0
    verdict(capsys, 6, passed,
            "min c %.3e >= -1e-6, max c %.9f <= 1 + 1e-6 at dt = h^2/4, "
            "%.1fs" % (low, high, elapsed))


def test_criterion_7_regime_fixture_table(capsys):
    started = time.perf_counter()
    admissible = [
        (("neumann", 0, 0, 0), ("EllipticPoisson", "WithElectrostatic",
                                "WithDrift")),
        (("neumann", 0, 1, 1), ("EllipticPoisson", "Plain", "None")),
        (("neumann", 0, 1, 0), ("EllipticPoisson", "Plain", "WithDrift")),
        (("neumann", 1, 1, 1), ("EllipticPoisson", "WithElectrostatic",
                                "WithDrift")),
        (("dirichlet", 2, 1, 1), ("AlgebraicLocal", "Plain", "None")),
        (("dirichlet", 1, 0, 0), ("AlgebraicLocal", "Plain", "None")),
    ]
    outcomes = []
    for args, expected in admissible:
        model = macro.classify_regime(macro.ScalingRegime(*args))
        outcomes.append(model == macro.MacroModelClass(*expected))
    for args in [("neumann", 0, -1, 0), ("dirichlet", 2, 0.5, 1)]:
        try:
            macro.classify_regime(macro.ScalingRegime(*args))
            outcomes.append(False)
        except InadmissibleScaling:
            outcomes.append(True)
    elapsed = time.perf_counter() - started
    passed = all(outcomes) and len(outcomes) == 8 and elapsed < 1.0
    verdict(capsys, 7, passed,
            "8 fixture regimes classified exactly (%d/8), %.2fs"
            % (sum(outcomes), elapsed))


def test_criterion_8_headline_convergence_study(capsys):
    started = time.perf_counter()
    study = verify.run_convergence_study(
        macro.ScalingRegime("neumann", 0, 0, 0),
        UnitCellGeometry(DiskInclusion((0.5, 0.5), 0.25), 0.125),
        blob_plus, blob_minus, eps_list=(0.5, 0.25, 0.125),
        t_end=0.1, dt=2e-3, macro_h=1 / 64)
    elapsed = time.perf_counter() - started
    decreasing = all(
        all(b < a for a, b in zip(study.errors[name],
                                  study.errors[name][1:]))
        for name in ("c_plus", "c_minus", "phi", "v"))
    corrector_ok = all(
        enhanced <= plain for plain, enhanced
        in zip(study.errors["phi_plain"], study.errors["phi_corrected"]))
    passed = decreasing and corrector_ok and elapsed < 1800.0
    verdict(capsys, 8, passed,
            "errors strictly decrease over eps {1/2, 1/4, 1/8} "
            "(c+ %s), corrector improves at every eps, %.0fs"
            % (["%.2e" % e for e in study.errors["c_plus"]], elapsed))


def test_criterion_9_dirichlet_branch_study(capsys):
    started = time.perf_counter()
    study = verify.run_convergence_study(
        macro.ScalingRegime("dirichlet", 2, 1, 1, phi_d=0.5),
        UnitCellGeometry(DiskInclusion((0.5, 0.5), 0.25), 0.125),
        blob_plus, blob_minus, eps_list=(0.5, 0.25),
        t_end=0.1, dt=2e-3, macro_h=1 / 64)
    elapsed = time.perf_counter() - started
    # The wall-potential closure and the transported concentrations must
    # both improve with scale separation; the flow errors sit at the
    # solver noise floor on both scales (both velocities vanish) and
    # carry no signal here.
    phi_ok = study.errors["phi"][1] < study.errors["phi"][0]
    c_ok = (study.errors["c_plus"][1] < study.errors["c_plus"][0]
            and study.errors["c_minus"][1] < study.errors["c_minus"][0])
    passed = phi_ok and c_ok and elapsed < 900.0
    verdict(capsys, 9, passed,
            "phi closure error %.2e -> %.2e, c+ %.2e -> %.2e, %.0fs"
            % (study.errors["phi"][0], study.errors["phi"][1],
               study.errors["c_plus"][0], study.errors["c_plus"][1],
               elapsed))


def test_criterion_10_converge_determinism(capsys, tmp_path):
    started = time.perf_counter()
    outdir = tmp_path / "out"
    config = tmp_path / "study.json"
    config.write_text(json.dumps({
        "discretization": {"h": 0.03125, "dt": 0.005, "T": 0.01,
                           "eps": [0.5, 0.25]},
        "output": {"directory": str(outdir), "formats": ["csv"]}}))
    assert cli.main(["converge", "--config", str(config)]) == 0
    study_first = (outdir / "study.csv").read_bytes()
    coeff_first = (outdir / "coefficients.txt").read_bytes()
    assert cli.main(["converge", "--config", str(config)]) == 0
    identical = ((outdir / "study.csv").read_bytes() == study_first
                 and (outdir / "coefficients.txt").read_bytes()
                 == coeff_first)
    elapsed = time.perf_counter() - started
    verdict(capsys, 10, identical,
            "repeated converge runs wrote bit-identical CSV outputs, %.1fs"
            % elapsed)
