"""Cell problems and effective coefficients against independent oracles."""

import importlib.util
import pathlib

import numpy as np
import pytest

from snpp import cell, fem
from snpp.errors import FormulaMismatch, NoSolidPhase, ValidationError
from snpp.mesh import (
    GAMMA_INTERIOR,
    DiskInclusion,
    PerforatedDomain,
    UnitCellGeometry,
    generate_perforated_mesh,
    generate_unit_cell_mesh,
)

from oracles import dense_p1_mass, dense_p1_stiffness, gauss_solve, tri_area

GOLDEN_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" \
    / "compute_golden.py"


def disk_geom(h, radius=0.25):
    return UnitCellGeometry(DiskInclusion((0.5, 0.5), radius), h)


def oracle_canonical_map(mesh):
    """Periodic identification by folding boundary coordinates."""
    canon = np.arange(mesh.num_nodes)
    seen = {}
    for i, (x, y) in enumerate(mesh.nodes):
        cx = 0.0 if x == 1.0 else x
        cy = 0.0 if y == 1.0 else y
        key = (round(cx, 12), round(cy, 12))
        if key in seen:
            canon[i] = seen[key]
        else:
            seen[key] = i
    return canon


def oracle_dense_operators(mesh):
    n = mesh.num_nodes
    stiff = np.zeros((n, n))
    mass = np.zeros((n, n))
    for tri in mesh.triangles:
        coords = mesh.nodes[tri]
        ke = dense_p1_stiffness(coords)
        me = dense_p1_mass(coords)
        for i in range(3):
            for j in range(3):
                stiff[tri[i], tri[j]] += ke[i, j]
                mass[tri[i], tri[j]] += me[i, j]
    return stiff, mass


def oracle_interface_load(mesh, direction, center):
    """Edge-midpoint rule with normals chosen to point at the disk center."""
    rhs = np.zeros(mesh.num_nodes)
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        if tag != GAMMA_INTERIOR:
            continue
        pa, pb = mesh.nodes[a], mesh.nodes[b]
        edge = pb - pa
        length = float(np.hypot(edge[0], edge[1]))
        normal = np.array([edge[1], -edge[0]]) / length
        mid = 0.5 * (pa + pb)
        if normal @ (np.asarray(center) - mid) < 0:
            normal = -normal
        rhs[a] += -normal[direction] * length / 2.0
        rhs[b] += -normal[direction] * length / 2.0
    return rhs


def fold(canon, matrix=None, vector=None):
    masters = np.unique(canon)
    index = {m: k for k, m in enumerate(masters)}
    cols = np.array([index[c] for c in canon])
    if matrix is not None:
        nred = len(masters)
        out = np.zeros((nred, nred))
        for i in range(len(canon)):
            for j in range(len(canon)):
                if matrix[i, j] != 0.0:
                    out[cols[i], cols[j]] += matrix[i, j]
        return out, cols
    out = np.zeros(len(masters))
    np.add.at(out, cols, vector)
    return out, cols


def test_no_inclusion_cell_is_trivial():
    mesh = generate_unit_cell_mesh(UnitCellGeometry(None, 0.25))
    sols = cell.solve_scalar_cell_problems(mesh)
    assert np.max(np.abs(sols.phi)) == 0.0
    diffusion = cell.compute_diffusion_tensor(sols)
    assert np.max(np.abs(diffusion - np.eye(2))) < 1e-12
    with pytest.raises(NoSolidPhase):
        cell.solve_stokes_cell_problems(mesh)
    with pytest.raises(NoSolidPhase):
        cell.solve_dirichlet_cell_problem(mesh)


def test_diffusion_matches_dense_periodic_oracle():
    mesh = generate_unit_cell_mesh(disk_geom(0.1))
    sols = cell.solve_scalar_cell_problems(mesh)
    ours = cell.compute_diffusion_tensor(sols)

    stiff, mass = oracle_dense_operators(mesh)
    canon = oracle_canonical_map(mesh)
    stiff_red, cols = fold(canon, matrix=stiff)
    weight, _ = fold(canon, vector=mass @ np.ones(mesh.num_nodes))
    nred = stiff_red.shape[0]
    phi = np.zeros((mesh.num_nodes, 2))
    for j in range(2):
        rhs = oracle_interface_load(mesh, j, (0.5, 0.5))
        rhs_red, _ = fold(canon, vector=rhs)
        aug = np.zeros((nred + 1, nred + 1))
        aug[:nred, :nred] = stiff_red
        aug[:nred, nred] = weight
        aug[nred, :nred] = weight
        solution = gauss_solve(aug, np.concatenate([rhs_red, [0.0]]))
        phi[:, j] = solution[cols]

    ref = np.zeros((2, 2))
    for tri in mesh.triangles:
        coords = mesh.nodes[tri]
        area = tri_area(coords)
        vandermonde = np.column_stack([np.ones(3), coords])
        grads = np.linalg.solve(vandermonde, np.eye(3))[1:]
        for j in range(2):
            grad_phi = grads @ phi[tri, j]
            ref[:, j] += area * grad_phi
            ref[j, j] += area
    assert np.max(np.abs(ours - ref)) < 1e-8


def test_dirichlet_mean_matches_dense_oracle():
    mesh = generate_unit_cell_mesh(disk_geom(0.1))
    sol = cell.solve_dirichlet_cell_problem(mesh)
    ours = cell.compute_dirichlet_mean(sol)

    stiff, mass = oracle_dense_operators(mesh)
    canon = oracle_canonical_map(mesh)
    stiff_red, cols = fold(canon, matrix=stiff)
    weight_full = mass @ np.ones(mesh.num_nodes)
    rhs_red, _ = fold(canon, vector=weight_full)
    clamped = set()
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        if tag == GAMMA_INTERIOR:
            clamped.add(cols[a])
            clamped.add(cols[b])
    for k in clamped:
        stiff_red[k, :] = 0.0
        stiff_red[k, k] = 1.0
        rhs_red[k] = 0.0
    phi = gauss_solve(stiff_red, rhs_red)[cols]
    ref = float(weight_full @ phi)
    assert ours == pytest.approx(ref, abs=1e-10)
    assert ours > 0


def test_scalar_corrector_mirror_antisymmetry():
    mesh = generate_unit_cell_mesh(disk_geom(0.05))
    sols = cell.solve_scalar_cell_problems(mesh)
    lookup = {(x, y): i for i, (x, y) in enumerate(map(tuple, mesh.nodes))}
    worst = 0.0
    for i, (x, y) in enumerate(mesh.nodes):
        j = lookup[(1.0 - x, y)]
        worst = max(worst, abs(sols.phi[i, 0] + sols.phi[j, 0]))
    assert worst < 1e-8


def test_diffusion_isotropy_and_variational_bound():
    mesh = generate_unit_cell_mesh(disk_geom(0.025))
    sols = cell.solve_scalar_cell_problems(mesh)
    diffusion = cell.compute_diffusion_tensor(sols)
    assert abs(diffusion[0, 1]) < 1e-8
    assert abs(diffusion[1, 0]) < 1e-8
    assert abs(diffusion[0, 0] - diffusion[1, 1]) < 1e-6
    d = diffusion[0, 0]
    assert 0.0 < d < 0.80365


def test_diffusion_approaches_identity_for_small_inclusions():
    gaps = []
    for radius, h in ((0.1, 0.04), (0.05, 0.02)):
        mesh = generate_unit_cell_mesh(disk_geom(h, radius))
        sols = cell.solve_scalar_cell_problems(mesh)
        diffusion = cell.compute_diffusion_tensor(sols)
        gaps.append(np.linalg.norm(diffusion - np.eye(2)))
    assert gaps[1] < gaps[0]


def test_scalar_energy_converges_at_second_order():
    energies = []
    for h in (0.1, 0.05, 0.025):
        mesh = generate_unit_cell_mesh(disk_geom(h))
        sols = cell.solve_scalar_cell_problems(mesh)
        stiff = fem.assemble_stiffness(mesh)
        energies.append(sols.phi[:, 0] @ (stiff @ sols.phi[:, 0]))
    order = np.log2(abs(energies[0] - energies[1])
                    / abs(energies[1] - energies[2]))
    assert 1.5 < order < 2.6


def test_permeability_isotropic_positive_definite():
    mesh = generate_unit_cell_mesh(disk_geom(0.05))
    sols = cell.solve_stokes_cell_problems(mesh)
    perm = cell.compute_permeability_tensor(sols)
    k = perm[0, 0]
    assert k > 0
    assert abs(perm[0, 1]) < 1e-8 * k
    assert abs(perm[0, 0] - perm[1, 1]) < 1e-6 * k
    eigs = np.linalg.eigvalsh(perm)
    assert eigs[0] > 0


def test_permeability_decreases_with_radius():
    values = []
    for radius in (0.2, 0.3, 0.4):
        mesh = generate_unit_cell_mesh(disk_geom(0.04, radius))
        sols = cell.solve_stokes_cell_problems(mesh)
        values.append(cell.compute_permeability_tensor(sols)[0, 0])
    assert values[0] > values[1] > values[2] > 0


def test_dirichlet_mean_decreases_with_radius():
    values = []
    for radius in (0.2, 0.3, 0.4):
        mesh = generate_unit_cell_mesh(disk_geom(0.04, radius))
        sol = cell.solve_dirichlet_cell_problem(mesh)
        values.append(cell.compute_dirichlet_mean(sol))
    assert values[0] > values[1] > values[2] > 0


def test_dirichlet_solution_respects_maximum_principle():
    mesh = generate_unit_cell_mesh(disk_geom(0.05))
    sol = cell.solve_dirichlet_cell_problem(mesh)
    assert float(np.min(sol.phi)) >= -1e-10


def doubled_scalar(mesh):
    sols = cell.solve_scalar_cell_problems(mesh)
    return cell.compute_diffusion_tensor, cell.ScalarCellSolutions(
        mesh, 2 * sols.phi)


def doubled_flow(mesh):
    sols = cell.solve_stokes_cell_problems(mesh)
    return cell.compute_permeability_tensor, cell.StokesCellSolutions(
        mesh, [2 * v for v in sols.velocities], sols.pressures)


def doubled_wall(mesh):
    sol = cell.solve_dirichlet_cell_problem(mesh)
    return cell.compute_dirichlet_mean, cell.DirichletCellSolution(
        mesh, 2 * sol.phi)


@pytest.mark.parametrize("case", [doubled_scalar, doubled_flow, doubled_wall],
                         ids=["diffusion", "permeability", "dirichlet_mean"])
def test_doubled_solutions_split_the_two_routes(case):
    # Doubling a solution doubles the averaging route and quadruples the
    # energy route, which no longer describe the same tensor.
    mesh = generate_unit_cell_mesh(disk_geom(0.1))
    compute, doubled = case(mesh)
    with pytest.raises(FormulaMismatch) as info:
        compute(doubled)
    assert info.value.where == "cell." + compute.__name__


def test_corrector_node_values_use_tiling_record():
    dom = PerforatedDomain(0.5, disk_geom(0.0625))
    micro = generate_perforated_mesh(dom, 0.0625)
    sols = cell.solve_scalar_cell_problems(micro.cell_mesh)
    values = cell.corrector_node_values(micro, sols)
    assert values.shape == (micro.num_nodes, 2)
    expected = sols.phi[micro.node_cell_origin]
    assert np.array_equal(values, expected)
    plain = generate_unit_cell_mesh(disk_geom(0.1))
    with pytest.raises(ValidationError):
        cell.corrector_node_values(plain, sols)
    # Centred disks of radius 0.23 to 0.30 all give 76-node cells at
    # h=1/8: correctors of the r=0.30 cell must not serve an r=0.25 tiling.
    tiled = generate_perforated_mesh(PerforatedDomain(0.5, disk_geom(0.125)),
                                     1 / 16)
    other = cell.solve_scalar_cell_problems(
        generate_unit_cell_mesh(disk_geom(0.125, 0.30)))
    assert other.mesh.num_nodes == tiled.cell_mesh.num_nodes
    with pytest.raises(ValidationError):
        cell.corrector_node_values(tiled, other)


def test_golden_script_runs_on_a_coarse_cell():
    # The script that wrote tests/fixtures/golden_r025.json calls the
    # tensor functions directly; run it on a coarse cell so a signature
    # change cannot break it unnoticed.
    spec = importlib.util.spec_from_file_location("compute_golden",
                                                  GOLDEN_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    values = script.run_once(0.1)
    coeffs, solutions = cell.compute_effective_coefficients(disk_geom(0.1))
    assert values == {
        "nodes": solutions["scalar"].mesh.num_nodes,
        "d": coeffs.diffusion[0, 0], "d_offdiag": coeffs.diffusion[0, 1],
        "k": coeffs.permeability[0, 0],
        "k_offdiag": coeffs.permeability[0, 1],
        "m": coeffs.dirichlet_mean}


def test_effective_coefficients_validation():
    good = cell.EffectiveCoefficients(
        porosity=0.8, diffusion=0.6 * np.eye(2),
        permeability=1e-3 * np.eye(2), dirichlet_mean=0.05)
    good.validate()
    with pytest.raises(ValidationError):
        cell.EffectiveCoefficients(
            porosity=0.8,
            diffusion=np.array([[0.6, 0.1], [-0.1, 0.6]])).validate()
    with pytest.raises(ValidationError):
        cell.EffectiveCoefficients(
            porosity=0.5, diffusion=0.9 * np.eye(2)).validate()
    with pytest.raises(ValidationError):
        cell.EffectiveCoefficients(
            porosity=0.0, diffusion=0.5 * np.eye(2)).validate()
    with pytest.raises(ValidationError):
        cell.EffectiveCoefficients(
            porosity=0.8, diffusion=0.6 * np.eye(2),
            dirichlet_mean=-1.0).validate()


def test_coefficients_share_one_scalar_solve():
    coeffs, solutions = cell.compute_effective_coefficients(disk_geom(0.1))
    recomputed = cell.compute_diffusion_tensor(solutions["scalar"])
    assert np.array_equal(recomputed, coeffs.diffusion)
    assert coeffs.permeability is not None
    assert coeffs.dirichlet_mean > 0


def test_scalar_correctors_share_one_factorization(monkeypatch):
    mesh = generate_unit_cell_mesh(disk_geom(0.1))
    factored = []
    factor = fem.splu

    def counted(matrix, **options):
        factored.append(matrix.shape)
        return factor(matrix, **options)

    monkeypatch.setattr(fem, "splu", counted)
    sols = cell.solve_scalar_cell_problems(mesh)
    assert len(factored) == 1
    assert np.all(np.max(np.abs(sols.phi), axis=0) > 0)
