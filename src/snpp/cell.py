"""Cell problems on the unit cell and the effective coefficients.

Three problem families are solved on the periodic fluid cell: scalar
correctors driven by the inclusion boundary (diffusion/permittivity
tensor), Stokes correctors driven by unit forcings (permeability tensor),
and a Dirichlet problem with unit source (mean used by the algebraic
potential closure).  Every tensor is evaluated along two independent
routes, the defining average and the energy identity, and a disagreement
is treated as a bug in the discretization rather than noise.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import FormulaMismatch, NoSolidPhase, ValidationError
from .mesh import GAMMA_INTERIOR, generate_unit_cell_mesh, tagged_edges

log = logging.getLogger(__name__)

MISMATCH_TOL = 1e-6


@dataclass
class ScalarCellSolutions:
    """Periodic zero-mean correctors phi_1, phi_2 as columns of phi.

    The same two solutions serve the potential and the concentration
    closures; both effective tensors are read off this one object.
    """

    mesh: object
    phi: np.ndarray

    def validate(self):
        weight = fem.lumped_mass(self.mesh)
        for j in range(2):
            if abs(weight @ self.phi[:, j]) > 1e-10:
                raise ValidationError("corrector %d is not zero-mean" % j)
        pairs = self.mesh.periodic_pairs
        if len(pairs):
            gap = self.phi[pairs[:, 0]] - self.phi[pairs[:, 1]]
            if np.max(np.abs(gap)) != 0.0:
                raise ValidationError("corrector breaks periodic pairing")


@dataclass
class StokesCellSolutions:
    """Velocity/pressure pairs for unit forcings e_1 and e_2."""

    mesh: object
    velocities: list
    pressures: list

    def validate(self):
        no_slip = fem._p2_boundary_dofs(self.mesh, {GAMMA_INTERIOR})
        for j, vel in enumerate(self.velocities):
            if no_slip and np.max(np.abs(vel[no_slip])) > 1e-12:
                raise ValidationError(
                    "flow corrector %d violates no-slip" % j)
            if np.linalg.norm(fem.weak_divergence(self.mesh, vel)) > 1e-8:
                raise ValidationError(
                    "flow corrector %d violates incompressibility" % j)


@dataclass
class DirichletCellSolution:
    """Solution of the unit-source problem vanishing on the inclusion."""

    mesh: object
    phi: np.ndarray

    def validate(self):
        if np.min(self.phi) < -1e-10:
            raise ValidationError(
                "cell solution dips to %g below zero" % float(
                    np.min(self.phi)))


@dataclass
class EffectiveCoefficients:
    """Upscaled material data of one cell geometry.

    permeability and dirichlet_mean are None when the cell has no
    inclusion (free flow and the wall-anchored problem are undefined).
    """

    porosity: float
    diffusion: np.ndarray
    permeability: np.ndarray = None
    dirichlet_mean: float = None

    def validate(self):
        if not (0.0 < self.porosity <= 1.0 + 1e-12):
            raise ValidationError("porosity %g outside (0, 1]"
                                  % self.porosity)
        for name, tensor in (("diffusion", self.diffusion),
                             ("permeability", self.permeability)):
            if tensor is None:
                continue
            tensor = np.asarray(tensor)
            scale = max(np.max(np.abs(tensor)), 1e-30)
            if np.max(np.abs(tensor - tensor.T)) > 1e-8 * scale:
                raise ValidationError("%s tensor is not symmetric" % name)
            eigs = np.linalg.eigvalsh(0.5 * (tensor + tensor.T))
            if eigs[0] <= 0:
                raise ValidationError(
                    "%s tensor is not positive definite (min eigenvalue %g)"
                    % (name, eigs[0]))
        eigs = np.linalg.eigvalsh(
            0.5 * (self.diffusion + self.diffusion.T))
        if eigs[-1] > self.porosity + 1e-8:
            raise ValidationError(
                "diffusion eigenvalue %g exceeds the porosity bound %g"
                % (eigs[-1], self.porosity))
        if self.dirichlet_mean is not None and not self.dirichlet_mean > 0:
            raise ValidationError("dirichlet_mean must be positive")


def _has_interface(mesh):
    return len(tagged_edges(mesh, {GAMMA_INTERIOR})) > 0


def solve_scalar_cell_problems(mesh):
    """Periodic correctors with boundary flux -e_j . nu on the inclusion.

    Both directions share one ZeroMeanLU of the periodically folded
    stiffness matrix.
    """
    fold, _ = fem.periodic_prolongation(mesh.num_nodes, mesh.periodic_pairs)
    weight = fold.T @ fem.lumped_mass(mesh)
    lu = fem.ZeroMeanLU(fold.T @ fem.assemble_stiffness(mesh) @ fold, weight)
    phi = np.zeros((mesh.num_nodes, 2))
    for j in range(2):
        rhs = fem.assemble_interface_normal_load(mesh, j)
        imbalance = abs(rhs.sum())
        if imbalance > 1e-12:
            raise ValidationError(
                "interface flux data sums to %g; closed interfaces must "
                "balance" % imbalance)
        if not np.any(rhs):
            continue
        phi[:, j] = fold @ lu.solve(fold.T @ rhs)
    sols = ScalarCellSolutions(mesh, phi)
    sols.validate()
    return sols


def compute_diffusion_tensor(sols):
    """Average of the corrected unit gradients, cross-checked by energy.

    The defining formula integrates delta_ij + the corrector gradient;
    the energy route integrates (e_i + grad phi_i).(e_j + grad phi_j).
    For the discrete solutions the two agree to solver precision, so a
    gap beyond MISMATCH_TOL means the assembly or the boundary data is
    wrong.
    """
    mesh = sols.mesh
    areas, _ = fem.triangle_data(mesh)
    porosity = float(np.sum(areas))
    grads = [fem.p1_element_gradients(mesh, sols.phi[:, j]) for j in range(2)]
    averaged = porosity * np.eye(2)
    for j in range(2):
        averaged[:, j] += areas @ grads[j]
    energy = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            gi = grads[i].copy()
            gi[:, i] += 1.0
            gj = grads[j].copy()
            gj[:, j] += 1.0
            energy[i, j] = areas @ np.sum(gi * gj, axis=1)
    scale = max(np.max(np.abs(averaged)), 1e-30)
    gap = np.max(np.abs(energy - averaged)) / scale
    if gap > MISMATCH_TOL:
        raise FormulaMismatch(
            "diffusion tensor: averaging and energy routes differ by "
            "relative %g" % gap, where="cell.compute_diffusion_tensor")
    log.debug("diffusion tensor route gap: %.3e", gap)
    return averaged


def solve_stokes_cell_problems(mesh):
    """Periodic no-slip Stokes correctors for unit forcings."""
    if not _has_interface(mesh):
        raise NoSolidPhase(
            "cell has no inclusion; the flow problem with mean forcing "
            "has no periodic solution", where="cell.solve_stokes_cell_problems")
    op = fem.StokesOperator(mesh)
    velocities, pressures = [], []
    for j in range(2):
        forcing = np.zeros(2)
        forcing[j] = 1.0
        vel, pressure = op.solve(forcing)
        velocities.append(vel)
        pressures.append(pressure)
    sols = StokesCellSolutions(mesh, velocities, pressures)
    sols.validate()
    return sols


def compute_permeability_tensor(sols):
    """Averaged flow correctors, cross-checked by the viscous energy."""
    mesh = sols.mesh
    averaged = np.column_stack(
        [fem.integrate_p2(mesh, vel) for vel in sols.velocities])
    stiff_p2 = fem.assemble_p2_stiffness(mesh)
    energy = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            vi = sols.velocities[i]
            vj = sols.velocities[j]
            energy[i, j] = (vi[:, 0] @ (stiff_p2 @ vj[:, 0])
                            + vi[:, 1] @ (stiff_p2 @ vj[:, 1]))
    scale = max(np.max(np.abs(averaged)), 1e-30)
    gap = np.max(np.abs(energy - averaged)) / scale
    if gap > MISMATCH_TOL:
        raise FormulaMismatch(
            "permeability tensor: averaging and energy routes differ by "
            "relative %g" % gap, where="cell.compute_permeability_tensor")
    log.debug("permeability tensor route gap: %.3e", gap)
    return 0.5 * (averaged + averaged.T)


def solve_dirichlet_cell_problem(mesh):
    """Unit-source problem clamped to zero on the inclusion boundary."""
    if not _has_interface(mesh):
        raise NoSolidPhase(
            "cell has no inclusion; the unit-source problem is "
            "incompatible under pure periodicity",
            where="cell.solve_dirichlet_cell_problem")
    fold, cols = fem.periodic_prolongation(mesh.num_nodes, mesh.periodic_pairs)
    clamped = cols[np.unique(tagged_edges(mesh, {GAMMA_INTERIOR}))]
    matrix = fem.apply_dirichlet(
        fold.T @ fem.assemble_stiffness(mesh) @ fold, clamped)
    rhs = fold.T @ fem.lumped_mass(mesh)
    rhs[clamped] = 0.0
    phi = fold @ fem.symmetric_lu(matrix.tocsc()).solve(rhs)
    sol = DirichletCellSolution(mesh, phi)
    sol.validate()
    return sol


def compute_dirichlet_mean(sol):
    """Mean of the unit-source solution, cross-checked by its energy."""
    mesh = sol.mesh
    weight = fem.lumped_mass(mesh)
    averaged = float(weight @ sol.phi)
    stiff = fem.assemble_stiffness(mesh)
    energy = float(sol.phi @ (stiff @ sol.phi))
    gap = abs(energy - averaged) / max(abs(averaged), 1e-30)
    if gap > MISMATCH_TOL:
        raise FormulaMismatch(
            "dirichlet mean: averaging and energy routes differ by "
            "relative %g" % gap, where="cell.compute_dirichlet_mean")
    return averaged


def corrector_node_values(micro_mesh, sols):
    """Corrector values at every node of a tiled perforated mesh.

    Tiled meshes record, for each node, the cell-mesh node it was copied
    from, so phi_j(x/eps) is an exact lookup with no interpolation.  The
    solutions must live on the same cell mesh the tiling used.
    """
    if micro_mesh.node_cell_origin is None or micro_mesh.cell_mesh is None:
        raise ValidationError(
            "mesh carries no tiling record; corrector lookup needs a "
            "perforated mesh")
    cell = micro_mesh.cell_mesh
    if not (np.array_equal(sols.mesh.nodes, cell.nodes)
            and np.array_equal(sols.mesh.triangles, cell.triangles)):
        raise ValidationError(
            "corrector solutions were not computed on the tiling's cell "
            "mesh")
    return sols.phi[micro_mesh.node_cell_origin]


def compute_effective_coefficients(geom, mesh=None):
    """All effective coefficients of one cell geometry.

    Returns (coefficients, solutions) where solutions is a dict holding
    the scalar, flow, and wall-problem solutions for reuse (corrector
    reconstruction, regression against the shared-solution property).
    """
    if mesh is None:
        mesh = generate_unit_cell_mesh(geom)
    scalar = solve_scalar_cell_problems(mesh)
    diffusion = compute_diffusion_tensor(scalar)
    areas, _ = fem.triangle_data(mesh)
    porosity = float(np.sum(areas))
    solutions = {"scalar": scalar}
    if _has_interface(mesh):
        flow = solve_stokes_cell_problems(mesh)
        permeability = compute_permeability_tensor(flow)
        wall = solve_dirichlet_cell_problem(mesh)
        dirichlet_mean = compute_dirichlet_mean(wall)
        solutions["flow"] = flow
        solutions["wall"] = wall
    else:
        permeability = None
        dirichlet_mean = None
    coeffs = EffectiveCoefficients(
        porosity=porosity,
        diffusion=diffusion,
        permeability=permeability,
        dirichlet_mean=dirichlet_mean,
    )
    coeffs.validate()
    log.info("effective coefficients: porosity %.6f, D11 %.6f, %s",
             porosity, diffusion[0, 0],
             "K11 %.3e" % permeability[0, 0] if permeability is not None
             else "no inclusion")
    return coeffs, solutions
