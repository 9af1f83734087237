"""Direct simulation of the scaled electrokinetic system on the
perforated domain.

The stepping driver of the upscaled solver, macro.run_steps, advances
the pore-scale fields with the same splitting (potential, then flow,
then transport, iterated to a fixed point), so a discrepancy between the
two solvers measures the homogenization error and not a scheme mismatch.
The potential carries the eps^alpha coefficient and the eps sigma surface
flux, the flow runs at viscosity eps^2 with forcing -eps^beta q grad(Phi),
and the transport drift is scaled by eps^gamma.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import fem
from .errors import (
    GridMisaligned,
    IncompatibleSource,
    NoSolidPhase,
    ValidationError,
)
from .macro import (
    COMPATIBILITY_TOL,
    NEUMANN,
    classify_regime,
    run_steps,
)
from .mesh import GAMMA_INTERIOR, OUTER_BOUNDARY, boundary_nodes, \
    generate_perforated_mesh

log = logging.getLogger(__name__)

STOKES_LAG_TOL = 1e-8


@dataclass
class MicroProblem:
    """Complete description of one pore-scale run.

    Initial data may be callables f(x, y) evaluated at the mesh nodes or
    nodal arrays on the perforated mesh.
    """

    domain: object
    regime: object
    c_plus: object
    c_minus: object
    t_end: float
    dt: float
    target_h: float
    lam: float = 1.0
    exact_stokes: bool = False
    snapshot_stride: int = 1
    _mesh: object = None

    def build_mesh(self):
        if self._mesh is None:
            self._mesh = generate_perforated_mesh(self.domain, self.target_h)
        return self._mesh

    def initial_values(self, mesh):
        out = []
        for name, data in (("c_plus", self.c_plus),
                           ("c_minus", self.c_minus)):
            if callable(data):
                values = np.asarray(
                    data(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=float)
            else:
                values = np.asarray(data, dtype=float)
            if values.shape != (mesh.num_nodes,):
                raise ValidationError("%s does not match the mesh" % name,
                                      field=name)
            if np.min(values) < 0 or np.max(values) > self.lam:
                raise ValidationError(
                    "%s outside [0, %g] nodewise" % (name, self.lam),
                    field=name)
            out.append(values.copy())
        return out

    def validate(self):
        self.regime.validate()
        classify_regime(self.regime)
        if not (self.dt > 0 and self.t_end > 0):
            raise ValidationError("dt and t_end must be positive")


@dataclass
class MicroState:
    """Pore-scale fields at one time."""

    mesh: object
    t: float
    c_plus: np.ndarray
    c_minus: np.ndarray
    phi: np.ndarray
    pressure: np.ndarray
    velocity: object

    def validate(self, bc_type=NEUMANN):
        ops = self.mesh._caches.get("micro_ops")
        weight = ops.weight if ops is not None else np.asarray(
            fem.assemble_mass(self.mesh)
            @ np.ones(self.mesh.num_nodes)).ravel()
        wall = fem._p2_boundary_dofs(
            self.mesh, {GAMMA_INTERIOR, OUTER_BOUNDARY})
        if np.max(np.abs(self.velocity.values[wall])) > 1e-12:
            raise ValidationError("velocity does not vanish on the walls")
        if abs(float(weight @ self.pressure)) > 1e-8 * weight.sum():
            raise ValidationError("pressure mean is not zero")
        if bc_type == NEUMANN:
            if abs(float(weight @ self.phi)) > 1e-8 * weight.sum():
                raise ValidationError("potential mean is not zero")


class _Operators:
    """Matrices, factorizations, and the lagged flow solve for one run."""

    def __init__(self, mesh, regime, exact_stokes):
        self.mesh = mesh
        self.regime = regime
        self.exact_stokes = exact_stokes
        eps = mesh.eps
        self.mass = fem.assemble_mass(mesh)
        self.lumped = fem.assemble_mass(mesh, lumped=True)
        self.weight = np.asarray(
            self.mass @ np.ones(mesh.num_nodes)).ravel()
        self.stiff = fem.assemble_stiffness(mesh)
        scaled = eps ** regime.alpha * self.stiff
        if regime.bc_type == NEUMANN:
            self.surface_load = fem.assemble_boundary_load(
                mesh, GAMMA_INTERIOR, eps * regime.sigma)
            aug, _ = fem.apply_zero_mean(
                scaled, np.zeros(mesh.num_nodes), self.weight)
            self.lu_potential = splu(sp.csc_matrix(aug))
            self.gamma_nodes = None
        else:
            self.gamma_nodes = np.asarray(
                sorted(boundary_nodes(mesh, GAMMA_INTERIOR)), dtype=int)
            if not len(self.gamma_nodes):
                raise NoSolidPhase(
                    "a wall potential needs an interior boundary",
                    where="micro")
            self.scaled_stiff = scaled
            wall_values = np.zeros(mesh.num_nodes)
            wall_values[self.gamma_nodes] = regime.phi_d
            self.wall_correction = np.asarray(
                scaled @ wall_values).ravel()
            constrained, _ = fem.apply_dirichlet(
                scaled, np.zeros(mesh.num_nodes), self.gamma_nodes,
                regime.phi_d)
            self.lu_potential = splu(sp.csc_matrix(constrained))
        self.stokes = fem.StokesOperator(
            mesh, {"no_slip_tags": [GAMMA_INTERIOR, OUTER_BOUNDARY]},
            viscosity=eps ** 2)
        self.last_forcing = None
        self.last_flow = None

    @property
    def stokes_solves(self):
        return self.stokes.solves

    def solve_potential(self, charge):
        rhs = np.asarray(self.mass @ charge).ravel()
        if self.regime.bc_type == NEUMANN:
            rhs = rhs + self.surface_load
            scale = max(1.0, float(np.abs(rhs).sum()))
            residual = float(rhs.sum())
            if abs(residual) > COMPATIBILITY_TOL * scale:
                raise IncompatibleSource(
                    "potential source integrates to %g; bulk and surface "
                    "charge are not balanced" % residual,
                    where="micro.solve_potential")
            rhs = rhs - residual / self.weight.sum() * self.weight
            return self.lu_potential.solve(np.concatenate([rhs, [0.0]]))[:-1]
        rhs = rhs - self.wall_correction
        rhs[self.gamma_nodes] = self.regime.phi_d
        return self.lu_potential.solve(rhs)

    def solve_flow(self, charge, phi):
        eps_beta = self.mesh.eps ** self.regime.beta
        charge_e = fem.element_means(self.mesh, charge)
        forcing = -eps_beta * charge_e[:, None] \
            * fem.p1_element_gradients(self.mesh, phi)
        if (not self.exact_stokes and self.last_forcing is not None):
            gap = float(np.max(np.abs(forcing - self.last_forcing)))
            scale = max(float(np.max(np.abs(self.last_forcing))), 1e-30)
            if gap <= STOKES_LAG_TOL * scale:
                return self.last_flow
        velocity, pressure = self.stokes.solve(forcing)
        self.last_forcing = forcing
        self.last_flow = (velocity, pressure)
        return self.last_flow

    def step_transport(self, c_plus, c_minus, velocity, phi, dt,
                       solver=None):
        eps_gamma = self.mesh.eps ** self.regime.gamma
        tensor = eps_gamma * np.eye(2)
        ops = []
        for sign in (1.0, -1.0):
            conv = fem.assemble_convection(
                self.mesh, velocity=velocity, drift=phi,
                drift_tensor=tensor, drift_sign=sign)
            ops.append(self.stiff - conv)
        return fem.step_reacting_pair(self.lumped, ops[0], ops[1],
                                      c_plus, c_minus, dt, solver=solver)


def _get_operators(mesh, regime, exact_stokes):
    ops = mesh._caches.get("micro_ops")
    if (ops is None or ops.regime != regime
            or ops.exact_stokes != exact_stokes):
        ops = _Operators(mesh, regime, exact_stokes)
        mesh._caches["micro_ops"] = ops
    return ops


def step_micro(state, problem):
    """One splitting sweep: potential, flow, transport, advancing t by dt.

    The potential and flow are built from the concentrations in the given
    state (semi-implicit lagging); the transport step is implicit.
    """
    mesh = state.mesh
    ops = _get_operators(mesh, problem.regime, problem.exact_stokes)
    charge = state.c_plus - state.c_minus
    phi = ops.solve_potential(charge)
    velocity, pressure = ops.solve_flow(charge, phi)
    c_plus, c_minus = ops.step_transport(
        state.c_plus, state.c_minus, velocity, phi, problem.dt)
    return MicroState(mesh, state.t + problem.dt, c_plus, c_minus,
                      phi, pressure, velocity)


def run_micro(problem):
    """Advance the pore-scale system to t_end with macro.run_steps.

    Every step iterates the splitting sweep to a fixed point of the new
    concentrations, like the upscaled solver.  Returns (states,
    diagnostics) with the same diagnostic keys as the macroscopic run.
    """
    problem.validate()
    mesh = problem.build_mesh()
    c_plus, c_minus = problem.initial_values(mesh)
    ops = _Operators(mesh, problem.regime, problem.exact_stokes)
    mesh._caches["micro_ops"] = ops
    solver = fem.TransportSolver()

    def update_fields(state):
        charge = state.c_plus - state.c_minus
        state.phi = ops.solve_potential(charge)
        state.velocity, state.pressure = ops.solve_flow(charge, state.phi)

    def transport(state, c_plus, c_minus):
        return ops.step_transport(c_plus, c_minus, state.velocity,
                                  state.phi, problem.dt, solver=solver)

    state = MicroState(mesh, 0.0, c_plus, c_minus, None, None, None)
    states, diagnostics = run_steps(problem, state, update_fields,
                                    transport, ops.lumped.diagonal())
    log.info("micro run eps=%g finished: %d steps, transport %s, stokes %s",
             mesh.eps, len(diagnostics) - 1, solver.summary(),
             ops.stokes.summary())
    return states, diagnostics


def average_micro_field(values, mesh, cells_per_side=None,
                        mode="intrinsic"):
    """Per-cell averages of a pore-scale field on the scaled-cell grid.

    values may be a nodal scalar (N,), a nodal vector (N, 2), or a P2
    velocity Field; the result has shape (ny, nx) or (ny, nx, 2) with the
    row index running along y.  mode "intrinsic" divides each cell
    integral by the fluid area of the cell (concentration-like fields),
    "superficial" by the full cell area (flux-like fields).  A coarser
    grid may be requested with cells_per_side; it must tile the cell
    decomposition exactly.
    """
    if mesh.triangle_cell is None or mesh.cell_counts is None:
        raise ValidationError("mesh does not carry a cell decomposition")
    if mode not in ("intrinsic", "superficial"):
        raise ValidationError("mode must be intrinsic or superficial",
                              field="mode")
    nx, ny = mesh.cell_counts
    if cells_per_side is None:
        gx, gy = nx, ny
    else:
        if np.isscalar(cells_per_side):
            gx = gy = int(cells_per_side)
        else:
            gx, gy = (int(v) for v in cells_per_side)
        if gx < 1 or gy < 1 or nx % gx or ny % gy:
            raise GridMisaligned(
                "a %dx%d coarse grid does not tile the %dx%d cell "
                "decomposition" % (gx, gy, nx, ny),
                where="micro.average_micro_field")
    areas, _ = fem.triangle_data(mesh)
    if isinstance(values, fem.Field):
        means = fem.element_means(mesh, values)
    else:
        means = fem.element_means(mesh, np.asarray(values, dtype=float))
    scalar = means.ndim == 1
    if scalar:
        means = means[:, None]
    ncells = nx * ny
    fluid = np.bincount(mesh.triangle_cell, weights=areas,
                        minlength=ncells).reshape(ny, nx)
    integrals = np.stack(
        [np.bincount(mesh.triangle_cell, weights=areas * means[:, k],
                     minlength=ncells).reshape(ny, nx)
         for k in range(means.shape[1])], axis=-1)

    def blocks(grid):
        return grid.reshape(gy, ny // gy, gx, nx // gx, -1).sum(axis=(1, 3))

    summed = blocks(integrals)
    if mode == "intrinsic":
        denom = blocks(fluid[..., None])[:, :, 0]
    else:
        denom = np.full((gy, gx),
                        (mesh.eps * ny / gy) * (mesh.eps * nx / gx))
    out = summed / denom[..., None]
    return out[:, :, 0] if scalar else out
