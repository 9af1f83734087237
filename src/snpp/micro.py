"""Direct simulation of the scaled electrokinetic system on the
perforated domain.

The stepping driver of the upscaled solver, macro.run_steps, advances
the pore-scale fields with the same splitting (potential, then flow,
then transport, iterated to a fixed point), so a discrepancy between the
two solvers measures the homogenization error and not a scheme mismatch.
The potential carries the eps^alpha coefficient and a no-flux (Neumann)
or wall-potential (Dirichlet) condition on the inclusions, the flow runs
at viscosity eps^2 with forcing -eps^beta q grad(Phi), and the transport
drift is scaled by eps^gamma.
"""

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem
from .errors import NoSolidPhase, ValidationError
from .macro import (
    NEUMANN,
    check_concentrations,
    classify_regime,
    peak_rss_mb,
    run_steps,
    solve_neumann_potential,
)
from .mesh import GAMMA_INTERIOR, tagged_edges

log = logging.getLogger(__name__)


@dataclass
class MicroProblem:
    """Complete description of one pore-scale run.

    mesh is the perforated mesh of domain (generate_perforated_mesh);
    c_plus and c_minus are nodal arrays on it.
    """

    domain: object
    mesh: object
    regime: object
    c_plus: np.ndarray
    c_minus: np.ndarray
    t_end: float
    dt: float
    lam: float = 1.0
    snapshot_stride: int = 1

    def validate(self):
        classify_regime(self.regime)
        check_concentrations(self.mesh, self.lam, self.c_plus, self.c_minus)
        if not (self.dt > 0 and self.t_end > 0):
            raise ValidationError("dt and t_end must be positive")


class _Operators:
    """Matrices and factorizations of one run_micro call of step dt, with
    the potential, flow and transport solves built on them.

    On the Neumann branch one ZeroMeanLU of the P1 stiffness serves the
    potential, whose eps^alpha coefficient divides the solution, and the
    pressure Laplacian of the Stokes operator's Schur route.  The
    stiffness itself is read only by the builds, and dropped after them.
    """

    def __init__(self, mesh, regime, dt):
        self.mesh = mesh
        self.regime = regime
        eps = mesh.eps
        self.mass = fem.mass_matrix(mesh)
        self.lumped = fem.lumped_mass(mesh)
        stiff = fem.assemble_stiffness(mesh)
        self.eps_alpha = eps ** regime.alpha
        self.eps_beta = eps ** regime.beta
        self.drift_tensor = eps ** regime.gamma * np.eye(2)
        laplacian = None
        if regime.bc_type == NEUMANN:
            self.lu_laplacian = fem.ZeroMeanLU(stiff, self.lumped)
            laplacian = (stiff, self.lu_laplacian)
        else:
            scaled = self.eps_alpha * stiff
            self.gamma_nodes = np.unique(
                tagged_edges(mesh, {GAMMA_INTERIOR}))
            if not len(self.gamma_nodes):
                raise NoSolidPhase(
                    "a wall potential needs an interior boundary",
                    where="micro")
            wall_values = np.zeros(mesh.num_nodes)
            wall_values[self.gamma_nodes] = regime.phi_d
            self.wall_correction = np.asarray(
                scaled @ wall_values).ravel()
            self.lu_potential = fem.symmetric_lu(sp.csc_matrix(
                fem.apply_dirichlet(scaled, self.gamma_nodes)))
            del scaled
        self.stokes = fem.StokesOperator(mesh, viscosity=eps ** 2,
                                         laplacian=laplacian)
        self.transport = fem.TransportSolver(mesh, stiff, self.lumped, dt)

    def solve_potential(self, charge):
        rhs = np.asarray(self.mass @ charge).ravel()
        if self.regime.bc_type == NEUMANN:
            return solve_neumann_potential(
                self.lu_laplacian, self.lumped, rhs,
                "micro.solve_potential") / self.eps_alpha
        rhs = rhs - self.wall_correction
        rhs[self.gamma_nodes] = self.regime.phi_d
        return self.lu_potential.solve(rhs)

    def solve_flow(self, charge, phi, tol):
        """Elementwise means of the Stokes velocity, and the pressure,
        solved to tol on the Schur route."""
        charge_e = fem.element_means(self.mesh, charge)
        forcing = -self.eps_beta * charge_e[:, None] \
            * fem.p1_element_gradients(self.mesh, phi)
        velocity, pressure = self.stokes.solve(forcing, tol)
        return fem.p2_element_means(self.mesh, velocity), pressure

    def step_transport(self, c_plus, c_minus, velocity, phi, refill):
        return fem.step_reacting_pair(self.transport, velocity, phi,
                                      self.drift_tensor, c_plus, c_minus,
                                      refill=refill)


def run_micro(problem):
    """Advance the pore-scale system to t_end with macro.run_steps.

    Every step iterates the splitting sweep to a fixed point of the new
    concentrations, like the upscaled solver.  The field tolerance of
    run_steps reaches the Stokes solve, where only the Schur route reads
    it; the potential solves are direct.  The states hold the
    elementwise means of the P2 Stokes velocity.  Returns (states,
    diagnostics, profile) as macro.run_macro does, with the
    StokesOperator.profile of the run added to the profile.
    """
    started = time.perf_counter()
    problem.validate()
    ops = _Operators(problem.mesh, problem.regime, problem.dt)

    def update_fields(state, tol):
        charge = state.c_plus - state.c_minus
        state.phi = ops.solve_potential(charge)
        state.velocity, state.pressure = ops.solve_flow(charge, state.phi,
                                                        tol)

    def transport(state, c_plus, c_minus, refill):
        return ops.step_transport(c_plus, c_minus, state.velocity,
                                  state.phi, refill)

    states, diagnostics, counts = run_steps(problem, update_fields,
                                            transport, ops.lumped)
    profile = dict(run_s=time.perf_counter() - started,
                   peak_rss_mb=peak_rss_mb(), **counts,
                   **ops.transport.profile(), **ops.stokes.profile())
    log.info("micro run eps=%g finished: %d steps, profile %s",
             problem.mesh.eps, len(diagnostics) - 1, profile)
    return states, diagnostics, profile
