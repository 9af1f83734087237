"""Regime classification and the upscaled macroscopic solver.

The scaling exponents (alpha, beta, gamma) and the electrostatic boundary
condition select one limit model: an elliptic potential equation or an
algebraic local closure, a Darcy law with or without electrostatic
forcing, and a transport equation with or without a drift term.  The
transient solver sweeps potential, velocity, and transport in a
Gauss-Seidel fashion with an inner fixed-point iteration per time step.
"""

import logging
import resource
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import fem
from .errors import (
    FixedPointDivergence,
    InadmissibleScaling,
    IncompatibleSource,
    NegativeConcentration,
    NoSolidPhase,
    NonFiniteField,
    ValidationError,
)

log = logging.getLogger(__name__)

NEUMANN = "neumann"
DIRICHLET = "dirichlet"
POTENTIAL_ELLIPTIC = "EllipticPoisson"
POTENTIAL_ALGEBRAIC = "AlgebraicLocal"
FORCING_ELECTRO = "WithElectrostatic"
FORCING_PLAIN = "Plain"
DRIFT_ON = "WithDrift"
DRIFT_OFF = "None"

FIXED_POINT_TOL = 1e-8
FIXED_POINT_MAX_ITER = 25
# The tolerance of the iterative field solves of sweep k >= 2 of a step,
# FIELD_TOL_FACTOR times the relative gap of sweep k - 1 clamped to
# [fem.DEFAULT_TOL, FIELD_TOL_CAP] (the Eisenstat-Walker forcing term,
# SIAM J. Sci. Comput. 17, 1996): a field that the next sweep replaces
# needs no more digits than the step has settled.  On the eps=1/16 pore
# run of 50 steps (h=1/128, dt=2e-3, Schur-route Stokes, 110 sweeps and
# 1977 Schur-CG iterations at full tolerance), factors 1, 0.3, 0.1, 0.03
# and 0.01 took 451, 513, 605, 713 and 803 iterations, all with the same
# sweeps per step, and moved min_c and max_c by at most 1.7e-9, 1.3e-9,
# 7.1e-10, 2.2e-10 and 1.9e-10: 0.1 keeps that drift a tenth of
# FIXED_POINT_TOL.
FIELD_TOL_FACTOR = 0.1
# On the same run with the factor at 0.1, caps 1e-1 and 1e-2 ended one
# step a sweep earlier (109 sweeps) and drifted by 8.9e-9, near
# FIXED_POINT_TOL itself; 1e-3 kept every step's sweeps (605
# iterations), and 1e-4 took 647.
FIELD_TOL_CAP = 1e-3
COMPATIBILITY_TOL = 1e-8


@dataclass(frozen=True)
class ScalingRegime:
    """Exponent triple and electrostatic boundary condition.

    bc_type is "neumann" (no-flux potential) or "dirichlet" (wall
    potential phi_d).
    """

    bc_type: str
    alpha: float
    beta: float
    gamma: float
    phi_d: float = 0.0


@dataclass(frozen=True)
class MacroModelClass:
    """Structure of the limit model for one scaling regime."""

    potential_model: str
    darcy_forcing: str
    np_drift: str


@dataclass
class MacroState:
    """Fields of a run at either scale at one time."""

    mesh: object
    t: float
    c_plus: np.ndarray
    c_minus: np.ndarray
    phi: np.ndarray
    pressure: np.ndarray
    velocity: np.ndarray


@dataclass
class MacroProblem:
    """Complete description of one macroscopic run."""

    mesh: object
    coeffs: object
    regime: ScalingRegime
    c_plus: np.ndarray
    c_minus: np.ndarray
    t_end: float
    dt: float
    lam: float = 1.0
    snapshot_stride: int = 1


def classify_regime(regime):
    """Map a scaling regime onto the structure of its limit model.

    Raises InadmissibleScaling outside the ranges where the limit model
    exists (the a priori estimates fail there).
    """
    if regime.bc_type not in (NEUMANN, DIRICHLET):
        raise ValidationError("bc_type must be %r or %r"
                              % (NEUMANN, DIRICHLET), field="bc_type")
    a, b, g = regime.alpha, regime.beta, regime.gamma
    if regime.bc_type == NEUMANN:
        if b - a < 0 or g - a < 0:
            raise InadmissibleScaling(
                "Neumann regime needs beta >= alpha and gamma >= alpha; "
                "got alpha=%g beta=%g gamma=%g" % (a, b, g),
                where="macro.classify_regime")
        return MacroModelClass(
            potential_model=POTENTIAL_ELLIPTIC,
            darcy_forcing=FORCING_ELECTRO if b == a else FORCING_PLAIN,
            np_drift=DRIFT_ON if g == a else DRIFT_OFF)
    if b - a + 1 < 0 or g - a + 1 < 0:
        raise InadmissibleScaling(
            "Dirichlet regime needs beta >= alpha - 1 and gamma >= "
            "alpha - 1; got alpha=%g beta=%g gamma=%g" % (a, b, g),
            where="macro.classify_regime")
    return MacroModelClass(
        potential_model=POTENTIAL_ALGEBRAIC,
        darcy_forcing=FORCING_PLAIN,
        np_drift=DRIFT_OFF)


def check_problem(problem):
    """Check the input of a run at either scale; return its limit model.

    Raises what classify_regime raises, and ValidationError unless both
    species are nodal arrays on problem.mesh within [0, problem.lam] and
    problem.dt and problem.t_end are positive.
    """
    model = classify_regime(problem.regime)
    for name in ("c_plus", "c_minus"):
        values = np.asarray(getattr(problem, name))
        if values.shape != (problem.mesh.num_nodes,):
            raise ValidationError("%s does not match the mesh" % name,
                                  field=name)
        if np.min(values) < 0 or np.max(values) > problem.lam:
            raise ValidationError("%s outside [0, %g] nodewise"
                                  % (name, problem.lam), field=name)
    if not (problem.dt > 0 and problem.t_end > 0):
        raise ValidationError("dt and t_end must be positive")
    return model


class _Operators:
    """Assembled matrices and factorizations reused across time steps.

    dt, when given, adds the run's fem.TransportSolver of step dt.
    """

    def __init__(self, mesh, coeffs, dt=None):
        self.mass = fem.mass_matrix(mesh)
        self.lumped = fem.lumped_mass(mesh)
        self.stiff_d = fem.assemble_stiffness(mesh, coeffs.diffusion)
        self.lu_potential = fem.ZeroMeanLU(self.stiff_d, self.lumped)
        if coeffs.permeability is not None:
            self.lu_darcy = fem.ZeroMeanLU(
                fem.assemble_stiffness(mesh, coeffs.permeability),
                self.lumped)
        else:
            self.lu_darcy = None
        if dt is not None:
            self.transport = fem.TransportSolver(
                mesh, self.stiff_d, coeffs.porosity * self.lumped,
                dt)


def solve_macro_poisson(state, coeffs, ops):
    """Zero-mean potential driven by the net charge.

    Solves -div(D grad phi) = porosity (c+ - c-) with the natural no-flux
    condition; raises IncompatibleSource when the net charge fails the
    solvability condition beyond tolerance.  ops is the _Operators of the
    run.
    """
    charge = state.c_plus - state.c_minus
    source = coeffs.porosity * charge
    rhs = np.asarray(ops.mass @ source).ravel()
    return solve_neumann_potential(ops.lu_potential, ops.lumped, rhs,
                                   "macro.solve_macro_poisson")


def solve_neumann_potential(lu, weight, rhs, where):
    """Solve the ZeroMeanLU lu for the pure-Neumann load rhs.

    Raises IncompatibleSource at where when rhs, the load of the net
    charge, sums to more than COMPATIBILITY_TOL times its absolute sum (at
    least 1); the residual sum is projected out along the constraint
    weight before solving.
    """
    scale = max(1.0, float(np.abs(rhs).sum()))
    residual = float(rhs.sum())
    if abs(residual) > COMPATIBILITY_TOL * scale:
        raise IncompatibleSource(
            "potential source integrates to %g; the net charge does not "
            "integrate to zero" % residual, where=where)
    rhs = rhs - residual / weight.sum() * weight
    return lu.solve(rhs)


def eval_macro_potential_dirichlet(state, coeffs, regime):
    """Algebraic local closure of the averaged potential.

    The average is dirichlet_mean times the local net charge, shifted by
    porosity times the wall potential in the boundary-dominated case
    alpha = 2.
    """
    charge = state.c_plus - state.c_minus
    phi = coeffs.dirichlet_mean * charge
    if regime.alpha == 2:
        phi = phi + coeffs.porosity * regime.phi_d
    return phi


def solve_macro_darcy(state, coeffs, model, ops, forcing=None):
    """Pressure and seepage velocity for the current potential/charge.

    The pressure solves div(K(grad p + f)) = 0 with f the electrostatic
    forcing (or zero), no-flux, zero mean; the velocity is the elementwise
    flux -K(grad p + f), which satisfies the discrete divergence-free
    property by construction.  A prescribed elementwise forcing replaces
    the electrostatic term when given.  ops is the _Operators of the run.
    """
    mesh = state.mesh
    if coeffs.permeability is None:
        return np.zeros(mesh.num_nodes), np.zeros((mesh.num_triangles, 2))
    if forcing is not None:
        forcing = np.asarray(forcing, dtype=float)
    elif model.darcy_forcing == FORCING_ELECTRO:
        charge_e = fem.element_means(mesh, state.c_plus - state.c_minus)
        forcing = charge_e[:, None] * fem.p1_element_gradients(
            mesh, state.phi)
    else:
        forcing = np.zeros((mesh.num_triangles, 2))
    rhs = -fem.assemble_gradient_load(
        mesh, forcing @ np.asarray(coeffs.permeability).T)
    imbalance = abs(float(rhs.sum()))
    if imbalance > 1e-10 * max(1.0, float(np.abs(rhs).sum())):
        raise IncompatibleSource(
            "divergence-form flow source integrates to %g" % imbalance,
            where="macro.solve_macro_darcy")
    pressure = ops.lu_darcy.solve(rhs)
    velocity = -(fem.p1_element_gradients(mesh, pressure) + forcing) \
        @ np.asarray(coeffs.permeability).T
    return pressure, velocity


def make_neutral(mesh, c_plus, c_minus):
    """Shift both species so the discrete net charge vanishes exactly.

    Half the charge excess is moved from one species to the other, which
    keeps the total content and makes the zero charge an exact discrete
    invariant of the reacting step.
    """
    weight = fem.lumped_mass(mesh)
    excess = float(weight @ (c_plus - c_minus)) / weight.sum()
    log.debug("neutralizing initial charge excess %.3e", excess)
    return c_plus - excess / 2.0, c_minus + excess / 2.0


def initial_concentrations(mesh, c_plus, c_minus, regime):
    """Callables f(x, y) at the mesh nodes, passed through make_neutral on
    the Neumann branch so the discrete net charge starts at zero."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    cp = np.asarray(c_plus(x, y), dtype=float)
    cm = np.asarray(c_minus(x, y), dtype=float)
    if regime.bc_type == NEUMANN:
        cp, cm = make_neutral(mesh, cp, cm)
    return cp, cm


def run_steps(problem, update_fields, transport, lumped, content_scale=1.0,
              iterate=True):
    """Advance problem to problem.t_end by the splitting shared by both scales.

    The run starts from one MacroState at t = 0 on problem.mesh with
    copies of problem.c_plus and problem.c_minus; its phi, pressure and
    velocity start as None.  update_fields(state, tol) sets the nodal
    potential and pressure and the elementwise (M, 2) velocity from the
    concentrations in state, its iterative solves stopped at the
    relative residual tol; transport(state, c_plus, c_minus, refill)
    returns the concentrations one implicit step after (c_plus, c_minus)
    under the fields in state, where refill is False when those fields
    are the ones its last call read, so an operator built from them can
    be reused.  With iterate, each step repeats fields then transport
    until the new concentrations settle, raising FixedPointDivergence
    after FIXED_POINT_MAX_ITER sweeps; without it, each step is one
    sweep.  A step settles at sweep k >= 2 when the estimated distance
    to its fixed point, g_k min(1, q / (1 - q)), is at most
    FIXED_POINT_TOL times the largest concentration (at least 1), where
    g_k is the largest change of a concentration in sweep k (g_1 against
    the step's starting concentrations) and q is the largest ratio
    g_k / g_(k-1) seen so far in the run; for q >= 1/2 this is the gap
    itself.  A transport result raises NonFiniteField when it is not
    finite, and warns NegativeConcentration when it dips below -1e-8.

    The first sweep of a step reads the fields in state as they are.
    The fields are computed from the final concentrations of a step only
    when the step is kept as a snapshot, or without iterate, where the
    next step's one sweep reads them.  Otherwise the next step starts
    from the fields of its predecessor's last sweep: a step's fixed
    point and stop test depend only on its starting concentrations, and
    the fields its first sweep reads only start the iteration.

    Every field that a snapshot holds or that a run without iterate
    reads is solved at tol = fem.DEFAULT_TOL, as are the initial fields.
    The fields of sweep k >= 2 are read by that sweep alone, and are
    solved at tol = FIELD_TOL_FACTOR g_(k-1) / scale_(k-1), clamped to
    [fem.DEFAULT_TOL, FIELD_TOL_CAP], where scale is the stop test's
    (the Eisenstat-Walker rule for inexact inner solves).  The steps
    keep their sweeps, and the concentrations move by far less than the
    stop test's tolerance: on the eps=1/16 pore run of 50 steps, by at
    most 7e-10 in min_c and max_c.  Returns
    (states, diagnostics, counts): the snapshots every
    problem.snapshot_stride steps plus the first and the last, each with
    the fields of its own concentrations; one dict per step with keys t,
    mass, charge, min_c, max_c, fp_iters, where mass and charge are
    content_scale times the lumped integrals of c+ + c- and c+ - c-; and
    the sweeps (the sum of fp_iters) and the update_fields calls
    (field_updates) of the run, by name.
    """
    state = MacroState(
        problem.mesh, 0.0, np.asarray(problem.c_plus, dtype=float).copy(),
        np.asarray(problem.c_minus, dtype=float).copy(), None, None, None)
    update_fields(state, fem.DEFAULT_TOL)
    field_updates = 1

    def diag_row(fp_iters):
        total = content_scale * float(
            lumped @ (state.c_plus + state.c_minus))
        charge = content_scale * float(
            lumped @ (state.c_plus - state.c_minus))
        return {
            "t": state.t,
            "mass": total,
            "charge": charge,
            "min_c": min(float(np.min(state.c_plus)),
                         float(np.min(state.c_minus))),
            "max_c": max(float(np.max(state.c_plus)),
                         float(np.max(state.c_minus))),
            "fp_iters": fp_iters,
        }

    def snapshot():
        return replace(state, c_plus=state.c_plus.copy(),
                       c_minus=state.c_minus.copy(), phi=state.phi.copy(),
                       pressure=state.pressure.copy(),
                       velocity=state.velocity.copy())

    states = [snapshot()]
    diagnostics = [diag_row(0)]
    num_steps = int(round(problem.t_end / problem.dt))
    if abs(num_steps * problem.dt - problem.t_end) > 1e-9 * problem.t_end:
        num_steps = int(np.ceil(problem.t_end / problem.dt - 1e-12))

    # Largest ratio of successive sweep gaps seen in the run: the measured
    # contraction of the sweep map.
    contraction = 0.0
    # Whether the fields in state are those of the step's starting
    # concentrations, not those its predecessor's last sweep read.
    refreshed = True
    for step in range(1, num_steps + 1):
        c_plus_old = state.c_plus
        c_minus_old = state.c_minus
        previous = (c_plus_old, c_minus_old)
        previous_gap = None
        iterations = 0
        while True:
            iterations += 1
            if iterations > 1:
                update_fields(state, field_tol)
                field_updates += 1
            candidate = transport(state, c_plus_old, c_minus_old,
                                  refreshed or iterations > 1)
            if not (np.all(np.isfinite(candidate[0]))
                    and np.all(np.isfinite(candidate[1]))):
                raise NonFiniteField(
                    "transport step produced a non-finite concentration "
                    "at t=%g" % (state.t + problem.dt),
                    where="macro.run_steps")
            low = min(float(np.min(candidate[0])),
                      float(np.min(candidate[1])))
            if low < -1e-8:
                warnings.warn(NegativeConcentration(
                    "concentration dipped to %g; the time step is too large "
                    "for this mesh" % low))
            if not iterate:
                break
            gap = max(float(np.max(np.abs(candidate[0] - previous[0]))),
                      float(np.max(np.abs(candidate[1] - previous[1]))))
            scale = max(1.0, float(np.max(np.abs(candidate[0]))),
                        float(np.max(np.abs(candidate[1]))))
            if previous_gap is not None:
                if previous_gap > 0:
                    contraction = max(contraction, gap / previous_gap)
                elif gap > 0:
                    contraction = np.inf
                # A contraction q bounds the distance to the fixed point
                # by q / (1 - q) times the gap; from q = 1/2 up that is
                # no tighter than the gap itself.
                if contraction < 0.5:
                    error = gap * contraction / (1.0 - contraction)
                else:
                    error = gap
                if error <= FIXED_POINT_TOL * scale:
                    break
            previous_gap = gap
            field_tol = min(max(FIELD_TOL_FACTOR * gap / scale,
                                fem.DEFAULT_TOL), FIELD_TOL_CAP)
            if iterations >= FIXED_POINT_MAX_ITER:
                raise FixedPointDivergence(
                    "inner iteration did not settle within %d sweeps at "
                    "t=%g" % (FIXED_POINT_MAX_ITER, state.t),
                    where="macro.run_steps")
            previous = candidate
            state.c_plus, state.c_minus = candidate
        state.c_plus, state.c_minus = candidate
        state.t = step * problem.dt
        kept = step == num_steps or (problem.snapshot_stride
                                     and step % problem.snapshot_stride == 0)
        refreshed = kept or not iterate
        if refreshed:
            update_fields(state, fem.DEFAULT_TOL)
            field_updates += 1
        diagnostics.append(diag_row(iterations))
        if kept:
            states.append(snapshot())
    counts = {"sweeps": sum(row["fp_iters"] for row in diagnostics),
              "field_updates": field_updates}
    return states, diagnostics, counts


def peak_rss_mb():
    """The peak resident memory of this process so far, in MB (Linux
    reports ru_maxrss in kB).  A forked process starts from its resident
    size at the fork, the pages it shares with its parent, not from its
    parent's peak.  The figure never falls, so in a pool worker that
    runs several tasks it is the peak of the worker up to now, which
    includes its earlier tasks, not the peak of the current task
    alone."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_macro(problem):
    """Advance the macroscopic system to t_end with run_steps.

    After check_problem, coefficients without a dirichlet_mean (a cell
    without an inclusion) raise NoSolidPhase on the algebraic potential
    branch.  Per step the potential, the velocity, and the transport
    (fem.step_reacting_pair) are updated in sequence; when the regime
    couples them (electrostatic forcing or drift), the sweep is iterated
    to a fixed point of the new concentrations.  Every field solve is
    direct, so the field tolerance of run_steps changes nothing here.
    Returns (states, diagnostics, profile) where diagnostics is one dict
    per step with keys t, mass, charge, min_c, max_c, fp_iters (mass and
    charge are porosity-weighted) and profile holds the wall seconds of
    the call (run_s), the peak resident memory of the process at its end
    (peak_rss_mb), the sweeps (the sum of fp_iters) and field updates
    (potential and Darcy solves) of run_steps and the
    TransportSolver.profile of the run.
    """
    started = time.perf_counter()
    model = check_problem(problem)
    coeffs = problem.coeffs
    if model.potential_model == POTENTIAL_ALGEBRAIC \
            and coeffs.dirichlet_mean is None:
        raise NoSolidPhase("the algebraic potential closure needs a cell "
                           "with a solid inclusion", where="macro.run_macro")
    ops = _Operators(problem.mesh, coeffs, problem.dt)
    coupled = (model.darcy_forcing == FORCING_ELECTRO
               or model.np_drift == DRIFT_ON)

    def update_fields(state, tol):
        if model.potential_model == POTENTIAL_ELLIPTIC:
            state.phi = solve_macro_poisson(state, coeffs, ops)
        else:
            state.phi = eval_macro_potential_dirichlet(
                state, coeffs, problem.regime)
        state.pressure, state.velocity = solve_macro_darcy(
            state, coeffs, model, ops)

    def transport(state, c_plus, c_minus, refill):
        drift = state.phi if model.np_drift == DRIFT_ON else None
        return fem.step_reacting_pair(ops.transport, state.velocity, drift,
                                      coeffs.diffusion, c_plus, c_minus,
                                      refill=refill)

    states, diagnostics, counts = run_steps(
        problem, update_fields, transport, ops.lumped,
        content_scale=coeffs.porosity, iterate=coupled)
    profile = dict(run_s=time.perf_counter() - started,
                   peak_rss_mb=peak_rss_mb(), **counts,
                   **ops.transport.profile())
    log.info("macro run finished: %d steps, final charge %.3e, profile %s",
             len(diagnostics) - 1, diagnostics[-1]["charge"], profile)
    return states, diagnostics, profile
