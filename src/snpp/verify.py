"""The invariant suite, its gate, and the scale-convergence harness.

check_run gates every run of either model, each task of a study
included, on run_invariant_suite before any of its output is written.
The convergence study runs as tasks (the upscaled model once on a fixed
coarse mesh, the pore-scale solver once per cell scale) in a pool of
forked worker processes, then compare_scales evaluates each record of
the table MEASURES on the final fields into an error table, and
study_verdict turns the table into flags.  The acceptance signal is
monotone decay of the column measures over the scale list; observed
orders are reported for information only.
"""

import logging
import math
import os
from collections import namedtuple
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from . import fem, macro, micro
from .cell import compute_effective_coefficients, corrector_node_values
from .errors import (
    GridMisaligned,
    InvariantViolation,
    NoSolidPhase,
    NonFiniteField,
    ValidationError,
)
from .macro import DIRICHLET, NEUMANN
from .mesh import (
    PerforatedDomain,
    UnitCellGeometry,
    generate_perforated_mesh,
    generate_unit_cell_mesh,
)

log = logging.getLogger(__name__)

DIAGNOSTIC_KEYS = ("t", "mass", "charge", "min_c", "max_c", "fp_iters")
STUDY_EPS = (0.5, 0.25, 0.125)
MASS_DRIFT_TOL = 1e-9
CONCENTRATION_TOL = 1e-6
ZERO_MEAN_TOL = 1e-8
DIVERGENCE_TOL = 1e-8
MONOTONE_FLOOR = 1e-10


@dataclass(frozen=True)
class InvariantCheck:
    """One named check with its measured value and tolerance."""

    name: str
    passed: bool
    value: float
    tolerance: float


def _weighted_mean_magnitude(mesh, values):
    weight = fem.lumped_mass(mesh)
    return abs(float(weight @ values)) / float(weight.sum())


def _divergence_residual(state):
    """Largest nodal flux residual of the elementwise velocity.

    For the pore-scale means of a P2 flow that vanishes on the boundary
    the residual is -B u of fem.weak_divergence up to rounding.
    """
    return float(np.max(np.abs(
        fem.assemble_gradient_load(state.mesh, state.velocity))))


def run_invariant_suite(final, diagnostics, regime, lam=1.0):
    """Evaluate the registered conservation and constraint checks.

    Works on the final state and the diagnostics of a run of either
    transient solver, with the regime and the concentration bound lam of
    its problem; the potential check runs on the Neumann branch only.
    Returns the list of InvariantCheck, failed ones included, and never
    raises on a failure; check_run turns the failures into one error.
    """
    checks = []
    mass0 = diagnostics[0]["mass"]
    drift = max(abs(row["mass"] - mass0) for row in diagnostics) \
        / max(abs(mass0), 1e-30)
    checks.append(InvariantCheck("mass_conservation", drift <= MASS_DRIFT_TOL,
                                 drift, MASS_DRIFT_TOL))
    lowest = min(row["min_c"] for row in diagnostics)
    checks.append(InvariantCheck("min_concentration",
                                 lowest >= -CONCENTRATION_TOL,
                                 lowest, CONCENTRATION_TOL))
    highest = max(row["max_c"] for row in diagnostics)
    checks.append(InvariantCheck("max_concentration",
                                 highest <= lam + CONCENTRATION_TOL,
                                 highest, CONCENTRATION_TOL))
    if regime.bc_type == NEUMANN:
        value = _weighted_mean_magnitude(final.mesh, final.phi)
        checks.append(InvariantCheck("potential_zero_mean",
                                     value <= ZERO_MEAN_TOL,
                                     value, ZERO_MEAN_TOL))
    value = _weighted_mean_magnitude(final.mesh, final.pressure)
    checks.append(InvariantCheck("pressure_zero_mean",
                                 value <= ZERO_MEAN_TOL,
                                 value, ZERO_MEAN_TOL))
    value = _divergence_residual(final)
    checks.append(InvariantCheck("velocity_divergence_free",
                                 value <= DIVERGENCE_TOL,
                                 value, DIVERGENCE_TOL))
    return checks


def check_run(task, problem, final, diagnostics):
    """Gate one run of problem, named task, on the invariant suite.

    Returns the checks as manifest records {name, passed, value,
    tolerance}; raises InvariantViolation, whose where is task and whose
    message names every failed check, when any check fails.
    """
    checks = run_invariant_suite(final, diagnostics, problem.regime,
                                 problem.lam)
    failures = [check for check in checks if not check.passed]
    if failures:
        raise InvariantViolation("; ".join(
            "%s: value %.3e, tolerance %.1e"
            % (check.name, check.value, check.tolerance)
            for check in failures), where=task)
    return [asdict(check) for check in checks]


@dataclass
class ConvergenceStudy:
    """Per-scale errors of the pore-scale runs against the upscaled model:
    errors is the table of compare_scales and orders its observed orders.
    profiles maps each task ("macro", then "eps=%g" per scale) to the
    profile its run returned, and invariants to its check_run records."""

    eps_list: list
    h_list: list
    coeffs: object
    errors: dict
    orders: dict
    flags: list
    monotone: bool
    macro_diagnostics: list = field(default=None, repr=False)
    micro_diagnostics: dict = field(default=None, repr=False)
    macro_final: object = field(default=None, repr=False)
    micro_finals: dict = field(default=None, repr=False)
    profiles: dict = field(default=None, repr=False)
    invariants: dict = field(default=None, repr=False)


def cell_average(mesh, values, eps, intrinsic=False):
    """Average elementwise values over the eps-cells of the unit square.

    values is (M,) or (M, k) on mesh; each triangle counts in the cell
    that holds its centroid.  Every cell integral is divided by the meshed
    area of the cell with intrinsic (concentration-like fields on a
    perforated mesh), else by eps^2.  The result is (n, n) or (n, n, k)
    with n = 1/eps and the row index running along y.
    """
    n = int(round(1.0 / eps))
    values = np.asarray(values, dtype=float)
    scalar = values.ndim == 1
    if scalar:
        values = values[:, None]
    areas, _ = fem.triangle_data(mesh)
    centroids = fem.element_means(mesh, mesh.nodes)
    ix = np.clip((centroids[:, 0] / eps).astype(int), 0, n - 1)
    iy = np.clip((centroids[:, 1] / eps).astype(int), 0, n - 1)
    ids = iy * n + ix
    out = np.stack(
        [np.bincount(ids, weights=areas * values[:, k], minlength=n * n)
         .reshape(n, n) for k in range(values.shape[1])], axis=-1)
    if intrinsic:
        out /= np.bincount(ids, weights=areas,
                           minlength=n * n).reshape(n, n, 1)
    else:
        out /= eps * eps
    return out[:, :, 0] if scalar else out


def corrector_enhanced_error(micro_mesh, micro_phi, macro_mesh, macro_phi,
                             scalar_solutions, alpha):
    """Unaveraged potential errors without and with the cell corrector.

    The pore-scale potential is rescaled by eps^alpha, compared against
    the upscaled potential interpolated to the pore mesh, and then
    against the first-order two-scale expansion that adds eps times the
    cell correctors contracted with the upscaled gradient.  eps is the
    scale that the tiled micro_mesh carries.
    """
    eps = micro_mesh.eps
    scaled = eps ** alpha * np.asarray(micro_phi, dtype=float)
    gradient = fem.recover_nodal_gradient(macro_mesh, macro_phi)
    tilde0, gx, gy = fem.p1_interpolate(
        macro_mesh, np.column_stack([macro_phi, gradient]),
        micro_mesh.nodes).T
    plain = fem.l2_norm(micro_mesh, scaled - tilde0)
    corrector = corrector_node_values(micro_mesh, scalar_solutions)
    first_order = corrector[:, 0] * gx + corrector[:, 1] * gy
    enhanced = fem.l2_norm(micro_mesh, scaled - tilde0 - eps * first_order)
    return plain, enhanced


@dataclass
class StudyScale:
    """What a measure reads at one scale eps of a study."""

    regime: object
    coeffs: object
    solutions: dict
    macro_final: object
    eps: float
    final: object

    def cell_error(self, micro_values, macro_values, intrinsic=False):
        """Relative l2 error of the eps-cell averages of two elementwise
        fields, the pore-scale one per meshed cell area with intrinsic;
        the absolute error where the macro averages vanish."""
        micro = cell_average(self.final.mesh, micro_values, self.eps,
                             intrinsic)
        upscaled = cell_average(self.macro_final.mesh, macro_values, self.eps)
        diff = float(np.sqrt(np.sum((micro - upscaled) ** 2)))
        ref = float(np.sqrt(np.sum(upscaled ** 2)))
        return diff / ref if ref > 1e-12 else diff

    def nodal_error(self, micro_f, macro_f, intrinsic=True):
        """cell_error of the element means of two nodal fields."""
        return self.cell_error(
            fem.element_means(self.final.mesh, micro_f),
            fem.element_means(self.macro_final.mesh, macro_f), intrinsic)

    @cached_property
    def corrector_errors(self):
        """corrector_enhanced_error at this scale, computed once."""
        return corrector_enhanced_error(
            self.final.mesh, self.final.phi, self.macro_final.mesh,
            self.macro_final.phi, self.solutions["scalar"], self.regime.alpha)


def _potential_error(s):
    """Neumann: the eps^alpha-scaled potential against the upscaled one,
    per fluid area.  Dirichlet: the eps^(alpha-2)-scaled distance to the
    wall potential against m (c+ - c-), per cell area."""
    if s.regime.bc_type == NEUMANN:
        return s.nodal_error(s.eps ** s.regime.alpha * s.final.phi,
                             s.macro_final.phi)
    return s.nodal_error(
        s.eps ** (s.regime.alpha - 2) * (s.final.phi - s.regime.phi_d),
        s.coeffs.dirichlet_mean
        * (s.macro_final.c_plus - s.macro_final.c_minus), intrinsic=False)


# A measure of the study, on the boundary conditions in branches, with
# error(scale), its error at one StudyScale.  A column is written to
# study.csv and the printout and must decay strictly.  not_above is
# (other, flag): an error above measure other's at one scale is flagged.
Measure = namedtuple("Measure", "name branches error column not_above",
                     defaults=(False, None))


MEASURES = (
    Measure("c_plus", (NEUMANN, DIRICHLET), lambda s: s.nodal_error(
        s.final.c_plus, s.macro_final.c_plus), column=True),
    Measure("c_minus", (NEUMANN, DIRICHLET), lambda s: s.nodal_error(
        s.final.c_minus, s.macro_final.c_minus), column=True),
    Measure("phi", (NEUMANN, DIRICHLET), _potential_error, column=True),
    Measure("v", (NEUMANN, DIRICHLET), lambda s: s.cell_error(
        s.final.velocity, s.macro_final.velocity), column=True),
    Measure("phi_plain", (NEUMANN,), lambda s: s.corrector_errors[0]),
    Measure("phi_corrected", (NEUMANN,), lambda s: s.corrector_errors[1],
            not_above=("phi_plain",
                       "corrector did not improve the potential error")),
)


def study_columns(errors):
    """The MEASURES columns that the table errors holds, in table order."""
    return [m.name for m in MEASURES if m.column and m.name in errors]


def compare_scales(regime, coeffs, solutions, macro_final, micro_finals):
    """The table {measure: one error per eps} of the MEASURES on the
    regime's branch; micro_finals maps each eps, in scale order, to its
    pore-scale final."""
    scales = [StudyScale(regime, coeffs, solutions, macro_final, eps, final)
              for eps, final in micro_finals.items()]
    return {m.name: [m.error(scale) for scale in scales] for m in MEASURES
            if regime.bc_type in m.branches}


def study_verdict(eps_list, errors):
    """Observed orders, flags and monotone verdict of an error table.

    Every measure of the table gets an order between each pair of
    neighbouring scales: log(e_prev / e_next) / log(eps_prev / eps_next),
    the exponent p of errors that fall like eps^p.  A column that does
    not strictly decrease is flagged and clears monotone, unless it lies
    wholly below MONOTONE_FLOOR; a not_above bound is a flag only.  A
    non-finite error raises NonFiniteField.
    """
    for name, values in errors.items():
        if not np.all(np.isfinite(values)):
            raise NonFiniteField(
                "study errors of %s are not finite: %s" % (name, values),
                where="verify.study_verdict")
    orders = {name: [math.nan] + [
        math.log2(a / b) / math.log2(eps_a / eps_b)
        if b > 0 and a > 0 else math.nan
        for a, b, eps_a, eps_b in zip(values, values[1:], eps_list,
                                      eps_list[1:])]
        for name, values in errors.items()}
    flags = ["%s errors are not monotone: %s"
             % (name, ["%.3e" % v for v in errors[name]])
             for name in study_columns(errors)
             if max(errors[name]) >= MONOTONE_FLOOR
             and any(b >= a for a, b in zip(errors[name], errors[name][1:]))]
    monotone = not flags
    for m in MEASURES:
        if m.not_above and m.name in errors:
            other, what = m.not_above
            flags += ["%s at eps=%g (%.3e > %.3e)" % (what, eps, value, bound)
                      for eps, bound, value in zip(eps_list, errors[other],
                                                   errors[m.name])
                      if value > bound * (1 + 1e-9) + 1e-14]
    return orders, flags, monotone


# The (name, run, problem) tasks of a study, set in each forked worker by
# _adopt_tasks when the pool starts it; the parent never changes it.
_tasks = ()


def _adopt_tasks(tasks):
    global _tasks
    _tasks = tasks


def _run_task(index):
    """Run task index in a worker and gate it by check_run; return the
    index, the final state without its mesh (the parent holds it), the
    diagnostics, the profile and the checks."""
    name, run, problem = _tasks[index]
    states, diagnostics, profile = run(problem)
    checks = check_run(name, problem, states[-1], diagnostics)
    return index, replace(states[-1], mesh=None), diagnostics, profile, checks


def check_scales(eps_list, field="eps_list", where=None):
    """Raise ValidationError, naming field and where, unless the scales
    are at least one, strictly decrease and each lies in STUDY_EPS."""
    if not eps_list:
        raise ValidationError("scale list is empty", field=field,
                              where=where)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValidationError("scale list must be strictly decreasing",
                              field=field, where=where)
    for eps in eps_list:
        if not any(abs(eps - allowed) < 1e-12 for allowed in STUDY_EPS):
            supported = ", ".join("1/%d" % round(1 / e) for e in STUDY_EPS)
            raise ValidationError("scale %g is outside the supported set {%s}"
                                  % (eps, supported), field=field, where=where)


def run_convergence_study(regime, geometry, c_plus, c_minus,
                          eps_list=STUDY_EPS, t_end=0.1, dt=2e-3,
                          macro_h=1 / 64, lam=1.0):
    """Compare pore-scale runs against the upscaled model over a scale list.

    c_plus and c_minus are callables f(x, y) providing the shared initial
    data; on the Neumann branch each run neutralizes its own discrete
    charge.  Pore meshes use h = eps/8, so every scale shares one cell
    mesh, and the effective coefficients are computed on exactly that
    mesh.  The checks (a geometry without an inclusion raises
    NoSolidPhase), the meshes, the coefficients and the initial data
    are made here; then the macro run and one pore-scale run per scale
    go to a pool of min(tasks, usable CPUs) workers forked from this
    process, longest first: the finest scale, the macro run, then the
    coarser scales from the finest down.  Forked workers inherit those
    inputs, so neither the meshes nor the initial data callables, which
    may be local functions, are pickled; the pool forks them before it
    starts its own threads.  Each worker gates its run by check_run and
    returns only its final fields, diagnostics, profile and checks.  The
    first run to raise, an InvariantViolation included, ends the pool
    and the study with its error.  Non-monotone error decay is flagged on
    the returned study, not raised.
    """
    import multiprocessing

    model = macro.classify_regime(regime)
    eps_list = [float(e) for e in eps_list]
    check_scales(eps_list)
    if geometry.inclusion is None:
        raise NoSolidPhase("a convergence study needs a cell with a solid "
                           "inclusion", where="verify.run_convergence_study")
    for eps in eps_list:
        ratio = eps / macro_h
        if abs(round(ratio) - ratio) > 1e-9 or round(ratio) < 1:
            raise GridMisaligned(
                "macro mesh size %g does not subdivide eps=%g"
                % (macro_h, eps), where="verify.run_convergence_study")
    domains = [PerforatedDomain(eps, geometry) for eps in eps_list]
    meshes = [generate_perforated_mesh(dom, dom.eps / 8.0)
              for dom in domains]
    coeffs, solutions = compute_effective_coefficients(
        geometry, mesh=meshes[0].cell_mesh)

    def task(name, run, problem_type, mesh, *lead):
        cp, cm = macro.initial_concentrations(mesh, c_plus, c_minus, regime)
        return name, run, problem_type(*lead, regime, cp, cm, t_end=t_end,
                                       dt=dt, lam=lam, snapshot_stride=0)

    macro_mesh = generate_unit_cell_mesh(UnitCellGeometry(None, macro_h))
    tasks = [task("macro", macro.run_macro, macro.MacroProblem, macro_mesh,
                  macro_mesh, coeffs)]
    tasks += [task("eps=%g" % dom.eps, micro.run_micro, micro.MicroProblem,
                   mesh, dom, mesh) for dom, mesh in zip(domains, meshes)]
    workers = min(len(tasks), len(os.sched_getaffinity(0)))
    # The finest scale, the macro run, then the coarser scales.
    order = [len(tasks) - 1, 0, *range(len(tasks) - 2, 0, -1)]
    with multiprocessing.get_context("fork").Pool(
            workers, _adopt_tasks, (tasks,)) as pool:
        results = sorted(pool.imap_unordered(_run_task, order),
                         key=lambda r: r[0])
    _, finals, diagnostics, profiles, checks = zip(*results)
    finals = [replace(final, mesh=problem.mesh)
              for final, (_, _, problem) in zip(finals, tasks)]
    names = [name for name, _, _ in tasks]
    micro_finals = dict(zip(eps_list, finals[1:]))

    errors = compare_scales(regime, coeffs, solutions, finals[0],
                            micro_finals)
    orders, flags, monotone = study_verdict(eps_list, errors)
    for flag in flags:
        log.warning("convergence study: %s", flag)
    log.info("convergence study finished (model %s): monotone=%s",
             model, monotone)
    return ConvergenceStudy(
        eps_list=eps_list, h_list=[eps / 8.0 for eps in eps_list],
        coeffs=coeffs, errors=errors, orders=orders, flags=flags,
        monotone=monotone, macro_diagnostics=diagnostics[0],
        micro_diagnostics=dict(zip(eps_list, diagnostics[1:])),
        macro_final=finals[0], micro_finals=micro_finals,
        profiles=dict(zip(names, profiles)),
        invariants=dict(zip(names, checks)))
