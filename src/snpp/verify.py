"""Invariant suites and the scale-convergence harness.

The convergence study runs the pore-scale solver on a sequence of cell
scales, averages its fields per cell, and compares against the upscaled
model computed once on a fixed coarse mesh.  The acceptance signal is
monotone error decay over the scale list; observed orders are reported
for information only.
"""

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import fem, macro, micro
from .cell import compute_effective_coefficients, corrector_node_values
from .errors import (
    GridMisaligned,
    MalformedDiagnostics,
    ValidationError,
)
from .macro import NEUMANN
from .mesh import (
    PerforatedDomain,
    UnitCellGeometry,
    generate_perforated_mesh,
    generate_unit_cell_mesh,
)

log = logging.getLogger(__name__)

DIAGNOSTIC_KEYS = ("t", "mass", "charge", "min_c", "max_c", "fp_iters")
STUDY_EPS = (0.5, 0.25, 0.125)
STUDY_FIELDS = ("c_plus", "c_minus", "phi", "v")
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


@dataclass
class InvariantReport:
    """Outcome of the full registered check list for one run."""

    checks: list

    @property
    def passed(self):
        return all(check.passed for check in self.checks)

    def failures(self):
        return [check for check in self.checks if not check.passed]


def _weighted_mean_magnitude(mesh, values):
    mass = fem.assemble_mass(mesh)
    weight = np.asarray(mass @ np.ones(mesh.num_nodes)).ravel()
    return abs(float(weight @ values)) / weight.sum()


def _divergence_residual(state):
    """Largest nodal flux residual of the elementwise velocity.

    For the pore-scale means of a P2 flow that vanishes on the boundary
    the residual is -B u of fem.weak_divergence up to rounding.
    """
    mesh = state.mesh
    areas, grads = fem.triangle_data(mesh)
    residual = np.zeros(mesh.num_nodes)
    contrib = np.einsum("md,mid->mi", state.velocity, grads) \
        * areas[:, None]
    np.add.at(residual, mesh.triangles.ravel(), contrib.ravel())
    return float(np.max(np.abs(residual)))


def run_invariant_suite(states, diagnostics, regime=None, lam=1.0):
    """Evaluate the registered conservation and constraint checks.

    Works on the (states, diagnostics) pair returned by either transient
    solver.  With states=None only the scalar time series is checked,
    which covers diagnostics reloaded from a file; the zero-mean and
    divergence checks need the final state, and the potential check also
    needs the regime.  Failures become report entries, never exceptions;
    malformed input raises MalformedDiagnostics.
    """
    if not diagnostics:
        raise MalformedDiagnostics("diagnostics are empty")
    for row in diagnostics:
        if not all(key in row for key in DIAGNOSTIC_KEYS):
            raise MalformedDiagnostics(
                "diagnostic row lacks keys %s" % (sorted(
                    set(DIAGNOSTIC_KEYS) - set(row)),))
        if not all(np.isfinite(row[key]) for key in DIAGNOSTIC_KEYS):
            raise MalformedDiagnostics("diagnostic row holds a non-finite "
                                       "value at t=%r" % (row.get("t"),))
    if states is not None and not states:
        raise MalformedDiagnostics("no states recorded")

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
    if states:
        final = states[-1]
        if regime is not None and regime.bc_type == NEUMANN:
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
    report = InvariantReport(checks)
    for check in report.failures():
        log.warning("invariant %s failed: %.3e (tolerance %.1e)",
                    check.name, check.value, check.tolerance)
    return report


@dataclass
class ConvergenceStudy:
    """Per-scale errors of the pore-scale runs against the upscaled model."""

    regime: object
    geometry: object
    eps_list: list
    h_list: list
    macro_h: float
    t_end: float
    dt: float
    coeffs: object
    errors: dict
    orders: dict
    corrector_plain: list
    corrector_enhanced: list
    flags: list
    monotone: bool
    macro_diagnostics: list = field(default=None, repr=False)
    micro_diagnostics: dict = field(default=None, repr=False)
    macro_final: object = field(default=None, repr=False)
    micro_finals: dict = field(default=None, repr=False)

    def validate(self):
        eps = list(self.eps_list)
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValidationError("scale list must be strictly decreasing",
                                  field="eps_list")
        for name, values in self.errors.items():
            if not np.all(np.isfinite(values)):
                raise ValidationError("%s errors are not finite" % name,
                                      field=name)


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
    centroids = mesh.nodes[mesh.triangles].mean(axis=1)
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


def _relative_grid_error(micro_grid, macro_grid):
    diff = float(np.sqrt(np.sum((micro_grid - macro_grid) ** 2)))
    ref = float(np.sqrt(np.sum(macro_grid ** 2)))
    return diff / ref if ref > 1e-12 else diff


def corrector_enhanced_error(micro_mesh, micro_phi, macro_mesh, macro_phi,
                             scalar_solutions, eps, alpha):
    """Unaveraged potential errors without and with the cell corrector.

    The pore-scale potential is rescaled by eps^alpha, compared against
    the upscaled potential interpolated to the pore mesh, and then
    against the first-order two-scale expansion that adds eps times the
    cell correctors contracted with the upscaled gradient.
    """
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


def run_convergence_study(regime, geometry, c_plus, c_minus,
                          eps_list=STUDY_EPS, t_end=0.1, dt=2e-3,
                          macro_h=1 / 64, lam=1.0, workers=None):
    """Compare pore-scale runs against the upscaled model over a scale list.

    c_plus and c_minus are callables f(x, y) providing the shared initial
    data; on the Neumann branch each run neutralizes its own discrete
    charge.  Pore meshes use h = eps/8, so every scale shares one cell
    mesh, and the effective coefficients are computed on exactly that
    mesh.  Non-monotone error decay is flagged on the returned study, not
    raised.
    """
    model = macro.classify_regime(regime)
    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValidationError("scale list must be strictly decreasing",
                              field="eps_list")
    for eps in eps_list:
        if not any(abs(eps - allowed) < 1e-12 for allowed in STUDY_EPS):
            raise ValidationError("scale %g is outside the supported set "
                                  "{1/2, 1/4, 1/8}" % eps, field="eps_list")
        ratio = eps / macro_h
        if abs(round(ratio) - ratio) > 1e-9 or round(ratio) < 1:
            raise GridMisaligned(
                "macro mesh size %g does not subdivide eps=%g"
                % (macro_h, eps), where="verify.run_convergence_study")
    h_list = [eps / 8.0 for eps in eps_list]

    meshes = {eps: generate_perforated_mesh(
        PerforatedDomain(eps, geometry), eps / 8.0) for eps in eps_list}
    cell_mesh = meshes[eps_list[0]].cell_mesh
    coeffs, solutions = compute_effective_coefficients(
        geometry, sigma=regime.sigma, mesh=cell_mesh)
    neumann = regime.bc_type == NEUMANN

    macro_mesh = generate_unit_cell_mesh(UnitCellGeometry(None, macro_h))
    macro_cp, macro_cm = macro.initial_concentrations(
        macro_mesh, c_plus, c_minus, regime)
    problem = macro.MacroProblem(macro_mesh, coeffs, regime, macro_cp,
                                 macro_cm, t_end=t_end, dt=dt, lam=lam,
                                 snapshot_stride=0)
    macro_states, macro_diag = macro.run_macro(problem)
    macro_final = macro_states[-1]

    def one_scale(eps):
        mesh = meshes[eps]
        cp, cm = macro.initial_concentrations(mesh, c_plus, c_minus, regime)
        prob = micro.MicroProblem(
            PerforatedDomain(eps, geometry), mesh, regime, cp, cm,
            t_end=t_end, dt=dt, lam=lam, snapshot_stride=0)
        states, diagnostics = micro.run_micro(prob)
        return states[-1], diagnostics

    if workers is None:
        workers = len(eps_list)
    if workers > 1 and len(eps_list) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one_scale, eps_list))
    else:
        results = [one_scale(eps) for eps in eps_list]
    micro_finals = {eps: res[0] for eps, res in zip(eps_list, results)}
    micro_diags = {eps: res[1] for eps, res in zip(eps_list, results)}

    errors = {name: [] for name in STUDY_FIELDS}
    corrector_plain = [] if neumann else None
    corrector_enhanced = [] if neumann else None
    for eps in eps_list:
        mesh = meshes[eps]
        final = micro_finals[eps]
        if neumann:
            phi = (eps ** regime.alpha * final.phi, macro_final.phi, True)
        else:
            phi = (eps ** (regime.alpha - 2) * (final.phi - regime.phi_d),
                   coeffs.dirichlet_mean
                   * (macro_final.c_plus - macro_final.c_minus), False)
        nodal = {"c_plus": (final.c_plus, macro_final.c_plus, True),
                 "c_minus": (final.c_minus, macro_final.c_minus, True),
                 "phi": phi}
        for name, (micro_f, macro_f, intrinsic) in nodal.items():
            errors[name].append(_relative_grid_error(
                cell_average(mesh, fem.element_means(mesh, micro_f), eps,
                             intrinsic),
                cell_average(macro_mesh,
                             fem.element_means(macro_mesh, macro_f), eps)))
        errors["v"].append(_relative_grid_error(
            cell_average(mesh, final.velocity, eps),
            cell_average(macro_mesh, macro_final.velocity, eps)))
        if neumann:
            plain, enhanced = corrector_enhanced_error(
                mesh, final.phi, macro_mesh, macro_final.phi,
                solutions["scalar"], eps, regime.alpha)
            corrector_plain.append(plain)
            corrector_enhanced.append(enhanced)

    orders = {}
    for name in STUDY_FIELDS:
        values = errors[name]
        orders[name] = [math.nan] + [
            math.log2(a / b) if b > 0 and a > 0 else math.nan
            for a, b in zip(values, values[1:])]

    flags = []
    for name in STUDY_FIELDS:
        values = errors[name]
        if max(values) < MONOTONE_FLOOR:
            continue
        if any(b >= a for a, b in zip(values, values[1:])):
            flags.append("%s errors are not monotone: %s"
                         % (name, ["%.3e" % v for v in values]))
    if neumann:
        for eps, plain, enhanced in zip(eps_list, corrector_plain,
                                        corrector_enhanced):
            if enhanced > plain * (1 + 1e-9) + 1e-14:
                flags.append("corrector did not improve the potential "
                             "error at eps=%g (%.3e > %.3e)"
                             % (eps, enhanced, plain))
    for flag in flags:
        log.warning("convergence study: %s", flag)

    study = ConvergenceStudy(
        regime=regime, geometry=geometry, eps_list=eps_list, h_list=h_list,
        macro_h=macro_h, t_end=t_end, dt=dt, coeffs=coeffs, errors=errors,
        orders=orders, corrector_plain=corrector_plain,
        corrector_enhanced=corrector_enhanced, flags=flags,
        monotone=not any("not monotone" in f for f in flags),
        macro_diagnostics=macro_diag, micro_diagnostics=micro_diags,
        macro_final=macro_final, micro_finals=micro_finals)
    study.validate()
    log.info("convergence study finished (model %s): monotone=%s",
             model, study.monotone)
    return study
