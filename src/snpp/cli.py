"""Command-line orchestration: configuration, runs, and artifact output.

Subcommands: cell (effective coefficients), macro (upscaled run), micro
(pore-scale run), converge (scale-comparison study), check (invariant
suite over an existing diagnostics table).  Configuration is a JSON
file; every omitted entry falls back to a documented default and the
fully resolved configuration is echoed into the output directory's
manifest.  Exit codes: 0 success, 1 usage or configuration error, 2
numerical failure, 3 failed acceptance check.
"""

import argparse
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import __version__, macro, micro, output, verify
from .cell import compute_effective_coefficients
from .errors import (
    GridMisaligned,
    InadmissibleScaling,
    InclusionTouchesBoundary,
    MalformedDiagnostics,
    NonMonotoneConvergence,
    NoSolidPhase,
    ParseError,
    ResolutionTooCoarse,
    SnppError,
    ValidationError,
)
from .mesh import (
    DiskInclusion,
    PerforatedDomain,
    UnitCellGeometry,
    generate_perforated_mesh,
    generate_unit_cell_mesh,
)

log = logging.getLogger(__name__)

COMMANDS = ("cell", "macro", "micro", "converge", "check")
USAGE_EXIT = 1
NUMERICAL_EXIT = 2
CHECK_EXIT = 3

GEOMETRY_DEFAULTS = {"radius": 0.25, "center": (0.5, 0.5), "cell_h": 0.025}
REGIME_DEFAULTS = {"bc": "neumann", "alpha": 0, "beta": 0, "gamma": 0,
                   "sigma": 0.0, "phi_d": 0.0}
DISCRETIZATION_DEFAULTS = {"h": None, "dt": 2e-3, "t_end": 0.1, "eps": None}
OUTPUT_DEFAULTS = {"directory": "snpp-out", "formats": ("csv", "vtk"),
                   "snapshot_stride": 1}
INITIAL_DEFAULTS = {"kind": "charged_blobs", "background": 0.2,
                    "amplitude": 0.5, "lam": 1.0}
DEFAULT_MACRO_H = 1.0 / 64.0
DEFAULT_EPS = 0.5

USAGE_ERRORS = (ParseError, ValidationError, InadmissibleScaling,
                InclusionTouchesBoundary, ResolutionTooCoarse,
                GridMisaligned, MalformedDiagnostics, NoSolidPhase)


class RunConfig:
    """Fully resolved configuration for one command invocation."""

    def __init__(self, command, geometry, regime, eps, eps_list, h, dt,
                 t_end, initial, lam, directory, formats, snapshot_stride,
                 diagnostics, echo):
        self.command = command
        self.geometry = geometry
        self.regime = regime
        self.eps = eps
        self.eps_list = eps_list
        self.h = h
        self.dt = dt
        self.t_end = t_end
        self.initial = initial
        self.lam = lam
        self.directory = directory
        self.formats = formats
        self.snapshot_stride = snapshot_stride
        self.diagnostics = diagnostics
        self.echo = echo


def _merge_block(raw, name, defaults):
    block = raw.get(name)
    if block is None:
        block = {}
    if not isinstance(block, dict):
        raise ValidationError("%s block must be an object" % name,
                              field=name, where="cli.parse_config")
    if name == "discretization" and "T" in block:
        if "t_end" in block:
            raise ValidationError(
                "discretization sets both T and its alias t_end",
                field="discretization.T", where="cli.parse_config")
        block = dict(block)
        block["t_end"] = block.pop("T")
    unknown = sorted(set(block) - set(defaults))
    if unknown:
        raise ValidationError(
            "unknown key %r in the %s block" % (unknown[0], name),
            field="%s.%s" % (name, unknown[0]), where="cli.parse_config")
    merged = dict(defaults)
    merged.update(block)
    return merged


def _number(value, field, minimum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError("%s must be a number, got %r" % (field, value),
                              field=field, where="cli.parse_config")
    if not math.isfinite(value):
        raise ValidationError("%s must be finite" % field, field=field,
                              where="cli.parse_config")
    if minimum is not None and value <= minimum:
        raise ValidationError("%s must be greater than %g" % (field, minimum),
                              field=field, where="cli.parse_config")
    return float(value)


def parse_config(text, command=None):
    """Parse JSON configuration text into a validated RunConfig.

    command, when given, is the subcommand from the command line; a
    conflicting command entry inside the text is rejected.  Every block
    is optional except where the command needs it (check requires the
    diagnostics path), and defaults are applied per the README table.
    """
    try:
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno,
                         where="cli.parse_config")
    if not isinstance(raw, dict):
        raise ParseError("configuration must be a JSON object",
                         where="cli.parse_config")
    known = {"command", "geometry", "regime", "discretization", "output",
             "initial", "diagnostics"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValidationError("unknown top-level key %r" % unknown[0],
                              field=unknown[0], where="cli.parse_config")

    config_command = raw.get("command")
    if config_command is not None and config_command not in COMMANDS:
        raise ValidationError("unknown command %r" % config_command,
                              field="command", where="cli.parse_config")
    if command is not None and config_command is not None \
            and command != config_command:
        raise ValidationError(
            "config names command %r but %r was invoked"
            % (config_command, command), field="command",
            where="cli.parse_config")
    command = command or config_command
    if command is None:
        raise ValidationError("no command given", field="command",
                              where="cli.parse_config")

    geo = _merge_block(raw, "geometry", GEOMETRY_DEFAULTS)
    if geo["radius"] is None:
        inclusion = None
    else:
        radius = _number(geo["radius"], "geometry.radius", minimum=0.0)
        center = geo["center"]
        if not (isinstance(center, (list, tuple)) and len(center) == 2):
            raise ValidationError("geometry.center must be a pair",
                                  field="geometry.center",
                                  where="cli.parse_config")
        cx = _number(center[0], "geometry.center")
        cy = _number(center[1], "geometry.center")
        inclusion = DiskInclusion((cx, cy), radius)
    cell_h = _number(geo["cell_h"], "geometry.cell_h", minimum=0.0)
    geometry = UnitCellGeometry(inclusion, cell_h)

    reg = _merge_block(raw, "regime", REGIME_DEFAULTS)
    if reg["bc"] not in (macro.NEUMANN, macro.DIRICHLET):
        raise ValidationError("regime.bc must be %r or %r"
                              % (macro.NEUMANN, macro.DIRICHLET),
                              field="regime.bc", where="cli.parse_config")
    # The key is reserved: a constant surface charge cannot balance the
    # neutral initial data, and the reaction decays any balance.
    if _number(reg["sigma"], "regime.sigma") != 0.0:
        raise ValidationError(
            "regime.sigma must be 0; no surface-charge model is implemented",
            field="regime.sigma", where="cli.parse_config")
    phi_d = _number(reg["phi_d"], "regime.phi_d")
    if reg["bc"] == macro.NEUMANN and phi_d != 0.0:
        raise ValidationError(
            "regime.phi_d is the Dirichlet wall potential; it must be 0 "
            "with bc %r" % macro.NEUMANN,
            field="regime.phi_d", where="cli.parse_config")
    regime = macro.ScalingRegime(
        reg["bc"],
        _number(reg["alpha"], "regime.alpha"),
        _number(reg["beta"], "regime.beta"),
        _number(reg["gamma"], "regime.gamma"),
        phi_d=phi_d)

    disc = _merge_block(raw, "discretization", DISCRETIZATION_DEFAULTS)
    dt = _number(disc["dt"], "discretization.dt", minimum=0.0)
    t_end = _number(disc["t_end"], "discretization.t_end", minimum=0.0)

    eps_entry = disc["eps"]
    if command == "converge":
        eps_values = verify.STUDY_EPS if eps_entry is None else eps_entry
        if not isinstance(eps_values, (list, tuple)) or not eps_values:
            raise ValidationError(
                "discretization.eps must be a list of scales for converge",
                field="discretization.eps", where="cli.parse_config")
        eps_list = sorted(
            (_number(v, "discretization.eps", minimum=0.0)
             for v in eps_values), reverse=True)
        eps = None
    else:
        if isinstance(eps_entry, (list, tuple)):
            raise ValidationError(
                "discretization.eps must be a single scale for %s" % command,
                field="discretization.eps", where="cli.parse_config")
        eps = DEFAULT_EPS if eps_entry is None \
            else _number(eps_entry, "discretization.eps", minimum=0.0)
        eps_list = None

    h_entry = disc["h"]
    if h_entry is None:
        h = eps / 8.0 if command == "micro" else DEFAULT_MACRO_H
    else:
        h = _number(h_entry, "discretization.h", minimum=0.0)

    out = _merge_block(raw, "output", OUTPUT_DEFAULTS)
    directory = out["directory"]
    if not isinstance(directory, str) or not directory:
        raise ValidationError("output.directory must be a non-empty string",
                              field="output.directory",
                              where="cli.parse_config")
    formats = out["formats"]
    if isinstance(formats, str):
        formats = [formats]
    if not isinstance(formats, (list, tuple)):
        raise ValidationError("output.formats must be a list",
                              field="output.formats",
                              where="cli.parse_config")
    for entry in formats:
        if entry not in ("csv", "vtk"):
            raise ValidationError("unknown output format %r" % entry,
                                  field="output.formats",
                                  where="cli.parse_config")
    stride = out["snapshot_stride"]
    if isinstance(stride, bool) or not isinstance(stride, int) or stride < 0:
        raise ValidationError(
            "output.snapshot_stride must be a non-negative integer",
            field="output.snapshot_stride", where="cli.parse_config")

    initial = _merge_block(raw, "initial", INITIAL_DEFAULTS)
    if initial["kind"] not in ("charged_blobs", "shared_blob", "uniform"):
        raise ValidationError("unknown initial kind %r" % initial["kind"],
                              field="initial.kind", where="cli.parse_config")
    background = _number(initial["background"], "initial.background")
    amplitude = _number(initial["amplitude"], "initial.amplitude")
    lam = _number(initial["lam"], "initial.lam", minimum=0.0)

    diagnostics = raw.get("diagnostics")
    if command == "check":
        if not isinstance(diagnostics, str) or not diagnostics:
            raise ValidationError(
                "check needs a diagnostics file path", field="diagnostics",
                where="cli.parse_config")
    elif diagnostics is not None:
        raise ValidationError(
            "diagnostics entry is only used by check", field="diagnostics",
            where="cli.parse_config")

    echo = {
        "command": command,
        "geometry": {"radius": None if inclusion is None
                     else inclusion.radius,
                     "center": list(inclusion.center) if inclusion else None,
                     "cell_h": cell_h},
        "regime": {"bc": regime.bc_type, "alpha": regime.alpha,
                   "beta": regime.beta, "gamma": regime.gamma,
                   "sigma": 0.0, "phi_d": regime.phi_d},
        "discretization": {"h": h, "dt": dt, "t_end": t_end,
                           "eps": eps_list if command == "converge" else eps},
        "output": {"directory": directory, "formats": list(formats),
                   "snapshot_stride": stride},
        "initial": {"kind": initial["kind"], "background": background,
                    "amplitude": amplitude, "lam": lam},
    }
    if diagnostics is not None:
        echo["diagnostics"] = diagnostics

    return RunConfig(
        command=command, geometry=geometry, regime=regime, eps=eps,
        eps_list=eps_list, h=h, dt=dt, t_end=t_end,
        initial={"kind": initial["kind"], "background": background,
                 "amplitude": amplitude},
        lam=lam, directory=directory, formats=tuple(formats),
        snapshot_stride=stride, diagnostics=diagnostics, echo=echo)


def initial_functions(initial):
    """Initial concentration pair (c_plus, c_minus) as callables f(x, y)."""
    background = initial["background"]
    amplitude = initial["amplitude"]

    def bump(cx, cy):
        def f(x, y):
            return background + amplitude * np.exp(
                -25.0 * ((x - cx) ** 2 + (y - cy) ** 2))
        return f

    kind = initial["kind"]
    if kind == "charged_blobs":
        return bump(0.35, 0.45), bump(0.7, 0.6)
    if kind == "shared_blob":
        shared = bump(0.5, 0.5)
        return shared, shared

    def flat(x, y):
        return np.full_like(np.asarray(x, dtype=float), background)

    return flat, flat


def _artifact(config, name):
    return os.path.join(config.directory, name)


def _finish(config, started, extra=None):
    payload = {
        "tool": "snpp",
        "version": __version__,
        "command": config.command,
        "completed_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "wall_time_seconds": time.perf_counter() - started,
        "config": config.echo,
    }
    if extra:
        payload.update(extra)
    path = _artifact(config, "manifest.json")
    output.write_manifest(path, payload)
    print("wrote %s" % path)


def _write_run_outputs(config, prefix, states, diagnostics):
    if "csv" in config.formats:
        path = _artifact(config, "diagnostics.csv")
        output.write_diagnostics_csv(path, diagnostics)
        print("wrote %s" % path)
    if "vtk" in config.formats:
        for index, state in enumerate(states):
            path = _artifact(config, "%s_%04d.vtk" % (prefix, index))
            output.write_vtk(path, state)
        print("wrote %d %s_*.vtk snapshots" % (len(states), prefix))


def run_cell(config):
    started = time.perf_counter()
    coeffs, _ = compute_effective_coefficients(config.geometry)
    os.makedirs(config.directory, exist_ok=True)
    path = _artifact(config, "coefficients.txt")
    output.write_coefficients(path, coeffs)
    print("wrote %s" % path)
    _finish(config, started)
    return 0


def run_macro_cmd(config):
    started = time.perf_counter()
    coeffs, _ = compute_effective_coefficients(config.geometry)
    mesh = generate_unit_cell_mesh(UnitCellGeometry(None, config.h))
    c_plus, c_minus = initial_functions(config.initial)
    cp, cm = macro.initial_concentrations(mesh, c_plus, c_minus,
                                          config.regime)
    problem = macro.MacroProblem(mesh, coeffs, config.regime, cp, cm,
                                 t_end=config.t_end, dt=config.dt,
                                 lam=config.lam,
                                 snapshot_stride=config.snapshot_stride)
    states, diagnostics, profile = macro.run_macro(problem)
    os.makedirs(config.directory, exist_ok=True)
    _write_run_outputs(config, "macro", states, diagnostics)
    _finish(config, started, extra={"profile": {"macro": profile}})
    return 0


def run_micro_cmd(config):
    started = time.perf_counter()
    domain = PerforatedDomain(config.eps, config.geometry)
    mesh = generate_perforated_mesh(domain, config.h)
    c_plus, c_minus = initial_functions(config.initial)
    cp, cm = macro.initial_concentrations(mesh, c_plus, c_minus,
                                          config.regime)
    problem = micro.MicroProblem(domain, mesh, config.regime, cp, cm,
                                 t_end=config.t_end, dt=config.dt,
                                 lam=config.lam,
                                 snapshot_stride=config.snapshot_stride)
    states, diagnostics, profile = micro.run_micro(problem)
    os.makedirs(config.directory, exist_ok=True)
    _write_run_outputs(config, "micro", states, diagnostics)
    _finish(config, started, extra={"profile": {"micro": profile}})
    return 0


def run_converge(config):
    started = time.perf_counter()
    c_plus, c_minus = initial_functions(config.initial)
    study = verify.run_convergence_study(
        config.regime, config.geometry, c_plus, c_minus,
        eps_list=config.eps_list, t_end=config.t_end, dt=config.dt,
        macro_h=config.h, lam=config.lam)
    os.makedirs(config.directory, exist_ok=True)
    path = _artifact(config, "study.csv")
    output.write_study_csv(path, study)
    print("wrote %s" % path)
    coeff_path = _artifact(config, "coefficients.txt")
    output.write_coefficients(coeff_path, study.coeffs)
    print("wrote %s" % coeff_path)
    _finish(config, started, extra={"flags": study.flags,
                                    "monotone": study.monotone,
                                    "profile": study.profiles})

    fields = verify.STUDY_FIELDS
    print(("%-8s %-10s" + " %-12s" * len(fields)) % (("eps", "h") + fields))
    for i, eps in enumerate(study.eps_list):
        print(("%-8g %-10g" + " %-12.5e" * len(fields)) % (
            eps, study.h_list[i], *(study.errors[f][i] for f in fields)))
    if not study.monotone:
        _report_error(NonMonotoneConvergence(
            "; ".join(study.flags), where="verify.run_convergence_study"))
        return CHECK_EXIT
    return 0


def run_check(config):
    started = time.perf_counter()
    rows = output.read_diagnostics_csv(config.diagnostics)
    report = verify.run_invariant_suite(None, rows, lam=config.lam)
    for check in report.checks:
        print("%s %s: value %.6e, tolerance %.1e"
              % ("PASS" if check.passed else "FAIL",
                 check.name, check.value, check.tolerance))
    os.makedirs(config.directory, exist_ok=True)
    _finish(config, started, extra={"passed": report.passed})
    return 0 if report.passed else CHECK_EXIT


RUNNERS = {"cell": run_cell, "macro": run_macro_cmd, "micro": run_micro_cmd,
           "converge": run_converge, "check": run_check}


def _report_error(exc):
    origin = " [%s]" % exc.where if exc.where else ""
    detail = ""
    if isinstance(exc, ParseError) and exc.line is not None:
        detail = " (line %d, column %d)" % (exc.line, exc.column)
    elif isinstance(exc, ValidationError) and exc.field:
        detail = " (field %s)" % exc.field
    print("snpp: %s%s: %s%s"
          % (type(exc).__name__, origin, exc, detail), file=sys.stderr)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="snpp",
        description="Pore-scale electrokinetic transport toolkit.")
    parser.add_argument("--version", action="version",
                        version="snpp " + __version__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    descriptions = {
        "cell": "compute effective coefficients for one cell geometry",
        "macro": "run the upscaled model on the unit square",
        "micro": "run the pore-scale model on a perforated domain",
        "converge": "compare pore-scale runs against the upscaled model",
        "check": "run the invariant suite over a diagnostics CSV",
    }
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=descriptions[name])
        cmd.add_argument("--config", default=None,
                         help="JSON configuration file (defaults apply "
                              "when omitted)")
        cmd.add_argument("--verbose", action="store_true",
                         help="log solver progress")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else USAGE_EXIT
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.config is None:
            text = ""
        else:
            try:
                with open(args.config) as handle:
                    text = handle.read()
            except OSError as exc:
                print("snpp: cannot read config: %s" % exc, file=sys.stderr)
                return USAGE_EXIT
        config = parse_config(text, command=args.command)
        return RUNNERS[config.command](config)
    except SnppError as exc:
        _report_error(exc)
        return USAGE_EXIT if isinstance(exc, USAGE_ERRORS) \
            else NUMERICAL_EXIT
    except OSError as exc:
        print("snpp: %s" % exc, file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
