"""Command-line orchestration: configuration, runs, and artifact output.

Subcommands: cell (effective coefficients), macro (upscaled run), micro
(pore-scale run), converge (scale-comparison study).  Every run of a
model is gated on the invariant suite before anything is written.
Configuration is a JSON file; every omitted entry falls back to a
documented default and the fully resolved configuration is echoed into
the output directory's manifest.  Exit codes: 0 success, 1 usage or
configuration error, 2 numerical failure, 3 violated invariant or
failed acceptance check.
"""

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, macro, micro, output, verify
from .cell import compute_effective_coefficients
from .errors import (
    GridMisaligned,
    InadmissibleScaling,
    InclusionTouchesBoundary,
    InvariantViolation,
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
    is_integer_reciprocal,
)

COMMANDS = {
    "cell": "compute effective coefficients for one cell geometry",
    "macro": "run the upscaled model on the unit square",
    "micro": "run the pore-scale model on a perforated domain",
    "converge": "compare pore-scale runs against the upscaled model",
}
USAGE_EXIT = 1
NUMERICAL_EXIT = 2
CHECK_EXIT = 3

# Every config block with the default of each of its keys.  A parse
# stores each resolved value back into its merged block, and those
# blocks are the config that the manifest records.
DEFAULTS = {
    "geometry": {"radius": 0.25, "center": (0.5, 0.5), "cell_h": 0.025},
    "regime": {"bc": "neumann", "alpha": 0, "beta": 0, "gamma": 0,
               "sigma": 0.0, "phi_d": 0.0},
    "discretization": {"h": None, "dt": 2e-3, "t_end": 0.1, "eps": None},
    "output": {"directory": "snpp-out", "formats": ("csv", "vtk"),
               "snapshot_stride": 1},
    "initial": {"kind": "charged_blobs", "background": 0.2,
                "amplitude": 0.5, "lam": 1.0},
}
DEFAULT_MACRO_H = 1.0 / 64.0
DEFAULT_EPS = 0.5
# The keys of each block that a command reads, where it does not read
# them all: a value given for another key is refused, and the echo
# leaves it out.
READS = {
    "cell": {"regime": (), "discretization": (), "initial": (),
             "output": ("directory",)},
    "converge": {"geometry": ("radius", "center")},
    "macro": {"discretization": ("h", "dt", "t_end")},
    "micro": {"geometry": ("radius", "center")},
}

USAGE_ERRORS = (ParseError, ValidationError, InadmissibleScaling,
                InclusionTouchesBoundary, ResolutionTooCoarse,
                GridMisaligned, NoSolidPhase)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one command invocation; echo is
    the resolved blocks that the manifest records.  A field whose key
    the command does not read is None."""

    command: str
    geometry: UnitCellGeometry
    regime: macro.ScalingRegime
    eps: float
    eps_list: list
    h: float
    dt: float
    t_end: float
    initial: dict
    lam: float
    directory: str
    formats: tuple
    snapshot_stride: int
    echo: dict


def _invalid(field, message):
    return ValidationError(message, field=field, where="cli.parse_config")


def _merge_block(raw, name):
    block = raw.get(name)
    if block is None:
        block = {}
    if not isinstance(block, dict):
        raise _invalid(name, "%s block must be an object" % name)
    if name == "discretization" and "T" in block:
        if "t_end" in block:
            raise _invalid("discretization.T",
                           "discretization sets both T and its alias t_end")
        block = dict(block)
        block["t_end"] = block.pop("T")
    unknown = sorted(set(block) - set(DEFAULTS[name]))
    if unknown:
        raise _invalid("%s.%s" % (name, unknown[0]),
                       "unknown key %r in the %s block" % (unknown[0], name))
    return dict(DEFAULTS[name], **block)


def _number(value, field, minimum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _invalid(field, "%s must be a number, got %r" % (field, value))
    if not math.isfinite(value):
        raise _invalid(field, "%s must be finite" % field)
    if minimum is not None and value <= minimum:
        raise _invalid(field, "%s must be greater than %g" % (field, minimum))
    return float(value)


def parse_config(text, command=None):
    """Parse JSON configuration text into a validated RunConfig.

    command, when given, is the subcommand from the command line; a
    conflicting command entry inside the text is rejected.  Every block
    is optional, and defaults are applied per the README table.
    Each block is merged with its DEFAULTS, and each check stores the
    value it resolves back into the block, so the blocks are the echo.
    """
    try:
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno,
                         where="cli.parse_config")
    if not isinstance(raw, dict):
        raise ParseError("configuration must be a JSON object",
                         where="cli.parse_config")
    unknown = sorted(set(raw) - set(DEFAULTS) - {"command"})
    if unknown:
        raise _invalid(unknown[0], "unknown top-level key %r" % unknown[0])

    config_command = raw.get("command")
    if config_command is not None and config_command not in COMMANDS:
        raise _invalid("command", "unknown command %r" % config_command)
    if command is not None and config_command is not None \
            and command != config_command:
        raise _invalid("command", "config names command %r but %r was "
                       "invoked" % (config_command, command))
    command = command or config_command
    if command is None:
        raise _invalid("command", "no command given")
    blocks = [_merge_block(raw, name) for name in DEFAULTS]
    geo, reg, disc, out, init = blocks

    # The center is checked whatever the radius; without a disk it
    # shapes nothing, and the echo records null.
    center = geo["center"]
    if center is not None or geo["radius"] is not None:
        if not (isinstance(center, (list, tuple)) and len(center) == 2):
            raise _invalid("geometry.center", "geometry.center must be a pair")
        center = [_number(v, "geometry.center") for v in center]
    inclusion = None
    if geo["radius"] is None:
        geo["center"] = None
    else:
        geo["radius"] = _number(geo["radius"], "geometry.radius",
                                minimum=0.0)
        geo["center"] = center
        inclusion = DiskInclusion(tuple(center), geo["radius"])
    geo["cell_h"] = _number(geo["cell_h"], "geometry.cell_h", minimum=0.0)

    if reg["bc"] not in (macro.NEUMANN, macro.DIRICHLET):
        raise _invalid("regime.bc", "regime.bc must be %r or %r"
                       % (macro.NEUMANN, macro.DIRICHLET))
    for key in ("alpha", "beta", "gamma", "sigma", "phi_d"):
        reg[key] = _number(reg[key], "regime." + key)
    # The key is reserved: a constant surface charge cannot balance the
    # neutral initial data, and the reaction decays any balance.
    if reg["sigma"] != 0.0:
        raise _invalid("regime.sigma", "regime.sigma must be 0; no "
                       "surface-charge model is implemented")
    reg["sigma"] = 0.0
    if reg["bc"] == macro.NEUMANN and reg["phi_d"] != 0.0:
        raise _invalid("regime.phi_d", "regime.phi_d is the Dirichlet wall "
                       "potential; it must be 0 with bc %r" % macro.NEUMANN)

    for key in ("dt", "t_end"):
        disc[key] = _number(disc[key], "discretization." + key, minimum=0.0)
    eps = eps_list = None
    if command == "converge":
        eps_values = verify.STUDY_EPS if disc["eps"] is None else disc["eps"]
        if not isinstance(eps_values, (list, tuple)) or not eps_values:
            raise _invalid("discretization.eps", "discretization.eps must "
                           "be a list of scales for converge")
        eps_list = disc["eps"] = sorted(
            (_number(v, "discretization.eps", minimum=0.0)
             for v in eps_values), reverse=True)
        verify.check_scales(eps_list, field="discretization.eps",
                            where="cli.parse_config")
    elif command == "micro":
        if isinstance(disc["eps"], (list, tuple)):
            raise _invalid("discretization.eps", "discretization.eps must "
                           "be a single scale for %s" % command)
        eps = disc["eps"] = DEFAULT_EPS if disc["eps"] is None \
            else _number(disc["eps"], "discretization.eps", minimum=0.0)
        if not is_integer_reciprocal(eps):
            raise _invalid("discretization.eps", "discretization.eps must "
                           "be the reciprocal of an integer")
    disc["h"] = (eps / 8.0 if command == "micro" else DEFAULT_MACRO_H) \
        if disc["h"] is None \
        else _number(disc["h"], "discretization.h", minimum=0.0)

    if not isinstance(out["directory"], str) or not out["directory"]:
        raise _invalid("output.directory",
                       "output.directory must be a non-empty string")
    if isinstance(out["formats"], str):
        out["formats"] = [out["formats"]]
    if not isinstance(out["formats"], (list, tuple)):
        raise _invalid("output.formats", "output.formats must be a list")
    for entry in out["formats"]:
        if entry not in ("csv", "vtk"):
            raise _invalid("output.formats",
                           "unknown output format %r" % entry)
    out["formats"] = list(out["formats"])
    stride = out["snapshot_stride"]
    if isinstance(stride, bool) or not isinstance(stride, int) or stride < 0:
        raise _invalid("output.snapshot_stride", "output.snapshot_stride "
                       "must be a non-negative integer")

    if init["kind"] not in ("charged_blobs", "shared_blob", "uniform"):
        raise _invalid("initial.kind", "unknown initial kind %r"
                       % init["kind"])
    for key in ("background", "amplitude"):
        init[key] = _number(init[key], "initial." + key)
    init["lam"] = _number(init["lam"], "initial.lam", minimum=0.0)

    # Every value is checked before the keys that the command does not
    # read are refused, so a value that no command takes is named by
    # its own check.
    reads = READS.get(command, {})
    for name, block in zip(DEFAULTS, blocks):
        read = reads.get(name, DEFAULTS[name])
        for key in raw.get(name) or {}:
            if {"T": "t_end"}.get(key, key) not in read:
                raise _invalid("%s.%s" % (name, key), "%s does not read "
                               "%s.%s" % (command, name, key))
        for key in set(block) - set(read):
            del block[key]

    echo = dict(zip(DEFAULTS, blocks), command=command)
    return RunConfig(
        command,
        UnitCellGeometry(inclusion, geo.get("cell_h")) if geo else None,
        macro.ScalingRegime(reg["bc"], reg["alpha"], reg["beta"],
                            reg["gamma"], phi_d=reg["phi_d"]) if reg else None,
        eps, eps_list, disc.get("h"), disc.get("dt"), disc.get("t_end"),
        {key: init[key] for key in ("kind", "background", "amplitude")}
        if "kind" in init else None,
        init.get("lam"), out["directory"],
        tuple(out["formats"]) if "formats" in out else None,
        out.get("snapshot_stride"), echo)


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


def _write(writer, config, name, data):
    path = os.path.join(config.directory, name)
    writer(path, data)
    print("wrote %s" % path)


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
    _write(output.write_manifest, config, "manifest.json", payload)


def run_cell(config):
    started = time.perf_counter()
    coeffs, _ = compute_effective_coefficients(config.geometry)
    os.makedirs(config.directory, exist_ok=True)
    _write(output.write_coefficients, config, "coefficients.txt", coeffs)
    _finish(config, started)
    return 0


def run_model(config):
    """One run of the upscaled (macro) or the pore-scale (micro) model,
    gated by verify.check_run, with its diagnostics table, snapshots,
    profile and checks written."""
    started = time.perf_counter()
    if config.command == "macro":
        coeffs, _ = compute_effective_coefficients(config.geometry)
        mesh = generate_unit_cell_mesh(UnitCellGeometry(None, config.h))
        problem_type, run, lead = macro.MacroProblem, macro.run_macro, \
            (mesh, coeffs)
    else:
        domain = PerforatedDomain(config.eps, config.geometry)
        mesh = generate_perforated_mesh(domain, config.h)
        problem_type, run, lead = micro.MicroProblem, micro.run_micro, \
            (domain, mesh)
    c_plus, c_minus = initial_functions(config.initial)
    cp, cm = macro.initial_concentrations(mesh, c_plus, c_minus,
                                          config.regime)
    problem = problem_type(
        *lead, config.regime, cp, cm, t_end=config.t_end, dt=config.dt,
        lam=config.lam, snapshot_stride=config.snapshot_stride)
    states, diagnostics, profile = run(problem)
    checks = verify.check_run(config.command, problem, states[-1],
                              diagnostics)
    os.makedirs(config.directory, exist_ok=True)
    if "csv" in config.formats:
        _write(output.write_diagnostics_csv, config, "diagnostics.csv",
               diagnostics)
    if "vtk" in config.formats:
        for index, state in enumerate(states):
            output.write_vtk(os.path.join(
                config.directory, "%s_%04d.vtk" % (config.command, index)),
                state)
        print("wrote %d %s_*.vtk snapshots" % (len(states), config.command))
    _finish(config, started, extra={"profile": {config.command: profile},
                                    "invariants": {config.command: checks}})
    return 0


def run_converge(config):
    started = time.perf_counter()
    c_plus, c_minus = initial_functions(config.initial)
    study = verify.run_convergence_study(
        config.regime, config.geometry, c_plus, c_minus,
        eps_list=config.eps_list, t_end=config.t_end, dt=config.dt,
        macro_h=config.h, lam=config.lam)
    os.makedirs(config.directory, exist_ok=True)
    _write(output.write_study_csv, config, "study.csv", study)
    _write(output.write_coefficients, config, "coefficients.txt",
           study.coeffs)
    _finish(config, started, extra={"flags": study.flags,
                                    "monotone": study.monotone,
                                    "profile": study.profiles,
                                    "invariants": study.invariants})

    fields = verify.study_columns(study.errors)
    print(("%-8s %-10s" + " %-12s" * len(fields)) % ("eps", "h", *fields))
    for i, eps in enumerate(study.eps_list):
        print(("%-8g %-10g" + " %-12.5e" * len(fields)) % (
            eps, study.h_list[i], *(study.errors[f][i] for f in fields)))
    if not study.monotone:
        _report_error(NonMonotoneConvergence(
            "; ".join(study.flags), where="verify.run_convergence_study"))
        return CHECK_EXIT
    return 0


RUNNERS = {"cell": run_cell, "macro": run_model, "micro": run_model,
           "converge": run_converge}


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
    for name, description in COMMANDS.items():
        cmd = sub.add_parser(name, help=description)
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
        if isinstance(exc, InvariantViolation):
            return CHECK_EXIT
        return USAGE_EXIT if isinstance(exc, USAGE_ERRORS) \
            else NUMERICAL_EXIT
    except OSError as exc:
        print("snpp: %s" % exc, file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
