"""Writers and readers for the on-disk run artifacts.

Tables are CSV with a header row and CRLF line endings; fields go out as
legacy ASCII VTK; effective coefficients as a flat key=value file.  All
floating-point values are printed with 17 significant digits so 64-bit
numbers round-trip exactly and a rerun with the same configuration
rewrites byte-identical tables.
"""

import csv
import json

import numpy as np

from . import verify
from .errors import MalformedDiagnostics, ValidationError
from .verify import DIAGNOSTIC_KEYS

FLOAT_FORMAT = "%.17g"
COEFFICIENT_KEYS = ("porosity", "D11", "D12", "D22", "K11", "K12", "K22",
                    "dirichlet_mean")


def _fmt(value):
    return FLOAT_FORMAT % float(value)


def coefficient_rows(coeffs):
    """The eight named scalar entries of one coefficient set, in file order.

    Quantities the geometry does not define (permeability and the wall
    closure mean without an inclusion) appear as nan.
    """
    d = np.asarray(coeffs.diffusion, dtype=float)
    k = coeffs.permeability
    k = np.full((2, 2), np.nan) if k is None else np.asarray(k, dtype=float)
    m = np.nan if coeffs.dirichlet_mean is None else coeffs.dirichlet_mean
    values = (coeffs.porosity, d[0, 0], d[0, 1], d[1, 1],
              k[0, 0], k[0, 1], k[1, 1], m)
    return list(zip(COEFFICIENT_KEYS, values))


def write_coefficients(path, coeffs):
    """Write one coefficient set as a flat key=value file."""
    with open(path, "w") as handle:
        for key, value in coefficient_rows(coeffs):
            handle.write("%s=%s\n" % (key, _fmt(value)))


def write_diagnostics_csv(path, diagnostics):
    """One CSV row per time step with the solver's scalar time series."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(DIAGNOSTIC_KEYS)
        for row in diagnostics:
            writer.writerow(["%d" % row[key] if key == "fp_iters"
                             else _fmt(row[key]) for key in DIAGNOSTIC_KEYS])


def read_diagnostics_csv(path):
    """Read a diagnostics table back into the solver's row-dict form."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise MalformedDiagnostics("diagnostics file %s is empty" % path,
                                       where="output.read_diagnostics_csv")
        rows = []
        for record in reader:
            row = {}
            for key, text in record.items():
                if key is None or text is None:
                    raise MalformedDiagnostics(
                        "ragged row in diagnostics file %s" % path,
                        where="output.read_diagnostics_csv")
                try:
                    row[key] = float(text)
                except ValueError:
                    raise MalformedDiagnostics(
                        "non-numeric entry %r in column %r of %s"
                        % (text, key, path),
                        where="output.read_diagnostics_csv")
            rows.append(row)
    if not rows:
        raise MalformedDiagnostics("diagnostics file %s has no rows" % path,
                                   where="output.read_diagnostics_csv")
    return rows


def write_study_csv(path, study):
    """One row per scale with an e_<measure> column for each column of
    verify.MEASURES that the study measured, in table order.

    observed_order is the decay rate of the first of them between
    successive scales; the first row has no predecessor and reads nan.
    """
    fields = verify.study_columns(study.errors)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["eps", "h"] + ["e_" + name for name in fields]
                        + ["observed_order"])
        for i, eps in enumerate(study.eps_list):
            writer.writerow([_fmt(value) for value in (
                eps, study.h_list[i], *(study.errors[f][i] for f in fields),
                study.orders[fields[0]][i])])


def _rows(row_format, array):
    """One line per row of array, each value formatted by row_format."""
    return (row_format * len(array)) % tuple(np.ravel(array).tolist())


def write_vtk(path, state):
    """Write one solution state as a legacy ASCII VTK unstructured grid.

    Concentrations, potential, and pressure go out as point scalars; the
    elementwise velocity as a per-triangle cell vector.  Each section is
    formatted with one % over its row format repeated once per row and
    written as one string, so only one section is held as text at a time.
    """
    points = state.mesh.nodes
    tris = state.mesh.triangles
    scalars = (("c_plus", state.c_plus), ("c_minus", state.c_minus),
               ("phi", state.phi), ("pressure", state.pressure))
    velocity = np.asarray(state.velocity, dtype=float)
    if velocity.shape != (len(tris), 2):
        raise ValidationError("velocity shape %s does not match the mesh"
                              % (velocity.shape,), field="velocity")
    pair = "%s %s 0\n" % (FLOAT_FORMAT, FLOAT_FORMAT)
    with open(path, "w") as handle:
        handle.write("# vtk DataFile Version 3.0\n")
        handle.write("snpp fields t=%s\n" % _fmt(state.t))
        handle.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        handle.write("POINTS %d double\n" % len(points))
        handle.write(_rows(pair, points))
        handle.write("CELLS %d %d\n" % (len(tris), 4 * len(tris)))
        handle.write(_rows("3 %d %d %d\n", tris))
        handle.write("CELL_TYPES %d\n" % len(tris))
        handle.write("5\n" * len(tris))
        handle.write("POINT_DATA %d\n" % len(points))
        for name, values in scalars:
            handle.write("SCALARS %s double 1\nLOOKUP_TABLE default\n" % name)
            handle.write(_rows(FLOAT_FORMAT + "\n",
                               np.asarray(values, dtype=float)))
        handle.write("CELL_DATA %d\n" % len(tris))
        handle.write("VECTORS velocity double\n")
        handle.write(_rows(pair, velocity))


def write_manifest(path, payload):
    """Write the run manifest (config echo, tool version, wall time)."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
