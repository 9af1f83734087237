"""File formats: coefficient files, CSV tables, VTK fields, manifests."""

import csv
import json
import math

import numpy as np
import pytest

from snpp import macro, output, verify
from snpp.cell import EffectiveCoefficients
from snpp.errors import ValidationError
from snpp.mesh import (
    DiskInclusion,
    PerforatedDomain,
    UnitCellGeometry,
    generate_perforated_mesh,
    generate_unit_cell_mesh,
)

from oracles import read_coefficients, write_vtk_reference


def sample_coeffs(with_inclusion=True):
    if with_inclusion:
        return EffectiveCoefficients(
            porosity=0.8036504591506379, diffusion=np.array(
                [[0.6716303, 1.25e-17], [1.25e-17, 0.6716303]]),
            permeability=np.array([[0.0199, 3.0e-19], [3.0e-19, 0.0199]]),
            dirichlet_mean=0.0417)
    return EffectiveCoefficients(porosity=1.0, diffusion=np.eye(2),
                                 permeability=None, dirichlet_mean=None)


def sample_rows():
    return [
        {"t": 0.0, "mass": 1.0 / 3.0, "charge": 1e-17, "min_c": 0.1,
         "max_c": 0.9, "fp_iters": 1},
        {"t": 0.002, "mass": 1.0 / 3.0, "charge": 0.7e-17, "min_c": 0.1,
         "max_c": 0.9, "fp_iters": 3},
    ]


def test_coefficient_file_round_trips(tmp_path):
    path = tmp_path / "coefficients.txt"
    coeffs = sample_coeffs()
    output.write_coefficients(path, coeffs)
    lines = path.read_text().strip().split("\n")
    assert [line.split("=")[0] for line in lines] == \
        list(output.COEFFICIENT_KEYS)
    back = read_coefficients(path)
    assert back["porosity"] == coeffs.porosity
    assert back["D11"] == coeffs.diffusion[0, 0]
    assert back["D12"] == coeffs.diffusion[0, 1]
    assert back["K11"] == coeffs.permeability[0, 0]
    assert back["dirichlet_mean"] == coeffs.dirichlet_mean


def test_coefficient_file_marks_missing_quantities(tmp_path):
    path = tmp_path / "coefficients.txt"
    output.write_coefficients(path, sample_coeffs(with_inclusion=False))
    back = read_coefficients(path)
    assert back["porosity"] == 1.0
    assert math.isnan(back["K11"])
    assert math.isnan(back["K12"])
    assert math.isnan(back["dirichlet_mean"])


def test_diagnostics_csv_round_trips_exactly(tmp_path):
    path = tmp_path / "diagnostics.csv"
    rows = sample_rows()
    output.write_diagnostics_csv(path, rows)
    raw = path.read_bytes()
    assert raw.count(b"\r\n") == 3
    assert raw.startswith(b"t,mass,charge,min_c,max_c,fp_iters\r\n")
    with open(path, newline="") as handle:
        back = list(csv.DictReader(handle))
    assert len(back) == len(rows)
    for original, reread in zip(rows, back):
        for key in verify.DIAGNOSTIC_KEYS:
            assert float(reread[key]) == float(original[key])


def test_study_csv_layout_and_determinism(tmp_path):
    columns = [m.name for m in verify.MEASURES if m.column]
    study = verify.ConvergenceStudy(
        eps_list=[0.5, 0.25], h_list=[0.0625, 0.03125], coeffs=None,
        errors=dict(zip(columns, [[0.02, 0.01], [0.04, 0.012], [0.2, 0.012],
                                  [0.9, 0.6]])),
        orders=dict(zip(columns, [[math.nan, 1.0], [math.nan, 1.7],
                                  [math.nan, 4.0], [math.nan, 0.58]])),
        flags=[], monotone=True)
    path = tmp_path / "study.csv"
    output.write_study_csv(path, study)
    first = path.read_bytes()
    lines = first.decode().strip().split("\r\n")
    assert lines == ["eps,h,e_c_plus,e_c_minus,e_phi,e_v,observed_order",
                     "0.5,0.0625,0.02,0.040000000000000001,"
                     "0.20000000000000001,0.90000000000000002,nan",
                     "0.25,0.03125,0.01,0.012,0.012,0.59999999999999998,1"]
    output.write_study_csv(path, study)
    assert path.read_bytes() == first


def test_vtk_file_describes_the_mesh(tmp_path):
    mesh = generate_unit_cell_mesh(UnitCellGeometry(None, 0.25))
    rng = np.random.default_rng(3)
    state = macro.MacroState(
        mesh=mesh, t=0.125, c_plus=rng.random(mesh.num_nodes),
        c_minus=rng.random(mesh.num_nodes), phi=rng.random(mesh.num_nodes),
        pressure=rng.random(mesh.num_nodes),
        velocity=rng.random((mesh.num_triangles, 2)))
    path = tmp_path / "state.vtk"
    output.write_vtk(path, state)
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert lines[4] == "POINTS %d double" % mesh.num_nodes

    cells_at = lines.index("CELLS %d %d"
                           % (mesh.num_triangles, 4 * mesh.num_triangles))
    for row in lines[cells_at + 1:cells_at + 1 + mesh.num_triangles]:
        parts = row.split()
        assert parts[0] == "3"
        assert all(0 <= int(p) < mesh.num_nodes for p in parts[1:])
    types_at = lines.index("CELL_TYPES %d" % mesh.num_triangles)
    assert all(line == "5" for line in
               lines[types_at + 1:types_at + 1 + mesh.num_triangles])

    assert "POINT_DATA %d" % mesh.num_nodes in lines
    for name, values in (("c_plus", state.c_plus), ("phi", state.phi)):
        at = lines.index("SCALARS %s double 1" % name)
        block = lines[at + 2:at + 2 + mesh.num_nodes]
        assert np.allclose([float(v) for v in block], values, atol=0)
    at = lines.index("VECTORS velocity double")
    block = lines[at + 1:at + 1 + mesh.num_triangles]
    parsed = np.array([[float(p) for p in row.split()] for row in block])
    assert parsed.shape == (mesh.num_triangles, 3)
    assert np.all(parsed[:, 2] == 0.0)
    assert np.allclose(parsed[:, :2], state.velocity, atol=0)


def test_vtk_bytes_match_the_value_by_value_writer(tmp_path):
    domain = PerforatedDomain(
        0.25, UnitCellGeometry(DiskInclusion((0.5, 0.5), 0.25), 0.05))
    mesh = generate_perforated_mesh(domain, 1 / 32)
    rng = np.random.default_rng(7)

    def field(shape):
        # Negative, tiny, subnormal, zero, negative zero and nan values
        # among random ones.
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(
            -20, 20, size=shape)
        special = [-1e-300, 5e-324, 0.0, -0.0, np.nan, -np.inf, 1e300]
        values.flat[:len(special)] = special
        return values

    state = macro.MacroState(
        mesh=mesh, t=1 / 3, c_plus=field(mesh.num_nodes),
        c_minus=field(mesh.num_nodes), phi=field(mesh.num_nodes),
        pressure=field(mesh.num_nodes),
        velocity=field((mesh.num_triangles, 2)))
    output.write_vtk(tmp_path / "array.vtk", state)
    write_vtk_reference(tmp_path / "loop.vtk", mesh, state)
    written = (tmp_path / "array.vtk").read_bytes()
    assert b"nan" in written and b"-0\n" in written
    assert written == (tmp_path / "loop.vtk").read_bytes()


def test_vtk_rejects_mismatched_velocity(tmp_path):
    mesh = generate_unit_cell_mesh(UnitCellGeometry(None, 0.25))
    state = macro.MacroState(
        mesh=mesh, t=0.0, c_plus=np.zeros(mesh.num_nodes),
        c_minus=np.zeros(mesh.num_nodes), phi=np.zeros(mesh.num_nodes),
        pressure=np.zeros(mesh.num_nodes),
        velocity=np.zeros((3, 2)))
    with pytest.raises(ValidationError):
        output.write_vtk(tmp_path / "state.vtk", state)


def test_manifest_is_valid_json(tmp_path):
    path = tmp_path / "manifest.json"
    output.write_manifest(path, {"tool": "snpp", "version": "0.1.0",
                                 "config": {"command": "cell"}})
    back = json.loads(path.read_text())
    assert back["tool"] == "snpp"
    assert back["config"]["command"] == "cell"
