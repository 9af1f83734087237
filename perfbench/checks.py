"""Output checks for the benchmark's workloads.

Each check reads the files a run wrote and either recomputes a quantity
apart from the program (mass, charge and divergence from the VTK nodal
fields, with the benchmark's own lumped mass) or tests a property the
method must have (error decay with eps, tensor symmetry, isotropy and
the Wiener bounds).  A check returns a list of problems; an empty list
means the outputs passed.
"""

import csv
import glob
import hashlib
import json
import math
import os

import numpy as np

ERROR_COLUMNS = ("e_c_plus", "e_c_minus", "e_phi", "e_v")
ISOTROPY_TOL = 1e-10
POROSITY_GAP = 0.01
MASS_TOL = 1e-9
CHARGE_TOL = 1e-12
DIVERGENCE_TOL = 1e-8


def check_study(path, eps_list):
    """study.csv lists the scales in order and every error falls with eps."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    problems = []
    eps = [float(row["eps"]) for row in rows]
    if eps != sorted(eps_list, reverse=True):
        problems.append("study.csv lists scales %s, expected %s"
                        % (eps, sorted(eps_list, reverse=True)))
    for column in ERROR_COLUMNS:
        values = [float(row[column]) for row in rows]
        if not all(math.isfinite(v) and v > 0 for v in values):
            problems.append("%s holds a non-positive or non-finite error: %s"
                            % (column, values))
        elif any(b >= a for a, b in zip(values, values[1:])):
            problems.append("%s does not decrease strictly with eps: %s"
                            % (column, values))
    return problems


def check_coefficients(path, radius):
    """Porosity of the meshed disk cell and the two effective tensors.

    The file stores the upper triangle of each tensor, so the tensor it
    describes is symmetric; the check tests that it is isotropic, as the
    centred disk requires, and positive definite, and that the diffusion
    tensor lies within the Wiener bounds 0 < D <= porosity I.
    """
    values = {}
    with open(path) as handle:
        for line in handle:
            key, _, text = line.strip().partition("=")
            values[key] = float(text)
    problems = []
    porosity = values["porosity"]
    disk = 1.0 - math.pi * radius ** 2
    if not disk <= porosity <= disk * (1.0 + POROSITY_GAP):
        problems.append("porosity %.17g is not within [%.17g, %.17g]"
                        % (porosity, disk, disk * (1.0 + POROSITY_GAP)))
    for name in ("D", "K"):
        a11, a12, a22 = (values[name + k] for k in ("11", "12", "22"))
        tensor = np.array([[a11, a12], [a12, a22]])
        scale = max(abs(a11), abs(a22))
        if abs(a11 - a22) > ISOTROPY_TOL * scale \
                or abs(a12) > ISOTROPY_TOL * scale:
            problems.append("%s is not isotropic: %s"
                            % (name, tensor.tolist()))
        low, high = np.linalg.eigvalsh(tensor)
        if not low > 0:
            problems.append("%s is not positive definite: eigenvalues %g, %g"
                            % (name, low, high))
        if name == "D" and high > porosity:
            problems.append("D exceeds the Wiener bound porosity = %.17g: "
                            "largest eigenvalue %.17g" % (porosity, high))
    return problems


def read_vtk(path):
    """Points, triangles, point scalars and cell vectors of a snpp VTK file."""
    with open(path) as handle:
        lines = handle.read().split("\n")

    def block(start, count):
        return np.array(" ".join(lines[start:start + count]).split(),
                        dtype=float).reshape(count, -1)

    data = {"scalars": {}}
    i = 0
    while i < len(lines):
        words = lines[i].split()
        if not words:
            i += 1
            continue
        if words[0] == "POINTS":
            count = int(words[1])
            data["points"] = block(i + 1, count)[:, :2]
            i += 1 + count
        elif words[0] == "CELLS":
            count = int(words[1])
            data["triangles"] = block(i + 1, count)[:, 1:].astype(int)
            i += 1 + count
        elif words[0] == "SCALARS":
            count = len(data["points"])
            data["scalars"][words[1]] = block(i + 2, count)[:, 0]
            i += 2 + count
        elif words[0] == "VECTORS":
            count = len(data["triangles"])
            data["velocity"] = block(i + 1, count)[:, :2]
            i += 1 + count
        else:
            i += 1
    return data


def _geometry(data):
    """Triangle areas and the gradients of the three hat functions."""
    p = data["points"][data["triangles"]]
    opposite = np.roll(p, 1, axis=1) - np.roll(p, -1, axis=1)
    a, b = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area2 = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    grads = np.stack([-opposite[..., 1], opposite[..., 0]], axis=-1) \
        / area2[:, None, None]
    return 0.5 * np.abs(area2), grads


def lumped_mass(data):
    """Nodal lumped mass: a third of the area of every adjacent triangle."""
    areas, _ = _geometry(data)
    mass = np.zeros(len(data["points"]))
    np.add.at(mass, data["triangles"].ravel(), np.repeat(areas / 3.0, 3))
    return mass


def divergence_residual(data):
    """Largest weak divergence integral(v . grad phi_i) over all nodes,
    relative to the largest sum of the magnitudes of its terms.

    The velocity is written as triangle means and a hat gradient is
    constant on a triangle, so each term is exact for the quadratic
    velocity.  Wall nodes are included: a velocity with a normal
    component on a wall leaves a residual there.
    """
    areas, grads = _geometry(data)
    terms = areas[:, None] * np.einsum("td,tkd->tk", data["velocity"], grads)
    residual = np.zeros(len(data["points"]))
    size = np.zeros(len(data["points"]))
    np.add.at(residual, data["triangles"].ravel(), terms.ravel())
    np.add.at(size, data["triangles"].ravel(), np.abs(terms).ravel())
    return float(np.max(np.abs(residual)) / max(np.max(size), 1e-300))


def check_micro(directory, lam):
    """Snapshots conserve mass, stay neutral and bounded, and the final
    velocity is discretely divergence-free and non-trivial."""
    paths = sorted(glob.glob(os.path.join(directory, "micro_*.vtk")))
    if len(paths) < 2:
        return ["expected at least two micro_*.vtk snapshots, found %d"
                % len(paths)]
    problems = []
    masses = []
    for path in paths:
        data = read_vtk(path)
        mass = lumped_mass(data)
        c_plus = data["scalars"]["c_plus"]
        c_minus = data["scalars"]["c_minus"]
        total = float(mass @ (c_plus + c_minus))
        charge = float(mass @ (c_plus - c_minus))
        masses.append(total)
        name = os.path.basename(path)
        if abs(charge) > CHARGE_TOL * total:
            problems.append("%s: net charge %.3e is not zero (mass %.6g)"
                            % (name, charge, total))
        for species, values in (("c_plus", c_plus), ("c_minus", c_minus)):
            if not (np.min(values) >= 0.0 and np.max(values) <= lam):
                problems.append("%s: %s leaves [0, %g]: [%.17g, %.17g]"
                                % (name, species, lam, np.min(values),
                                   np.max(values)))
    drift = max(abs(m - masses[0]) for m in masses) / masses[0]
    if drift > MASS_TOL:
        problems.append("mass drifts by %.3e relative (tolerance %.0e)"
                        % (drift, MASS_TOL))
    if not np.any(data["velocity"]):
        problems.append("final velocity is identically zero")
    residual = divergence_residual(data)
    if residual > DIVERGENCE_TOL:
        problems.append("final velocity has relative weak divergence %.3e "
                        "(tolerance %.0e)" % (residual, DIVERGENCE_TOL))
    return problems


def digest_files(paths):
    """SHA-256 of each file, keyed by its base name."""
    out = {}
    for path in paths:
        with open(path, "rb") as handle:
            out[os.path.basename(path)] = hashlib.sha256(
                handle.read()).hexdigest()
    return out


def check_repeat(store_path, key, record):
    """Compare a record with the one stored under key by an earlier run.

    The first run of a key stores its record; every later run must
    reproduce it exactly.  Used for CSV digests and trace counts.
    """
    store = {}
    if os.path.exists(store_path):
        with open(store_path) as handle:
            store = json.load(handle)
    earlier = store.get(key)
    if earlier is None:
        store[key] = record
        tmp = store_path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(store, handle, indent=1, sort_keys=True)
        os.replace(tmp, store_path)
        return []
    return ["%s differs from an earlier run: %s != %s" % (name, record.get(
        name), earlier.get(name)) for name in sorted(set(earlier) | set(
            record)) if record.get(name) != earlier.get(name)]
