"""Produce the golden effective values for the r=0.25 disk cell.

Runs the cell problems on two fine meshes (h=0.02 and h=0.01) and stores
the Richardson extrapolation (4 v_fine - v_coarse) / 3 of each scalar
coefficient, exploiting their second-order convergence.  The output file
tests/fixtures/golden_r025.json is committed and used as the regression
reference; re-run this script only when the discretization changes on
purpose.
"""

import json
import logging
import pathlib
import time

from snpp import cell
from snpp.mesh import DiskInclusion, UnitCellGeometry, generate_unit_cell_mesh

logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
log = logging.getLogger("golden")

RADIUS = 0.25
COARSE_H = 0.02
FINE_H = 0.01
OUT = pathlib.Path(__file__).resolve().parents[1] / "tests" / "fixtures" \
    / "golden_r025.json"


def run_once(h):
    start = time.time()
    geom = UnitCellGeometry(DiskInclusion((0.5, 0.5), RADIUS), h)
    mesh = generate_unit_cell_mesh(geom)
    scalar = cell.solve_scalar_cell_problems(mesh)
    diffusion = cell.compute_diffusion_tensor(scalar)
    flow = cell.solve_stokes_cell_problems(mesh)
    permeability = cell.compute_permeability_tensor(flow)
    wall = cell.solve_dirichlet_cell_problem(mesh)
    mean = cell.compute_dirichlet_mean(wall)
    log.info("h=%g: nodes=%d d=%.10f k=%.10e m=%.10f (%.1fs)",
             h, mesh.num_nodes, diffusion[0, 0], permeability[0, 0],
             mean, time.time() - start)
    return {
        "nodes": mesh.num_nodes,
        "d": diffusion[0, 0],
        "d_offdiag": diffusion[0, 1],
        "k": permeability[0, 0],
        "k_offdiag": permeability[0, 1],
        "m": mean,
    }


def main():
    coarse = run_once(COARSE_H)
    fine = run_once(FINE_H)
    golden = {
        "radius": RADIUS,
        "coarse_h": COARSE_H,
        "fine_h": FINE_H,
        "coarse": coarse,
        "fine": fine,
        "extrapolated": {
            key: (4.0 * fine[key] - coarse[key]) / 3.0
            for key in ("d", "k", "m")
        },
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    log.info("wrote %s", OUT)
    for key, value in golden["extrapolated"].items():
        log.info("golden %s = %.10g", key, value)


if __name__ == "__main__":
    main()
