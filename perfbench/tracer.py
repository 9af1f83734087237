"""Per-layer spans around the public entry points of the snpp modules.

The tracer wraps functions from outside the package: every reference
to a wrapped function in a loaded ``snpp`` module is replaced by a
timing wrapper, so calls through ``from .mesh import ...`` names are
caught as well as calls through the module attribute.  Spans are kept
in memory as (name, start, end, payload) tuples and reduced to the
per-layer metrics once the run has finished.  Wrappers only append to a
list, which is safe from the threads that ``snpp converge --fast`` runs.
"""

import functools
import os
import sys
import time

# Per-layer metrics with their units.  Counts repeat exactly between two
# runs of the same code and config; times do not.
METRICS = {
    "fem.factorizations": "count",
    "fem.factor_s": "s",
    "fem.transport_steps": "count",
    "fem.transport_s": "s",
    "fem.stokes_solves": "count",
    "fem.stokes_solve_s": "s",
    "fem.stokes_build_s": "s",
    "fem.convection_calls": "count",
    "fem.convection_s": "s",
    "fem.interpolated_points": "count",
    "fem.interpolate_s": "s",
    "mesh.build_s": "s",
    "output.write_s": "s",
    "output.bytes": "B",
    "cell.coefficients_s": "s",
    "verify.compare_s": "s",
    "macro.run_s": "s",
    "macro.sweeps": "count",
    "micro.sweeps": "count",
    "micro.eps2.run_s": "s",
    "micro.eps4.run_s": "s",
    "micro.eps8.run_s": "s",
    "micro.eps16.run_s": "s",
    "verify.scale_overlap": "ratio",
}
COUNTS = tuple(name for name, unit in METRICS.items()
               if unit in ("count", "B"))


def _sweeps(result):
    return sum(int(row["fp_iters"]) for row in result[1])


class Tracer:
    """Collects spans from wrapped snpp functions in this process."""

    def __init__(self):
        self.spans = []

    def _wrap(self, name, func, payload=None):
        spans = self.spans

        @functools.wraps(func)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            result = func(*args, **kwargs)
            end = time.perf_counter()
            spans.append((name, start, end,
                          payload(args, result) if payload else None))
            return result

        return traced

    def _patch(self, func, wrapper):
        for module_name, module in list(sys.modules.items()):
            if module_name != "snpp" and not module_name.startswith("snpp."):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapper)

    def install(self):
        """Wrap the traced entry points of the imported snpp modules."""
        from scipy.sparse.linalg import splu

        from snpp import cell, fem, macro, mesh, micro, output, verify

        functions = [
            ("factor", splu, None),
            ("transport", fem.step_reacting_pair, None),
            ("convection", fem.assemble_convection, None),
            ("interpolate", fem.p1_interpolate,
             lambda args, result: len(result)),
            ("mesh", mesh.generate_perforated_mesh, None),
            ("mesh", mesh.generate_unit_cell_mesh, None),
            ("cell", cell.compute_effective_coefficients, None),
            ("macro", macro.run_macro,
             lambda args, result: _sweeps(result)),
            ("micro", micro.run_micro,
             lambda args, result: (args[0].domain.eps, _sweeps(result))),
            ("study", verify.run_convergence_study, None),
        ]
        # The manifest carries a timestamp and the wall time, so its size
        # changes from run to run; only the result files are counted.
        for writer in (output.write_study_csv, output.write_coefficients,
                       output.write_diagnostics_csv, output.write_vtk):
            functions.append(("write", writer,
                              lambda args, result: os.path.getsize(args[0])))
        for name, func, payload in functions:
            self._patch(func, self._wrap(name, func, payload))
        stokes = fem.StokesOperator
        stokes.__init__ = self._wrap("stokes_build", stokes.__init__)
        stokes.solve = self._wrap("stokes_solve", stokes.solve)

    def metrics(self):
        """Reduce the recorded spans to the per-layer metric values."""
        count = {}
        busy = {}
        for name, start, end, _ in self.spans:
            count[name] = count.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + (end - start)

        def spans(*names):
            return [s for s in self.spans if s[0] in names]

        out = {
            "fem.factorizations": count.get("factor", 0),
            "fem.factor_s": busy.get("factor", 0.0),
            "fem.transport_steps": count.get("transport", 0),
            "fem.transport_s": busy.get("transport", 0.0),
            "fem.stokes_solves": count.get("stokes_solve", 0),
            "fem.stokes_solve_s": busy.get("stokes_solve", 0.0),
            "fem.stokes_build_s": busy.get("stokes_build", 0.0),
            "fem.convection_calls": count.get("convection", 0),
            "fem.convection_s": busy.get("convection", 0.0),
            "fem.interpolated_points":
                sum(p for *_, p in spans("interpolate")),
            "fem.interpolate_s": busy.get("interpolate", 0.0),
            "mesh.build_s": busy.get("mesh", 0.0),
            "output.write_s": busy.get("write", 0.0),
            "output.bytes": sum(p for *_, p in spans("write")),
            "cell.coefficients_s": busy.get("cell", 0.0),
            "macro.run_s": busy.get("macro", 0.0),
            "macro.sweeps": sum(p for *_, p in spans("macro")),
            "micro.sweeps": sum(p[1] for *_, p in spans("micro")),
        }
        for cells in (2, 4, 8, 16):
            out["micro.eps%d.run_s" % cells] = 0.0
        for _, start, end, (eps, _) in spans("micro"):
            name = "micro.eps%d.run_s" % round(1.0 / eps)
            out[name] = out.get(name, 0.0) + (end - start)

        # Scale phase: the macro run and the pore-scale runs.  Busy time
        # over the wall span is 1 when they run one after another and
        # grows with the number of runs that overlap.
        scale = spans("macro", "micro")
        if scale:
            first = min(s[1] for s in scale)
            last = max(s[2] for s in scale)
            out["verify.scale_overlap"] = \
                sum(s[2] - s[1] for s in scale) / (last - first)
        else:
            out["verify.scale_overlap"] = 0.0

        # Comparison phase of a study: from the end of its last scale run
        # to the return of the study.
        compare = 0.0
        for _, start, end, _ in spans("study"):
            inner = [s[2] for s in scale if start <= s[1] and s[2] <= end]
            compare += end - (max(inner) if inner else start)
        out["verify.compare_s"] = compare
        return {name: int(value) if name in COUNTS else float(value)
                for name, value in out.items()}
