"""Spans around gpdwell's public functions, and the per-layer metrics made from them.

The tracer replaces each public function at the name its caller looks it up
by (``gpdwell.scf.lowest_eigenpairs`` rather than
``gpdwell.eigensolver.lowest_eigenpairs``), so the program itself is not
changed. A span records its name, start, end, parent span and request id;
one request is one CLI command. Counts come only from arguments and return
values. Spans stay in memory until the traced process writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import time

# Layer names are the package modules; grid is too cheap to be its own layer,
# so its time stays in the self time of whichever layer calls it.
LAYERS = ("cli", "critical", "scf", "eigensolver", "hamiltonian",
          "observables", "semiclassics", "dynamics", "wigner")


def _domain_growths(grid, result) -> int:
    return round(math.log(result.state.grid.L / grid.L) / math.log(1.5))


def _count_solve(args, kwargs, result, exc):
    grid = args[0] if args else kwargs["grid"]
    if exc is not None:
        partial = getattr(exc, "result", None)  # MaxIterationsExceeded carries one
        if partial is None:
            return {}
        return {"iterations": partial.iterations, "unconverged": 1,
                "domain_growths": _domain_growths(grid, partial)}
    return {"iterations": result.iterations,
            "domain_growths": _domain_growths(grid, result)}


def _count_pairs(args, kwargs, result, exc):
    return {"pairs": args[1] if len(args) > 1 else kwargs["k"]}


def _count_cn(args, kwargs, result, exc):
    return {"cn_steps": args[4] if len(args) > 4 else kwargs["steps"]}


def _count_rk4(args, kwargs, result, exc):
    return {} if exc else {"rk4_steps": len(result.times) - 1}


def _count_cells(args, kwargs, result, exc):
    return {} if exc else {"cells": int(result.values.size)}


def _count_bytes(args, kwargs, result, exc):
    path = args[0] if args else kwargs["path"]
    return {} if exc else {"bytes": os.path.getsize(path)}


# (module the caller looks the name up in, attribute, span name, counter)
BINDINGS = (
    ("gpdwell.cli", "main", "cli.main", None),
    ("gpdwell.cli", "write_csv", "cli.write_csv", _count_bytes),
    ("gpdwell.cli", "find_critical_a", "critical.find_critical_a", None),
    ("gpdwell.cli", "fit_quadratic", "critical.fit_quadratic", None),
    ("gpdwell.cli", "solve_state", "scf.solve_state", _count_solve),
    ("gpdwell.critical", "solve_state", "scf.solve_state", _count_solve),
    ("gpdwell.scf", "solve_state", "scf.solve_state", _count_solve),
    ("gpdwell.cli", "solve_spectrum", "scf.solve_spectrum", None),
    ("gpdwell.scf", "lowest_eigenpairs", "eigensolver.lowest_eigenpairs", _count_pairs),
    ("gpdwell.eigensolver", "eigh_tridiagonal", "eigensolver.eigh_tridiagonal", None),
    ("gpdwell.scf", "assemble", "hamiltonian.assemble", None),
    ("gpdwell.dynamics", "assemble", "hamiltonian.assemble", None),
    ("gpdwell.scf", "_fill_energy", "observables.energy", None),
    ("gpdwell.scf", "parity_of", "observables.parity_of", None),
    ("gpdwell.cli", "overlap_matrix", "observables.overlap_matrix", None),
    ("gpdwell.cli", "transmission", "semiclassics.transmission", None),
    ("gpdwell.cli", "classical_trajectory", "semiclassics.classical_trajectory", _count_rk4),
    ("gpdwell.cli", "lyapunov_exponent", "semiclassics.lyapunov_exponent", None),
    ("gpdwell.cli", "coherent_state", "dynamics.coherent_state", None),
    ("gpdwell.cli", "propagate", "dynamics.propagate", _count_cn),
    ("gpdwell.cli", "fotoc", "dynamics.fotoc", None),
    ("gpdwell.cli", "default_fit_window", "dynamics.default_fit_window", None),
    ("gpdwell.cli", "growth_rate", "dynamics.growth_rate", None),
    ("gpdwell.cli", "wigner_transform", "wigner.wigner_transform", _count_cells),
    ("gpdwell.cli", "negativity", "wigner.negativity", None),
)


class Tracer:
    """Records nested spans in memory; ``install`` wraps the bindings above."""

    def __init__(self):
        self.spans: list[dict] = []
        self.request = 0
        self._stack: list[int] = []
        self.missing: list[str] = []

    def install(self) -> None:
        for module_name, attr, span_name, counter in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(span_name, fn, counter))

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name,
                    "parent": stack[-1] if stack else None,
                    "request": self.request, "start": time.perf_counter()}
            spans.append(span)
            stack.append(span["id"])
            result, exc = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                span["error"] = type(err).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if counter is not None:
                    span["counts"] = counter(args, kwargs, result, exc)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and self times from one traced pass.

    A span's self time is its duration minus that of its direct children;
    calls are synchronous, so the children lie inside the parent's interval.
    """
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    self_time = dict(dur)
    for s in spans:
        if s["parent"] is not None:
            self_time[s["parent"]] -= dur[s["id"]]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name, key):
        return sum(s.get("counts", {}).get(key, 0) for s in named(name))

    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer_self[s["name"].split(".", 1)[0]] += self_time[s["id"]]
    lapack = named("eigensolver.eigh_tridiagonal")

    points = named("critical.find_critical_a")
    point_ids = {s["id"] for s in points}
    critical_solves = [s for s in named("scf.solve_state") if s["parent"] in point_ids]
    solves = named("scf.solve_state")

    return {
        "critical.solves_per_point": len(critical_solves) / len(points) if points else 0.0,
        "critical.self_s": layer_self["critical"],
        "scf.solves": len(solves),
        "scf.iterations": total("scf.solve_state", "iterations"),
        "scf.iterations_max": max((s.get("counts", {}).get("iterations", 0) for s in solves),
                                  default=0),
        "scf.domain_growths": total("scf.solve_state", "domain_growths"),
        "scf.unconverged": total("scf.solve_state", "unconverged"),
        "scf.self_s": layer_self["scf"],
        "eigensolver.calls": len(named("eigensolver.lowest_eigenpairs")),
        "eigensolver.pairs": total("eigensolver.lowest_eigenpairs", "pairs"),
        "eigensolver.self_s": layer_self["eigensolver"] - sum(self_time[s["id"]] for s in lapack),
        "eigensolver.lapack_s": sum(dur[s["id"]] for s in lapack),
        "hamiltonian.assemble_calls": len(named("hamiltonian.assemble")),
        "hamiltonian.assemble_s": sum(dur[s["id"]] for s in named("hamiltonian.assemble")),
        "observables.self_s": layer_self["observables"],
        "semiclassics.rk4_steps": total("semiclassics.classical_trajectory", "rk4_steps"),
        "semiclassics.self_s": layer_self["semiclassics"],
        "dynamics.cn_steps": total("dynamics.propagate", "cn_steps"),
        "dynamics.propagate_s": sum(dur[s["id"]] for s in named("dynamics.propagate")),
        "dynamics.fotoc_s": sum(dur[s["id"]] for s in named("dynamics.fotoc")),
        "wigner.cells": total("wigner.wigner_transform", "cells"),
        "wigner.self_s": layer_self["wigner"],
        "cli.write_csv_s": sum(dur[s["id"]] for s in named("cli.write_csv")),
        "cli.bytes_written": total("cli.write_csv", "bytes"),
        "cli.self_s": layer_self["cli"],
        "trace.spans": len(spans),
        "trace.self_sum_s": sum(self_time.values()),
    }
