#!/usr/bin/env python3
"""Benchmark of the gpdwell CLI: three workloads, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each pass of a workload runs its commands through ``gpdwell.cli.main`` in a
fresh interpreter (perfbench/measure.py) with GPDWELL_THREADS=2 and one BLAS
thread, then checks every output it wrote. With ``--trace 0`` the run first
times set-up (a fresh interpreter importing gpdwell.cli and building the
parser) several times, then repeats passes for about S seconds and reports
medians of the end-to-end metrics named in BENCHMARK.json. With ``--trace 1``
it makes an untraced 1-worker pass, an untraced 2-worker pass and a traced
1-worker pass, and reports the per-layer metrics of the traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable table and the environment. Every result is also written to
.bench_build/perfbench/results/. Output digests are kept in
.bench_build/perfbench/digests.json: a digest that differs from an earlier
run of the same source tree, workload and seed fails that command's
operations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
WORKERS = 2  # GPDWELL_THREADS of the measured passes, the core count of the reference box
SETUP_PROBES = 5
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
PROBE_CODE = "import gpdwell.cli as cli; cli.build_parser()"


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _import_program():
    sys.path.insert(0, str(SRC))
    try:
        import gpdwell.cli
    except ImportError as exc:
        raise BenchError(f"cannot import gpdwell from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(gpdwell.cli.__file__).resolve().parents:
        raise BenchError(f"gpdwell was imported from {gpdwell.cli.__file__}, not {SRC}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of a git checkout at ROOT, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env(threads: int) -> dict:
    env = dict(os.environ, **BLAS_ENV, GPDWELL_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], env: dict, deadline: float) -> None:
    """Run a child in its own process group; kill the group if time runs out.

    The wait blocks instead of polling, because ``Popen.wait(timeout)``
    polls in steps of up to 50 ms, which would quantise the set-up times.
    """
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    if code == -signal.SIGKILL and time.monotonic() >= deadline:
        raise BenchError(f"{argv[1]} ran past the run deadline")
    if code != 0:
        raise BenchError(f"{' '.join(argv[1:])} exited with code {code}")


def setup_probe(deadline: float) -> float:
    t0 = time.perf_counter()
    run_child([sys.executable, "-c", PROBE_CODE], child_env(WORKERS), deadline)
    return time.perf_counter() - t0


class Run:
    """One benchmark run of a workload: passes, checks and determinism."""

    def __init__(self, workload: str, seed: int, trace: bool):
        from workloads import WORKLOADS  # needs gpdwell, so only after _import_program

        self.workload, self.seed, self.trace = workload, seed, trace
        self.commands = WORKLOADS[workload](seed)
        self.source = source_digest()
        self.workdir = WORK / f"{workload}-seed{seed}-{os.getpid()}"
        self.store_path = WORK / "digests.json"
        self.store = json.loads(self.store_path.read_text()) if self.store_path.exists() else {}
        self.checked: dict[tuple, tuple] = {}  # (name, code, digest) -> (flags, bad)
        self.attempted = self.failed = 0
        self.passes: list[dict] = []
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def _key(self, command) -> str:
        return f"{self.source}|{self.workload}|{self.seed}|{' '.join(command.argv)}"

    def one_pass(self, threads: int, traced: bool = False) -> dict:
        from workloads import check_output

        k = len(self.passes)
        outdir = self.workdir / f"pass{k}"
        outdir.mkdir(parents=True, exist_ok=True)
        spec = {"outdir": str(outdir), "trace": traced,
                "commands": [[list(c.argv), f"{c.name}.csv"] for c in self.commands],
                "result": str(outdir / "result.json"),
                "spans": str(WORK / "traces" / f"{self.workload}-seed{self.seed}.jsonl")}
        if traced:  # never read the spans of an earlier run
            Path(spec["spans"]).parent.mkdir(parents=True, exist_ok=True)
            Path(spec["spans"]).unlink(missing_ok=True)
        (outdir / "spec.json").write_text(json.dumps(spec))
        t0 = time.monotonic()
        run_child([sys.executable, str(HERE / "measure.py"), str(outdir / "spec.json")],
                  child_env(threads), self.deadline)
        result = json.loads((outdir / "result.json").read_text())

        bad, digests = 0, {}
        for command, code in zip(self.commands, result["codes"]):
            path = outdir / f"{command.name}.csv"
            digest = _header_digest(path)
            key = (command.name, code, digest)
            if key not in self.checked:  # outputs with one digest hold the same data
                self.checked[key] = check_output(command, code, path)
            flags, n_bad = self.checked[key]
            if digest is not None:
                reference = self.store.setdefault(self._key(command), digest)
                if digest != reference:
                    print(f"perfbench: {command.name} digest {digest} differs from "
                          f"{reference} of an earlier pass or run", file=sys.stderr)
                    flags = [False] * len(flags)
            if not all(flags):
                print(f"perfbench: {command.name}: {flags.count(False)} of {len(flags)} "
                      f"operations failed (exit code {code})", file=sys.stderr)
            self.attempted += len(flags)
            self.failed += flags.count(False)
            bad += n_bad
            digests[command.name] = digest
        shutil.rmtree(outdir)
        record = {"threads": threads, "traced": traced, "seconds": time.monotonic() - t0,
                  "bad_doublets": bad, "digests": digests,
                  "spans": spec["spans"] if traced else None, **result}
        self.passes.append(record)
        return record

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        stored = json.loads(self.store_path.read_text()) if self.store_path.exists() else {}
        stored.update(self.store)
        self.store_path.write_text(json.dumps(stored, indent=0, sort_keys=True))


def _header_digest(path: Path) -> str | None:
    """The '# sha256:' data digest from an output's header, without parsing the rows."""
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith("# sha256: "):
                    return line[len("# sha256: "):].strip()
                if not line.startswith("#"):
                    break
    except OSError:
        pass
    return None


def measure_end_to_end(run: Run, seconds: float) -> dict:
    setup = [setup_probe(run.deadline) for _ in range(SETUP_PROBES)]
    t0 = time.monotonic()
    while True:
        run.one_pass(WORKERS)
        typical = statistics.median(p["seconds"] for p in run.passes)
        if time.monotonic() - t0 + typical > seconds:
            break
    med = {key: statistics.median(p[key] for p in run.passes)
           for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    return {**med, "setup_s": statistics.median(setup), "setup_probes_s": setup}


def measure_layers(run: Run) -> dict:
    from tracing import layer_metrics, read_spans

    serial = run.one_pass(1)
    parallel = run.one_pass(WORKERS)
    traced = run.one_pass(1, traced=True)
    if traced["missing_bindings"]:  # a later refactor renamed a traced function
        print(f"perfbench: not traced (binding gone): {traced['missing_bindings']}",
              file=sys.stderr)
    metrics = layer_metrics(read_spans(traced["spans"]))
    metrics["observables.bad_doublets"] = traced["bad_doublets"]
    metrics["cli.fanout_efficiency"] = serial["wall_s"] / (WORKERS * parallel["wall_s"])
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_ratio"] = traced["wall_s"] / serial["wall_s"]
    metrics["trace.self_sum_frac"] = metrics.pop("trace.self_sum_s") / traced["wall_s"]
    return metrics


def environment(run: Run) -> dict:
    import numpy
    import scipy

    return {"workload": run.workload, "seed": run.seed, "trace": int(run.trace),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "gpdwell_threads": sorted({p["threads"] for p in run.passes}),
            "blas_threads": BLAS_ENV, "commit": git_commit(), "source_sha256": run.source}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    run = Run(workload, seed, trace)
    try:
        values = measure_layers(run) if trace else measure_end_to_end(run, seconds)
    finally:
        run.close()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{workload:15s} {name:28s} {metric['value']:>14.6g} {metric['unit']}")
    failed_frac = run.failed / run.attempted
    print(f"{workload:15s} {'failed_frac':28s} {failed_frac:>14.6g} fraction "
          f"({run.failed} of {run.attempted} operations)")
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record = {"env": environment(run), "failed_frac": failed_frac,
              "all_values": values, "passes": run.passes, **result}
    out = WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    print("env " + json.dumps(record["env"], sort_keys=True))
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*names, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time of one end-to-end run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
        WORK.mkdir(parents=True, exist_ok=True)
        chosen = names if args.workload == "all" else [args.workload]
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), spec)
                   for w in chosen}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[chosen[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{name}": m for w, r in results.items()
                             for name, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
