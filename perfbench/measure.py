"""One pass of a workload, measured in a fresh interpreter.

Usage: python3 perfbench/measure.py SPEC.json

SPEC holds the argv of each command, the directory the outputs go to, where
to write the result, and whether to trace. The commands go to
``gpdwell.cli.main`` back to back from this one process (a closed loop with
one client). The result records each exit code, the wall time from the first
command to the last output written, the CPU time of this process and of its
finished workers, and peak resident memory. Interpreter start-up and the
gpdwell import happen before the clock starts; run.py times them as setup_s.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import gpdwell.cli  # from src/ of the checkout, which run.py puts on PYTHONPATH

    tracer = None
    if spec["trace"]:
        from tracing import Tracer  # this script's directory is on sys.path
        tracer = Tracer()
        tracer.install()

    out = Path(spec["outdir"])
    codes, ends = [], []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for request, (argv, output) in enumerate(spec["commands"]):
        if tracer is not None:
            tracer.request = request
        try:
            codes.append(gpdwell.cli.main([*argv, "--output", str(out / output)]))
        except Exception:  # a crash fails this command's operations, not the pass
            traceback.print_exc()
            codes.append(-1)
        ends.append(time.perf_counter())
    wall = ends[-1] - t0
    cpu = _cpu_s() - cpu0

    # ru_maxrss is in KiB on Linux. RUSAGE_CHILDREN gives the largest
    # finished worker, so the sum bounds this process plus one worker.
    peak_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"codes": codes, "wall_s": wall, "cpu_s": cpu,
              "command_s": [b - a for a, b in zip([t0, *ends], ends)],
              "peak_rss_mb": peak_kib / 1024.0}
    if tracer is not None:
        tracer.write(spec["spans"])
        result["missing_bindings"] = tracer.missing
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
