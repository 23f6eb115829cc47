"""One round of one workload in a fresh interpreter.

    python3 bench/one_round.py --workload NAME --seed N --launched T
        [--trace 0|1] [--setup-only] [--size full|tiny]

``T`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is shared by all processes on the machine), so set-up
time counts interpreter start, the import of ``oligorep`` and the
generation of the workload's inputs.  The round then times the workload's
operations, untraced with the speed kernel of ``speed`` running beside them
(``wall_s`` and ``norm_wall_s``), records peak resident memory, runs the
checks, and prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def import_program():
    """Import oligorep from this checkout's sources and nowhere else."""
    src = ROOT / "src"
    if not (src / "oligorep" / "__init__.py").is_file():
        raise SystemExit(f"no oligorep sources under {src}")
    sys.path.insert(0, str(src))
    import oligorep
    if Path(oligorep.__file__).resolve().parent != src / "oligorep":
        raise SystemExit(f"imported oligorep from {oligorep.__file__}")


def run_round(workload, seed, size="full", trace=False, launched=None,
              setup_only=False):
    """Set up and run one round in this process; return its result dict."""
    import workloads
    OUT.mkdir(exist_ok=True)
    job = workloads.WORKLOADS[workload](seed, size, OUT)
    result = {"setup_s": time.monotonic() - launched if launched else None}
    if setup_only:
        job.close()
        return result
    recorder = workloads.Recorder()
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        if tracer:
            start = time.perf_counter()
            job.run(recorder)
            result["wall_s"] = time.perf_counter() - start
        else:
            with speed.Speedometer() as meter:
                job.run(recorder)
            result["wall_s"] = meter.wall_s()
            result["norm_wall_s"] = meter.norm_wall_s()
    finally:
        if tracer:
            tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    try:
        attempted, failed, problems = recorder.judge()
    finally:
        job.close()
    result.update(attempted=attempted, failed=failed, correct=failed == 0,
                  problems=problems)
    if tracer:
        result["layers"] = tracer.metrics()
        result["layer_self_s"] = tracer.layer_self_times()
        spans = OUT / f"spans-{workload}-seed{seed}-{time.time_ns()}.jsonl"
        tracer.write(spans)
        result["spans"] = str(spans.relative_to(ROOT))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    import_program()
    result = run_round(args.workload, args.seed, args.size, bool(args.trace),
                       args.launched, args.setup_only)
    for problem in result.get("problems", ()):
        print(problem, file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
