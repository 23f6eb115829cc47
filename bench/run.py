"""Benchmark of oligorep: four workloads, each round in a fresh interpreter.

One run:

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

starts ``SETUP_PROBES`` interpreters that only set up, then runs rounds of
the workload, each in a fresh interpreter: as many as fit in ``S`` seconds
at the workload's reference round time ``ROUND_S``, and at least one.  The
count depends only on ``S``, so every run of a workload takes the median
over the same number of rounds.  It prints one line per round
on standard error, and as the last line of standard output a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run first runs one untraced round, prints the
per-layer table and reports the tracing overhead as the traced ``wall_s``
minus the untraced one.

Repeat mode, for judging steadiness:

    python3 bench/run.py --repeat 10 --seconds S [--workload W ...]

runs each workload once per seed 1..10 and prints, for every end-to-end
metric, the median, the quartiles and the spread (IQR / median).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("catalog", "lattice", "cosets", "kazhdan")
SETUP_PROBES = 5
# Reference wall_s of one round, in seconds (bench/README.md).  A lattice
# round cannot be split: its S5 sweep alone takes about 32 s.
ROUND_S = {"catalog": 12, "lattice": 40, "cosets": 6, "kazhdan": 18}
ROUND_TIMEOUT_S = 170
END_TO_END = {"setup_s": "s", "norm_wall_s": "s", "peak_rss_mb": "MB"}


def child(workload, seed, trace=False, setup_only=False, size="full"):
    """Run bench/one_round.py in a fresh interpreter; return its result."""
    cmd = [sys.executable, str(BENCH / "one_round.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--size", size]
    if setup_only:
        cmd.append("--setup-only")
    launched = time.monotonic()
    proc = subprocess.run(cmd + ["--launched", repr(launched)], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=ROUND_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"round of {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def run(workload, seed, seconds, trace=False, size="full"):
    """One run: the result object it prints as its last line."""
    return measure(workload, seed, seconds, trace, size)[0]


def measure(workload, seed, seconds, trace=False, size="full"):
    """One run: its result object and the results of its rounds."""
    setups = [child(workload, seed, setup_only=True, size=size)["setup_s"]
              for _ in range(SETUP_PROBES)]
    untraced = child(workload, seed, size=size) if trace else None
    rounds = []
    for _ in range(max(1, int(seconds // ROUND_S[workload]))):
        result = child(workload, seed, trace=trace, size=size)
        rounds.append(result)
        setups.append(result["setup_s"])
        print(f"round {len(rounds)}: wall_s={result['wall_s']:.4f} "
              f"norm_wall_s={result.get('norm_wall_s', 0):.4f} "
              f"setup_s={result['setup_s']:.4f} "
              f"peak_rss_mb={result['peak_rss_mb']:.1f} "
              f"failed={result['failed']}/{result['attempted']}",
              file=sys.stderr)
    out = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }
    if trace:
        names = rounds[0]["layers"]
        out["metrics"] = {
            name: {"value": statistics.median(
                r["layers"][name]["value"] for r in rounds),
                "unit": names[name]["unit"]}
            for name in names}
        traced_wall = statistics.median(r["wall_s"] for r in rounds)
        print_layers(workload, rounds, traced_wall, untraced["wall_s"])
    else:
        out["metrics"] = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "norm_wall_s": {"value": statistics.median(
                r["norm_wall_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    return out, rounds


def print_layers(workload, rounds, traced_wall, untraced_wall):
    """The per-layer table of a traced run, on standard output."""
    last = rounds[-1]
    print(f"per-layer metrics, workload {workload}, median of "
          f"{len(rounds)} traced round(s)")
    for name, metric in sorted(last["layers"].items()):
        value = statistics.median(r["layers"][name]["value"] for r in rounds)
        print(f"  {name:32s} {value:14.4f} {metric['unit']}")
    print("self time by module, last round")
    for module, took in sorted(last["layer_self_s"].items(),
                               key=lambda kv: -kv[1]):
        print(f"  {module:32s} {took:14.4f} s")
    print(f"traced wall_s {traced_wall:.4f} s, untraced wall_s "
          f"{untraced_wall:.4f} s, tracing overhead "
          f"{traced_wall - untraced_wall:.4f} s "
          f"({(traced_wall / untraced_wall - 1) * 100:.1f}%)")
    print(f"spans: {last['spans']}")


def repeat(workloads, count, seconds):
    """Run each workload once per seed and print each metric's spread."""
    for workload in workloads:
        values = {name: [] for name in (*END_TO_END, "wall_s")}
        shares = set()
        for seed in range(1, count + 1):
            out, rounds = measure(workload, seed, seconds)
            for name in END_TO_END:
                values[name].append(out["metrics"][name]["value"])
            values["wall_s"].append(statistics.median(
                r["wall_s"] for r in rounds))
            shares.add(out["failed"] / out["attempted"])
            print(f"{workload} seed {seed}: " + json.dumps(out), flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload:8s} {name:12s} median {med:10.4f} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread "
                  f"{(q3 - q1) / med:7.4f}", flush=True)
        print(f"{workload:8s} failed shares {sorted(shares)}", flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="runs per workload, seeds 1..N")
    args = parser.parse_args(argv)
    if args.repeat:
        repeat(args.workload or WORKLOADS, args.repeat, args.seconds)
        return 0
    if not args.workload or len(args.workload) != 1:
        parser.error("a run takes exactly one --workload")
    print(json.dumps(run(args.workload[0], args.seed, args.seconds,
                         bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
