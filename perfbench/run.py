"""The repository's benchmark: end-to-end and per-layer metrics of the repro stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload files-hard --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``nbl-paper``   -- the paper's sampled NBL engine on its five instances;
* ``files-large`` -- large easy DIMACS files through the batch runtime;
* ``files-hard``  -- small hard DIMACS files through the batch runtime;
* ``service-mix`` -- NDJSON over TCP to a ``repro serve`` subprocess.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (from timing wrappers
installed around each layer's entry points) with ``--trace 1``.  Every
answer is checked independently; a wrong one counts as failed.  Lines
before it are a human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("nbl-paper", "files-large", "files-hard", "service-mix")


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_one(args) -> int:
    import workloads

    work_dir = os.path.join(ROOT, ".perfbench_run", f"{args.workload}-{os.getpid()}")
    trace = bool(args.trace)
    try:
        if args.workload == "nbl-paper":
            run = workloads.run_nbl(ROOT, args.seed, args.seconds, trace, args.cycles)
        elif args.workload == "service-mix":
            run = workloads.run_service(
                ROOT, args.seed, args.seconds, trace, work_dir, args.requests
            )
        else:
            run = workloads.run_files(
                ROOT, args.workload, args.seed, args.seconds, trace, work_dir, args.cycles
            )
    finally:
        workloads.cleanup(work_dir)

    spec = _load_spec()
    e2e = {} if trace else workloads.end_to_end(run)
    print(f"workload {run.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {len(run.ops)}  failed {run.failed}")
    for entry in run.extra.get("manifest", []):
        print(f"  corpus {entry['name']}: {entry['variables']} vars, {entry['clauses']} "
              f"clauses, expect {entry['expect']} -- {entry['why']}")
    for op in run.ops:
        if op.error:
            print(f"  FAILED {op.slot} (cycle {op.cycle}): {op.error}")
    if "oversize" in run.extra:
        print(f"  oversized request (> 64 KiB, own connection): {run.extra['oversize']}")
    if run.workload == "service-mix":
        late = sorted(run.extra["lateness_ms"]) or [0.0]
        print(f"  open loop {workloads.OPEN_LOOP_RPS} req/s, closed loop window "
              f"{workloads.CLOSED_WINDOW}, cold share {run.extra['cold_share']:.2f}, "
              f"generator late p50 {late[len(late) // 2]:.3f} ms max {late[-1]:.3f} ms")
    for name, (value, unit) in e2e.items():
        print(f"  {name:24s} {value:14.6g} {unit}")

    if trace:
        layers = workloads.per_layer(run)
        for name, (value, unit) in layers.items():
            print(f"  {name:32s} {value:14.6g} {unit}")
        print("  time share by layer (self time):")
        for layer, share in workloads.layer_shares(run).items():
            print(f"    {layer:24s} {share:7.1%}")
        wanted = [m["name"] for m in spec["per_layer"]]
        metrics = {n: {"value": layers[n][0], "unit": layers[n][1]} for n in wanted}
    else:
        wanted = [m["name"] for m in spec["end_to_end"]]
        metrics = {n: {"value": e2e[n][0], "unit": e2e[n][1]} for n in wanted}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": len(run.ops),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; print each report in turn."""
    failed = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = subprocess.call(cmd, cwd=ROOT)
        failed += code != 0
        print(flush=True)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cycles", type=int, default=None,
                        help="in-process workloads: run exactly this many corpus "
                             "passes instead of --seconds (repeatable counts)")
    parser.add_argument("--requests", type=int, default=None,
                        help="service-mix: send exactly this many requests one at "
                             "a time instead of the timed phases (repeatable counts)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources under {ROOT}/src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
