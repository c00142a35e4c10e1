#!/usr/bin/env python3
"""The repo benchmark: host time of the simulator, end to end and by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload prim-bulk --seed 1 --seconds 22
    python3 perfbench/run.py --workload prim-bulk --trace 1
    python3 perfbench/run.py --workload all            # every workload,
                                                       # untraced + traced
    python3 perfbench/run.py --workload prim-bulk --seed 7 --record-reference

A run drives the simulator through its public API only (``VPim``,
``vm_session``, ``ExecutionSession.run``, ``DpuSet``, the metrics
registry) and never changes ``src/``.  Every timing is *host* time, what
the simulator takes; ``modeled_s`` values are what the simulated
UPMEM/vPIM stack would take.  ``harness.py`` describes the cycle
structure, ``workloads.py`` the workloads, ``ledger.py`` the per-layer
tracing, and ``README.md`` which layer metric should move which
end-to-end metric.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` sessions, and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer ones).  The lines before it
print every metric by name with its unit and sample count.  A run exits
1 when a session fails or, traced, when the named layers explain less
than 95% of traced session time; it exits 2 when the simulator cannot be
imported.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("prim-bulk", "prim-kernel", "prim-smallop",
                  "tenants-overcommit")


def _parse(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Host-time benchmark of the vPIM simulator.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the recorded default)")
    parser.add_argument("--seconds", type=float, default=22.0,
                        help="measure for this long (whole cycles)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--record-reference", action="store_true",
                        help="run two cycles and record their modeled "
                             "outputs as the reference for this seed")
    return parser.parse_args(argv)


def _print_metrics(rows) -> None:
    for name, value, unit, note in rows:
        print(f"  {name:<40} {value:>16.6g} {unit:<10} {note}")


def run_one(args, harness) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seed = harness.DEFAULT_SEED if args.seed is None else args.seed
    if args.record_reference:
        return record(harness, workload, seed)

    checker = harness.Checker(workload, seed)
    perfetto = None
    if args.trace:
        perfetto = str(HERE / "out" / f"{workload.name}-seed{seed}"
                       ".trace.json")
        Path(perfetto).parent.mkdir(parents=True, exist_ok=True)
    samples = harness.run(workload, seed, args.seconds, trace=bool(args.trace),
                          perfetto=perfetto, checker=checker)
    ref = "recorded" if checker.recorded else "none recorded: self-checked"
    print(f"{workload.name}  seed={seed} (reference {ref})  "
          f"cycles={samples.cycles}  trace={args.trace}")
    for failure in samples.failures[:20]:
        print(f"  FAILED {failure}")

    correct = samples.failed == 0
    if args.trace:
        metrics = harness.per_layer(samples)
        unattributed = metrics["unattributed.share"][0]
        if unattributed > harness.MAX_UNATTRIBUTED:
            print(f"  FAILED unattributed.share {unattributed:.4f} > "
                  f"{harness.MAX_UNATTRIBUTED}")
            correct = False
        _print_metrics([(k, v, u, "") for k, (v, u) in metrics.items()])
        print(f"  traced passes: {len(samples.steady_traces)} steady, "
              f"{len(samples.cold_traces)} cold; spans -> {perfetto}")
    else:
        e2e = harness.end_to_end(samples)
        _print_metrics([(k, v, u, f"n={n}") for k, (v, u, n) in e2e.items()])
        metrics = {k: (v, u) for k, (v, u, _) in e2e.items()
                   if k != "error_rate"}
    print(json.dumps({
        "correct": correct,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def record(harness, workload, seed: int) -> int:
    """Run two cycles and store their modeled outputs as the reference."""
    checker = harness.Checker(workload, seed)
    checker.expected.clear()
    samples = harness.run(workload, seed, 0, checker=checker)
    if samples.failed:
        for failure in samples.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        return 1
    path = harness.reference_path(workload.name)
    data = (json.loads(path.read_text()) if path.exists()
            else {"workload": workload.name, "seeds": {}})
    data["sessions"] = samples.labels
    data["steady_passes"] = workload.steady_passes
    data["seeds"][str(seed)] = {"passes": checker.passes(data["sessions"])}
    data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv:
                                int(kv[0])))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n")
    print(f"recorded {workload.name} seed {seed} -> {path}")
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    status = 0
    table = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            status = max(status, proc.returncode)
            if not trace and lines:
                result = json.loads(lines[-1])
                rate = result["failed"] / max(1, result["attempted"])
                table.append((name, result, rate))
    print("\nend-to-end (host time; lower is better)")
    for name, result, rate in table:
        cells = [f"{k}={m['value']:.4g}{m['unit']}"
                 for k, m in result["metrics"].items()]
        print(f"  {name:<20} " + "  ".join(cells) +
              f"  error_rate={rate:g} ({result['failed']}/"
              f"{result['attempted']})")
    return status


#: Environment every run measures under.  numpy advises transparent huge
#: pages for large arrays, and whether the kernel grants them varies from
#: run to run (peak RSS of prim-smallop read 245 or 329 MB), so runs use
#: 4 KiB pages.  The workloads run in one process with no extra threads,
#: so BLAS is single-threaded too.
PINNED_ENV = {"NUMPY_MADVISE_HUGEPAGE": "0", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1"}


def main(argv=None) -> int:
    if argv is None and any(os.environ.get(k) != v
                            for k, v in PINNED_ENV.items()):
        env = dict(os.environ, **PINNED_ENV)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import harness
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from src/: {exc}",
              file=sys.stderr)
        return 2
    return run_one(args, harness)


if __name__ == "__main__":
    sys.exit(main())
