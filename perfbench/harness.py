"""Runs one workload for a time budget and turns its samples into metrics.

A run repeats *cycles* until ``seconds`` have passed (at least two):

1. set-up: generate inputs from the seed, build the machine, boot the
   VMs, open the DPU sets (``setup_s``);
2. the cold pass: every session once on the fresh machine, which pays
   plan compiles, lazy MRAM materialization and first-touch frames
   (``cold_pass_s``);
3. ``steady_passes`` steady passes over the same warm sessions
   (``pass_s``; each session is one ``session_ms`` sample).

The first cycle also warms the process up (lazy imports, and the first
page faults of a heap later cycles recycle: its cold pass reads 30%
slower on prim-bulk), so its set-up and cold pass are checked but not
reported; ``setup_s`` and ``cold_pass_s`` are those of a fresh machine
in a warm process.

Every session is checked: it fails if it raises, if its CPU-reference
verification fails, or if its modeled outputs differ from the reference
recorded for that seed (``reference/<workload>.json``).  For a seed with
no recorded reference, the first cycle's outputs become the reference
of the later cycles, so a run still proves the model deterministic.

With ``trace`` on, the same cycles run, but the cold pass and every
second steady pass are traced by the :class:`~ledger.Ledger`; the other
steady passes stay untraced and give the denominator of
``trace_overhead``.  All timings are in calibrated seconds (see
:func:`calibrated`).
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from ledger import LAYERS, ROOT_LAYER, Ledger  # noqa: E402
from workloads import Cycle, Workload  # noqa: E402

REFERENCE_DIR = HERE / "reference"
#: The seed the benchmark defaults to, and one kept for checking claims
#: on inputs not used while writing a change.  Both have references.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

#: Layers that run in the steady passes of every workload; only these
#: report a steady ``self_s`` (a layer that never runs would report an
#: exact 0).  The others report calls and share, and plan compiles their
#: cold-pass self time.
TIMED_LAYERS = ("core.session", "apps.verify", "sdk.dpu_set", "sdk.kernel",
                "virt.frontend", "virt.plans.replay", "virt.backend",
                "driver", "hardware.rank", "observability.spans")
#: Unattributed share of traced session time above which a traced run
#: fails: the named layers must explain at least 95% of it.
MAX_UNATTRIBUTED = 0.05

#: Registry counters summed over all label sets, read after the first
#: cycle (one cold pass plus the steady passes).
COUNTERS = {
    "plan_hits": "repro_plan_cache_hits_total",
    "plan_misses": "repro_plan_cache_misses_total",
    "batched_writes": "repro_frontend_batched_writes_total",
    "prefetch_refills": "repro_frontend_prefetch_refills_total",
    "xlb_hits": "repro_xlb_hits_total",
    "xlb_misses": "repro_xlb_misses_total",
    "bufpool_reuse": "repro_bufpool_reuse_total",
    "suppressed_bytes": "repro_xfer_cache_suppressed_bytes_total",
    "swap_bytes": "repro_paging_swap_bytes_total",
    "evictions": "repro_paging_evictions_total",
}


# -- references ---------------------------------------------------------------

def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int) -> Optional[dict]:
    path = reference_path(workload)
    if not path.exists():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


class Checker:
    """Compares each session's modeled outputs with the reference."""

    def __init__(self, workload: Workload, seed: int) -> None:
        ref = load_reference(workload.name, seed)
        self.recorded = ref is not None
        self.expected: Dict[Tuple[int, int], str] = {}
        if ref is not None:
            for p, records in enumerate(ref["passes"]):
                for s, record in enumerate(records):
                    self.expected[(p, s)] = record

    def check(self, pass_index: int, session: int, outcome) -> Optional[str]:
        """``None`` when the session is correct, else why it is not."""
        if not outcome.verified:
            return "CPU-reference verification failed"
        want = self.expected.setdefault((pass_index, session),
                                        outcome.record)
        if want != outcome.record:
            diff = [f"{a} != {b}" for a, b in zip(outcome.record.split(),
                                                  want.split()) if a != b]
            return "modeled outputs differ from the reference: " + \
                "; ".join(diff or ["record length"])
        return None

    def passes(self, labels) -> List[List[str]]:
        """The reference as stored: records per pass, per session."""
        nr = 1 + max(p for p, _ in self.expected)
        return [[self.expected[(p, s)] for s in range(len(labels))]
                for p in range(nr)]


# -- samples ------------------------------------------------------------------

@dataclass
class PassTrace:
    """Per-layer totals of one traced pass."""

    session_ns: int
    layers: Dict[str, Tuple[int, int]]   #: layer -> (calls, self ns)
    #: Calibrated over raw host time of the pass, to calibrate self times.
    scale: float = 1.0


@dataclass
class RunSamples:
    """Calibrated host times and checks of one run."""

    setup_s: List[float] = field(default_factory=list)
    cold_pass_s: List[float] = field(default_factory=list)
    pass_s: List[float] = field(default_factory=list)
    traced_pass_s: List[float] = field(default_factory=list)
    session_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    cycles: int = 0
    labels: List[str] = field(default_factory=list)
    cold_traces: List[PassTrace] = field(default_factory=list)
    steady_traces: List[PassTrace] = field(default_factory=list)
    #: First cycle only: counters (with vmexits), and the modeled
    #: segments of the first traced steady pass.  (Set-up and cold-pass
    #: times skip the first cycle, see the module doc.)
    counters: Dict[str, float] = field(default_factory=dict)
    modeled: Dict[str, float] = field(default_factory=dict)
    #: High-water RSS at the end of the first cycle.  Later cycles only
    #: add allocator fragmentation from rebuilding the same machine.
    peak_rss_mb: float = 0.0


# -- calibration --------------------------------------------------------------

#: The host this benchmark runs on shares its cores with other machines,
#: and its speed drifts by up to 30% within a minute.  So a fixed
#: pure-Python loop brackets every measured interval, and the interval's
#: user CPU time is scaled by ``CAL_REF_S`` over the loop's mean time
#: around it; system time (page faults: a third of prim-bulk's host time)
#: and waiting are kept as they are.  The sum is the interval in
#: *calibrated seconds*: on a host that runs the loop in ``CAL_REF_S``
#: (an idle 2-vCPU Xeon, Python 3.11), calibrated seconds are host
#: seconds.  Scaling system time by a page-faulting loop as well did not
#: steady the runs further.
CAL_ITERATIONS = 100_000
CAL_REF_S = 0.004


def calibrate() -> float:
    """Host seconds of the calibration loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CAL_ITERATIONS):
        x += i
    return time.perf_counter() - t0


def _now() -> Tuple[float, float]:
    """Wall and user CPU seconds of this process."""
    return time.perf_counter(), resource.getrusage(
        resource.RUSAGE_SELF).ru_utime


def calibrated(start, end, before: float, after: float) -> float:
    """Calibrated seconds between two :func:`_now` readings, given the
    :func:`calibrate` readings taken before and after them."""
    wall, user = end[0] - start[0], end[1] - start[1]
    return user * 2 * CAL_REF_S / (before + after) + max(0.0, wall - user)


@dataclass
class PassResult:
    seconds: float = 0.0                 #: summed calibrated session time
    raw_seconds: float = 0.0
    vmexits: int = 0
    segments: Dict[str, float] = field(default_factory=dict)
    trace: Optional[PassTrace] = None


def _timed(call, ledger: Optional[Ledger], label: str):
    """``(raw output or the exception raised, start, end)``."""
    if ledger is None:
        start = _now()
        try:
            raw = call()
        except Exception as exc:  # noqa: BLE001 - a failed session
            raw = exc
        return raw, start, _now()
    with ledger.session(label):
        return _timed(call, None, label)


def _run_pass(cycle: Cycle, pass_index: int, checker: Checker,
              samples: RunSamples,
              ledger: Optional[Ledger] = None) -> PassResult:
    """One pass over every session, checked; traced when given a ledger."""
    result = PassResult()
    before = calibrate()
    for s, label in enumerate(cycle.labels):
        samples.attempted += 1
        raw, start, end = _timed(cycle.session(s), ledger, label)
        after = calibrate()
        result.raw_seconds += end[0] - start[0]
        dt = calibrated(start, end, before, after)
        before = after
        try:
            if isinstance(raw, Exception):
                raise raw
            outcome = cycle.outcome(s, raw)
        except Exception as exc:  # noqa: BLE001 - a failed session
            samples.failed += 1
            samples.failures.append(f"pass {pass_index} {label}: "
                                    f"{type(exc).__name__}: {exc}")
            continue
        result.seconds += dt
        if pass_index > 0 and ledger is None:
            samples.session_s.append(dt)
        error = checker.check(pass_index, s, outcome)
        if error is not None:
            samples.failed += 1
            samples.failures.append(f"pass {pass_index} {label}: {error}")
        result.vmexits += outcome.vmexits
        for name, value in outcome.segments.items():
            result.segments[name] = result.segments.get(name, 0.0) + value
    return result


def _traced_pass(cycle: Cycle, pass_index: int, checker: Checker,
                 samples: RunSamples, ledger: Ledger) -> PassResult:
    for layer, owner, attr in cycle.traced_methods():
        ledger.add(layer, owner, attr)
    first = ledger.mark()
    with ledger:
        result = _run_pass(cycle, pass_index, checker, samples, ledger)
    result.trace = PassTrace(
        session_ns=ledger.session_ns(first),
        layers={layer: (t.calls, t.self_ns)
                for layer, t in ledger.totals(first).items()},
        scale=result.seconds / result.raw_seconds)
    return result


#: Set-up repeats within a cycle until it has taken this long, so that a
#: short set-up (76 ms on prim-smallop) still gives a steady median.
SETUP_MIN_S = 0.5


def _build(workload: Workload, seed: int, samples: RunSamples,
           record: bool) -> Cycle:
    """Set up one cycle, timing each set-up when ``record``."""
    spent = 0.0
    while True:
        before = calibrate()
        start = _now()
        cycle = workload.build(seed)
        end = _now()
        if not record:
            return cycle
        samples.setup_s.append(calibrated(start, end, before, calibrate()))
        spent += end[0] - start[0]
        if spent >= SETUP_MIN_S:
            return cycle
        cycle.close()
        del cycle
        gc.collect()


def run_cycle(workload: Workload, seed: int, checker: Checker,
              samples: RunSamples, ledger: Optional[Ledger] = None) -> None:
    """Set up one fresh machine and run its cold and steady passes.

    With a ledger, the cold pass and every second steady pass are
    traced: the even ones in even cycles, the odd ones in odd cycles, so
    traced and untraced passes sit at the same positions on average.
    """
    first_cycle = samples.cycles == 0
    cycle = _build(workload, seed, samples, record=not first_cycle)
    samples.labels = list(cycle.labels)
    vmexits = 0
    try:
        for p in range(1 + workload.steady_passes):
            traced = p == 0 or (p + samples.cycles) % 2 == 0
            if ledger is not None and traced:
                result = _traced_pass(cycle, p, checker, samples, ledger)
                (samples.cold_traces if p == 0
                 else samples.steady_traces).append(result.trace)
            else:
                result = _run_pass(cycle, p, checker, samples)
            vmexits += result.vmexits
            if p == 0:
                if not first_cycle:
                    samples.cold_pass_s.append(result.seconds)
            elif result.trace is None:
                samples.pass_s.append(result.seconds)
            else:
                samples.traced_pass_s.append(result.seconds)
                if first_cycle and p == 2:
                    samples.modeled = result.segments
        if first_cycle:
            registry = cycle.vpim.machine.metrics
            samples.counters = {
                key: registry.get(family).total() if family in registry else 0
                for key, family in COUNTERS.items()}
            samples.counters["vmexits"] = vmexits
            samples.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        cycle.close()
        samples.cycles += 1


def run(workload: Workload, seed: int, seconds: float, trace: bool = False,
        perfetto: Optional[str] = None,
        checker: Optional[Checker] = None) -> RunSamples:
    """Cycles of ``workload`` until ``seconds`` have passed (at least 2)."""
    checker = checker or Checker(workload, seed)
    samples = RunSamples()
    ledger = Ledger() if trace else None
    kept: list = []
    start = time.perf_counter()
    while True:
        gc.collect()
        run_cycle(workload, seed, checker, samples, ledger)
        if ledger is not None:
            # The Perfetto file holds the first cycle: its cold pass and
            # its first traced steady pass.
            if samples.cycles == 1:
                kept = list(ledger.spans)
            ledger.spans.clear()
        if samples.cycles >= 2 and time.perf_counter() - start >= seconds:
            break
    if ledger is not None and perfetto is not None:
        ledger.spans = kept
        ledger.write_perfetto(perfetto)
    return samples


# -- metrics ------------------------------------------------------------------

def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q``% at or below."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(samples: RunSamples) -> Dict[str, Tuple[float, str, int]]:
    """``name -> (value, unit, samples)`` of the untraced run."""
    sessions = samples.session_s
    return {
        "pass_s": (statistics.median(samples.pass_s), "s",
                   len(samples.pass_s)),
        "session_ms_p50": (statistics.median(sessions) * 1e3, "ms",
                           len(sessions)),
        "session_ms_p90": (percentile(sessions, 90) * 1e3, "ms",
                           len(sessions)),
        "cold_pass_s": (statistics.median(samples.cold_pass_s), "s",
                        len(samples.cold_pass_s)),
        "setup_s": (statistics.median(samples.setup_s), "s",
                    len(samples.setup_s)),
        "peak_rss_mb": (samples.peak_rss_mb, "MB", 1),
        "error_rate": (samples.failed / max(1, samples.attempted), "ratio",
                       samples.attempted),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(samples: RunSamples) -> Dict[str, Tuple[float, str]]:
    """``name -> (value, unit)`` of the traced run.

    Calls come from the first traced steady pass, so they repeat exactly
    for a seed; self times and shares are medians over the traced steady
    passes; counters cover the first cycle.
    """
    steady = samples.steady_traces
    first = steady[0]
    out: Dict[str, Tuple[float, str]] = {}

    def median_over(fn) -> float:
        return statistics.median(fn(t) for t in steady)

    for layer in LAYERS:
        out[f"{layer}.calls"] = (first.layers.get(layer, (0, 0))[0], "count")
        if layer in TIMED_LAYERS:
            out[f"{layer}.self_s"] = (median_over(
                lambda t: t.layers.get(layer, (0, 0))[1] * t.scale / 1e9),
                "s")
        out[f"{layer}.share"] = (median_over(
            lambda t: t.layers.get(layer, (0, 0))[1] / t.session_ns),
            "ratio")
    # Plans compile in the cold pass; its time skips the warm-up cycle.
    compile_layer = "virt.plans.compile"
    cold = samples.cold_traces
    out[f"{compile_layer}.cold_calls"] = (
        cold[0].layers.get(compile_layer, (0, 0))[0], "count")
    out[f"{compile_layer}.cold_self_s"] = (statistics.median(
        t.layers.get(compile_layer, (0, 0))[1] * t.scale / 1e9
        for t in cold[1:]), "s")
    out["unattributed.share"] = (median_over(
        lambda t: t.layers.get(ROOT_LAYER, (0, 0))[1] / t.session_ns),
        "ratio")
    out["trace_overhead"] = (statistics.median(samples.traced_pass_s)
                             / statistics.median(samples.pass_s) - 1,
                             "ratio")

    c = samples.counters
    plan_lookups = c["plan_hits"] + c["plan_misses"]
    xlb_lookups = c["xlb_hits"] + c["xlb_misses"]
    out["virt.plans.hit_ratio"] = (_ratio(c["plan_hits"], plan_lookups),
                                   "ratio")
    out["virt.plans.lookups"] = (plan_lookups, "count")
    out["virt.kvm.vmexits"] = (c["vmexits"], "count")
    out["virt.frontend.batched_writes"] = (c["batched_writes"], "count")
    out["virt.frontend.prefetch_refills"] = (c["prefetch_refills"], "count")
    out["virt.backend.xlb_hit_ratio"] = (_ratio(c["xlb_hits"], xlb_lookups),
                                         "ratio")
    out["virt.backend.xlb_lookups"] = (xlb_lookups, "count")
    out["hardware.bufpool.reuse"] = (c["bufpool_reuse"], "count")
    out["virt.transfer_cache.suppressed_bytes"] = (c["suppressed_bytes"],
                                                   "bytes")
    out["paging.swap_bytes"] = (c["swap_bytes"], "bytes")
    out["paging.evictions"] = (c["evictions"], "count")
    for segment in ("CPU-DPU", "DPU", "Inter-DPU", "DPU-CPU"):
        key = "modeled." + segment.lower().replace("-", "_") + "_s"
        out[key] = (samples.modeled.get(segment, 0.0), "modeled_s")
    return out
