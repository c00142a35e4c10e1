"""Host-time ledger: per-layer self time from the benchmark's own files.

The ledger times the simulator's layers without touching ``src/``: at
run time it replaces the public functions listed in :data:`LAYERS` with
thin timing wrappers, records one span per call (name, layer, start,
end, parent) in memory, and puts every original attribute back on
:meth:`Ledger.uninstall`.  A span's *self time* is its duration minus
the durations of the wrapped calls directly under it, so the self times
of one traced session add up exactly to the session's host time.

Only sessions opened with :meth:`Ledger.session` are recorded; wrapped
calls outside them (set-up, teardown, untraced passes) run the original
function behind a single flag check.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Layer of the root span the benchmark opens around each timed session.
#: Its self time is the part of the session no named layer covers.
ROOT_LAYER = "unattributed"

#: ``layer -> [(module, owner, attributes)]``; ``owner`` is a class name
#: or ``None`` for a module-level binding.  Module bindings are patched
#: where the caller looks them up, so ``run_program`` is wrapped as
#: ``repro.driver.driver`` sees it and ``compile_plan`` as the frontend
#: sees it.
LAYERS: Dict[str, List[Tuple[str, Optional[str], Tuple[str, ...]]]] = {
    "core.session": [("repro.core.session", "ExecutionSession", ("run",))],
    # The apps' verify methods are per class; the workload adds them
    # (see ``Ledger.add``) because the set of apps varies.
    "apps.verify": [],
    "sdk.dpu_set": [("repro.sdk.dpu_set", "DpuSet", (
        "load", "push", "push_to", "push_from", "push_to_mram",
        "push_from_mram", "copy_to", "copy_from", "copy_to_mram",
        "copy_from_mram", "broadcast_to", "launch", "ci_ops", "free"))],
    "sdk.kernel": [("repro.driver.driver", None, ("run_program",))],
    "virt.frontend": [("repro.virt.frontend", "VUpmemFrontend", (
        "write", "read", "load", "launch", "ci_ops", "release"))],
    "virt.plans.compile": [("repro.virt.frontend", None, ("compile_plan",))],
    "virt.plans.replay": [("repro.virt.plans", "TransferPlan", ("replay",))],
    "virt.backend": [("repro.virt.backend", "VUpmemBackend", ("process",))],
    "virt.transfer_cache": [("repro.virt.transfer_cache",
                             "ExtentDigestIndex",
                             ("lookup", "insert", "prune"))],
    "driver": [("repro.driver.driver", "PerfModeMapping", (
        "write", "write_pinned", "read", "load", "launch", "ci_ops"))],
    "hardware.rank": [("repro.hardware.rank", "Rank", (
        "write_mram", "write_mram_pinned", "read_mram", "launch", "reset"))],
    "paging": [("repro.paging.pager", "RankPager",
                ("resolve", "prefault", "create", "release"))],
    "qos": [("repro.qos.flow", "QosFlow", ("on_kick", "on_bus"))],
    "observability.spans": [("repro.observability.spans", "SpanRecorder",
                             ("begin", "event", "end"))],
}

_MISSING = object()


@dataclass
class LayerTotals:
    """One layer's share of a set of traced sessions."""

    calls: int = 0
    self_ns: int = 0


class Ledger:
    """Patches the layers, records spans, and restores on exit."""

    def __init__(self) -> None:
        #: ``[name, layer, start_ns, end_ns, parent_index]`` per call.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._recording = False
        self._patches: List[Tuple[object, str, object]] = []
        #: ``(layer, owner, attribute)`` triples :meth:`install` wraps.
        self.targets: List[Tuple[str, object, str]] = [
            (layer, _resolve(module, owner), attr)
            for layer, sites in LAYERS.items()
            for module, owner, attrs in sites
            for attr in attrs]

    def add(self, layer: str, owner: object, attr: str) -> None:
        """Wrap one more attribute (before :meth:`install`)."""
        if (layer, owner, attr) not in self.targets:
            self.targets.append((layer, owner, attr))

    # -- patching -------------------------------------------------------------

    def install(self) -> "Ledger":
        for layer, owner, attr in self.targets:
            own = vars(owner).get(attr, _MISSING)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, own))
            setattr(owner, attr, self._wrap(layer, attr, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, own in reversed(self._patches):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._patches.clear()

    def __enter__(self) -> "Ledger":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            rec = [name, layer, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return timed

    # -- recording ------------------------------------------------------------

    def session(self, name: str) -> "_Session":
        """Context manager: record one timed session under a root span."""
        return _Session(self, name)

    def totals(self, first: int = 0) -> Dict[str, LayerTotals]:
        """Per-layer calls and self time of the spans from ``first`` on.

        ``first`` must start a session (as returned by :meth:`mark`), so
        every parent of a span in the range is in it too.
        """
        spans = self.spans[first:]
        child_ns = [0] * len(spans)
        for rec in spans:
            parent = rec[4] - first
            if parent >= 0:
                child_ns[parent] += rec[3] - rec[2]
        out: Dict[str, LayerTotals] = {}
        for rec, inner in zip(spans, child_ns):
            entry = out.setdefault(rec[1], LayerTotals())
            if rec[1] != ROOT_LAYER:
                entry.calls += 1
            entry.self_ns += rec[3] - rec[2] - inner
        return out

    def mark(self) -> int:
        """Index of the next span: delimits :meth:`totals` ranges."""
        return len(self.spans)

    def session_ns(self, first: int = 0) -> int:
        """Summed host time of the root spans from ``first`` on."""
        return sum(rec[3] - rec[2] for rec in self.spans[first:]
                   if rec[1] == ROOT_LAYER)

    def write_perfetto(self, path: str) -> None:
        """Chrome/Perfetto trace-event JSON of every recorded span.

        Nesting is implied by time containment on the single track.
        """
        base = self.spans[0][2] if self.spans else 0
        events = [{"name": name, "cat": layer, "ph": "X", "pid": 1,
                   "tid": 1, "ts": round((start - base) / 1e3, 3),
                   "dur": round((end - start) / 1e3, 3)}
                  for name, layer, start, end, _ in self.spans]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh,
                      separators=(",", ":"))


class _Session:
    def __init__(self, ledger: Ledger, name: str) -> None:
        self.ledger = ledger
        self.name = name

    def __enter__(self) -> None:
        ledger = self.ledger
        ledger._recording = True
        ledger._stack.append(len(ledger.spans))
        ledger.spans.append(
            [self.name, ROOT_LAYER, time.perf_counter_ns(), 0, -1])

    def __exit__(self, *exc) -> None:
        ledger = self.ledger
        ledger.spans[ledger._stack.pop()][3] = time.perf_counter_ns()
        ledger._recording = False


def _resolve(module: str, owner: Optional[str]) -> object:
    mod = importlib.import_module(module)
    return mod if owner is None else getattr(mod, owner)
