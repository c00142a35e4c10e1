"""The four benchmark workloads, driven only through the public API.

A workload builds *cycles*.  One cycle is a fresh machine with fresh
inputs: :meth:`Workload.build` generates the inputs from the seed, builds
the ``VPim``, boots the VMs and opens the DPU sets (the benchmark's
set-up), and the cycle then exposes the sessions of one *pass*.  The
runner calls every session once for the cold pass and again for each
steady pass.  Because every cycle starts from a fresh machine, the
modeled outputs of pass ``p`` session ``s`` are the same in every cycle,
every run and every process, which is what the recorded references pin.

The seed reaches the program only through the app constructors
(``seed=``) and the tenants' input generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.figures import SIZE_PROFILES, machine_for_dpus
from repro.apps.prim.va import VaProgram
from repro.apps.registry import app_by_short_name
from repro.config import MachineConfig, RankConfig
from repro.core import VPim
from repro.paging.config import PagingConfig
from repro.qos.config import QosConfig
from repro.sdk.dpu_set import DpuSet
from repro.sdk.profile import SEGMENTS
from repro.virt.digest import content_digest
from repro.virt.opts import OptimizationConfig

NR_DPUS = 64


@dataclass
class Outcome:
    """What one session produced, for checking and per-layer counts."""

    verified: bool
    #: Modeled outputs rendered exactly (``float.hex``), space-separated
    #: ``key=value`` tokens: compared against the recorded reference.
    record: str
    segments: Dict[str, float]
    vmexits: int


def _record(total: float, profile,
            vmexits: int) -> Tuple[str, Dict[str, float]]:
    segments = {name: profile.segments.get(name, 0.0) for name in SEGMENTS}
    record = [f"total={float(total).hex()}"]
    record += [f"seg.{k}={float(v).hex()}" for k, v in segments.items()]
    record += [f"wrank.{k}={float(v).hex()}"
               for k, v in sorted(profile.wrank_steps.items())]
    record.append(f"vmexits={vmexits}")
    return " ".join(record), segments


class Cycle:
    """One fresh machine plus the sessions of a pass."""

    vpim: VPim
    #: Session labels, in pass order.
    labels: Sequence[str] = ()

    def session(self, index: int) -> Callable[[], object]:
        """The timed call of session ``index`` (returns raw output)."""
        raise NotImplementedError

    def outcome(self, index: int, raw: object) -> Outcome:
        """Turn a session's raw output into an :class:`Outcome`."""
        raise NotImplementedError

    def traced_methods(self) -> List[Tuple[str, object, str]]:
        """``(layer, owner, attribute)`` the ledger wraps for this cycle."""
        return []

    def close(self) -> None:
        pass


# -- PrIM app workloads -------------------------------------------------------

class PrimCycle(Cycle):
    """Every app of the workload in one warm vPIM VM session."""

    def __init__(self, names: Sequence[str], seed: int, profile: str) -> None:
        self.labels = tuple(names)
        self.apps = [app_by_short_name(name).cls(
                         nr_dpus=NR_DPUS, seed=seed,
                         **SIZE_PROFILES[profile][name])
                     for name in names]
        self.vpim = VPim(machine_for_dpus(NR_DPUS))
        self.vm_session = self.vpim.vm_session(nr_vupmem=1)

    def session(self, index: int) -> Callable[[], object]:
        app = self.apps[index]
        return lambda: self.vm_session.run(app)

    def outcome(self, index: int, report) -> Outcome:
        record, segments = _record(report.total_time, report.profile,
                                   report.vmexits)
        return Outcome(bool(report.verified), record, segments,
                       report.vmexits)

    def traced_methods(self) -> List[Tuple[str, object, str]]:
        return [("apps.verify", type(app), "verify") for app in self.apps]


# -- multi-tenant overcommit --------------------------------------------------

#: Tenant VMs, physical ranks, and per-tenant VA elements.
TENANTS = 4
PHYSICAL_RANKS = 2
TENANT_ELEMENTS = 1 << 20
#: Distinct arrays per input stream; the streams cycle through them.
POOL = 3


class _Tenant:
    """One VM holding a DPU set open across interleaved VA rounds.

    Each input stream (``a`` and ``b``) changes every other round, out
    of phase, so from round 1 on half of every round's input repeats the
    previous round's: the transfer cache suppresses one stream and
    misses the other.  ``a`` is pushed first and repeats first, so the
    cache's adaptive bypass sees a hit before its first miss.
    """

    def __init__(self, name: str, session, seed: int, index: int,
                 n_elements: int) -> None:
        self.name = name
        self.session = session
        self.rounds = 0
        per_dpu = n_elements // NR_DPUS
        rng = np.random.default_rng([seed, index])
        pools = [[rng.integers(-(1 << 20), 1 << 20, n_elements,
                               dtype=np.int32) for _ in range(POOL)]
                 for _ in range(2)]
        self.inputs = pools
        self.split = [[[arr[i * per_dpu:(i + 1) * per_dpu]
                        for i in range(NR_DPUS)] for arr in pool]
                      for pool in pools]
        self.per_dpu = per_dpu
        self.max_bytes = per_dpu * 4
        self.b_off = self.max_bytes
        self.c_off = 2 * self.max_bytes
        self.dpus = DpuSet(session.transport, NR_DPUS)
        self.dpus.load(VaProgram())
        self.dpus.push_to("n_elems", 0,
                          [np.array([per_dpu], np.uint32)] * NR_DPUS)
        self.dpus.broadcast_to("b_offset", 0,
                               np.array([self.b_off], np.uint32))
        self.dpus.broadcast_to("c_offset", 0,
                               np.array([self.c_off], np.uint32))

    def run_round(self):
        """One round: push inputs, launch, read, verify against the CPU."""
        r = self.rounds
        self.rounds += 1
        ia, ib = r // 2 % POOL, (r + 1) // 2 % POOL
        transport = self.session.transport
        profiler = transport.profiler
        profiler.reset()
        vmexits = self.session.vm.kvm.stats.vmexits
        start = transport.clock.now
        with profiler.segment("CPU-DPU"):
            self.dpus.push_to_mram(0, self.split[0][ia])
            self.dpus.push_to_mram(self.b_off, self.split[1][ib])
        with profiler.segment("DPU"):
            self.dpus.launch()
        with profiler.segment("DPU-CPU"):
            parts = self.dpus.push_from_mram(self.c_off, self.max_bytes)
        out = np.concatenate([p.view(np.int32) for p in parts])
        verified = self.verify(out, self.inputs[0][ia], self.inputs[1][ib])
        return (out, verified, transport.clock.now - start,
                profiler.snapshot(),
                self.session.vm.kvm.stats.vmexits - vmexits)

    def verify(self, out: np.ndarray, a: np.ndarray, b: np.ndarray) -> bool:
        return bool(np.array_equal(out, a + b))


class TenantsCycle(Cycle):
    """Four tenants on two physical ranks under paging, cache and QoS."""

    def __init__(self, seed: int, n_elements: int = TENANT_ELEMENTS) -> None:
        ranks = [RankConfig(i, NR_DPUS) for i in range(PHYSICAL_RANKS)]
        self.vpim = VPim(MachineConfig(host_cores=16,
                                       host_dram_bytes=16 << 30,
                                       ranks=ranks),
                         paging=PagingConfig(overcommit_ratio=2.0))
        self.tenants = []
        for i in range(TENANTS):
            opts = OptimizationConfig(
                cache=True, qos=QosConfig(weight=float(i + 1), enforce=True))
            session = self.vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30,
                                           opts=opts)
            self.tenants.append(_Tenant(f"tenant-{i}", session, seed, i,
                                        n_elements))
        self.labels = tuple(t.name for t in self.tenants)

    def session(self, index: int) -> Callable[[], object]:
        return self.tenants[index].run_round

    def outcome(self, index: int, raw) -> Outcome:
        out, verified, latency, profile, vmexits = raw
        record, segments = _record(latency, profile, vmexits)
        record += f" digest={content_digest(out):016x}"
        return Outcome(verified, record, segments, vmexits)

    def traced_methods(self) -> List[Tuple[str, object, str]]:
        return [("core.session", _Tenant, "run_round"),
                ("apps.verify", _Tenant, "verify")]

    def close(self) -> None:
        for tenant in self.tenants:
            tenant.dpus.free()


# -- the workload table -------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """A named cycle builder; why each exists is in ``BENCHMARK.json``."""

    name: str
    build: Callable[[int], Cycle]
    #: Steady passes per cycle, after the cold pass.
    steady_passes: int


def _prim(names: Sequence[str], profile: str = "bench"):
    return lambda seed: PrimCycle(names, seed, profile)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("prim-bulk", _prim(("VA", "GEMV", "MLP", "RED", "UNI")),
             steady_passes=2),
    Workload("prim-kernel", _prim(("BFS", "BS", "TS", "SCAN-SSA", "SEL")),
             steady_passes=2),
    Workload("prim-smallop", _prim(("NW", "TRNS", "SpMV")), steady_passes=2),
    Workload("tenants-overcommit", TenantsCycle, steady_passes=6),
)}
