"""Recovery paths: session reruns, quarantine/repair, failover, retries."""

from unittest import mock

import pytest

from repro.apps.prim.va import VectorAdd
from repro.errors import (
    DpuFaultError,
    ManagerError,
    RankOfflineError,
    TransportCorruptionError,
)
from repro.faults import (
    CheckpointStore,
    FaultKind,
    RecoveryReport,
    failover_device,
    fault_kind_of,
    run_with_recovery,
)
from repro.hardware.rank import RankHealth
from repro.virt.manager import RankState

from tests.faults.conftest import arm_stack, schedule

APP = dict(nr_dpus=8, n_elements=1 << 12)


class TestRunWithRecovery:
    def test_rank_offline_mid_run_completes_on_replacement(self, armed):
        """The tentpole acceptance scenario: a rank dies mid-session and
        the rerun finishes on the surviving rank."""
        vpim, injector, session = armed
        schedule(injector, 1e-4, FaultKind.RANK_OFFLINE, "rank:*")
        recovery = run_with_recovery(session, VectorAdd(**APP))
        assert recovery.verified
        assert recovery.recovered
        assert recovery.attempts == 2
        assert recovery.faults == ["rank_offline"]
        dead = vpim.manager.failed_ranks()
        assert len(dead) == 1
        # The rerun's allocation skipped the FAIL rank.
        states = vpim.manager.states()
        survivors = [idx for idx in states if idx not in dead]
        assert any(states[idx] is not RankState.FAIL for idx in survivors)
        metrics = vpim.machine.metrics
        assert metrics.value("repro_fault_recovered_total",
                             kind="rank_offline", action="rerun") == 1
        assert metrics.get("repro_fault_recovery_seconds").value(
            kind="rank_offline") == 1

    def test_budget_exhaustion_raises_and_counts_the_loss(self, armed):
        vpim, injector, session = armed
        for _ in range(3):
            schedule(injector, 0.0, FaultKind.DPU_KERNEL_FAULT, "rank:*")
        with pytest.raises(DpuFaultError):
            run_with_recovery(session, VectorAdd(**APP), max_attempts=2)
        assert vpim.machine.metrics.value(
            "repro_fault_sessions_lost_total") == 1

    def test_clean_run_verifies_after_repeated_dpu_faults(self, chaos_vpim):
        """Aborted sessions on transient plans only (the cache keeps
        nothing) leave nothing behind that breaks the next clean
        session."""
        vpim, injector, session = arm_stack(chaos_vpim)
        with mock.patch("repro.virt.frontend.plan_key", lambda *args: None):
            for _ in range(3):
                schedule(injector, 0.0, FaultKind.DPU_KERNEL_FAULT, "rank:*")
                with pytest.raises(DpuFaultError):
                    session.run(VectorAdd(**APP))
            assert session.run(VectorAdd(**APP)).verified
        assert session.vm.devices[0].frontend.plans.misses == 0

    def test_unverified_report_is_retried_as_corruption(self, armed):
        """Silent bit flips surface only through verify; the rerun path
        must treat a failed verify like a fault."""
        vpim, injector, session = armed

        class Flaky:
            """First run returns garbage, second runs the real app."""

            def __init__(self):
                self.runs = 0
                self.app = VectorAdd(**APP)

            def run(self, app):
                self.runs += 1
                report = session.run(app)
                if self.runs == 1:
                    report.verified = False
                return report

            @property
            def transport(self):
                return session.transport

        flaky = Flaky()
        recovery = run_with_recovery(flaky, flaky.app)
        assert flaky.runs == 2
        assert recovery.verified
        assert recovery.faults == ["dpu_mram_bitflip"]
        assert vpim.machine.metrics.value(
            "repro_fault_detected_total",
            kind="dpu_mram_bitflip", layer="session") == 1

    def test_fault_kind_mapping(self):
        assert fault_kind_of(RankOfflineError("x")) == "rank_offline"
        assert fault_kind_of(DpuFaultError("x")) == "dpu_kernel_fault"
        assert (fault_kind_of(TransportCorruptionError("x"))
                == "transport_corruption")
        assert fault_kind_of(ValueError("x")) == "unknown"

    def test_report_dataclass_flags(self):
        class FakeReport:
            verified = True

        report = RecoveryReport(report=FakeReport(), attempts=1)
        assert report.verified and not report.recovered


class TestFrontendRetryExhaustion:
    def test_exhausted_transport_retries_invalidate_the_cache(self, armed):
        """Satellite: a failed flush/roundtrip must not leave stale
        prefetched lines behind — the next read re-fetches."""
        vpim, injector, session = armed
        frontend = session.vm.devices[0].frontend
        # One more corruption than the frontend's retry budget.
        for _ in range(frontend.max_transport_retries + 1):
            schedule(injector, 0.0, FaultKind.TRANSPORT_CORRUPTION,
                     "transport:*")
        with pytest.raises(TransportCorruptionError):
            session.run(VectorAdd(**APP))
        assert frontend.cache.nr_lines == 0
        # The whole-session rerun path still clears the incident.
        recovery = run_with_recovery(session, VectorAdd(**APP))
        assert recovery.verified

    def test_within_budget_retries_are_invisible(self, armed):
        vpim, injector, session = armed
        for _ in range(2):
            schedule(injector, 0.0, FaultKind.TRANSPORT_CORRUPTION,
                     "transport:*")
        report = session.run(VectorAdd(**APP))
        assert report.verified
        assert vpim.machine.metrics.value(
            "repro_fault_retries_total", layer="frontend") == 2


class TestManagerQuarantine:
    def test_mark_failed_then_repair_roundtrip(self, chaos_vpim):
        manager = chaos_vpim.manager
        manager.mark_failed(0)
        assert manager.failed_ranks() == [0]
        assert manager.stats.failures == 1
        chaos_vpim.machine.ranks[0].health = RankHealth.OFFLINE
        duration = manager.repair(0)
        assert duration > 0
        assert manager.failed_ranks() == []
        assert chaos_vpim.machine.ranks[0].health is RankHealth.OK
        assert manager.stats.repairs == 1

    def test_repair_refuses_healthy_ranks(self, chaos_vpim):
        with pytest.raises(ManagerError, match="NANA|NAAV|ALLO"):
            chaos_vpim.manager.repair(0)

    def test_blacklist_after_repeated_failures(self, chaos_vpim):
        manager = chaos_vpim.manager
        for _ in range(manager.blacklist_threshold):
            manager.mark_failed(0)
            if not manager.is_blacklisted(0):
                manager.repair(0)
        assert manager.is_blacklisted(0)
        with pytest.raises(ManagerError, match="blacklist"):
            manager.repair(0)

    def test_failed_ranks_never_allocated(self, chaos_vpim):
        manager = chaos_vpim.manager
        manager.mark_failed(0)
        allocated = manager.allocate("tenant-a")
        assert allocated != 0


class TestCheckpointFailover:
    def _linked_device(self, chaos_vpim):
        session = chaos_vpim.vm_session(nr_vupmem=1)
        device = session.vm.devices[0]
        session.vm.acquire_rank(device)
        return session, device

    def test_failover_without_checkpoint_relinks(self, chaos_vpim):
        session, device = self._linked_device(chaos_vpim)
        old = device.backend.mapping.rank.index
        replacement, action = failover_device(device, chaos_vpim.manager)
        assert action == "relink"
        assert replacement != old
        assert device.backend.mapping.rank.index == replacement
        assert chaos_vpim.manager.failed_ranks() == [old]

    def test_failover_with_checkpoint_restores_mram(self, chaos_vpim):
        session, device = self._linked_device(chaos_vpim)
        rank = device.backend.mapping.rank
        rank.dpus[0].mram.write(0, bytes([0xAB, 0xCD]))
        store = CheckpointStore(chaos_vpim.clock)
        store.save(device)
        replacement, action = failover_device(
            device, chaos_vpim.manager, store=store)
        assert action == "restore"
        new_rank = device.backend.mapping.rank
        assert new_rank.index == replacement
        assert bytes(new_rank.dpus[0].mram.read(0, 2)) == b"\xab\xcd"

    def test_failover_requires_a_linked_device(self, chaos_vpim):
        session = chaos_vpim.vm_session(nr_vupmem=1)
        device = session.vm.devices[0]
        with pytest.raises(ManagerError, match="not linked"):
            failover_device(device, chaos_vpim.manager)

    def test_checkpoint_store_requires_linkage(self, chaos_vpim):
        session = chaos_vpim.vm_session(nr_vupmem=1)
        store = CheckpointStore(chaos_vpim.clock)
        with pytest.raises(ManagerError, match="not linked"):
            store.save(session.vm.devices[0])
