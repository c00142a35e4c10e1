"""Backend: zero-copy handling, rank linking, rust path, errors."""

import numpy as np
import pytest

from repro.config import MRAM_HEAP_SYMBOL, PAGE_SIZE, small_machine
from repro.driver.driver import UpmemDriver
from repro.errors import (
    DeviceNotLinkedError,
    SerializationError,
    TranslationError,
)
from repro.hardware.machine import Machine
from repro.hardware.timing import DEFAULT_COST_MODEL
from repro.sdk.transfer import uniform_read, uniform_write
from repro.virt.backend import VUpmemBackend
from repro.virt.guest_memory import GuestMemory
from repro.virt.plans import compile_plan, plan_key
from repro.virt.serialization import RequestHeader, RequestKind
from repro.virt.virtio import write_buffer


@pytest.fixture
def env():
    machine = Machine(small_machine(nr_ranks=2, dpus_per_rank=4))
    driver = UpmemDriver(machine)
    memory = GuestMemory(128 << 20)
    backend = VUpmemBackend("dev0", driver, memory, DEFAULT_COST_MODEL)
    return machine, driver, memory, backend


def plan_for(header, matrix, memory):
    """A hand-built transient plan: how every data request the cache
    does not keep reaches the backend."""
    return compile_plan(None, header, matrix, memory, None, None,
                        batched=False)


def send(backend, plan):
    return backend.process(plan.sreq.chain, plan=plan)


def test_unlinked_requests_rejected(env):
    _, _, memory, backend = env
    header = RequestHeader(kind=RequestKind.LAUNCH)
    with pytest.raises(DeviceNotLinkedError):
        backend.process([write_buffer(memory, header.pack())])


def test_link_unlink_lifecycle(env):
    machine, driver, _, backend = env
    backend.link_rank(0)
    assert backend.linked
    assert driver.rank_owner(0) == "dev0"
    with pytest.raises(DeviceNotLinkedError):
        backend.link_rank(1)   # already linked
    backend.unlink()
    assert not backend.linked
    assert driver.rank_owner(0) is None


def test_config_request_without_rank(env):
    _, _, memory, backend = env
    header = RequestHeader(kind=RequestKind.GET_CONFIG)
    result = backend.process([write_buffer(memory, header.pack())])
    assert result.payload.nr_dpus == 64


def test_write_lands_on_rank_zero_copy(env):
    machine, _, memory, backend = env
    backend.link_rank(0)
    data = (np.arange(3000) % 256).astype(np.uint8)
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 128, [data, data])
    header = RequestHeader(kind=RequestKind.WRITE_RANK, offset=128,
                           symbol=MRAM_HEAP_SYMBOL)
    result = send(backend, plan_for(header, matrix, memory))
    assert result.duration > 0
    assert "T-data" in result.steps and "Deser" in result.steps
    for d in (0, 1):
        assert np.array_equal(machine.rank(0).dpu(d).mram.read(128, 3000), data)


def test_read_deposits_into_guest_pages(env):
    machine, _, memory, backend = env
    backend.link_rank(0)
    payload = np.full(500, 7, dtype=np.uint8)
    machine.rank(0).dpu(1).mram.write(64, payload)
    matrix = uniform_read(MRAM_HEAP_SYMBOL, 64, 500, nr_dpus=2)
    header = RequestHeader(kind=RequestKind.READ_RANK, offset=64,
                           symbol=MRAM_HEAP_SYMBOL)
    plan = plan_for(header, matrix, memory)
    send(backend, plan)
    dpu1 = [d for d in plan.sreq.data_descriptors if d[0] == 1][0]
    assert np.array_equal(memory.read(dpu1[2], 500), payload)


def test_read_bounds_checks_every_page(env):
    """A request is bounds-checked page by page, not by its run ends: a
    transient plan matching an earlier good read in first GPA, last GPA
    and page count, but with a middle page outside guest memory, is
    refused before the rank is touched."""
    machine, _, memory, backend = env
    backend.link_rank(0)
    matrix = uniform_read(MRAM_HEAP_SYMBOL, 0, 3 * PAGE_SIZE, nr_dpus=1)
    header = RequestHeader(kind=RequestKind.READ_RANK,
                           symbol=MRAM_HEAP_SYMBOL)
    plan = plan_for(header, matrix, memory)
    send(backend, plan)
    pages = plan.entries[0].page_gpas
    assert pages.size == 3
    pages[1] = memory.size + PAGE_SIZE
    memory.write(plan.sreq.chain[3].gpa, pages)   # the wire says so too
    rank = machine.rank(0)
    reads = rank.read_ops
    with pytest.raises(TranslationError):
        send(backend, plan)
    assert rank.read_ops == reads


def test_data_chain_without_plan_rejected(env):
    """The backend takes a data request only from its compiled plan: a
    well-formed WRITE_RANK/READ_RANK chain arriving alone is refused
    before the rank is touched."""
    machine, _, memory, backend = env
    backend.link_rank(0)
    rank = machine.rank(0)
    write = plan_for(
        RequestHeader(kind=RequestKind.WRITE_RANK, symbol=MRAM_HEAP_SYMBOL),
        uniform_write(MRAM_HEAP_SYMBOL, 0, [np.ones(64, np.uint8)]), memory)
    read = plan_for(
        RequestHeader(kind=RequestKind.READ_RANK, symbol=MRAM_HEAP_SYMBOL),
        uniform_read(MRAM_HEAP_SYMBOL, 0, 64, nr_dpus=1), memory)
    for plan in (write, read):
        with pytest.raises(SerializationError, match="without a compiled plan"):
            backend.process(plan.sreq.chain)
    assert rank.write_ops == rank.read_ops == 0
    assert not machine.rank(0).dpu(0).mram.read(0, 64).any()


def test_transient_plan_is_checked_every_time_and_never_pinned(env,
                                                               monkeypatch):
    """A transient plan is used once: it never records a validated
    translation generation and never resolves a pinned MRAM write."""
    _, _, memory, backend = env
    backend.link_rank(0)
    data = np.ones(3000, dtype=np.uint8)
    header = RequestHeader(kind=RequestKind.WRITE_RANK,
                           symbol=MRAM_HEAP_SYMBOL)
    plan = plan_for(header, uniform_write(MRAM_HEAP_SYMBOL, 0, [data, data]),
                    memory)
    walked = []
    translate = memory.translate_pages
    monkeypatch.setattr(memory, "translate_pages",
                        lambda gpas: walked.append(gpas) or translate(gpas))
    send(backend, plan)
    send(backend, plan)
    assert len(walked) == 4
    assert plan.translation_generation == -1
    assert plan.pinned_write is None


def test_multi_extent_entry_round_trips(env):
    """An entry larger than one backing extent pins as per-extent chunks:
    its write applies a joined copy, its read deposits over the chunks."""
    machine, _, memory, backend = env
    backend.link_rank(0)
    size = memory.region.extent_bytes + 5 * PAGE_SIZE + 3
    data = (np.arange(size) % 251).astype(np.uint8)
    write = plan_for(
        RequestHeader(kind=RequestKind.WRITE_RANK, offset=8,
                      symbol=MRAM_HEAP_SYMBOL),
        uniform_write(MRAM_HEAP_SYMBOL, 8, [data]), memory)
    assert len(write.payload_views[0]) == 2
    send(backend, write)
    assert np.array_equal(machine.rank(0).dpu(0).mram.read(8, size), data)

    read = plan_for(
        RequestHeader(kind=RequestKind.READ_RANK, offset=8,
                      symbol=MRAM_HEAP_SYMBOL),
        uniform_read(MRAM_HEAP_SYMBOL, 8, size, nr_dpus=1), memory)
    assert read.read_views is None
    send(backend, read)
    (_, _, gpa), = read.sreq.data_descriptors
    assert np.array_equal(memory.read(gpa, size), data)


def test_plan_replay_revalidates_once_per_generation(env, monkeypatch):
    """A replayed plan skips the page bounds walk while the translation
    generation holds; an unlink bumps it and the next replay walks once."""
    _, _, memory, backend = env
    backend.link_rank(0)
    data = np.ones(3000, dtype=np.uint8)
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 0, [data, data])
    header = RequestHeader(kind=RequestKind.WRITE_RANK,
                           symbol=MRAM_HEAP_SYMBOL)
    plan = compile_plan(plan_key(header, matrix, None, None, False),
                        header, matrix, memory, None, None, batched=False)
    walked = []
    translate = memory.translate_pages

    def counting(gpas):
        walked.append(gpas)
        return translate(gpas)

    monkeypatch.setattr(memory, "translate_pages", counting)

    def replay():
        backend.process(plan.replay(matrix, None, None).chain, plan=plan)
        return len(walked)

    assert replay() == 2    # first sight: both entries checked
    assert replay() == 2    # same generation: no walk
    backend.unlink()
    backend.link_rank(0)
    assert replay() == 4    # re-validated once after the relink
    assert replay() == 4


def test_rust_path_slower_on_writes(env):
    # Two entries: a rank-level transfer at full lane parallelism, where
    # the interleaving flavour dominates the data path.
    machine, driver, memory, _ = env
    data = np.zeros(1 << 20, dtype=np.uint8)
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 0, [data, data])
    header = RequestHeader(kind=RequestKind.WRITE_RANK,
                           symbol=MRAM_HEAP_SYMBOL)

    c_backend = VUpmemBackend("c", driver, memory, DEFAULT_COST_MODEL,
                              rust_data_path=False)
    c_backend.link_rank(0)
    c_time = send(c_backend, plan_for(header, matrix, memory)).steps["T-data"]
    c_backend.unlink()

    rust_backend = VUpmemBackend("rust", driver, memory, DEFAULT_COST_MODEL,
                                 rust_data_path=True)
    rust_backend.link_rank(0)
    rust_time = send(rust_backend,
                     plan_for(header, matrix, memory)).steps["T-data"]
    assert rust_time > c_time * 3.43  # at least the paper's 343%


def test_translation_threads_speed_deser(env):
    machine, driver, memory, _ = env
    data = np.zeros(1 << 20, dtype=np.uint8)
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 0, [data])
    header = RequestHeader(kind=RequestKind.WRITE_RANK,
                           symbol=MRAM_HEAP_SYMBOL)

    fast = VUpmemBackend("f", driver, memory, DEFAULT_COST_MODEL,
                         translation_threads=8)
    fast.link_rank(0)
    fast_t = send(fast, plan_for(header, matrix, memory)).steps["Deser"]
    fast.unlink()

    slow = VUpmemBackend("s", driver, memory, DEFAULT_COST_MODEL,
                         translation_threads=1)
    slow.link_rank(0)
    slow_t = send(slow, plan_for(header, matrix, memory)).steps["Deser"]
    assert slow_t > fast_t


def test_load_requires_program_image(env):
    _, _, memory, backend = env
    backend.link_rank(0)
    header = RequestHeader(kind=RequestKind.LOAD, program_name="missing")
    with pytest.raises(SerializationError):
        backend.process([write_buffer(memory, header.pack())])


def test_release_request_unlinks(env):
    _, driver, memory, backend = env
    backend.link_rank(0)
    header = RequestHeader(kind=RequestKind.RELEASE)
    backend.process([write_buffer(memory, header.pack())])
    assert not backend.linked
    assert 0 in driver.free_ranks()


def test_worker_thread_default_matches_paper(env):
    *_, backend = env
    # Section 4.2: 8 threads, aligned with 8 DPUs per chip.
    assert backend.worker_threads == 8
    assert backend.translation_threads == 8
