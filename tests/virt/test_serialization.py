"""Wire format: header packing, compiled chains and their decoding, the
payload pages a plan writes and the read results it deposits."""

import numpy as np
import pytest

from repro.config import MRAM_HEAP_SYMBOL, PAGE_SIZE
from repro.errors import SerializationError
from repro.sdk.transfer import uniform_read, uniform_write
from repro.virt.guest_memory import GuestMemory
from repro.virt.plans import compile_plan
from repro.virt.serialization import (
    RequestHeader,
    RequestKind,
    deserialize_request,
    xfer_kind_of,
)
from repro.sdk.transfer import XferKind


@pytest.fixture
def mem() -> GuestMemory:
    return GuestMemory(128 << 20)


def serialize(header, matrix, mem, digests=None, skips=None):
    """A transient compile: the chain every unkept shape is sent with."""
    return compile_plan(None, header, matrix, mem, digests, skips,
                        batched=False)


def payload_of(entry, mem):
    """An entry's payload, read from its (contiguous) page run."""
    return mem.read(int(entry.page_gpas[0]), entry.size)


def test_header_pack_unpack_roundtrip():
    header = RequestHeader(kind=RequestKind.WRITE_RANK, offset=12345,
                           count=7, symbol="my_symbol", program_name="prog")
    packed = header.pack()
    unpacked = RequestHeader.unpack(packed)
    assert unpacked == header


def test_header_unicode_symbol():
    header = RequestHeader(kind=RequestKind.LOAD, symbol="héap",
                           program_name="nw_dpu")
    assert RequestHeader.unpack(header.pack()) == header


def test_header_too_short_rejected():
    with pytest.raises(SerializationError):
        RequestHeader.unpack(np.zeros(10, dtype=np.uint8))


def test_header_bad_kind_rejected():
    raw = RequestHeader(kind=RequestKind.CI_OP).pack().copy()
    raw[:8] = np.frombuffer(np.uint64(99).tobytes(), dtype=np.uint8)
    with pytest.raises(SerializationError):
        RequestHeader.unpack(raw)


def test_serialize_write_matrix_layout(mem):
    bufs = [np.arange(100, dtype=np.uint8),
            (np.arange(5000) % 256).astype(np.uint8)]
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 64, bufs)
    header = RequestHeader(kind=RequestKind.WRITE_RANK, offset=64,
                           symbol=MRAM_HEAP_SYMBOL)
    sreq = serialize(header, matrix, mem).sreq
    # Fig. 7: request info + matrix meta + per-DPU (meta, pages).
    assert len(sreq.chain) == 2 + 2 * 2
    assert sreq.total_pages == 1 + 2


def test_serialize_deserialize_roundtrip(mem):
    bufs = [np.random.default_rng(i).integers(0, 255, 3000, dtype=np.uint8)
            .astype(np.uint8) for i in range(3)]
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 0, bufs)
    header = RequestHeader(kind=RequestKind.WRITE_RANK,
                           symbol=MRAM_HEAP_SYMBOL)
    sreq = serialize(header, matrix, mem).sreq
    got_header, entries, skips = deserialize_request(sreq.chain, mem)
    assert got_header.kind is RequestKind.WRITE_RANK
    assert skips == []
    assert len(entries) == 3
    for i, entry in enumerate(entries):
        assert entry.size == 3000
        data = payload_of(entry, mem)
        assert np.array_equal(data, bufs[i])


def test_read_matrix_allocates_destination_pages(mem):
    matrix = uniform_read(MRAM_HEAP_SYMBOL, 0, 10_000, nr_dpus=2)
    header = RequestHeader(kind=RequestKind.READ_RANK,
                           symbol=MRAM_HEAP_SYMBOL)
    plan = serialize(header, matrix, mem)
    sreq = plan.sreq
    _, entries, _ = deserialize_request(sreq.chain, mem)
    results = (np.arange(10_000) % 251).astype(np.uint8)
    plan.deposit([results] * len(entries))
    for entry in entries:
        assert np.array_equal(payload_of(entry, mem), results)
    # And the frontend can find them through the data descriptors.
    for (dpu, size, gpa) in sreq.data_descriptors:
        assert np.array_equal(mem.read(gpa, size), results)


def test_scatter_wrong_size_rejected(mem):
    matrix = uniform_read(MRAM_HEAP_SYMBOL, 0, 100, nr_dpus=1)
    plan = serialize(
        RequestHeader(kind=RequestKind.READ_RANK, symbol=MRAM_HEAP_SYMBOL),
        matrix, mem)
    with pytest.raises(SerializationError):
        plan.deposit([np.zeros(99, dtype=np.uint8)])


def test_deserialize_truncated_chain_rejected(mem):
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 0, [np.zeros(10, np.uint8)])
    sreq = serialize(
        RequestHeader(kind=RequestKind.WRITE_RANK, symbol=MRAM_HEAP_SYMBOL),
        matrix, mem).sreq
    with pytest.raises(SerializationError):
        deserialize_request(sreq.chain[:-1], mem)


def test_deserialize_empty_chain_rejected(mem):
    with pytest.raises(SerializationError):
        deserialize_request([], mem)


def test_header_only_request(mem):
    # A header-only chain deserializes to zero entries.
    from repro.virt.virtio import write_buffer
    header = RequestHeader(kind=RequestKind.LAUNCH)
    chain = [write_buffer(mem, header.pack())]
    got, entries, skips = deserialize_request(chain, mem)
    assert got.kind is RequestKind.LAUNCH
    assert entries == []
    assert skips == []


def test_xfer_kind_mapping():
    assert xfer_kind_of(RequestKind.WRITE_RANK) is XferKind.TO_DPU
    assert xfer_kind_of(RequestKind.READ_RANK) is XferKind.FROM_DPU
    with pytest.raises(SerializationError):
        xfer_kind_of(RequestKind.LAUNCH)


def test_page_gpas_are_page_aligned(mem):
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 0,
                           [np.zeros(PAGE_SIZE * 3, np.uint8)])
    sreq = serialize(
        RequestHeader(kind=RequestKind.WRITE_RANK, symbol=MRAM_HEAP_SYMBOL),
        matrix, mem).sreq
    _, entries, _ = deserialize_request(sreq.chain, mem)
    assert (entries[0].page_gpas % PAGE_SIZE == 0).all()
    assert entries[0].page_gpas.size == 3


# -- cache wire format (Optimization(cache=True) writes) ----------------------

def test_cache_format_roundtrips_digests_and_skips(mem):
    from repro.virt.serialization import SkipExtent
    bufs = [np.arange(200, dtype=np.uint8),
            (np.arange(5000) % 256).astype(np.uint8)]
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 64, bufs)
    header = RequestHeader(kind=RequestKind.WRITE_RANK, offset=64,
                           symbol=MRAM_HEAP_SYMBOL)
    digests = {0: 0x1111, 1: 0xFFFFFFFFFFFFFFFF}
    skips = [SkipExtent(dpu_index=2, size=4096, digest=0xABCDEF),
             SkipExtent(dpu_index=3, size=17, digest=0)]
    sreq = serialize(header, matrix, mem, digests=digests, skips=skips).sreq
    _, entries, got_skips = deserialize_request(sreq.chain, mem)
    assert got_skips == skips
    assert [e.digest for e in entries] == [0x1111, 0xFFFFFFFFFFFFFFFF]
    for i, entry in enumerate(entries):
        assert np.array_equal(payload_of(entry, mem), bufs[i])


def test_cache_format_without_skips(mem):
    # digests alone (no suppressed extents) still select the cache
    # format: entry metadata grows the digest word, skip count is zero.
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 0, [np.zeros(100, np.uint8)])
    header = RequestHeader(kind=RequestKind.WRITE_RANK,
                           symbol=MRAM_HEAP_SYMBOL)
    sreq = serialize(header, matrix, mem, digests={0: 42}).sreq
    meta = mem.read(sreq.chain[1].gpa, sreq.chain[1].length).view(np.uint64)
    assert meta.size == 4 and int(meta[3]) == 0
    _, entries, skips = deserialize_request(sreq.chain, mem)
    assert skips == []
    assert entries[0].digest == 42


def test_default_format_is_unchanged_by_the_cache_code(mem):
    # The cache-off wire format must stay bit-identical: 3 meta words,
    # no digest word on entries.
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 0, [np.zeros(100, np.uint8)])
    header = RequestHeader(kind=RequestKind.WRITE_RANK,
                           symbol=MRAM_HEAP_SYMBOL)
    sreq = serialize(header, matrix, mem).sreq
    meta = mem.read(sreq.chain[1].gpa, sreq.chain[1].length).view(np.uint64)
    assert meta.size == 3
    emeta = mem.read(sreq.chain[2].gpa, sreq.chain[2].length).view(np.uint64)
    assert emeta.size == 3
    _, entries, skips = deserialize_request(sreq.chain, mem)
    assert skips == [] and entries[0].digest == 0


def test_malformed_cache_meta_rejected(mem):
    # A matrix-meta block whose size matches neither format is rejected.
    from repro.virt.virtio import write_buffer
    header = RequestHeader(kind=RequestKind.WRITE_RANK,
                           symbol=MRAM_HEAP_SYMBOL)
    for words in ([1, 0, 1, 2, 9, 9, 9],    # claims 2 skips, holds 1
                  [1, 0, 1, 1, 9, 9],       # claims 1 skip, 2 words short
                  [1, 0]):                   # shorter than default format
        chain = [write_buffer(mem, header.pack()),
                 write_buffer(mem, np.array(words, dtype=np.uint64))]
        with pytest.raises(SerializationError):
            deserialize_request(chain, mem)
