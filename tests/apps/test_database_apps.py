"""Per-app edge cases: SEL, UNI, BS (databases)."""

import numpy as np

from repro.apps.prim.bs import BinarySearch
from repro.apps.prim.sel import Select, predicate
from repro.apps.prim.uni import Unique, unique_consecutive
from repro.config import small_machine
from repro.core import VPim


def native(app, dpus_per_rank=8):
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=dpus_per_rank))
    return vpim.native_session().run(app)


# -- SEL ----------------------------------------------------------------------

def test_sel_nothing_selected():
    app = Select(nr_dpus=4, n_elements=256)
    app.data = np.arange(1, 513, 2, dtype=np.int32)   # all odd
    rep = native(app, dpus_per_rank=4)
    assert rep.verified
    assert app.expected().size == 0


def test_sel_everything_selected():
    app = Select(nr_dpus=4, n_elements=256)
    app.data = np.arange(0, 512, 2, dtype=np.int32)   # all even
    rep = native(app, dpus_per_rank=4)
    assert rep.verified


def test_sel_preserves_order():
    app = Select(nr_dpus=8, n_elements=1 << 12)
    expected = app.data[predicate(app.data)]
    assert np.array_equal(app.expected(), expected)
    rep = native(app)
    assert rep.verified


def test_sel_uneven_split():
    rep = native(Select(nr_dpus=7, n_elements=1001), dpus_per_rank=7)
    assert rep.verified


# -- UNI ----------------------------------------------------------------------

def test_uni_all_duplicates():
    app = Unique(nr_dpus=4, n_elements=256)
    app.data = np.zeros(256, dtype=np.int32)
    rep = native(app, dpus_per_rank=4)
    assert rep.verified
    assert app.expected().size == 1


def test_uni_no_duplicates():
    app = Unique(nr_dpus=4, n_elements=256)
    app.data = np.arange(256, dtype=np.int32)
    rep = native(app, dpus_per_rank=4)
    assert rep.verified
    assert app.expected().size == 256


def test_uni_boundary_duplicates_across_dpus():
    """A run of equal values straddling a DPU boundary must collapse."""
    app = Unique(nr_dpus=4, n_elements=400)
    data = np.repeat(np.arange(8, dtype=np.int32), 50)   # 8 runs of 50
    app.data = data
    rep = native(app, dpus_per_rank=4)
    assert rep.verified
    assert app.expected().size == 8


def test_uni_reference_helper():
    assert unique_consecutive(np.array([], dtype=np.int32)).size == 0
    assert unique_consecutive(np.array([1, 1, 2, 1], dtype=np.int32)).tolist() \
        == [1, 2, 1]


# -- BS -----------------------------------------------------------------------

def test_bs_all_hits():
    app = BinarySearch(nr_dpus=4, n_elements=1 << 10, n_queries=64)
    app.queries = app.data[np.arange(0, 1 << 10, 16)].copy()
    rep = native(app, dpus_per_rank=4)
    assert rep.verified


def test_bs_all_misses():
    app = BinarySearch(nr_dpus=4, n_elements=1 << 10, n_queries=64)
    app.queries = np.full(64, -1, dtype=np.int64)   # below every element
    rep = native(app, dpus_per_rank=4)
    assert rep.verified
    assert (app.expected() == -1).all()


def test_bs_boundary_queries():
    app = BinarySearch(nr_dpus=4, n_elements=1 << 10, n_queries=2)
    app.queries = np.array([app.data[0], app.data[-1]], dtype=np.int64)
    rep = native(app, dpus_per_rank=4)
    assert rep.verified
    assert app.expected().tolist() == [0, (1 << 10) - 1]


def test_bs_uneven_split():
    rep = native(BinarySearch(nr_dpus=7, n_elements=1000, n_queries=100),
                 dpus_per_rank=7)
    assert rep.verified


def test_bs_more_dpus_than_elements():
    # Half the DPUs get an empty slice and never write their results;
    # their zeros must not win the host's max-combine over a miss (-1).
    app = BinarySearch(nr_dpus=8, n_elements=4, n_queries=16, seed=3)
    assert (app.expected() == -1).any()
    assert native(app).verified
