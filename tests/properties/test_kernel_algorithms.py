"""Algorithmic property tests: vectorized kernels vs brute-force oracles.

Several kernels use non-obvious vectorizations (NW's prefix-max trick
for the in-row gap dependency, BS's searchsorted, TS's rolling window
sums plus ``np.correlate``).  These tests pin them against
straightforward O(n^2)/O(n*m) references on small random instances.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps.prim.nw import GAP, MATCH, MISMATCH, _dp_rows, nw_score
from repro.apps.prim.ts import _ssd_profile


def classic_nw(a: np.ndarray, b: np.ndarray) -> int:
    """Textbook O(n*m) Needleman-Wunsch, no vectorization."""
    n, m = len(a), len(b)
    H = np.zeros((n + 1, m + 1), dtype=np.int64)
    H[0, :] = -GAP * np.arange(m + 1)
    H[:, 0] = -GAP * np.arange(n + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = MATCH if a[i - 1] == b[j - 1] else MISMATCH
            H[i, j] = max(H[i - 1, j - 1] + sub,
                          H[i - 1, j] - GAP,
                          H[i, j - 1] - GAP)
    return int(H[n, m])


@given(
    a=st.lists(st.integers(0, 3), min_size=1, max_size=24),
    b=st.lists(st.integers(0, 3), min_size=1, max_size=24),
)
@settings(max_examples=60, deadline=None)
def test_nw_vectorized_matches_classic(a, b):
    a = np.array(a, dtype=np.int8)
    b = np.array(b, dtype=np.int8)
    assert nw_score(a, b) == classic_nw(a, b)


@given(
    a=st.lists(st.integers(0, 3), min_size=2, max_size=32).filter(
        lambda xs: len(xs) % 2 == 0),
)
@settings(max_examples=40, deadline=None)
def test_nw_blocked_equals_monolithic(a):
    """Splitting the DP into blocks along boundaries is exact."""
    seq = np.array(a, dtype=np.int8)
    half = seq.size // 2
    # Monolithic.
    top = -GAP * np.arange(seq.size + 1, dtype=np.int64)
    left = -GAP * np.arange(1, seq.size + 1, dtype=np.int64)
    mono_bottom, _ = _dp_rows(seq, seq, top, left)

    # Two block columns: compute [all rows] x [left half], then feed its
    # right column into [all rows] x [right half].
    top_l = -GAP * np.arange(half + 1, dtype=np.int64)
    bottom_l, right_l = _dp_rows(seq, seq[:half], top_l, left)
    top_r = np.concatenate([
        [-GAP * half],
        -GAP * (np.arange(1, half + 1, dtype=np.int64) + half),
    ])
    bottom_r, _ = _dp_rows(seq, seq[half:], top_r, right_l)
    assert int(bottom_r[-1]) == int(mono_bottom[-1])


@given(
    series=st.lists(st.integers(-20, 20), min_size=4, max_size=64),
    m=st.integers(2, 4),
)
@settings(max_examples=50, deadline=None)
def test_ts_ssd_matches_bruteforce(series, m):
    series = np.array(series, dtype=np.int32)
    if series.size < m:
        return
    query = series[:m].copy() + 1
    fast = _ssd_profile(series, query)
    for i in range(series.size - m + 1):
        window = series[i:i + m].astype(np.int64)
        brute = int(((window - query) ** 2).sum())
        assert int(fast[i]) == brute


@given(st.lists(st.integers(0, 1 << 30), min_size=1, max_size=200))
@settings(max_examples=40, deadline=None)
def test_checksum_is_sum_mod_2_32(values):
    from repro.apps.micro.checksum import Checksum
    app = Checksum(nr_dpus=2, file_mb=0.01)
    data = np.array([v % 256 for v in values], dtype=np.uint8)
    app.file = data
    assert app.expected() == int(data.astype(np.uint64).sum()) % (1 << 32)


@given(
    n=st.integers(2, 200),
    queries=st.lists(st.integers(0, 10_000), min_size=1, max_size=32),
)
@settings(max_examples=40, deadline=None)
def test_bs_expected_matches_linear_scan(n, queries):
    from repro.apps.prim.bs import BinarySearch
    app = BinarySearch(nr_dpus=2, n_elements=n, n_queries=len(queries))
    app.queries = np.array(queries, dtype=np.int64)
    expected = app.expected()
    for qi, q in enumerate(queries):
        matches = np.nonzero(app.data == q)[0]
        if matches.size:
            assert expected[qi] == matches[0]
        else:
            assert expected[qi] == -1
