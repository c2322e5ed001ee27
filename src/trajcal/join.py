"""The blocked window join: every pair of a key and a sorted key within a
reach of each other, expanded a bounded block of pairs at a time.

The neighbour-count tables (a zero-width join on frame index), the
nearest-in-time association and the session score all pair rows through
it, so their working memory is one block's worth of pairs however long the
recording is.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

JOIN_BLOCK = 4096  # pairs per block, unless one key's window alone holds more


def window_join(
    keys: np.ndarray, sorted_keys: np.ndarray, reach
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every ``(i, j)`` with ``keys[i] - reach <= sorted_keys[j] <= keys[i]
    + reach``, as index arrays, in blocks of at most ``JOIN_BLOCK`` pairs
    ordered by ``i`` and then ``j``. ``sorted_keys`` must be ascending;
    ``keys`` may come in any order. A block never splits one key's window
    (one larger than ``JOIN_BLOCK`` is a block of its own), and a block may
    hold no pairs."""
    lo = np.searchsorted(sorted_keys, keys - reach, side="left")
    hi = np.searchsorted(sorted_keys, keys + reach, side="right")
    width = hi - lo
    ends = np.cumsum(width)
    start = 0
    while start < len(keys):
        base = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + JOIN_BLOCK, side="right")))
        w = width[start:stop]
        owner = np.repeat(np.arange(start, stop), w)
        # flat position minus sorted-key index is constant along one window
        shift = np.repeat(ends[start:stop] - w - base - lo[start:stop], w)
        yield owner, np.arange(len(owner)) - shift
        start = stop
