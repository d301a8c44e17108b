"""Suffix arrays, LCP arrays, and longest-common-extension queries.

One numpy kernel (`_sort_suffixes`) sorts the suffixes by prefix doubling
(Manber & Myers), re-sorting only the groups that are still tied (Larsson &
Sadakane), and keeps each round's group ranks; `LcpData.from_text` reads every
adjacent LCP off those ranks by binary lifting. Kasai's `lcp_array` is kept as
the reference that tests compare against.

Conventions: positions are 1-based; SA[k] is the start of the k-th smallest
suffix; LCP[k] is the length of the longest common prefix of the k-th and
(k-1)-st suffixes in lexicographic order, with LCP[1] = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The first sort keys each suffix by its first KEY_LETTERS letters, each a
# SYMBOL_BITS-bit symbol: byte + 1, and 0 past the end of the text, so a
# suffix sorts before every longer one it is a prefix of. 7 * 9 = 63 bits.
KEY_LETTERS = 7
SYMBOL_BITS = 9


def _sort_suffixes(text: bytes):
    """Suffix-sort `text`: (sa, ranks, symbols), all numpy and 0-based.

    One sort of a packed int64 key orders the suffixes by their first 7
    letters. Each later round doubles the length L: it re-sorts only the
    suffixes still in groups of two or more, by one int64 key (group, rank of
    the suffix L letters on), and stops when no group is tied. A suffix's rank
    is the SA position where its group starts, so two suffixes share a rank
    after the round with length L exactly when their first L letters are
    equal; rank[n] = -1 stands for the empty suffix. `ranks[r]` holds the
    int32 ranks after the round with length 7 * 2**r, for every round that
    left ties. `symbols` holds the letters as symbols, padded with zeros.

    The worst case is a single-letter text: ceil(log2(n / 7)) rounds after the
    first sort, each re-sorting nearly every suffix, so O(n log^2 n) time and
    one int32 rank array per round. Random bytes usually finish after the
    first sort.
    """
    n = len(text)
    if n == 0:
        raise ValueError("empty text")
    sym = np.zeros(n + KEY_LETTERS, dtype=np.int64)
    sym[:n] = np.frombuffer(bytes(text), dtype=np.uint8)
    sym[:n] += 1
    key = sym[:n] << (SYMBOL_BITS * (KEY_LETTERS - 1))
    for t in range(1, KEY_LETTERS):
        key |= sym[t:n + t] << (SYMBOL_BITS * (KEY_LETTERS - 1 - t))
    sym = sym.astype(np.uint16)
    sa = np.argsort(key)
    rank = np.empty(n + 1, dtype=np.int32)
    rank[n] = -1
    tied = _rank_groups(sa, rank, np.arange(n), key[sa])
    del key
    ranks = []
    length = KEY_LETTERS
    while len(tied):
        ranks.append(rank)
        rank = rank.copy()
        group = sa[tied]
        key = rank[group].astype(np.int64) * (n + 1)
        key += rank[group + length]
        # a periodic text's ties arrive in long ordered runs, which the
        # stable sort merges in a few passes
        order = np.argsort(key, kind="stable")
        sa[tied] = group[order]
        del group
        tied = _rank_groups(sa, rank, tied, key[order])
        length *= 2
    return sa, ranks, sym


def _rank_groups(sa, rank, tied, key) -> np.ndarray:
    """Rank the suffixes at the ascending SA positions `tied`, whose sort keys
    `key` are ascending: each gets the position where its run of equal keys
    starts. Returns the positions still in runs of two or more."""
    starts = np.empty(len(tied), dtype=bool)
    starts[0] = True
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    rank[sa[tied]] = np.maximum.accumulate(np.where(starts, tied, 0))
    return tied[~(starts & np.append(starts[1:], True))]


def _adjacent_lcp(sa, ranks, sym) -> np.ndarray:
    """LCP of each adjacent pair sa[k-1], sa[k] from the ranks of
    `_sort_suffixes`: binary lifting from the longest length down, then at
    most 6 letter compares. No pair is tied at the round after the last kept
    one, so every LCP is below 7 * 2**len(ranks)."""
    a, b = sa[:-1], sa[1:]
    h = np.zeros(len(a), dtype=np.int64)
    for r in range(len(ranks) - 1, -1, -1):
        rank = ranks[r]
        h += (rank[a + h] == rank[b + h]) * (KEY_LETTERS << r)
    # a symbol past the end is 0, which no letter equals
    for _ in range(KEY_LETTERS - 1):
        h += sym[a + h] == sym[b + h]
    return h


def suffix_array(text: bytes) -> list[int]:
    """SA[1..n] as a 0-indexed list of 1-based positions (see
    `_sort_suffixes` for the kernel and its worst case)."""
    sa, _, _ = _sort_suffixes(text)
    return (sa + 1).tolist()


def inverse_suffix_array(sa: list[int]) -> list[int]:
    """ISA[SA[k]] = k; a 1-based list (index 0 unused)."""
    isa = np.zeros(len(sa) + 1, dtype=np.int64)
    isa[sa] = np.arange(1, len(sa) + 1)
    return isa.tolist()


def lcp_array(text: bytes, sa: list[int], isa: list[int] | None = None) -> list[int]:
    """Kasai's algorithm; returns LCP[1..n] as a 1-based list (index 0 unused).
    `isa` is the inverse of `sa` (see `inverse_suffix_array`), derived if not
    given. A pure-Python reference that tests compare `LcpData.from_text`
    against; the library itself never calls it."""
    n = len(text)
    rank = inverse_suffix_array(sa) if isa is None else isa
    lcp = [0] * (n + 1)
    h = 0
    for i in range(1, n + 1):
        r = rank[i]
        if r > 1:
            j = sa[r - 2]
            while i + h <= n and j + h <= n and text[i + h - 1] == text[j + h - 1]:
                h += 1
            lcp[r] = h
            if h:
                h -= 1
        else:
            h = 0
    return lcp


@dataclass
class LcpData:
    text: bytes
    sa: list[int]
    isa: list[int]
    lcp: list[int]  # 1-based, index 0 unused

    @classmethod
    def from_text(cls, text: bytes) -> "LcpData":
        sa, ranks, sym = _sort_suffixes(text)
        n = len(text)
        lcp = np.zeros(n + 1, dtype=np.int64)
        lcp[2:] = _adjacent_lcp(sa, ranks, sym)
        del ranks, sym
        sa += 1
        isa = np.zeros(n + 1, dtype=np.int64)
        isa[sa] = np.arange(1, n + 1)
        return cls(text=text, sa=sa.tolist(), isa=isa.tolist(), lcp=lcp.tolist())

    def lce(self, i: int, j: int, rmq_query) -> int:
        """Longest common extension of suffixes i and j via an RMQ over the
        LCP array: the range is (min+1 .. max) of the suffix-array positions."""
        n = len(self.text)
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexError("suffix positions out of range")
        if i == j:
            return n - i + 1
        a, b = self.isa[i], self.isa[j]
        if a > b:
            a, b = b, a
        return self.lcp[rmq_query(a + 1, b)]

    def lce_direct(self, i: int, j: int) -> int:
        """Longest common extension of suffixes i and j read off the text:
        slices of doubling length are compared until one differs or the
        shorter suffix ends, then the last slice is bisected.  An extension
        of h letters takes O(log h) slice compares of O(h) bytes each, so it
        needs neither the LCP array nor a Python step per letter."""
        text = self.text
        a, b = i - 1, j - 1
        limit = len(text) - max(a, b)  # the shorter suffix's length
        lo, step = 0, 1  # the first lo letters agree
        while lo < limit:
            hi = min(lo + step, limit)
            if text[a + lo:a + hi] != text[b + lo:b + hi]:
                break
            lo, step = hi, 2 * step
        else:
            return lo
        hi -= 1  # a letter in lo .. hi - 1 differs, so lo <= h <= hi - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if text[a + lo:a + mid] == text[b + lo:b + mid]:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def lce_naive(self, i: int, j: int) -> int:
        """Longest common extension by one Python step per equal letter: the
        reference that tests compare `lce` and `lce_direct` against."""
        n = len(self.text)
        h = 0
        while i + h <= n and j + h <= n and self.text[i + h - 1] == self.text[j + h - 1]:
            h += 1
        return h
