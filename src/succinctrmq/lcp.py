"""Suffix arrays, LCP arrays (Kasai), and longest-common-extension queries.

Conventions: positions are 1-based; SA[k] is the start of the k-th smallest
suffix; LCP[k] is the length of the longest common prefix of the k-th and
(k-1)-st suffixes in lexicographic order, with LCP[1] = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def suffix_array(text: bytes) -> list[int]:
    """Prefix-doubling suffix array on numpy; O(n log^2 n) at worst.

    Round k sorts the suffixes by the pair (rank of the first k letters, rank
    of the next k letters, or -1 past the end) and re-ranks them densely; it
    stops once every rank is distinct.
    """
    n = len(text)
    if n == 0:
        raise ValueError("empty text")
    rank = np.frombuffer(bytes(text), dtype=np.uint8).astype(np.int64)
    k = 1
    while True:
        second = np.full(n, -1, dtype=np.int64)
        if k < n:
            second[:n - k] = rank[k:]
        sa = np.lexsort((second, rank))
        first, nxt = rank[sa], second[sa]
        step = np.empty(n, dtype=np.int64)
        step[0] = 0
        step[1:] = (first[1:] != first[:-1]) | (nxt[1:] != nxt[:-1])
        rank = np.empty(n, dtype=np.int64)
        rank[sa] = np.cumsum(step)
        if rank[sa[-1]] == n - 1:
            break
        k <<= 1
    return (sa + 1).tolist()


def inverse_suffix_array(sa: list[int]) -> list[int]:
    """ISA[SA[k]] = k; a 1-based list (index 0 unused)."""
    isa = np.zeros(len(sa) + 1, dtype=np.int64)
    isa[sa] = np.arange(1, len(sa) + 1)
    return isa.tolist()


def lcp_array(text: bytes, sa: list[int], isa: list[int] | None = None) -> list[int]:
    """Kasai's algorithm; returns LCP[1..n] as a 1-based list (index 0 unused).
    `isa` is the inverse of `sa` (see `inverse_suffix_array`), derived if not
    given."""
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
        sa = suffix_array(text)
        isa = inverse_suffix_array(sa)
        return cls(text=text, sa=sa, isa=isa, lcp=lcp_array(text, sa, isa))

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

    def lce_naive(self, i: int, j: int) -> int:
        n = len(self.text)
        h = 0
        while i + h <= n and j + h <= n and self.text[i + h - 1] == self.text[j + h - 1]:
            h += 1
        return h
