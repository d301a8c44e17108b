"""Seeded inputs, query streams and reference answers for the benchmark workloads.

Everything here is computed from the seed alone, with numpy, outside any timed
region. The library under test only ever receives the generated values or text.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

# Distinct queries per workload. The warm stream cycles through this list; the
# untimed warm-up pass answers all of it once, so every lookup table the warm
# stream needs is decoded before timing starts.
QUERY_LIST = 10000
# Shares of the RMQ query classes; the rest are full-range queries (1, n).
SHARE_RANDOM = 0.6
SHARE_SHORT = 0.3
SHORT_SPAN = 63
DNA = np.frombuffer(b"ACGT", dtype=np.uint8)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "perm": RMQ over a permutation; "lcp": LCE over a DNA-like text
    n: int
    setup_repeats: int  # set-ups per run; setup_s is their median
    cold_block: int  # head of the query list, answered after each fresh load


# Why each workload exists, and which layers it stresses: README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("perm-1e6", "perm", 10**6, 1, 100),
        Workload("lcp-dna-2e5", "lcp", 2 * 10**5, 2, 500),
    )
}


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per purpose, so inputs do not depend on query counts."""
    return np.random.default_rng([seed, stream])


def permutation(n: int, seed: int) -> list[int]:
    return (rng_for(seed, 0).permutation(n) + 1).tolist()


def dna_text(n: int, seed: int) -> bytes:
    """A random base (a fifth of the text), then copies of earlier segments of
    100..1499 letters with 1% point mutations, until n letters."""
    rng = rng_for(seed, 0)
    text = bytearray(DNA[rng.integers(0, 4, size=max(1, n // 5))].tobytes())
    while len(text) < n:
        length = int(rng.integers(100, 1500))
        start = int(rng.integers(0, max(1, len(text) - length)))
        seg = np.frombuffer(bytes(text[start:start + length]), dtype=np.uint8).copy()
        hit = rng.random(len(seg)) < 0.01
        seg[hit] = DNA[rng.integers(0, 4, size=int(hit.sum()))]
        text += seg.tobytes()
    return bytes(text[:n])


def rmq_queries(n: int, seed: int, count: int = QUERY_LIST) -> list[tuple[int, int]]:
    """1-based (i, j) pairs: random (uniform i <= j), short (j - i <= 63) and
    full (1, n), shuffled together in fixed shares."""
    rng = rng_for(seed, 1)
    n_random = int(count * SHARE_RANDOM)
    n_short = int(count * SHARE_SHORT)
    n_full = count - n_random - n_short
    ends = np.sort(rng.integers(1, n + 1, size=(n_random, 2)), axis=1)
    lo = rng.integers(1, n + 1, size=n_short)
    hi = np.minimum(n, lo + rng.integers(0, SHORT_SPAN + 1, size=n_short))
    i = np.concatenate([ends[:, 0], lo, np.ones(n_full, dtype=np.int64)])
    j = np.concatenate([ends[:, 1], hi, np.full(n_full, n, dtype=np.int64)])
    order = rng.permutation(count)
    return list(zip(i[order].tolist(), j[order].tolist()))


def lce_queries(n: int, seed: int, count: int = QUERY_LIST) -> list[tuple[int, int]]:
    """1-based pairs of distinct suffix positions, uniform."""
    if n < 2:
        raise ValueError("LCE queries need a text of at least two letters")
    rng = rng_for(seed, 1)
    i = rng.integers(1, n + 1, size=count)
    j = (i - 1 + rng.integers(1, n, size=count)) % n + 1
    return list(zip(i.tolist(), j.tolist()))


def argmin_reference(values: np.ndarray, queries) -> list[int]:
    """Leftmost argmin of values[i-1:j], 1-based, for each query."""
    seen: dict[tuple[int, int], int] = {}
    out = []
    for q in queries:
        r = seen.get(q)
        if r is None:
            i, j = q
            r = seen[q] = i + int(np.argmin(values[i - 1:j]))
        out.append(r)
    return out


def lce_direct(text: np.ndarray, i: int, j: int) -> int:
    """Longest common extension of suffixes i and j, by comparing the text."""
    n = len(text)
    limit = n - max(i, j) + 1
    h, step = 0, 64
    while h < limit:
        m = min(limit, h + step)
        diff = np.flatnonzero(text[i - 1 + h:i - 1 + m] != text[j - 1 + h:j - 1 + m])
        if len(diff):
            return h + int(diff[0])
        h, step = m, step * 2
    return limit


def lce_reference(text: bytes, isa, lcp, queries) -> list[int]:
    """LCE answers: the minimum of the LCP slice between the two suffixes' ranks.
    A pair whose slice minimum disagrees with a direct comparison of the text
    gets -1, which no answer equals, so it counts as failed."""
    arr = np.frombuffer(text, dtype=np.uint8)
    lcp = np.asarray(lcp, dtype=np.int64)
    out = []
    for i, j in queries:
        a, b = sorted((isa[i], isa[j]))
        r = int(lcp[a + 1:b + 1].min())
        out.append(r if r == lce_direct(arr, i, j) else -1)
    return out


def timed_stream(fn, queries, seconds: float | None = None, offset: int = 0):
    """Closed loop over `queries` from position `offset`: one pass, or cycling
    until `seconds` have passed. Returns (per-call latencies in ns, answers,
    wall time in ns). An exception is kept as the answer, so it counts as a
    failed operation."""
    ns = time.perf_counter_ns
    lat: list[int] = []
    answers: list = []
    total = len(queries)
    start = ns()
    stop = start + int(seconds * 1e9) if seconds is not None else None
    k = offset
    while True:
        i, j = queries[k % total]
        t0 = ns()
        try:
            r = fn(i, j)
        except Exception as exc:  # noqa: BLE001 - a raised query is a failed operation
            r = exc
        t1 = ns()
        lat.append(t1 - t0)
        answers.append(r)
        k += 1
        if (t1 >= stop) if stop is not None else k - offset == total:
            break
    return lat, answers, ns() - start


def count_failures(answers, reference, label: str, offset: int = 0) -> int:
    """Answers that differ from the reference; the first is reported on stderr."""
    total = len(reference)
    bad = [k for k, r in enumerate(answers, start=offset) if r != reference[k % total]]
    if bad:
        k = bad[0]
        print(f"perfbench: {label}: {len(bad)} wrong of {len(answers)}; first is query "
              f"#{k % total}: got {answers[k - offset]!r}, expected {reference[k % total]}",
              file=sys.stderr)
    return len(bad)
