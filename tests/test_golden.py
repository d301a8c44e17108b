"""Golden bytes and answers: the serialized index must not change unless the
format does, and queries must keep their answers and operation counts.

The byte digests are of format version 9, in which every section is packed
columns or raw payload words under a CRC-32, a micro type is its shape alone,
the cover has one tier and stores no column that follows from the micro-root
tree's portal counts, the inorder position map is stored as each portal's
shape inorder position alone, and only the entropy codec stores a micro
payload (FORMAT.md); a change to any of them means a different file, not
just a different way of building the same one.
A loaded index writes back the bytes it was read from.
The answer digests were recorded from the query path before it was
flattened; the operation-count digests were recorded when the range minimum
over the runs came to read in-block prefix and suffix minima in place of
scanning partial blocks, and inorder select to read the run start in place of
selecting it, on the query path over the runs of the inorder position map,
where each range minimum charges exactly its reads.  Both hold for a built
index and for the same index reloaded from its bytes.
The organ-pipe digests were recorded before the Cartesian tree and the cover
were built by numpy kernels; on that input the nearest-smaller-value kernel
ends on its work budget and finishes by its sequential walk.
"""

import hashlib
import random

import pytest

from succinctrmq import opcount
from succinctrmq.bits import CompressedBitVec
from succinctrmq.rmq import RmqIndex


def seeded_permutation(n: int) -> list[int]:
    values = list(range(n))
    random.Random(12345).shuffle(values)
    return values


def many_ties(n: int) -> list[int]:
    rng = random.Random(4242)
    return [rng.randint(0, 3) for _ in range(n)]


def organ_pipe(n: int) -> list[int]:
    """Even values going up, then odd values coming down: the Cartesian tree is
    two long paths."""
    return [*range(0, n, 2), *reversed(range(1, n, 2))]


GOLDEN = [
    ("perm", 1000, "fixed", "09d328dfbad6ebb4a79989267b54964641731ead"),
    ("perm", 1000, "entropy", "d29441f283cce0c5893729097789e31efb91cf85"),
    ("perm", 1000, "huffman", "cfce5d366b01ab37c559386ac770b588f6db0003"),
    ("perm", 20000, "fixed", "4eeccf9fe0c22c3477367b32b040d44dcbb58d37"),
    ("perm", 20000, "entropy", "b8e3a36bfaae0e69801fc45564f54ccffd104004"),
    ("perm", 20000, "huffman", "2fca250f07e2bb0445cc961a4db53921cd6def51"),
    ("ties", 20000, "entropy", "b08ec211313f1ad56014deb899025ab22b3d6a30"),
    ("organ", 20000, "entropy", "fbb11bd7f93014d95c6c6aebe85b6b61bfaab5ba"),
]

INPUTS = {"perm": seeded_permutation, "ties": many_ties, "organ": organ_pipe}


@pytest.mark.parametrize("kind,n,codec,digest", GOLDEN,
                         ids=[f"{k}-{n}-{c}" for k, n, c, _ in GOLDEN])
def test_index_bytes_unchanged(kind, n, codec, digest):
    blob = RmqIndex.build(INPUTS[kind](n), codec=codec).to_bytes()
    assert hashlib.sha1(blob).hexdigest() == digest


@pytest.mark.parametrize("kind,n,codec", [case[:3] for case in GOLDEN],
                         ids=[f"{k}-{n}-{c}" for k, n, c, _ in GOLDEN])
def test_loaded_index_writes_its_bytes(kind, n, codec):
    blob = RmqIndex.build(INPUTS[kind](n), codec=codec).to_bytes()
    assert RmqIndex.from_bytes(blob).to_bytes() == blob


def golden_queries(n: int) -> list[tuple[int, int]]:
    """3000 seeded 1-based ranges: random, short (length <= 64), and full,
    prefix and suffix ranges."""
    rng = random.Random(2718)
    out = []
    for _ in range(1400):
        i, j = rng.randint(1, n), rng.randint(1, n)
        out.append((min(i, j), max(i, j)))
    for _ in range(1400):
        i = rng.randint(1, n)
        out.append((i, min(n, i + rng.randint(0, 63))))
    out.append((1, n))
    for _ in range(99):
        out.append((1, rng.randint(1, n)))
    for _ in range(100):
        out.append((rng.randint(1, n), n))
    return out


def answers_and_ops(index: RmqIndex, queries) -> tuple[list[int], list[int]]:
    answers, ops = [], []
    for i, j in queries:
        start = opcount.snapshot()
        answers.append(index.query(i, j))
        ops.append(opcount.snapshot() - start)
    return answers, ops


def digest(values: list[int]) -> str:
    return hashlib.sha1(",".join(map(str, values)).encode("ascii")).hexdigest()


# SHA-1 of the answers and of the per-query operation counts; the DENSE case
# takes select through the plain bit vector, the others through the sparse one.
GOLDEN_QUERIES = [
    ("perm", None, CompressedBitVec.SPARSE, "c6b2bc5ae1a1977f374dfe4a05c6c6ea1a9ef63e",
     "5f677d921e0d75e87310bb82acc28a4b4cc277bb"),
    ("perm", 4, CompressedBitVec.DENSE, "c6b2bc5ae1a1977f374dfe4a05c6c6ea1a9ef63e",
     "13cc16987bef06d6bfddeadad5c8b40acf68b010"),
    ("ties", None, None, "cd95f6121e1013a98d6410d6a4d805ca06ce8885",
     "db49b7aa56622a11fe6eb61425accaa977e6ec95"),
    ("organ", None, None, "42d2e9a52bb4975a7f731de9fc5b9113557e70e0",
     "ac093fcd005196398ba9c93f793ff7c47f5f0275"),
]


def check_queries(kind, micro_b, c_in_mode, answers_sha, ops_sha, reload):
    n = 20000
    index = RmqIndex.build(INPUTS[kind](n), micro_b=micro_b)
    if reload:
        index = RmqIndex.from_bytes(index.to_bytes())
    if c_in_mode is not None:
        assert index.cover.c_in.mode == c_in_mode
    answers, ops = answers_and_ops(index, golden_queries(n))
    assert digest(answers) == answers_sha
    assert digest(ops) == ops_sha


QUERY_IDS = [f"{k}-micro_b={m}" for k, m, *_ in GOLDEN_QUERIES]


@pytest.mark.parametrize("kind,micro_b,c_in_mode,answers_sha,ops_sha", GOLDEN_QUERIES,
                         ids=QUERY_IDS)
def test_query_answers_and_ops_unchanged(kind, micro_b, c_in_mode, answers_sha, ops_sha):
    check_queries(kind, micro_b, c_in_mode, answers_sha, ops_sha, reload=False)


@pytest.mark.parametrize("kind,micro_b,c_in_mode,answers_sha,ops_sha", GOLDEN_QUERIES,
                         ids=QUERY_IDS)
def test_loaded_query_answers_and_ops_unchanged(kind, micro_b, c_in_mode, answers_sha, ops_sha):
    check_queries(kind, micro_b, c_in_mode, answers_sha, ops_sha, reload=True)
