"""Golden bytes: the serialized index must not change unless the format does.

The digests were recorded from the index builder before its construction path
was rewritten; a change to any of them means a different file, not just a
different way of building the same one.
"""

import hashlib
import random

import pytest

from succinctrmq.rmq import RmqIndex


def seeded_permutation(n: int) -> list[int]:
    values = list(range(n))
    random.Random(12345).shuffle(values)
    return values


def many_ties(n: int) -> list[int]:
    rng = random.Random(4242)
    return [rng.randint(0, 3) for _ in range(n)]


GOLDEN = [
    ("perm", 1000, "fixed", "5ab020a457341d2a934632739d9ecda28e0fae4b"),
    ("perm", 1000, "entropy", "61e2e7db36d3a61ff24c9c29abf16d0f603b4c4a"),
    ("perm", 1000, "huffman", "6d00c766bae0c1a781244b48824a122e83fe6527"),
    ("perm", 20000, "fixed", "47e96d83a9c866b4748db5869f5ee809455fe5c6"),
    ("perm", 20000, "entropy", "16c8fabbb223217c70b9e18d77f7f468d2fb5bff"),
    ("perm", 20000, "huffman", "9404e0289955705b8d9e258a188d72a1b8a7c534"),
    ("ties", 20000, "entropy", "b9f0bb187900481285605e7338f5f179b465a707"),
]

INPUTS = {"perm": seeded_permutation, "ties": many_ties}


@pytest.mark.parametrize("kind,n,codec,digest", GOLDEN,
                         ids=[f"{k}-{n}-{c}" for k, n, c, _ in GOLDEN])
def test_index_bytes_unchanged(kind, n, codec, digest):
    blob = RmqIndex.build(INPUTS[kind](n), codec=codec).to_bytes()
    assert hashlib.sha1(blob).hexdigest() == digest
