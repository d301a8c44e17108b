import random

import pytest

from succinctrmq.lcp import LcpData, inverse_suffix_array, lcp_array, suffix_array
from succinctrmq.rmq import RmqIndex


class TestSuffixArray:
    def test_aaaa(self):
        sa = suffix_array(b"aaaa")
        assert sa == [4, 3, 2, 1]
        assert lcp_array(b"aaaa", sa)[1:] == [0, 1, 2, 3]

    def test_ab(self):
        sa = suffix_array(b"ab")
        assert sa == [1, 2]
        assert lcp_array(b"ab", sa)[1:] == [0, 0]

    def test_banana(self):
        text = b"banana"
        sa = suffix_array(text)
        suffixes = sorted(range(1, 7), key=lambda i: text[i - 1:])
        assert sa == suffixes

    def test_sorted_property_random(self):
        rng = random.Random(3)
        for _ in range(10):
            text = bytes(rng.choice(b"abc") for _ in range(rng.randint(1, 400)))
            sa = suffix_array(text)
            for k in range(1, len(sa)):
                assert text[sa[k - 1] - 1:] < text[sa[k] - 1:]

    @pytest.mark.parametrize("text", [b"abcab" * 400, b"a" * 3000,
                                      b"b" * 1500 + b"a" + b"b" * 1500],
                             ids=["periodic", "single-letter", "run-split"])
    def test_many_doubling_rounds(self, text):
        # long repeats keep ranks tied for the most rounds
        sa = suffix_array(text)
        assert sa == sorted(range(1, len(text) + 1), key=lambda i: text[i - 1:])
        lcp = lcp_array(text, sa)
        for k in range(2, len(text) + 1, 97):
            a, b = text[sa[k - 2] - 1:], text[sa[k - 1] - 1:]
            h = 0
            while h < min(len(a), len(b)) and a[h] == b[h]:
                h += 1
            assert lcp[k] == h

    def test_lcp_matches_naive(self):
        rng = random.Random(4)
        text = bytes(rng.choice(b"ab") for _ in range(300))
        data = LcpData.from_text(text)
        for k in range(2, 301):
            i, j = data.sa[k - 1], data.sa[k - 2]
            assert data.lcp[k] == data.lce_naive(i, j)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            suffix_array(b"")


def _repetitive_dna(n: int, seed: int) -> bytes:
    """A random 4-letter base of n/5 letters, then copies of earlier segments
    of 100..1499 letters with 1% point mutations, until n letters."""
    rng = random.Random(seed)
    text = bytearray(rng.choice(b"ACGT") for _ in range(n // 5))
    while len(text) < n:
        length = rng.randint(100, 1499)
        start = rng.randint(0, max(0, len(text) - length))
        seg = text[start:start + length]
        for k in range(len(seg)):
            if rng.random() < 0.01:
                seg[k] = rng.choice(b"ACGT")
        text += seg
    return bytes(text[:n])


_rng = random.Random(11)
KERNEL_TEXTS = {
    "one-letter": b"q",
    "one-zero": b"\x00",
    "one-ff": b"\xff",
    "two-ab": b"ab",
    "two-ba": b"ba",
    "two-equal": b"zz",
    "two-zeros": b"\x00\x00",
    "two-ff-zero": b"\xff\x00",
    "zero-ff-mix": b"\x00\xff\x00\x00\xff\xff\x00",
    "zeros-run": b"\x00" * 300,
    "extremes-random": bytes(_rng.choice(b"\x00\x01\xfe\xff") for _ in range(600)),
    "single-letter": b"a" * 1500,
    "single-ff": b"\xff" * 700,
    "periodic": b"abcab" * 300,
    "periodic-extremes": b"\x00\xff\xff" * 400,
    "run-split": b"b" * 800 + b"a" + b"b" * 800,
    "run-split-zeros": b"\x00" * 500 + b"\xff" + b"\x00" * 500,
    "random-bytes": bytes(_rng.randrange(256) for _ in range(3000)),
}


class TestKernel:
    """`LcpData.from_text` against a naive sorted-suffix oracle and Kasai."""

    @pytest.mark.parametrize("text", KERNEL_TEXTS.values(), ids=KERNEL_TEXTS.keys())
    def test_matches_oracle(self, text):
        n = len(text)
        data = LcpData.from_text(text)
        # bytes compare a proper prefix below any extension, so the end of
        # the text sorts below 0x00
        oracle = sorted(range(1, n + 1), key=lambda i: text[i - 1:])
        assert data.sa == oracle
        assert suffix_array(text) == oracle
        assert data.isa[0] == 0 and len(data.isa) == n + 1
        assert all(data.isa[oracle[k - 1]] == k for k in range(1, n + 1))
        assert data.lcp == lcp_array(text, oracle)

    def test_repetitive_dna(self):
        text = _repetitive_dna(20000, seed=2)
        n = len(text)
        data = LcpData.from_text(text)
        assert data.lcp == lcp_array(text, data.sa)
        assert data.isa == inverse_suffix_array(data.sa)
        # the LCPs run to many times the 7 letters of the first sort's key
        assert max(data.lcp) >= 16 * 7
        for k in range(2, n + 1):
            a, b = data.sa[k - 2] - 1, data.sa[k - 1] - 1
            h = data.lcp[k]
            assert text[a:] < text[b:]
            assert text[a:a + h] == text[b:b + h]
            assert a + h == n or b + h == n or text[a + h] != text[b + h]


class TestLce:
    def test_spot_checks_against_naive(self):
        rng = random.Random(5)
        text = bytes(rng.choice(b"abab") for _ in range(500)) + b"abababab" * 20
        data = LcpData.from_text(text)
        index = RmqIndex.build(data.lcp[1:])
        n = len(text)
        for _ in range(1000):
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            assert data.lce(i, j, index.query) == data.lce_naive(i, j)

    @pytest.mark.parametrize("text", [*KERNEL_TEXTS.values(), b"banana", b"mississippi",
                                      _repetitive_dna(3000, seed=4)],
                             ids=[*KERNEL_TEXTS.keys(), "banana", "mississippi", "dna"])
    def test_direct_matches_naive(self, text):
        # every pair of a short text, and seeded pairs of a longer one
        data = LcpData(text=text, sa=[], isa=[], lcp=[])
        n = len(text)
        if n <= 64:
            pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        else:
            rng = random.Random(n)
            pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(1500)]
            pairs += [(1, n), (n, 1), (1, 1), (n, n), (1, 2), (2, 1)]
        for i, j in pairs:
            assert data.lce_direct(i, j) == data.lce_naive(i, j), (i, j)

    def test_self_extension(self):
        data = LcpData.from_text(b"mississippi")
        index = RmqIndex.build(data.lcp[1:])
        for i in range(1, 12):
            assert data.lce(i, i, index.query) == 12 - i
