import random

import pytest

from succinctrmq.lcp import LcpData, lcp_array, suffix_array
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

    def test_self_extension(self):
        data = LcpData.from_text(b"mississippi")
        index = RmqIndex.build(data.lcp[1:])
        for i in range(1, 12):
            assert data.lce(i, i, index.query) == 12 - i
