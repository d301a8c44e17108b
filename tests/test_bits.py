import random

import numpy as np
import pytest

from succinctrmq.bits import (BitVec, CompressedBitVec, PiecewiseConstantArray, VariableCellArray,
                              compact_array, pack_column, read_column)
from succinctrmq.serial import DecodeError, Reader


def naive_rank(bits, alpha, i):
    return sum(1 for b in bits[:i] if b == alpha)


def naive_select(bits, alpha, k):
    seen = 0
    for idx, b in enumerate(bits, start=1):
        if b == alpha:
            seen += 1
            if seen == k:
                return idx
    raise ValueError


BITS_101101 = [1, 0, 1, 1, 0, 1]


@pytest.fixture(params=["plain", "compressed"])
def vec101101(request):
    cls = BitVec if request.param == "plain" else CompressedBitVec
    return cls(BITS_101101)


class TestAccessRankSelect:
    def test_access_examples(self, vec101101):
        assert vec101101.access(3) == 1
        assert vec101101.access(2) == 0

    def test_access_all_zero(self):
        for cls in (BitVec, CompressedBitVec):
            v = cls([0] * 17)
            assert all(v.access(i) == 0 for i in range(1, 18))

    def test_rank_examples(self, vec101101):
        assert vec101101.rank(1, 4) == 3
        assert vec101101.rank(0, 6) == 2
        assert vec101101.rank(1, 0) == 0
        assert vec101101.rank(0, 0) == 0

    def test_select_examples(self, vec101101):
        assert vec101101.select(1, 3) == 4
        assert vec101101.select(0, 1) == 2

    def test_select_singleton(self):
        for cls in (BitVec, CompressedBitVec):
            assert cls([1]).select(1, 1) == 1

    def test_range_errors(self, vec101101):
        with pytest.raises(IndexError):
            vec101101.access(0)
        with pytest.raises(IndexError):
            vec101101.access(7)
        with pytest.raises(IndexError):
            vec101101.rank(1, 7)
        with pytest.raises(ValueError):
            vec101101.select(1, 5)
        with pytest.raises(ValueError):
            vec101101.select(0, 3)

    @pytest.mark.parametrize("n,density", [(1, 0.5), (63, 0.5), (64, 0.5), (65, 0.5),
                                           (511, 0.9), (513, 0.1), (4096, 0.01),
                                           (10000, 0.5), (10000, 0.003)])
    def test_oracle_equivalence(self, n, density):
        rng = random.Random(1234 + n + int(density * 1000))
        bits = [1 if rng.random() < density else 0 for _ in range(n)]
        for v in (BitVec(bits), CompressedBitVec(bits)):
            for i in range(n + 1):
                assert v.rank(1, i) == naive_rank(bits, 1, i)
                assert v.rank(0, i) == naive_rank(bits, 0, i)
            for i in range(1, n + 1):
                assert v.access(i) == bits[i - 1]
            ones = sum(bits)
            for k in range(1, ones + 1):
                assert v.select(1, k) == naive_select(bits, 1, k)
            for k in range(1, n - ones + 1):
                assert v.select(0, k) == naive_select(bits, 0, k)

    def test_rank_invariants_random(self):
        rng = random.Random(7)
        bits = [rng.randint(0, 1) for _ in range(777)]
        v = BitVec(bits)
        c = CompressedBitVec(bits)
        for i in range(0, 778, 7):
            assert v.rank(1, i) + v.rank(0, i) == i
            assert c.rank(1, i) + c.rank(0, i) == i
        for alpha in (0, 1):
            total = v.rank(alpha, 777)
            if total:
                assert v.select(alpha, total) <= 777
                for k in (1, total // 2 or 1, total):
                    assert v.access(v.select(alpha, k)) == alpha
                    assert c.access(c.select(alpha, k)) == alpha


class TestCompressedStorage:
    def test_sparse_mode_selected(self):
        v = CompressedBitVec.from_positions(100000, [5, 77, 4097, 90000])
        assert v.mode == CompressedBitVec.SPARSE
        assert v.rank1(100000) == 4
        assert v.select1(3) == 4097

    def test_dense_fallback(self):
        bits = [1, 0] * 500
        v = CompressedBitVec(bits)
        assert v.mode == CompressedBitVec.DENSE
        sp = v.space_bits()
        assert sp["payload"] <= 1000 + 64

    def test_payload_bound_sparse(self):
        # payload <= c * m * lg(n/m) + directory for a fixed constant c
        import math

        c = 4.0
        rng = random.Random(99)
        for n, m in [(4096, 16), (65536, 64), (65536, 256), (1 << 20, 1000)]:
            positions = sorted(rng.sample(range(1, n + 1), m))
            v = CompressedBitVec.from_positions(n, positions)
            assert v.mode == CompressedBitVec.SPARSE
            assert v.payload_bits() <= c * m * math.log2(n / m)

    def test_never_worse_than_plain(self):
        rng = random.Random(5)
        for density in (0.001, 0.2, 0.7):
            bits = [1 if rng.random() < density else 0 for _ in range(2048)]
            v = CompressedBitVec(bits)
            sp = v.space_bits()
            assert sp["payload"] <= 2048 + 64

    def test_equivalence_modes(self):
        rng = random.Random(321)
        for density in (0.002, 0.4):
            bits = [1 if rng.random() < density else 0 for _ in range(3000)]
            plain = BitVec(bits)
            comp = CompressedBitVec(bits)
            for i in range(0, 3001, 13):
                assert plain.rank1(i) == comp.rank1(i)
            for k in range(1, sum(bits) + 1):
                assert plain.select1(k) == comp.select1(k)
            assert comp.positions() == [i for i, b in enumerate(bits, 1) if b]


class TestVariableCellArray:
    def test_start_examples(self):
        a = VariableCellArray([(0b101, 3), (0b10010, 5), (0b01, 2)])
        assert a.start(1) == 0
        assert a.start(2) == 3
        assert a.start(3) == 8
        assert a.total_bits == 10

    def test_start_prefix_sums_random(self):
        rng = random.Random(11)
        for trial in range(20):
            sizes = [rng.randint(1, 40) for _ in range(rng.randint(1, 300))]
            objs = [(rng.getrandbits(s) if s else 0, s) for s in sizes]
            a = VariableCellArray(objs)
            acc = 0
            for i, s in enumerate(sizes, start=1):
                assert a.start(i) == acc
                assert a.size(i) == s
                acc += s

    def test_object_roundtrip(self):
        rng = random.Random(13)
        objs = [(rng.getrandbits(s), s) for s in (rng.randint(1, 130) for _ in range(100))]
        a = VariableCellArray(objs)
        for i, (v, s) in enumerate(objs, start=1):
            assert a.object_bits(i) == (v, s)

    def test_errors(self):
        a = VariableCellArray([(1, 1)])
        with pytest.raises(IndexError):
            a.start(0)
        with pytest.raises(IndexError):
            a.start(2)
        with pytest.raises(ValueError):
            VariableCellArray([(4, 2)])

    def test_serialization(self):
        objs = [(5, 3), (0, 4), (1023, 10)]
        a = VariableCellArray(objs)
        b = VariableCellArray.from_bytes(a.to_bytes())
        assert [b.object_bits(i) for i in (1, 2, 3)] == [a.object_bits(i) for i in (1, 2, 3)]

    def test_serialization_word_boundaries(self):
        # empty objects, objects ending on and straddling 64-bit word
        # boundaries, and objects longer than two words
        rng = random.Random(17)
        sizes = [0, 1, 63, 64, 65, 0, 127, 128, 129, 200, 0, 1000, 5, 64, 0, 130]
        objs = [(rng.getrandbits(s) if s else 0, s) for s in sizes]
        objs[-1] = ((1 << 130) - 1, 130)
        a = VariableCellArray(objs)
        blob = a.to_bytes()
        b = VariableCellArray.from_bytes(blob)
        assert (b.m, b.total_bits, b.block_size) == (a.m, a.total_bits, a.block_size)
        assert [b.object_bits(i) for i in range(1, len(objs) + 1)] == objs
        assert [b.start(i) for i in range(1, len(objs) + 1)] == \
            [a.start(i) for i in range(1, len(objs) + 1)]
        assert b.to_bytes() == blob

    def test_block_size_follows_payload_length(self):
        # b = ceil(lg(total + 3))^2; 300 one-bit objects span four blocks
        for total, b in ((0, 4), (1, 4), (5, 9), (300, 81), (2 ** 20, 441)):
            a = VariableCellArray([(0, total)] if total > 1 else [(0, 1)] * total)
            assert a.block_size == b
        a = VariableCellArray([(i & 1, 1) for i in range(300)])
        assert len(a._block_start) == 4
        assert [a.start(i) for i in range(1, 301)] == list(range(300))
        assert a.sizes().tolist() == [1] * 300

    def test_empty_array_roundtrip(self):
        b = VariableCellArray.from_bytes(VariableCellArray([]).to_bytes())
        assert (b.m, b.total_bits) == (0, 0)

    def test_payload_length_checked(self):
        # the layout is size column | payload words: a word short, a word
        # over, a set bit past the 73 object bits, an object size of 2^40
        a = VariableCellArray([(5, 3), ((1 << 70) - 1, 70)])
        blob = a.to_bytes()
        padded = bytearray(blob)
        padded[-1] |= 0x80
        huge = pack_column([3, 1 << 40]) + blob[len(pack_column([3, 70])):]
        for bad in (blob[:-8], blob + bytes(8), bytes(padded), huge):
            with pytest.raises(DecodeError):
                VariableCellArray.from_bytes(bad)


class TestPackedColumn:
    @pytest.mark.parametrize("width", [1, 3, 8, 13, 20, 32, 33, 57, 58, 63])
    def test_roundtrip_at_every_width(self, width):
        rng = np.random.default_rng(width)
        for count in (0, 1, 7, 8, 9, 100):
            values = rng.integers(0, 1 << (width - 1), count, dtype=np.int64) * 2 + 1
            if count:
                values[-1] = (1 << width) - 1
            blob = pack_column(values)
            assert blob[4] == (width if count else 1)
            assert len(blob) == 5 + (count * blob[4] + 7) // 8
            r = Reader(blob, "T")
            assert read_column(r).tolist() == values.tolist()
            r.end()

    def test_layout_is_lsb_first(self):
        # 3-bit entries 1, 2, 7: bits 100 010 111 -> bytes 0b11010001, 0b1
        assert pack_column([1, 2, 7]) == bytes([3, 0, 0, 0, 3, 0b11010001, 0b1])

    def test_malformed(self):
        blob = pack_column([1, 2, 7])
        for bad in (blob[:-1], blob[:4] + b"\x00" + blob[5:], blob[:4] + b"\x40" + blob[5:],
                    blob[:-1] + b"\x03"):
            with pytest.raises(DecodeError):
                read_column(Reader(bad, "T"))
        with pytest.raises(ValueError):
            pack_column([-1])

    def test_compact_array_typecodes(self):
        for top, code in ((255, "B"), (256, "H"), (1 << 16, "I"), (1 << 32, "q")):
            arr = compact_array(np.array([0, top]))
            assert arr.typecode == code and arr.tolist() == [0, top]


class TestPiecewiseConstantArray:
    A = [5, 5, 5, 7, 7, 5]

    def test_access_examples(self):
        p = PiecewiseConstantArray(self.A)
        assert p.access(4) == 7
        assert p.access(6) == 5
        assert PiecewiseConstantArray([9, 9, 9]).access(2) == 9

    def test_runlen_examples(self):
        p = PiecewiseConstantArray(self.A)
        assert p.runlen(3) == 3
        assert p.runlen(5) == 2
        # change positions have runlen 1
        for i in (1, 4, 6):
            assert p.runlen(i) == 1

    def test_change_vector_invariant(self):
        p = PiecewiseConstantArray(self.A)
        assert p.C.ones == len(p.values)
        assert p.C.access(1) == 1

    def test_reconstruction_random_runs(self):
        rng = random.Random(17)
        for trial in range(25):
            arr = []
            while len(arr) < rng.randint(1, 2000):
                arr.extend([rng.randint(0, 50)] * rng.randint(1, 30))
            arr = arr[:10000]
            p = PiecewiseConstantArray(arr)
            for i in range(1, len(arr) + 1):
                assert p.access(i) == arr[i - 1]

    def test_runlen_against_scan(self):
        rng = random.Random(19)
        arr = []
        while len(arr) < 3000:
            arr.extend([rng.randint(0, 5)] * rng.randint(1, 12))
        p = PiecewiseConstantArray(arr)
        for i in range(1, len(arr) + 1):
            j = i
            while j > 1 and arr[j - 2] == arr[i - 1]:
                j -= 1
            assert p.runlen(i) == i - j + 1

    def test_explicit_runs_allow_equal_adjacent_values(self):
        # runs may be split even where values coincide; access must still work
        p = PiecewiseConstantArray([3, 3], run_starts=[1, 3], n=4)
        assert [p.access(i) for i in range(1, 5)] == [3, 3, 3, 3]
        assert p.runlen(3) == 1
        assert p.runlen(4) == 2

    def test_errors(self):
        p = PiecewiseConstantArray(self.A)
        with pytest.raises(IndexError):
            p.access(0)
        with pytest.raises(IndexError):
            p.runlen(7)


class TestSerialization:
    """These structures have no serializer of their own: an index stores
    what a load rebuilds them from (words, a packed position column, run
    starts and values)."""

    def test_bitvec_roundtrip(self):
        rng = random.Random(23)
        bits = [rng.randint(0, 1) for _ in range(300)]
        v = BitVec(bits)
        w = BitVec.from_words(v.n, v._words)
        assert w.n == 300 and all(w.access(i) == bits[i - 1] for i in range(1, 301))

    def test_compressed_roundtrip(self):
        v = CompressedBitVec.from_positions(5000, [1, 9, 4999])
        column = read_column(Reader(pack_column(v.positions()), "run starts"))
        w = CompressedBitVec.from_positions(5000, column)
        assert w.positions() == [1, 9, 4999]

    def test_pca_roundtrip(self):
        p = PiecewiseConstantArray([5, 5, 5, 7, 7, 5])
        q = PiecewiseConstantArray(p.values, run_starts=p.C.positions(), n=p.n)
        assert [q.access(i) for i in range(1, 7)] == [5, 5, 5, 7, 7, 5]
        assert q.runlen(5) == 2

    def test_pca_roundtrip_negative_values(self):
        p = PiecewiseConstantArray([-4, -4, 9, -1])
        q = PiecewiseConstantArray(p.values, run_starts=p.C.positions(), n=p.n)
        assert [q.access(i) for i in range(1, 5)] == [-4, -4, 9, -1]

    def test_truncated_stream(self):
        blob = pack_column(CompressedBitVec.from_positions(3, [1, 3]).positions())
        with pytest.raises(DecodeError):
            read_column(Reader(blob[:-1], "run starts"))
