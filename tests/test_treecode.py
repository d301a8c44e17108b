import math
import random
import time

import numpy as np
import pytest

from succinctrmq.bits import bits_to_object
from succinctrmq.serial import DecodeError, bits_to_bytes, encode_varint
from succinctrmq.treecode import (
    _finish_lanes,
    _level_type,
    RangeDecoder,
    RangeEncoder,
    SELECTOR_SIZECODE,
    SELECTOR_ZAKS,
    TreeCode,
    decode_count,
    decode_tree,
    encode_count,
    encode_hybrid,
    encode_left_sizes,
    encode_size_sequence,
    encode_size_sequences,
    encode_subtree_size,
    encode_zaks,
    decode_left_sizes,
    subtree_sizes,
    zaks_arrays,
    zaks_decode,
)
from succinctrmq.trees import (
    build_cartesian,
    caterpillar,
    enumerate_shapes,
    left_path,
    right_path,
    sample_random_bst,
    subtree_entropy,
    zigzag_path,
)

from test_trees import FIG_ARRAY


def hybrid_budget(t):
    """2*ceil(lg n) + min(ceil(H_st)+4, 2n+2)."""
    n = t.n
    hdr = 2 * math.ceil(math.log2(n)) if n > 1 else 0
    hst = subtree_entropy(t).hst
    return hdr + min(math.ceil(hst) + 4, 2 * n + 2)


def preorder_arrays(t):
    """Left-subtree sizes and left depths of t in preorder, as lists; the left
    depth is preorder + left size - inorder."""
    ls = list(t.ls[1:])
    return ls, [v + ls[v - 1] - t.inorder_of[v] for v in range(1, t.n + 1)]


class TestRangeCoder:
    def test_inverse_small(self):
        stream = [(2, 1), (3, 0), (3, 2), (7, 6), (1, 0), (100, 99)]
        enc = RangeEncoder()
        for s, k in stream:
            enc.encode(s, k)
        bits = enc.finish()
        dec = RangeDecoder(bits)
        for s, k in stream:
            assert dec.decode(s) == k

    def test_inverse_long_random(self):
        rng = random.Random(2718)
        stream = []
        for _ in range(100000):
            s = rng.choice([1, 2, 3, 5, 17, 256, 10**4, 10**6])
            stream.append((s, rng.randrange(s)))
        enc = RangeEncoder()
        for s, k in stream:
            enc.encode(s, k)
        bits = enc.finish()
        info = sum(math.log2(s) for s, _ in stream)
        assert len(bits) <= info + 2 + 1e-6
        dec = RangeDecoder(bits)
        for s, k in stream:
            assert dec.decode(s) == k

    def test_empty_stream(self):
        enc = RangeEncoder()
        assert enc.finish() == []

    def test_symbol_out_of_range(self):
        enc = RangeEncoder()
        with pytest.raises(ValueError):
            enc.encode(3, 3)

    def test_rejected_symbol_keeps_earlier_ones(self):
        enc = RangeEncoder()
        with pytest.raises(ValueError):
            enc.encode_all([5, 7, 3, 2], [4, 6, 3, 1])
        dec = RangeDecoder(enc.finish())
        assert [dec.decode(5), dec.decode(7)] == [4, 6]


def oracle_range_code(models, symbols):
    """The bit-at-a-time E1/E2/E3 loop whose closed form `RangeEncoder`
    now runs, kept as the oracle for it and for the lane coder."""
    half, quarter, mask = 1 << 61, 1 << 60, (1 << 62) - 1
    low, high, pending, out = 0, mask, 0, []

    def emit(b):
        nonlocal pending
        out.extend([b] + [1 - b] * pending)
        pending = 0

    for s, k in zip(models, symbols):
        assert 0 <= k < s
        q, r = divmod(high - low + 1, s)
        low += k * (q + 1) if k < r else r * (q + 1) + (k - r) * q
        high = low + q - (k >= r)
        while True:
            if high < half:
                emit(0)
            elif low >= half:
                emit(1)
                low, high = low - half, high - half
            elif low >= quarter and high < half + quarter:
                pending += 1
                low, high = low - quarter, high - quarter
            else:
                break
            low, high = low << 1, (high << 1) | 1
    for kf in range(1 if pending else 0, 63):
        block = 1 << (62 - kf)
        c = -(-low // block)
        if c * block + block - 1 <= high:
            for j in range(kf - 1, -1, -1):
                emit((c >> j) & 1)
            return out
    raise AssertionError("unreachable")


def straddling_stream(s, n):
    """n symbols of model s, each the one whose part of the range holds the
    midpoint: the range never leaves the middle, so every symbol only adds
    E3 steps to `pending`, and nothing flushes them until finish."""
    enc, symbols = RangeEncoder(), []
    for _ in range(n):
        q, r = divmod(enc.high - enc.low + 1, s)
        d = (1 << 61) - 1 - enc.low
        k = d // (q + 1) if d < r * (q + 1) else r + (d - r * (q + 1)) // q
        symbols.append(k)
        enc.encode(s, k)
    return [s] * n, symbols


def random_stream(rng, length, models=(1, 2, 3, 5, 17, 256, 10**4, 10**6, 2**31 - 1)):
    stream = []
    for _ in range(length):
        s = rng.choice(models)
        stream.append((s, rng.randrange(s)))
    return [s for s, _ in stream], [k for _, k in stream]


class TestRangeCoderClosedForm:
    """`RangeEncoder.encode_all` renormalises a symbol in closed form; it must
    emit what the bit-at-a-time loop emits."""

    def test_random_streams(self):
        rng = random.Random(4242)
        for _ in range(300):
            models, symbols = random_stream(rng, rng.randint(0, 400),
                                            (1, 2, 3, 7, 100, 2**20, 2**40, 2**59))
            enc = RangeEncoder()
            enc.encode_all(models, symbols)
            assert enc.finish() == oracle_range_code(models, symbols)

    @pytest.mark.parametrize("s, n", [(3, 1), (3, 40), (3, 200), (1000, 60)])
    def test_long_pending_runs(self, s, n):
        models, symbols = straddling_stream(s, n)
        enc = RangeEncoder()
        enc.encode_all(models, symbols)
        assert enc.pending >= n and not enc.bits
        assert enc.finish() == oracle_range_code(models, symbols)
        # then a symbol of the lower half flushes them all behind its first bit
        enc = RangeEncoder()
        enc.encode_all(models + [2], symbols + [0])
        assert enc.finish() == oracle_range_code(models + [2], symbols + [0])

    def test_tree_streams(self):
        rng = random.Random(99)
        for _ in range(50):
            t = sample_random_bst(rng.randint(1, 600), rng.randrange(10**9))
            assert encode_left_sizes(t) == oracle_range_code(t.st[1:], t.ls[1:])


def lane_oracle(seqs):
    """What the lane coder must give: the scalar coder's bits of each
    sequence, as a (value, size) object."""
    return [bits_to_object(encode_size_sequence(st, ls)) for st, ls in seqs]


def lane_code(seqs):
    st = np.concatenate([np.asarray(a, dtype=np.int64) for a, _ in seqs] or [np.zeros(0)])
    ls = np.concatenate([np.asarray(b, dtype=np.int64) for _, b in seqs] or [np.zeros(0)])
    return encode_size_sequences(st, ls, [len(a) for a, _ in seqs])


def shape_seq(t):
    return list(t.st[1:]), list(t.ls[1:])


class TestLaneCoder:
    """`encode_size_sequences` codes many sequences in lockstep; each code
    must be bit for bit the scalar `RangeEncoder`'s."""

    def test_random_shape_batches(self):
        rng = random.Random(8080)
        for _ in range(6):
            seqs = [shape_seq(sample_random_bst(rng.randint(1, 800), rng.randrange(10**9)))
                    for _ in range(rng.randint(1, 60))]
            assert lane_code(seqs) == lane_oracle(seqs)

    def test_one_lane(self):
        seqs = [shape_seq(sample_random_bst(700, 3))]
        assert lane_code(seqs) == lane_oracle(seqs)

    def test_no_symbols(self):
        # a 1-node shape codes nothing: every lane ends where it starts
        seqs = [([1], [0])] * 5
        assert lane_code(seqs) == lane_oracle(seqs) == [(0, 0)] * 5
        assert lane_code([]) == []

    def test_long_pending_runs(self):
        # runs of pending bits past 64, across the lanes' 64-bit words
        seqs = [straddling_stream(3, n) for n in (1, 20, 31, 32, 33, 64, 65, 300)]
        seqs += [(m + [2, 5], k + [1, 4]) for m, k in (straddling_stream(1000, n) for n in (9, 50))]
        seqs += [([3] * n, [1] * n) for n in (5, 100)]
        seqs.append(shape_seq(right_path(50)))
        assert lane_code(seqs) == lane_oracle(seqs)

    def test_arbitrary_streams(self):
        # models up to the lane coder's 2^31 - 1, in any order
        rng = random.Random(6174)
        seqs = [random_stream(rng, rng.randint(0, 300)) for _ in range(40)]
        assert lane_code(seqs) == lane_oracle(seqs)

    def test_paths_take_the_longest_codes(self):
        seqs = [shape_seq(make(n)) for make in (left_path, right_path, zigzag_path, caterpillar)
                for n in (1, 2, 9, 200)]
        assert lane_code(seqs) == lane_oracle(seqs)

    def test_finish_rule(self):
        # final states no short stream reaches: the whole range, with and
        # without pending bits, and ranges a few values wide at the midpoint
        half, mask = 1 << 61, (1 << 62) - 1
        states = [(0, mask, 0), (0, mask, 5), (half >> 1, half + (half >> 1) - 1, 1),
                  (half - 1, half, 0), (half - 1, half, 7), (1, mask - 1, 2), (half, half + 1, 3)]
        rng = random.Random(5)
        for _ in range(200):
            lo, hi = sorted(rng.sample(range(mask + 1), 2))
            states.append((lo, hi, rng.choice([0, 0, 1, 70])))
        top, count = _finish_lanes(*(np.array(x, dtype=np.int64) for x in zip(*states)))
        for (lo, hi, pending), value, kf in zip(states, top.tolist(), count.tolist()):
            enc = RangeEncoder()
            enc.low, enc.high, enc.pending = lo, hi, pending
            bits = enc.finish()  # the first bit, the pending bits, the rest
            assert len(bits) == (kf + pending if kf else 0)
            assert bits[:1] + bits[1 + pending:] == [int(d) for d in format(value, f"0{kf}b")][:kf]

    @pytest.mark.parametrize("st, ls, message", [
        ([4, 2, 3], [1, 2, 0], "symbol 2 outside model range 0..1"),
        ([3, 2], [-1, 0], "symbol -1 outside model range 0..2"),
        ([1], [1], "symbol 1 outside model range 0..0"),
    ])
    def test_symbol_out_of_range(self, st, ls, message):
        with pytest.raises(ValueError, match=message):
            encode_size_sequences(st, ls, [len(st)])
        with pytest.raises(ValueError, match=message):
            encode_size_sequence(st, ls)

    def test_rejects_what_it_cannot_code(self):
        with pytest.raises(ValueError, match="too large"):
            encode_size_sequences([2**31, 2], [0, 1], [2])
        with pytest.raises(ValueError, match="split"):
            encode_size_sequences([2, 1], [0, 0], [1])


class TestCountHeader:
    @pytest.mark.parametrize("n", list(range(0, 40)) + [63, 64, 65, 127, 128, 1000, 10**6])
    def test_roundtrip(self, n):
        bits = encode_count(n)
        got, pos = decode_count(bits + [1, 0, 1])
        assert got == n
        assert pos == len(bits)

    @pytest.mark.parametrize("n", range(2, 300))
    def test_budget(self, n):
        # header must stay within 2*ceil(lg n) bits (n >= 3; 3 bits for n <= 2)
        limit = max(3, 2 * math.ceil(math.log2(n)))
        assert len(encode_count(n)) <= limit


class TestZaks:
    def test_examples(self):
        assert encode_zaks(build_cartesian([1])) == [1, 0, 0]
        assert encode_zaks(left_path(2)) == [1, 1, 0, 0, 0]
        assert encode_zaks(build_cartesian([2, 1, 3])) == [1, 1, 0, 0, 1, 0, 0]

    def test_length(self):
        for n in (0, 1, 2, 9, 50):
            t = sample_random_bst(n, n)
            assert len(encode_zaks(t)) == 2 * n + 1

    def test_decode_example(self):
        ls, ld, pos = zaks_decode([1, 1, 0, 0, 1, 0, 0])
        assert pos == 7
        assert (ls.tolist(), ld.tolist()) == preorder_arrays(build_cartesian([2, 1, 3]))

    def test_truncated(self):
        with pytest.raises(DecodeError):
            zaks_decode([1, 1, 0])

    def test_sizes_match_tree(self):
        trees = [sample_random_bst(n, n) for n in (1, 2, 9, 50, 400)]
        trees += [left_path(30), zigzag_path(31), *enumerate_shapes(4)]
        for t in trees:
            ls, ld = zaks_arrays(encode_zaks(t))
            assert subtree_sizes(ls, ld).tolist() == list(t.st[1:])
            assert ls.tolist() == list(t.ls[1:])

    @pytest.mark.parametrize("size", range(1, 8))
    def test_left_depths_every_small_shape(self, size):
        for t in enumerate_shapes(size):
            check_left_depths(t)

    def test_left_depths_large_shapes(self):
        for t in (left_path(2000), right_path(2000), zigzag_path(2000), caterpillar(2000),
                  sample_random_bst(2000, 1), sample_random_bst(777, 2), sample_random_bst(65, 3)):
            check_left_depths(t)

    @pytest.mark.parametrize("bits", [[1, 1, 0], [1, 0, 0, 0], [0, 1, 0], []])
    def test_sizes_reject_malformed(self, bits):
        with pytest.raises(DecodeError):
            zaks_arrays(bits)


def check_left_depths(t):
    """`zaks_arrays` gives each node's left depth, the left edges on its path
    from the root (a left child is one deeper than its parent), and so its
    inorder position, preorder + left size - left depth, at which
    `TypeArray.decode_type` places each left depth in a lookup table."""
    ld = [0] * (t.n + 1)
    for v in range(2, t.n + 1):  # parents come first in preorder
        p = t.parent[v]
        ld[v] = ld[p] + (t.left[p] == v)
    ls, got = zaks_arrays(encode_zaks(t))
    assert got.tolist() == ld[1:]
    assert (np.arange(1, t.n + 1) + ls - got).tolist() == list(t.inorder_of[1:])


def oracle_zaks_arrays(bits):
    """The argsort/searchsorted decode that `zaks_arrays` replaced, kept as the
    oracle for it and for `subtree_sizes`: preorder subtree sizes, left sizes
    and left depths.

    With excess +1 per 1-bit and -1 per 0-bit, the extended subtree of the
    node at position p ends at the first position q >= p after which the
    excess is one below its value before p; the subtree then has (q - p) / 2
    nodes.  A node's left child, if any, is the next node in preorder."""
    b = np.asarray(bits, dtype=np.int64)
    step = 2 * b - 1
    after = np.cumsum(step)
    assert after[-1] == -1 and after[:-1].min(initial=0) >= 0
    width = len(b)
    nodes = np.flatnonzero(b)
    before = after[nodes] - 1
    order = np.argsort(after, kind="stable")
    keys = (after[order] + 1) * width + order
    end = order[np.searchsorted(keys, before * width + nodes)]
    st = (end - nodes) // 2
    ls = np.zeros(len(nodes), dtype=np.int64)
    has_left = np.flatnonzero(b[nodes + 1])
    ls[has_left] = st[has_left + 1]
    return st, ls, before


def assert_kernels_match_oracle(t):
    bits = encode_zaks(t)
    st, ls, ld = oracle_zaks_arrays(bits)
    got_ls, got_ld = zaks_arrays(bits)
    assert (got_ls.tolist(), got_ld.tolist()) == (ls.tolist(), ld.tolist())
    assert subtree_sizes(got_ls, got_ld).tolist() == st.tolist()


class TestZaksKernel:
    """`zaks_arrays` and `subtree_sizes` against the argsort/searchsorted
    oracle, and the width of the levels they sort."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_shape(self, n):
        for t in enumerate_shapes(n):
            assert_kernels_match_oracle(t)

    def test_random_bsts(self):
        rng = random.Random(1729)
        for _ in range(300):
            assert_kernels_match_oracle(sample_random_bst(rng.randint(1, 2000), rng.randrange(10**9)))

    @pytest.mark.parametrize("make", [left_path, right_path, zigzag_path, caterpillar])
    def test_paths(self, make):
        # 16383 nodes: 32767 bits, the longest key with 16-bit levels
        for n in (1, 2, 3, 100, 16383, 16384):
            assert_kernels_match_oracle(make(n))

    def test_sequences_end_to_end(self):
        # a left path's deepest node ends its sequence: the next sequence's
        # root must not extend its spine
        rng = random.Random(31)
        shapes = [left_path(5), right_path(4), sample_random_bst(1, 0)]
        shapes += [sample_random_bst(rng.randint(1, 300), rng.randrange(10**9)) for _ in range(40)]
        shapes += [left_path(7), zigzag_path(9), caterpillar(11), left_path(1)]
        keys = [encode_zaks(t) for t in shapes]
        ls, ld = zaks_arrays(np.concatenate(keys), [len(z) for z in keys])
        counts = [t.n for t in shapes]
        assert ls.tolist() == [v for t in shapes for v in t.ls[1:]]
        assert ld.tolist() == [v for z in keys for v in zaks_arrays(z)[1].tolist()]
        assert subtree_sizes(ls, ld, counts).tolist() == [v for t in shapes for v in t.st[1:]]

    @pytest.mark.parametrize("bits, sizes", [
        ([1, 0, 0, 1, 1, 0], [3, 3]),  # the second is truncated
        ([1, 1, 0, 0, 1, 0, 0], [4, 3]),  # the first overruns into the second
        ([0, 0, 1, 0, 0], [2, 3]),  # two sequences in one
    ])
    def test_sequences_reject_malformed(self, bits, sizes):
        with pytest.raises(DecodeError):
            zaks_arrays(bits, sizes)

    def test_sizes_must_split_the_stream(self):
        with pytest.raises(ValueError):
            zaks_arrays([1, 0, 0, 0], [3, 3])

    def test_level_width(self):
        assert _level_type(2 * 16383 + 1) is np.int16
        assert _level_type(2 * 16384 + 1) is np.int32
        assert _level_type(2**31) is np.int64
        for length in (32767, 32769):  # all 1s: the excess only rises
            with pytest.raises(DecodeError):
                zaks_arrays([1] * length)

    def test_whole_tree_body_past_16_bits(self):
        # sorted values make a right path, whose Zaks body (80 001 bits) is the
        # shorter one; its levels need 32 bits
        t = build_cartesian(list(range(40000)))
        code = encode_hybrid(t)
        assert code.selector == SELECTOR_ZAKS and code.body_len == 80001 > 0xFFFF
        assert decode_tree(code).ls == t.ls


class TestSubtreeSizeCode:
    def test_single_node_empty_payload(self):
        code = encode_subtree_size(build_cartesian([1]))
        assert code.payload_bits == 0

    def test_left_path_three(self):
        # ls sequence (2,1,0): information lg3 + lg2 = 2.585 -> payload <= 5
        code = encode_subtree_size(left_path(3))
        assert code.payload_bits <= 5

    def test_fixture_payload(self):
        t = build_cartesian(FIG_ARRAY)
        code = encode_subtree_size(t)
        assert code.payload_bits <= 31  # ceil(28.74) + 2

    def test_payload_bound_random(self):
        for seed in range(30):
            t = sample_random_bst(random.Random(seed).randint(1, 400), seed)
            code = encode_subtree_size(t)
            hst = subtree_entropy(t).hst
            assert code.payload_bits <= math.ceil(hst) + 4

    def test_decoder_reconstructs(self):
        for seed in (1, 2, 3):
            t = sample_random_bst(200, seed)
            ls, ld = decode_left_sizes(200, encode_left_sizes(t))
            assert (ls.tolist(), ld.tolist()) == preorder_arrays(t)


class TestHybrid:
    def test_fixture_selector(self):
        code = encode_hybrid(build_cartesian(FIG_ARRAY))
        assert code.selector == SELECTOR_SIZECODE

    def test_path_selector(self):
        code = encode_hybrid(left_path(64))
        assert code.selector == SELECTOR_ZAKS
        assert code.body_len == 2 * 64 + 1

    def test_single_node_total(self):
        code = encode_hybrid(build_cartesian([4]))
        assert code.bit_len <= code.header_len + 3

    def test_empty_tree(self):
        from succinctrmq.trees import BinaryTree

        code = encode_hybrid(BinaryTree())
        assert code.n == 0 and code.body_len == 0
        assert decode_tree(code).n == 0

    def test_budget_on_shape_battery(self):
        shapes = [left_path(n) for n in (1, 2, 3, 8, 64, 500, 5000)]
        shapes += [zigzag_path(n) for n in (5, 100, 5000)]
        shapes += [sample_random_bst(n, n) for n in (1, 2, 10, 100, 2000)]
        for t in shapes:
            code = encode_hybrid(t)
            assert code.bit_len <= hybrid_budget(t), f"n={t.n}"
            assert code.body_len <= 2 * t.n + 2

    @pytest.mark.parametrize("n", range(0, 9))
    def test_roundtrip_exhaustive_small(self, n):
        for t in enumerate_shapes(n):
            assert decode_tree(encode_hybrid(t)).same_shape(t)

    def test_roundtrip_random_bsts(self):
        rng = random.Random(31337)
        for _ in range(10000):
            t = sample_random_bst(rng.randint(1, 2000), rng.randint(0, 10**9))
            assert decode_tree(encode_hybrid(t)).same_shape(t)

    def test_roundtrip_degenerate(self):
        for n in (1, 2, 3, 1000, 5000):
            for t in (left_path(n), zigzag_path(n)):
                assert decode_tree(encode_hybrid(t)).same_shape(t)


class TestTreeCodeSerialization:
    def test_bytes_roundtrip(self):
        t = sample_random_bst(137, 5)
        code = encode_hybrid(t)
        data = code.to_bytes()
        restored = TreeCode.from_bytes(data)
        assert decode_tree(restored).same_shape(t)

    def test_truncated_bytes(self):
        code = encode_hybrid(sample_random_bst(137, 5))
        with pytest.raises(DecodeError):
            TreeCode.from_bytes(code.to_bytes()[:2])

    @pytest.mark.parametrize("tail", [b"junk", b"\0"], ids=["junk", "zero"])
    def test_trailing_bytes_rejected(self, tail):
        code = encode_hybrid(sample_random_bst(50, 5))
        with pytest.raises(DecodeError, match="stray bytes"):
            TreeCode.from_bytes(code.to_bytes() + tail)

    def test_malformed_zaks_stream(self):
        bits = encode_count(4) + [SELECTOR_ZAKS, 1, 1, 0]
        with pytest.raises(DecodeError):
            decode_tree(bits)

    def test_wrong_node_count(self):
        bits = encode_count(5) + [SELECTOR_ZAKS] + encode_zaks(build_cartesian([2, 1, 3]))
        with pytest.raises(DecodeError):
            decode_tree(bits)


class TestNodeCountBound:
    """`decode_left_sizes` rejects a node count above 2L + 5 for an L-bit
    body, which the encoder never exceeds."""

    def test_encoder_within_bound(self):
        shapes = [t for n in range(1, 11) for t in enumerate_shapes(n)]
        shapes += [make(3000) for make in (left_path, right_path, zigzag_path)]
        assert max(t.n - 2 * encode_subtree_size(t).body_len for t in shapes) <= 5

    @pytest.mark.parametrize("n", [300_000, 2**40])
    def test_large_count_on_short_body_rejected(self, n):
        # a 7-byte body under a count header that claims far more nodes
        payload = bits_to_bytes(encode_count(n) + [SELECTOR_SIZECODE] + [1, 0] * 28)
        code = TreeCode.from_bytes(encode_varint(len(payload)) + payload)
        start = time.perf_counter()
        with pytest.raises(DecodeError, match="cannot code"):
            decode_tree(code)
        assert time.perf_counter() - start < 1.0


ROUTE_SHAPES = [t for n in range(1, 8) for t in enumerate_shapes(n)]
ROUTE_SHAPES += [make(3000) for make in (left_path, right_path, zigzag_path, caterpillar)]


class TestDecodeRoutes:
    """Every decoder yields the tree's preorder left sizes and left depths:
    each shape with 1-7 nodes and four 3000-node paths."""

    def test_zaks_decode(self):
        for t in ROUTE_SHAPES:
            bits = encode_zaks(t)
            ls, ld, end = zaks_decode([1, 0] + bits + [1, 1], 2)  # stops where the tree ends
            assert end == 2 + len(bits) == 2 * t.n + 3
            assert (ls.tolist(), ld.tolist()) == preorder_arrays(t)

    def test_decode_left_sizes(self):
        for t in ROUTE_SHAPES:
            ls, ld = decode_left_sizes(t.n, [1] + encode_left_sizes(t), 1)
            assert (ls.tolist(), ld.tolist()) == preorder_arrays(t)

    def test_hybrid_bytes_decode_tree(self):
        for t in ROUTE_SHAPES:
            back = decode_tree(TreeCode.from_bytes(encode_hybrid(t).to_bytes()))
            for col in ("left", "right", "parent", "st", "ls", "inorder_of", "id_at_inorder"):
                assert getattr(back, col) == getattr(t, col), col
