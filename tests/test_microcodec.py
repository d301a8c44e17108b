import math
import random

import numpy as np
import pytest

from succinctrmq.bits import VariableCellArray, bits_to_object
from succinctrmq.cover import build_cover
from succinctrmq.microcodec import (
    MODE_ENTROPY,
    MODE_FIXED,
    MODE_HUFFMAN,
    Codebook,
    ShapeTable,
    TypeRegistry,
    _huffman_lengths,
    _package_merge_lengths,
    build_huffman_codebook,
    encode_types,
)
from succinctrmq import opcount
from succinctrmq.rmq import RmqIndex
from succinctrmq.serial import DecodeError
from succinctrmq.treecode import (SELECTOR_SIZECODE, SELECTOR_ZAKS, encode_body, encode_zaks,
                                  subtree_sizes, zaks_arrays)
from succinctrmq.trees import (BinaryTree, build_cartesian, caterpillar, enumerate_shapes,
                               left_path, right_path, sample_random_bst, zigzag_path)


def zaks_shape(bits):
    """Nested (left, right) shape of a Zaks sequence, parsed by recursion as
    a reference independent of `zaks_arrays`."""
    it = iter(bits)

    def parse():
        return (parse(), parse()) if next(it) else None

    shape = parse()
    assert next(it, None) is None
    return shape


def build_fixture_cover(n=3000, seed=5, micro_b=7):
    t = sample_random_bst(n, seed)
    cov = build_cover(t, micro_b=micro_b)
    return t, cov


def registry_of(*shapes):
    """The registry whose type t is the t-th of these Zaks sequences."""
    return TypeRegistry(VariableCellArray(bits_to_object(z) for z in shapes))


class TestMicroTypeKey:
    """A micro type's key is its shape's Zaks sequence, and nothing else."""

    def test_single_node(self):
        reg = registry_of([1, 0, 0])
        assert len(reg) == 1 and reg.zaks_bits(0).tolist() == [1, 0, 0]
        assert reg.to_bytes() == VariableCellArray([(0b100, 3)]).to_bytes()

    def test_two_shapes_distinct(self):
        a = encode_zaks(left_path(2))
        b = encode_zaks(build_cartesian([1, 2]))
        assert a == [1, 1, 0, 0, 0]
        assert b == [1, 0, 1, 0, 0]
        reg = registry_of(a, b)
        assert (reg.zaks_bits(0).tolist(), reg.zaks_bits(1).tolist()) == (a, b)

    def test_same_shape_same_key(self):
        # small micros repeat shapes under portals that hang on different
        # sides; each shape is one type, with one table
        t = build_cartesian(np.random.default_rng(7).permutation(20000))
        cov = build_cover(t, micro_b=8)
        reg = cov.registry
        keys = [tuple(reg.zaks_bits(t).tolist()) for t in range(len(reg))]
        assert len(set(keys)) == len(keys)
        by_shape = {}
        for k in range(1, cov.micro_count() + 1):
            table = reg.table(cov.type_of[k])
            assert by_shape.setdefault(keys[cov.type_of[k]], table) is table
        assert len(by_shape) == len(reg) < cov.micro_count()

    def test_registry_roundtrip(self):
        reg = registry_of([1, 0, 0], [1, 1, 0, 0, 0], encode_zaks(sample_random_bst(80, 3)))
        back = TypeRegistry.from_bytes(reg.to_bytes())
        assert ([back.zaks_bits(t).tolist() for t in range(3)]
                == [reg.zaks_bits(t).tolist() for t in range(3)])
        assert back.to_bytes() == reg.to_bytes()


def inorder_left_depths(t):
    """Slot 0 (0), then the left edges on each node's root path, in inorder:
    a reference walked down the parent pointers of `t`."""
    ld = [0] * (t.n + 1)
    for v in range(2, t.n + 1):
        p = t.parent[v]
        ld[v] = ld[p] + (t.left[p] == v)
    return [0] + [ld[t.id_at_inorder[s]] for s in range(1, t.n + 1)]


def check_table(table, t, pairs):
    """The table agrees with the BinaryTree reference: the inorder left
    depths, which fix the shape, and the LCA of each (a, b) in pairs,
    addressed by inorder position."""
    assert table.n == t.n
    assert list(table.ld) == inorder_left_depths(t)  # fixes the shape
    for a, b in pairs:
        assert table.range_min(t.inorder_of[a], t.inorder_of[b]) == t.inorder_of[t.lca(a, b)], \
            (a, b)


def is_leaf(t, v):
    return not t.left[v] and not t.right[v]


class TestShapeTable:
    @pytest.mark.parametrize("seed", range(6))
    def test_tables_match_direct_computation(self, seed):
        t = sample_random_bst(random.Random(seed).randint(1, 60), seed)
        table = ShapeTable.from_zaks(encode_zaks(t))
        assert list(table.ld) == inorder_left_depths(t)  # same shape
        at = t.inorder_of
        for v in range(1, t.n + 1):
            # the subtree of v is the set of nodes whose LCA with v is v
            assert sum(table.range_min(at[v], at[u]) == at[v] for u in range(1, t.n + 1)) \
                == t.st[v]
            assert table.is_leaf(at[v]) == is_leaf(t, v)
            if is_leaf(t, v):  # a leaf's preorder, as a portal's first-use check reads it
                assert at[v] + table.ld[at[v]] == v
        for a in range(1, t.n + 1):
            for b in range(a, t.n + 1):
                assert table.range_min(at[a], at[b]) == at[t.lca(a, b)]

    def test_lookup_tables_for_all_present_types(self):
        _, cov = build_fixture_cover()
        for type_id in range(len(cov.registry)):
            table = cov.registry.table(type_id)
            shape = BinaryTree.from_shape(zaks_shape(cov.registry.zaks_bits(type_id)))
            assert list(table.ld) == inorder_left_depths(shape)

    @pytest.mark.parametrize("size", range(1, 8))
    def test_every_small_shape_all_pairs(self, size):
        nodes = range(1, size + 1)
        for t in enumerate_shapes(size):
            table = ShapeTable.from_zaks(encode_zaks(t))
            check_table(table, t, [(a, b) for a in nodes for b in nodes])

    @pytest.mark.parametrize("size", range(1, 8))
    def test_constructors_agree_every_small_shape(self, size):
        """The table scattered from preorder left sizes and depths (as
        `TypeArray.decode_type` builds it) equals the one read off the Zaks
        excess, and both answer as the BinaryTree does."""
        nodes = range(1, size + 1)
        for t in enumerate_shapes(size):
            zaks = encode_zaks(t)
            table = ShapeTable.from_zaks(zaks)
            scattered = ShapeTable(*zaks_arrays(zaks))
            assert scattered.ld == table.ld and scattered._sparse == table._sparse
            for s in nodes:
                assert scattered.is_leaf(s) == table.is_leaf(s) == is_leaf(t, t.id_at_inorder[s])
            check_table(scattered, t, [(a, b) for a in nodes for b in nodes])

    @pytest.mark.parametrize("size", range(1, 8))
    def test_leaf_predicate_every_small_shape(self, size):
        # a portal's first-use check reads leafness off the left depths alone
        for t in enumerate_shapes(size):
            table = ShapeTable.from_zaks(encode_zaks(t))
            assert [table.is_leaf(s) for s in range(1, size + 1)] == \
                [is_leaf(t, t.id_at_inorder[s]) for s in range(1, size + 1)]

    @pytest.mark.parametrize("shape", ["left_path", "right_path", "caterpillar",
                                       "zigzag", "bst-1", "bst-2", "bst-3"])
    def test_large_shapes_sampled_pairs(self, shape):
        n = 2000
        t = {"left_path": lambda: left_path(n), "right_path": lambda: right_path(n),
             "caterpillar": lambda: caterpillar(n), "zigzag": lambda: zigzag_path(n),
             "bst-1": lambda: sample_random_bst(n, 1), "bst-2": lambda: sample_random_bst(777, 2),
             "bst-3": lambda: sample_random_bst(65, 3)}[shape]()
        rng = random.Random(shape)
        pairs = [(rng.randint(1, t.n), rng.randint(1, t.n)) for _ in range(400)]
        pairs += [(1, t.n), (t.n, 1), (1, 1), (t.n, t.n)]
        table = ShapeTable.from_zaks(encode_zaks(t))
        check_table(table, t, pairs)

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 65, 97, 500, 2000])
    def test_lca_operation_bound(self, n):
        bound = 2 * ShapeTable.BLOCK + 6
        rng = random.Random(n)
        for t in (left_path(n), right_path(n), caterpillar(n), sample_random_bst(n, n)):
            table = ShapeTable.from_zaks(encode_zaks(t))
            worst = 0
            pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(300)]
            for a, b in pairs + [(1, n), (n, 1)]:
                start = opcount.snapshot()
                table.range_min(t.inorder_of[a], t.inorder_of[b])
                worst = max(worst, opcount.snapshot() - start)
            assert 0 < worst <= bound

    @pytest.mark.parametrize("n, code", [(65534, "H"), (65535, "i")])
    @pytest.mark.parametrize("shape", ["bst", "right_path", "reverse"])
    def test_item_type_boundary(self, n, code, shape):
        """A shape below 65535 nodes holds 'H' sparse positions, a larger one
        'i' positions.  Left depths are 'B' below 256 and 'H' below 65536: a
        random shape's and a right path's fit 'B', and those of a left path,
        the Cartesian tree of a decreasing input, reach n - 1."""
        t = {"bst": lambda: sample_random_bst(n, 11), "right_path": lambda: right_path(n),
             "reverse": lambda: build_cartesian(range(n, 0, -1))}[shape]()
        table = ShapeTable.from_zaks(encode_zaks(t))
        assert table._sparse.typecode == code
        assert table.ld.typecode == ("H" if shape == "reverse" else "B")
        rng = random.Random(n)
        pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(100)]
        check_table(table, t, pairs + [(1, n), (n, 1), (n, n)])

    @pytest.mark.parametrize("n, code", [(256, "B"), (257, "H"), (65536, "H"), (65537, "i")])
    def test_left_depth_item_type(self, n, code):
        """A left path of n nodes has left depths 0 .. n - 1: 'B' entries
        up to 255, 'H' up to 65535 and 'i' past that."""
        t = left_path(n)
        table = ShapeTable.from_zaks(encode_zaks(t))
        assert table.ld.typecode == code
        assert table.ld[1] == n - 1 and table.ld[n] == 0
        check_table(table, t, [(1, n), (n, 1), (n // 2, n), (1, 1)])

    def test_reverse_input_micro_holds_16_bit_depths(self):
        """A decreasing input's micros are left paths; one of more than 256
        nodes has left depths past 255, held as 'H', and queries into it
        still answer."""
        n = 2000
        values = list(range(n, 0, -1))
        idx = RmqIndex.from_bytes(RmqIndex.build(values, micro_b=300).to_bytes())
        sizes = idx.cover.shape_size[1:]
        assert max(sizes) > 256
        for k, size in enumerate(sizes, start=1):
            table = idx.cover.registry.table(idx.cover.type_of[k])
            assert table.ld.typecode == ("H" if size > 256 else "B"), (k, size)
        rng = random.Random(n)
        for _ in range(200):
            i, j = sorted((rng.randint(1, n), rng.randint(1, n)))
            assert idx.query(i, j) == j

    @pytest.mark.parametrize("bits", [[1, 0], [1, 1, 0, 0], [1, 0, 0, 0], [1, 0, 0, 1],
                                      [1, 0, 0, 1, 0, 0], [0], [0, 0], [], [1, 2, 0]],
                             ids=["truncated", "truncated-deeper", "overlong", "overlong-1",
                                  "two-trees", "empty-shape", "empty-overlong", "no-bits",
                                  "not-a-bit"])
    def test_malformed_zaks_rejected(self, bits):
        with pytest.raises(DecodeError):
            ShapeTable.from_zaks(bits)

    def test_registry_tables_from_key_bytes(self):
        t = sample_random_bst(300, 4)
        reg = registry_of(encode_zaks(t))
        tid = 0
        assert reg.zaks_bits(tid).tolist() == encode_zaks(t)
        assert reg.tables_built() == 0
        table = reg.table(tid)
        assert reg.table(tid) is table and reg.tables_built() == 1
        check_table(table, t, [(1, 300), (17, 250), (299, 3)])
        assert reg.tables_space_bits() == table.space_bits()
        reg.clear_tables()
        assert reg.tables_built() == 0 and reg.tables_space_bits() == 0

    def test_space_bits_counts_held_arrays(self):
        t = sample_random_bst(1000, 6)
        table = ShapeTable.from_zaks(encode_zaks(t))
        # 1001 entries make 32 blocks: sparse levels of 32, 31, 29, 25, 17 and 1
        blocks = -(-1001 // ShapeTable.BLOCK)
        assert len(table._sparse) == sum(blocks - (1 << k) + 1 for k in range(blocks.bit_length()))
        # left depths of a random 1000-node shape fit 8 bits; positions take 16
        assert table.space_bits() == 8 * len(table.ld) + 16 * len(table._sparse)


def shape_ids(trees, ids):
    """Type ids of the shapes of `trees`, numbered in order of first use in
    `ids` (Zaks sequence -> type id), as a cover numbers its types."""
    return [ids.setdefault(tuple(encode_zaks(t)), len(ids)) for t in trees]


class TestHuffman:
    def test_textbook_lengths(self):
        book = build_huffman_codebook({0: 2, 1: 1, 2: 1}, 3)
        assert [book.length(t) for t in range(3)] == [1, 2, 2]

    def test_single_type(self):
        book = build_huffman_codebook({0: 7}, 1)
        assert book.length(0) == 1

    def test_kraft(self):
        rng = random.Random(8)
        ids = {}
        counts = {}
        for i in range(50):
            t = sample_random_bst(rng.randint(1, 12), i)
            if t.n == 0:
                continue
            [tid] = shape_ids([t], ids)
            counts[tid] = counts.get(tid, 0) + rng.randint(1, 100)
        book = build_huffman_codebook(counts, len(ids))
        # Kraft's inequality: the lengths are those of a prefix code
        assert book.kraft_sum() <= 1.0 + 1e-12

    def test_optimality_against_entropy_bound(self):
        rng = random.Random(9)
        ids = {}
        counts = {}
        for i in range(30):
            [tid] = shape_ids([sample_random_bst(rng.randint(1, 10), 100 + i)], ids)
            counts[tid] = counts.get(tid, 0) + rng.randint(1, 50)
        book = build_huffman_codebook(counts, len(ids))
        total = sum(counts.values())
        entropy = -sum(c / total * math.log2(c / total) for c in counts.values())
        avg = sum(counts[s] * book.length(s) for s in counts) / total
        assert entropy <= avg + 1e-9 <= entropy + 1 + 1e-9

    def test_package_merge_agrees_when_unconstrained(self):
        weights = [1, 1, 2, 3, 5, 8, 13]
        plain = sorted(_huffman_lengths(weights))
        pm = sorted(_package_merge_lengths(weights, 30))
        w_sorted = sorted(weights)
        cost = lambda lens: sum(w * l for w, l in zip(w_sorted, sorted(lens, reverse=True)))
        assert sum(2.0 ** -l for l in pm) <= 1.0 + 1e-12
        assert cost(pm) == cost(plain)

    def test_package_merge_respects_limit(self):
        weights = [1, 2, 4, 8, 16, 32, 64]  # plain Huffman would go deep
        plain = _huffman_lengths(weights)
        assert max(plain) > 3
        limited = _package_merge_lengths(weights, 3)
        assert max(limited) <= 3
        assert sum(2.0 ** -l for l in limited) <= 1.0 + 1e-12

    def test_codebook_needs_every_type(self):
        # a book has a codeword for every registry type
        for lengths in ({0: 1, 1: 2}, {0: 1, 1: 2, 2: 0}):
            with pytest.raises(ValueError, match="codeword"):
                Codebook(lengths, 3)
        with pytest.raises(ValueError, match="codeword"):
            build_huffman_codebook({0: 3, 1: 1}, 3)

    def test_deterministic(self):
        ids = {}
        shape_ids([sample_random_bst(k, k) for k in range(1, 9)], ids)
        counts = {tid: 5 for tid in ids.values()}
        b1 = build_huffman_codebook(counts, len(ids))
        b2 = build_huffman_codebook(counts, len(ids))
        assert [b1.length(t) for t in ids.values()] == [b2.length(t) for t in ids.values()]


def entropy_object(registry, type_id):
    """One type's entropy payload, from its key alone through the scalar
    coder: the reference for `encode_types`' batched pass."""
    zaks = registry.zaks_bits(type_id).tolist()
    ls, ld = zaks_arrays(zaks)
    selector, body = encode_body(subtree_sizes(ls, ld).tolist(), ls.tolist(), zaks)
    return bits_to_object([selector, *body])


class TestTypeArray:
    @pytest.mark.parametrize("tree, micro_b", [
        (sample_random_bst(3000, 5), 7),
        (sample_random_bst(20000, 8), None),
        (build_cartesian(list(range(3000))), 7),  # right paths
        (build_cartesian(list(range(3000, 0, -1))), None),  # left paths
        (build_cartesian([i % 7 for i in range(2000)]), 5),
        (sample_random_bst(50, 12), 1),  # leaves and 1-node shapes
    ], ids=["random", "random-default-b", "sorted", "reversed", "sawtooth", "leaves"])
    def test_entropy_objects_match_scalar_coder(self, tree, micro_b):
        cov = build_cover(tree, micro_b=micro_b)
        ta = encode_types(cov.type_ids, cov.registry, MODE_ENTROPY)
        want = [entropy_object(cov.registry, t) for t in range(len(cov.registry))]
        assert [ta.vca.object_bits(i) for i in range(1, ta.vca.m + 1)] == \
            [want[t] for t in cov.type_ids]

    def test_paths_take_the_zaks_selector(self):
        # a right path's size code is lg s! bits, longer than its 2s + 1
        cov = build_cover(build_cartesian(list(range(3000))), micro_b=7)
        ta = encode_types(cov.type_ids, cov.registry, MODE_ENTROPY)
        selectors = {int(ta.vca.bits(i)[0]) for i in range(1, ta.vca.m + 1)}
        assert SELECTOR_ZAKS in selectors
        _, cov = build_fixture_cover()
        ta = encode_types(cov.type_ids, cov.registry, MODE_ENTROPY)
        assert SELECTOR_SIZECODE in {int(ta.vca.bits(i)[0]) for i in range(1, ta.vca.m + 1)}

    @pytest.mark.parametrize("mode", [MODE_FIXED, MODE_ENTROPY, MODE_HUFFMAN])
    def test_roundtrip_each_micro(self, mode):
        _, cov = build_fixture_cover()
        ta = encode_types(cov.type_ids, cov.registry, mode)
        for i, m in enumerate(cov.micros_by_k, start=1):
            table = ta.decode_type(i, shape_size=m.shape_size)
            want = cov.registry.table(cov.type_of[i])
            assert table.n == want.n
            assert table.ld == want.ld  # fixes the shape

    def test_fixed_mode_lengths(self):
        _, cov = build_fixture_cover(n=800, seed=2)
        ta = encode_types(cov.type_ids, cov.registry, MODE_FIXED)
        expect = sum(2 * m.shape_size + 1 for m in cov.micros_by_k)
        assert ta.total_payload_bits() == expect
        # a fixed object would be its type's TYPR record, bit for bit, so none is stored
        assert ta.vca is None and ta.space_bits() == {"payload": 0, "directory": 0}

    @pytest.mark.parametrize("mode", [MODE_FIXED, MODE_HUFFMAN])
    def test_keyed_decode_checks_shape_size(self, mode):
        # fixed and huffman store no object: a micro's table comes from its type's key
        _, cov = build_fixture_cover()
        ta = encode_types(cov.type_ids, cov.registry, mode)
        m = cov.micros_by_k[0]
        assert ta.decode_type(1, m.shape_size).n == m.shape_size
        with pytest.raises(DecodeError, match="not a"):
            ta.decode_type(1, m.shape_size + 1)

    def test_huffman_payload_is_its_codeword_lengths(self):
        _, cov = build_fixture_cover(n=3000, seed=2)
        counts = {}
        for t in cov.type_ids:
            counts[t] = counts.get(t, 0) + 1
        book = build_huffman_codebook(counts, len(cov.registry))
        ta = encode_types(cov.type_ids, cov.registry, MODE_HUFFMAN)
        assert ta.total_payload_bits() == sum(book.length(t) for t in cov.type_ids)

    def test_huffman_dominates(self):
        for n, seed in ((500, 1), (3000, 2), (8000, 3)):
            _, cov = build_fixture_cover(n=n, seed=seed)
            payloads = {
                mode: encode_types(cov.type_ids, cov.registry, mode).total_payload_bits()
                for mode in (MODE_FIXED, MODE_ENTROPY, MODE_HUFFMAN)
            }
            assert payloads[MODE_HUFFMAN] <= payloads[MODE_ENTROPY]
            assert payloads[MODE_HUFFMAN] <= payloads[MODE_FIXED]

    def test_entropy_per_node_envelope(self):
        # total <= sum over micros of sum_v (lg st_shape(v) + 2)
        t, cov = build_fixture_cover(n=5000, seed=4)
        ta = encode_types(cov.type_ids, cov.registry, MODE_ENTROPY)
        envelope = 0.0
        for m in cov.micros_by_k:
            st = subtree_sizes(*zaks_arrays(cov.registry.zaks_bits(m.type_id)))
            envelope += sum(math.log2(s) + 2 for s in st.tolist())
        assert ta.total_payload_bits() <= envelope

    def test_entropy_worst_case_envelope(self):
        # total <= 2n' + c*n'/lg n' over shape nodes, with the measured constant
        for n, seed in ((2000, 6), (20000, 7)):
            t, cov = build_fixture_cover(n=n, seed=seed)
            ta = encode_types(cov.type_ids, cov.registry, MODE_ENTROPY)
            shape_nodes = sum(m.shape_size for m in cov.micros_by_k)
            total = ta.total_payload_bits()
            assert total <= 2 * shape_nodes + 8 * n / math.log2(n)

    def test_all_leaf_micros(self):
        t = sample_random_bst(50, 12)
        cov = build_cover(t, micro_b=1)
        ta = encode_types(cov.type_ids, cov.registry, MODE_ENTROPY)
        per_micro = ta.total_payload_bits() / cov.micro_count()
        assert per_micro <= 16  # O(1) bits per tiny micro

    def test_unknown_mode(self):
        _, cov = build_fixture_cover(n=100, seed=1)
        with pytest.raises(ValueError):
            encode_types(cov.type_ids, cov.registry, "nope")
