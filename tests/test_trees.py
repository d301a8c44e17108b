import hashlib
import math
import random
import time

import numpy as np
import pytest

from succinctrmq import opcount, trees
from succinctrmq.rmq import adversarial_arrays
from succinctrmq.trees import (
    BinaryTree,
    BlockMinLca,
    ENTROPY_RATE_LIMIT,
    KEY_RANGE,
    build_cartesian,
    cartesian_spans,
    caterpillar,
    complete_tree,
    enumerate_shapes,
    left_path,
    model_entropy,
    model_entropy_closed,
    right_path,
    sample_random_bst,
    shape_probability,
    subtree_entropy,
    tour_from_degrees,
    _nearest_smaller_left,
    _spans,
    zigzag_path,
)

# 20-element fixture array and its expected per-node labels:
# inorder -> (preorder, left size, subtree size)
FIG_ARRAY = [20, 11, 19, 8, 6, 18, 14, 16, 4, 3, 12, 10, 9, 7, 13, 5, 17, 15, 1, 2]
FIG_LABELS = {
    1: (7, 0, 1), 2: (6, 1, 3), 3: (8, 0, 1), 4: (5, 3, 4), 5: (4, 4, 8),
    6: (10, 0, 1), 7: (9, 1, 3), 8: (11, 0, 1), 9: (3, 8, 9), 10: (2, 9, 18),
    11: (16, 0, 1), 12: (15, 1, 2), 13: (14, 2, 3), 14: (13, 3, 5), 15: (17, 0, 1),
    16: (12, 5, 8), 17: (19, 0, 1), 18: (18, 1, 2), 19: (1, 18, 20), 20: (20, 0, 1),
}


def naive_argmin(values, i, j):
    best = i
    for k in range(i + 1, j + 1):
        if values[k - 1] < values[best - 1]:
            best = k
    return best


class TestBuildCartesian:
    def test_three_elements(self):
        t = build_cartesian([3, 1, 2])
        root = t.id_at_inorder[2]
        assert root == t.root
        assert t.left[root] == t.id_at_inorder[1]
        assert t.right[root] == t.id_at_inorder[3]

    def test_fixture_labels(self):
        t = build_cartesian(FIG_ARRAY)
        assert t.n == 20
        for inorder, (preorder, ls, st) in FIG_LABELS.items():
            v = t.id_at_inorder[inorder]
            assert v == preorder
            assert t.ls[v] == ls
            assert t.st[v] == st

    def test_increasing_chain(self):
        t = build_cartesian([1, 2, 3, 4, 5])
        assert list(t.st[1:]) == [5, 4, 3, 2, 1]
        v = t.root
        for _ in range(4):
            assert t.left[v] == 0
            v = t.right[v]

    def test_empty(self):
        t = build_cartesian([])
        assert t.n == 0

    def test_duplicates_leftmost(self):
        t = build_cartesian([2, 2, 2])
        assert t.id_at_inorder[1] == t.root

    def test_inorder_bijection(self):
        rng = random.Random(3)
        for n in (1, 2, 17, 100):
            arr = [rng.randint(0, 30) for _ in range(n)]
            t = build_cartesian(arr)
            assert sorted(t.inorder_of[1:]) == list(range(1, n + 1))
            for v in range(1, n + 1):
                assert t.id_at_inorder[t.inorder_of[v]] == v

    def test_st_ls_invariants(self):
        t = sample_random_bst(500, 42)
        for v in range(1, 501):
            expect = 1
            if t.left[v]:
                expect += t.st[t.left[v]]
            if t.right[v]:
                expect += t.st[t.right[v]]
            assert t.st[v] == expect
            assert t.ls[v] == (t.st[t.left[v]] if t.left[v] else 0)
            assert 0 <= t.ls[v] <= t.st[v] - 1


class TestRmqLcaIsomorphism:
    @pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (13, 2), (64, 3), (256, 4)])
    def test_all_pairs(self, n, seed):
        rng = random.Random(seed)
        arr = [rng.randint(0, n) for _ in range(n)]  # duplicates included
        t = build_cartesian(arr)
        for i in range(1, n + 1):
            best = i
            for j in range(i, n + 1):
                if arr[j - 1] < arr[best - 1]:
                    best = j
                w = t.lca(t.id_at_inorder[i], t.id_at_inorder[j])
                assert t.inorder_of[w] == best


class TestSubtreeEntropy:
    def test_fixture(self):
        t = build_cartesian(FIG_ARRAY)
        assert abs(subtree_entropy(t).hst - 28.74) < 0.01

    def test_single_node(self):
        assert subtree_entropy(build_cartesian([7])).hst == 0.0

    def test_path_of_four(self):
        t = left_path(4)
        assert abs(subtree_entropy(t).hst - math.log2(24)) < 1e-12


class TestModelEntropy:
    def test_small_values(self):
        assert model_entropy(0) == 0.0
        assert model_entropy(1) == 0.0
        assert abs(model_entropy(2) - 1.0) < 1e-12

    def test_fixture_value(self):
        assert abs(model_entropy(20) - 29.2209) < 0.0005

    def test_closed_form_agreement(self):
        for n in (2, 3, 10, 100, 1000):
            dp = model_entropy(n)
            cf = model_entropy_closed(n)
            assert abs(dp - cf) <= 1e-9 * max(1.0, abs(cf))

    def test_limit_from_below(self):
        r1 = model_entropy(1000) / 1000
        r2 = model_entropy(10000) / 10000
        assert r1 < r2 < ENTROPY_RATE_LIMIT
        assert 1.70 < r2 < 1.7364


class TestShapeProbability:
    def test_trivial(self):
        assert shape_probability(build_cartesian([1])) == 1.0

    def test_two_nodes(self):
        for arr in ([1, 2], [2, 1]):
            assert abs(shape_probability(build_cartesian(arr)) - 0.5) < 1e-12

    def test_three_nodes_balanced(self):
        assert abs(shape_probability(build_cartesian([2, 1, 3])) - 1 / 3) < 1e-12
        assert abs(shape_probability(build_cartesian([1, 2, 3])) - 1 / 6) < 1e-12

    @pytest.mark.parametrize("n", range(1, 11))
    def test_distribution_sums_to_one(self, n):
        total = sum(shape_probability(t) for t in enumerate_shapes(n))
        assert abs(total - 1.0) < 1e-12

    def test_catalan_counts(self):
        counts = [sum(1 for _ in enumerate_shapes(n)) for n in range(11)]
        assert counts == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


class TestSampler:
    def test_edges(self):
        assert sample_random_bst(0, 1).n == 0
        assert sample_random_bst(1, 1).n == 1

    def test_deterministic(self):
        a = sample_random_bst(50, 9)
        b = sample_random_bst(50, 9)
        assert a.same_shape(b)

    def test_three_node_frequencies(self):
        # shapes keyed by (left exists at root under inorder 1/2/3 semantics)
        counts = {}
        rng = np.random.default_rng(2024)
        trials = 60000
        for _ in range(trials):
            perm = rng.permutation(3)
            t = build_cartesian(perm.tolist())
            key = t.to_paren()
            counts[key] = counts.get(key, 0) + 1
        freqs = {k: c / trials for k, c in counts.items()}
        assert len(freqs) == 5
        expected = {shape.to_paren(): shape_probability(shape) for shape in enumerate_shapes(3)}
        for k, p in expected.items():
            assert abs(freqs[k] - p) < 0.01

    def test_monte_carlo_entropy_matches_model(self):
        # mean subtree entropy over sampled trees approximates H_n; subtree
        # sizes come from the previous/next-smaller identity, an independent
        # route that avoids 10^4 full tree builds
        n = 1000
        reps = 10000
        rng = np.random.default_rng(77)
        total = 0.0
        for _ in range(reps):
            perm = rng.permutation(n)
            total += _hst_from_ranges(perm)
        mean = total / reps
        hn = model_entropy(n)
        assert abs(mean - hn) / hn < 0.01


def _hst_from_ranges(perm) -> float:
    """H_st via st(v) = next_smaller - prev_smaller - 1 over positions."""
    n = len(perm)
    prev_smaller = [0] * n
    next_smaller = [n + 1] * n
    stack = []
    for i in range(n):
        v = perm[i]
        while stack and perm[stack[-1]] > v:
            next_smaller[stack.pop()] = i + 1
        prev_smaller[i] = stack[-1] + 1 if stack else 0
        stack.append(i)
    sizes = np.array([next_smaller[i] - prev_smaller[i] - 1 for i in range(n)], dtype=np.float64)
    return float(np.log2(sizes).sum())


class TestShapeFactories:
    def test_paths(self):
        assert list(left_path(4).st[1:]) == [4, 3, 2, 1]
        assert list(right_path(4).st[1:]) == [4, 3, 2, 1]
        assert zigzag_path(6).n == 6
        assert complete_tree(4).n == 15
        assert caterpillar(9).n == 9

    def test_paren_roundtrip_consistency(self):
        a = build_cartesian([5, 4, 3, 2, 1])
        assert a.same_shape(left_path(5))
        b = build_cartesian([1, 2, 3])
        assert b.same_shape(right_path(3))


def shape_digest(trees) -> str:
    """SHA-1 over n and the left/right/parent/st/ls/inorder_of columns of
    each tree, as little-endian 32-bit integers."""
    h = hashlib.sha1()
    for t in trees:
        h.update(str(t.n).encode())
        for col in (t.left, t.right, t.parent, t.st, t.ls, t.inorder_of):
            h.update(np.asarray(col, dtype="<i4").tobytes())
    return h.hexdigest()


class TestShapeDigests:
    """The generators' trees, pinned as digests recorded when each generator
    still built its tree from child links."""

    SIZES = [*range(10), 2001]

    @pytest.mark.parametrize("make, expected", [
        (left_path, "9d7db70ef38cb1084947e770e08a8d7330030c29"),
        (right_path, "4bcb9f284fc49fcc6f9cfb33e3d897e3a57fbdd4"),
        (zigzag_path, "e7b9ddfde42714015a15d6a2b9b2dd7291c2db4f"),
        (caterpillar, "1a46fd087b62deb62a0e8109b0c1f191b5972868"),
    ])
    def test_paths(self, make, expected):
        assert shape_digest(make(n) for n in self.SIZES) == expected

    def test_complete_trees(self):
        digest = shape_digest(complete_tree(levels) for levels in range(10))
        assert digest == "5fac2d011474c18cbc4fe4b7582808988ea3049e"

    def test_enumerated_shapes(self):
        digest = shape_digest(t for n in range(1, 8) for t in enumerate_shapes(n))
        assert digest == "30c26e66ec8ac2e63b75af701252918c44c5e549"


def random_ordinal_tree(size: int, seed: int):
    """Random recursive tree on shuffled labels 1..size: (children, root, parent).
    Labels are not in preorder and children keep their random attach order."""
    rng = random.Random(seed)
    labels = list(range(1, size + 1))
    rng.shuffle(labels)
    parent = [0] * (size + 1)
    children = [[] for _ in range(size + 1)]
    for idx in range(1, size):
        p = labels[rng.randrange(idx)]
        parent[labels[idx]] = p
        children[p].append(labels[idx])
    return children, labels[0], parent


def brute_lca(parent, a, b):
    above = set()
    while a:
        above.add(a)
        a = parent[a]
    while b not in above:
        b = parent[b]
    return b


def brute_is_ancestor(parent, a, b):
    while b and b != a:
        b = parent[b]
    return b == a


class TestBlockMinLca:
    """The kernel over plain sequences: the position of a range minimum."""

    @pytest.mark.parametrize("length", [1, 2, 31, 32, 33, 64, 65, 97, 200, 1025])
    def test_sparse_levels_hold_block_minimum_positions(self, length):
        keys = np.random.default_rng(length).integers(0, 50, size=length)
        kernel = BlockMinLca(keys.tolist(), keys)
        block = BlockMinLca.BLOCK
        blocks = -(-length // block)
        at = 0
        for k in range(blocks.bit_length()):
            for i in range(blocks - (1 << k) + 1):
                lo, hi = i * block, min(length, (i + (1 << k)) * block)
                assert kernel._sparse[at] == lo + int(np.argmin(keys[lo:hi])), (k, i)
                at += 1
        assert at == len(kernel._sparse)

    @pytest.mark.parametrize("length", [1, 33, 97, 300])
    def test_range_min_is_a_minimum_position(self, length):
        keys = np.random.default_rng(length + 1).permutation(length)
        kernel = BlockMinLca(keys.tolist(), keys)
        rng = random.Random(length)
        pairs = [(rng.randrange(length), rng.randrange(length)) for _ in range(2000)]
        for a, b in pairs + [(0, length - 1), (length - 1, 0)]:
            lo, hi = min(a, b), max(a, b)
            assert kernel.range_min(a, b) == lo + int(np.argmin(keys[lo:hi + 1])), (a, b)

    @pytest.mark.parametrize("at", [(100, 170), (20, 100), (20, 100, 170), (20, 170),
                                    (40, 100), (40, 100, 170), (33, 63), (159, 170)],
                             ids=["middle-right", "left-middle", "all-three", "left-right",
                                  "two-in-middle", "middle-twice-right", "middle-block-ends",
                                  "right-block-start"])
    def test_equal_minima_give_the_leftmost(self, at):
        """A query from block 0 to block 5 scans a left partial block, reads
        the sparse table for blocks 1 .. 4 and scans a right partial block;
        of equal minima in any of them it returns the leftmost."""
        keys = np.full(6 * BlockMinLca.BLOCK, 5)
        keys[list(at)] = 1
        kernel = BlockMinLca(keys.tolist(), keys)
        assert kernel.range_min(10, 180) == at[0]
        assert kernel.range_min(180, 10) == at[0]

    @pytest.mark.parametrize("ia,ib,reads", [(5, 5, 1), (3, 20, 18), (20, 40, 21), (40, 20, 21),
                                             (20, 100, 12 + 5 + 4), (10, 180, 22 + 21 + 4)],
                             ids=["one-entry", "one-block", "adjacent", "adjacent-swapped",
                                  "one-between", "four-between"])
    def test_charge_is_the_reads(self, ia, ib, reads):
        """Each entry scanned once, and with blocks between, two sparse
        entries and the two entries of seq they name."""
        keys = np.random.default_rng(ia).permutation(6 * BlockMinLca.BLOCK)
        kernel = BlockMinLca(keys.tolist(), keys)
        start = opcount.snapshot()
        kernel.range_min(ia, ib)
        assert opcount.snapshot() - start == reads

    @pytest.mark.parametrize("length", [65, 200, 1000])
    def test_range_min_ties_to_the_leftmost(self, length):
        keys = np.random.default_rng(length).integers(0, 4, size=length)
        kernel = BlockMinLca(keys.tolist(), keys)
        rng = random.Random(length)
        for _ in range(2000):
            lo, hi = sorted((rng.randrange(length), rng.randrange(length)))
            assert kernel.range_min(lo, hi) == lo + int(np.argmin(keys[lo:hi + 1])), (lo, hi)


class TestEulerTourLca:
    """`tour_from_degrees` on ordinal trees renumbered in preorder: its times
    nest as ancestry does, and of the nodes visited between two nodes' first
    visits, the least in preorder is their LCA, the fact the cover's
    run-micro minimum rests on."""

    @staticmethod
    def preorder_children(children, root):
        """Child lists of the tree renumbered in preorder, children in order."""
        order, stack = [], [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(children[v]))
        new = {v: i for i, v in enumerate(order, start=1)}
        kids = [[] for _ in range(len(order) + 1)]
        for v in order:
            kids[new[v]] = [new[c] for c in children[v]]
        return kids

    @staticmethod
    def walked(kids):
        """Enter and exit times by a walk of the tour: the root enters at 1,
        and each step into or out of a node takes one time."""
        size = len(kids) - 1
        enter, exit_ = [0] * (size + 1), [0] * (size + 1)
        timer = enter[1] = 1
        stack = [(1, iter(kids[1]))]
        while stack:
            _, rest = stack[-1]
            timer += 1
            c = next(rest, 0)
            if c:
                enter[c] = timer
                stack.append((c, iter(kids[c])))
            else:
                exit_[stack.pop()[0]] = timer
        return enter, exit_

    def check(self, children, root, pairs):
        kids = self.preorder_children(children, root)
        size = len(kids) - 1
        enter, exit_, child = tour_from_degrees(np.array([len(x) for x in kids[1:]]))
        parent = [0] * (size + 1)
        for v in range(1, size + 1):
            for c in kids[v]:
                parent[c] = v
        # the node visited at each tour time: a node when the tour enters it,
        # and its parent when the tour leaves it
        visit = np.zeros(2 * size + 1, dtype=np.int64)
        visit[enter[1:]] = np.arange(1, size + 1)
        visit[exit_[child]] = np.array(parent)[child]
        for a, b in pairs:
            lo, hi = sorted((enter[a], enter[b]))
            w = visit[lo:hi + 1].min()
            assert w == brute_lca(parent, a, b), (a, b)
            nested = enter[a] <= enter[b] and exit_[b] <= exit_[a]
            assert nested == brute_is_ancestor(parent, a, b), (a, b)

    @staticmethod
    def pairs(size, seed, count=3000):
        if size * size <= count:
            return [(a, b) for a in range(1, size + 1) for b in range(1, size + 1)]
        rng = random.Random(seed)
        return [(rng.randint(1, size), rng.randint(1, size)) for _ in range(count)]

    @pytest.mark.parametrize("size", [1, 2, 31, 32, 33, 64, 65, 66, 1000])
    def test_random_ordinal_trees(self, size):
        for seed in range(3):
            children, root, _ = random_ordinal_tree(size, 100 * size + seed)
            self.check(children, root, self.pairs(size, seed))

    def test_path(self):
        size = 3000
        children = [[v + 1] for v in range(size)] + [[]]
        pairs = self.pairs(size, 6) + [(1, size), (size, 1), (size, size)]
        self.check(children, 1, pairs)

    def test_star(self):
        leaves = 500
        size = leaves + 1
        root = 250
        others = [v for v in range(1, size + 1) if v != root]
        children = [[] for _ in range(size + 1)]
        children[root] = others[::-1]
        self.check(children, root, self.pairs(size, 7))

    @pytest.mark.parametrize("size", [1, 2, 33, 1000, 17000])
    def test_from_degrees_matches_tour(self, size):
        # past 16383 nodes the levels no longer fit 16 bits
        children, root, _ = random_ordinal_tree(size, size)
        kids = self.preorder_children(children, root)
        *times, child = tour_from_degrees(np.array([len(x) for x in kids[1:]]))
        for name, direct, walked in zip(("enter", "exit"), times, self.walked(kids)):
            assert direct.tolist() == walked, name
        assert child.tolist() == [c for x in kids for c in x]

    @pytest.mark.parametrize("degrees", [[], [0, 0], [1, 0, 1, 0], [1, 1], [2, 0],
                                         [4, -1, 1, 0, 0]],
                             ids=["empty", "closes-at-once", "closes-midway",
                                  "slot-left-open", "slots-left-open",
                                  "negative"])  # the last would pass the other checks
    def test_from_degrees_rejects_other_sequences(self, degrees):
        with pytest.raises(ValueError, match="degree sequence"):
            tour_from_degrees(np.array(degrees, dtype=np.int64))


def stable_ranks(values) -> np.ndarray:
    """0..n-1 in the order of `values`, equal values left to right."""
    ranks = np.empty(len(values), dtype=np.intc)
    ranks[np.argsort(np.asarray(values), kind="stable")] = np.arange(len(values))
    return ranks


def sawtooth(n: int) -> np.ndarray:
    """Ascending teeth of 1000, each tooth starting below every earlier
    value: pointer jumping leaves each tooth's first entry unresolved on
    the left, and runs out of its work budget on the right."""
    at = np.arange(n, dtype=np.int64)
    return (at % 1000) * 10**6 - at // 1000


def adversarial_ranks(n: int) -> dict[str, np.ndarray]:
    """Rank sequences that defeat pointer jumping or make long paths: the
    stable ranks of `adversarial_arrays`, a zigzag and a caterpillar, and
    ascending runs of 1000 in descending blocks (n a multiple of 1000)."""
    out = {name: stable_ranks(values) for name, values in adversarial_arrays(n).items()}
    out["zigzag"] = np.array([*range(0, n, 2), *range(n - 1 - n % 2, 0, -2)], dtype=np.intc)
    out["caterpillar"] = np.array([v ^ 1 if v ^ 1 < n else v for v in range(n)], dtype=np.intc)
    at = np.arange(n)
    out["blocks"] = (n - 1000 * (at // 1000 + 1) + at % 1000).astype(np.intc)
    return out


def with_sentinel(ranks) -> np.ndarray:
    return np.concatenate(([-1], ranks)).astype(np.intc)


def scan_nearest_smaller(rk, strict=False) -> list[int]:
    """For each i >= 1, the nearest j < i with rk[j] <= rk[i] (rk[j] < rk[i]
    if `strict`), by a plain scan."""
    return [0] + [next(j for j in range(i - 1, -1, -1)
                       if (rk[j] < rk[i] if strict else rk[j] <= rk[i]))
                  for i in range(1, len(rk))]


def walk_nearest_smaller(rk) -> list[int]:
    """The same by the sequential walk from i - 1 along earlier answers."""
    rk = rk.tolist()
    near = [0] * len(rk)
    for i in range(1, len(rk)):
        j = i - 1
        while rk[j] > rk[i]:
            j = near[j]
        near[i] = j
    return near


def traced_nearest_smaller(rk, strict=False):
    """`_nearest_smaller_left(rk, strict)`, the number of times it gathered
    rk by an index array, and whether it read rk as a list (the sequential
    walk does).  The first round reads slices; each later round gathers
    twice."""
    log = {"gathers": 0, "walked": False}

    class Traced(np.ndarray):
        def __getitem__(self, key):
            if isinstance(key, np.ndarray):
                log["gathers"] += 1
            return self.view(np.ndarray)[key]

        def tolist(self):
            log["walked"] = True
            return self.view(np.ndarray).tolist()

    near = _nearest_smaller_left(rk.view(Traced), strict)
    return near, log["gathers"], log["walked"]


class TestNearestSmallerLeft:
    """`_nearest_smaller_left` against a plain scan and the sequential walk;
    the inputs end its pointer jumping in each of its three ways."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 17, 64, 100, 1000, 5000])
    def test_seeded_permutations(self, n):
        for seed in range(3 if n < 1000 else 1):
            rk = with_sentinel(np.random.default_rng(seed).permutation(n))
            assert _nearest_smaller_left(rk).tolist() == scan_nearest_smaller(rk)

    def test_ties(self):
        rng = np.random.default_rng(7)
        for n in (10, 300, 3000):
            values = rng.integers(0, 4, n)
            rk = with_sentinel(stable_ranks(values))
            assert _nearest_smaller_left(rk).tolist() == scan_nearest_smaller(rk)
            # on the values themselves, an equal entry counts as not larger
            rk = with_sentinel(values)
            assert _nearest_smaller_left(rk).tolist() == scan_nearest_smaller(rk)
        # an organ pipe of values with ties ends by the sequential walk
        rk = with_sentinel(adversarial_arrays(2000)["organ_pipe"])
        near, _, walked = traced_nearest_smaller(rk)
        assert walked and near.tolist() == scan_nearest_smaller(rk)

    def test_small_rank_shapes_match_scan(self):
        for name, ranks in adversarial_ranks(1000).items():
            for rk in (with_sentinel(ranks), with_sentinel(ranks[::-1])):
                assert _nearest_smaller_left(rk).tolist() == scan_nearest_smaller(rk), name

    @pytest.mark.parametrize("name", ["sorted", "reverse", "organ_pipe", "constant",
                                      "few_distinct", "zigzag", "caterpillar", "blocks"])
    def test_adversarial_shapes(self, name):
        ranks = adversarial_ranks(200_000)[name]
        for rk in (with_sentinel(ranks), with_sentinel(ranks[::-1])):
            assert _nearest_smaller_left(rk).tolist() == walk_nearest_smaller(rk)

    def test_random_resolves_by_jumping(self):
        rk = with_sentinel(np.random.default_rng(1).permutation(200_000))
        near, gathers, walked = traced_nearest_smaller(rk)
        assert not walked and gathers < 2 * 64
        assert near.tolist() == walk_nearest_smaller(rk)

    def test_organ_pipe_ends_on_work_budget(self):
        rk = with_sentinel(adversarial_ranks(200_000)["organ_pipe"][::-1])
        near, gathers, walked = traced_nearest_smaller(rk)
        assert walked and gathers < 2 * 64
        assert near.tolist() == walk_nearest_smaller(rk)

    def test_blocks_end_on_round_cap(self):
        rk = with_sentinel(adversarial_ranks(200_000)["blocks"])
        near, gathers, walked = traced_nearest_smaller(rk)
        assert walked and gathers == 2 * 64
        assert near.tolist() == walk_nearest_smaller(rk)

    def test_strict_stops_only_below(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 10, 300, 3000):
            rk = with_sentinel(rng.integers(0, 4, n))
            assert (_nearest_smaller_left(rk, strict=True).tolist()
                    == scan_nearest_smaller(rk, strict=True))
        for name, ranks in adversarial_ranks(1000).items():
            for rk in (with_sentinel(ranks), with_sentinel(ranks[::-1])):
                assert (_nearest_smaller_left(rk, strict=True).tolist()
                        == scan_nearest_smaller(rk, strict=True)), name
        # ties in an organ pipe: the walk, too, passes over equal entries
        rk = with_sentinel(adversarial_arrays(2000)["organ_pipe"][::-1])
        near, _, walked = traced_nearest_smaller(rk, strict=True)
        assert walked and near.tolist() == scan_nearest_smaller(rk, strict=True)


def tree_spans(values) -> list[list[int]]:
    """`_spans` over the stable ranks of `values`."""
    rk = np.append(with_sentinel(stable_ranks(values)), -1).astype(np.intc)
    return [a.tolist() for a in _spans(rk)]


class TestSpansFromKeys:
    """`cartesian_spans` compares integer keys of a range up to KEY_RANGE as
    they are, and ranks the others; either way the spans are those of the
    stable ranks."""

    RNG = np.random.default_rng(9)
    TOP = np.iinfo(np.int64).max
    INPUTS = {
        "ties": RNG.integers(0, 4, 500),
        "negative": RNG.integers(-50, 3, 500).tolist(),
        "bool-list": [bool(x) for x in RNG.integers(0, 2, 300)],
        "bool-array": RNG.integers(0, 2, 300).astype(bool),
        "int8": RNG.integers(-128, 128, 500).astype(np.int8),
        "uint8": RNG.integers(0, 256, 500).astype(np.uint8),
        "uint64-above-int64": np.uint64(TOP) + RNG.integers(1, 40, 500).astype(np.uint64),
        "int64-extremes": RNG.choice([-TOP - 1, -TOP, 0, TOP - 1, TOP], 500),
        "range-2^31-2": RNG.choice([-7, -7 + KEY_RANGE, 5], 500),
        "range-2^31-1": RNG.choice([-7, -6 + KEY_RANGE, 5], 500),
        "signed-zeros-infinities": RNG.choice([0.0, -0.0, np.inf, -np.inf, 1.5], 500),
        "big-ints": [2**70 - x for x in RNG.integers(0, 3, 300).tolist()],
        "strings": [str(x) for x in RNG.integers(0, 30, 300)],
        "one": [3],
        "two": [4, 4],
        "two-falling": np.array([4, -1]),
    }

    @pytest.mark.parametrize("name", list(INPUTS))
    def test_spans_of_stable_ranks(self, name):
        values = self.INPUTS[name]
        assert [a.tolist() for a in cartesian_spans(values)] == tree_spans(values)

    @pytest.mark.parametrize("name", ["ties", "negative", "bool-list", "bool-array", "int8",
                                      "uint8", "uint64-above-int64", "range-2^31-2", "one"])
    def test_integer_keys_sort_nothing(self, name, monkeypatch):
        values = self.INPUTS[name]
        seen = []
        spans = trees._spans

        def no_sort(*args, **kwargs):
            raise AssertionError("cartesian_spans sorted integer keys")

        def record(rk):
            seen.append(rk.copy())
            return spans(rk)

        monkeypatch.setattr(trees.np, "argsort", no_sort)
        monkeypatch.setattr(trees, "_spans", record)
        cartesian_spans(values)
        monkeypatch.undo()
        keys = [int(v) for v in values]
        assert seen[0].tolist() == [-1, *(k - min(keys) for k in keys), -1]

    @pytest.mark.parametrize("name", ["int64-extremes", "range-2^31-1",
                                      "signed-zeros-infinities", "big-ints", "strings"])
    def test_other_keys_rank(self, name, monkeypatch):
        sorts = []
        argsort = np.argsort

        def counted(*args, **kwargs):
            sorts.append(kwargs.get("kind"))
            return argsort(*args, **kwargs)

        monkeypatch.setattr(trees.np, "argsort", counted)
        cartesian_spans(self.INPUTS[name])
        assert sorts == ["stable"]


class TestBuildTimeBound:
    """Building the Cartesian tree stays linear on inputs that defeat pointer
    jumping: each of these 2*10^5-element builds takes well under a second,
    and a quadratic fallback would take minutes."""

    @pytest.mark.parametrize("name", ["sorted", "reverse", "organ_pipe", "constant",
                                      "few_distinct", "zigzag", "caterpillar", "blocks"])
    def test_adversarial_build(self, name):
        ranks = adversarial_ranks(200_000)[name]
        start = time.perf_counter()
        t = build_cartesian(ranks)
        assert time.perf_counter() - start < 20.0
        assert t.n == 200_000 and t.id_at_inorder[int(np.argmin(ranks)) + 1] == t.root
