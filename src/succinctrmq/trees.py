"""Static binary trees, Cartesian-tree construction, and shape statistics.

Nodes are identified by their preorder rank (1-based, root = 1); inorder is a
derived permutation.  All traversals are iterative so degenerate shapes
(paths of many thousands of nodes) stay within the interpreter's limits.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import opcount


class BinaryTree:
    """Pointer-free static binary tree.

    Arrays are 1-based (slot 0 unused); ``left``/``right`` hold child ids with
    0 as the null sentinel.  ``st`` is the subtree size, ``ls`` the left
    subtree size, ``inorder_of[v]`` the inorder index of node v and
    ``id_at_inorder`` its inverse.
    """

    __slots__ = ("n", "left", "right", "parent", "st", "ls", "inorder_of", "id_at_inorder", "_depth")

    def __init__(self):
        self.n = 0
        self.left = array("i", [0])
        self.right = array("i", [0])
        self.parent = array("i", [0])
        self.st = array("i", [0])
        self.ls = array("i", [0])
        self.inorder_of = array("i", [0])
        self.id_at_inorder = array("i", [0])
        self._depth = None

    @property
    def root(self) -> int:
        return 1 if self.n else 0

    @classmethod
    def from_shape(cls, shape) -> "BinaryTree":
        """Build from nested (left, right) tuples; None is the empty tree.

        An inorder walk meets the nodes for the first time in preorder, so it
        lists each node's preorder id in inorder: the ranks whose Cartesian
        tree has this shape."""
        in2pre = []
        stack = []
        count = 0
        while stack or shape is not None:
            while shape is not None:
                count += 1
                stack.append((shape, count))
                shape = shape[0]
            shape, pre = stack.pop()
            in2pre.append(pre)
            shape = shape[1]
        return _cartesian_from_ranks(in2pre)

    def depth(self, v: int) -> int:
        if self._depth is None:
            d = array("i", [0]) * (self.n + 1)
            for u in range(2, self.n + 1):
                d[u] = d[self.parent[u]] + 1
            self._depth = d
        return self._depth[v]

    def lca(self, u: int, v: int) -> int:
        """Pointer-walk LCA; reference oracle, not constant time."""
        while self.depth(u) > self.depth(v):
            u = self.parent[u]
        while self.depth(v) > self.depth(u):
            v = self.parent[v]
        while u != v:
            u = self.parent[u]
            v = self.parent[v]
        return u

    def same_shape(self, other: "BinaryTree") -> bool:
        return self.n == other.n and self.left == other.left and self.right == other.right

    def to_paren(self) -> str:
        """Parenthesized shape; '.' is an empty subtree."""
        if self.n == 0:
            return "."
        out = []
        stack = [(1, 0)]
        while stack:
            v, phase = stack.pop()
            if v == 0:
                out.append(".")
                continue
            if phase == 0:
                out.append("(")
                stack.append((v, 1))
                stack.append((self.right[v], 0))
                stack.append((self.left[v], 0))
            else:
                out.append(")")
        # children were pushed right-then-left so they pop left-then-right
        return "".join(out)

    def __repr__(self):
        return f"BinaryTree(n={self.n})"


# how many entries a sequential pass takes as Python ints at a time, which
# bounds its lists whatever the input
CHUNK = 1 << 14


def _int_array(values) -> array:
    out = array("i")
    out.frombytes(memoryview(np.ascontiguousarray(values, dtype=np.intc)).cast("B"))
    return out


def _level_type(length: int):
    """The narrowest signed integer type that holds every excess of a
    `length`-bit sequence.  A micro shape's key fits 16 bits, where numpy's
    stable sort is a radix sort."""
    if length <= np.iinfo(np.int16).max:
        return np.int16
    return np.int32 if length <= np.iinfo(np.int32).max else np.int64


# past its budget, pointer jumping goes on while a round resolves at least
# 1/SHRINK of the live entries: a round costs an entry about a tenth of what
# the sequential walk does, and a share that doubles each round ends within
# lg SHRINK + 1 rounds
SHRINK = 512


def _nearest_smaller_left(rk: np.ndarray, strict: bool = False) -> np.ndarray:
    """For each position i >= 1 of the intc array `rk`, the nearest j < i with
    rk[j] <= rk[i], or with rk[j] < rk[i] if `strict`; rk[0] must be below
    every other entry, and slot 0 of the result is 0.

    Pointer jumping (Berkman, Schieber & Vishkin, J. Algorithms 1993): every
    unresolved i repeats near[i] <- near[near[i]] while rk[near[i]] is above
    rk[i], and all of rk between near[i] and i stays above rk[i].  In the
    first round every pointer is still its left neighbour, so that round
    reads rk by slices, with no gathers.  Long chains of resolved pointers
    make some inputs need O(n) rounds.  So once the rounds have touched 2n
    entries, they go on only while each round resolves at least 1/SHRINK of
    the live entries, as where long runs still double their pointers (a
    sawtooth's falling teeth, read right to left); past that, or after 64
    more rounds, the rest finish in increasing i by the sequential walk
    from near[i] along final pointers, whose steps total at most n.  The
    walk reads rk and the pointers in place, at 4 bytes an entry, and takes
    the unresolved entries and their keys as Python ints CHUNK at a time.
    """
    n = len(rk) - 1
    above = np.greater_equal if strict else np.greater
    jump = above(rk[:-1], rk[1:])
    live = np.flatnonzero(jump).astype(np.intc)
    live += 1
    near = np.arange(-1, n, dtype=np.intc)
    near[0] = 0
    near[1:] -= jump  # to near[i - 1] = i - 2: position 1, above rk[0], never jumps
    del jump
    budget = 2 * n - live.size
    for _ in range(64):
        up = near[live]
        jump = above(rk[up], rk[live])
        was = live.size
        live = live[jump]
        if not live.size or (budget <= 0 and (was - live.size) * SHRINK < was):
            break
        budget -= live.size
        near[live] = near[up[jump]]
    r, nr = memoryview(rk), memoryview(near)
    for at in range(0, live.size, CHUNK):
        part = live[at:at + CHUNK]
        # strict stops only below ri: on integers, r[j] >= ri is r[j] > ri - 1
        for i, ri in zip(part.tolist(), (rk.take(part) - strict).tolist()):
            j = nr[i]
            while r[j] > ri:
                j = nr[j]
            nr[i] = j
    return near


def _spans(rk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Cartesian tree of the non-negative keys rk[1..n], whose positions
    are its inorder and whose equal keys break to the leftmost, as its
    spans: two intc arrays `lo` and `st` over preorder ids (slot 0 is 0),
    where node p's subtree has st[p] nodes at inorder positions lo[p] + 1 ..
    lo[p] + st[p].  rk[0] and rk[n + 1] must be -1.

    `_nearest_smaller_left` finds each position's nearest key to the left
    that is not larger (L), and on the reversed keys the nearest smaller one
    to the right (R); the subtree of position i then spans L+1..R-1, so an
    equal key to its left is its ancestor and one to its right is in its
    subtree.  Its preorder id is L + 1 plus its left depth, the number of its
    ancestors right of it, which are the positions j > i with L_j < i.
    Every j <= i has L_j < i, so one count of the L values below i, less i,
    gives the left depth: no sort.
    """
    n = len(rk) - 2
    lo = _nearest_smaller_left(rk[:n + 1])[1:]
    # counted before the right pass: the count's two int64 arrays then raise
    # the build's peak RSS less
    pre = np.cumsum(np.bincount(lo, minlength=n), dtype=np.intc)  # [i - 1]: the L values below i
    pre -= np.arange(n, dtype=np.intc)
    pre += lo
    st = n - _nearest_smaller_left(rk[:0:-1], strict=True)[:0:-1] - lo  # R - L - 1
    spans = np.zeros((2, n + 1), dtype=np.intc)
    spans[0, pre] = lo
    spans[1, pre] = st
    return spans[0], spans[1]


def _children(lo: np.ndarray, st: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The left and right child of every preorder id of the tree with spans
    `lo`, `st`, 0 for none: node p + 1 is p's left child iff its subtree
    starts where p's does, and p's right child comes after its left
    subtree."""
    n = len(st) - 1
    at = np.arange(n + 1, dtype=np.intc)
    left = np.zeros(n + 1, dtype=np.intc)
    left[1:n] = np.where(lo[2:] == lo[1:n], at[2:], 0)
    ls = st[left]
    return left, np.where(st - ls > 1, at + ls + 1, 0)


def _tree(lo: np.ndarray, st: np.ndarray) -> BinaryTree:
    """The `BinaryTree` with spans `lo`, `st` (see `_spans`)."""
    t = BinaryTree()
    n = t.n = len(st) - 1
    left, right = _children(lo, st)
    ls = st[left]
    node = lo + ls + 1  # inorder position of each preorder id
    node[0] = 0
    at = np.arange(n + 1, dtype=np.intc)
    parent = np.zeros(n + 1, dtype=np.intc)
    parent[left] = at
    parent[right] = at
    parent[0] = 0
    pre = np.empty(n + 1, dtype=np.intc)
    pre[node] = at
    t.left, t.right, t.parent = _int_array(left), _int_array(right), _int_array(parent)
    t.st, t.ls = _int_array(st), _int_array(ls)
    t.inorder_of, t.id_at_inorder = _int_array(node), _int_array(pre)
    return t


def _cartesian_from_ranks(ranks) -> BinaryTree:
    """Cartesian tree of distinct non-negative ranks; positions (1-based) are
    inorder."""
    rk = np.full(len(ranks) + 2, -1, dtype=np.intc)  # -1: below every rank, at both ends
    rk[1:-1] = ranks
    return _tree(*_spans(rk))


def order_keys(values) -> np.ndarray:
    """`values` as a 1-d array whose numpy order is Python's order.

    Integer and exactly representable float inputs stay numeric; anything
    else (mixed types, integers beyond 64 bits, strings) becomes an object
    array, which numpy orders with Python's comparisons.  A NaN, which is
    neither below nor above anything, raises ValueError.
    """
    if isinstance(values, np.ndarray):
        if values.ndim == 1 and values.dtype.kind in "biufO":
            return _no_nan(values)
        values = values.tolist()
    vals = values if isinstance(values, list) else list(values)
    try:
        arr = np.asarray(vals)
    except (OverflowError, ValueError):
        arr = None
    if arr is not None and arr.ndim == 1:
        kind = arr.dtype.kind
        if kind in "biu" or (kind == "f" and all(
                isinstance(v, float) or -(1 << 53) <= v <= 1 << 53 for v in vals)):
            return _no_nan(arr)
    keys = np.empty(len(vals), dtype=object)
    keys[:] = vals
    return _no_nan(keys)


def _no_nan(keys: np.ndarray) -> np.ndarray:
    """`keys`, or ValueError naming its first NaN: a float for which
    `isnan` holds, or an object that is not equal to itself."""
    kind = keys.dtype.kind
    if kind in "fO":
        nan = np.flatnonzero(np.isnan(keys) if kind == "f" else keys != keys)
        if nan.size:
            raise ValueError(f"values[{nan[0]}] is NaN, which has no order")
    return keys


# the widest range of integer keys that `cartesian_spans` compares as they
# are: keys less their minimum then lie in 0 .. 2^31 - 2, above the -1
# sentinels, in an intc
KEY_RANGE = np.iinfo(np.intc).max - 1


def cartesian_spans(values) -> tuple[np.ndarray, np.ndarray]:
    """The spans (see `_spans`) of the Cartesian tree of `values`: root at
    the minimum, left/right subtrees on the subarrays, equal keys broken to
    the leftmost minimum.  The node at inorder position i is values[i-1].

    Integer or bool keys whose range is at most KEY_RANGE are compared as
    they are, less their minimum; floats, objects and wider integers by
    their stable ranks, which order them the same."""
    keys = order_keys(values)
    rk = np.full(len(keys) + 2, -1, dtype=np.intc)  # -1: below every key, at both ends
    kind = keys.dtype.kind
    low = int(keys.min()) if kind in "biu" and len(keys) else None
    if low is not None and int(keys.max()) - low <= KEY_RANGE:  # Python ints: no overflow
        np.subtract(keys, low, out=rk[1:-1], dtype=np.uint64 if kind == "u" else np.int64,
                    casting="unsafe")
    else:
        rk[1:-1][np.argsort(keys, kind="stable")] = np.arange(len(keys), dtype=np.intc)
    return _spans(rk)


def build_cartesian(values) -> BinaryTree:
    """Cartesian tree of `values`: root at the minimum, left/right subtrees on
    the subarrays.  Equal keys break ties to the leftmost minimum.  The node
    with inorder index i corresponds to values[i-1]."""
    return _tree(*cartesian_spans(values))


def sample_random_bst(n: int, seed: int) -> BinaryTree:
    """Cartesian tree of a uniformly random permutation; deterministic per seed."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return _cartesian_from_ranks(perm)


@dataclass(frozen=True)
class EntropyReport:
    hst: float
    hn: float
    per_node: float


def subtree_entropy(t: BinaryTree) -> EntropyReport:
    """Sum of lg(subtree size) over all nodes, with the model entropy for
    comparison."""
    if t.n == 0:
        return EntropyReport(0.0, 0.0, 0.0)
    sizes = np.frombuffer(t.st, dtype=np.int32)[1:].astype(np.float64)
    hst = float(np.log2(sizes).sum())
    return EntropyReport(hst, model_entropy(t.n), hst / t.n)


_H: list[float] = [0.0, 0.0]
_HSUM: list[float] = [0.0, 0.0]


def model_entropy(n: int) -> float:
    """Shape entropy of the random-permutation model:
    H(0) = H(1) = 0, H(n) = lg n + (1/n) * sum_{i=1..n} (H(i-1) + H(n-i))."""
    if n < 0:
        raise ValueError("n must be non-negative")
    while len(_H) <= n:
        m = len(_H)
        h = math.log2(m) + 2.0 / m * _HSUM[m - 1]
        _H.append(h)
        _HSUM.append(_HSUM[m - 1] + h)
    return _H[n]


def model_entropy_closed(n: int) -> float:
    """Closed-form evaluation of the same recurrence; cross-checks the DP."""
    if n <= 1:
        return 0.0
    i = np.arange(2, n, dtype=np.float64)
    if i.size == 0:
        s = 0.0
    else:
        s = float(np.sum(np.log2(i) / ((i + 2.0) * (i + 1.0))))
    return math.log2(n) + 2.0 * (n + 1) * s


#: limit of model_entropy(n)/n for large n (bits per element)
ENTROPY_RATE_LIMIT = 1.7363771


def shape_probability(t: BinaryTree) -> float:
    """Probability of this shape under the random-permutation model:
    product over nodes of 1/st(v).  Underflows to 0.0 for very large trees."""
    if t.n < 1:
        raise ValueError("shape_probability requires n >= 1")
    return float(2.0 ** -subtree_entropy(t).hst)


def enumerate_shapes(n: int):
    """Yield every binary-tree shape with n nodes (Catalan enumeration)."""
    memo = {0: [None]}

    def shapes(k):
        if k not in memo:
            out = []
            for i in range(k):
                for l in shapes(i):
                    for r in shapes(k - 1 - i):
                        out.append((l, r))
            memo[k] = out
        return memo[k]

    for s in shapes(n):
        yield BinaryTree.from_shape(s)


def left_path(n: int) -> BinaryTree:
    return _cartesian_from_ranks(range(n, 0, -1))


def right_path(n: int) -> BinaryTree:
    return _cartesian_from_ranks(range(1, n + 1))


def zigzag_path(n: int) -> BinaryTree:
    """Path whose odd nodes have a right child and even nodes a left child:
    inorder lists the odd nodes going down, then the even ones coming up."""
    return _cartesian_from_ranks([*range(1, n + 1, 2), *range(n - n % 2, 0, -2)])


def complete_tree(levels: int) -> BinaryTree:
    shape = None
    for _ in range(levels):
        shape = (shape, shape)
    return BinaryTree.from_shape(shape)


def _position_code(length: int) -> str:
    """The item type of an array of positions into a `length`-entry sequence:
    'H' (16 bits) up to 65535 entries, 'i' from there up."""
    return "H" if length <= 0xFFFF else "i"


def _with_positions(keys: np.ndarray) -> np.ndarray:
    """Each key with its position in the low 32 bits: their minima give the
    leftmost position of a smallest key."""
    packed = keys.astype(np.int64) << 32
    packed |= np.arange(len(keys))
    return packed


class BlockMinLca:
    """Constant-time LCA as the position of a range minimum over a sequence.

    The smallest entry of ``seq`` between the positions of two nodes names
    their LCA.  The sequence is cut into BLOCK-entry blocks, and a sparse
    table holds, for each level l and block i, the position of the smallest
    entry of blocks i .. i + 2^l - 1.  Its levels lie in one array of
    positions, level l of an m-block sequence from offset l (m + 1) - 2^l + 1.
    A query scans at most two partial blocks, and reads two sparse entries and
    the two entries of seq they name, so its operation count is bounded
    independently of the sequence length (Bender & Farach-Colton, LATIN 2000).
    """

    BLOCK = 32

    __slots__ = ("seq", "_sparse", "_blocks")

    def __init__(self, seq, keys: np.ndarray):
        """keys: one integer in 0 .. 2^31 - 1 per entry of seq, whose
        smallest in any range lies where a smallest entry of seq does."""
        packed = _with_positions(keys)
        level = np.minimum.reduceat(packed, np.arange(0, len(keys), self.BLOCK))
        m = len(level)
        levels = [level]
        span = 1
        while 2 * span <= m:
            level = np.minimum(level[:-span], level[span:])
            levels.append(level)
            span *= 2
        code = _position_code(len(keys))
        self.seq, self._blocks = seq, m
        # narrowing keeps the low bits, the positions
        self._sparse = array(code, np.concatenate(levels).astype(code).tobytes())

    def range_min(self, ia: int, ib: int) -> int:
        """The position of the leftmost smallest entry of seq between
        positions ia and ib, in either order.  The charge is the reads, each
        entry of seq scanned counted once (finding the minimum's position
        rescans entries already counted), per case:

        * within one block, or across two adjacent blocks: the ib - ia + 1
          entries, all scanned;
        * with blocks between: the entries of the two partial blocks, two
          sparse entries and the two entries of seq they name, at most
          2 BLOCK + 4.

        A single position is its own answer, one read.  The golden op-count
        digests pin these charges."""
        if ia == ib:
            opcount.add(1)
            return ia
        if ia > ib:
            ia, ib = ib, ia
        seq = self.seq
        block = self.BLOCK
        ba, bb = ia // block, ib // block
        if ba == bb:
            opcount.add(ib - ia + 1)
            return seq.index(min(seq[ia:ib + 1]), ia)
        lo = bb * block
        left, right = min(seq[ia:(ba + 1) * block]), min(seq[lo:ib + 1])
        best = min(left, right)
        if bb > ba + 1:
            k = (bb - ba - 1).bit_length() - 1
            level = k * (self._blocks + 1) - (1 << k) + 1
            p, q = self._sparse[level + ba + 1], self._sparse[level + bb - (1 << k)]
            vp, vq = seq[p], seq[q]
            opcount.add(ib - lo - ia + (ba + 1) * block + 5)
            if vq < vp:
                p, vp = q, vq
            # the leftmost of equal minima: the left block's, then the
            # middle's, then the right block's
            if vp < left and vp <= right:
                return p
        else:
            opcount.add(ib - ia + 1)
        # a scanned partial block holds the minimum: the first entry equal to
        # it from that scan's start
        return seq.index(best, ia if left <= right else lo)

    def space_bits(self) -> int:
        """The held widths: each entry of seq, an array, at its item type's
        width and each sparse-table entry at the position width."""
        return 8 * (len(self.seq) * self.seq.itemsize + len(self._sparse) * self._sparse.itemsize)


class PrefixSuffixMinLca(BlockMinLca):
    """`BlockMinLca` that answers a range across blocks with no scan.

    Two more arrays of positions, one entry per entry of seq: `_suf[i]`, the
    leftmost smallest entry from i to its block's end, and `_pre[i]`, the
    leftmost smallest from its block's start to i.  A range across blocks is
    then the leftmost smallest of at most four candidates: `_suf` at its
    start, the two sparse entries of the blocks between, and `_pre` at its
    end (Bender & Farach-Colton, LATIN 2000; Fischer & Heun, SICOMP 2011).
    A range inside one block is scanned as in the base.  The arrays cost two
    positions per entry, which is little over the cover's few runs but would
    add at least 16 bits per node (two in-block offsets of a byte) to a
    lookup table's 8-bit left depths, so `ShapeTable` keeps the base kernel.
    """

    __slots__ = ("_pre", "_suf")

    def __init__(self, seq, keys: np.ndarray):
        super().__init__(seq, keys)
        n, block = len(keys), self.BLOCK
        # the last block padded with keys above every real one
        packed = np.full(self._blocks * block, np.iinfo(np.int64).max)
        packed[:n] = _with_positions(keys)
        rows = packed.reshape(-1, block)
        pre = np.minimum.accumulate(rows, axis=1).ravel()[:n]
        suf = np.minimum.accumulate(rows[:, ::-1], axis=1)[:, ::-1].ravel()[:n]
        code = _position_code(n)
        # narrowing keeps the low bits, the positions
        self._pre, self._suf = (array(code, x.astype(code).tobytes()) for x in (pre, suf))

    def range_min(self, ia: int, ib: int) -> int:
        """The position of the leftmost smallest entry of seq between
        positions ia and ib, in either order.  The charge is the reads:

        * within one block: as in the base, the ib - ia + 1 entries scanned;
        * across two adjacent blocks: `_suf[ia]`, `_pre[ib]` and the two
          entries of seq they name, 4;
        * with blocks between: those and two sparse entries with the two
          entries of seq they name, 8."""
        if ia > ib:
            ia, ib = ib, ia
        block = self.BLOCK
        ba, bb = ia // block, ib // block
        if ba == bb:
            return BlockMinLca.range_min(self, ia, ib)
        seq = self.seq
        p, q = self._suf[ia], self._pre[ib]
        vp, vq = seq[p], seq[q]
        if bb > ba + 1:
            # the base's sparse lookup, inlined: a shared method adds a call
            # to every query's run-level minimum
            k = (bb - ba - 1).bit_length() - 1
            level = k * (self._blocks + 1) - (1 << k) + 1
            m, m2 = self._sparse[level + ba + 1], self._sparse[level + bb - (1 << k)]
            vm, vm2 = seq[m], seq[m2]
            opcount.add(8)
            if vm2 < vm:
                m, vm = m2, vm2
            if vm < vp:
                p, vp = m, vm
        else:
            opcount.add(4)
        # the leftmost of equal minima: the left block's, then the middle's,
        # then the right block's
        return q if vq < vp else p

    def space_bits(self) -> int:
        """The base's held widths and each prefix and suffix position at the
        position width."""
        return super().space_bits() + 8 * (len(self._pre) + len(self._suf)) * self._pre.itemsize


def tour_from_degrees(degrees) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Euler tour of the ordinal tree whose preorder degree sequence is
    `degrees` (ids 1..size are its preorder, children in id order): each
    node's enter and exit times (the root's are 1 and 2 size), each indexed
    by id with 0 in slot 0, and the child of each child slot, in (parent,
    slot) order; ValueError if `degrees` is no tree's.  A few numpy
    passes and one stable sort of 16-bit levels (wider past 16383 nodes).

    In preorder, each node takes the top slot of a stack of open slots and
    then pushes its own, last slot first.  Write node k as a query, one 1-bit
    per slot (last slot first) and a 0-bit, at which node k + 1 takes the
    slot on top; less the queries, that is DFUDS without its leading 1
    (Benoit, Demaine, Munro, Raman, Raman & Rao, Algorithmica 2005).  With
    excess +1 per 1-bit and -1 per 0-bit, give each 1-bit the level "excess
    before it" and each 0-bit "excess after it", as `treecode.zaks_arrays`
    does, and node k's query one less than the excess before it.  Sorted
    stably by level, the next 0-bit after a slot's 1 is where its child takes
    it, and the next 0-bit after node k's query is where the node past k's
    subtree takes the slot under the one k took.  With C_k subtrees ended
    before node k, k enters the tour at k + C_k (k - 1 steps down and C_k
    up before it) and leaves it 2 st_k - 1 later, for subtree size st_k."""
    d = np.asarray(degrees, dtype=np.int64)
    size = len(d)
    open_after = 1 + np.cumsum(d - 1)  # slots open after each node
    if not size or d.min() < 0 or open_after[:-1].min(initial=1) < 1 or open_after[-1]:
        raise ValueError("degrees are not a tree's preorder degree sequence")
    p_off = np.append(0, np.cumsum(d))
    query = 2 * np.arange(size) + p_off[:-1]  # where node k's entries start, k 0-based
    step = np.ones(3 * size - 1, dtype=_level_type(2 * size - 1))  # 1-bits
    step[query] = 0
    step[query + d + 1] = -1  # 0-bits
    level = np.cumsum(step, dtype=step.dtype) - (step == 1)
    level[query] -= 1
    order = np.argsort(level, kind="stable")
    zeros = np.flatnonzero(step[order] < 0)  # the last entry in level order is a 0-bit
    takes = np.empty(len(step), dtype=np.int64)
    takes[query + d + 1] = np.arange(2, size + 2)  # the node that takes at each 0-bit
    taker = np.empty(len(step), dtype=np.int64)  # ... and at the next 0-bit
    taker[order] = takes[order[np.repeat(zeros, np.diff(zeros, prepend=-1))]]
    end = taker[query]  # the node past each subtree
    ones = np.flatnonzero(step == 1)
    child = np.empty(size - 1, dtype=np.int64)
    child[np.repeat(query + d + p_off[:-1], d) - ones] = taker[ones]  # last slot first
    k = np.arange(1, size + 1)
    ended = np.cumsum(np.bincount(end, minlength=size + 1))[1:size + 1]  # C_1 .. C_size
    enter = k + ended
    exit_ = enter + 2 * (end - k) - 1
    return np.append(0, enter), np.append(0, exit_), child


def caterpillar(n: int) -> BinaryTree:
    """Right spine whose nodes each carry one left leaf: inorder lists each
    leaf before its spine node, 0-based preorder ids 1, 0, 3, 2, ..."""
    return _cartesian_from_ranks([v ^ 1 if v ^ 1 < n else v for v in range(n)])
