"""Micro-tree types, their payload encodings and the shared lookup tables.

A micro tree's *type* is its shape (portal leaves included), keyed by the
shape's Zaks sequence (`TYPR`); where its portals hang is the cover's
business (`MICR`), not the type's.  Types index per-shape lookup tables that
answer micro-local queries in constant time, and every codec's queries build
them from the key.  Three payload encodings, of which only entropy is stored:

* fixed:    the Zaks sequence, 2s+1 bits for an s-node shape, which is bit
            for bit its type's `TYPR` record
* entropy:  a selector bit and the shorter of {subtree-size code, Zaks};
            the node count is *not* stored (the per-micro index knows it),
            which keeps the per-shape cost within sum(lg st(v)) + O(1)
* huffman:  a length-limited Huffman codeword per micro, over the type
            frequencies; `MICR`'s `type_of` already names each micro's type
"""

from __future__ import annotations

import heapq
from array import array

import numpy as np

from .bits import VariableCellArray
from .serial import DecodeError
from .treecode import (SELECTOR_SIZECODE, SELECTOR_ZAKS, decode_body, encode_size_sequences,
                       subtree_sizes, zaks_arrays, zaks_excess)
from .trees import BlockMinLca

MODE_FIXED = "fixed"
MODE_ENTROPY = "entropy"
MODE_HUFFMAN = "huffman"
MODES = (MODE_FIXED, MODE_ENTROPY, MODE_HUFFMAN)

HUFFMAN_LENGTH_LIMIT = 128  # two machine words


class ShapeTable(BlockMinLca):
    """Per-type lookup table: the shape's left depths in inorder (`ld`) and
    the sparse table of their block minima, which give the in-micro LCA.

    A node's left depth is the number of left edges on its path from the
    root.  `ld` is 1-based (slot 0 holds 0), of item type 'B' when every
    left depth is below 256, 'H' below 65536 and 'i' otherwise; it fixes the
    shape.  The LCA of the nodes at inorder positions a and b is the
    leftmost smallest left depth between them: every node of that range lies
    in the LCA's subtree, those before the LCA in its left subtree, which
    are deeper, and those after it in its right subtree, which are no
    shallower.  So the table is a `BlockMinLca` over ld, and
    `range_min(ia, ib)` is the inorder position of the LCA of the nodes at
    inorder positions ia and ib, as in the excess-sequence RMQ of Fischer &
    Heun (SICOMP 2011).  Nothing else is held: inorder rank needs only that
    position, leafness (`is_leaf`) is read off ld, and so is a leaf's
    preorder, which is its inorder position plus its left depth.
    """

    __slots__ = ("n",)
    ld = BlockMinLca.seq  # another name for the same slot

    def __init__(self, ls: np.ndarray, ld: np.ndarray):
        """ls, ld: left-subtree sizes and left depths in preorder."""
        n = len(ls)
        if n == 0:
            raise DecodeError("an empty shape has no lookup table")
        depth = np.zeros(n + 1, dtype=np.int64)
        depth[np.arange(1, n + 1) + ls - ld] = ld  # inorder = preorder + left size - left depth
        self._install(depth)

    @classmethod
    def from_zaks(cls, bits) -> "ShapeTable":
        """The table of the shape whose Zaks sequence is `bits`, in a few
        linear passes.  With excess +1 per 1-bit and -1 per 0-bit, the k-th
        0-bit closes the left subtree of the k-th node in inorder (the empty
        slots and the nodes alternate in inorder), and the excess after it is
        that node's left depth.  The final 0 closes the root's right spine."""
        b, after = zaks_excess(bits)
        if len(b) == 1:
            raise DecodeError("an empty shape has no lookup table")
        depth = np.zeros(len(b) // 2 + 1, dtype=b.dtype)
        depth[1:] = after[b == 0][:-1]
        self = cls.__new__(cls)
        self._install(depth)
        return self

    def _install(self, depth: np.ndarray) -> None:
        """depth: slot 0, which holds 0, then the left depth of each inorder
        position.  No query range reaches slot 0, block 0's minimum is never
        read (the sparse table serves inner blocks), and `is_leaf` reads slot
        0 as position 1's left neighbour, which is never deeper than it."""
        top = int(depth.max())
        code = "B" if top < 0x100 else "H" if top < 0x10000 else "i"
        self.n = len(depth) - 1
        super().__init__(array(code, depth.astype(code).tobytes()), depth)

    def is_leaf(self, s: int) -> bool:
        """Whether the node at inorder position s is a leaf.  A node's
        inorder predecessor lies in its left subtree, deeper, iff it has a
        left child, and is otherwise an ancestor it hangs right of, no
        deeper; its successor lies in its right subtree, no shallower, iff it
        has a right child, and is otherwise an ancestor it hangs left of,
        shallower."""
        ld = self.ld
        d = ld[s]
        return ld[s - 1] <= d and (s == self.n or ld[s + 1] < d)


class TypeRegistry:
    """Micro-tree types with lazily built lookup tables.

    Type t is the shape whose Zaks sequence is object t + 1 of `zaks`, a
    `VariableCellArray` in type order; `TYPR` is that array's bytes.
    """

    def __init__(self, zaks: VariableCellArray):
        self.zaks = zaks
        # built tables by type id; the query path reads it before `table`
        self.tables: dict[int, ShapeTable] = {}

    def __len__(self) -> int:
        return self.zaks.m

    def shape_bits(self) -> np.ndarray:
        """The Zaks bit length (2s + 1 for an s-node shape) of every type."""
        return self.zaks.sizes()

    def zaks_bits(self, type_id: int) -> np.ndarray:
        """The type's Zaks sequence, as the uint8 array its table is built from."""
        return self.zaks.bits(type_id + 1)

    def table(self, type_id: int) -> ShapeTable:
        """The type's lookup table, built on first use.  A table is complete
        before it enters the cache, so concurrent readers at worst build the
        same table twice."""
        tbl = self.tables.get(type_id)
        if tbl is None:
            tbl = ShapeTable.from_zaks(self.zaks_bits(type_id))
            self.tables[type_id] = tbl
        return tbl

    def tables_built(self) -> int:
        return len(self.tables)

    def clear_tables(self) -> None:
        """Drop every built table; later queries rebuild what they touch."""
        self.tables = {}

    def tables_space_bits(self) -> int:
        return sum(t.space_bits() for t in list(self.tables.values()))

    def to_bytes(self) -> bytes:
        return self.zaks.to_bytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "TypeRegistry":
        """The registry of a `TYPR` section, each of whose records must have
        an odd size >= 3, that of a shape of s >= 1 nodes."""
        zaks = VariableCellArray.from_bytes(blob, "TYPR")
        size = zaks.sizes()
        if ((size < 3) | (size % 2 == 0)).any():
            raise DecodeError("a TYPR record is not 2s + 1 bits for a shape of s >= 1 nodes")
        return cls(zaks)


def _huffman_lengths(weights: list[int]) -> list[int]:
    """Codeword lengths of a Huffman code; deterministic tie-breaking by
    (weight, first-symbol order).  weights must be positive."""
    m = len(weights)
    if m == 1:
        return [1]
    heap = [(w, i, -1 - i) for i, w in enumerate(weights)]  # leaf marker < 0
    nodes: list[tuple[int, int]] = []  # (child_a, child_b) for internal nodes
    heapq.heapify(heap)
    seq = m
    while len(heap) > 1:
        wa, _, a = heapq.heappop(heap)
        wb, _, b = heapq.heappop(heap)
        nodes.append((a, b))
        heapq.heappush(heap, (wa + wb, seq, len(nodes) - 1))
        seq += 1
    lengths = [0] * m
    depth = [0] * len(nodes)
    for idx in range(len(nodes) - 1, -1, -1):
        for child in nodes[idx]:
            if child < 0:
                lengths[-1 - child] = depth[idx] + 1
            else:
                depth[child] = depth[idx] + 1
    return lengths


def _package_merge_lengths(weights: list[int], limit: int) -> list[int]:
    """Length-limited prefix-code lengths (package-merge)."""
    m = len(weights)
    if m == 1:
        return [1]
    if (1 << limit) < m:
        raise ValueError("length limit too small for alphabet")
    order = sorted(range(m), key=lambda i: weights[i])
    items = [(weights[i], {i: 1}) for i in order]
    prev: list[tuple[int, dict]] = []
    for _ in range(limit):
        packages = []
        for j in range(0, len(prev) - 1, 2):
            w = prev[j][0] + prev[j + 1][0]
            counts = dict(prev[j][1])
            for sym, c in prev[j + 1][1].items():
                counts[sym] = counts.get(sym, 0) + c
            packages.append((w, counts))
        merged = sorted(items + packages, key=lambda e: e[0])
        prev = merged
    lengths = [0] * m
    for _, counts in prev[: 2 * m - 2]:
        for sym, c in counts.items():
            lengths[sym] += c
    return lengths


class Codebook:
    """Codeword lengths of a prefix code over micro-tree types, one per type
    id.  No codeword is assigned: no file stores one, and a huffman payload
    is measured by the lengths alone."""

    __slots__ = ("lengths",)

    def __init__(self, lengths: dict[int, int], types: int):
        """lengths: type id -> codeword length (>= 1) for each of the type
        ids 0 .. types - 1."""
        if len(lengths) != types or min(lengths.values(), default=1) < 1:
            raise ValueError("every registry type needs a codeword")
        self.lengths = np.zeros(types, dtype=np.int64)
        self.lengths[list(lengths)] = list(lengths.values())

    def length(self, type_id: int) -> int:
        return int(self.lengths[type_id])

    def kraft_sum(self) -> float:
        return float(np.sum(np.exp2(-self.lengths.astype(np.float64))))


def build_huffman_codebook(type_counts: dict[int, int], types: int) -> Codebook:
    """Huffman code, at most `HUFFMAN_LENGTH_LIMIT` bits long, over the
    empirical frequencies of type ids 0 .. types - 1, with deterministic
    tie-breaking (frequency, then type id)."""
    if not type_counts:
        raise ValueError("huffman codebook needs at least one micro tree")
    symbols = sorted(type_counts, key=lambda s: (type_counts[s], s))
    weights = [type_counts[s] for s in symbols]
    lens = _huffman_lengths(weights)
    if max(lens) > HUFFMAN_LENGTH_LIMIT:
        lens = _package_merge_lengths(weights, HUFFMAN_LENGTH_LIMIT)
    return Codebook(dict(zip(symbols, lens)), types)


class TypeArray:
    """The micro trees' types under one codec, in micro-tree order.

    Only the entropy codec stores a payload: one object per micro in a
    variable-cell array (`TARR`).  A fixed object would be its type's `TYPR`
    record bit for bit, and a huffman one a codeword for the type that
    `type_of` already names, so those codecs store nothing here; their
    payload size is the designed one, and `decode_type` reads the type's key.
    """

    __slots__ = ("mode", "registry", "type_of", "vca")

    def __init__(self, mode: str, registry: TypeRegistry, type_of,
                 vca: VariableCellArray | None = None):
        """type_of: the type id of each micro tree, in k order; vca: the
        entropy payload."""
        self.mode = mode
        self.registry = registry
        self.type_of = type_of
        self.vca = vca

    @classmethod
    def from_bytes(cls, blob: bytes, registry: TypeRegistry, type_of,
                   shape_size) -> "TypeArray":
        """The entropy payload (`TARR`) of micro trees of types `type_of`
        whose shapes have `shape_size` nodes (k order): one object per micro,
        of 1 to 2s + 2 bits for an s-node shape (the selector and a body no
        longer than the Zaks sequence)."""
        vca = VariableCellArray.from_bytes(blob, "TARR")
        if vca.m != len(type_of):
            raise DecodeError(f"TARR holds {vca.m} objects for {len(type_of)} micro trees")
        size, s = vca.sizes(), np.asarray(shape_size, dtype=np.int64)
        bad = (size < 1) | (size > 2 * s + 2)
        if bad.any():
            i = int(np.argmax(bad))
            raise DecodeError(f"micro {i + 1}: {size[i]} bits for a {s[i]}-node shape")
        return cls(MODE_ENTROPY, registry, type_of, vca)

    def to_bytes(self) -> bytes:
        return self.vca.to_bytes()

    def total_payload_bits(self) -> int:
        """The payload's designed size: the stored entropy objects; fixed,
        every micro's `TYPR` record; huffman, every micro's codeword."""
        if self.mode == MODE_ENTROPY:
            return self.vca.total_bits
        if self.mode == MODE_FIXED:
            return int(self.registry.shape_bits()[np.asarray(self.type_of)].sum())
        # the code over the types in use, numbered in type order
        _, counts = np.unique(np.asarray(self.type_of), return_counts=True)
        book = build_huffman_codebook(dict(enumerate(counts.tolist())), len(counts))
        return int(counts @ book.lengths)

    def decode_type(self, i: int, shape_size: int) -> ShapeTable:
        """The lookup table of the i-th micro tree, whose shape has
        `shape_size` nodes: from its entropy object alone, or from its
        type's key."""
        if self.mode == MODE_ENTROPY:
            bits = self.vca.bits(i).tolist()
            return ShapeTable(*decode_body(bits[0], bits, shape_size, 1))
        zaks = self.registry.zaks_bits(self.type_of[i - 1])
        if len(zaks) != 2 * shape_size + 1:
            raise DecodeError(f"micro {i}: its type is not a {shape_size}-node shape")
        return ShapeTable.from_zaks(zaks)

    def space_bits(self) -> dict:
        """The stored payload and its start directory; none but entropy's."""
        if self.mode != MODE_ENTROPY:
            return {"payload": 0, "directory": 0}
        sp = self.vca.space_bits()
        return {"payload": sp["payload"], "directory": sp["directory"]}


_ZAKS_BATCH_BITS = 1 << 16  # key bits per `zaks_arrays` pass, which bounds its scratch memory


def _entropy_objects(registry: TypeRegistry) -> list[tuple[int, int]]:
    """(value, size) of every type's entropy payload, in type order: the
    selector bit, then the subtree-size code, or the Zaks sequence where that
    is shorter.  The shapes' arrays come from a few passes over the `TYPR`
    payload, and every code from one run of the lane coder."""
    zaks_len = registry.shape_bits()
    nodes = zaks_len >> 1
    bits = registry.zaks.all_bits()
    bit_end, node_end = np.cumsum(zaks_len), np.cumsum(nodes)
    st, ls = np.empty((2, int(nodes.sum())), dtype=np.int32)
    cut = np.flatnonzero(np.diff((bit_end - 1) // _ZAKS_BATCH_BITS, prepend=-1))
    for a, b in zip(cut.tolist(), [*cut[1:].tolist(), len(nodes)]):
        bit0, node0 = bit_end[a] - zaks_len[a], node_end[a] - nodes[a]
        part_ls, part_ld = zaks_arrays(bits[bit0:bit_end[b - 1]], zaks_len[a:b])
        st[node0:node_end[b - 1]] = subtree_sizes(part_ls, part_ld, nodes[a:b])
        ls[node0:node_end[b - 1]] = part_ls
    codes = encode_size_sequences(st, ls, nodes)
    objects = []
    for t, ((value, size), z) in enumerate(zip(codes, zaks_len.tolist())):
        selector = SELECTOR_SIZECODE
        if size > z:
            selector, (value, size) = SELECTOR_ZAKS, registry.zaks.object_bits(t + 1)
        objects.append(((selector << size) | value, size + 1))
    return objects


def encode_types(type_ids: list[int], registry: TypeRegistry, mode: str) -> TypeArray:
    """The micro-tree type sequence under the selected codec; only entropy
    encodes a payload."""
    if mode not in MODES:
        raise ValueError(f"unknown codec mode {mode}")
    if mode != MODE_ENTROPY:
        return TypeArray(mode, registry, type_ids)
    per_type = _entropy_objects(registry)
    return TypeArray(mode, registry, type_ids, VariableCellArray([per_type[t] for t in type_ids]))
