"""Micro-tree type encodings and the shared lookup-table machinery.

A micro tree's *type* is the canonical Zaks sequence of its shape (portal
leaves included) plus two flag bits marking whether any portal hangs off a
left resp. right child edge.  Types index per-shape lookup tables that answer
micro-local queries in constant time.  Three payload encodings are supported:

* fixed:    flags + raw Zaks sequence (2s+3 bits for an s-node shape)
* entropy:  flags + selector + the shorter of {subtree-size code, Zaks};
            the node count is *not* stored (the per-micro index knows it),
            which keeps the per-shape cost within sum(lg st(v)) + O(1)
* huffman:  a canonical, length-limited Huffman codeword per distinct type
"""

from __future__ import annotations

import heapq
import struct
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import opcount
from .bits import VariableCellArray, pack_column, read_column
from .serial import DecodeError, Reader, bits_to_bytes
from .treecode import (SELECTOR_SIZECODE, SELECTOR_ZAKS, decode_body, encode_size_sequence,
                       zaks_arrays, zaks_decode, zaks_sizes)
from .trees import _int_array

MODE_FIXED = "fixed"
MODE_ENTROPY = "entropy"
MODE_HUFFMAN = "huffman"
MODES = (MODE_FIXED, MODE_ENTROPY, MODE_HUFFMAN)

HUFFMAN_LENGTH_LIMIT = 128  # two machine words


def micro_type_key(zaks: list[int], flag_left: int, flag_right: int) -> tuple:
    """Canonical dictionary key: equal shapes and flags give equal keys."""
    return (bits_to_bytes(zaks), len(zaks), flag_left, flag_right)


class ShapeTable:
    """Per-type lookup tables addressed by shape-local preorder: inorder <->
    preorder, left sizes and in-micro LCA.

    All arrays are 1-based (slot 0 unused).  Left depths are not held: since
    inorder = preorder + left size - left depth, node v's left depth is
    v + ls[v] - pre2in[v].  The LCA of two nodes is the node of smallest
    preorder in the inorder range between them: every node of that range
    lies in the LCA's subtree, and the LCA comes first in it.  The inorder
    sequence of preorder ids is cut into BLOCK-entry blocks whose minima
    carry a sparse table, so a query scans at most two partial blocks and
    its operation count is bounded independently of the shape size.
    """

    BLOCK = 32

    __slots__ = ("n", "in2pre", "pre2in", "ls", "_sparse")

    def __init__(self, ls: np.ndarray, ld: np.ndarray):
        """ls, ld: left-subtree sizes and left depths in preorder."""
        n = len(ls)
        if n == 0:
            raise DecodeError("an empty shape has no lookup table")
        pre = np.arange(1, n + 1)
        pre2in = pre + ls - ld
        padded = np.full(-(-(n + 1) // self.BLOCK) * self.BLOCK, n + 1, dtype=np.int64)
        padded[pre2in] = pre  # slot 0 and the tail keep n + 1, above every id
        level = padded.reshape(-1, self.BLOCK).min(axis=1)
        sparse = [_int_array(level)]
        span = 1
        while 2 * span <= len(sparse[0]):
            level = np.minimum(level[:-span], level[span:])
            sparse.append(_int_array(level))
            span *= 2
        padded[0] = 0
        self.n = n
        self.in2pre = _int_array(padded[:n + 1])
        self.pre2in = _int_array(np.concatenate(([0], pre2in)))
        self.ls = _int_array(np.concatenate(([0], ls)))
        self._sparse = sparse

    @classmethod
    def from_zaks(cls, bits) -> "ShapeTable":
        _, ls, ld = zaks_arrays(bits)
        return cls(ls, ld)

    def lca(self, a: int, b: int) -> int:
        ia, ib = self.pre2in[a], self.pre2in[b]
        if ia > ib:
            ia, ib = ib, ia
        seq = self.in2pre
        block = self.BLOCK
        ba, bb = ia // block, ib // block
        if ba == bb:
            opcount.add(ib - ia + 2)
            return min(seq[ia:ib + 1])
        best = min(min(seq[ia:(ba + 1) * block]), min(seq[bb * block:ib + 1]))
        if bb > ba + 1:
            k = (bb - ba - 1).bit_length() - 1
            level = self._sparse[k]
            best = min(best, level[ba + 1], level[bb - (1 << k)])
            opcount.add(2 * block + 6)
        else:
            opcount.add(2 * block + 2)
        return best

    def space_bits(self) -> int:
        """Designed table footprint (reported, not asserted): the three
        per-node arrays plus the block minima and their sparse table."""
        w = self.n.bit_length()
        return w * (3 * (self.n + 1) + sum(len(level) for level in self._sparse))


class TypeRegistry:
    """Interned micro-tree types with lazily built lookup tables.

    The types are held as columns: a header per type, ``nbits << 2 |
    flag_left << 1 | flag_right`` (nbits = Zaks bit length of the shape), and
    one blob of every type's key bytes (ceil(nbits / 8) each) in type order.
    """

    def __init__(self):
        self._head = array("q")
        self._start = array("q", [0])  # type t's key is _blob[_start[t]:_start[t + 1]]
        self._blob = bytearray()
        self._index: dict[tuple, int] | None = {}  # canonical key -> type id
        # built tables by type id; the query path reads it before `table`
        self.tables: dict[int, ShapeTable] = {}

    def intern(self, zaks: list[int], flag_left: int, flag_right: int) -> int:
        return self.intern_key(micro_type_key(zaks, flag_left, flag_right))

    def intern_key(self, key: tuple) -> int:
        """Type id of a canonical key (see `micro_type_key`), added if new."""
        if self._index is None:  # a loaded registry keeps no key dictionary
            self._index = {self.key(t): t for t in range(len(self))}
        idx = self._index.get(key)
        if idx is None:
            data, nbits, fl, fr = key
            if len(data) != (nbits + 7) // 8:
                raise ValueError("key bytes must hold exactly the shape's bits")
            idx = len(self._head)
            self._head.append(nbits << 2 | fl << 1 | fr)
            self._blob += data
            self._start.append(len(self._blob))
            self._index[key] = idx
        return idx

    def __len__(self) -> int:
        return len(self._head)

    def key(self, type_id: int) -> tuple:
        """The canonical key (key bytes, nbits, flag_left, flag_right)."""
        h = self._head[type_id]
        data = bytes(self._blob[self._start[type_id]:self._start[type_id + 1]])
        return data, h >> 2, h >> 1 & 1, h & 1

    @property
    def keys(self) -> list[tuple]:
        return [self.key(t) for t in range(len(self))]

    def shape_bits(self) -> np.ndarray:
        """The Zaks bit length (2s + 1 for an s-node shape) of every type."""
        return np.asarray(self._head, dtype=np.int64) >> 2

    def _key_bits(self, type_id: int) -> np.ndarray:
        start, end = self._start[type_id], self._start[type_id + 1]
        data = np.frombuffer(self._blob[start:end], dtype=np.uint8)
        return np.unpackbits(data, count=self._head[type_id] >> 2)

    def zaks_bits(self, type_id: int) -> list[int]:
        return self._key_bits(type_id).tolist()

    def flags(self, type_id: int) -> tuple[int, int]:
        h = self._head[type_id]
        return h >> 1 & 1, h & 1

    def table(self, type_id: int) -> ShapeTable:
        """The type's lookup table, built on first use.  A table is complete
        before it enters the cache, so concurrent readers at worst build the
        same table twice."""
        tbl = self.tables.get(type_id)
        if tbl is None:
            tbl = ShapeTable.from_zaks(self._key_bits(type_id))
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
        return pack_column(self._head) + bytes(self._blob)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "TypeRegistry":
        r = Reader(blob, "TYPR")
        head = read_column(r)
        key_bytes = ((head >> 2) + 7) // 8
        left = len(blob) - r.pos
        if (key_bytes > left).any():
            raise DecodeError("truncated TYPR section")
        start = np.zeros(len(head) + 1, dtype=np.int64)
        np.cumsum(key_bytes, out=start[1:])
        reg = cls()
        reg._blob = r.raw(int(start[-1]))
        r.end()
        reg._head = array("q", head.tobytes())
        reg._start = array("q", start.tobytes())
        reg._index = None
        return reg


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


def _canonical_codes(lengths: dict[int, int], registry: TypeRegistry) -> dict[int, tuple[int, int]]:
    """Assign canonical codes ordered by (length, canonical key)."""
    symbols = sorted(lengths, key=lambda s: (lengths[s], registry.key(s)))
    codes = {}
    code = 0
    prev_len = 0
    for s in symbols:
        code <<= lengths[s] - prev_len
        prev_len = lengths[s]
        codes[s] = (code, lengths[s])
        code += 1
    return codes


@dataclass
class Codebook:
    """Prefix-free code over micro-tree types."""

    mode: str
    codes: dict[int, tuple[int, int]] = field(default_factory=dict)  # type_id -> (code, len)
    _decode: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        self._decode = {cl: s for s, cl in self.codes.items()}

    def length(self, type_id: int) -> int:
        return self.codes[type_id][1]

    def kraft_sum(self) -> float:
        return sum(2.0 ** -l for _, l in self.codes.values())

    def encode_bits(self, type_id: int) -> list[int]:
        code, length = self.codes[type_id]
        return [(code >> (length - 1 - j)) & 1 for j in range(length)]

    def decode_prefix(self, bits, pos: int = 0) -> tuple[int, int]:
        """Return (type_id, next_pos)."""
        code = 0
        length = 0
        while length < HUFFMAN_LENGTH_LIMIT and pos + length < len(bits):
            code = (code << 1) | bits[pos + length]
            length += 1
            sym = self._decode.get((code, length))
            if sym is not None:
                return sym, pos + length
        raise DecodeError("invalid Huffman prefix")

    def serialized_bits(self) -> int:
        return len(self.to_bytes()) * 8

    def to_bytes(self) -> bytes:
        out = bytearray(struct.pack("<I", len(self.codes)))
        for type_id in sorted(self.codes):
            _, length = self.codes[type_id]
            out += struct.pack("<IH", type_id, length)
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes, registry: TypeRegistry) -> "Codebook":
        r = Reader(blob, "HUFF")
        lengths = dict(r.take("<IH") for _ in range(r.count("<I", 6)))
        r.end()
        if any(t >= len(registry) for t in lengths):
            raise DecodeError("HUFF names a type the registry does not hold")
        return cls(mode=MODE_HUFFMAN, codes=_canonical_codes(lengths, registry))


def build_huffman_codebook(type_counts: dict[int, int], registry: TypeRegistry,
                           limit: int = HUFFMAN_LENGTH_LIMIT) -> Codebook:
    """Length-limited Huffman code over empirical type frequencies with
    deterministic tie-breaking (frequency, then canonical key)."""
    if not type_counts:
        raise ValueError("huffman codebook needs at least one micro tree")
    symbols = sorted(type_counts, key=lambda s: (type_counts[s], registry.key(s)))
    weights = [type_counts[s] for s in symbols]
    lens = _huffman_lengths(weights)
    if max(lens) > limit:
        lens = _package_merge_lengths(weights, limit)
    lengths = {s: l for s, l in zip(symbols, lens)}
    return Codebook(mode=MODE_HUFFMAN, codes=_canonical_codes(lengths, registry))


class TypeArray:
    """Encoded micro-tree types in micro-tree order, in a variable-cell array.

    `vca` is the array or its serialized stream; a stream, which no query
    reads, is parsed on first use."""

    def __init__(self, mode: str, vca: VariableCellArray | bytes, registry: TypeRegistry,
                 codebook: Codebook | None = None):
        self.mode = mode
        self._vca = vca
        self.registry = registry
        self.codebook = codebook

    @property
    def vca(self) -> VariableCellArray:
        if isinstance(self._vca, bytes):
            self._vca = VariableCellArray.from_bytes(self._vca)
        return self._vca

    def to_bytes(self) -> bytes:
        return self._vca if isinstance(self._vca, bytes) else self._vca.to_bytes()

    def total_payload_bits(self) -> int:
        return self.vca.total_bits

    def type_bits(self, i: int) -> list[int]:
        value, size = self.vca.object_bits(i)
        return [(value >> (size - 1 - j)) & 1 for j in range(size)]

    def decode_type(self, i: int, shape_size: int | None = None):
        """Reconstruct (tree, flag_left, flag_right) for the i-th micro tree."""
        bits = self.type_bits(i)
        if self.mode == MODE_FIXED:
            tree, _ = zaks_decode(bits, 2)
            return tree, bits[0], bits[1]
        if self.mode == MODE_ENTROPY:
            if shape_size is None:
                raise ValueError("entropy mode needs the shape size")
            selector = bits[2]
            tree = decode_body(selector, bits, shape_size, 3)
            return tree, bits[0], bits[1]
        if self.mode == MODE_HUFFMAN:
            type_id, _ = self.codebook.decode_prefix(bits)
            tree, _ = zaks_decode(self.registry.zaks_bits(type_id))
            fl, fr = self.registry.flags(type_id)
            return tree, fl, fr
        raise ValueError(f"unknown mode {self.mode}")

    def space_bits(self) -> dict:
        sp = self.vca.space_bits()
        return {"payload": sp["payload"], "directory": sp["directory"]}


_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _bits_to_object(bits: list[int]) -> tuple[int, int]:
    """(value, size) of a 0/1 list read MSB-first."""
    return (int(bytes(bits).translate(_BIT_CHARS), 2) if bits else 0), len(bits)


def _encode_type(registry: TypeRegistry, type_id: int, mode: str,
                 codebook: Codebook | None) -> tuple[int, int]:
    """(value, size) of one type's payload, read off its canonical key."""
    if mode == MODE_HUFFMAN:
        return codebook.codes[type_id]
    data, nbits, fl, fr = registry.key(type_id)
    zaks = int.from_bytes(data, "big") >> (8 * len(data) - nbits)
    if mode == MODE_FIXED:
        return (((fl << 1) | fr) << nbits) | zaks, nbits + 2
    # entropy: the size code unless the Zaks code is shorter (as in encode_body)
    st, ls = zaks_sizes(registry._key_bits(type_id))
    code = encode_size_sequence(st, ls)
    if len(code) <= nbits:
        body, size, selector = _bits_to_object(code)[0], len(code), SELECTOR_SIZECODE
    else:
        body, size, selector = zaks, nbits, SELECTOR_ZAKS
    return (((fl << 2) | (fr << 1) | selector) << size) | body, size + 3


def encode_types(type_ids: list[int], registry: TypeRegistry, mode: str,
                 codebook: Codebook | None = None) -> TypeArray:
    """Encode the micro-tree type sequence under the selected codec."""
    if mode not in MODES:
        raise ValueError(f"unknown codec mode {mode}")
    if mode == MODE_HUFFMAN and codebook is None:
        counts: dict[int, int] = {}
        for t in type_ids:
            counts[t] = counts.get(t, 0) + 1
        codebook = build_huffman_codebook(counts, registry)
    per_type: dict[int, tuple[int, int]] = {}
    objects = []
    for t in type_ids:
        obj = per_type.get(t)
        if obj is None:
            obj = per_type[t] = _encode_type(registry, t, mode, codebook)
        objects.append(obj)
    vca = VariableCellArray(objects)
    return TypeArray(mode, vca, registry, codebook)
