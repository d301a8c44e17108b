"""Whole-tree codes: subtree-size arithmetic code, Zaks sequence, hybrid envelope.

The subtree-size code writes each node's left-subtree size in preorder under a
uniform model on [0..st(v)-1]; a 62-bit integer range coder keeps the payload
within 2 bits (plus termination) of the information content.  The hybrid code
prefixes a node-count header and a selector bit and stores whichever of the
subtree-size or Zaks encodings is shorter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .serial import DecodeError, bits_to_bytes, bytes_to_bits, decode_varint, encode_varint
from .trees import BinaryTree, _cartesian_from_ranks

_P = 62
_FULL = 1 << _P
_MASK = _FULL - 1
_HALF = 1 << (_P - 1)
_QUARTER = 1 << (_P - 2)
_THREE_QUARTER = _HALF + _QUARTER

SELECTOR_SIZECODE = 0
SELECTOR_ZAKS = 1


class RangeEncoder:
    """Integer range coder for uniform symbols: encode(s, k) with 0 <= k < s.

    The current range splits into s integer parts, remainder spread over the
    low symbols, so encode/decode are exact inverses and the emitted length is
    at most sum(lg s) + 2 bits plus negligible subdivision loss.
    """

    def __init__(self):
        self.low = 0
        self.high = _MASK
        self.pending = 0
        self.bits: list[int] = []

    def _emit(self, b: int) -> None:
        self.bits.append(b)
        if self.pending:
            inv = 1 - b
            self.bits.extend([inv] * self.pending)
            self.pending = 0

    def encode(self, s: int, k: int) -> None:
        self.encode_all((s,), (k,))

    def encode_all(self, models, symbols) -> None:
        """encode(s, k) for each (s, k) of zip(models, symbols), in order."""
        low, high, pending = self.low, self.high, self.pending
        out = self.bits
        try:
            for s, k in zip(models, symbols):
                if not 0 <= k < s:
                    raise ValueError(f"symbol {k} outside model range 0..{s - 1}")
                if s == 1:
                    continue
                span = high - low + 1
                if s > span:  # pragma: no cover - span >= 2^60 after renormalization
                    raise ValueError("model too large for coder precision")
                q, r = divmod(span, s)
                if k < r:
                    low += k * (q + 1)
                    high = low + q
                else:
                    low += r * (q + 1) + (k - r) * q
                    high = low + q - 1
                while True:
                    if high < _HALF:
                        out.append(0)
                        if pending:
                            out.extend([1] * pending)
                            pending = 0
                    elif low >= _HALF:
                        out.append(1)
                        if pending:
                            out.extend([0] * pending)
                            pending = 0
                        low -= _HALF
                        high -= _HALF
                    elif low >= _QUARTER and high < _THREE_QUARTER:
                        pending += 1
                        low -= _QUARTER
                        high -= _QUARTER
                    else:
                        break
                    low <<= 1
                    high = (high << 1) | 1
        finally:  # a rejected symbol leaves the state of the symbols before it
            self.low, self.high, self.pending = low, high, pending

    def finish(self) -> list[int]:
        """Emit the shortest dyadic disambiguation and return all bits."""
        start = 0 if self.pending == 0 else 1
        for kf in range(start, _P + 1):
            block = 1 << (_P - kf)
            c = -(-self.low // block)
            if c * block + block - 1 <= self.high:
                for j in range(kf - 1, -1, -1):
                    self._emit((c >> j) & 1)
                return self.bits
        raise AssertionError("unreachable: unit blocks always fit")


class RangeDecoder:
    """Inverse of RangeEncoder; reads zero bits past the end of the stream."""

    def __init__(self, bits, pos: int = 0):
        self._bits = bits
        self._pos = pos
        self.low = 0
        self.high = _MASK
        code = 0
        for _ in range(_P):
            code = (code << 1) | self._read_bit()
        self.code = code

    def _read_bit(self) -> int:
        b = self._bits[self._pos] if self._pos < len(self._bits) else 0
        self._pos += 1
        return b

    def decode(self, s: int) -> int:
        if s == 1:
            return 0
        low, high, code = self.low, self.high, self.code
        span = high - low + 1
        q, r = divmod(span, s)
        d = code - low
        split = r * (q + 1)
        if d < split:
            k = d // (q + 1)
            off = k * (q + 1)
            width = q + 1
        else:
            k = r + (d - split) // q
            off = split + (k - r) * q
            width = q
        low += off
        high = low + width - 1
        while True:
            if high < _HALF:
                pass
            elif low >= _HALF:
                low -= _HALF
                high -= _HALF
                code -= _HALF
            elif low >= _QUARTER and high < _THREE_QUARTER:
                low -= _QUARTER
                high -= _QUARTER
                code -= _QUARTER
            else:
                break
            low <<= 1
            high = (high << 1) | 1
            code = (code << 1) | self._read_bit()
        self.low, self.high, self.code = low, high, code
        return k


def encode_count(n: int) -> list[int]:
    """Prefix-free node-count header within 2*ceil(lg n) bits for n >= 2.

    n >= 3 is the Elias-gamma code of n-1; n in {0, 1, 2} escapes with a
    leading 1 plus two plain bits (gamma(n-1) is undefined or ambiguous
    there).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n <= 2:
        return [1, (n >> 1) & 1, n & 1]
    m = n - 1
    u = m.bit_length() - 1
    bits = [0] * u + [1]
    for j in range(u - 1, -1, -1):
        bits.append((m >> j) & 1)
    return bits


def decode_count(bits, pos: int = 0) -> tuple[int, int]:
    """Return (n, next_pos)."""
    if pos >= len(bits):
        raise DecodeError("empty count header")
    if bits[pos]:
        if pos + 3 > len(bits):
            raise DecodeError("truncated count header")
        return (bits[pos + 1] << 1) | bits[pos + 2], pos + 3
    u = 0
    while pos < len(bits) and bits[pos] == 0:
        u += 1
        pos += 1
    if pos >= len(bits):
        raise DecodeError("truncated count header")
    pos += 1  # the marker 1
    if pos + u > len(bits):
        raise DecodeError("truncated count header")
    m = 1 << u
    for j in range(u):
        m |= bits[pos + j] << (u - 1 - j)
    return m + 1, pos + u


def encode_zaks(t: BinaryTree) -> list[int]:
    """Raw Zaks sequence of the tree (no header): in preorder, 1 per node and
    0 per empty child; length 2n+1.  The excess before node v is its left
    depth ld(v) (see `zaks_arrays`), so v - 1 ones and v - 1 - ld(v) zeros
    come before v's 1."""
    pre = np.arange(t.n)
    ls = np.frombuffer(t.ls, dtype=np.intc)[1:]
    ld = pre + 1 + ls - np.frombuffer(t.inorder_of, dtype=np.intc)[1:]
    bits = np.zeros(2 * t.n + 1, dtype=np.int64)
    bits[2 * pre - ld] = 1
    return bits.tolist()


def zaks_decode(bits, pos: int = 0) -> tuple[np.ndarray, np.ndarray, int]:
    """Preorder left-subtree sizes and left depths of the one Zaks sequence
    that starts at bits[pos] (see `zaks_arrays`), and the position after it.
    The sequence ends where its excess first drops below zero."""
    rest = np.asarray(bits[pos:])
    one = (rest == 1).astype(_level_type(len(rest)))
    below = np.flatnonzero(np.cumsum(2 * one - 1, dtype=one.dtype) < 0)
    if not len(below):
        raise DecodeError("empty or truncated Zaks stream")
    end = int(below[0]) + 1
    ls, ld = zaks_arrays(rest[:end])
    return ls, ld, pos + end


def encode_size_sequence(st, ls) -> list[int]:
    """Arithmetic-code a preorder sequence of (subtree size, left size) pairs."""
    enc = RangeEncoder()
    enc.encode_all(st, ls)
    return enc.finish()


def encode_left_sizes(t: BinaryTree) -> list[int]:
    """Arithmetic-coded preorder left-subtree sizes (no header)."""
    return encode_size_sequence(t.st[1:], t.ls[1:])


def _level_type(length: int):
    """The narrowest signed integer type that holds every excess of a
    `length`-bit sequence.  A micro shape's key fits 16 bits, where numpy's
    stable sort is a radix sort."""
    if length <= np.iinfo(np.int16).max:
        return np.int16
    return np.int32 if length <= np.iinfo(np.int32).max else np.int64


def zaks_arrays(bits) -> tuple[np.ndarray, np.ndarray]:
    """Preorder left-subtree sizes and left depths (int64 arrays) of the tree
    whose Zaks sequence is `bits`, without building it, in one stable sort of
    16-bit levels (32-bit past 32767 bits).

    With excess +1 per 1-bit and -1 per 0-bit, give each 1-bit the level
    "excess before it" and each 0-bit the level "excess after it".  A node's
    1 at level L is followed by its balanced left subtree, whose last bit is
    a 0 back at level L, and then by its right subtree, which starts at level
    L: a 1 if it is a node, else a 0 at level L - 1.  So, sorted stably by
    level, the bits of each level alternate between a node's 1 at p and the
    0 at q that closes its left subtree, and the final 0 alone has level -1.
    The node then has (q - p - 1) / 2 left descendants, its excess before p
    counts the left edges above it, and p is preceded by as many 1s as there
    are nodes before it in preorder.
    """
    b = np.asarray(bits)
    if not len(b):
        raise DecodeError("empty Zaks stream")
    if ((b != 0) & (b != 1)).any():
        raise DecodeError("Zaks stream holds a value other than 0 or 1")
    b = b.astype(_level_type(len(b)))
    after = np.cumsum(2 * b - 1, dtype=b.dtype)
    if after[-1] != -1 or after[:-1].min(initial=0) < 0:
        raise DecodeError("not a single complete Zaks sequence")
    order = np.argsort(after - b, kind="stable")
    ones, closes = order[1::2], order[2::2]
    depth = after[ones] - 1
    node = (ones + depth) >> 1
    ls = np.empty(len(ones), dtype=np.int64)
    ld = np.empty(len(ones), dtype=np.int64)
    ls[node] = (closes - ones - 1) >> 1
    ld[node] = depth
    return ls, ld


def subtree_sizes(ls: np.ndarray, ld: np.ndarray) -> np.ndarray:
    """Preorder subtree sizes (int64) from preorder left sizes and left depths.

    Node v's right child, if any, is node v + ls[v] + 1, at v's left depth;
    the nodes between them are v's left subtree, all deeper.  So, sorted
    stably by left depth, each right spine (a node, its right child, that
    child's right child, ...) is a run, and a node's subtree ends where the
    left subtree of its spine's last node ends."""
    n = len(ls)
    order = np.argsort(ld.astype(_level_type(n)), kind="stable")
    after = order + ls[order] + 1  # preorder just past each node's left subtree
    ends = np.flatnonzero(np.append(after[:-1] != order[1:], True))  # spines' last nodes
    st = np.empty(n, dtype=np.int64)
    st[order] = np.repeat(after[ends], np.diff(ends, prepend=-1)) - order
    return st


def decode_left_sizes(n: int, bits, pos: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Preorder left-subtree sizes and left depths (int64 arrays) of the
    n-node tree whose subtree-size code starts at bits[pos].  Any bits decode
    to some tree, as the range decoder always yields a symbol of its model,
    but L bits code at most 2L + 5 nodes: a larger n is a DecodeError.

    That bound: at least (n - 1) / 2 nodes have a non-empty subtree below
    them, and each such node decodes a symbol of >= 2 values, which halves
    the coder's range up to a 2^-58 relative slack.  The range starts at
    2^62 and is renormalised above 2^60 by doublings, one per bit read past
    the first 62, and the encoder writes one bit per doubling.  So I such
    nodes need at least I - 2 bits, and n <= 2I + 1 <= 2L + 5."""
    if n > 2 * (len(bits) - pos) + 5:
        raise DecodeError(f"{len(bits) - pos} bits cannot code a {n}-node tree")
    decode = RangeDecoder(bits, pos).decode
    ls, ld = [], []
    stack = [(n, 0)] if n else []  # (subtree size, left depth) in preorder
    while stack:
        size, depth = stack.pop()
        left = decode(size)
        ls.append(left)
        ld.append(depth)
        if left + 1 < size:
            stack.append((size - 1 - left, depth))
        if left:
            stack.append((left, depth + 1))
    return np.array(ls, dtype=np.int64), np.array(ld, dtype=np.int64)


def encode_body(st, ls, zaks: list[int]) -> tuple[int, list[int]]:
    """(selector, body) for the shape with preorder subtree sizes `st`, left
    sizes `ls` and Zaks sequence `zaks`: the subtree-size code unless the
    Zaks code (2n + 1 bits) is shorter."""
    a = encode_size_sequence(st, ls)
    if len(a) <= len(zaks):
        return SELECTOR_SIZECODE, a
    return SELECTOR_ZAKS, zaks


def decode_body(selector: int, bits, n: int, pos: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Preorder left sizes and left depths of the n-node shape whose body
    starts at bits[pos]."""
    if selector == SELECTOR_ZAKS:
        ls, ld, _ = zaks_decode(bits, pos)
        if len(ls) != n:
            raise DecodeError(f"Zaks body decodes to {len(ls)} nodes, expected {n}")
        return ls, ld
    if selector == SELECTOR_SIZECODE:
        return decode_left_sizes(n, bits, pos)
    raise DecodeError(f"unknown selector {selector}")


@dataclass
class TreeCode:
    """A serialized tree: count header, selector bit, and chosen body."""

    n: int
    selector: int | None
    bits: list[int]
    header_len: int
    body_len: int

    @property
    def bit_len(self) -> int:
        return len(self.bits)

    @property
    def payload_bits(self) -> int:
        return self.body_len

    def to_bytes(self) -> bytes:
        payload = bits_to_bytes(self.bits)
        return encode_varint(len(payload)) + payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "TreeCode":
        nbytes, pos = decode_varint(data)
        if pos + nbytes > len(data):
            raise DecodeError("truncated tree code")
        if pos + nbytes < len(data):
            raise DecodeError(f"{len(data) - pos - nbytes} stray bytes after the tree code")
        bits = bytes_to_bits(data[pos : pos + nbytes], nbytes * 8)
        n, hdr = decode_count(bits)
        selector = None
        body_len = len(bits) - hdr
        if n > 0:
            if hdr >= len(bits):
                raise DecodeError("missing selector bit")
            selector = bits[hdr]
            body_len = len(bits) - hdr - 1
        return cls(n=n, selector=selector, bits=bits, header_len=hdr, body_len=body_len)


def encode_hybrid(t: BinaryTree) -> TreeCode:
    """Header + selector + the shorter of {subtree-size code, Zaks code}."""
    header = encode_count(t.n)
    if t.n == 0:
        return TreeCode(n=0, selector=None, bits=header, header_len=len(header), body_len=0)
    sel, body = encode_body(t.st[1:], t.ls[1:], encode_zaks(t))
    return TreeCode(
        n=t.n,
        selector=sel,
        bits=header + [sel] + body,
        header_len=len(header),
        body_len=len(body),
    )


def encode_subtree_size(t: BinaryTree) -> TreeCode:
    """Header + the subtree-size body, regardless of its length."""
    if t.n < 1:
        raise ValueError("encode_subtree_size requires n >= 1")
    header = encode_count(t.n)
    body = encode_left_sizes(t)
    return TreeCode(
        n=t.n,
        selector=SELECTOR_SIZECODE,
        bits=header + [SELECTOR_SIZECODE] + body,
        header_len=len(header),
        body_len=len(body),
    )


def decode_tree(code) -> BinaryTree:
    """Inverse of encode_hybrid / encode_subtree_size."""
    bits = code.bits if isinstance(code, TreeCode) else list(code)
    n, pos = decode_count(bits)
    if n == 0:
        return BinaryTree()
    if pos >= len(bits):
        raise DecodeError("missing selector bit")
    ls, ld = decode_body(bits[pos], bits, n, pos + 1)
    # node v (0-based preorder) sits at inorder position v + ls - ld, and the
    # tree is the Cartesian tree of its inorder -> preorder sequence
    in2pre = np.empty(n, dtype=np.int64)
    in2pre[np.arange(n) + ls - ld] = np.arange(n)
    return _cartesian_from_ranks(in2pre.tolist())
