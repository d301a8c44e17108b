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
from .trees import BinaryTree, _cartesian_from_ranks, _level_type

_P = 62
_FULL = 1 << _P
_MASK = _FULL - 1
_HALF = 1 << (_P - 1)
_QUARTER = 1 << (_P - 2)
_THREE_QUARTER = _HALF + _QUARTER
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")  # binary digits -> bit values
# _LEADING[c][v]: the c bits of v, MSB first, for the few bits a symbol
# usually renormalises out
_LEADING = [[tuple((v >> j) & 1 for j in range(c - 1, -1, -1)) for v in range(1 << c)]
            for c in range(9)]

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
        """encode(s, k) for each (s, k) of zip(models, symbols), in order.

        Each symbol narrows [low, high] and then renormalises in closed form
        (the E1/E2/E3 scheme of Witten, Neal & Cleary, CACM 1987):

        * E1/E2: while low and high share their top bit, that bit is final.
          So the c = 62 - bit_length(low ^ high) leading bits they share are
          emitted, the first followed by `pending` opposite bits, and both
          ends shift left by c (high filling with ones).
        * E3: then low's top bit is 0 and high's 1.  While the bit below it
          is 1 in low and 0 in high, the range straddles the midpoint and
          that bit is dropped, deferring one opposite bit to `pending`: m
          such bits form the run from bit 60 down, ended by the first bit
          of (high | ~low).  Dropping them never makes the top bits agree,
          so no E1/E2 step follows.

        `encode_size_sequences` runs the same steps on many sequences at once.
        """
        low, high, pending = self.low, self.high, self.pending
        out = self.bits
        try:
            for s, k in zip(models, symbols):
                if not 0 <= k < s:
                    raise ValueError(f"symbol {k} outside model range 0..{s - 1}")
                if s == 1:
                    continue
                span = high - low + 1
                if s > span:  # pragma: no cover - span > 2^60 after renormalization
                    raise ValueError("model too large for coder precision")
                q, r = divmod(span, s)
                # the first r symbols get q + 1 values, the others q
                low += k * q + (k if k < r else r)
                high = low + q - (k >= r)
                if high < _HALF or low >= _HALF:  # E1/E2
                    c = _P - (low ^ high).bit_length()
                    top = low >> (_P - c)
                    digits = _LEADING[c][top] if c < len(_LEADING) else \
                        format(top, f"0{c}b").encode().translate(_DIGIT_BITS)
                    if pending:
                        out.append(digits[0])
                        out += [1 - digits[0]] * pending
                        out += digits[1:]
                        pending = 0
                    else:
                        out += digits
                    low = (low << c) & _MASK
                    high = ((high << c) & _MASK) | ((1 << c) - 1)
                if low >= _QUARTER and high < _THREE_QUARTER:  # E3
                    m = _P - 1 - ((high | ~low) & (_HALF - 1)).bit_length()
                    pending += m
                    low = (low << m) & (_HALF - 1)
                    high = ((high << m) & (_HALF - 1)) | _HALF | ((1 << m) - 1)
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


# models the lane coder takes: q = span // s >= 2^29 keeps every lane's range
# far from collapsing, and a symbol wastes < 2^-28 bits of its lg s
_LANE_MODEL_MAX = (1 << 31) - 1
_LANE_SLACK = 2.0 ** -28


def _bit_length(x: np.ndarray) -> np.ndarray:
    """int.bit_length of each entry of an int64 array of positive values:
    the frexp exponent, less one where converting to float rounded the
    value up to the next power of two."""
    e = np.frexp(x.astype(np.float64))[1].astype(np.int64)
    return e - (x < (np.int64(1) << (e - 1)))


def _emit_lanes(words, runs, at, top, count, pending) -> np.ndarray:
    """Write the `count` low bits of `top` at bit `at` of each lane's row,
    the first followed by `pending` copies of its opposite (nothing where
    count is 0), as `RangeEncoder._emit` would; return the bits written.

    The 1s that lead or follow the first bit form a run, marked +1 at its
    start and -1 past its end in `runs`; runs never overlap, so a running
    sum of the marks is 1 exactly on them.  Each mark falls in its lane's
    own row, so no index repeats within one fancy `+=`.  The other
    count - 1 bits, at most 61, are OR-ed into the big-endian 64-bit
    `words`, across at most two of them."""
    on = count > 0
    pending = pending * on
    first = (top >> np.maximum(count - 1, 0)) & on
    runs[at + 1 - first] += 1
    runs[at + 1 + pending * (1 - first)] -= 1
    rest = top & ((np.int64(1) << np.maximum(count - 1, 0)) - 1)
    at = at + 1 + pending
    over = (at & 63) + count - 1 - 64  # bits spilling into the next word
    words[at >> 6] |= (rest >> np.maximum(over, 0)) << np.maximum(-over, 0)
    words[(at >> 6) + 1] |= np.where(over > 0, rest << ((64 - over) & 63), 0)
    return count + pending


def _finish_lanes(low, high, pending) -> tuple[np.ndarray, np.ndarray]:
    """`RangeEncoder.finish` of each lane: the fewest bits kf (at least one
    while bits are pending) that name a dyadic block of 2^(62 - kf) values
    inside [low, high], as (block number, kf)."""
    kf = np.arange(_P + 1)[:, None]
    block = np.int64(1) << (_P - kf)
    c = -(-low // block)
    kf = ((c * block + block - 1 <= high) & (kf >= (pending > 0))).argmax(axis=0)
    return c[kf, np.arange(len(low))], kf


def encode_size_sequences(st, ls, counts) -> list[tuple[int, int]]:
    """The range code of each of several preorder (subtree size, left size)
    sequences laid end to end, counts[i] pairs for sequence i, as a
    (value, size) object: bit for bit `encode_size_sequence` of each, with
    all sequences coded in lockstep.

    Each sequence is a lane of int64 `low`/`high`/`pending` state; a pair
    with st = 1 codes nothing and is dropped.  The lanes are ranked by how
    many symbols they code, longest first, so at step j the lanes still
    coding are a prefix of the ranks, and the symbols are laid out step by
    step.  A step narrows each active lane's range and renormalises it in
    the closed form `RangeEncoder.encode_all` derives.  Each lane writes
    into its own row of bits, sized by the coder's bound: sum of lg s, under
    2^-28 bits of slack per symbol, and at most 62 bits of termination.
    `RangeEncoder.finish` then closes every lane at once.  Models must lie
    in 1..2^31 - 1.
    """
    st, ls = np.asarray(st), np.asarray(ls)
    counts = np.asarray(counts, dtype=np.int64)
    if st.shape != ls.shape or (counts < 0).any() or counts.sum() != len(st):
        raise ValueError("counts must split the pairs into sequences")
    bad = (ls < 0) | (ls >= st)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"symbol {ls[i]} outside model range 0..{st[i] - 1}")
    if len(st) and st.max() > _LANE_MODEL_MAX:
        raise ValueError(f"model {st.max()} too large for the lane coder")
    lanes = len(counts)
    coded = st > 1
    narrow = _level_type(int(st.max(initial=1)))
    models, symbols = st[coded].astype(narrow), ls[coded].astype(narrow)
    # pair indices are int32 (inputs hold far fewer than 2^31 pairs), which
    # halves the set-up's scratch memory
    lane = np.repeat(np.arange(lanes, dtype=np.int32), counts)[coded]
    del coded
    length = np.bincount(lane, minlength=lanes)
    lg = np.bincount(lane, weights=np.log2(models, dtype=np.float64), minlength=lanes)
    by_rank = np.argsort(-length, kind="stable")  # the lane of each rank
    rank = np.empty(lanes, dtype=np.int32)
    rank[by_rank] = np.arange(lanes)
    # active[j]: the lanes with more than j symbols, whose j-th symbols are
    # step j's, in rank order
    active = lanes - np.cumsum(np.bincount(length, minlength=1))[:-1]
    step_start = np.concatenate(([0], np.cumsum(active)))
    slot = np.arange(len(lane), dtype=np.int32)  # each symbol's step in its lane ...
    slot -= np.repeat((np.cumsum(length) - length).astype(np.int32), length)
    slot = step_start.astype(np.int32)[slot]  # ... and its place in step-major order
    slot += rank[lane]
    del lane
    models[slot], symbols[slot] = models.copy(), symbols.copy()
    del slot
    bound = np.ceil(lg[by_rank] + _LANE_SLACK * length[by_rank]).astype(np.int64) + 64
    width = 64 * ((bound + 63) // 64)
    pos = np.cumsum(width) - width  # each rank's next bit; its row starts word-aligned
    row = pos.copy()
    words = np.zeros(int(width.sum()) // 64 + 1, dtype=np.int64)
    runs = np.zeros(int(width.sum()) + 1, dtype=np.int8)
    low = np.zeros(lanes, dtype=np.int64)
    high = np.full(lanes, _MASK, dtype=np.int64)
    pending = np.zeros(lanes, dtype=np.int64)
    one = np.int64(1)
    for j, a in enumerate(active.tolist()):
        s = models[step_start[j]:step_start[j + 1]].astype(np.int64)
        k = symbols[step_start[j]:step_start[j + 1]].astype(np.int64)
        lo, hi = low[:a], high[:a]
        q, r = np.divmod(hi - lo + 1, s)
        lo = lo + k * q + np.minimum(k, r)
        hi = lo + q - (k >= r)
        c = _P - _bit_length(lo ^ hi)  # E1/E2
        pos[:a] += _emit_lanes(words, runs, pos[:a], lo >> (_P - c), c, pending[:a])
        pending[:a] *= c == 0  # flushed
        lo = (lo << c) & _MASK
        hi = ((hi << c) & _MASK) | ((one << c) - 1)
        m = _P - _bit_length((((hi | ~lo) & (_HALF - 1)) << 1) | 1)  # E3
        pending[:a] += m
        low[:a] = (lo << m) & (_HALF - 1)
        high[:a] = ((hi << m) & (_HALF - 1)) | _HALF | ((one << m) - 1)
    top, kf = _finish_lanes(low, high, pending)
    pos += _emit_lanes(words, runs, pos, top, kf, pending)
    ones = np.cumsum(runs[:-1], dtype=np.int8).view(np.uint8)
    packed = words[:-1].astype(">i8").view(np.uint8) | np.packbits(ones)
    out = [(0, 0)] * lanes
    for lane, start, end in zip(by_rank.tolist(), row.tolist(), pos.tolist()):
        size = end - start
        value = int.from_bytes(packed[start >> 3:(end + 7) >> 3].tobytes(), "big")
        out[lane] = (value >> (-size % 8), size)
    return out


def encode_left_sizes(t: BinaryTree) -> list[int]:
    """Arithmetic-coded preorder left-subtree sizes (no header)."""
    return encode_size_sequence(t.st[1:], t.ls[1:])


def _excess(bits) -> tuple[np.ndarray, np.ndarray]:
    """A stream of Zaks bits as an array of the narrowest level type, and its
    excess after each bit (+1 per 1-bit, -1 per 0-bit)."""
    b = np.asarray(bits)
    if not len(b):
        raise DecodeError("empty Zaks stream")
    if ((b != 0) & (b != 1)).any():
        raise DecodeError("Zaks stream holds a value other than 0 or 1")
    b = b.astype(_level_type(len(b)))
    return b, np.cumsum(2 * b - 1, dtype=b.dtype)


def zaks_excess(bits) -> tuple[np.ndarray, np.ndarray]:
    """`_excess` of one complete Zaks sequence: the excess stays at or above
    0 until the last bit takes it to -1."""
    b, after = _excess(bits)
    if after[-1] != -1 or after[:-1].min(initial=0) < 0:
        raise DecodeError("not a single complete Zaks sequence")
    return b, after


def zaks_arrays(bits, sizes=None) -> tuple[np.ndarray, np.ndarray]:
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

    With `sizes`, `bits` holds one Zaks sequence of each size end to end,
    and the arrays are those of every sequence, concatenated.  Levels then
    count from each sequence's own start.  Sorted stably by them, the final
    0s of all m sequences come first, and each level's bits are every
    sequence's (1, close) pairs of that level in turn, which still
    alternate.  A 1-bit's node is numbered by the 1s before it in the whole
    stream.
    """
    if sizes is None:
        b, after = zaks_excess(bits)
        order, local = np.argsort(after - b, kind="stable")[1:], after
    else:
        b, after = _excess(bits)
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.min(initial=1) < 1 or sizes.sum() != len(b):
            raise ValueError(f"sizes do not split {len(b)} bits into Zaks sequences")
        # a sequence's excess from its own start, if all before it are whole
        seq = np.repeat(np.arange(len(sizes), dtype=b.dtype), sizes)
        local = after + seq
        if (local[np.cumsum(sizes) - 1] != -1).any() or np.count_nonzero(local < 0) != len(sizes):
            raise DecodeError("not one complete Zaks sequence per size")
        level = (local - b).astype(_level_type(int(sizes.max())))
        order = np.argsort(level, kind="stable")[len(sizes):]
    ones, closes = order[0::2], order[1::2]
    depth = local[ones] - 1
    # a sequence's excess starts one below its predecessor's
    node = (ones + (depth if sizes is None else depth - seq[ones])) >> 1
    ls = np.empty(len(ones), dtype=np.int64)
    ld = np.empty(len(ones), dtype=np.int64)
    ls[node] = (closes - ones - 1) >> 1
    ld[node] = depth
    return ls, ld


def subtree_sizes(ls: np.ndarray, ld: np.ndarray, counts=None) -> np.ndarray:
    """Preorder subtree sizes (int64) from preorder left sizes and left depths.

    Node v's right child, if any, is node v + ls[v] + 1, at v's left depth;
    the nodes between them are v's left subtree, all deeper.  So, sorted
    stably by left depth, each right spine (a node, its right child, that
    child's right child, ...) is a run, and a node's subtree ends where the
    left subtree of its spine's last node ends.

    With `counts`, the arrays hold trees of those node counts end to end (as
    `zaks_arrays` returns them).  Sorted by left depth, a level's nodes are
    each tree's in turn, and a spine also ends where a left subtree ends a
    tree, as the next node is then another tree's."""
    n = len(ls)
    counts = np.array([n]) if counts is None else np.asarray(counts, dtype=np.int64)
    order = np.argsort(ld.astype(_level_type(int(counts.max(initial=0)))), kind="stable")
    after = order + ls[order] + 1  # preorder just past each node's left subtree
    tree_start = np.zeros(n + 1, dtype=bool)
    tree_start[np.cumsum(counts)] = True
    ends = np.flatnonzero(np.append((after[:-1] != order[1:]) | tree_start[after[:-1]], True))
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
