"""Bit vectors with rank/select, variable-cell arrays, piecewise-constant arrays
and fixed-width packed integer columns.

Logical indices are 1-based throughout; raw bit offsets inside payloads are
0-based.  rank(alpha, i) accepts i = 0 and returns 0.

Space accounting (``space_bits``) reports the designed bit widths of each
array, not CPython object sizes; directory entries that hold machine words
are counted at 64 bits.
"""

from __future__ import annotations

import struct
import sys
from array import array
from bisect import bisect_left, bisect_right

import numpy as np

from . import opcount
from .serial import DecodeError, Reader

_WORD = 64
_SUPER_WORDS = 8  # 512-bit superblocks for the plain rank directory
_SPARSE_BLOCK_SHIFT = 9  # 512-bit blocks for the sparse rank directory


def _bitlen(x: int) -> int:
    return max(1, int(x).bit_length())


# ---------------------------------------------------------------------------
# fixed-width packed integer columns (int_vector<w> of Gog et al., SEA 2014)
# ---------------------------------------------------------------------------

def column_width(values) -> int:
    """Bits per entry of a packed column: max(1, ceil(lg(max + 1)))."""
    return _bitlen(np.max(values)) if len(values) else 1


def pack_column(values) -> bytes:
    """count (u32) | width w (u8) | entry i in bits [i*w, (i+1)*w) of an
    LSB-first bit string (bit j is bit j mod 8 of byte j div 8), zero-padded
    to a whole byte.  Entries must lie in 0 .. 2^63 - 1."""
    v = np.asarray(values, dtype=np.int64).ravel()
    if len(v) and v.min() < 0:
        raise ValueError("packed columns hold non-negative integers")
    w = column_width(v)
    as_bytes = v.astype("<u8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(as_bytes, axis=1, count=w, bitorder="little")
    return struct.pack("<IB", len(v), w) + np.packbits(bits, bitorder="little").tobytes()


def read_column(r: Reader) -> np.ndarray:
    """The next `pack_column` column of a section, as int64; a width outside
    1..63, a count that overruns the section or nonzero padding is a
    DecodeError."""
    count, w = r.take("<IB")
    if not 1 <= w <= 63:
        raise DecodeError(f"{r.what} column width {w} out of range 1..63")
    nbits = count * w
    if (nbits + 7) // 8 > len(r.blob) - r.pos:
        raise DecodeError(f"{r.what} count {count} exceeds its section")
    raw = r.raw((nbits + 7) // 8)
    if nbits & 7 and raw[-1] >> (nbits & 7):
        raise DecodeError(f"nonzero padding after a {r.what} column")
    # entry 8q + j starts at byte q*w + (j*w div 8), bit j*w mod 8: row q of a
    # (rows, w) view of unaligned 64-bit windows at byte q*w + b holds all
    # eight, and the ninth byte completes an entry that straddles its window
    rows = -(-count // 8)
    buf = np.zeros(rows * w + 9, dtype=np.uint8)
    buf[:len(raw)] = np.frombuffer(raw, dtype=np.uint8)
    at = np.arange(0, 8 * w, w)
    byte, shift = at >> 3, (at & 7).astype(np.uint64)
    out = np.ndarray((rows, w), dtype="<u8", buffer=buf, strides=(w, 1))[:, byte] >> shift
    if w > 57:
        top = np.ndarray((rows, w + 8), dtype=np.uint8, buffer=buf, strides=(w, 1))[:, byte + 8]
        out |= top.astype(np.uint64) << np.uint64(1) << (np.uint64(63) - shift)
    out &= np.uint64((1 << w) - 1)
    return out.ravel()[:count].view(np.int64)


_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def bits_to_object(bits) -> tuple[int, int]:
    """(value, size) of a sequence of 0/1 bytes (a list or uint8 array), read
    MSB-first."""
    return (int(bytes(bits).translate(_BIT_CHARS), 2) if len(bits) else 0), len(bits)


def compact_array(values) -> array:
    """Non-negative integers as an owning array of the narrowest of the
    typecodes B, H, I and q that holds them."""
    v = np.asarray(values, dtype=np.int64)
    top = int(v.max()) if len(v) else 0
    code = "B" if top < 1 << 8 else "H" if top < 1 << 16 else "I" if top < 1 << 32 else "q"
    return array(code, v.astype(np.dtype(code)).tobytes())


class BitVec:
    """Plain bit vector with constant-time rank and logarithmic select.

    Bits are stored LSB-first inside 64-bit words.  The rank directory keeps
    one absolute count per 512-bit superblock plus a 16-bit relative count
    per word.
    """

    __slots__ = ("n", "_words", "_super", "_rel", "_ones")

    def __init__(self, bits=None):
        if bits is None:
            bits = []
        words = array("Q")
        cur = 0
        fill = 0
        n = 0
        for b in bits:
            if b:
                cur |= 1 << fill
            fill += 1
            n += 1
            if fill == _WORD:
                words.append(cur)
                cur = 0
                fill = 0
        if fill:
            words.append(cur)
        self.n = n
        self._words = words
        self._build_directory()

    @classmethod
    def from_words(cls, n: int, words: array) -> "BitVec":
        v = cls.__new__(cls)
        v.n = n
        v._words = words
        v._build_directory()
        return v

    def _build_directory(self) -> None:
        words = np.asarray(self._words, dtype=np.uint64)
        before = np.zeros(len(words) + 1, dtype=np.int64)  # 1-bits before each word
        np.cumsum(np.unpackbits(words.view(np.uint8)).reshape(-1, 64).sum(axis=1),
                  out=before[1:])
        sup = before[::_SUPER_WORDS]
        self._super = array("q", sup.tobytes())
        self._rel = array("H", (before - np.repeat(sup, _SUPER_WORDS)[:len(before)])
                          .astype(np.uint16).tobytes())
        self._ones = int(before[-1])

    def __len__(self) -> int:
        return self.n

    @property
    def ones(self) -> int:
        return self._ones

    def access(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"access index {i} out of range 1..{self.n}")
        opcount.add(1)
        j = i - 1
        return (self._words[j >> 6] >> (j & 63)) & 1

    def rank(self, alpha: int, i: int) -> int:
        if not 0 <= i <= self.n:
            raise IndexError(f"rank index {i} out of range 0..{self.n}")
        opcount.add(4)
        fw = i >> 6
        rem = i & 63
        c = self._super[fw >> 3] + self._rel[fw]
        if rem:
            c += (self._words[fw] & ((1 << rem) - 1)).bit_count()
        return c if alpha else i - c

    def rank1(self, i: int) -> int:
        return self.rank(1, i)

    def rank0(self, i: int) -> int:
        return self.rank(0, i)

    def pred1(self, i: int) -> tuple[int, int]:
        """(r, select1(r)) for r = rank1(i): the 1-bits up to i and the position
        of the last of them."""
        r = self.rank(1, i)
        return r, self.select(1, r)

    def select(self, alpha: int, k: int) -> int:
        """Smallest i with rank_alpha(i) = k.  O(log n) binary search, charged
        as two operations per search step and per word scanned, plus one per
        halving inside the word."""
        total = self._ones if alpha else self.n - self._ones
        if k < 1 or k > total:
            raise ValueError(f"select: no {k}-th bit of value {alpha}")
        # largest superblock whose prefix count is < k; for alpha = 0 the
        # trailing phantom bits overcount, which only lands the search early
        # (the word scan below recovers).
        ops = 0
        lo, hi = 0, len(self._super) - 1
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            before = self._super[mid] if alpha else mid * _SUPER_WORDS * _WORD - self._super[mid]
            if before < k:
                lo = mid
            else:
                hi = mid - 1
            ops += 2
        sb = lo
        k_rem = k - (self._super[sb] if alpha else min(sb * _SUPER_WORDS * _WORD, self.n) - self._super[sb])
        w = sb * _SUPER_WORDS
        nw = len(self._words)
        while w < nw:
            ops += 2
            word = self._words[w] if alpha else ~self._words[w] & 0xFFFFFFFFFFFFFFFF
            if w == nw - 1 and self.n & 63:
                word &= (1 << (self.n & 63)) - 1
            c = word.bit_count()
            if k_rem <= c:
                opcount.add(ops + _SELECT_IN_WORD_OPS)
                return (w << 6) + _select_in_word(word, k_rem) + 1
            k_rem -= c
            w += 1
        raise ValueError("select: internal inconsistency")  # pragma: no cover

    def select1(self, k: int) -> int:
        return self.select(1, k)

    def select0(self, k: int) -> int:
        return self.select(0, k)

    def space_bits(self) -> dict:
        payload = len(self._words) * _WORD
        directory = len(self._super) * _WORD + len(self._rel) * 16
        return {"payload": payload, "directory": directory}


_SELECT_IN_WORD_OPS = 6  # one per halving step of `_select_in_word`


def _select_in_word(word: int, k: int) -> int:
    """0-based position of the k-th set bit of a 64-bit word."""
    pos = 0
    for shift in (32, 16, 8, 4, 2, 1):
        low = word & ((1 << shift) - 1)
        c = low.bit_count()
        if k > c:
            k -= c
            word >>= shift
            pos += shift
        else:
            word = low
    return pos


class CompressedBitVec:
    """Bit vector whose storage adapts to the number of 1-bits.

    Sparse vectors (m * ceil(lg n) <= n/2) store the sorted 1-positions plus a
    per-512-bit-block rank directory; rank then needs one directory read and a
    binary search over at most 512 in-block candidates (<= 9 steps), select is
    a single array read.  Denser vectors fall back to the plain ``BitVec``
    layout, so the payload never exceeds n bits plus directory overhead.
    """

    __slots__ = ("n", "_mode", "_pos", "_block_rank", "_bv", "_ones")

    SPARSE = 0
    DENSE = 1

    def __init__(self, bits=None):
        positions = []
        n = 0
        for b in bits or []:
            n += 1
            if b:
                positions.append(n)
        self._init_from(n, positions)

    @classmethod
    def from_positions(cls, n: int, positions) -> "CompressedBitVec":
        """From the sorted 1-based positions of the 1-bits (any sequence or
        integer numpy array)."""
        v = cls.__new__(cls)
        v._init_from(n, positions)
        return v

    def _init_from(self, n: int, positions) -> None:
        pos = np.asarray(positions, dtype=np.int64)
        m = len(pos)
        if m > 1 and (pos[1:] <= pos[:-1]).any():
            raise ValueError("positions must be strictly increasing")
        if m and (pos[0] < 1 or pos[-1] > n):
            raise ValueError("positions out of range")
        self.n = n
        self._ones = m
        if m * _bitlen(n) * 2 <= n:
            self._mode = self.SPARSE
            self._pos = compact_array(pos)
            limits = np.arange((n >> _SPARSE_BLOCK_SHIFT) + 2) << _SPARSE_BLOCK_SHIFT
            self._block_rank = compact_array(np.searchsorted(pos, limits, side="right"))
            self._bv = None
        else:
            self._mode = self.DENSE
            self._pos = None
            self._block_rank = None
            bits = np.zeros(64 * ((n + 63) // 64), dtype=np.uint8)
            bits[pos - 1] = 1
            words = array("Q", np.packbits(bits, bitorder="little").tobytes())
            if sys.byteorder == "big":  # pragma: no cover
                words.byteswap()
            self._bv = BitVec.from_words(n, words)

    def __len__(self) -> int:
        return self.n

    @property
    def ones(self) -> int:
        return self._ones

    @property
    def mode(self) -> int:
        return self._mode

    def access(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"access index {i} out of range 1..{self.n}")
        if self._mode == self.DENSE:
            return self._bv.access(i)
        opcount.add(2)
        j = bisect_left(self._pos, i)
        return 1 if j < self._ones and self._pos[j] == i else 0

    def rank(self, alpha: int, i: int) -> int:
        if not 0 <= i <= self.n:
            raise IndexError(f"rank index {i} out of range 0..{self.n}")
        if self._mode == self.DENSE:
            return self._bv.rank(alpha, i)
        opcount.add(11)  # directory read + in-block binary search (<= 9 steps)
        blk = i >> _SPARSE_BLOCK_SHIFT
        ones = bisect_right(self._pos, i, self._block_rank[blk], self._block_rank[blk + 1])
        return ones if alpha else i - ones

    def rank1(self, i: int) -> int:
        return self.rank(1, i)

    def rank0(self, i: int) -> int:
        return self.rank(0, i)

    def pred1(self, i: int) -> tuple[int, int]:
        """(r, select1(r)) for r = rank1(i), in one call that charges what
        rank1 and select1 charge; ValueError if no 1-bit is at or before i."""
        if self._mode == self.DENSE:
            return self._bv.pred1(i)
        if not 0 <= i <= self.n:
            raise IndexError(f"rank index {i} out of range 0..{self.n}")
        blk = i >> _SPARSE_BLOCK_SHIFT
        r = bisect_right(self._pos, i, self._block_rank[blk], self._block_rank[blk + 1])
        if not r:
            raise ValueError("select: no 0-th 1-bit")
        opcount.add(12)  # rank1's 11 plus select1's single read
        return r, self._pos[r - 1]

    def select(self, alpha: int, k: int) -> int:
        if self._mode == self.DENSE:
            return self._bv.select(alpha, k)
        if alpha:
            if k < 1 or k > self._ones:
                raise ValueError(f"select: no {k}-th 1-bit")
            opcount.add(1)
            return self._pos[k - 1]
        zeros = self.n - self._ones
        if k < 1 or k > zeros:
            raise ValueError(f"select: no {k}-th 0-bit")
        # smallest j with pos[j] - j > k; the k-th zero is then k + j
        lo, hi = 0, self._ones
        while lo < hi:
            mid = (lo + hi) >> 1
            if self._pos[mid] - mid > k:
                hi = mid
            else:
                lo = mid + 1
            opcount.add(2)
        return k + lo

    def select1(self, k: int) -> int:
        return self.select(1, k)

    def select0(self, k: int) -> int:
        return self.select(0, k)

    def payload_bits(self) -> int:
        if self._mode == self.SPARSE:
            return self._ones * _bitlen(self.n)
        return self._bv.space_bits()["payload"]

    def space_bits(self) -> dict:
        if self._mode == self.SPARSE:
            directory = len(self._block_rank) * _bitlen(self._ones)
            return {"payload": self.payload_bits(), "directory": directory}
        return self._bv.space_bits()

    def positions(self) -> list[int]:
        if self._mode == self.SPARSE:
            return list(self._pos)
        words = np.frombuffer(self._bv._words, dtype=np.uint64).astype("<u8", copy=False)
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")  # LSB-first words
        return (np.flatnonzero(bits[:self.n]) + 1).tolist()


class VariableCellArray:
    """Contiguous storage for m variable-bit-length objects.

    Object i occupies bits [start(i), start(i) + size(i)) of the payload,
    MSB-first; start offsets are 0-based.  A two-level directory (absolute
    offset per block of b = ceil(lg(total + 3))^2 objects, block-local
    offset per object) gives constant-time start lookup; b follows from the
    payload length, so a file stores only the sizes and the payload.
    """

    __slots__ = ("m", "total_bits", "block_size", "_block_start", "_local", "_words", "_max_size")

    def __init__(self, objects):
        """objects: iterable of (value, size_bits) with 0 <= value < 2**size."""
        objs = list(objects)
        for value, size in objs:
            if value >> size:
                raise ValueError("object value wider than declared size")
        sizes = [s for _, s in objs]
        total = sum(sizes)
        # payload bit p is character p of the objects' MSB-first binary digits
        digits = "".join(format(value, f"0{size}b") for value, size in objs if size)
        payload = int(digits[::-1], 2) if digits else 0
        words = array("Q")
        words.frombytes(payload.to_bytes(8 * ((total + 63) // 64), "little"))
        if sys.byteorder == "big":  # pragma: no cover
            words.byteswap()
        self._install(np.array(sizes, dtype=np.int64), words)

    def _install(self, sizes: np.ndarray, words: array) -> None:
        """Set the payload words and the two-level directory of object starts."""
        m = len(sizes)
        offsets = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        self.m = m
        self.total_bits = int(offsets[-1])
        self.block_size = _bitlen(self.total_bits + 2) ** 2
        self._max_size = int(sizes.max(initial=0))
        block_start = offsets[:m:self.block_size]
        self._block_start = compact_array(block_start)
        self._local = compact_array(offsets[:m] - block_start[np.arange(m) // self.block_size])
        self._words = words

    def _offset(self, j: int) -> int:
        """0-based bit offset of 0-based object j; j = m gives the payload's end."""
        if j == self.m:
            return self.total_bits
        return self._block_start[j // self.block_size] + self._local[j]

    def start(self, i: int) -> int:
        """0-based bit offset of object i (1-based i)."""
        if not 1 <= i <= self.m:
            raise IndexError(f"object index {i} out of range 1..{self.m}")
        opcount.add(2)
        return self._offset(i - 1)

    def size(self, i: int) -> int:
        end = self.total_bits if i == self.m else self.start(i + 1)
        return end - self.start(i)

    def sizes(self) -> np.ndarray:
        """Every object's size in bits, in order (int64)."""
        block_start = np.asarray(self._block_start, dtype=np.int64)
        starts = block_start[np.arange(self.m) // self.block_size] + np.asarray(self._local)
        return np.diff(np.append(starts, self.total_bits))

    def bits(self, i: int) -> np.ndarray:
        """Object i's bits, MSB-first, as a uint8 array of 0s and 1s; unlike
        `start`, this read charges no operations."""
        if not 1 <= i <= self.m:
            raise IndexError(f"object index {i} out of range 1..{self.m}")
        start, end = self._offset(i - 1), self._offset(i)
        words = np.frombuffer(self._words, dtype=np.uint64)[start >> 6:(end + 63) >> 6]
        bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), bitorder="little")
        return bits[start & 63:end - (start & ~63)]

    def all_bits(self) -> np.ndarray:
        """Every object's bits, end to end in object order, as one uint8 array."""
        words = np.frombuffer(self._words, dtype=np.uint64).astype("<u8", copy=False)
        return np.unpackbits(words.view(np.uint8), bitorder="little")[:self.total_bits]

    def object_bits(self, i: int) -> tuple[int, int]:
        """(value, size) of object i."""
        return bits_to_object(self.bits(i))

    def space_bits(self) -> dict:
        local_width = _bitlen(self.block_size * max(1, self._max_size))
        return {
            "payload": self.total_bits,
            "directory": len(self._block_start) * _WORD + self.m * local_width,
        }

    def to_bytes(self) -> bytes:
        """`pack_column` of the object sizes, then the payload as u64 words."""
        return pack_column(self.sizes()) + np.asarray(self._words, dtype="<u8").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, what: str = "VariableCellArray") -> "VariableCellArray":
        """Inverse of `to_bytes`; an object longer than the data, a missing
        or extra word, or a set bit past the last object is a DecodeError
        naming the section `what`."""
        r = Reader(data, what)
        sizes = read_column(r)
        if len(sizes) and sizes.max() > 8 * len(data):
            raise DecodeError(f"{what} object size exceeds its section")
        total = int(sizes.sum())
        words = array("Q", r.raw(8 * ((total + 63) // 64)))
        r.end()
        if sys.byteorder == "big":  # pragma: no cover
            words.byteswap()
        if total & 63 and words[-1] >> (total & 63):
            raise DecodeError(f"nonzero padding after the {what} payload")
        vca = cls.__new__(cls)
        vca._install(sizes, words)
        return vca


class PiecewiseConstantArray:
    """Run-compressed array with constant-time access and run-length queries.

    Stores the distinct run values densely plus a compressed change-position
    bit vector C (C[1] = 1 always); access(i) = V[rank1(C, i)].
    """

    __slots__ = ("n", "C", "values", "_width")

    def __init__(self, values, run_starts=None, n=None, c=None):
        if run_starts is None:
            seq = list(values)
            self.n = len(seq)
            starts = []
            vals = []
            prev = object()
            for idx, v in enumerate(seq, start=1):
                if idx == 1 or v != prev:
                    starts.append(idx)
                    vals.append(v)
                prev = v
            self.values = vals
            self.C = CompressedBitVec.from_positions(self.n, starts)
        else:
            if n is None:
                raise ValueError("n required with explicit run starts")
            self.n = n
            self.values = list(values)
            if c is not None:
                self.C = c
            else:
                self.C = CompressedBitVec.from_positions(n, list(run_starts))
            if self.C.ones != len(self.values):
                raise ValueError("run count must equal value count")
        mx = max((abs(int(v)) for v in self.values), default=0)
        self._width = _bitlen(mx)

    def access(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"access index {i} out of range 1..{self.n}")
        opcount.add(1)
        return self.values[self.C.rank1(i) - 1]

    def runlen(self, i: int) -> int:
        """Distance from the start of i's run through i, inclusive."""
        if not 1 <= i <= self.n:
            raise IndexError(f"runlen index {i} out of range 1..{self.n}")
        opcount.add(1)
        r = self.C.rank1(i)
        return i - self.C.select1(r) + 1

    def space_bits(self) -> dict:
        c = self.C.space_bits()
        return {"values": len(self.values) * self._width,
                "change_vector": c["payload"] + c["directory"]}
