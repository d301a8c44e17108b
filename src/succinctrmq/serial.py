"""Tagged, versioned byte-stream container and low-level packing helpers.

All multi-byte integers are little-endian.  A stream is::

    magic (4 bytes) | version (u16) | section count (u16) | sections...

where each section is ``tag (4 bytes) | length (u64) | CRC-32 (u32) | payload``
and the CRC-32 (`zlib.crc32`) is of the payload.  Bit payloads are padded to
byte boundaries with zero bits.  See FORMAT.md for the per-structure layouts.
"""

from __future__ import annotations

import struct
import zlib

MAGIC = b"SRMQ"


class DecodeError(ValueError):
    """Raised when a serialized stream is malformed or truncated."""


def encode_varint(value: int) -> bytes:
    """LEB128 unsigned varint."""
    if value < 0:
        raise ValueError("varint must be non-negative")
    out = bytearray()
    while True:
        b = value & 0x7F
        value >>= 7
        if value:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Return (value, next_offset)."""
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise DecodeError("truncated varint")
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise DecodeError("varint too long")


def bits_to_bytes(bits) -> bytes:
    """Pack a 0/1 sequence MSB-first, zero-padded to a byte boundary."""
    out = bytearray((len(bits) + 7) // 8)
    for i, b in enumerate(bits):
        if b:
            out[i >> 3] |= 0x80 >> (i & 7)
    return bytes(out)


def bytes_to_bits(data: bytes, nbits: int) -> list[int]:
    """Inverse of bits_to_bytes."""
    if nbits > 8 * len(data):
        raise DecodeError("bit payload shorter than declared length")
    return [(data[i >> 3] >> (7 - (i & 7))) & 1 for i in range(nbits)]


class Reader:
    """Bounds-checked little-endian reads over one section payload; every
    shortfall, oversized count or leftover byte is a DecodeError naming the
    section."""

    __slots__ = ("blob", "pos", "what")

    def __init__(self, blob: bytes, what: str):
        self.blob = blob
        self.pos = 0
        self.what = what

    def take(self, fmt: str) -> tuple:
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.blob):
            raise DecodeError(f"truncated {self.what} section")
        out = struct.unpack_from(fmt, self.blob, self.pos)
        self.pos += size
        return out

    def raw(self, size: int) -> bytes:
        if self.pos + size > len(self.blob):
            raise DecodeError(f"truncated {self.what} section")
        self.pos += size
        return self.blob[self.pos - size:self.pos]

    def end(self) -> None:
        if self.pos != len(self.blob):
            raise DecodeError(f"{len(self.blob) - self.pos} stray bytes after {self.what} section")


def write_stream(version: int, sections: list[tuple[bytes, bytes]]) -> bytes:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<HH", version, len(sections))
    for tag, payload in sections:
        if len(tag) != 4:
            raise ValueError("section tag must be 4 bytes")
        out += tag
        out += struct.pack("<QI", len(payload), zlib.crc32(payload))
        out += payload
    return bytes(out)


def read_stream(data: bytes) -> tuple[int, dict[bytes, bytes]]:
    """(version, tag -> payload); every section's CRC is checked before any
    payload is parsed, and a tag may occur once."""
    if len(data) < 8 or data[:4] != MAGIC:
        raise DecodeError("bad magic")
    version, count = struct.unpack("<HH", data[4:8])
    pos = 8
    sections: dict[bytes, bytes] = {}
    for _ in range(count):
        if pos + 16 > len(data):
            raise DecodeError("truncated section header")
        tag = data[pos : pos + 4]
        length, crc = struct.unpack("<QI", data[pos + 4 : pos + 16])
        pos += 16
        if tag in sections:
            raise DecodeError(f"repeated section {tag.decode('ascii', 'replace')}")
        if pos + length > len(data):
            raise DecodeError("truncated section payload")
        sections[tag] = data[pos : pos + length]
        if zlib.crc32(sections[tag]) != crc:
            raise DecodeError(f"CRC mismatch in section {tag.decode('ascii', 'replace')}")
        pos += length
    if pos != len(data):
        raise DecodeError(f"{len(data) - pos} stray bytes after the last section")
    return version, sections
