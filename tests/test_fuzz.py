"""Seeded fuzzing of index files: truncations, single-bit flips in every
section and runs of 0xff bytes, on indexes of n = 300 and 3000 for each codec.

Each damaged file must raise DecodeError, or load and answer a fixed query
set exactly as the intact file does, within a per-case time bound.  The
same damage to one section payload, re-wrapped so every CRC is valid, must
raise DecodeError or load, within the bound.  So must each cover file whose
`MICR` or `PCAS` entries are moved by one, and once loaded it must raise
DecodeError at query time or answer inside the query range.
"""

import contextlib
import random
import signal

import numpy as np
import pytest

from succinctrmq.bits import pack_column, read_column
from succinctrmq.rmq import FORMAT_VERSION, RmqIndex
from succinctrmq.serial import DecodeError, Reader, read_stream, write_stream

CASE_SECONDS = 2  # an intact n = 3000 file loads and answers the queries in ~10 ms
CASES = [(n, codec) for n in (300, 3000) for codec in ("fixed", "entropy", "huffman")]


@contextlib.contextmanager
def time_bound(seconds: float):
    """Raise TimeoutError in the block once it has run `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"a fuzz case ran over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module", params=CASES, ids=[f"{c}-{n}" for n, c in CASES])
def original(request):
    """(file, queries, answers) of one intact index."""
    n, codec = request.param
    blob = RmqIndex.build(np.random.default_rng(n).permutation(n).tolist(), codec=codec).to_bytes()
    rng = random.Random(n)
    queries = [(1, n)] + [tuple(sorted((rng.randint(1, n), rng.randint(1, n))))
                          for _ in range(200)]
    index = RmqIndex.from_bytes(blob)
    return blob, queries, [index.query(i, j) for i, j in queries]


def outcome(original, damaged: bytes) -> str:
    """'rejected' or 'loaded'; a loaded file must answer as the intact one."""
    _, queries, answers = original
    with time_bound(CASE_SECONDS):
        try:
            index = RmqIndex.from_bytes(damaged)
        except DecodeError:
            return "rejected"
        assert [index.query(i, j) for i, j in queries] == answers
    return "loaded"


def spans(blob: bytes) -> list[tuple[str, int, int]]:
    """(name, start, end) of the stream header and of each section, its
    16-byte header included."""
    out = [("stream header", 0, 8)]
    pos = 8
    while pos < len(blob):
        end = pos + 16 + int.from_bytes(blob[pos + 4:pos + 12], "little")
        out.append((blob[pos:pos + 4].decode("ascii"), pos, end))
        pos = end
    return out


def test_intact_file_loads(original):
    assert outcome(original, original[0]) == "loaded"


def test_truncations(original):
    blob = original[0]
    rng = random.Random(len(blob))
    for cut in [0, len(blob) - 1] + rng.sample(range(len(blob)), 60):
        assert outcome(original, blob[:cut]) == "rejected", cut


def test_bit_flips_in_every_section(original):
    blob = original[0]
    rng = random.Random(len(blob) + 1)
    names = []
    for name, start, end in spans(blob):
        names.append(name)
        for bit in rng.sample(range(8 * start, 8 * end), min(48, 8 * (end - start))):
            damaged = bytearray(blob)
            damaged[bit >> 3] ^= 1 << (bit & 7)
            outcome(original, bytes(damaged))
    stored = ["TARR"] if RmqIndex.from_bytes(blob).codec == "entropy" else []
    assert set(names) == {"stream header", "RMET", "CMET", "MICR", "PCAS", "TYPR", *stored}


def test_ff_runs(original):
    blob = original[0]
    rng = random.Random(len(blob) + 2)
    for _ in range(150):
        size = rng.randint(1, 16)
        at = rng.randrange(len(blob) - size + 1)
        outcome(original, blob[:at] + b"\xff" * size + blob[at + size:])


def test_rewrapped_damage_fails_only_with_decode_error(original):
    # the CRCs catch accidental damage only; a file written with valid CRCs
    # reaches the parsers.  It may describe another index, so its answers
    # are not compared.
    _, sections = read_stream(original[0])
    rng = random.Random(len(original[0]) + 3)
    for tag, payload in sections.items():
        for case in range(100):
            damaged = bytearray(payload)
            if case % 3 == 0:
                damaged = damaged[:rng.randrange(len(payload))]
            elif case % 3 == 1:
                bit = rng.randrange(8 * len(payload))
                damaged[bit >> 3] ^= 1 << (bit & 7)
            else:
                at, size = rng.randrange(len(payload)), rng.randint(1, 16)
                damaged[at:at + size] = b"\xff" * len(damaged[at:at + size])
            blob = write_stream(FORMAT_VERSION, list({**sections, tag: bytes(damaged)}.items()))
            with time_bound(CASE_SECONDS):
                try:
                    RmqIndex.from_bytes(blob)
                except DecodeError:
                    pass


def in_range_or_rejected(blob: bytes, queries) -> str:
    """'rejected at load', 'rejected at query' or 'answered'; every answer
    must lie inside its query range."""
    with time_bound(CASE_SECONDS):
        try:
            index = RmqIndex.from_bytes(blob)
        except DecodeError:
            return "rejected at load"
        for i, j in queries:
            try:
                at = index.query(i, j)
            except DecodeError:
                return "rejected at query"
            assert i <= at <= j, (i, j, at)
    return "answered"


def test_cover_entry_edits_fail_with_decode_error_or_answer_in_range():
    # the load bounds each cover field but does not tie the fields together,
    # so a file re-wrapped with valid CRCs after a one-entry edit may load
    n = 300
    values = np.random.default_rng(n).permutation(n).tolist()
    _, sections = read_stream(RmqIndex.build(values, codec="fixed", micro_b=4).to_bytes())
    rng = random.Random(n)
    queries = [(1, n)] + [tuple(sorted((rng.randint(1, n), rng.randint(1, n))))
                          for _ in range(200)]
    seen = set()
    for tag in (b"MICR", b"PCAS"):
        r = Reader(sections[tag], tag.decode("ascii"))
        columns = []
        while r.pos < len(r.blob):
            columns.append(read_column(r))
        for col in columns:
            for at in range(len(col)):
                for step in (-1, 1):
                    if col[at] + step < 0:
                        continue
                    col[at] += step
                    payload = b"".join(pack_column(c) for c in columns)
                    col[at] -= step
                    blob = write_stream(FORMAT_VERSION, list({**sections, tag: payload}.items()))
                    seen.add(in_range_or_rejected(blob, queries))
    # the sweep reaches contradictions that only a query meets
    assert seen == {"rejected at load", "rejected at query", "answered"}
