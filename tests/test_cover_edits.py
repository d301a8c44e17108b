"""One-entry edits of an index's cover columns must not answer wrongly.

Every `MICR` and `PCAS` entry of an index (n = 300, `micro_b` 4) is moved by
one, and the file is re-wrapped with valid CRCs.  The load derives the
micro-root tree and checks the columns against each other; the first time a
micro is a query's LCA micro, its shape is checked against the columns.  So
an edited file must raise DecodeError, at load or at query time, or answer
exactly as the intact file does.  The one exception is a micro's `type_of`:
another shape may make a consistent file for another array, which only the
CRC tells apart, so its answers need only lie inside the query range.
"""

import random

import numpy as np

from succinctrmq.bits import pack_column, read_column
from succinctrmq.cover import _SECTIONS
from succinctrmq.rmq import FORMAT_VERSION, RmqIndex
from succinctrmq.serial import DecodeError, Reader, read_stream, write_stream


def edits(sections):
    """(column name, entry, step, file) for every entry of every `MICR` and
    `PCAS` column moved by -1 and +1, where the result is not negative."""
    for tag, names in _SECTIONS:
        if tag not in (b"MICR", b"PCAS"):
            continue
        r = Reader(sections[tag], tag.decode("ascii"))
        columns = [read_column(r) for _ in names]
        r.end()
        for name, col in zip(names, columns):
            for at in range(len(col)):
                for step in (-1, 1):
                    if col[at] + step < 0:
                        continue
                    col[at] += step
                    payload = b"".join(pack_column(c) for c in columns)
                    col[at] -= step
                    yield name, at, step, write_stream(
                        FORMAT_VERSION, list({**sections, tag: payload}.items()))


def test_edited_cover_is_rejected_or_answers_as_intact():
    n = 300
    values = np.random.default_rng(n).permutation(n).tolist()
    blob = RmqIndex.build(values, codec="fixed", micro_b=4).to_bytes()
    rng = random.Random(n)
    queries = [(1, n)] + [tuple(sorted((rng.randint(1, n), rng.randint(1, n))))
                          for _ in range(200)]
    intact = RmqIndex.from_bytes(blob)
    answers = [intact.query(i, j) for i, j in queries]
    seen = {"rejected at load": 0, "rejected at query": 0, "answered": 0}
    differ = []
    for name, at, step, damaged in edits(read_stream(blob)[1]):
        try:
            index = RmqIndex.from_bytes(damaged)
        except DecodeError:
            seen["rejected at load"] += 1
            continue
        try:
            got = [index.query(i, j) for i, j in queries]
        except DecodeError:
            seen["rejected at query"] += 1
            continue
        seen["answered"] += 1
        assert all(i <= a <= j for (i, j), a in zip(queries, got))
        if got != answers:
            differ.append((name, at, step))
    assert all(seen.values()), seen
    assert [e for e in differ if e[0] != "type_of"] == []
