"""User-facing range-minimum index over the compressed Cartesian tree.

The index keeps only the tree cover of the Cartesian tree; the input array is
discarded at build time (encoding model), so queries never consult it:
rmq(i, j) = inorder-rank(lca(inorder-select(i), inorder-select(j))).
"""

from __future__ import annotations

import random
import time

import numpy as np

from .cover import TreeCover, cover_from_spans
from .microcodec import MODE_ENTROPY, MODES, TypeArray, encode_types
from .serial import DecodeError, Reader, read_stream, write_stream
from .trees import cartesian_spans, order_keys

FORMAT_VERSION = 9  # FORMAT.md, "RmqIndex"

# the sections of each codec's file: the codec name and the cover, and for the
# entropy codec its micro payload, which no query reads (README, "Space accounting")
_TAGS = frozenset((b"RMET", b"CMET", b"MICR", b"PCAS", b"TYPR"))
_CODEC_TAGS = {codec: _TAGS | {b"TARR"} if codec == MODE_ENTROPY else _TAGS for codec in MODES}

# what `RmqIndex.build` times, in order: building the Cartesian tree's spans
# from the keys, the tree cover, encoding the micro types, the spot check
BUILD_PHASES = ("cartesian", "cover", "encode_types", "validate")


class RmqIndex:
    """Constant-time range-minimum queries in compressed space."""

    __slots__ = ("n", "codec", "cover", "type_array", "build_timings")

    def __init__(self, n: int, codec: str, cover: TreeCover, type_array: TypeArray):
        self.n = n
        self.codec = codec
        self.cover = cover
        self.type_array = type_array
        # wall seconds of each of BUILD_PHASES; an index read from bytes has none
        self.build_timings: dict[str, float] = {}

    @classmethod
    def build(cls, values, codec: str = MODE_ENTROPY, micro_b: int | None = None) -> "RmqIndex":
        marks = [time.perf_counter()]
        keys = order_keys(values)
        if not len(keys):
            raise ValueError("cannot build an RMQ index over an empty array")
        if codec not in MODES:
            raise ValueError(f"unknown codec {codec!r}")
        lo, st = cartesian_spans(keys)
        marks.append(time.perf_counter())
        cover = cover_from_spans(lo, st, micro_b=micro_b)
        del lo, st  # only the cover outlives its phase
        marks.append(time.perf_counter())
        type_array = encode_types(cover.type_ids, cover.registry, codec)
        marks.append(time.perf_counter())
        index = cls(len(keys), codec, cover, type_array)
        index._validate_sample(keys)
        cover.registry.clear_tables()  # a fresh index holds no decoded tables
        marks.append(time.perf_counter())
        index.build_timings = dict(zip(BUILD_PHASES, np.diff(marks).tolist()))
        return index

    def query(self, i: int, j: int) -> int:
        """Leftmost index of the minimum in positions i..j (1-based).

        Inorder select maps i and j to (run, shape inorder position) pairs
        on the runs of the inorder position map, without a lookup table: a
        rank on the run starts and a read of the run's start.  The LCA micro
        is the micro of the leftmost least micro-root-tree preorder among the
        runs between the two, found with no scan across blocks of runs (at
        most four candidate positions and the micros they name).  The LCA
        reads that micro's table alone, building it on first use, which
        scans at most two partial blocks of the shape's left depths, and
        gives the LCA's pair, whose inorder rank is its run's start plus its
        offset into the run.  So a query builds at most one table.

        The load derives the runs and the columns that follow from the
        micro-root tree, so those cannot contradict each other, but it does
        not check what depends on a micro's shape: that a portal position is
        a leaf of it, or that a micro's left depth and portals place its
        runs where the inorder map has them.  The first time a micro is the
        LCA micro, its table is checked against the cover.  A query that
        meets a contradiction, as a `ValueError` on its path or an answer
        outside [i, j], raises DecodeError."""
        if not 1 <= i <= j <= self.n:
            raise IndexError(f"invalid range ({i},{j}) for n={self.n}")
        c = self.cover
        try:
            ru, u = c.select_inorder(i)
            rv, v = c.select_inorder(j)
            at = c.rank_inorder(*c.lca_run(ru, u, rv, v))
        except DecodeError:
            raise
        except ValueError as exc:
            raise DecodeError(f"rmq({i},{j}): the index contradicts itself: {exc}") from exc
        if not i <= at <= j:
            raise DecodeError(f"rmq({i},{j}): the index answers {at}, outside the range")
        return at

    def _validate_sample(self, keys) -> None:
        """Build-time spot check against the source array (then forget it);
        `keys` is the array from `order_keys`, whose argmin is the leftmost
        minimum."""
        rng = random.Random(0xC0FFEE ^ self.n)
        n = self.n
        queries = [(1, 1), (1, n), (n, n)]
        for _ in range(min(128, n * n)):
            i = rng.randint(1, n)
            j = min(n, i + rng.randint(0, 63))
            queries.append((i, j))
        for _ in range(16):
            i = rng.randint(1, n)
            j = rng.randint(i, n)
            queries.append((i, j))
        for i, j in queries:
            got = self.query(i, j)
            best = i + int(np.argmin(keys[i - 1:j]))
            if got != best:
                raise AssertionError(
                    f"build validation failed: rmq({i},{j}) = {got}, scan says {best}")

    # ---- reporting ----------------------------------------------------------

    def space_report(self) -> dict:
        """Designed bits of what the index holds.  Queries read the micro
        types from `TYPR` (`query_form_per_element`); `micro_payload` is the
        stored `TARR` payload, 0 but for entropy, and
        `designed_payload_per_element` the codec's payload whether stored or
        not."""
        cov = self.cover
        aux = cov.space_bits()
        ta_space = self.type_array.space_bits()
        breakdown = {
            "micro_payload": ta_space["payload"],
            "codebook": 0,  # no codec stores one
            # the Zaks key of every shape, which every codec's queries build tables from
            "type_registry": len(cov.registry.to_bytes()) * 8,
            "type_directory": ta_space["directory"],
            "index_directories": aux["per_micro_tables"] + aux["pca_inorder"],
            "macro_tiers": aux["micro_root_tree"],
        }
        total = sum(breakdown.values())
        return {
            "n": self.n,
            "codec": self.codec,
            "total_bits": total,
            "bits_per_element": total / self.n,
            "micro_payload_per_element": breakdown["micro_payload"] / self.n,
            "query_form_per_element": breakdown["type_registry"] / self.n,
            "designed_payload_per_element": self.type_array.total_payload_bits() / self.n,
            "breakdown": breakdown,
            "aux_detail": aux,
            "micro_trees": cov.micro_count(),
            "distinct_types": len(cov.registry),
        }

    # ---- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        sections = [(b"RMET", self.codec.encode("ascii").ljust(8, b"\0"))]
        sections += self.cover.to_sections()
        if self.codec == MODE_ENTROPY:
            sections.append((b"TARR", self.type_array.to_bytes()))
        return write_stream(FORMAT_VERSION, sections)

    @classmethod
    def from_bytes(cls, data: bytes) -> "RmqIndex":
        version, sections = read_stream(data)
        if version != FORMAT_VERSION:
            raise DecodeError(f"unsupported index version {version}, "
                              f"expected {FORMAT_VERSION}")
        if b"RMET" not in sections:
            raise DecodeError("missing index section RMET")
        r = Reader(sections[b"RMET"], "RMET")
        codec = r.take("8s")[0].rstrip(b"\0").decode("ascii", "replace")
        r.end()
        if codec not in MODES:
            raise DecodeError(f"unknown codec {codec!r} in index file")
        missing, extra = _CODEC_TAGS[codec] - sections.keys(), sections.keys() - _CODEC_TAGS[codec]
        if missing:
            raise DecodeError(f"missing index section {min(missing).decode('ascii')}")
        if extra:
            raise DecodeError(f"a {codec} index holds no "
                              f"{min(extra).decode('ascii', 'replace')} section")
        cover = TreeCover.from_sections(sections)
        type_of = memoryview(cover.type_of)[1:]  # the cover's column, not a copy
        if codec == MODE_ENTROPY:
            type_array = TypeArray.from_bytes(sections[b"TARR"], cover.registry, type_of,
                                              cover.shape_size[1:])
        else:
            type_array = TypeArray(codec, cover.registry, type_of)
        return cls(cover.n, codec, cover, type_array)


class OracleRmq:
    """Reference oracles: naive scan and an O(n log n)-space sparse table,
    both with exact leftmost-minimum semantics."""

    def __init__(self, values, method: str = "naive"):
        self.values = list(values)
        self.n = len(self.values)
        self.method = method
        if method == "sparse":
            self._build_sparse()
        elif method != "naive":
            raise ValueError("method must be 'naive' or 'sparse'")

    def _build_sparse(self) -> None:
        n = self.n
        vals = self.values
        log = [0] * (n + 1)
        for i in range(2, n + 1):
            log[i] = log[i >> 1] + 1
        self._log = log
        table = [list(range(n))]
        span = 1
        while 2 * span <= n:
            prev = table[-1]
            cur = []
            for i in range(n - 2 * span + 1):
                a, b = prev[i], prev[i + span]
                cur.append(a if vals[a] <= vals[b] else b)
            table.append(cur)
            span *= 2
        self._table = table

    def query(self, i: int, j: int) -> int:
        if not 1 <= i <= j <= self.n:
            raise IndexError(f"invalid range ({i},{j}) for n={self.n}")
        if self.method == "naive":
            vals = self.values
            best = i
            for k in range(i + 1, j + 1):
                if vals[k - 1] < vals[best - 1]:
                    best = k
            return best
        k = self._log[j - i + 1]
        a = self._table[k][i - 1]
        b = self._table[k][j - (1 << k)]
        return (a if self.values[a] <= self.values[b] else b) + 1


def adversarial_arrays(n: int, seed: int = 0) -> dict[str, list[int]]:
    """Standard adversarial RMQ inputs."""
    rng = random.Random(seed)
    up = list(range(1, n // 2 + 1))
    down = list(range(n - len(up), 0, -1))
    return {
        "sorted": list(range(1, n + 1)),
        "reverse": list(range(n, 0, -1)),
        "organ_pipe": up + down,
        "constant": [7] * n,
        "few_distinct": [rng.randint(0, 2) for _ in range(n)],
    }
