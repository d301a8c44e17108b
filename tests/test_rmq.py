import gc
import random
import struct
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

from succinctrmq import opcount
from succinctrmq.bits import VariableCellArray, column_width, pack_column, read_column
from succinctrmq.cover import _SECTIONS
from succinctrmq.rmq import BUILD_PHASES, FORMAT_VERSION, OracleRmq, RmqIndex, adversarial_arrays
from succinctrmq.serial import DecodeError, Reader, read_stream, write_stream

from test_trees import FIG_ARRAY, sawtooth


def check_all_pairs(index, arr):
    n = len(arr)
    for i in range(1, n + 1):
        best = i
        for j in range(i, n + 1):
            if arr[j - 1] < arr[best - 1]:
                best = j
            assert index.query(i, j) == best, (i, j)


class TestBuild:
    def test_singleton(self):
        idx = RmqIndex.build([1])
        assert idx.query(1, 1) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RmqIndex.build([])

    @pytest.mark.parametrize("values", [
        [1.5, float("nan"), 0.5, float("nan")],
        np.array([1.5, np.nan, 0.5, np.nan]),
        np.array([2**70, float("nan"), "x", float("nan")], dtype=object),
    ], ids=["list", "float-array", "object-array"])
    def test_nan_rejected(self, values):
        # a NaN is neither below nor above any key, so it has no leftmost minimum
        with pytest.raises(ValueError, match=r"values\[1\] is NaN"):
            RmqIndex.build(values)

    def test_unknown_codec(self):
        with pytest.raises(ValueError):
            RmqIndex.build([1, 2], codec="zip")

    def test_fixture_array(self):
        idx = RmqIndex.build(FIG_ARRAY)
        assert idx.query(1, 20) == 19
        assert idx.query(4, 8) == 5

    def test_identity_queries(self):
        idx = RmqIndex.build(list(range(50, 0, -1)))
        for i in range(1, 51):
            assert idx.query(i, i) == i

    def test_array_not_retained(self):
        arr = [5, 3, 8, 1, 9, 2]
        idx = RmqIndex.build(arr)
        before = [idx.query(i, j) for i in range(1, 7) for j in range(i, 7)]
        arr[0] = -100  # mutating the caller's array must not matter
        after = [idx.query(i, j) for i in range(1, 7) for j in range(i, 7)]
        assert before == after
        assert not hasattr(idx, "values")

    def test_no_tables_left_after_validation(self):
        arr = np.random.default_rng(11).permutation(20000).tolist()
        idx = RmqIndex.build(arr)
        assert idx.cover.registry.tables_built() == 0
        assert idx.space_report()["aux_detail"]["lookup_tables_built"] == 0
        oracle = OracleRmq(arr, "sparse")
        rng = random.Random(12)
        for _ in range(2000):
            i = rng.randint(1, 20000)
            j = rng.randint(i, 20000)
            assert idx.query(i, j) == oracle.query(i, j)
        assert idx.cover.registry.tables_built() > 0

    @pytest.mark.parametrize("codec", ["fixed", "entropy", "huffman"])
    def test_phase_timings(self, codec):
        idx = RmqIndex.build(np.random.default_rng(5).permutation(3000).tolist(), codec=codec)
        assert tuple(idx.build_timings) == BUILD_PHASES
        assert all(s >= 0 for s in idx.build_timings.values())
        assert RmqIndex.from_bytes(idx.to_bytes()).build_timings == {}

    def test_range_errors(self):
        idx = RmqIndex.build([3, 1, 2])
        for i, j in ((0, 1), (2, 1), (1, 4), (-1, 2)):
            with pytest.raises(IndexError):
                idx.query(i, j)


class TestBuildMemory:
    """The build's traced peak, per element, above the values it is given:
    a permutation, and a sawtooth, whose nearest-smaller pass ends by the
    sequential walk on both sides and packs thousands of big nodes."""

    # bytes per element at n = 2 * 10^5; the build measured 29 and 40
    BOUND = {"permutation": 36, "sawtooth": 50}

    @pytest.mark.parametrize("name", list(BOUND))
    def test_peak_per_element(self, name):
        n = 200_000
        values = np.random.default_rng(1).permutation(n) if name == "permutation" else sawtooth(n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            RmqIndex.build(values)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / n <= self.BOUND[name]


class TestLcaMicroTable:
    """A query reads only its LCA micro's lookup table, and checks that micro
    against the cover the first time it is the LCA micro."""

    VALUES = np.random.default_rng(21).permutation(3000)

    @pytest.fixture(scope="class")
    def blob(self):
        return RmqIndex.build(self.VALUES.tolist(), micro_b=4).to_bytes()

    def test_meeting_micro_alone_is_built(self, blob):
        c = RmqIndex.from_bytes(blob).cover
        rng = random.Random(22)
        while True:  # endpoints in two micros that meet in a third, all of distinct types
            i, j = sorted(rng.sample(range(1, 3001), 2))
            (ru, u), (rv, v) = c.select_inorder(i), c.select_inorder(j)
            ku, kv, k = (c.run_k[r] for r in (ru, rv, c.lca_run(ru, u, rv, v)[0]))
            if len({c.type_of[x] for x in (ku, kv, k)}) == 3:
                break
        index = RmqIndex.from_bytes(blob)
        assert index.cover.registry.tables_built() == 0
        assert index.query(i, j) == i + int(np.argmin(self.VALUES[i - 1:j]))
        assert list(index.cover.registry.tables) == [c.type_of[k]]
        assert [x for x, done in enumerate(index.cover._checked) if done] == [k]

    def test_first_use_check_charges_no_operations(self, blob):
        index = RmqIndex.from_bytes(blob)
        rng = random.Random(23)
        starts = [rng.randint(1, 3000) for _ in range(300)]
        # short ranges, whose LCA micros are many
        queries = [(i, min(3000, i + rng.randint(0, 20))) for i in starts]

        def ops():
            out = []
            for i, j in queries:
                start = opcount.snapshot()
                index.query(i, j)
                out.append(opcount.snapshot() - start)
            return out

        first = ops()
        assert sum(index.cover._checked) > 50
        assert ops() == first

    def test_tau_names_take_the_query_path(self, blob, monkeypatch):
        # a tau-name names the query path's (run, shape inorder position)
        # pair by its micro, so the tau-name methods read no Zaks key and
        # build no table that the same queries did not
        index = RmqIndex.from_bytes(blob)
        rng = random.Random(24)
        queries = [tuple(sorted(rng.sample(range(1, 3001), 2))) for _ in range(300)]
        queries += [(i, i) for i in (1, 1500, 3000)]
        want = [index.query(i, j) for i, j in queries]
        c = index.cover
        built = c.registry.tables_built()

        def no_key(type_id):
            raise AssertionError(f"read the Zaks key of type {type_id}")

        monkeypatch.setattr(c.registry, "zaks_bits", no_key)
        got = [c.noderank_inorder(c.lca(c.nodeselect_inorder(i), c.nodeselect_inorder(j)))
               for i, j in queries]
        assert got == want
        assert c.registry.tables_built() == built


class TestOracles:
    def test_examples(self):
        assert OracleRmq([3, 1, 2]).query(1, 3) == 2
        assert OracleRmq([2, 2, 2]).query(1, 3) == 1

    def test_sparse_equals_naive(self):
        rng = random.Random(17)
        for n in (1, 2, 33, 250, 512):
            arr = [rng.randint(0, 40) for _ in range(n)]
            naive = OracleRmq(arr, "naive")
            sparse = OracleRmq(arr, "sparse")
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    assert naive.query(i, j) == sparse.query(i, j)

    def test_bad_method(self):
        with pytest.raises(ValueError):
            OracleRmq([1], "magic")


class TestEquivalence:
    def test_random_permutations_all_pairs(self):
        rng = random.Random(21)
        for trial in range(10):
            n = rng.randint(1, 320)
            arr = list(range(1, n + 1))
            rng.shuffle(arr)
            idx = RmqIndex.build(arr, codec=("fixed", "entropy", "huffman")[trial % 3])
            check_all_pairs(idx, arr)

    def test_adversarial_all_pairs(self):
        for name, arr in adversarial_arrays(300, seed=4).items():
            idx = RmqIndex.build(arr)
            check_all_pairs(idx, arr)

    def test_duplicates_leftmost(self):
        rng = random.Random(23)
        for _ in range(6):
            n = rng.randint(1, 200)
            arr = [rng.randint(0, 3) for _ in range(n)]
            idx = RmqIndex.build(arr, micro_b=4)
            check_all_pairs(idx, arr)

    def test_widest_left_depth_column(self):
        # a decreasing array's Cartesian tree is a left path, so the micro
        # roots' left depths reach n - 1 and their column is at its widest
        n = 100_000
        arr = adversarial_arrays(n)["reverse"]
        idx = RmqIndex.build(arr)
        assert max(idx.cover.root_ld) > n - 2 * idx.cover.micro_B
        blob = idx.to_bytes()
        loaded = RmqIndex.from_bytes(blob)
        assert loaded.to_bytes() == blob
        oracle = OracleRmq(arr, "sparse")
        rng = random.Random(n)
        for _ in range(3000):
            i = rng.randint(1, n)
            j = rng.randint(i, n)
            assert loaded.query(i, j) == oracle.query(i, j)

    def test_sampled_large(self):
        arr = np.random.default_rng(5).permutation(50000).tolist()
        idx = RmqIndex.build(arr)
        oracle = OracleRmq(arr, "sparse")
        rng = random.Random(6)
        for _ in range(20000):
            i = rng.randint(1, 50000)
            j = rng.randint(i, 50000)
            assert idx.query(i, j) == oracle.query(i, j)


class TestSpaceReport:
    def test_components_sum(self):
        idx = RmqIndex.build(list(range(1000)), codec="huffman")
        rep = idx.space_report()
        assert sum(rep["breakdown"].values()) == rep["total_bits"]
        assert rep["bits_per_element"] == rep["total_bits"] / rep["n"]

    @pytest.mark.parametrize("codec", ["fixed", "entropy", "huffman"])
    def test_type_registry_counted_for_every_codec(self, codec):
        arr = np.random.default_rng(8).permutation(3000).tolist()
        idx = RmqIndex.build(arr, codec=codec)
        rep = idx.space_report()
        parts = rep["breakdown"]
        assert sum(parts.values()) == rep["total_bits"]
        assert parts["type_registry"] == 8 * len(idx.cover.registry.to_bytes()) > 0
        assert rep["query_form_per_element"] == parts["type_registry"] / idx.n
        assert parts["codebook"] == 0  # no codec stores one
        assert "pca_preorder" not in rep["aux_detail"]

    @pytest.mark.parametrize("codec", ["fixed", "entropy", "huffman"])
    def test_design_matches_file(self, codec):
        """The file holds the designed bits, less what a load rebuilds, plus
        the container overhead that FORMAT.md ("Design and file") bounds."""
        arr = np.random.default_rng(20).permutation(20000).tolist()
        idx = RmqIndex.build(arr, codec=codec)
        blob = idx.to_bytes()
        rep = idx.space_report()
        parts = rep["breakdown"]
        rebuilt = (parts["macro_tiers"] + parts["type_directory"]
                   + idx.cover.c_in.space_bits()["directory"])
        sections = len(read_stream(blob)[1])
        # only the entropy codec stores a TARR, and with it a size column
        size_width = column_width(idx.type_array.vca.sizes()) if codec == "entropy" else 0
        container = (64 + 128 * sections + 8 * (8 + 24) + 47 * 18
                     + 110 + size_width * rep["micro_trees"])
        assert 0 <= 8 * len(blob) - (rep["total_bits"] - rebuilt) <= container


def deep_size(root) -> int:
    """Bytes held by every object reachable from `root`: sys.getsizeof of each
    object once, following gc.get_referents; classes, modules and functions
    are not counted."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen: set[int] = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        assert not (isinstance(obj, np.ndarray) and obj.base is not None), \
            "a numpy view hides the buffer it reads from this walk"
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def test_loaded_footprint(index_1e6):
    """A fresh load holds its columns in owning arrays and no per-micro
    objects: at most 8 bits per element before any query."""
    loaded = RmqIndex.from_bytes(index_1e6.to_bytes())
    gc.collect()
    bits = deep_size(loaded) * 8 / loaded.n
    assert bits <= 8.0, f"{bits:.2f} bits/elem resident after load"


def test_loaded_cover_footprint(index_1e6):
    """A fresh load's cover, less its type registry, holds the inorder map's
    runs, their range-minimum table and the per-micro columns, and no
    Euler tour of the micro-root tree: at most 1 bit per element (0.75
    measured; 2.02 when it held the tour's keys and their sparse table,
    1.45 of that)."""
    cover = RmqIndex.from_bytes(index_1e6.to_bytes()).cover
    gc.collect()
    bits = (deep_size(cover) - deep_size(cover.registry)) * 8 / cover.n
    assert bits <= 1.0, f"{bits:.2f} bits/elem held by the cover after load"


def test_warm_footprint(index_1e6):
    """After a query stream has built most lookup tables, their 16-bit
    entries keep the whole index within 80 bits per element."""
    loaded = RmqIndex.from_bytes(index_1e6.to_bytes())
    rng = random.Random(20)
    n = loaded.n
    for _ in range(20000):
        i = rng.randint(1, n)
        loaded.query(i, rng.randint(i, n))
    gc.collect()
    bits = deep_size(loaded) * 8 / n
    assert bits <= 80.0, f"{bits:.2f} bits/elem resident after 20000 queries"


def test_huffman_load_no_larger_than_entropy():
    """A huffman load holds no payload, so a fresh huffman load, whose file
    is the smallest, is no larger in memory than an entropy load."""
    values = np.random.default_rng(1_000_003).permutation(10**5).tolist()
    bits = {}
    for codec in ("entropy", "huffman"):
        loaded = RmqIndex.from_bytes(RmqIndex.build(values, codec=codec).to_bytes())
        gc.collect()
        bits[codec] = deep_size(loaded) * 8 / loaded.n
    assert bits["huffman"] <= bits["entropy"], bits


class TestTableMemory:
    """Every type's lookup table built: each holds the shape's inorder left
    depths, 8 bits per entry here, and one array of sparse-table positions,
    16 bits per entry."""

    # bits per element at n = 2 * 10^5, 452 tables; they measured 16.3 with
    # 8-bit left depths and their block-minimum positions, 24.9 when a table
    # held 16-bit in2pre in place of the left depths, and 69.6 when it also
    # held pre2in, left sizes and one array per sparse level
    BOUND = 19.5

    def test_every_table_built(self):
        n = 200_000
        values = np.random.default_rng(1).permutation(n)
        registry = RmqIndex.from_bytes(RmqIndex.build(values).to_bytes()).cover.registry
        for type_id in range(len(registry)):
            registry.table(type_id)
        gc.collect()
        bits = deep_size(registry.tables) * 8 / n
        assert bits <= self.BOUND, f"{len(registry)} tables hold {bits:.2f} bits/elem"


class TestSerialization:
    @pytest.mark.parametrize("codec", ["fixed", "entropy", "huffman"])
    def test_roundtrip(self, codec):
        rng = random.Random(31)
        arr = [rng.randint(0, 999) for _ in range(700)]
        idx = RmqIndex.build(arr, codec=codec, micro_b=6)
        data = idx.to_bytes()
        back = RmqIndex.from_bytes(data)
        assert back.n == 700 and back.codec == codec
        for _ in range(2000):
            i = rng.randint(1, 700)
            j = rng.randint(i, 700)
            assert back.query(i, j) == idx.query(i, j)

    def test_concurrent_readers_of_fresh_load(self):
        # four threads share one just-loaded index, so they build its lookup
        # tables while the others read them
        n = 20000
        arr = np.random.default_rng(13).permutation(n).tolist()
        blob = RmqIndex.build(arr).to_bytes()
        oracle = OracleRmq(arr, "sparse")
        idx = RmqIndex.from_bytes(blob)
        assert idx.cover.registry.tables_built() == 0
        rng = random.Random(14)
        batches = []
        for _ in range(4):
            batch = []
            for _ in range(1500):
                i = rng.randint(1, n)
                batch.append((i, rng.randint(i, n)))
            batches.append(batch)
        start = threading.Barrier(4)
        results = [None] * 4

        def reader(k):
            start.wait()
            results[k] = [idx.query(i, j) for i, j in batches[k]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside table builds too
        try:
            threads = [threading.Thread(target=reader, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k in range(4):
            assert results[k] == [oracle.query(i, j) for i, j in batches[k]]
        assert idx.cover.registry.tables_built() > 0

    def test_type_payload_parsed_at_load(self):
        # queries never read TARR, but a load parses it: a damaged payload
        # fails the load, even with a valid CRC
        arr = np.random.default_rng(4).permutation(2000).tolist()
        idx = RmqIndex.build(arr)
        _, sections = read_stream(idx.to_bytes())
        sections[b"TARR"] = sections[b"TARR"][:-8]
        with pytest.raises(DecodeError, match="truncated"):
            RmqIndex.from_bytes(write_stream(FORMAT_VERSION, list(sections.items())))

    def test_malformed(self):
        idx = RmqIndex.build([4, 2, 7])
        data = idx.to_bytes()
        with pytest.raises(DecodeError):
            RmqIndex.from_bytes(data[: len(data) // 2])
        with pytest.raises(DecodeError):
            RmqIndex.from_bytes(b"JUNK" + data[4:])


class TestMalformedSections:
    """Every cut of a cover section, a missing section and a stream of another
    format version raise DecodeError (n = 5000, default parameters)."""

    @pytest.fixture(scope="class")
    def sections(self):
        arr = np.random.default_rng(17).permutation(5000).tolist()
        version, sections = read_stream(RmqIndex.build(arr, codec="entropy").to_bytes())
        assert version == FORMAT_VERSION == 9
        return sections

    @staticmethod
    def stream(sections, version=FORMAT_VERSION, drop=None, **replace):
        return write_stream(version, [(tag, replace.get(tag.decode("ascii"), payload))
                                      for tag, payload in sections.items()
                                      if tag.decode("ascii") != drop])

    def test_intact_stream_loads(self, sections):
        idx = RmqIndex.from_bytes(self.stream(sections))
        assert idx.n == 5000 and idx.query(1, 5000) >= 1

    @pytest.mark.parametrize("tag", ["RMET", "CMET", "MICR", "PCAS", "TYPR", "TARR"])
    def test_every_truncation(self, sections, tag):
        payload = sections[tag.encode("ascii")]
        for cut in range(len(payload)):
            with pytest.raises(DecodeError):
                RmqIndex.from_bytes(self.stream(sections, **{tag: payload[:cut]}))

    @pytest.mark.parametrize("tag", ["RMET", "CMET", "MICR", "PCAS", "TYPR", "TARR"])
    def test_trailing_bytes(self, sections, tag):
        payload = sections[tag.encode("ascii")]
        with pytest.raises(DecodeError, match="stray bytes"):
            RmqIndex.from_bytes(self.stream(sections, **{tag: payload + b"\0"}))

    @pytest.mark.parametrize("tag", ["RMET", "CMET", "MICR", "PCAS", "TYPR", "TARR"])
    def test_missing_section(self, sections, tag):
        with pytest.raises(DecodeError):
            RmqIndex.from_bytes(self.stream(sections, drop=tag))

    def test_oversized_counts(self, sections):
        for tag in ("MICR", "PCAS", "TYPR", "TARR"):
            payload = sections[tag.encode("ascii")]
            with pytest.raises(DecodeError, match="exceeds its section"):
                RmqIndex.from_bytes(self.stream(sections, **{tag: b"\xff" * 4 + payload[4:]}))

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_other_versions_rejected(self, sections, version):
        with pytest.raises(DecodeError, match="version"):
            RmqIndex.from_bytes(self.stream(sections, version=version))

    @pytest.mark.parametrize("tag", ["RMET", "CMET", "MICR", "PCAS", "TYPR", "TARR"])
    def test_crc_mismatch_names_section(self, sections, tag):
        blob = bytearray(self.stream(sections))
        pos = 8  # walk the section headers: tag, length, CRC
        while blob[pos:pos + 4] != tag.encode("ascii"):
            pos += 16 + int.from_bytes(blob[pos + 4:pos + 12], "little")
        blob[pos + 16 + len(sections[tag.encode("ascii")]) // 2] ^= 0x10
        with pytest.raises(DecodeError, match=f"CRC mismatch in section {tag}"):
            RmqIndex.from_bytes(bytes(blob))

    def test_stray_bytes_after_last_section(self, sections):
        with pytest.raises(DecodeError, match="stray bytes"):
            RmqIndex.from_bytes(self.stream(sections) + b"\0")

    @pytest.mark.parametrize("codec,tag", [("entropy", "HUFF"), ("entropy", "JUNK"),
                                           ("fixed", "TARR"), ("fixed", "HUFF"),
                                           ("huffman", "TARR"), ("huffman", "HUFF")])
    def test_section_outside_the_codec_rejected(self, sections, codec, tag):
        # a section the codec does not hold would load, answer and be dropped
        # when the index writes itself back
        extra = sections[b"TARR"] if tag == "TARR" else b"\0" * 8
        if codec != "entropy":
            arr = np.random.default_rng(17).permutation(5000).tolist()
            sections = read_stream(RmqIndex.build(arr, codec=codec).to_bytes())[1]
        with pytest.raises(DecodeError, match=f"a {codec} index holds no {tag} section"):
            RmqIndex.from_bytes(write_stream(FORMAT_VERSION, [*sections.items(),
                                                              (tag.encode("ascii"), extra)]))

    @pytest.mark.parametrize("tag", ["RMET", "TYPR", "TARR"])
    def test_repeated_section_rejected(self, sections, tag):
        repeat = (tag.encode("ascii"), sections[tag.encode("ascii")])
        with pytest.raises(DecodeError, match=f"repeated section {tag}"):
            RmqIndex.from_bytes(write_stream(FORMAT_VERSION, [*sections.items(), repeat]))


class TestValueChecks:
    """Well-formed sections whose values break the cover are rejected at
    load: each case rewrites one entry of one column (n = 300, `micro_b` 4)."""

    @pytest.fixture(scope="class")
    def sections(self):
        arr = np.random.default_rng(300).permutation(300).tolist()
        return read_stream(RmqIndex.build(arr, micro_b=4).to_bytes())[1]

    @staticmethod
    def rewrite(sections, column, index, value):
        tag, names = next((t, names) for t, names in _SECTIONS if column in names)
        r = Reader(sections[tag], tag.decode("ascii"))
        cols = [read_column(r) for _ in names]
        cols[names.index(column)][index] = value
        out = dict(sections)
        out[tag] = b"".join(pack_column(c) for c in cols)
        return write_stream(FORMAT_VERSION, list(out.items()))

    def test_rewrite_to_the_same_value_loads(self, sections):
        loaded = RmqIndex.from_bytes(write_stream(FORMAT_VERSION, list(sections.items())))
        blob = self.rewrite(sections, "type_of", 0, loaded.cover.type_of[1])
        assert RmqIndex.from_bytes(blob).query(1, 300) == loaded.query(1, 300)

    def test_members_must_sum_to_n(self, sections):
        out = dict(sections)
        out[b"CMET"] = struct.pack("<Q", 301) + sections[b"CMET"][8:]
        with pytest.raises(DecodeError, match="sum to n"):
            RmqIndex.from_bytes(write_stream(FORMAT_VERSION, list(out.items())))

    @pytest.mark.parametrize("column,index,value", [
        ("type_of", 0, 10**6),  # a type the registry does not hold
        ("p_pos", 0, 10**4),  # a portal outside its shape
    ])
    def test_bad_value_rejected(self, sections, column, index, value):
        with pytest.raises(DecodeError):
            RmqIndex.from_bytes(self.rewrite(sections, column, index, value))

    @staticmethod
    def column(sections, name):
        tag, names = next((t, names) for t, names in _SECTIONS if name in names)
        r = Reader(sections[tag], tag.decode("ascii"))
        return [read_column(r) for _ in names][names.index(name)]

    @pytest.mark.parametrize("column,edit,message", [
        # micro 1 has no portal, so the tree ends before micro 2
        ("p_count", lambda col: (0, 0), "degree sequence"),
        # the last micro opens a portal that no micro takes
        ("p_count", lambda col: (len(col) - 1, col[-1] + 1), "degree sequence"),
        # a third portal, which no one-tier micro has
        ("p_count", lambda col: (0, 3), "more than two portals"),
    ], ids=["tree-closes-early", "slots-left-open", "three-portals"])
    def test_bad_tree_rejected(self, sections, column, edit, message):
        at, value = edit(self.column(sections, column))
        with pytest.raises(DecodeError, match=message):
            RmqIndex.from_bytes(self.rewrite(sections, column, at, value))

    @pytest.mark.parametrize("edit", [
        lambda col, size, last, follows: (0, 0),  # before its shape's first inorder position
        # a micro's last portal one past that micro's shape
        lambda col, size, last, follows: (last[0], size[last[0]] + 1),
        # one above the previous portal of its micro, with no member between
        lambda col, size, last, follows: (follows[0], col[follows[0] - 1] + 1),
    ], ids=["zero", "past-shape", "no-member-between"])
    def test_bad_inorder_portal_rejected(self, sections, edit):
        # portals are grouped by micro; `size` is each portal's micro's shape
        # size, `last` lists each micro's last portal and `follows` every
        # portal after another of its micro
        cov = RmqIndex.from_bytes(write_stream(FORMAT_VERSION, list(sections.items()))).cover
        p_count = self.column(sections, "p_count")
        owner = np.repeat(np.arange(1, len(p_count) + 1), p_count)
        size = np.asarray(cov.shape_size)[owner]
        last = np.flatnonzero(np.append(owner[1:] != owner[:-1], True))
        follows = np.flatnonzero(owner[1:] == owner[:-1]) + 1
        col = self.column(sections, "p_in")
        at, value = (int(x) for x in edit(col, size, last, follows))
        assert value != col[at]
        with pytest.raises(DecodeError, match="portal inorder positions"):
            RmqIndex.from_bytes(self.rewrite(sections, "p_in", at, value))

    @pytest.mark.parametrize("nbits", [1, 4], ids=["short", "even"])
    def test_bad_typr_header_rejected(self, sections, nbits):
        # a shape size is read off its type's TYPR record size, 2s + 1 for s >= 1
        keys = VariableCellArray.from_bytes(sections[b"TYPR"])
        records = [keys.object_bits(t) for t in range(1, keys.m + 1)]
        records[0] = (0, nbits)
        out = dict(sections)
        out[b"TYPR"] = VariableCellArray(records).to_bytes()
        with pytest.raises(DecodeError, match="TYPR record"):
            RmqIndex.from_bytes(write_stream(FORMAT_VERSION, list(out.items())))

    @pytest.mark.parametrize("short", [True, False], ids=["word-short", "word-over"])
    def test_typr_payload_length_checked(self, sections, short):
        typr = sections[b"TYPR"]
        out = {**sections, b"TYPR": typr[:-8] if short else typr + bytes(8)}
        with pytest.raises(DecodeError, match="truncated|stray bytes"):
            RmqIndex.from_bytes(write_stream(FORMAT_VERSION, list(out.items())))

    @pytest.mark.parametrize("tag", ["TYPR", "TARR"])
    @pytest.mark.parametrize("short", [True, False], ids=["word-short", "word-over"])
    def test_payload_length_error_names_section(self, sections, tag, short):
        payload = sections[tag.encode("ascii")]
        out = {**sections, tag.encode("ascii"): payload[:-8] if short else payload + bytes(8)}
        message = f"truncated {tag} section" if short else f"stray bytes after {tag} section"
        with pytest.raises(DecodeError, match=message):
            RmqIndex.from_bytes(write_stream(FORMAT_VERSION, list(out.items())))


class TestTypePayloadChecks:
    """`TARR`, the entropy payload, parsed at load, holds one object per micro
    tree, and each object's size fits its micro's shape.  Each case re-wraps
    the file, so every CRC is valid."""

    @staticmethod
    def sections(n, codec):
        arr = np.random.default_rng(n).permutation(n).tolist()
        return read_stream(RmqIndex.build(arr, codec=codec).to_bytes())[1]

    @staticmethod
    def load(sections, **replace):
        out = {**sections, **{tag.encode("ascii"): blob for tag, blob in replace.items()}}
        return RmqIndex.from_bytes(write_stream(FORMAT_VERSION, list(out.items())))

    def test_foreign_payload_rejected_on_first_use(self):
        # the load is the payload's first use
        sections = self.sections(3000, "entropy")
        other = self.sections(2000, "entropy")
        own = self.load(sections)
        assert VariableCellArray.from_bytes(other[b"TARR"]).m != own.cover.micro_count()
        with pytest.raises(DecodeError, match="micro trees"):
            self.load(sections, TARR=other[b"TARR"])

    @pytest.mark.parametrize("codec", ["entropy"])  # the one codec that stores objects
    def test_object_size_must_fit_shape(self, codec):
        sections = self.sections(3000, codec)
        idx = self.load(sections)
        vca = idx.type_array.vca
        objects = [vca.object_bits(i) for i in range(1, vca.m + 1)]
        assert self.load(sections, TARR=VariableCellArray(objects).to_bytes()).n == 3000
        for i, m in enumerate(idx.cover.micros_by_k):
            value, size = objects[i]
            s = m.shape_size
            # fixed 2s + 3 and entropy 2s + 4 bits were format 4's sizes, with
            # two portal-side flags before the code
            wrong = [0, 2 * s + 3, 2 * s + 4]
            for bad in wrong:
                changed = list(objects)
                changed[i] = (value >> max(size - bad, 0), bad)
                with pytest.raises(DecodeError, match="bits for a"):
                    self.load(sections, TARR=VariableCellArray(changed).to_bytes())

    def test_huge_object_size_rejected(self):
        # TARR stores no block size; an object size past the section fails
        # before anything is allocated for it
        sections = self.sections(3000, "entropy")
        sizes = read_column(Reader(sections[b"TARR"], "TARR"))
        for big in (1 << 40, (1 << 63) - 1):
            bad = sizes.copy()
            bad[0] = big
            tarr = pack_column(bad) + sections[b"TARR"][len(pack_column(sizes)):]
            with pytest.raises(DecodeError, match="object size"):
                self.load(sections, TARR=tarr)

    @pytest.mark.parametrize("codec", ["fixed", "huffman"])
    def test_keyed_codecs_store_no_payload(self, codec):
        # a loaded fixed or huffman index builds each micro's table from its
        # type's TYPR key, which is what queries read
        sections = self.sections(3000, codec)
        assert sorted(sections) == [b"CMET", b"MICR", b"PCAS", b"RMET", b"TYPR"]
        idx = self.load(sections)
        for i, m in enumerate(idx.cover.micros_by_k, start=1):
            table = idx.type_array.decode_type(i, m.shape_size)
            assert table.ld == idx.cover.registry.table(m.type_id).ld
