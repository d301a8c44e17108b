"""Per-layer probes for the traced run (``run.py --trace 1``).

Each probe calls one module's public functions from outside the library and
times them here, in the benchmark's own code. Spans (name, start, end, parent
span, query id) are kept in memory and written to
``perfbench/out/spans-<workload>-seed<seed>.jsonl`` when the run ends.

The library's internals will change. A probe whose call or attribute no
longer exists, or whose mirrored result disagrees with the reference, records
``unavailable: <error>`` for its metrics and the run carries on. The
user-level answers checked here (cold block and warm-up) use only the public
``RmqIndex`` / ``LcpData`` API, like the end-to-end run.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from workloads import argmin_reference, count_failures, rng_for, timed_stream

TRACED_QUERIES = 5000  # queries in the traced, untraced and per-call probe passes
DECODE_SAMPLE_TYPES = 50
DECODE_SAMPLE_MICROS = 200
SECTION_TAGS = ("RMET", "CMET", "MINI", "MICR", "PCAS", "TYPR", "TARR")
LCA_CASES = ("same", "ancestor", "meet")
OUT_DIR = Path(__file__).resolve().parent / "out"

UNITS = {
    "trees.build_cartesian_s": "s",
    "cover.build_cover_s": "s",
    "microcodec.encode_types_s": "s",
    "rmq.build_other_s": "s",
    "lcp.from_text_s": "s",
    "serial.read_stream_s": "s",
    "cover.from_sections_s": "s",
    "bits.vca_from_bytes_s": "s",
    "cover.select_us": "us",
    "cover.lca_us": "us",
    "cover.rank_us": "us",
    **{f"cover.lca_case_share.{c}": "ratio" for c in LCA_CASES},
    **{f"cover.lca_us.{c}": "us" for c in LCA_CASES},
    "bits.rank1_us": "us",
    "bits.select1_us": "us",
    "rmq.ops_per_query": "count",
    "rmq.ops_per_query_max": "count",
    "microcodec.tables_built.cold": "count",
    "microcodec.tables_built.warm": "count",
    "microcodec.table_decodes_per_cold_query": "count",
    "microcodec.table_decode_ms": "ms",
    "treecode.decode_type_us": "us",
    "microcodec.lookup_table_bits_per_elem": "bits",
    "microcodec.payload_bits_per_elem": "bits",
    "report.bits_per_elem": "bits",
    "microcodec.distinct_types": "count",
    "cover.micro_trees": "count",
    **{f"serial.section_bits_per_elem.{t}": "bits" for t in SECTION_TAGS},
    "rmq.argmin_scan_us_p50": "us",
    "rmq.oracle_sparse_us_p50": "us",
    "trace.overhead_us": "us",
    "trace.span_coverage": "ratio",
}

ns = time.perf_counter_ns


class Spans:
    """In-memory span log: rows of (id, parent, query id, name, start ns, end ns)."""

    def __init__(self):
        self.rows: list[tuple[int, int, int, str, int, int]] = []

    def add(self, name: str, start: int, end: int, parent: int = 0, query: int = -1) -> int:
        sid = len(self.rows) + 1
        self.rows.append((sid, parent, query, name, start, end))
        return sid

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name: duration minus the child spans' durations."""
        own = {sid: end - start for sid, _, _, _, start, end in self.rows}
        for _, parent, _, _, start, end in self.rows:
            if parent:
                own[parent] -= end - start
        totals: dict[str, int] = {}
        for sid, _, _, name, _, _ in self.rows:
            totals[name] = totals.get(name, 0) + own[sid]
        return totals

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, query, name, start, end in self.rows:
                fh.write(json.dumps({"id": sid, "parent": parent, "query": query, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")


def mod(name: str):
    """A library module, imported when a probe first needs it."""
    return importlib.import_module(f"succinctrmq.{name}")


def probe(metrics: dict, names, fn) -> None:
    """Run one probe; on any error mark its metrics unavailable and carry on."""
    try:
        values = fn()
    except Exception as exc:  # noqa: BLE001 - a probe must never stop the run
        print(f"perfbench: probe for {', '.join(names)} is unavailable:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        reason = f"{type(exc).__name__}: {exc}"
        for name in names:
            metrics[name] = {"value": None, "unavailable": reason}
        return
    metrics.update(values)


def p50_us(values_ns) -> float:
    return statistics.median(values_ns) / 1e3


def per_layer(lib, case, seed: int):
    n = case.n
    metrics: dict = {}
    spans = Spans()
    state: dict = {}

    def timed(name, call, parent=0):
        """(result, seconds, span id) of one call, recorded as a span."""
        start = ns()
        result = call()
        end = ns()
        return result, (end - start) / 1e9, spans.add(name, start, end, parent)

    # ---- set-up: public API, then each build phase on its own ------------------
    lcp_data = None
    metrics["lcp.from_text_s"] = 0.0  # unless the workload has a text to index
    if case.text is not None:
        lcp_data, metrics["lcp.from_text_s"], _ = timed(
            "lcp.from_text", lambda: lib.LcpData.from_text(case.text))
    values = case.values if lcp_data is None else lcp_data.lcp[1:]
    index, build_s, build_span = timed("rmq.build", lambda: lib.RmqIndex.build(values))
    codec = index.codec
    blob = index.to_bytes()
    del index

    def phase(name, call):
        def run():
            state[name], seconds, _ = timed(name, call, build_span)
            return {name + "_s": seconds}
        probe(metrics, [name + "_s"], run)

    phase("trees.build_cartesian", lambda: mod("trees").build_cartesian(values))
    phase("cover.build_cover", lambda: mod("cover").build_cover(state["trees.build_cartesian"]))
    phase("microcodec.encode_types", lambda: mod("microcodec").encode_types(
        state["cover.build_cover"].type_ids, state["cover.build_cover"].registry, codec))
    probe(metrics, ["rmq.build_other_s"], lambda: {"rmq.build_other_s": build_s - sum(
        metrics[m] for m in ("trees.build_cartesian_s", "cover.build_cover_s",
                             "microcodec.encode_types_s"))})
    state.clear()

    # ---- load: the container, the cover, then the encoded types -------------
    def read_stream():
        (_, sections), seconds, _ = timed("serial.read_stream",
                                          lambda: mod("serial").read_stream(blob))
        state["sections"] = sections
        out = {"serial.read_stream_s": seconds}
        for tag in SECTION_TAGS:  # a section the format no longer has takes 0 bits
            out[f"serial.section_bits_per_elem.{tag}"] = (
                len(sections.get(tag.encode("ascii"), b"")) * 8 / n)
        return out

    probe(metrics, ["serial.read_stream_s",
                    *(f"serial.section_bits_per_elem.{t}" for t in SECTION_TAGS)], read_stream)
    probe(metrics, ["cover.from_sections_s"], lambda: {"cover.from_sections_s": timed(
        "cover.from_sections",
        lambda: mod("cover").TreeCover.from_sections(state["sections"]))[1]})
    probe(metrics, ["bits.vca_from_bytes_s"], lambda: {"bits.vca_from_bytes_s": timed(
        "bits.vca_from_bytes",
        lambda: mod("bits").VariableCellArray.from_bytes(state["sections"][b"TARR"]))[1]})
    state.clear()

    # ---- user-level streams on a fresh load, with table counts around them ---
    loaded = lib.RmqIndex.from_bytes(blob)
    reference = case.reference(lcp_data)
    fn = case.answer_fn(loaded, lcp_data)

    def tables():
        return loaded.cover.registry.tables_built()

    cold = case.queries[:case.workload.cold_block]
    attempted = failed = 0

    before = _attempt(tables)
    _, answers, _ = timed_stream(fn, cold)
    failed += count_failures(answers, reference, "cold block")
    attempted += len(answers)
    after = _attempt(tables)
    probe(metrics, ["microcodec.tables_built.cold", "microcodec.table_decodes_per_cold_query"],
          lambda: {"microcodec.tables_built.cold": _ok(after) - _ok(before),
                   "microcodec.table_decodes_per_cold_query":
                       (_ok(after) - _ok(before)) / len(cold)})
    _, answers, _ = timed_stream(fn, case.queries)  # warm-up, as in the end-to-end run
    failed += count_failures(answers, reference, "warm-up")
    attempted += len(answers)
    del answers

    # ---- RMQ-level passes: untraced, then mirrored with spans ----------------
    ranges = case.rmq_ranges(lcp_data)[:TRACED_QUERIES]
    rmq_vals = case.rmq_values(lcp_data)
    rmq_ref = argmin_reference(rmq_vals, ranges)
    before = _attempt(tables)
    untraced, answers, _ = timed_stream(loaded.query, ranges)
    failed += count_failures(answers, rmq_ref, "untraced RMQ pass")
    attempted += len(answers)
    probe(metrics, _TRACE_NAMES,
          lambda: _traced_queries(loaded.cover, ranges, rmq_ref, spans, p50_us(untraced)))
    after = _attempt(tables)
    probe(metrics, ["microcodec.tables_built.warm"],
          lambda: {"microcodec.tables_built.warm": _ok(after) - _ok(before)})

    def bit_ops():
        c_in = loaded.cover.c_in
        rank_ns, select_ns = [], []
        for q in ranges:
            for x in q:
                t0 = ns()
                r = c_in.rank1(x)
                t1 = ns()
                c_in.select1(r)
                t2 = ns()
                rank_ns.append(t1 - t0)
                select_ns.append(t2 - t1)
        return {"bits.rank1_us": p50_us(rank_ns), "bits.select1_us": p50_us(select_ns)}

    def ops_per_query():
        opcount = mod("opcount")
        ops = []
        for i, j in ranges:
            start = opcount.snapshot()
            loaded.query(i, j)
            ops.append(opcount.snapshot() - start)
        return {"rmq.ops_per_query": statistics.fmean(ops), "rmq.ops_per_query_max": max(ops)}

    sample_rng = rng_for(seed, 2)

    def table_decode():
        registry = loaded.cover.registry
        shape_table = mod("microcodec").ShapeTable
        picks = sample_rng.choice(len(registry), size=min(DECODE_SAMPLE_TYPES, len(registry)),
                                  replace=False)
        took = []
        for t in picks.tolist():
            t0 = ns()
            shape_table.from_zaks(registry.zaks_bits(t))
            took.append(ns() - t0)
        return {"microcodec.table_decode_ms": statistics.fmean(took) / 1e6}

    def decode_type():
        micros = loaded.cover.micros_by_k
        picks = sample_rng.choice(len(micros), size=min(DECODE_SAMPLE_MICROS, len(micros)),
                                  replace=False)
        took = []
        for i in picks.tolist():
            t0 = ns()
            loaded.type_array.decode_type(i + 1, micros[i].shape_size)  # objects are 1-based
            took.append(ns() - t0)
        return {"treecode.decode_type_us": statistics.fmean(took) / 1e3}

    def argmin_scan():
        took = []
        for i, j in ranges:
            t0 = ns()
            int(np.argmin(rmq_vals[i - 1:j]))
            took.append(ns() - t0)
        return {"rmq.argmin_scan_us_p50": p50_us(took)}

    def oracle_sparse():
        oracle = lib.OracleRmq(values, "sparse")
        took, answers = [], []
        for i, j in ranges:
            t0 = ns()
            answers.append(oracle.query(i, j))
            took.append(ns() - t0)
        if answers != rmq_ref:
            raise AssertionError("sparse-table oracle disagrees with the numpy reference")
        return {"rmq.oracle_sparse_us_p50": p50_us(took)}

    probe(metrics, ["bits.rank1_us", "bits.select1_us"], bit_ops)
    probe(metrics, ["rmq.ops_per_query", "rmq.ops_per_query_max"], ops_per_query)
    probe(metrics, ["microcodec.table_decode_ms"], table_decode)
    probe(metrics, ["treecode.decode_type_us"], decode_type)
    probe(metrics, ["rmq.argmin_scan_us_p50"], argmin_scan)
    probe(metrics, ["rmq.oracle_sparse_us_p50"], oracle_sparse)

    # ---- space, after the streams --------------------------------------------
    probe(metrics, ["microcodec.lookup_table_bits_per_elem"], lambda: {
        "microcodec.lookup_table_bits_per_elem": loaded.cover.registry.tables_space_bits() / n})
    for metric, key in (("microcodec.payload_bits_per_elem", "micro_payload_per_element"),
                        ("report.bits_per_elem", "bits_per_element"),
                        ("microcodec.distinct_types", "distinct_types"),
                        ("cover.micro_trees", "micro_trees")):
        probe(metrics, [metric],
              lambda metric=metric, key=key: {metric: loaded.space_report()[key]})

    self_ns = spans.self_ns()
    out = OUT_DIR / f"spans-{case.workload.name}-seed{seed}.jsonl"
    spans.write(out, {"workload": case.workload.name, "seed": seed, "n": n,
                      "self_ns": self_ns})
    print(f"spans: {len(spans.rows)} written to {out.relative_to(OUT_DIR.parent.parent)}")
    for name, total in sorted(self_ns.items()):
        print(f"self time {name:<38} {total / 1e9:>12.6f} s")
    return {name: metrics[name] for name in UNITS}, UNITS, {}, attempted, failed


_TRACE_NAMES = ["cover.select_us", "cover.lca_us", "cover.rank_us",
                *(f"cover.lca_case_share.{c}" for c in LCA_CASES),
                *(f"cover.lca_us.{c}" for c in LCA_CASES),
                "trace.overhead_us", "trace.span_coverage"]


def _attempt(fn):
    """(value, None) or (None, the exception), for reads a probe depends on."""
    try:
        return fn(), None
    except Exception as exc:  # noqa: BLE001 - reported by the probe that uses it
        return None, exc


def _ok(attempt):
    value, exc = attempt
    if exc is not None:
        raise exc
    return value


def _traced_queries(cover, ranges, reference, spans: Spans, untraced_p50_us: float) -> dict:
    """Mirror RmqIndex.query (inorder select twice, LCA, inorder rank) with a
    span around each call; classify the LCA case from the returned names."""
    select, lca, rank = cover.nodeselect_inorder, cover.lca, cover.noderank_inorder
    select_ns, lca_ns, rank_ns, query_ns = [], [], [], []
    case_ns: dict[str, list[int]] = {c: [] for c in LCA_CASES}
    covered = 0
    for qid, (i, j) in enumerate(ranges):
        q0 = ns()
        s0 = ns()
        u = select(i)
        e0 = ns()
        s1 = ns()
        v = select(j)
        e1 = ns()
        s2 = ns()
        w = lca(u, v)
        e2 = ns()
        s3 = ns()
        r = rank(w)
        e3 = ns()
        q1 = ns()
        if r != reference[qid]:
            raise AssertionError(f"mirrored query ({i},{j}) gave {r}, expected {reference[qid]}")
        top = spans.add("rmq.query", q0, q1, query=qid)
        spans.add("cover.select", s0, e0, top, qid)
        spans.add("cover.select", s1, e1, top, qid)
        spans.add("cover.lca", s2, e2, top, qid)
        spans.add("cover.rank", s3, e3, top, qid)
        mu, mv, mw = (u.t1, u.t2), (v.t1, v.t2), (w.t1, w.t2)
        kind = "same" if mu == mv == mw else "ancestor" if mw in (mu, mv) else "meet"
        select_ns += (e0 - s0, e1 - s1)
        lca_ns.append(e2 - s2)
        rank_ns.append(e3 - s3)
        query_ns.append(q1 - q0)
        case_ns[kind].append(e2 - s2)
        covered += (e0 - s0) + (e1 - s1) + (e2 - s2) + (e3 - s3)
    out = {"cover.select_us": p50_us(select_ns), "cover.lca_us": p50_us(lca_ns),
           "cover.rank_us": p50_us(rank_ns),
           "trace.overhead_us": p50_us(query_ns) - untraced_p50_us,
           "trace.span_coverage": covered / sum(query_ns)}
    for c in LCA_CASES:
        out[f"cover.lca_case_share.{c}"] = len(case_ns[c]) / len(ranges)
        out[f"cover.lca_us.{c}"] = (p50_us(case_ns[c]) if case_ns[c] else
                                    {"value": None, "unavailable": "no query took this case"})
    return out
