"""Benchmark of the succinct RMQ index: one workload per run.

    python3 perfbench/run.py --workload lcp-dna-2e5 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

The run builds the library from the checkout's ``src/`` and drives it only
through ``RmqIndex.build / query / to_bytes / from_bytes`` and
``LcpData.from_text / lce``: one caller, one thread, closed loop. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
the per-layer probes of ``layers.py`` instead. End-to-end times are scaled to
a nominal machine speed read from ``yardstick.py``; the unscaled figures are
printed next to them. Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every answer is checked
against a numpy reference; any failure gives exit code 1.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np

from yardstick import NOMINAL_NS, Yardstick
from workloads import WORKLOADS, Workload, argmin_reference, count_failures, \
    dna_text, lce_queries, lce_reference, permutation, rmq_queries, timed_stream

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
HELD_OUT_SEED = 97
DEFAULT_SECONDS = 35
# The machine's speed drifts between states that last seconds, so the warm
# stream is cut into windows spread over the whole measuring phase.
WINDOW_S = 0.1
# Loads are few, long and the noisiest, warm windows many and short: the
# loads (each with its cold block) get this share of the measuring phase.
FRESH_SHARE = 2 / 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "load_s": "s",
    "cold_query_us_mean": "us",
    "query_us_p50": "us",
    "query_us_p99": "us",
    "query_qps": "1/s",
    "file_bits_per_elem": "bits",
    "resident_bits_per_elem": "bits",
    "peak_rss_mb": "MB",
}
# Printed by name with the others, but not in the result line's metrics: the
# failures are its `failed` / `attempted`, the yardstick is the machine's speed.
PRINTED_UNITS = {"error_rate": "ratio", "ops_failed": "count", "yardstick_ns": "ns"}


def import_library():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "succinctrmq" / "__init__.py").is_file():
        sys.exit(f"perfbench: library source {SRC / 'succinctrmq'} not found; "
                 "run from a full checkout")
    sys.path.insert(0, str(SRC))
    import succinctrmq
    if Path(succinctrmq.__file__).resolve().parent != SRC / "succinctrmq":
        sys.exit(f"perfbench: imported {succinctrmq.__file__}, not the checkout's copy")
    return succinctrmq


class Case:
    """One workload's generated input and query list, with its set-up step."""

    def __init__(self, lib, workload: Workload, seed: int, n: int):
        self.lib = lib
        self.workload = workload
        self.n = n
        if workload.kind == "perm":
            self.values = permutation(n, seed)
            self.text = None
            self.queries = rmq_queries(n, seed)
        else:
            self.values = None
            self.text = dna_text(n, seed)
            self.queries = lce_queries(n, seed)

    def setup(self):
        """From the generated input to a queryable index: (index, lcp data or None)."""
        if self.text is None:
            return self.lib.RmqIndex.build(self.values), None
        data = self.lib.LcpData.from_text(self.text)
        return self.lib.RmqIndex.build(data.lcp[1:]), data

    def answer_fn(self, index, lcp_data):
        """The user-level query: RMQ, or LCE through the index."""
        if lcp_data is None:
            return index.query
        return functools.partial(lcp_data.lce, rmq_query=index.query)

    def reference(self, lcp_data) -> list[int]:
        if lcp_data is None:
            return argmin_reference(np.asarray(self.values), self.queries)
        return lce_reference(self.text, lcp_data.isa, lcp_data.lcp, self.queries)

    def rmq_ranges(self, lcp_data) -> list[tuple[int, int]]:
        """The RMQ calls the queries make: the queries themselves, or the
        suffix-rank ranges that lce asks the index for."""
        if lcp_data is None:
            return self.queries
        isa = lcp_data.isa
        return [(min(isa[i], isa[j]) + 1, max(isa[i], isa[j])) for i, j in self.queries]

    def rmq_values(self, lcp_data) -> np.ndarray:
        return np.asarray(self.values if lcp_data is None else lcp_data.lcp[1:])


def deep_size(root) -> int:
    """Bytes held by every object reachable from `root` (sys.getsizeof of each
    object once; classes, modules and functions are not counted)."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen: set[int] = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def percentile_us(values_ns, q: float) -> float:
    return float(np.percentile(np.asarray(values_ns, dtype=np.float64), q)) / 1e3


def end_to_end(lib, case: Case, seconds: float):
    """The first set-up and load make the index that serves the warm stream.
    Then, for `seconds`, the run alternates 0.1-s windows of the warm stream
    with fresh loads, each followed by the cold block, giving the loads
    FRESH_SHARE of the time, and runs its other set-ups at evenly spaced
    moments. Each timing figure samples the whole phase: setup_s is the median
    set-up, load_s the fastest load, each cold and each warm query counts at
    its fastest repetition, and query_qps is the best window. The yardstick is
    read after every step; each figure is then scaled by NOMINAL_NS over the
    fastest reading (yardstick.py), and printed unscaled as well."""
    w = case.workload
    total = len(case.queries)
    cold_block = case.queries[:w.cold_block]
    yard = Yardstick()
    setups, loads, window_qps = [], [], []
    cold_best = np.full(len(cold_block), np.iinfo(np.int64).max)
    warm_best = np.full(total, np.iinfo(np.int64).max)
    tally = {"attempted": 0, "failed": 0, "offset": 0}

    def check(answers, label, offset=0):
        tally["failed"] += count_failures(answers, reference, label, offset)
        tally["attempted"] += len(answers)

    def set_up():
        t0 = time.perf_counter()
        built = case.setup()
        setups.append(time.perf_counter() - t0)
        yard.read()
        return built

    def fresh_load():
        t0 = time.perf_counter()
        fresh = lib.RmqIndex.from_bytes(blob)
        loads.append(time.perf_counter() - t0)
        lat, answers, _ = timed_stream(case.answer_fn(fresh, lcp_data), cold_block)
        np.minimum(cold_best, lat, out=cold_best)
        check(answers, "cold block")
        yard.read()
        return fresh

    def warm_window():
        offset = tally["offset"]
        lat, answers, wall_ns = timed_stream(fn, case.queries, WINDOW_S, offset)
        check(answers, "warm stream", offset)
        np.minimum.at(warm_best, (offset + np.arange(len(lat))) % total, lat)
        tally["offset"] += len(lat)
        window_qps.append(len(lat) / (wall_ns / 1e9))
        yard.read()

    yard.read()
    index, lcp_data = set_up()
    reference = case.reference(lcp_data)
    blob = index.to_bytes()
    del index
    loaded = fresh_load()
    fn = case.answer_fn(loaded, lcp_data)
    check(timed_stream(fn, case.queries)[1], "warm-up")  # decodes what the stream needs

    setup_at = [(k + 1) / w.setup_repeats * seconds for k in range(w.setup_repeats - 1)]
    share = {warm_window: 1 - FRESH_SHARE, fresh_load: FRESH_SHARE}
    spent = dict.fromkeys(share, 0.0)
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds or not window_qps:
        if setup_at and elapsed >= setup_at[0]:
            setup_at.pop(0)
            set_up()
            continue
        task = min(spent, key=lambda t: spent[t] / share[t])
        t0 = time.perf_counter()
        task()
        spent[task] += time.perf_counter() - t0
    for _ in setup_at:  # a tiny run may end before its set-ups are due
        set_up()
    offset = tally["offset"]
    warm_best = warm_best[:offset]  # a short stream may not reach the end of the list

    gc.collect()
    resident = deep_size(loaded)
    unscaled = {
        "setup_s": statistics.median(setups),
        "load_s": min(loads),
        "cold_query_us_mean": float(cold_best.mean()) / 1e3,
        "query_us_p50": percentile_us(warm_best, 50),
        "query_us_p99": percentile_us(warm_best, 99),
        "query_qps": max(window_qps),
    }
    fastest = min(yard.readings)
    scale = NOMINAL_NS / fastest
    metrics = {name: value / scale if name == "query_qps" else value * scale
               for name, value in unscaled.items()}
    metrics.update({
        "file_bits_per_elem": len(blob) * 8 / case.n,
        "resident_bits_per_elem": resident * 8 / case.n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    warm = (f"{len(warm_best)} distinct queries, each at its fastest of "
            f"{offset / total:.1f} repetitions on average")
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "load_s": f"fastest of {len(loads)} loads",
        "cold_query_us_mean": f"{len(cold_block)} queries, each at its fastest of "
                              f"{len(loads)} fresh loads",
        "query_us_p50": warm,
        "query_us_p99": f"{warm}; {int(len(warm_best) * 0.01)} queries above",
        "query_qps": f"best of {len(window_qps)} {WINDOW_S:g}-s windows; "
                     "one closed-loop caller",
    }
    notes = {name: f"unscaled {unscaled[name]:.6g}; {note}" for name, note in notes.items()}
    notes["yardstick_ns"] = (f"fastest of {len(yard.readings)} readings; the times above "
                             f"are scaled by {NOMINAL_NS:g} / {fastest:.1f}")
    return metrics, notes, {"yardstick_ns": fastest}, tally["attempted"], tally["failed"]


def emit(metrics: dict, units: dict, notes: dict, attempted: int, failed: int,
         extra: dict | None = None) -> None:
    shown = {**metrics, "error_rate": failed / attempted, "ops_failed": failed, **(extra or {})}
    notes = {**notes, "error_rate": f"of {attempted} operations attempted"}
    for name, value in shown.items():
        unit = units.get(name) or PRINTED_UNITS[name]
        text = "unavailable: " + value["unavailable"] if isinstance(value, dict) else f"{value:.6g}"
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<48} {text:>14} {unit}{note}")
    result = {}
    for name, value in metrics.items():
        entry = dict(value) if isinstance(value, dict) else {"value": value}
        entry["unit"] = units[name]
        result[name] = entry
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}), flush=True)


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    combined, attempted, failed, status = {}, 0, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.n:
            cmd += ["--n", str(args.n)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        if proc.returncode or not lines:
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        combined.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0 and status == 0, "attempted": max(1, attempted),
                      "failed": failed, "metrics": combined}), flush=True)
    return status or (1 if failed else 0)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}); seed {HELD_OUT_SEED} is held "
                        "out to confirm a performance claim")
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="length of the measuring phase after the first set-up "
                        "(end-to-end run only)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer probes and spans instead of end-to-end metrics")
    p.add_argument("--n", type=int, default=None,
                   help="override the workload's input size (self-test only)")
    args = p.parse_args(argv)
    lib = import_library()
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    case = Case(lib, workload, args.seed, args.n or workload.n)
    if args.trace:
        import layers
        metrics, units, notes, attempted, failed = layers.per_layer(lib, case, args.seed)
        extra = None
    else:
        metrics, notes, extra, attempted, failed = end_to_end(lib, case, args.seconds)
        units = END_TO_END_UNITS
    emit(metrics, units, notes, attempted, failed, extra)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
