"""Command-line harness: index building, querying, verification sweeps,
space-accounting reports, whole-tree encode/decode, and LCP ingestion.

Exit codes: 0 ok, 1 usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

import numpy as np

from . import opcount
from .cover import decompose, verify_decomposition
from .lcp import LcpData
from .microcodec import MODES
from .rmq import RmqIndex, adversarial_arrays
from .treecode import TreeCode, decode_tree, encode_hybrid
from .trees import build_cartesian, model_entropy, model_entropy_closed


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _read_numbers(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError(f"no numbers in {path}")
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            out.append(float(tok))
    return out


def _input_values(args) -> list:
    if args.random is not None:
        if args.random < 1:
            raise ValueError("--random needs n >= 1")
        rng = np.random.default_rng(args.seed)
        return rng.permutation(args.random).tolist()
    if not args.input:
        raise ValueError("need an input file or --random N")
    return _read_numbers(args.input)


def _emit(args, human: str, kv: dict) -> None:
    print(human)
    if args.kv:
        for key, value in kv.items():
            print(f"{key}={value}")


def _phase_lines(index: RmqIndex) -> tuple[str, dict]:
    """A line and `build_<phase>_s` keys for the build's phase timings."""
    timings = index.build_timings
    line = "build phases: " + "  ".join(f"{p} {s:.3f}s" for p, s in timings.items())
    return line, {f"build_{p}_s": f"{s:.3f}" for p, s in timings.items()}


def cmd_build(args) -> int:
    values = _input_values(args)
    index = RmqIndex.build(values, codec=args.codec, micro_b=args.micro_b)
    phases, phase_kv = _phase_lines(index)
    rep = index.space_report()
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(index.to_bytes())
    lines = [
        f"built index: n={rep['n']} codec={rep['codec']} "
        f"micros={rep['micro_trees']} types={rep['distinct_types']}",
        f"bits total: {rep['total_bits']}  ({rep['bits_per_element']:.4f} per element)",
        phases,
        "breakdown:",
    ]
    for key, bits in rep["breakdown"].items():
        lines.append(f"  {key:<18} {bits:>12}  ({bits / rep['n']:.4f}/elem)")
    lines.append(f"  (lookup tables built so far: {rep['aux_detail']['lookup_tables_built']} bits, "
                 "query-driven, reported separately)")
    h_rate = model_entropy_closed(rep["n"]) / rep["n"]  # H_n/n, the random-permutation bound
    lines.append(f"micro types: queries read TYPR {rep['query_form_per_element']:.4f}/elem; "
                 f"stored TARR payload {rep['micro_payload_per_element']:.4f}/elem; "
                 f"designed {rep['codec']} payload {rep['designed_payload_per_element']:.4f}/elem; "
                 f"H_n/n {h_rate:.4f}")
    if args.output:
        lines.append(f"wrote {args.output}")
    kv = {
        "n": rep["n"],
        "codec": rep["codec"],
        "bits_total": rep["total_bits"],
        "bits_per_element": f"{rep['bits_per_element']:.6f}",
        "micro_payload_per_element": f"{rep['micro_payload_per_element']:.6f}",
        "query_form_per_element": f"{rep['query_form_per_element']:.6f}",
        "designed_payload_per_element": f"{rep['designed_payload_per_element']:.6f}",
        "model_entropy_per_element": f"{h_rate:.6f}",
        **phase_kv,
    }
    for key, bits in rep["breakdown"].items():
        kv[f"bits_{key}"] = bits
    _emit(args, "\n".join(lines), kv)
    if args.dump_cover:
        print(index.cover.dump())
    return 0


def cmd_query(args) -> int:
    with open(args.index, "rb") as fh:
        index = RmqIndex.from_bytes(fh.read())
    result = index.query(args.i, args.j)
    _emit(args, f"rmq({args.i},{args.j}) = {result}", {"result": result})
    return 0


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    failures = 0
    checked = 0
    t0 = time.perf_counter()
    arrays = []
    for trial in range(args.trials):
        n = rng.randint(1, args.n)
        arrays.append((f"random{trial}", [rng.randint(0, n) for _ in range(n)]))
    for name, arr in adversarial_arrays(args.n, seed=args.seed).items():
        arrays.append((name, arr))
    for name, arr in arrays:
        n = len(arr)
        index = RmqIndex.build(arr, codec=args.codec, micro_b=args.micro_b)
        for i in range(1, n + 1):
            best = i
            for j in range(i, n + 1):
                if arr[j - 1] < arr[best - 1]:
                    best = j
                checked += 1
                if index.query(i, j) != best:
                    failures += 1
                    print(f"MISMATCH {name} rmq({i},{j})", file=sys.stderr)
        tree = build_cartesian(arr)
        for B in (1, max(1, n // 7), 8):
            verify_decomposition(tree, B, decompose(tree, B))
    status = "pass" if failures == 0 else "FAIL"
    _emit(args, f"verify: {status} ({checked} queries, {len(arrays)} arrays, "
                f"{time.perf_counter() - t0:.1f}s)",
          {"status": status, "queries": checked, "failures": failures})
    return 0 if failures == 0 else 2


def cmd_entropy_table(args) -> int:
    if args.n_max < 2:
        raise ValueError("--n-max must be >= 2")
    ns = []
    n = 2
    while n <= args.n_max:
        ns.append(n)
        n *= 2 if args.geometric else 1
        if not args.geometric:
            n = ns[-1] + max(1, args.n_max // 40)
    if ns[-1] != args.n_max:
        ns.append(args.n_max)
    print(f"{'n':>10} {'H_n':>16} {'H_n/n':>10}")
    for n in ns:
        h = model_entropy(n)
        print(f"{n:>10} {h:>16.4f} {h / n:>10.6f}")
        if args.kv:
            print(f"H_{n}={h:.6f}")
    return 0


def cmd_encode(args) -> int:
    values = _input_values(args)
    tree = build_cartesian(values)
    code = encode_hybrid(tree)
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(code.to_bytes())
    sel = {0: "subtree-size", 1: "zaks", None: "none"}[code.selector]
    _emit(args, f"encoded n={code.n}: {code.bit_len} bits "
                f"(header {code.header_len}, body {code.body_len}, {sel})",
          {"n": code.n, "bit_len": code.bit_len, "body_len": code.body_len, "selector": sel})
    if args.dump:
        print("shape:", tree.to_paren())
        print("left sizes (preorder):", " ".join(str(tree.ls[v]) for v in range(1, tree.n + 1)))
    return 0


def cmd_decode(args) -> int:
    with open(args.input, "rb") as fh:
        code = TreeCode.from_bytes(fh.read())
    tree = decode_tree(code)
    print(f"n={tree.n}")
    print("shape:", tree.to_paren())
    print("left sizes (preorder):", " ".join(str(tree.ls[v]) for v in range(1, tree.n + 1)))
    return 0


def cmd_lcp_ingest(args) -> int:
    with open(args.input, "rb") as fh:
        text = fh.read()
    if not text:
        raise ValueError("empty text")
    if len(text) > 10**6:
        raise ValueError("text larger than the supported 10^6 bytes")
    data = LcpData.from_text(text)
    n = len(text)
    lcp_values = data.lcp[1:]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(" ".join(map(str, lcp_values)))
            fh.write("\n")
    failures = 0
    if args.spot_checks:
        index = RmqIndex.build(lcp_values)
        rng = random.Random(args.seed)
        for _ in range(args.spot_checks):
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            got = data.lce(i, j, index.query)
            want = data.lce_direct(i, j)
            if got != want:
                failures += 1
                print(f"MISMATCH lce({i},{j}): {got} != {want}", file=sys.stderr)
    status = "pass" if failures == 0 else "FAIL"
    _emit(args, f"lcp-ingest: n={n} max_lcp={max(lcp_values)} "
                f"spot_checks={args.spot_checks} {status}",
          {"n": n, "status": status, "failures": failures})
    return 0 if failures == 0 else 2


def cmd_bench(args) -> int:
    if args.queries < 1:
        raise ValueError(f"--queries must be at least 1, got {args.queries}")
    rng = np.random.default_rng(args.seed)
    values = rng.permutation(args.n).tolist()
    t0 = time.perf_counter()
    index = RmqIndex.build(values, codec=args.codec, micro_b=args.micro_b)
    build_s = time.perf_counter() - t0
    phases, phase_kv = _phase_lines(index)
    r = random.Random(args.seed)
    queries = []
    for _ in range(args.queries):
        i = r.randint(1, args.n)
        queries.append((i, r.randint(i, args.n)))
    index = RmqIndex.from_bytes(index.to_bytes())  # no lookup table built yet
    warm_up = queries[:200]
    t0 = time.perf_counter()
    for i, j in warm_up:  # builds the lookup tables these queries touch
        index.query(i, j)
    cold_us = (time.perf_counter() - t0) / len(warm_up) * 1e6
    cold_tables = index.cover.registry.tables_built()
    opcount.reset()
    t0 = time.perf_counter()
    for i, j in queries:
        index.query(i, j)
    query_s = time.perf_counter() - t0
    ops = opcount.snapshot() / len(queries)
    rep = index.space_report()
    _emit(args, f"bench n={args.n}: build {build_s:.2f}s, "
                f"{query_s / len(queries) * 1e6:.1f} us/query "
                f"({cold_us:.1f} us/query cold, {cold_tables} tables built), "
                f"{ops:.0f} ops/query, "
                f"{rep['bits_per_element']:.3f} bits/elem\n{phases}",
          {"build_seconds": f"{build_s:.3f}",
           **phase_kv,
           "us_per_query": f"{query_s / len(queries) * 1e6:.2f}",
           "cold_us_per_query": f"{cold_us:.2f}",
           "cold_tables_built": str(cold_tables),
           "ops_per_query": f"{ops:.1f}",
           "bits_per_element": f"{rep['bits_per_element']:.4f}"})
    return 0


def make_parser() -> _Parser:
    parser = _Parser(prog="succinct-rmq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=True):
        if with_input:
            p.add_argument("input", nargs="?", help="whitespace/CSV number file")
            p.add_argument("--random", type=int, metavar="N",
                           help="use a random permutation of size N instead of a file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--codec", choices=MODES, default="entropy")
        p.add_argument("--micro-b", dest="micro_b", type=int, default=None)
        p.add_argument("--kv", action="store_true", help="also print key=value lines")

    p = sub.add_parser("build", help="build an index and print the space report")
    common(p)
    p.add_argument("-o", "--output", help="write the serialized index here")
    p.add_argument("--dump-cover", action="store_true", help="print the component listing")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="query a serialized index")
    p.add_argument("index")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.add_argument("--kv", action="store_true")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("verify", help="oracle-equivalence and invariant sweep")
    common(p, with_input=False)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("entropy-table", help="print n, H_n, H_n/n")
    p.add_argument("--n-max", dest="n_max", type=int, default=1024)
    p.add_argument("--geometric", action="store_true", help="double n instead of linear steps")
    p.add_argument("--kv", action="store_true")
    p.set_defaults(func=cmd_entropy_table)

    p = sub.add_parser("encode", help="encode the Cartesian tree of an array")
    common(p)
    p.add_argument("-o", "--output", help="write the tree code here")
    p.add_argument("--dump", action="store_true", help="print shape and left sizes")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a tree code file")
    p.add_argument("input")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("lcp-ingest", help="suffix-sort a text and emit its LCP array")
    p.add_argument("input")
    p.add_argument("-o", "--output", help="write the LCP numbers here")
    p.add_argument("--spot-checks", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kv", action="store_true")
    p.set_defaults(func=cmd_lcp_ingest)

    p = sub.add_parser("bench", help="build/query timing and operation counts")
    common(p, with_input=False)
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--queries", type=int, default=2000)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
