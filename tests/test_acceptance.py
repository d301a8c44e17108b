"""Acceptance suite: one test per criterion, each printing a pass line."""

import math
import random
import time

import numpy as np

from succinctrmq import opcount
from succinctrmq.cover import build_cover, decompose, default_params, verify_decomposition
from succinctrmq.microcodec import MODE_ENTROPY, MODE_FIXED, MODE_HUFFMAN, encode_types
from succinctrmq.rmq import OracleRmq, RmqIndex, adversarial_arrays
from succinctrmq.treecode import decode_tree, encode_hybrid, encode_subtree_size
from succinctrmq.trees import (
    build_cartesian,
    caterpillar,
    complete_tree,
    enumerate_shapes,
    left_path,
    model_entropy,
    right_path,
    sample_random_bst,
    subtree_entropy,
    zigzag_path,
)

from test_trees import FIG_ARRAY, FIG_LABELS


def report(num, detail):
    print(f"PASS  criterion {num}: {detail}")


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(0xACCE551)
    checked = 0
    for trial in range(100):
        n = rng.randint(1, 512)
        arr = list(range(1, n + 1))
        rng.shuffle(arr)
        idx = RmqIndex.build(arr)
        for i in range(1, n + 1):
            best = i
            for j in range(i, n + 1):
                if arr[j - 1] < arr[best - 1]:
                    best = j
                assert idx.query(i, j) == best, (trial, i, j)
                checked += 1
    for size in (512, 257):  # 5 adversarial kinds x 2 sizes = 10 arrays
        for name, arr in adversarial_arrays(size, seed=1).items():
            idx = RmqIndex.build(arr)
            n = len(arr)
            for i in range(1, n + 1):
                best = i
                for j in range(i, n + 1):
                    if arr[j - 1] < arr[best - 1]:
                        best = j
                    assert idx.query(i, j) == best, (name, i, j)
                    checked += 1
    big = np.random.default_rng(2).permutation(100000).tolist()
    idx = RmqIndex.build(big)
    oracle = OracleRmq(big, "sparse")
    mismatches = 0
    for _ in range(100000):
        i = rng.randint(1, 100000)
        j = rng.randint(i, 100000)
        if idx.query(i, j) != oracle.query(i, j):
            mismatches += 1
        checked += 1
    assert mismatches == 0
    elapsed = time.time() - t0
    assert elapsed < 300, f"runtime {elapsed:.0f}s exceeds the 5-minute budget"
    report(1, f"{checked} queries, 0 mismatches, {elapsed:.0f}s")


def test_criterion_2_fixture():
    t = build_cartesian(FIG_ARRAY)
    root = t.id_at_inorder[19]
    assert (t.ls[root], t.st[root]) == (18, 20)
    five = t.id_at_inorder[5]
    assert (t.ls[five], t.st[five]) == (4, 8)
    for inorder, (preorder, ls, st) in FIG_LABELS.items():
        v = t.id_at_inorder[inorder]
        assert (v, t.ls[v], t.st[v]) == (preorder, ls, st)
    hst = subtree_entropy(t).hst
    assert abs(hst - 28.74) <= 0.01
    h20 = model_entropy(20)
    assert abs(h20 - 29.2209) <= 0.0005
    payload = encode_subtree_size(t).payload_bits
    assert payload <= 31
    report(2, f"labels ok, H_st={hst:.4f}, H_20={h20:.4f}, payload={payload} bits")


def test_criterion_3_entropy_constant():
    t0 = time.time()
    n = 100000
    ratio = model_entropy(n) / n
    elapsed = time.time() - t0
    assert 1.70 < ratio < 1.73638
    # approaches the limit from below
    assert model_entropy(1000) / 1000 < model_entropy(10000) / 10000 < ratio
    assert elapsed < 10
    report(3, f"H_n/n = {ratio:.6f} at n=10^5 in (1.70, 1.73638), {elapsed:.2f}s")


def test_criterion_4_average_case_code_length():
    n = 100000
    trees = 200
    hn_rate = model_entropy(n) / n
    total_body = 0
    total_bits = 0
    sampled = []
    for seed in range(trees):
        t = sample_random_bst(n, 777 + seed)
        code = encode_hybrid(t)
        total_body += code.body_len
        total_bits += code.bit_len
        if seed < 10:
            sampled.append(t)
    mean_rate = total_body / trees / n
    assert hn_rate - 0.02 <= mean_rate <= hn_rate + 0.02
    assert hn_rate - 0.02 <= total_bits / trees / n <= hn_rate + 0.02
    # tree-covering overhead: entropy payload below fixed payload and below
    # the per-node +2 envelope H_st(t) + 2n(2 + lg(2 micro_B))/micro_B
    micro_b = default_params(n)
    rates = []
    for t in sampled:
        cov = build_cover(t)
        entropy_bits = encode_types(cov.type_ids, cov.registry, MODE_ENTROPY).total_payload_bits()
        fixed_bits = encode_types(cov.type_ids, cov.registry, MODE_FIXED).total_payload_bits()
        envelope = subtree_entropy(t).hst + 2 * n * (2 + math.log2(2 * micro_b)) / micro_b
        assert entropy_bits <= fixed_bits
        assert entropy_bits <= envelope
        rates.append(entropy_bits / n)
    assert 1.60 <= sum(rates) / len(rates) <= 1.85
    report(4, f"mean body/n = {mean_rate:.4f} vs H_n/n = {hn_rate:.4f} (+-0.02); "
              f"micro payload/n = {sum(rates) / len(rates):.4f} <= fixed and envelope")


def _battery():
    trees = [left_path(n) for n in (1, 2, 3, 5, 9, 64, 500, 2000, 5000)]
    trees += [right_path(n) for n in (2, 64, 5000)]
    trees += [zigzag_path(n) for n in (4, 100, 5000)]
    trees += [caterpillar(n) for n in (7, 333)]
    trees += [complete_tree(k) for k in (3, 8)]
    trees += [sample_random_bst(n, n) for n in (1, 2, 7, 100, 1500, 20000)]
    return trees


def test_criterion_5_worst_case_envelope():
    worst = 0.0
    for t in _battery():
        code = encode_hybrid(t)
        n = t.n
        hdr = 2 * math.ceil(math.log2(n)) if n > 1 else 0
        budget = hdr + min(math.ceil(subtree_entropy(t).hst) + 4, 2 * n + 2)
        assert code.bit_len <= budget, f"n={n}: {code.bit_len} > {budget}"
        worst = max(worst, code.bit_len / budget)
    report(5, f"hybrid bit_len within 2*ceil(lg n) + min(ceil(H_st)+4, 2n+2); "
              f"tightest ratio {worst:.3f}")


def test_criterion_6_exhaustive_roundtrip():
    t0 = time.time()
    total = 0
    for n in range(0, 11):
        for t in enumerate_shapes(n):
            assert decode_tree(encode_hybrid(t)).same_shape(t)
            total += 1
    elapsed = time.time() - t0
    assert total == 1 + 1 + 2 + 5 + 14 + 42 + 132 + 429 + 1430 + 4862 + 16796
    assert elapsed < 120
    report(6, f"{total} trees (all n <= 10) round-tripped, {elapsed:.0f}s")


def test_criterion_7_decomposition_verifier():
    rng = random.Random(7)
    cases = 0
    for n in (100000, 10000, 1000, 137, 17, 2, 1):
        t = sample_random_bst(n, n)
        for b in (1, 8, 311):
            verify_decomposition(t, b, decompose(t, b))
            cases += 1
    for t in (left_path(5000), right_path(5000), zigzag_path(5000),
              caterpillar(5000), complete_tree(12)):
        for b in (1, 2, 9, 64):
            verify_decomposition(t, b, decompose(t, b))
            cases += 1
    for _ in range(20):
        n = rng.randint(1, 3000)
        t = sample_random_bst(n, rng.randint(0, 10**6))
        b = rng.randint(1, 50)
        verify_decomposition(t, b, decompose(t, b))
        cases += 1
    report(7, f"{cases} decompositions verified (disjoint cover, size, "
              "connection, contraction, count bounds)")


def test_criterion_8_hyper_succinct_dominance():
    trees = [sample_random_bst(n, n + 3) for n in (50, 1000, 20000, 100000)]
    trees += [left_path(4000), zigzag_path(4000), caterpillar(4000), complete_tree(12)]
    worst_margin = None
    for t in trees:
        for micro_b in (None, 16):
            cov = build_cover(t, micro_b=micro_b)
            payloads = {
                mode: encode_types(cov.type_ids, cov.registry, mode).total_payload_bits()
                for mode in (MODE_FIXED, MODE_ENTROPY, MODE_HUFFMAN)
            }
            assert payloads[MODE_HUFFMAN] <= payloads[MODE_ENTROPY]
            assert payloads[MODE_HUFFMAN] <= payloads[MODE_FIXED]
            margin = payloads[MODE_ENTROPY] - payloads[MODE_HUFFMAN]
            worst_margin = margin if worst_margin is None else min(worst_margin, margin)
    report(8, f"huffman <= entropy and <= fixed on all tested trees "
              f"(smallest margin {worst_margin} bits; codebook excluded)")


OPS_PER_QUERY_BOUND = 600


def _max_ops(idx, spans, rng):
    worst = 0
    n = idx.n
    for span in spans:
        for _ in range(300):
            i = rng.randint(1, max(1, n - span))
            j = min(n, i + span)
            opcount.reset()
            idx.query(i, j)
            worst = max(worst, opcount.snapshot())
    return worst


def test_criterion_9_constant_time_query(index_1e6):
    rng = random.Random(9)
    small_vals = np.random.default_rng(99).permutation(1000).tolist()
    small = RmqIndex.build(small_vals)
    # warm the lazy lookup tables so steady-state work is measured
    for idx in (small, index_1e6):
        for _ in range(2000):
            i = rng.randint(1, idx.n)
            idx.query(i, rng.randint(i, idx.n))
    ops_small = _max_ops(small, (0, 1, 7, 400, 999), rng)
    ops_big = _max_ops(index_1e6, (0, 1, 7, 400, 10**4, 10**6), rng)
    assert ops_small <= OPS_PER_QUERY_BOUND
    assert ops_big <= OPS_PER_QUERY_BOUND
    report(9, f"max primitive ops/query: {ops_small} (n=10^3), {ops_big} (n=10^6); "
              f"both under the fixed bound {OPS_PER_QUERY_BOUND}")


def test_criterion_10_sampler_validity():
    trials = 60000
    rng = np.random.default_rng(2024)
    counts = {}
    for _ in range(trials):
        t = build_cartesian(rng.permutation(3).tolist())
        key = (t.left[1], t.right[1], t.left[2] if t.n >= 2 else 0)
        counts[key] = counts.get(key, 0) + 1
    freqs = sorted(c / trials for c in counts.values())
    assert len(freqs) == 5
    expected = sorted([1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 3])
    for got, want in zip(freqs, expected):
        assert abs(got - want) <= 0.01
    report(10, "n=3 shape frequencies within +-0.01 of (1/3, 1/6 x4) over 60000 samples")


def test_cover_aux_space_budget(index_1e6):
    """Tree-cover module invariant: all index structures except the micro-type
    payload stay under 1 bit per element at n = 10^6 (entropy codec, so there
    is no codebook; lazily built lookup tables are reported separately)."""
    rep = index_1e6.space_report()
    n = rep["n"]
    aux = (rep["breakdown"]["index_directories"] + rep["breakdown"]["macro_tiers"]
           + rep["breakdown"]["type_directory"] + rep["breakdown"]["codebook"])
    assert aux <= 1.0 * n
    print(f"PASS  aux-space invariant: {aux / n:.3f} bits/element of index structures "
          f"at n=10^6 (payload {rep['micro_payload_per_element']:.3f}, "
          f"lookup tables {rep['aux_detail']['lookup_tables_built'] / n:.2f} reported separately)")
