import random
import time

import numpy as np
import pytest

from succinctrmq import cover
from succinctrmq.cover import (
    CoverError,
    TauName,
    TreeCover,
    _pack,
    build_cover,
    decompose,
    default_params,
    verify_decomposition,
)
from succinctrmq.rmq import OracleRmq, RmqIndex, adversarial_arrays
from succinctrmq.trees import (
    build_cartesian,
    caterpillar,
    complete_tree,
    left_path,
    right_path,
    sample_random_bst,
    zigzag_path,
)

from test_trees import FIG_ARRAY, adversarial_ranks, sawtooth


def sweep_maps(t, cov):
    """The inorder rank/select maps against the pointer tree, every node:
    each name's micro is its node's component in `decompose`, which the
    cover's packing must reproduce."""
    comp = decompose(t, max(1, cov.micro_B - 2)).comp_of
    for p in range(1, t.n + 1):
        i = t.inorder_of[p]
        name = cov.nodeselect_inorder(i)
        assert name.t2 == comp[p]
        assert cov.noderank_inorder(name) == i


def sweep_lca(t, cov, rng, pairs):
    for _ in range(pairs):
        a = rng.randint(1, t.n)
        b = rng.randint(1, t.n)
        u = cov.nodeselect_inorder(t.inorder_of[a])
        v = cov.nodeselect_inorder(t.inorder_of[b])
        assert cov.noderank_inorder(cov.lca(u, v)) == t.inorder_of[t.lca(a, b)]


class TestDecompose:
    def test_path_example(self):
        t = left_path(8)
        d = decompose(t, 2)
        rep = verify_decomposition(t, 2, d)
        assert rep["max_size"] <= 4

    def test_whole_tree_fits(self):
        t = complete_tree(4)  # 15 nodes
        d = decompose(t, 15)
        assert d.count == 1
        verify_decomposition(t, 15, d)

    def test_fixture_b3(self):
        t = build_cartesian(FIG_ARRAY)
        d = decompose(t, 3)
        rep = verify_decomposition(t, 3, d)
        assert rep["max_size"] <= 6

    @pytest.mark.parametrize("b", [1, 2, 3, 8, 64])
    def test_random_and_adversarial(self, b):
        rng = random.Random(b)
        trees = [sample_random_bst(rng.randint(1, 3000), seed) for seed in range(6)]
        trees += [left_path(777), right_path(777), zigzag_path(778),
                  caterpillar(779), complete_tree(10)]
        for t in trees:
            rep = verify_decomposition(t, b, decompose(t, b))
            assert rep["count"] <= 3 * t.n / b + 4

    def test_large_random(self):
        t = sample_random_bst(100000, 3)
        for b in (1, 9, 400):
            verify_decomposition(t, b, decompose(t, b))

    def test_determinism(self):
        t = sample_random_bst(500, 4)
        d1 = decompose(t, 7)
        d2 = decompose(t, 7)
        assert list(d1.comp_of) == list(d2.comp_of)

    def test_errors(self):
        with pytest.raises(CoverError):
            decompose(left_path(0), 2)
        with pytest.raises(CoverError):
            decompose(left_path(5), 0)


class TestBuildCoverBasics:
    def test_single_node(self):
        cov = build_cover(build_cartesian([1]))
        assert cov.nodeselect_inorder(1) == TauName(1, 1, 1)
        assert cov.noderank_inorder(TauName(1, 1, 1)) == 1
        assert cov.micro_count() == 1

    def test_whole_tree_in_one_micro(self):
        t = sample_random_bst(40, 1)
        cov = build_cover(t, micro_b=100)
        assert cov.micro_count() == 1
        sweep_maps(t, cov)

    def test_root_leads_every_numbering(self):
        for seed in range(5):
            t = sample_random_bst(200, seed)
            cov = build_cover(t, micro_b=4)
            name = cov.nodeselect_inorder(t.inorder_of[1])
            # the root is micro 1's, and the first node of its shape in
            # inorder with left depth 0
            ld = cov.registry.table(cov.type_of[1]).ld
            assert name == TauName(1, 1, ld.index(0, 1))

    def test_right_path_last_node(self):
        t = right_path(300)
        cov = build_cover(t, micro_b=6)
        name = cov.nodeselect_inorder(t.inorder_of[300])
        assert cov.noderank_inorder(name) == t.inorder_of[300] == 300
        assert name.t1 == 1 and name.t2 == cov.micro_count()

    def test_random_2000_all_nodes_reachable(self):
        t = sample_random_bst(2000, 11)
        cov = build_cover(t, micro_b=8)
        seen = set()
        for p in range(1, 2001):
            name = cov.nodeselect_inorder(t.inorder_of[p])
            assert name not in seen
            seen.add(name)
        sweep_maps(t, cov)

    def test_invalid_names(self):
        t = sample_random_bst(100, 2)
        cov = build_cover(t, micro_b=4)
        with pytest.raises(ValueError):
            cov.noderank_inorder(TauName(999, 1, 1))
        with pytest.raises(ValueError):
            cov.noderank_inorder(TauName(1, 999, 1))
        with pytest.raises(ValueError):
            cov.noderank_inorder(TauName(1, 1, 999))
        with pytest.raises(IndexError):
            cov.nodeselect_inorder(0)
        with pytest.raises(IndexError):
            cov.nodeselect_inorder(101)

    def test_portal_positions_rejected(self):
        t = sample_random_bst(400, 3)
        cov = build_cover(t, micro_b=5)
        hit = False
        for m in cov.micros_by_k:
            for pos, _, _ in m.portals:  # shape inorder positions, as p_in
                hit = True
                name = TauName(1, m.k, pos)
                for call in (cov.noderank_inorder,
                             lambda x: cov.lca(x, cov.nodeselect_inorder(1)),
                             lambda x: cov.lca(cov.nodeselect_inorder(cov.n), x)):
                    with pytest.raises(ValueError):
                        call(name)
        assert hit

    def test_param_validation(self):
        t = sample_random_bst(10, 1)
        with pytest.raises(CoverError):
            build_cover(t, micro_b=0)

    def test_default_params_monotone(self):
        assert 1 <= default_params(1000) <= default_params(10**6)


class TestFixtureCover:
    @pytest.fixture()
    def fig(self):
        t = build_cartesian(FIG_ARRAY)
        return t, build_cover(t, micro_b=3)

    def test_inorder_root(self, fig):
        t, cov = fig
        assert t.inorder_of[1] == 19
        name = cov.nodeselect_inorder(t.inorder_of[1])
        assert name.t2 == 1
        assert cov.noderank_inorder(name) == 19

    def test_inorder_five(self, fig):
        t, cov = fig
        assert t.inorder_of[4] == 5
        name = cov.nodeselect_inorder(t.inorder_of[4])
        assert cov.noderank_inorder(name) == 5

    def test_lca_neighbors(self, fig):
        t, cov = fig
        u = cov.nodeselect_inorder(1)
        v = cov.nodeselect_inorder(3)
        assert cov.noderank_inorder(cov.lca(u, v)) == 2

    def test_lca_deep(self, fig):
        t, cov = fig
        u = cov.nodeselect_inorder(5)
        v = cov.nodeselect_inorder(16)
        assert cov.noderank_inorder(cov.lca(u, v)) == 10

    def test_lca_reflexive(self, fig):
        t, cov = fig
        for i in (1, 7, 20):
            u = cov.nodeselect_inorder(i)
            assert cov.lca(u, u) == u


def _adversarial_shapes():
    shapes = []
    for n in (2000, 1024, 333, 64, 17):
        shapes.append(left_path(n))
        shapes.append(right_path(n))
        shapes.append(zigzag_path(n))
        shapes.append(caterpillar(n))
    return shapes  # 20 shapes


class TestOracleEquivalence:
    """Rank/select maps and LCA versus pointer-based oracles."""

    def test_random_bsts(self):
        rng = random.Random(1234)
        params = [None, 8, 30, 4]
        for trial in range(100):
            n = rng.randint(1, 2000)
            t = sample_random_bst(n, trial * 31 + 1)
            cov = build_cover(t, micro_b=params[trial % len(params)])
            sweep_maps(t, cov)
            sweep_lca(t, cov, rng, 10000 if n > 1 else 1)

    def test_adversarial_shapes(self):
        rng = random.Random(77)
        shapes = _adversarial_shapes()
        assert len(shapes) == 20
        for t in shapes:
            cov = build_cover(t, micro_b=7)
            sweep_maps(t, cov)
            sweep_lca(t, cov, rng, 10000)

    def test_all_pairs_small(self):
        rng = random.Random(5)
        trees = [sample_random_bst(n, n + 40) for n in (1, 2, 3, 17, 64, 128)]
        trees += [complete_tree(7), zigzag_path(128), caterpillar(128)]
        for t in trees:
            cov = build_cover(t, micro_b=3)
            at = t.inorder_of
            for a in range(1, t.n + 1):
                ua = cov.nodeselect_inorder(at[a])
                for b in range(a, t.n + 1):
                    ub = cov.nodeselect_inorder(at[b])
                    assert cov.noderank_inorder(cov.lca(ua, ub)) == at[t.lca(a, b)]


def reloaded(cov):
    return TreeCover.from_sections(dict(cov.to_sections()))


class TestLoadedCover:
    """A loaded cover derives the inorder map's runs from the portals' shape
    inorder positions and answers as the built one."""

    def test_random_bst(self):
        t = sample_random_bst(1500, 21)
        cov = reloaded(build_cover(t, micro_b=5))
        sweep_maps(t, cov)
        sweep_lca(t, cov, random.Random(21), 5000)

    def test_right_path(self):
        t = right_path(300)
        cov = reloaded(build_cover(t, micro_b=6))
        sweep_maps(t, cov)
        sweep_lca(t, cov, random.Random(300), 3000)

    def test_fixture(self):
        t = build_cartesian(FIG_ARRAY)
        cov = reloaded(build_cover(t, micro_b=3))
        sweep_maps(t, cov)
        sweep_lca(t, cov, random.Random(8), 2000)

    def test_derived_runs_are_maximal(self):
        t = sample_random_bst(3000, 22)
        cov = reloaded(build_cover(t, micro_b=8))
        assert list(cov.run_in[1:]) == cov.c_in.positions()
        assert len(cov.run_in) == len(cov.run_k) == len(cov.run_t3) == len(cov.run_next)
        # the inorder map's runs break exactly where the micro changes or the
        # shape inorder position fails to step by one
        cells = [cov.nodeselect_inorder(i) for i in range(1, t.n + 1)]
        breaks = [1] + [i for i in range(2, t.n + 1)
                        if cells[i - 1].t2 != cells[i - 2].t2
                        or cells[i - 1].t3 != cells[i - 2].t3 + 1]
        assert breaks == cov.c_in.positions()

    def test_runs_link_each_micro_in_inorder(self):
        t = sample_random_bst(3000, 23)
        for cov in (build_cover(t, micro_b=4), reloaded(build_cover(t, micro_b=4))):
            runs = {}
            for r in range(1, len(cov.run_k)):
                runs.setdefault(cov.run_k[r], []).append(r)
            assert sorted(runs) == list(range(1, cov.micro_count() + 1))
            for k, mine in runs.items():
                assert 1 <= len(mine) <= 3
                assert cov.k_run[k] == mine[0]
                assert [cov.run_next[r] for r in mine] == mine[1:] + [0]


def brute_derived(t, cov) -> dict:
    """The cover columns that a load derives from the micro-root tree,
    computed from the tree by walks over its nodes: each node's micro is read
    off the stored inorder map, node ids are preorder ranks, and a portal
    stands for the whole subtree under its edge."""
    n = t.n
    micro = [0] * (n + 1)
    for i in range(1, n + 1):
        micro[t.id_at_inorder[i]] = cov.run_k[cov.select_inorder(i)[0]]
    roots = [v for v in range(1, n + 1) if v == 1 or micro[t.parent[v]] != micro[v]]
    assert [micro[r] for r in roots] == list(range(1, len(roots) + 1))
    children = [[] for _ in range(len(roots) + 1)]
    for r in roots[1:]:
        children[micro[t.parent[r]]].append(r)
    return {
        "p_child": [micro[r] for kids in children for r in kids],
        "p_size": [t.st[r] for kids in children for r in kids],
        "root_pre": roots,
    }


class TestDerivedColumns:
    """Each column that `TreeCover._install` derives from the portal counts
    and positions equals its brute-force value, built and loaded."""

    TREES = {**{f"perm-{seed}": np.random.default_rng(seed).permutation(3000) for seed in (1, 2)},
             **adversarial_ranks(3000), "sawtooth": sawtooth(3000),
             "ties": np.random.default_rng(3).integers(0, 4, 3000)}

    # the ids name the (mini_b, micro_b) pairs of the two-tier cover these
    # cases were written for; micro_b is the second
    @pytest.mark.parametrize("micro_b", [None, 4, 3], ids=["default", "16-4", "3-3"])
    @pytest.mark.parametrize("name", list(TREES))
    def test_matches_brute_force(self, name, micro_b):
        t = build_cartesian(self.TREES[name].tolist())
        built = build_cover(t, micro_b=micro_b)
        want = brute_derived(t, built)
        for cov in (built, reloaded(built)):
            got = {"p_child": list(cov.p_child), "p_size": list(cov.p_size),
                   "root_pre": list(cov.root_pre[1:])}
            assert got == want


class TestMacroLca:
    """The LCA micro of two nodes is the least micro, in the micro-root
    tree's preorder, among the runs between theirs: every node between the
    two lies in their LCA's subtree, so in its micro or below it, and a
    micro precedes its subtree's other micros in preorder.  `RmqIndex.query`
    takes the leftmost run of that micro."""

    INPUTS = {**adversarial_arrays(2000),
              "ties": np.random.default_rng(4).integers(0, 4, 2000).tolist(),
              "perm": np.random.default_rng(5).permutation(2000).tolist()}

    @pytest.mark.parametrize("micro_b", [4, None], ids=["4", "default"])
    @pytest.mark.parametrize("name", list(INPUTS))
    def test_least_micro_among_runs_is_the_lca_micro(self, name, micro_b):
        values = self.INPUTS[name]
        t = build_cartesian(values)
        index = RmqIndex.from_bytes(RmqIndex.build(values, micro_b=micro_b).to_bytes())
        cov = index.cover
        comp = decompose(t, max(1, cov.micro_B - 2)).comp_of
        runs = len(cov.run_k) - 1
        ends = [*cov.run_in[1:], t.n + 1]  # run r holds inorder positions ends[r - 1] .. ends[r] - 1
        rng = random.Random(runs)
        if runs * runs <= 1500:
            pairs = [(a, b) for a in range(1, runs + 1) for b in range(a, runs + 1)]
        else:
            pairs = [tuple(sorted(rng.sample(range(1, runs + 1), 2))) for _ in range(1500)]
        for ra, rb in pairs:
            a, b = (t.id_at_inorder[rng.randrange(ends[r - 1], ends[r])] for r in (ra, rb))
            r = cov.run_min.range_min(ra, rb)
            assert cov.run_k[r] == comp[t.lca(a, b)], (ra, rb)
            assert r == ra + int(np.argmin(cov.run_k[ra:rb + 1])), (ra, rb)
        oracle = OracleRmq(values, "sparse")
        queries = [tuple(sorted((rng.randint(1, t.n), rng.randint(1, t.n)))) for _ in range(2000)]
        assert [index.query(i, j) for i, j in queries] == [oracle.query(i, j) for i, j in queries]


class TestSpaceAccounting:
    def test_components_present(self):
        t = sample_random_bst(5000, 9)
        cov = build_cover(t)
        sp = cov.space_bits()
        for key in ("per_micro_tables", "pca_inorder", "micro_root_tree"):
            assert sp[key] > 0

    def test_index_shrinks_per_node_with_bigger_micros(self):
        t = sample_random_bst(20000, 10)
        small = build_cover(t, micro_b=8)
        big = build_cover(t, micro_b=256)

        def aux(cov):
            sp = cov.space_bits()
            return sum(v for k, v in sp.items() if k != "lookup_tables_built")

        assert aux(big) < aux(small)


def full_pack(n: int, left, right, B: int) -> bytearray:
    """The packing as one loop over every node, bottom-up: the oracle for
    `_pack`, which visits only the nodes whose subtree exceeds 2B."""
    cap = 2 * B
    closed = bytearray(n + 1)
    pend_w = [0] * (n + 1)
    pend_e = [0] * (n + 1)
    for v in range(n, 0, -1):  # reverse preorder = bottom-up
        a = left[v]
        b = right[v]
        if not (a or b):
            pend_w[v] = 1
            continue
        e = 0
        if a and pend_e[a] >= 2:
            closed[a] = 1
            e = 1
            a = 0
        if b and pend_e[b] >= 2:
            closed[b] = 1
            e += 1
            b = 0
        wa = pend_w[a]
        wb = pend_w[b]
        total = 1 + wa + wb
        if total > cap and a and b:
            if wa > wb:
                closed[a] = 1
                total -= wa
                a = 0
            else:
                closed[b] = 1
                total -= wb
                b = 0
            e += 1
        if total > cap and (a or b):
            closed[a or b] = 1
            total = 1
            a = b = 0
            e += 1
        pend_w[v] = total
        pend_e[v] = e + pend_e[a] + pend_e[b]
    return closed


def forest_sizes(n: int, left, right) -> list[int]:
    sizes = [0] * (n + 1)
    for v in range(n, 0, -1):
        sizes[v] = 1 + sizes[left[v]] + sizes[right[v]]
    return sizes


PACK_SHAPES = [left_path(700), right_path(700), zigzag_path(701), caterpillar(700),
               complete_tree(9)]


class TestPack:
    """`_pack` gives the marks of the full loop, alone and inside `build_cover`."""

    @pytest.mark.parametrize("B", range(1, 9))
    def test_random_bsts(self, B):
        for seed in range(12):
            t = sample_random_bst(1 + 97 * seed, seed)
            assert _pack(t.n, t.left, t.right, t.st, B) == full_pack(t.n, t.left, t.right, B)

    @pytest.mark.parametrize("B", [1, 2, 3, 8, 50])
    def test_paths(self, B):
        for t in PACK_SHAPES:
            assert _pack(t.n, t.left, t.right, t.st, B) == full_pack(t.n, t.left, t.right, B)

    def test_small_subtrees_are_not_visited(self):
        # children are read only at nodes whose subtree exceeds 2B
        t = sample_random_bst(3000, 5)
        B = 6
        small = np.frombuffer(t.st, dtype=np.intc) <= 2 * B
        left = np.where(small, -1, np.frombuffer(t.left, dtype=np.intc))
        right = np.where(small, -1, np.frombuffer(t.right, dtype=np.intc))
        assert _pack(t.n, left, right, t.st, B) == full_pack(t.n, t.left, t.right, B)

    # the ids name the (mini_b, micro_b) pairs of the two-tier cover these
    # cases were written for; micro_b is the second
    @pytest.mark.parametrize("micro_b", [1, 3, 4, 8, None],
                             ids=["4-1", "8-3", "16-4", "64-8", "None-None"])
    def test_both_tiers_of_build_cover(self, monkeypatch, micro_b):
        # the cover packs once per build, over the whole tree: the call gets
        # the tree's subtree sizes and the full loop's marks
        calls = []

        def checked(n, left, right, st, B):
            left, right = np.asarray(left).tolist(), np.asarray(right).tolist()
            assert np.asarray(st).tolist() == forest_sizes(n, left, right)
            marks = _pack(n, left, right, st, B)
            assert marks == full_pack(n, left, right, B)
            calls.append(B)
            return marks

        monkeypatch.setattr(cover, "_pack", checked)
        shapes = PACK_SHAPES + [sample_random_bst(n, n) for n in (1, 2, 50, 2000)]
        for t in shapes:
            build_cover(t, micro_b=micro_b)
        assert len(calls) == len(shapes)


PARTITION_TREES = [sample_random_bst(n, n) for n in (1, 2, 3, 50, 777, 3000)] + [
    sample_random_bst(20000, 7), left_path(700), zigzag_path(701), caterpillar(700),
    complete_tree(9)]


class TestCoverPartition:
    """The cover's micros are the components of `decompose(t, max(1,
    micro_b - 2))`, and criterion 7's checker passes on that partition, so
    the checker covers the partition that the index uses."""

    @pytest.mark.parametrize("micro_b", [None, 3, 4, 16], ids=["default", "3", "4", "16"])
    def test_micros_are_decompose_components(self, micro_b):
        for t in PARTITION_TREES:
            cov = build_cover(t, micro_b=micro_b)
            B = max(1, (micro_b or default_params(t.n)) - 2)
            d = decompose(t, B)
            assert list(cov.root_pre[1:]) == d.roots
            verify_decomposition(t, B, d)
            # every node lies in the micro of its component, and no micro has
            # more than two portals
            micro = [0] * (t.n + 1)
            for i in range(1, t.n + 1):
                micro[t.id_at_inorder[i]] = cov.run_k[cov.select_inorder(i)[0]]
            assert micro[1:] == list(d.comp_of)[1:]
            assert max(np.diff(cov.p_off[1:]), default=0) <= 2


class TestBuildTimeBound:
    """Covering stays linear on adversarial shapes: each 2*10^5-node cover
    takes about a second, and a quadratic pass would take minutes."""

    @pytest.mark.parametrize("name", ["sorted", "reverse", "organ_pipe", "constant",
                                      "few_distinct", "zigzag", "caterpillar", "blocks"])
    def test_adversarial_cover(self, name):
        t = build_cartesian(adversarial_ranks(200_000)[name])
        start = time.perf_counter()
        cov = build_cover(t)
        assert time.perf_counter() - start < 30.0
        assert cov.n == 200_000
