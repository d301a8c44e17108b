"""Two-tier tree covering: decomposition, tau-names, rank/select, LCA.

The tree splits into mini trees, each mini tree into micro trees.  Components
are disjoint connected subtrees with at most one outgoing edge in the root's
left subtree and one in its right subtree; outgoing edges materialize as
*portal* leaves in the parent component's shape (a mini tree's own outgoing
edges surface as extra portal leaves inside whichever micro tree holds the
source node, so a micro shape can carry up to four portals).  Nodes are
addressed by tau-names (mini index, mini-local micro index, micro-local shape
preorder); a run-compressed map takes global inorder positions to tau-names
(the preorder map, which RMQ never reads, is derived on first use),
portal-offset arithmetic maps them back, and cross-component LCA runs on the
ordinal tree of all micro roots.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import opcount
from .bits import CompressedBitVec, _bitlen
from .microcodec import TypeRegistry
from .serial import DecodeError, Reader
from .trees import BinaryTree, EulerTourLca


class CoverError(ValueError):
    """A decomposition or cover invariant failed."""


# ---------------------------------------------------------------------------
# decomposition (single tier)
# ---------------------------------------------------------------------------

class Decomposition:
    """Partition of a tree's nodes into connected components of <= 2B nodes.

    Component ids are 1-based in root-preorder order; ``members[cid]`` lists
    the component's nodes in preorder.  Node ids must be preorder ranks
    (root = 1), which `BinaryTree` guarantees.
    """

    __slots__ = ("n", "B", "comp_of", "members", "roots")

    def __init__(self, n, B, comp_of, members, roots):
        self.n = n
        self.B = B
        self.comp_of = comp_of
        self.members = members
        self.roots = roots

    @property
    def count(self) -> int:
        return len(self.roots)


def _pack(n: int, left, right, B: int) -> bytearray:
    """Bottom-up packing over a forest whose ids are preorder ranks: merge open
    child components into the parent; close a child when it already carries
    two external edges or when merging would exceed 2B nodes (the heavier
    child closes first, so every weight-closed component has >= B nodes).
    Returns a mark per node: 1 where a component closed at that root.  The
    caller closes the forest roots."""
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


def _components(closed, parent) -> np.ndarray:
    """Component id of every node (slot 0 is 0): the rank, in preorder, of its
    nearest closed ancestor-or-self, found by pointer doubling."""
    marks = np.frombuffer(closed, dtype=np.uint8).astype(bool)
    ids = np.cumsum(marks, dtype=np.intc)
    up = np.where(marks, np.arange(len(marks), dtype=np.intc), parent)
    while True:
        nxt = up[up]
        if np.array_equal(nxt, up):
            break
        up = nxt
    return ids[up]


def decompose(t: BinaryTree, B: int) -> Decomposition:
    """Decompose a binary tree into disjoint subtrees of <= 2B nodes with at
    most three external connections each; deterministic, one linear packing
    pass."""
    if t.n < 1:
        raise CoverError("decompose requires a non-empty tree")
    if B < 1:
        raise CoverError("B must be >= 1")
    n = t.n
    closed = _pack(n, t.left, t.right, B)
    closed[1] = 1
    comp = _components(closed, np.frombuffer(t.parent, dtype=np.intc))
    order = np.argsort(comp[1:], kind="stable") + 1
    cuts = np.flatnonzero(np.diff(comp[order])) + 1
    members = [[]] + [part.tolist() for part in np.split(order, cuts)]
    roots = np.flatnonzero(np.frombuffer(closed, dtype=np.uint8)).tolist()
    return Decomposition(n, B, array("i", comp.tobytes()), members, roots)


def verify_decomposition(t: BinaryTree, B: int, d: Decomposition) -> dict:
    """Brute-force checker for the decomposition contract.  Raises CoverError
    on any violation and returns measured statistics."""
    n = t.n
    if d.n != n or d.count < 1:
        raise CoverError("decomposition does not match tree")
    seen = 0
    for cid in range(1, d.count + 1):
        mem = d.members[cid]
        seen += len(mem)
        if not mem:
            raise CoverError(f"component {cid} is empty")
        if len(mem) > 2 * B:
            raise CoverError(f"component {cid} has {len(mem)} nodes > 2B = {2 * B}")
        root = d.roots[cid - 1]
        inside = set(mem)
        tops = [v for v in mem if t.parent[v] == 0 or t.parent[v] not in inside]
        if tops != [root]:
            raise CoverError(f"component {cid} is not a single-rooted subtree")
        for v in mem:
            if v != root and d.comp_of[t.parent[v]] != cid:
                raise CoverError(f"component {cid} is disconnected at node {v}")
        # external child edges, classified by side of the component root
        sides = {0: 0, 1: 0}
        child_comps = set()
        for v in mem:
            for side, c in ((0, t.left[v]), (1, t.right[v])):
                if c and c not in inside:
                    child_comps.add(d.comp_of[c])
                    if v == root:
                        sides[side] += 1
                    else:
                        lr = t.left[root]
                        in_left = bool(lr) and lr <= v < lr + t.st[lr]
                        sides[0 if in_left else 1] += 1
        if sides[0] > 1 or sides[1] > 1:
            raise CoverError(f"component {cid} has {sides} external edges per side")
        if len(child_comps) > 2:
            raise CoverError(f"component {cid} contracts to degree {len(child_comps)}")
    if seen != n:
        raise CoverError("components do not cover all nodes")
    bound = 3 * n / B + 4
    if d.count > bound:
        raise CoverError(f"component count {d.count} exceeds {bound}")
    return {
        "count": d.count,
        "max_size": max(len(d.members[c]) for c in range(1, d.count + 1)),
        "c1": (d.count - 1) * B / n if n else 0.0,
        "bound": bound,
    }


# ---------------------------------------------------------------------------
# two-tier cover
# ---------------------------------------------------------------------------

class TauName(NamedTuple):
    """(mini index, mini-local micro index, micro-local shape preorder)."""

    t1: int
    t2: int
    t3: int


_tau = tuple.__new__  # builds a TauName without its keyword-parsing __new__


@dataclass(slots=True)
class _Portal:
    shape_pos: int  # shape preorder of the portal leaf
    s_mini: int  # members below the edge within this mini; 0 on an edge to another mini
    child_k: int  # micro-root-tree preorder of the child micro


@dataclass(slots=True)
class _MicroInfo:
    t1: int
    t2: int
    k: int  # rank of the micro's root in global preorder
    root_minilocal: int
    shape_size: int  # members plus portal leaves
    ld_minilocal: int
    type_id: int
    portals: list


@dataclass(slots=True)
class _MiniPortal:
    c_before: int  # members of the mini visited before diving into the edge
    side: int
    parent_minilocal: int
    s_global: int


@dataclass(slots=True)
class _MiniInfo:
    root_global: int
    ld_global: int
    portals: list


def default_params(n: int) -> tuple[int, int]:
    """(mini_B, micro_B) defaults.  Micro trees of ~lg^2 n nodes keep both the
    per-micro index overhead and the per-micro code header at a few percent
    per node at desk scale; mini trees of ~lg^3 n make the mini tier
    negligible."""
    lg = math.log2(n + 2)
    micro_b = max(8, math.ceil(lg * lg))
    mini_b = max(4 * micro_b, math.ceil(lg ** 3))
    return mini_b, micro_b


class TreeCover:
    """Queryable two-tier cover; immutable after construction."""

    __slots__ = (
        "n", "mini_B", "micro_B", "minis", "micros", "micros_by_k", "registry",
        "type_ids", "c_in", "v1_in", "v2_in", "v3_in", "tb", "_preorder_runs",
    )

    def __init__(self):
        raise TypeError("use build_cover or TreeCover.from_sections")

    @classmethod
    def _new(cls) -> "TreeCover":
        cov = object.__new__(cls)
        cov._preorder_runs = None
        return cov

    # ---- queries ----------------------------------------------------------

    def _micro(self, t1: int, t2: int) -> _MicroInfo:
        if not 1 <= t1 <= len(self.minis):
            raise ValueError(f"no mini tree {t1}")
        row = self.micros[t1 - 1]
        if not 1 <= t2 <= len(row):
            raise ValueError(f"no micro tree ({t1},{t2})")
        return row[t2 - 1]

    def _check_t3(self, m: _MicroInfo, t3: int) -> None:
        if not 1 <= t3 <= m.shape_size:
            raise ValueError(f"shape position {t3} out of range")
        for p in m.portals:
            opcount.add(1)
            if p.shape_pos == t3:
                raise ValueError(f"shape position {t3} is a portal copy, not a node")

    def nodeselect_preorder(self, p: int) -> TauName:
        if not 1 <= p <= self.n:
            raise IndexError(f"preorder index {p} out of range 1..{self.n}")
        c, v1, v2, v3 = self._preorder_runs or self._derive_preorder_runs()
        r, base = c.pred1(p)
        opcount.add(3)
        return TauName(v1[r - 1], v2[r - 1], v3[r - 1] + (p - base))

    def _derive_preorder_runs(self) -> tuple:
        """The preorder position map, which RMQ never reads and files do not
        store, derived on first use: the members between a micro's portal
        leaves are consecutive in global preorder, so each such stretch is
        one run, starting at the global preorder of its first member."""
        rows = []
        for m in self.micros_by_k:
            mini = self.minis[m.t1 - 1]
            ports = [p.shape_pos for p in m.portals]
            for a in [1] + [x + 1 for x in ports]:
                if a <= m.shape_size and a not in ports:
                    rows.append((self._preorder(m, mini, a), m.t1, m.t2, a))
        rows.sort()
        starts, v1, v2, v3 = zip(*rows)
        runs = (CompressedBitVec.from_positions(self.n, starts),
                array("q", v1), array("q", v2), array("q", v3))
        self._preorder_runs = runs
        return runs

    @staticmethod
    def _preorder(m: _MicroInfo, mini: _MiniInfo, t3: int) -> int:
        """Global preorder of the member at shape position t3: its mini-local
        preorder counts the members under each micro portal before it, and
        the subtrees of other minis hanging before it are added."""
        loc = m.root_minilocal - 1 + t3
        for p in m.portals:  # a portal leaf stands for s_mini members
            if p.shape_pos < t3:
                loc += p.s_mini - 1
        g = mini.root_global - 1 + loc
        for q in mini.portals:
            if q.c_before < loc:
                g += q.s_global
        return g

    def noderank_preorder(self, name: TauName) -> int:
        t1, t2, t3 = name
        m = self._micro(t1, t2)
        self._check_t3(m, t3)
        mini = self.minis[t1 - 1]
        opcount.add(len(m.portals) + len(mini.portals))
        return self._preorder(m, mini, t3)

    def nodeselect_inorder(self, i: int) -> TauName:
        if not 1 <= i <= self.n:
            raise IndexError(f"inorder index {i} out of range 1..{self.n}")
        r, base = self.c_in.pred1(i)
        t1, t2 = self.v1_in[r - 1], self.v2_in[r - 1]
        if not 1 <= t1 <= len(self.minis):
            raise ValueError(f"no mini tree {t1}")
        row = self.micros[t1 - 1]
        if not 1 <= t2 <= len(row):
            raise ValueError(f"no micro tree ({t1},{t2})")
        type_id = row[t2 - 1].type_id
        table = self.registry.tables.get(type_id) or self.registry.table(type_id)
        opcount.add(4)
        return _tau(TauName, (t1, t2, table.in2pre[self.v3_in[r - 1] + (i - base)]))

    def noderank_inorder(self, name: TauName) -> int:
        """Global inorder rank = global preorder + left-subtree size - left
        depth.  One walk over the micro's portals checks that t3 is a node and
        finds its mini-local preorder and in-mini left size; one walk over the
        mini's portals adds the subtrees of other minis hanging before it and
        inside its left subtree."""
        t1, t2, t3 = name
        if not 1 <= t1 <= len(self.minis):
            raise ValueError(f"no mini tree {t1}")
        row = self.micros[t1 - 1]
        if not 1 <= t2 <= len(row):
            raise ValueError(f"no micro tree ({t1},{t2})")
        m = row[t2 - 1]
        if not 1 <= t3 <= m.shape_size:
            raise ValueError(f"shape position {t3} out of range")
        table = self.registry.tables.get(m.type_id) or self.registry.table(m.type_id)
        ls_mini = table.ls[t3]
        hi = t3 + ls_mini  # shape-left range is t3 + 1 .. hi
        ld = hi - table.pre2in[t3]  # the shape left depth
        loc = m.root_minilocal - 1 + t3
        for p in m.portals:  # a portal leaf stands for s_mini members
            pos = p.shape_pos
            if pos < t3:
                loc += p.s_mini - 1
            elif pos == t3:
                raise ValueError(f"shape position {t3} is a portal copy, not a node")
            elif pos <= hi:
                ls_mini += p.s_mini - 1
        mini = self.minis[t1 - 1]
        g = mini.root_global - 1 + loc
        ls_g = ls_mini
        end = loc + ls_mini
        for q in mini.portals:
            if q.c_before < loc:
                g += q.s_global
            w = q.parent_minilocal
            if loc < w <= end or (w == loc and q.side == 0):
                ls_g += q.s_global
        # the portal check, mini-local preorder and left size each read every
        # micro portal; preorder and left size each read every mini portal
        opcount.add(3 * len(m.portals) + 2 * len(mini.portals) + 4)
        return g + ls_g - (mini.ld_global + m.ld_minilocal + ld)

    def lca(self, u: TauName, v: TauName) -> TauName:
        u1, u2, u3 = u
        v1, v2, v3 = v
        n_minis = len(self.minis)
        if not 1 <= u1 <= n_minis:
            raise ValueError(f"no mini tree {u1}")
        row = self.micros[u1 - 1]
        if not 1 <= u2 <= len(row):
            raise ValueError(f"no micro tree ({u1},{u2})")
        mu = row[u2 - 1]
        if not 1 <= u3 <= mu.shape_size:
            raise ValueError(f"shape position {u3} out of range")
        for p in mu.portals:
            if p.shape_pos == u3:
                raise ValueError(f"shape position {u3} is a portal copy, not a node")
        if not 1 <= v1 <= n_minis:
            raise ValueError(f"no mini tree {v1}")
        row = self.micros[v1 - 1]
        if not 1 <= v2 <= len(row):
            raise ValueError(f"no micro tree ({v1},{v2})")
        mv = row[v2 - 1]
        if not 1 <= v3 <= mv.shape_size:
            raise ValueError(f"shape position {v3} out of range")
        for p in mv.portals:
            if p.shape_pos == v3:
                raise ValueError(f"shape position {v3} is a portal copy, not a node")
        ops = len(mu.portals) + len(mv.portals)  # the portal-copy checks
        tables = self.registry.tables
        if mu.k == mv.k:
            table = tables.get(mu.type_id) or self.registry.table(mu.type_id)
            opcount.add(ops)
            return _tau(TauName, (u1, u2, table.lca(u3, v3)))
        k = self.tb.lca(mu.k, mv.k)
        if k != mu.k and k != mv.k:
            # both entry points are portals of the meeting micro
            mk = self.micros_by_k[k - 1]
            pos_u, ops_u = self._portal_toward(mk, mu.k)
            pos_v, ops_v = self._portal_toward(mk, mv.k)
            table = tables.get(mk.type_id) or self.registry.table(mk.type_id)
            opcount.add(ops + ops_u + ops_v)
            return _tau(TauName, (mk.t1, mk.t2, table.lca(pos_u, pos_v)))
        if k == mv.k:
            u3, mu, mv = v3, mv, mu
        # mu's root is an ancestor of v: meet inside mu via the portal toward v
        pos, ops_p = self._portal_toward(mu, mv.k)
        table = tables.get(mu.type_id) or self.registry.table(mu.type_id)
        opcount.add(ops + ops_p)
        return _tau(TauName, (mu.t1, mu.t2, table.lca(u3, pos)))

    def _portal_toward(self, m: _MicroInfo, k_target: int) -> tuple[int, int]:
        """Shape position of m's portal whose child micro is k_target or one of
        its ancestors, and the operations spent: a portal read and a two-read
        ancestor test per portal tried."""
        enter, exit_ = self.tb.enter, self.tb.exit
        e, x = enter[k_target], exit_[k_target]
        ops = 0
        for p in m.portals:
            ops += 3
            c = p.child_k
            if enter[c] <= e and x <= exit_[c]:
                return p.shape_pos, ops
        raise AssertionError("portal descent failed")  # pragma: no cover

    # ---- reporting ---------------------------------------------------------

    def micro_count(self) -> int:
        return len(self.micros_by_k)

    def all_micros(self):
        return self.micros_by_k

    def space_bits(self) -> dict:
        """Designed widths of every index structure, in bits.  Lazily built
        lookup tables are reported but belong to a separate budget."""
        n = self.n
        lg_n = _bitlen(n)
        lg_mini = _bitlen(2 * self.mini_B)
        lg_micro = _bitlen(2 * max(1, self.micro_B))
        lg_k = _bitlen(len(self.micros_by_k))
        lg_types = _bitlen(max(1, len(self.registry)))
        per_micro = 0
        for m in self.micros_by_k:
            per_micro += 2 * lg_mini  # root_minilocal, left depth within mini
            per_micro += lg_micro + lg_k + lg_types + 3  # shape size, k, type, portal count
            per_micro += len(m.portals) * (lg_micro + lg_mini + lg_k)
        per_mini = 0
        for mini in self.minis:
            per_mini += 2 * lg_n + 2  # root preorder, root left depth, portal count
            per_mini += len(mini.portals) * (2 * lg_mini + 1 + lg_n)
        c_in = self.c_in.space_bits()
        values = (self.v1_in, self.v2_in, self.v3_in)
        return {
            "per_micro_tables": per_micro,
            "per_mini_tables": per_mini,
            "pca_inorder": (c_in["payload"] + c_in["directory"]
                            + sum(len(v) * _bitlen(max(v, default=0)) for v in values)),
            "micro_root_tree": self.tb.space_bits(),
            "lookup_tables_built": self.registry.tables_space_bits(),
        }

    def dump(self) -> str:
        """Human-readable component listing."""
        out = [f"cover: n={self.n} minis={len(self.minis)} micros={len(self.micros_by_k)} "
               f"mini_B={self.mini_B} micro_B={self.micro_B} types={len(self.registry)}"]
        for t1, (mini, row) in enumerate(zip(self.minis, self.micros), start=1):
            members = sum(m.shape_size - len(m.portals) for m in row)
            out.append(f"mini {t1}: root_pre={mini.root_global} members={members} "
                       f"portals={len(mini.portals)}")
            for m in row:
                ports = ",".join(f"@{p.shape_pos}->k{p.child_k}" for p in m.portals)
                out.append(f"  micro ({t1},{m.t2}) k={m.k}: "
                           f"members={m.shape_size - len(m.portals)} shape={m.shape_size} "
                           f"type={m.type_id} portals=[{ports}]")
        return "\n".join(out)

    # ---- serialization ------------------------------------------------------

    def to_sections(self) -> list[tuple[bytes, bytes]]:
        meta = struct.pack("<QQQ", self.n, self.mini_B, self.micro_B)
        mini_blob = bytearray(struct.pack("<I", len(self.minis)))
        for mini in self.minis:
            mini_blob += struct.pack("<QQB", mini.root_global, mini.ld_global, len(mini.portals))
            for q in mini.portals:
                mini_blob += struct.pack("<QBQQ", q.c_before, q.side, q.parent_minilocal,
                                         q.s_global)
        micro_blob = bytearray(struct.pack("<I", len(self.minis)))
        for row in self.micros:
            micro_blob += struct.pack("<I", len(row))
            for m in row:
                micro_blob += struct.pack("<QQQQIB", m.k, m.root_minilocal, m.shape_size,
                                          m.ld_minilocal, m.type_id, len(m.portals))
                for p in m.portals:
                    micro_blob += struct.pack("<QQQ", p.shape_pos, p.s_mini, p.child_k)
        starts = self.c_in.positions()
        pca_blob = bytearray(struct.pack("<I", len(starts)))
        for arr in (starts, self.v1_in, self.v2_in, self.v3_in):
            pca_blob += struct.pack(f"<{len(arr)}Q", *arr)
        return [
            (b"CMET", bytes(meta)),
            (b"MINI", bytes(mini_blob)),
            (b"MICR", bytes(micro_blob)),
            (b"PCAS", bytes(pca_blob)),
            (b"TYPR", self.registry.to_bytes()),
        ]

    @classmethod
    def from_sections(cls, sections: dict[bytes, bytes]) -> "TreeCover":
        for tag in (b"CMET", b"MINI", b"MICR", b"PCAS", b"TYPR"):
            if tag not in sections:
                raise DecodeError(f"missing cover section {tag.decode('ascii')}")
        cov = cls._new()
        r = Reader(sections[b"CMET"], "CMET")
        cov.n, cov.mini_B, cov.micro_B = r.take("<QQQ")
        r.end()
        r = Reader(sections[b"MINI"], "MINI")
        minis = []
        for _ in range(r.count("<I", 17)):
            rg, ld, np_ = r.take("<QQB")
            minis.append(_MiniInfo(rg, ld, [_MiniPortal(*r.take("<QBQQ")) for _ in range(np_)]))
        r.end()
        cov.minis = minis
        r = Reader(sections[b"MICR"], "MICR")
        micros: list[list[_MicroInfo]] = []
        flat: list[_MicroInfo] = []
        for t1 in range(1, r.count("<I", 4) + 1):
            row = []
            for t2 in range(1, r.count("<I", 37) + 1):
                k, rml, ss, ld, tid, np_ = r.take("<QQQQIB")
                portals = [_Portal(*r.take("<QQQ")) for _ in range(np_)]
                row.append(_MicroInfo(t1, t2, k, rml, ss, ld, tid, portals))
            micros.append(row)
            flat.extend(row)
        r.end()
        if len(micros) != len(minis):
            raise DecodeError(f"MICR lists {len(micros)} minis, MINI {len(minis)}")
        cov.micros = micros
        flat.sort(key=lambda m: m.k)
        cov.micros_by_k = flat
        r = Reader(sections[b"PCAS"], "PCAS")
        runs = r.count("<I", 32)
        starts = r.take(f"<{runs}Q")
        cov.v1_in, cov.v2_in, cov.v3_in = (array("q", r.take(f"<{runs}q")) for _ in range(3))
        r.end()
        cov.c_in = CompressedBitVec.from_positions(cov.n, starts)
        cov.registry = TypeRegistry.from_bytes(sections[b"TYPR"])
        cov.type_ids = [m.type_id for m in cov.micros_by_k]
        cov._build_tb()
        return cov

    # ---- shared assembly -----------------------------------------------------

    def _build_tb(self) -> None:
        """The micro-root tree: children in k order, which is root preorder."""
        ell = len(self.micros_by_k)
        children: list[list[int]] = [[] for _ in range(ell + 1)]
        has_parent = [False] * (ell + 1)
        for m in self.micros_by_k:
            for p in m.portals:
                children[m.k].append(p.child_k)
                has_parent[p.child_k] = True
        root_k = 0
        for m in self.micros_by_k:
            children[m.k].sort()
            if not has_parent[m.k]:
                root_k = m.k
        self.tb = EulerTourLca(ell, children, root_k)


def _rank_within(groups: np.ndarray) -> np.ndarray:
    """1-based rank of each entry among the entries of its group, in index order."""
    order = np.argsort(groups, kind="stable")
    sg = groups[order]
    first = np.flatnonzero(np.concatenate(([True], sg[1:] != sg[:-1])))
    counts = np.diff(np.append(first, len(sg)))
    rank = np.empty(len(groups), dtype=np.intc)
    rank[order] = np.arange(1, len(sg) + 1) - np.repeat(first, counts)
    return rank


def _order_rank(key: np.ndarray):
    """The sorting permutation of `key` (keys distinct) and its inverse."""
    order = np.argsort(key)
    rank = np.empty(len(key), dtype=np.int64)
    rank[order] = np.arange(len(key))
    return order, rank


def _micro_shapes(t: BinaryTree, k_of: np.ndarray, portal_k: np.ndarray,
                  portal_node: np.ndarray, shape_size: np.ndarray):
    """Shape preorder and inorder of every node (indices 0..n-1) and portal leaf
    (n..), and the Zaks code of every micro shape, padded to whole bytes.

    A micro shape is its members plus one portal leaf per micro root hanging
    below it.  Restricting the global preorder (inorder) to those nodes, with
    a portal leaf standing at its child's position, gives the shape preorder
    (inorder).  The 1-bit of a shape node sits at pre + in - ls - 2 of the
    shape's 2s+1 Zaks bits.
    """
    n = t.n
    M = len(shape_size)
    inorder = np.frombuffer(t.inorder_of, dtype=np.intc)
    ls = np.frombuffer(t.ls, dtype=np.intc)
    shape_start = np.zeros(M + 1, dtype=np.int64)
    np.cumsum(shape_size, out=shape_start[1:])
    ent_k = np.concatenate((k_of[1:], portal_k)).astype(np.int64)
    ent_node = np.concatenate((np.arange(1, n + 1, dtype=np.intc), portal_node))
    first = shape_start[ent_k - 1]
    base = ent_k * (n + 1)
    shape_pre = _order_rank(base + ent_node)[1] - first + 1
    in_key = base + inorder[ent_node]
    in_order, pos = _order_rank(in_key)
    shape_in = pos - first + 1
    del first, base, ent_node
    # the shape left size of a member counts its micro's entries inside its
    # global left range; portal leaves have none
    zpos = shape_pre + shape_in - 2
    zpos[:n] -= pos[:n] - np.searchsorted(in_key[in_order], in_key[:n] - ls[1:])
    del in_key, in_order, pos
    nbytes = (2 * shape_size + 8) // 8
    byte_start = np.zeros(M + 1, dtype=np.int64)
    np.cumsum(nbytes, out=byte_start[1:])
    bits = np.zeros(8 * int(byte_start[-1]), dtype=np.uint8)
    bits[8 * byte_start[ent_k - 1] + zpos] = 1
    codes = np.packbits(bits).tobytes()
    return shape_pre.astype(np.intc), shape_in.astype(np.intc), codes, byte_start.tolist()


def _pca_runs(k, t3):
    """Run starts (0-based) of the (micro, shape index) sequence: a run breaks
    when the micro changes or the shape index fails to step by one."""
    brk = np.ones(len(k), dtype=bool)
    brk[1:] = (k[1:] != k[:-1]) | (t3[1:] != t3[:-1] + 1)
    return np.flatnonzero(brk)


def build_cover(t: BinaryTree, mini_b: int | None = None, micro_b: int | None = None) -> TreeCover:
    """Build the two-tier cover of a binary tree.

    Each tier packs the whole tree in one pass, the second with the edges
    between mini trees cut, and the per-node maps are then derived with numpy
    from the tree's preorder/inorder numbering.  Micro trees get their ids k
    in root preorder, which is the preorder of the micro-root tree with
    children ordered by root preorder.
    """
    n = t.n
    if n < 1:
        raise CoverError("build_cover requires a non-empty tree")
    d_mini, d_micro = default_params(n)
    if micro_b is None:
        micro_b = d_micro
    if mini_b is None:
        mini_b = max(d_mini, micro_b)
    if micro_b < 1 or mini_b < micro_b:
        raise CoverError("need 1 <= micro_b <= mini_b")

    cov = TreeCover._new()
    cov.n = n
    cov.mini_B = mini_b
    cov.micro_B = micro_b
    registry = TypeRegistry()
    cov.registry = registry

    idx = np.intc
    left = np.frombuffer(t.left, dtype=idx)
    right = np.frombuffer(t.right, dtype=idx)
    parent = np.frombuffer(t.parent, dtype=idx)
    st = np.frombuffer(t.st, dtype=idx)
    ls = np.frombuffer(t.ls, dtype=idx)

    # tier 1: t1[v] is v's mini tree, minis numbered by root preorder
    closed = _pack(n, t.left.tolist(), t.right.tolist(), mini_b)
    closed[1] = 1
    t1 = _components(closed, parent)
    is_mini_root = np.frombuffer(closed, dtype=np.uint8)
    mini_root = np.flatnonzero(is_mini_root)
    n_minis = len(mini_root)
    # tier 2: the same packing inside every mini at once
    closed2 = _pack(n, np.where(t1[left] == t1, left, 0).tolist(),
                    np.where(t1[right] == t1, right, 0).tolist(), max(1, micro_b - 2))
    for r in mini_root.tolist():
        closed2[r] = 1
    k_of = _components(closed2, parent)
    micro_root = np.flatnonzero(np.frombuffer(closed2, dtype=np.uint8))
    M = len(micro_root)

    # mini-local subtree sizes subtract the (at most two) child minis inside
    child_minis = mini_root[1:]
    owner = t1[parent[child_minis]]
    if n_minis > 1 and np.bincount(owner).max() > 2:
        raise CoverError("mini tree with more than two outgoing edges")
    inner = np.zeros((2, n_minis + 1), dtype=idx)
    for x, m in zip(child_minis.tolist(), owner.tolist()):
        inner[1 if inner[0, m] else 0, m] = x

    def st_local(v):
        out = st[v].astype(idx)
        for x in inner[:, t1[v]]:
            out -= np.where((x > v) & (x < v + st[v]), st[x], 0)
        return out

    # every micro root but the global one is a portal leaf of its parent's micro
    pc = micro_root[1:]
    pk = k_of[parent[pc]]
    p_side = (right[parent[pc]] == pc).astype(idx)
    p_smini = np.where(is_mini_root[pc] == 1, 0, st_local(pc))
    n_members = np.bincount(k_of[1:], minlength=M + 1)[1:]
    shape_size = n_members + np.bincount(pk, minlength=M + 1)[1:]
    if micro_b >= 3 and shape_size.max() > 2 * micro_b:
        raise CoverError(  # pragma: no cover - guards decomposition bugs
            f"micro shape of {shape_size.max()} nodes exceeds 2*micro_b={2 * micro_b}")
    shape_pre, shape_in, codes, byte_start = _micro_shapes(t, k_of, pk, pc, shape_size)

    # types are interned in (t1, t2) order
    mt1 = t1[micro_root]
    rows = np.argsort(mt1, kind="stable").tolist()
    flags = np.zeros((2, M + 1), dtype=idx)
    flags[p_side, pk] = 1
    nbits = (2 * shape_size + 1).tolist()
    fl, fr = flags[0, 1:].tolist(), flags[1, 1:].tolist()
    type_of = [0] * M
    for j in rows:
        type_of[j] = registry.intern_key(
            (codes[byte_start[j]:byte_start[j + 1]], nbits[j], fl[j], fr[j]))

    portals_of: list[list[_Portal]] = [[] for _ in range(M)]
    portal_pos = shape_pre[n:]
    porder = np.lexsort((portal_pos, pk))
    for j, owner_k, spos, smini in zip(porder.tolist(), pk[porder].tolist(),
                                       portal_pos[porder].tolist(), p_smini[porder].tolist()):
        portals_of[owner_k - 1].append(_Portal(spos, smini, j + 2))

    loc = np.zeros(n + 1, dtype=idx)  # mini-local preorder
    loc[1:] = _rank_within(t1[1:])
    ld = np.arange(n + 1, dtype=idx) - np.frombuffer(t.inorder_of, dtype=idx) + ls
    mt2 = _rank_within(mt1)
    fields = zip(mt1.tolist(), mt2.tolist(), loc[micro_root].tolist(), shape_size.tolist(),
                 (ld[micro_root] - ld[mini_root[mt1 - 1]]).tolist())
    by_k = [_MicroInfo(m1, m2, j + 1, rml, ss, ldm, type_of[j], portals_of[j])
            for j, (m1, m2, rml, ss, ldm) in enumerate(fields)]
    micros: list[list[_MicroInfo]] = [[] for _ in range(n_minis)]
    for j in rows:
        micros[by_k[j].t1 - 1].append(by_k[j])

    # mini portals, ordered by (mini-local parent, side)
    mini_portals: list[list[_MiniPortal]] = [[] for _ in range(n_minis)]
    mp = parent[child_minis]
    m_side = (right[mp] == child_minis).astype(idx)
    lchild = left[mp]
    ls_loc = np.where((m_side == 1) & (lchild != 0) & (t1[lchild] == owner),
                      st_local(lchild), 0)
    m_loc = loc[mp]
    morder = np.lexsort((m_side, m_loc, owner))
    for m, i, side, ls_i, sg in zip(
            owner[morder].tolist(), m_loc[morder].tolist(), m_side[morder].tolist(),
            ls_loc[morder].tolist(), st[child_minis[morder]].tolist()):
        mini_portals[m - 1].append(_MiniPortal(i + ls_i if side else i, side, i, sg))
    cov.minis = [_MiniInfo(r, ldr, ports) for r, ldr, ports in zip(
        mini_root.tolist(), ld[mini_root].tolist(), mini_portals)]
    cov.micros = micros
    cov.micros_by_k = by_k
    cov.type_ids = type_of

    # the inorder position map, run-compressed
    g = np.frombuffer(t.id_at_inorder, dtype=idx)[1:]
    t3 = shape_in[g - 1]
    at = _pca_runs(k_of[g], t3)
    g = g[at]
    cov.c_in = CompressedBitVec.from_positions(n, (at + 1).tolist())
    cov.v1_in, cov.v2_in, cov.v3_in = (array("q", v.astype(np.int64).tobytes())
                                       for v in (t1[g], mt2[k_of[g] - 1], t3[at]))

    cov._build_tb()
    return cov
