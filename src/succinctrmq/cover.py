"""One-tier tree covering: decomposition, tau-names, rank/select, LCA.

The tree splits into micro trees of Theta(lg^2 n) nodes.  Components are
disjoint connected subtrees with at most one outgoing edge in the root's left
subtree and one in its right subtree; outgoing edges materialize as *portal*
leaves in the parent component's shape, so a micro shape carries at most two
portals.  Farzan & Munro (Algorithmica 2014) add a second tier of larger
trees because their micros have Theta(lg n) nodes; with n / lg^2 n micros, a
global lg n-bit field per micro already costs o(n) bits, so one tier suffices.
Nodes are addressed by tau-names (1, micro index, micro-local shape
inorder position).  Farzan & Munro name a node by its micro-local preorder;
here the position is shape inorder, because the query path works in shape
inorder.  The query path names a node by its run of the run-compressed
inorder position map, read off the Euler tour of the ordinal tree of all
micro roots: the LCA micro is the least micro, in the micro-root tree's
preorder, among the runs between two nodes, and rank is a run's start plus an
offset.
"""

from __future__ import annotations

import math
import struct
from array import array
from typing import NamedTuple

import numpy as np

from . import opcount
from .bits import (CompressedBitVec, VariableCellArray, column_width, compact_array, pack_column,
                   read_column)
from .microcodec import TypeRegistry
from .serial import DecodeError, Reader
from .trees import (CHUNK, BinaryTree, PrefixSuffixMinLca, _children, _nearest_smaller_left,
                    tour_from_degrees)


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


def _pack(n: int, left, right, st, B: int) -> bytearray:
    """Bottom-up packing over a forest whose ids are preorder ranks: merge open
    child components into the parent; close a child when it already carries
    two external edges or when merging would exceed 2B nodes (the heavier
    child closes first, so every weight-closed component has >= B nodes).
    Returns a mark per node: 1 where a component closed at that root.  The
    caller closes the forest roots.

    `left`, `right` and `st` (the forest subtree sizes, 0 in slot 0) each
    hold n + 1 ints.  A subtree of at most 2B nodes closes nothing inside and
    stays open with weight st and no external edge, so only the nodes whose
    subtree exceeds 2B (the big nodes) are visited, in reverse preorder
    (bottom-up), and any other child is read from `st`.  The open weight and
    edges are held for the big nodes alone, by rank among them, and the big
    nodes are read as Python ints CHUNK at a time."""
    cap = 2 * B
    sizes = np.asarray(st)
    left, right = np.asarray(left), np.asarray(right)
    big = np.flatnonzero(sizes > cap)
    closed = bytearray(n + 1)
    pend_w = array("i", bytes(4 * len(big)))
    pend_e = bytearray(len(big))  # external edges, counted up to 2
    for top in range(len(big) - 1, -1, -CHUNK):
        rank = np.arange(top, max(top - CHUNK, -1), -1)
        a, b = left[big[rank]], right[big[rank]]
        wa, wb = sizes[a], sizes[b]
        # a big child's rank, or -1: any other child is open with weight st
        ra = np.where(wa > cap, np.searchsorted(big, a), -1)
        rb = np.where(wb > cap, np.searchsorted(big, b), -1)
        for j, a, b, wa, wb, ra, rb in zip(*(x.tolist() for x in (rank, a, b, wa, wb, ra, rb))):
            ea = eb = e = 0
            if ra >= 0:
                wa, ea = pend_w[ra], pend_e[ra]
            if rb >= 0:
                wb, eb = pend_w[rb], pend_e[rb]
            if ea >= 2:
                closed[a] = 1
                e = 1
                a = wa = ea = 0
            if eb >= 2:
                closed[b] = 1
                e += 1
                b = wb = eb = 0
            total = 1 + wa + wb
            if total > cap and a and b:
                if wa > wb:
                    closed[a] = 1
                    total -= wa
                    a = ea = 0
                else:
                    closed[b] = 1
                    total -= wb
                    b = eb = 0
                e += 1
            if total > cap and (a or b):
                closed[a or b] = 1
                total = 1
                ea = eb = 0
                e += 1
            pend_w[j] = total
            e += ea + eb
            pend_e[j] = e if e < 2 else 2
    return closed


def _components(closed, parent) -> np.ndarray:
    """Component id of every node (slot 0 is 0): the rank, in preorder, of its
    nearest closed ancestor-or-self, found by pointer doubling.  `closed`
    marks each component root with a nonzero entry."""
    marks = np.asarray(closed, dtype=bool)
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
    most three external connections each; deterministic, one `_pack` pass
    over the nodes whose subtree exceeds 2B."""
    if t.n < 1:
        raise CoverError("decompose requires a non-empty tree")
    if B < 1:
        raise CoverError("B must be >= 1")
    closed = _pack(t.n, t.left, t.right, t.st, B)
    closed[1] = 1
    comp = _components(closed, np.frombuffer(t.parent, dtype=np.intc))
    order = np.argsort(comp[1:], kind="stable") + 1
    cuts = np.flatnonzero(np.diff(comp[order])) + 1
    members = [[]] + [part.tolist() for part in np.split(order, cuts)]
    roots = np.flatnonzero(np.frombuffer(closed, dtype=np.uint8)).tolist()
    return Decomposition(t.n, B, array("i", comp.tobytes()), members, roots)


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
# one-tier cover
# ---------------------------------------------------------------------------

class TauName(NamedTuple):
    """(1, micro tree k, micro-local shape inorder position).  A tau-name
    keeps the fields of a two-tier cover's names; this cover has one tier, so
    t1 is 1 for every node and t2 is the micro's k.  The query path's
    layers (`TreeCover.select_inorder`, `lca_run` and `rank_inorder`) pass
    (run, t3) pairs between them, the run being one of micro t2's."""

    t1: int
    t2: int
    t3: int


_tau = tuple.__new__  # builds a TauName without its keyword-parsing __new__


class MicroView(NamedTuple):
    """One micro tree's entries in the cover columns, for reports and tests."""

    k: int  # rank of the micro's root in global preorder
    root_pre: int  # global preorder of the micro's root
    shape_size: int  # members plus portal leaves
    root_ld: int  # global left depth of the micro's root
    type_id: int
    portals: tuple  # (shape inorder position, members under the edge, child k) each


# The packed columns of each cover section, in file order; FORMAT.md, "RmqIndex
# (version 9)", says what each holds.  A micro's shape size is its type's, and
# `TreeCover._install` derives the other cover columns from these.
_SECTIONS = (
    (b"MICR", ("root_ld", "type_of", "p_count", "p_pos")),
    (b"PCAS", ("p_in",)),
)
# held 1-based (slot 0 unused), per micro tree
_ONE_BASED = ("shape_size", "root_ld", "type_of")
# held as offsets: the portals of micro k are p_off[k]..p_off[k + 1] - 1
_OFFSETS = {"p_count": "p_off"}


def default_params(n: int) -> int:
    """The default micro_B.  Micro trees of ~lg^2 n nodes keep both the
    per-micro index overhead and the per-micro code header at a few percent
    per node at desk scale."""
    lg = math.log2(n + 2)
    return max(8, math.ceil(lg * lg))


class TreeCover:
    """Queryable one-tier cover; immutable after construction.

    Every field is a column, per micro tree (1-based), per portal or per run:
    an owning `array` of the narrowest integer type.  Micro trees are
    numbered k = 1.. in root preorder, which is also the preorder of the
    micro-root tree.  Runs are numbered r = 1.. in inorder; run r starts at
    c_in's r-th 1-bit."""

    __slots__ = (
        "n", "micro_B", "registry", "c_in",
        # per micro tree k: nonzero once k has passed the first-use check
        "_checked",
        # per micro tree k, and its portals p_off[k] .. p_off[k + 1] - 1
        "root_pre", "shape_size", "root_ld", "type_of", "p_off", "p_pos", "p_in", "p_size",
        "p_child", "k_run",
        # per run of the inorder position map (slot 0 unused)
        "run_in", "run_k", "run_t3", "run_next", "run_min",
    )

    def __init__(self):
        raise TypeError("use build_cover or TreeCover.from_sections")

    # ---- queries ----------------------------------------------------------

    # The RMQ path works on (run r, shape inorder position) pairs, which its
    # own layers produce and take: select gives them, LCA takes two and gives
    # one, and rank takes that.  A tau-name (1, k, s) is the same node named
    # by its micro, so the tau-name methods check a name, find its run and
    # call the same layers.

    def _pair(self, name) -> tuple[int, int]:
        """The (run, shape inorder position) pair of a tau-name, checking that
        each part is in range and that it names a node, not a portal copy."""
        t1, k, s = name
        if t1 != 1:
            raise ValueError(f"t1 is {t1}, not 1: the cover has one tier")
        if not 1 <= k <= self.micro_count():
            raise ValueError(f"no micro tree {k}")
        if not 1 <= s <= self.shape_size[k]:
            raise ValueError(f"shape position {s} out of range")
        if s in self.p_in[self.p_off[k]:self.p_off[k + 1]]:
            raise ValueError(f"shape inorder position {s} is a portal copy, not a node")
        r = self.k_run[k]
        while (after := self.run_next[r]) and self.run_t3[after] <= s:
            r = after
        return r, s

    def nodeselect_inorder(self, i: int) -> TauName:
        r, s = self.select_inorder(i)
        return _tau(TauName, (1, self.run_k[r], s))

    def lca(self, u: TauName, v: TauName) -> TauName:
        u, v = sorted((self._pair(u), self._pair(v)))
        r, s = self.lca_run(*u, *v)
        return _tau(TauName, (1, self.run_k[r], s))

    def noderank_inorder(self, name: TauName) -> int:
        return self.rank_inorder(*self._pair(name))

    def _table(self, k: int):
        """The lookup table of micro k's type, built on first use."""
        type_id = self.type_of[k]
        return self.registry.tables.get(type_id) or self.registry.table(type_id)

    def select_inorder(self, i: int) -> tuple[int, int]:
        """(run, shape inorder position) of the node of inorder rank i: the
        run that holds it, numbered by the count of run starts up to i, and
        the run's first shape position plus i's offset from the run's start;
        it reads no lookup table.  ValueError if no run starts at or before
        i."""
        if not 1 <= i <= self.n:
            raise IndexError(f"inorder index {i} out of range 1..{self.n}")
        r = self.c_in.rank1(i)
        if not r:
            raise ValueError(f"no run starts at or before inorder position {i}")
        opcount.add(2)  # run_in and run_t3
        return r, self.run_t3[r] + (i - self.run_in[r])

    def rank_inorder(self, r: int, s: int) -> int:
        """Global inorder rank of the node at shape inorder position s of run
        r: the run's first member's rank plus s's offset from the run's first
        shape position.  It reads no lookup table."""
        opcount.add(2)
        return self.run_in[r] + s - self.run_t3[r]

    def lca_run(self, ru: int, su: int, rv: int, sv: int) -> tuple[int, int]:
        """(run, shape inorder position) of the LCA of the nodes at (ru, su)
        and (rv, sv), the first at or before the second in inorder.  Only the
        LCA micro's lookup table is read, and the first time a micro is the
        LCA micro, it is checked against the cover.

        Every node between u and v in inorder lies in the subtree of their
        LCA w, so in w's micro k or below it, and w lies between them; as
        micros are numbered in the micro-root tree's preorder, k is the
        least micro among runs ru .. rv, and its leftmost run r is k's first
        run there.  `run_min` finds r with no scan across blocks: at most
        four candidate positions and the four micros they name.  Inside k,
        the LCA is the leftmost least left depth between x and y
        (`ShapeTable`), for any x from the portal toward u
        (or u itself) to w, and any y from w to the portal toward v (or v):
        x is u if r is ru, and otherwise r's first position, just past the
        portal whose subtree holds u; y is v if k's last run at or before rv
        is rv, and otherwise that run's last position, just before the
        portal whose subtree holds v; the table scans at most two partial
        blocks of left depths, as prefix and suffix minima would add at least
        16 bits per shape node to its 8-bit left depths.  A micro has at most
        three runs, one per stretch between its portals."""
        t3, nxt = self.run_t3, self.run_next
        if ru == rv:
            r, x, y = ru, su, sv
            k = self.run_k[r]
            ops = 0
        else:
            r = self.run_min.range_min(ru, rv)
            k = self.run_k[r]
            x = su if r == ru else t3[r]
            last, after = r, nxt[r]
            ops = 2
            while after and after <= rv:
                last, after = after, nxt[after]
                ops += 1
            if last == rv:
                y = sv
            else:  # before the next run's first position, or the shape's end
                y = (t3[after] if after else self.shape_size[k] + 1) - 2
                ops += 1
        table = self._table(k)
        if not self._checked[k]:
            self._check_micro(k, table)
        s = table.range_min(x, y)
        # the run of k that holds s: r or a later one
        while (after := nxt[r]) and t3[after] <= s:
            r = after
            ops += 2
        opcount.add(ops + 4)  # run_k, type_of, and the two reads that end the walk
        return r, s

    def _check_micro(self, k: int, table) -> None:
        """Check micro k against its shape, or raise ValueError: each portal's
        shape preorder is a leaf of the shape at its portal's inorder
        position, and each of k's runs (derived from `PCAS`) starts where
        `MICR` places its first member s: before micro k's subtree in inorder
        come root_pre - 1 - root_ld nodes (the root's global preorder less
        one, less its left depth), and before s inside it come s - 1 shape
        nodes, of which each portal leaf stands for p_size members.  Like the
        table build, the check is not a query's work and charges no
        operations.  The flag is set only after the check passes, so
        concurrent readers at worst check twice."""
        a, b = self.p_off[k], self.p_off[k + 1]
        p_in = self.p_in
        for j in range(a, b):
            s, p = p_in[j], self.p_pos[j]
            # a leaf's preorder is its inorder position plus its left depth,
            # as its left subtree is empty
            if s + table.ld[s] != p or not table.is_leaf(s):
                raise ValueError(f"micro {k}: portal {p} is not a leaf at its inorder "
                                 f"position {s}")
        before = self.root_pre[k] - 1 - self.root_ld[k]
        j, r = a, self.k_run[k]
        while r:
            s = self.run_t3[r]
            while j < b and p_in[j] < s:
                before += self.p_size[j] - 1
                j += 1
            if self.run_in[r] != before + s:
                raise ValueError(f"micro {k}: its member at shape inorder position {s} ranks "
                                 f"{before + s}, but its run starts at {self.run_in[r]}")
            r = self.run_next[r]
        self._checked[k] = 1

    # ---- reporting ---------------------------------------------------------

    def micro_count(self) -> int:
        return len(self.type_of) - 1

    @property
    def type_ids(self) -> list[int]:
        """The type id of every micro tree, in k order."""
        return self.type_of[1:].tolist()

    @property
    def micros_by_k(self) -> list[MicroView]:
        """A read-only row view of every micro tree, in k order."""
        off = self.p_off
        ports = [tuple(zip(self.p_in[a:b], self.p_size[a:b], self.p_child[a:b]))
                 for a, b in zip(off[1:], off[2:])]
        return [MicroView(*row) for row in zip(
            range(1, len(ports) + 1), self.root_pre[1:], self.shape_size[1:], self.root_ld[1:],
            self.type_of[1:], ports)]

    def space_bits(self) -> dict:
        """Designed widths, in bits: each stored column at its packed width,
        plus what a load derives from them: the inorder map's runs (their
        starts as c_in and as a column, micro, first shape position and next
        run of the same micro, and c_in's rank directory), the range-minimum
        table over the runs' micros at its held widths, and the per-micro and
        per-portal columns the first-use check reads, each derived column at
        the width it would pack at.  Built lookup tables have a separate
        budget."""
        cols = self._columns()
        packed = {tag: sum(len(cols[x]) * column_width(cols[x]) for x in names)
                  for tag, names in _SECTIONS}
        # run_min holds run_k as its sequence, and counts it
        derived = (self.c_in.positions(), self.run_in, self.run_t3, self.run_next, self.k_run,
                   self.p_child, self.p_size, self.root_pre)
        return {
            "per_micro_tables": packed[b"MICR"],
            "pca_inorder": packed[b"PCAS"] + self.c_in.space_bits()["directory"],
            "micro_root_tree": self.run_min.space_bits() + sum(len(x) * column_width(x)
                                                                 for x in derived),
            "lookup_tables_built": self.registry.tables_space_bits(),
        }

    def dump(self) -> str:
        """Human-readable component listing."""
        out = [f"cover: n={self.n} micros={self.micro_count()} micro_B={self.micro_B} "
               f"types={len(self.registry)}"]
        for m in self.micros_by_k:
            ports = ",".join(f"@{pos}->k{child}" for pos, _, child in m.portals)
            out.append(f"micro k={m.k}: root_pre={m.root_pre} "
                       f"members={m.shape_size - len(m.portals)} shape={m.shape_size} "
                       f"type={m.type_id} portals=[{ports}]")
        return "\n".join(out)

    # ---- serialization ------------------------------------------------------

    def _columns(self) -> dict[str, np.ndarray]:
        """The stored columns (see `_SECTIONS`)."""
        cols = {}
        for name in (x for _, names in _SECTIONS for x in names):
            col = np.asarray(getattr(self, _OFFSETS.get(name, name)))
            if name in _OFFSETS:
                col = np.diff(col)
            cols[name] = col[1:] if name in _ONE_BASED or name in _OFFSETS else col
        return cols

    def to_sections(self) -> list[tuple[bytes, bytes]]:
        cols = self._columns()
        return [(b"CMET", struct.pack("<QQ", self.n, self.micro_B))] + [
            (tag, b"".join(pack_column(cols[name]) for name in names)) for tag, names in _SECTIONS
        ] + [(b"TYPR", self.registry.to_bytes())]

    @classmethod
    def from_sections(cls, sections: dict[bytes, bytes]) -> "TreeCover":
        for tag in (b"CMET", b"MICR", b"PCAS", b"TYPR"):
            if tag not in sections:
                raise DecodeError(f"missing cover section {tag.decode('ascii')}")
        cov = object.__new__(cls)
        r = Reader(sections[b"CMET"], "CMET")
        cov.n, cov.micro_B = r.take("<QQ")
        r.end()
        cols = {}
        for tag, names in _SECTIONS:
            r = Reader(sections[tag], tag.decode("ascii"))
            for name in names:
                cols[name] = read_column(r)
            r.end()
        cov.registry = TypeRegistry.from_bytes(sections[b"TYPR"])
        _check_columns(cov.n, cols, cov.registry)
        cov._install(cols)
        return cov

    # ---- shared assembly -----------------------------------------------------

    def _install(self, cols: dict[str, np.ndarray]) -> None:
        """Hold the stored columns as compact arrays and derive the rest
        (FORMAT.md, "RmqIndex (version 9)"): from the micro-root tree's
        Euler tour, whose preorder degree sequence is the portal counts, the
        inorder position map's runs and their micros' range minima, each
        portal's child micro and global member count, and each micro root's
        global preorder.  The tour itself is not held."""
        for name, col in cols.items():
            if name in _ONE_BASED:
                col = np.append(0, col)
            elif name in _OFFSETS:
                name, col = _OFFSETS[name], np.append((0, 0), np.cumsum(col))
            setattr(self, name, compact_array(col))
        ports = np.asarray(cols["p_count"], dtype=np.int64)
        micros = len(ports)
        self._checked = bytearray(micros + 1)
        p_off = np.append(0, np.cumsum(ports))
        enter, exit_, child = tour_from_degrees(ports)
        self.p_child = compact_array(child)
        start, run_k, run_t3 = _runs(p_off, cols["shape_size"], enter[1:], exit_[child],
                                     cols["p_in"])
        self.c_in = CompressedBitVec.from_positions(self.n, start)
        self.run_in, self.run_k, self.run_t3 = (compact_array(np.append(0, x))
                                                for x in (start, run_k, run_t3))
        # each micro's runs in inorder, linked: its first run, and each run's
        # next of the same micro (0 after the last)
        runs = np.argsort(run_k, kind="stable") + 1
        same = np.flatnonzero(np.diff(run_k[runs - 1]) == 0)
        nxt = np.zeros(len(start) + 1, dtype=np.int64)
        nxt[runs[same]] = runs[same + 1]
        self.run_next = compact_array(nxt)
        first = np.delete(runs, same + 1)
        self.k_run = compact_array(np.append(0, first))  # run_k[first] is 1 .. micros
        # the range minima of the runs' micros give the LCA micro; no range
        # reaches slot 0
        self.run_min = PrefixSuffixMinLca(self.run_k, np.append(0, run_k))

        # a portal into micro c stands for the members of the micros in c's
        # subtree, k in c .. c + size - 1, a range read off the Euler tour
        members = np.append(0, np.cumsum(cols["shape_size"] - ports))
        end = np.arange(micros + 1) + (exit_ - enter + 1) // 2  # k past each subtree
        p_size = members[end[child] - 1] - members[child - 1]
        self.p_size = compact_array(p_size)

        # a micro root's global preorder is its parent's - 1 + its portal's
        # shape position + (p_size - 1) per earlier portal of the parent, and 1
        # at micro 1: a sum along the path from micro 1, which the Euler tour
        # turns into a prefix sum
        step = p_size - 1
        before = np.cumsum(step) - step
        owner = np.repeat(np.arange(micros), ports)
        gain = cols["p_pos"] - 1 + before - before[p_off[owner]]
        tour = np.zeros(2 * micros + 1, dtype=np.int64)
        tour[enter[child]] = gain
        tour[exit_[child]] = -gain
        root_pre = 1 + np.cumsum(tour)[enter]
        root_pre[0] = 0
        self.root_pre = compact_array(root_pre)


def _runs(p_off, sizes, enter, leave, positions) -> tuple:
    """The inorder position map, run-compressed: each run's start, micro
    and first shape inorder position, in inorder.  It is read from
    every portal's shape inorder position, in (micro, position) order;
    micro k's portals are p_off[k - 1] .. p_off[k] - 1, its shape size is
    sizes[k - 1], and the micro-root tree's Euler tour enters it at time
    enter[k - 1] and leaves portal j's child at leave[j].

    Stretch i of micro k is its members between its portals i and i + 1 in
    that order, with shape positions 0 and shape size + 1 standing in at the
    ends.  In global order, micro k's stretches come between the subtrees
    below its portals, so the map lists every stretch in Euler-tour order:
    stretch 0 when the tour enters k, stretch i when it leaves portal i's
    child.  These are the tour times but the root's exit, 1 .. 2M - 1.  The
    non-empty stretches are the runs; two stretches of one micro never touch,
    since a portal's child subtree has members, so the runs are maximal."""
    micros = len(sizes)
    ports = np.diff(p_off)
    first = p_off[:-1] + np.arange(micros)  # stretch 0 of each micro, in (micro, i) order
    mark = np.zeros(2 * micros - 1, dtype=np.int64)
    mark[first] = 1
    micro = np.cumsum(mark)  # each stretch's micro
    after = np.flatnonzero(mark == 0)  # the stretch after each portal
    start = np.ones(2 * micros - 1, dtype=np.int64)
    start[after] = np.asarray(positions, dtype=np.int64) + 1
    stop = np.empty_like(start)  # one past each stretch
    stop[:-1] = start[1:] - 1
    stop[first + ports] = sizes + 1
    by_time = np.empty_like(start)
    by_time[enter - 1] = first
    by_time[leave - 1] = after
    size = (stop - start)[by_time]
    keep = np.flatnonzero(size)
    runs, size = by_time[keep], size[keep]
    return np.cumsum(size) - size + 1, micro[runs], start[runs]


def _check_columns(n: int, c: dict[str, np.ndarray], registry: TypeRegistry) -> None:
    """Value checks on loaded cover columns, in O(#micros) numpy passes,
    which also add each micro's shape size, read off its type; a failure is
    a DecodeError saying what is inconsistent.  The portal counts
    must be a tree's preorder degree sequence, so that every column
    `TreeCover._install` derives is defined."""
    def need(ok, what: str) -> None:
        if not ok:
            raise DecodeError(f"cover columns: {what}")

    micros = len(c["p_count"])
    rows = ((("root_ld", "type_of"), micros), (("p_pos", "p_in"), micros - 1))
    need(micros and all(len(c[x]) == count for names, count in rows for x in names),
         "columns differ in length")
    ports = c["p_count"]
    need((ports <= 2).all(), "a micro has more than two portals")
    open_after = 1 + np.cumsum(ports - 1)  # portals left open after each micro
    need((open_after[:-1] >= 1).all() and open_after[-1] == 0,
         "portal counts are not the preorder degree sequence of a tree")
    need((c["type_of"] < len(registry)).all(), "a micro's type is not in the registry")
    c["shape_size"] = size = registry.shape_bits()[c["type_of"]] >> 1
    need((ports < size).all() and (size - ports <= n).all() and (size - ports).sum() == n,
         "micro member counts do not sum to n")
    # a shape's root is a member, and its portal leaves are listed in shape
    # preorder; so every derived preorder and member count is >= 1
    owner = np.repeat(np.arange(micros), ports)
    other = np.diff(owner) > 0
    pos = c["p_pos"]
    need(((pos >= 2) & (pos <= size[owner])).all() and ((np.diff(pos) > 0) | other).all(),
         "portal positions do not rise within 2..shape size in each micro")
    # two leaves have their LCA, a member, between them in inorder; so every
    # derived run has members, and the run starts rise within 1..n
    pos = c["p_in"]
    need(((pos >= 1) & (pos <= size[owner])).all() and ((np.diff(pos) >= 2) | other).all(),
         "portal inorder positions do not rise by 2 or more within 1..shape size in each micro")


def build_cover(t: BinaryTree, micro_b: int | None = None) -> TreeCover:
    """Build the one-tier cover of a binary tree: `cover_from_spans` on its
    spans, read off its inorder numbering and left subtree sizes."""
    lo = np.frombuffer(t.inorder_of, dtype=np.intc) - np.frombuffer(t.ls, dtype=np.intc) - 1
    lo[0] = 0
    return cover_from_spans(lo, np.frombuffer(t.st, dtype=np.intc), micro_b)


def cover_from_spans(lo: np.ndarray, st: np.ndarray, micro_b: int | None = None) -> TreeCover:
    """Build the one-tier cover of the binary tree with spans `lo`, `st`
    (`trees.cartesian_spans`): over preorder ids, node p's subtree has st[p]
    nodes at inorder positions lo[p] + 1 .. lo[p] + st[p].

    The micros are the components of `decompose(t, max(1, micro_b - 2))`,
    found by the same `_pack` pass, which visits only the nodes whose subtree
    exceeds its 2B; each micro has at most two portals, so its shape has at
    most 2 * micro_b nodes.  Micro trees get their ids k in root preorder,
    which is the preorder of the micro-root tree with children ordered by
    root preorder.  Beyond the children and the packing, only the micro
    shapes' Zaks codes take a pass over the nodes; every other column is
    computed per micro or per portal.
    """
    n = len(st) - 1
    if n < 1:
        raise CoverError("build_cover requires a non-empty tree")
    if micro_b is None:
        micro_b = default_params(n)
    if micro_b < 1:
        raise CoverError("need micro_b >= 1")

    cov = object.__new__(TreeCover)
    cov.n = n
    cov.micro_B = micro_b

    left, right = _children(lo, st)
    closed = _pack(n, left, right, st, max(1, micro_b - 2))
    del left, right
    closed[1] = 1
    root = np.flatnonzero(np.frombuffer(closed, dtype=np.uint8))  # micro k's is root[k - 1]
    del closed
    M = len(root)
    end = root + st[root]  # one past the root's subtree, in preorder
    # every micro root but the global one is a portal leaf of its parent's
    # micro, the nearest earlier micro whose subtree holds it; portals are
    # listed in (owning micro, shape position) order
    owner = _nearest_smaller_left(np.append(-2 - n, -end).astype(np.intc))[2:]
    by_owner = np.argsort(owner, kind="stable")
    owner, child = owner[by_owner], root[1:][by_owner]
    p_count = np.bincount(owner, minlength=M + 1)[1:]
    p_off = np.append(0, np.cumsum(p_count))  # micro k's portals are p_off[k - 1] .. p_off[k] - 1
    # a portal leaf stands for its child's subtree, whose other nodes the
    # shape drops: `skip` of them under the same micro's earlier portals
    gone = st[child] - 1
    gone_sum = np.append(0, np.cumsum(gone))
    skip = gone_sum[:-1] - gone_sum[p_off[owner - 1]]
    home = root[owner - 1]
    p_pos = child - home + 1 - skip
    p_in = lo[child] - lo[home] + 1 - skip
    shape_size = st[root] - np.diff(gone_sum[p_off])
    if micro_b >= 3 and shape_size.max() > 2 * micro_b:
        raise CoverError(  # pragma: no cover - guards decomposition bugs
            f"micro shape of {shape_size.max()} nodes exceeds 2*micro_b={2 * micro_b}")

    # Node p's 1-bit sits at z(p) = p - 1 + lo[p] of the whole tree's Zaks
    # code, and a subtree's bits are contiguous, so a micro's code is the
    # whole code from its root's bit on, less the bits of each portal's
    # subtree but the leaf's 1-bit and two 0-bits.  Code k is right-aligned
    # in its bytes, so they read as its value: its root's bit goes to
    # 8 * stop[k] - nbits[k], and its members' bits follow by stretch, the
    # members between consecutive portals in preorder, each stretch at one
    # offset from z.
    nbits = 2 * shape_size + 1
    nbytes = (nbits + 7) // 8
    stop = np.cumsum(nbytes)
    base = 8 * stop - nbits - (root - 1 + lo[root])
    first = p_off[:-1] + np.arange(M)  # stretch 0 of each micro, in (micro, stretch) order
    after = np.ones(2 * M - 1, dtype=bool)
    after[first] = False
    after = np.flatnonzero(after)  # the stretch after each portal
    start = np.empty(2 * M - 1, dtype=np.int64)
    start[first] = root
    start[after] = child + gone + 1
    size = np.empty_like(start)
    size[after - 1] = child
    size[first + p_count] = end
    size -= start
    shift = np.empty_like(start)
    shift[first] = base
    shift[after] = base[owner - 1] - 2 * (skip + gone)
    keep = np.flatnonzero(size)
    keep = keep[np.argsort(start[keep])]
    bits = np.zeros(8 * int(stop[-1]), dtype=np.uint8)
    bits[np.arange(n, dtype=np.intc) + lo[1:] + np.repeat(shift[keep].astype(np.intc), size[keep])] = 1
    bits[base[owner - 1] + child - 1 + lo[child] - 2 * skip] = 1
    codes = np.packbits(bits).tobytes()
    del bits
    keys = [(int.from_bytes(codes[e - w:e], "big"), length)
            for e, w, length in zip(stop.tolist(), nbytes.tolist(), nbits.tolist())]

    # a type is a shape; types are numbered in k order of first use
    type_id: dict[tuple[int, int], int] = {}
    type_of = [type_id.setdefault(key, len(type_id)) for key in keys]
    cov.registry = TypeRegistry(VariableCellArray(type_id))
    # a node's left depth is its preorder - inorder + left-subtree size,
    # p - (lo[p] + 1 + ls) + ls
    cov._install({
        "root_ld": root - lo[root] - 1, "shape_size": shape_size,
        "type_of": np.asarray(type_of), "p_count": p_count, "p_pos": p_pos, "p_in": p_in,
    })
    return cov
