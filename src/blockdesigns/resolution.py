"""Resolutions into parallel classes, resolution search, and the
partial-replacement-property (PRP) check.

A resolution partitions a design's block *instances* into parallel classes
(each class: v/k disjoint blocks covering every point).  Two classes
satisfy alpha-PRP when the 2w blocks they hold can be re-partitioned into
a different pair of parallel classes overlapping the first class in
exactly alpha blocks; resolutions free of such swaps make the union
construction produce simple designs.

Only the resolution search searches.  It completes one parallel class at
a time over bitsets of block indices (Python ints) in descending order,
block i of b at bit b-1-i, so the lowest block of a set is read off its
bit_length (the floor of lg, Knuth TAOCP 4A §7.1.3) and no set is
negated; points are stored the same way.  For the lowest uncovered point,
`through` holds the blocks through it and `avail` the blocks that may
still be placed.  The point is filled with each block of
`through & avail` in increasing index order, and placing block i keeps in
`avail` only the blocks that miss it (one AND with a precomputed mask), so
no candidate is scanned and rejected.  The backtracking runs as one loop
over an explicit stack of levels, as Knuth's Algorithm X does (TAOCP 4B
§7.2.2.1), so the interpreter's recursion limit bounds neither the w
blocks of a class nor the r classes of a resolution.  Every placed block
is one node of the search budget.

A search that has spent SYMMETRY_AFTER = 8192 nodes without finding a
resolution runs one symmetry stage there, as the 1-rotational masters
need once their points are relabelled.  It looks for a point automorphism
sigma whose block orbits all have one length m > 1 dividing r, by
individualisation and refinement (core._find_automorphism), at b nodes per
round of refinement.  Then the same loop, with each block's sigma-orbit
dropped from `keep` and each completed class taking its m images, looks
for a resolution whose classes fall into sigma-orbits of m classes, at one
node per block placed; the first one found is the first result, and the
plain search goes on with the budget left.  A search that finishes, or
finds its first resolution, within 8192 nodes is unchanged by the stage.

The PRP check reads the alphas of a
class pair off the connected components of its 2w blocks, and charges 2w
nodes per pair.  When k >= w, it first decides at once every pair in
which the first block of one class meets all w blocks of the other, from
one table of the position of the block through each point in each class:
those 2w blocks are one component, which admits no swap.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import (
    Design,
    DesignError,
    _columns,
    _find_automorphism,
    _ints,
    _orbits,
    _replication,
    _row_ranks,
)

__all__ = [
    "BadAlpha",
    "CheckResult",
    "DEFAULT_NODE_BUDGET",
    "ParallelClass",
    "Resolution",
    "SYMMETRY_AFTER",
    "SearchBudgetExceeded",
    "find_resolutions",
    "prp_violations",
    "verify_resolution",
]

DEFAULT_NODE_BUDGET = 100_000_000


class SearchBudgetExceeded(DesignError):
    """Search node budget exhausted before the enumeration completed.

    `found` holds the results so far and `noun` names them in the message,
    e.g. "resolution(s)" or "PRP violation(s)".
    """

    def __init__(self, nodes: int, found, noun: str):
        super().__init__(
            f"search budget of {nodes} nodes exhausted "
            f"({len(found)} {noun} found so far)"
        )
        self.nodes = nodes
        self.found = list(found)


class BadAlpha(DesignError):
    pass


@dataclass(frozen=True)
class ParallelClass:
    """Indices into the parent design's block list forming one class."""

    block_refs: tuple[int, ...]


@dataclass(frozen=True)
class Resolution:
    """A partition of a design's block instances into parallel classes.

    The constructor only checks index validity; use verify_resolution for
    the semantic partition checks.
    """

    design: Design
    classes: tuple[ParallelClass, ...]

    @classmethod
    def _from_search(cls, design: Design, classes: tuple[ParallelClass, ...]) -> "Resolution":
        """The resolution of design into classes whose refs the search
        took from the design's own blocks, so they are not checked again."""
        res = cls.__new__(cls)
        res.__dict__.update(design=design, classes=classes)
        return res

    def __post_init__(self) -> None:
        b = len(self.design._members)
        for cls in self.classes:
            for ref in cls.block_refs:
                if not 0 <= ref < b:
                    raise DesignError(f"block reference {ref} out of range 0..{b - 1}")


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict carrying a diagnostic on failure."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _class_check(design: Design, refs: tuple[int, ...]) -> str | None:
    """None if refs form a parallel class, else a diagnostic."""
    v, k = design.points.size, design.k
    if v % k:
        return f"block size {k} does not divide {v}"
    w = v // k
    if len(refs) != len(set(refs)):
        return f"class repeats a block instance: {refs}"
    if len(refs) != w:
        return f"class has {len(refs)} blocks, expected {w}"
    cover = 0
    for ref in refs:
        mask = design._masks[ref]
        if cover & mask:
            return f"blocks in class {refs} are not pairwise disjoint"
        cover |= mask
    return None  # w disjoint blocks of size k cover all v = wk points


def verify_resolution(design: Design, res: Resolution) -> CheckResult:
    """Check that res partitions design's block instances into parallel
    classes; the result is falsy with a reason when it does not.

    The verdict is one array check (_partitions_blocks); the classes are
    looked at one by one only to word what fails."""
    if res.design != design:
        return CheckResult(False, "resolution refers to a different design")
    if _partitions_blocks(design, res):
        return CheckResult(True)
    used: list[int] = []
    for index, cls in enumerate(res.classes):
        problem = _class_check(design, cls.block_refs)
        if problem:
            return CheckResult(False, f"class {index}: {problem}")
        used.extend(cls.block_refs)
    if len(used) != len(set(used)):
        dup = next(ref for ref, n in Counter(used).items() if n > 1)
        return CheckResult(False, f"block instance {dup} appears in two classes")
    b = len(design._members)
    if len(used) != b:
        missing = min(set(range(b)) - set(used))
        return CheckResult(False, f"block instance {missing} is in no class")
    return CheckResult(True)


def _partitions_blocks(design: Design, res: Resolution) -> bool:
    """True when the classes of res form an r x w array of block indices,
    w = v/k, in which every block occurs once, and the blocks of each
    class cover every point once: the points of class i, offset by i*v,
    have a bincount of all ones."""
    v, k, b = design.points.size, design.k, len(design._members)
    w = v // k
    if v % k or any(len(cls.block_refs) != w for cls in res.classes):
        return False
    refs = np.array([cls.block_refs for cls in res.classes], dtype=np.intp)
    refs = refs.reshape(len(res.classes), w)
    if refs.size != b or (np.bincount(refs.ravel(), minlength=b) != 1).any():
        return False
    offsets = np.arange(len(refs))[:, None, None] * v
    points = design._members[refs] + offsets
    return bool((np.bincount(points.ravel(), minlength=len(refs) * v) == 1).all())


# Bits of the `keep` masks one resolution search holds: each is b bits, so
# a design with more than sqrt(MEETS_MEMO_BITS) blocks keeps the masks of
# MEETS_MEMO_BITS // b of them and rebuilds the others on use.
MEETS_MEMO_BITS = 1 << 26


class _Keep(dict):
    """keep[n] for a design whose b x b bits exceed MEETS_MEMO_BITS: the
    blocks that miss block b-n, built by _keep_mask on first use and
    memoized while there is room."""

    def __init__(self, members, through, full):
        super().__init__()
        self.members = members
        self.through = through
        self.full = full
        self.room = MEETS_MEMO_BITS // len(members)

    def __missing__(self, n):
        mask = _keep_mask(self.members[-n].tolist(), self.through, self.full)
        if len(self) < self.room:
            self[n] = mask
        return mask


def _keep_mask(block, through, full) -> int:
    """The blocks of `full` that share no point with `block`; through[p]
    holds the blocks through point p."""
    meets = 0
    for p in block:
        meets |= through[p]
    return full ^ meets


def _search_masks(design: Design):
    """(masks, through, keep): the search's sets in descending bit order,
    each indexed by n for block b-n or by m for point v-m.

    Over v points, point p is bit v-1-p; over b blocks, block i is bit
    b-1-i.  masks[n] holds the points of block b-n, as design._masks
    does; through[m] the blocks through point v-m (0 for a point in no
    block), read off the packed column of the point over the blocks in
    reverse order; keep[n] the blocks that miss block b-n, a list when
    all b masks fit in MEETS_MEMO_BITS bits and a bounded memo (_Keep)
    when not.
    """
    members = design._members
    v, b = design.points.size, len(members)
    through = [0] * v
    present = np.flatnonzero(_replication(design))
    columns = _ints(_columns(members[::-1], v, slice(0, 0)))
    for p, mask in zip(present.tolist(), columns):
        through[p] = mask
    full = (1 << b) - 1
    if b * b > MEETS_MEMO_BITS:
        keep = _Keep(members, through, full)
    else:
        blocks = members[::-1].tolist()
        keep = [0] + [_keep_mask(block, through, full) for block in blocks]
    return (0, *design._masks[::-1]), [0] + through[::-1], keep


# Nodes the plain search spends before it runs its one symmetry stage,
# when it has found no resolution by then: more than five times the 1,535
# nodes that the slowest of the benchmark's other search inputs (seeds
# 1-3), a relabelled (24,4,3), needs for its first resolution.
SYMMETRY_AFTER = 8192


def find_resolutions(
    design: Design, limit: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> list[Resolution]:
    """Backtracking exact-cover search for up to `limit` resolutions.

    Results are canonically deduplicated: two instance-partitions that are
    equal as multisets of classes-of-block-sets count once.  An empty list
    means the search completed without finding any resolution.  Raises
    SearchBudgetExceeded, carrying the resolutions found so far, when the
    node budget runs out first.

    The lowest unused block opens each class: classes are unordered, so
    fixing it prunes the r! class-order symmetry.  The lowest uncovered
    point of the class is then filled with each free block through it
    that misses the points covered, in increasing index order, and each
    block so placed costs one node.

    When SYMMETRY_AFTER nodes have gone by and no resolution has been
    found, one symmetry stage runs (_Search.symmetry_stage) before the
    search goes on with the budget left.  It looks for a point
    automorphism sigma whose block orbits all have one length m > 1 that
    divides r (core._find_automorphism), charging b nodes for each round
    of refinement, and then, on the same loop, for a resolution whose
    classes fall into sigma-orbits of m classes, charging one node per
    block placed; the first it finds is the first result.  With no such
    sigma, or no such resolution, the stage adds nothing.  A search that
    finishes, or finds its first resolution, within SYMMETRY_AFTER nodes
    never runs the stage and returns what it returned without it.  The
    stage is skipped when the b x b masks of `keep` exceed
    MEETS_MEMO_BITS, since it builds a second table of them.
    """
    if limit < 1:
        return []
    v, k, b = design.points.size, design.k, len(design._members)
    if v % k:
        raise DesignError(f"block size {k} does not divide {v}")
    w = v // k
    if b == 0 or b % w:
        return []
    search = _Search(design, w, node_budget)
    search.run(search.keep, None, 1, limit, node_budget,
               max(node_budget - SYMMETRY_AFTER, 0))
    return list(search.found.values())


class _Search:
    """One resolution search: the tables of _search_masks, the key of
    each block, the resolutions found so far and the node budget.

    `run` is the search loop, on an explicit stack, not a recursion, so
    its depth is limited by neither w nor r.  The current level is
    (candidates, uncovered, avail): the blocks still to try at the lowest
    uncovered point, the points the class leaves uncovered and the blocks
    that may still join it, as bitsets in the descending order of
    _search_masks.  A level is pushed, with the block it placed, only
    when that block leaves candidates, so a dead end costs its node and
    nothing more.  The current class is (unused, opener, base): the
    blocks of no earlier class, the n of the block b-n that opened it and
    the stack height where its levels start; it is pushed on `opened`
    when the next class opens.  Each class's (contents, refs) is built
    once, when it completes (_class_key), with its ParallelClass.

    `run` is given `keep` and `sigma`, a block permutation whose cycles
    all have length m, as sigma[n] = n' for blocks b-n and b-n'.  The
    plain search passes the keep masks of _search_masks, no permutation
    and m = 1.  The symmetry stage passes keep masks that also drop the
    other blocks of each block's orbit, and the block permutation of an
    automorphism: a completed class then takes its blocks' whole orbits
    out of `unused`, and fills m slots, one for each of its images.
    """

    def __init__(self, design: Design, w: int, node_budget: int):
        members = design._members
        v, b = design.points.size, len(members)
        self.design, self.b, self.w, self.node_budget = design, b, w, node_budget
        self.masks, self.through, self.keep = _search_masks(design)
        # key[n] orders block b-n by (contents, index) as one int: comparing
        # keys compares the blocks as point tuples, ties going to the index.
        self.key = [0] + (_row_ranks(members) * b + np.arange(b))[::-1].tolist()
        self.points = (1 << v) - 1
        self.found: dict[tuple, Resolution] = {}

    def exhausted(self) -> SearchBudgetExceeded:
        return SearchBudgetExceeded(self.node_budget, self.found.values(), "resolution(s)")

    def run(self, keep, sigma, m: int, limit: int, nodes: int, checkpoint: int) -> int:
        """Search until `limit` resolutions are found or the tree is
        done, and return the nodes left of `nodes`.  When `nodes` falls
        below `checkpoint` > 0, the symmetry stage runs if nothing has been
        found; below 0, the budget is exhausted."""
        masks, through, key, points = self.masks, self.through, self.key, self.points
        design, b, w, found = self.design, self.b, self.w, self.found
        classes: list = [None] * (b // w)
        stack: list[tuple[int, int, int, int]] = []
        opened: list[tuple[int, int, int]] = []
        # Block 0, the highest bit, opens the first class; k < v leaves it
        # points to cover.
        unused, opener, base = (1 << b) - 1, b, 0
        uncovered = points ^ masks[b]
        avail = keep[b]
        candidates = through[uncovered.bit_length()] & avail
        while True:
            while candidates:
                n = candidates.bit_length()
                candidates ^= 1 << (n - 1)
                nodes -= 1
                if nodes < checkpoint:
                    if checkpoint and not found:
                        nodes = self.symmetry_stage(nodes)
                        if len(found) >= limit:
                            return nodes
                    checkpoint = 0
                    if nodes < 0:
                        raise self.exhausted()
                left = uncovered ^ masks[n]
                if left:
                    narrowed = avail & keep[n]
                    nxt = through[left.bit_length()] & narrowed
                    if nxt:
                        stack.append((candidates, uncovered, avail, n))
                        candidates, uncovered, avail = nxt, left, narrowed
                    continue
                # Block b-n completes the class: its blocks are the opener,
                # the block each of its stacked levels placed, and b-n.
                placed = [opener, n] + [level[3] for level in stack[base:]]
                rest = unused
                for x in placed:
                    rest ^= 1 << (x - 1)
                if m > 1:
                    images = [placed]
                    for _ in range(m - 1):
                        images.append([sigma[x] for x in images[-1]])
                        for x in images[-1]:
                            rest ^= 1 << (x - 1)
                if rest:
                    first = rest.bit_length()
                    left = points ^ masks[first]
                    narrowed = rest & keep[first]
                    nxt = through[left.bit_length()] & narrowed
                    if not nxt:
                        continue
                # The plain search's class c of r leaves (r-1-c)·w blocks
                # in `rest` and fills slot c; a class and its m-1 images
                # fill the m slots before the last rest/w.
                slot = -m - rest.bit_count() // w
                if m > 1:
                    for cls in images[1:]:
                        classes[slot] = _class_key(cls, key, b)
                        slot += 1
                classes[slot] = _class_key(placed, key, b)
                if rest:
                    stack.append((candidates, uncovered, avail, n))
                    opened.append((unused, opener, base))
                    unused, opener, base = rest, first, len(stack)
                    candidates, uncovered, avail = nxt, left, narrowed
                    continue
                ordered = sorted(classes)
                contents = tuple([entry[0] for entry in ordered])
                if contents not in found:
                    found[contents] = Resolution._from_search(
                        design, tuple([entry[2] for entry in ordered])
                    )
                    if len(found) >= limit:
                        return nodes
            if not stack:
                return nodes
            candidates, uncovered, avail, _ = stack.pop()
            if len(stack) < base:
                unused, opener, base = opened.pop()

    def symmetry_stage(self, nodes: int) -> int:
        """Look for a resolution invariant under an automorphism sigma of
        the design, add the first one found, and return the nodes left.

        sigma is the first automorphism core._find_automorphism finds
        whose block orbits all have one length m > 1 dividing r; each
        round of its refinement costs b nodes.  The search for an
        invariant resolution is `run` with keep masks that also drop each
        block's orbit and with sigma's block permutation, so it finds the
        resolutions whose classes fall into sigma-orbits of m distinct
        classes, one node per block placed.
        """
        b, r = self.b, self.b // self.w
        if not isinstance(self.keep, list):
            return nodes

        def spend():
            nonlocal nodes
            nodes -= b
            if nodes < 0:
                raise self.exhausted()

        def accept(blocks) -> bool:
            sizes = _orbits([blocks], b).sizes
            return sizes[0] > 1 and r % sizes[0] == 0 and (sizes == sizes[0]).all()

        automorphism = _find_automorphism(self.design, accept, spend)
        if automorphism is None:
            return nodes
        blocks = automorphism[1]
        orbits = _orbits([blocks], b)
        least = orbits.least.tolist()
        drop: dict[int, int] = {}
        for i, rep in enumerate(least):
            drop[rep] = drop.get(rep, 0) | 1 << (b - 1 - i)
        keep = [0] + [mask & ~drop[rep] for mask, rep in zip(self.keep[1:], least[::-1])]
        sigma = [0] + (b - blocks[::-1]).tolist()
        return self.run(keep, sigma, int(orbits.sizes[0]), 1, nodes, 0)


def _class_key(placed: list[int], key: list[int], b: int) -> tuple[tuple, tuple, ParallelClass]:
    """(contents, refs, class) of the class of blocks b-n for n in
    `placed`: refs in increasing `key` order, (block, index), contents the
    ranks of those blocks, and the ParallelClass of the refs, made once
    per completed class and shared by every resolution that holds it.
    Classes sort by (contents, refs), and the contents of the sorted
    classes are the content key under which two resolutions are the same;
    the refs of the classes of one resolution are distinct blocks, so the
    sort never compares two ParallelClass objects."""
    keys = sorted([key[n] for n in placed])
    refs = tuple([x % b for x in keys])
    return tuple([x // b for x in keys]), refs, ParallelClass(refs)


def _replacement_alphas(masks_a: list[int], masks_b: list[int], k: int) -> int:
    """The values of |S ∩ class_a| over parallel classes S built from the
    2w block instances of class_a ∪ class_b, as the set bits of an int.

    Each point lies in one block of each class, so S takes either every
    class_a block or every class_b block of each connected component of
    the 2w blocks under "shares a point".  A component of one block from
    each class is a block the two classes share, and adds 1 to alpha on
    either side; in a larger component no class_b block equals a class_a
    block, so it adds its class_a block count or 0.  Alpha counts block
    contents: neither S nor class_a repeats a block.  The components are
    grown as point masks, and each class_a block count is its size over k;
    the growing stops at the first class_b block whose component takes in
    every class_a block.
    """
    parts = list(masks_a)
    for b in masks_b:
        merged, rest = b, []
        for part in parts:
            if part & b:
                merged |= part
            else:
                rest.append(part)
        if not rest:
            # One component holds every class_a block, so it covers every
            # point and the class_b blocks still to come lie inside it.
            parts = [merged]
            break
        rest.append(merged)
        parts = rest
    shared, sums = 0, 1
    for part in parts:
        size = part.bit_count() // k
        if size == 1:
            shared += 1
        else:
            sums |= sums << size
    return sums << shared


def _one_component_pairs(members, refs) -> list[list[bool]]:
    """For the r x w array refs of a resolution's block indices, the r x r
    booleans true at (i, j) when the first block of class i or of class j
    meets all w blocks of the other class.  The 2w blocks of such a pair
    form one component, whose alphas are 0 and w only.

    The owner table holds, for class i and point p, the position within
    class i of the block through p, in the smallest unsigned type that
    holds w-1; it is stored point-major, so one step per class i gathers
    the k rows of its first block's points and counts, with one bincount
    over positions offset by class, which blocks of every class they
    meet.
    """
    (r, w), k = refs.shape, members.shape[1]
    owner = np.empty((w * k, r), dtype=np.min_scalar_type(w - 1))
    owner[members[refs].reshape(r, w * k), np.arange(r)[:, None]] = np.arange(w).repeat(k)
    offsets = np.arange(r) * w
    meets_all = np.empty((r, r), dtype=bool)
    for i, first in enumerate(members[refs[:, 0]].astype(np.intp)):
        hits = np.bincount((owner[first] + offsets).ravel(), minlength=r * w)
        meets_all[i] = hits.reshape(r, w).all(axis=1)
    return (meets_all | meets_all.T).tolist()


def prp_violations(
    design: Design,
    res: Resolution,
    alpha_filter=None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[tuple[int, int, int]]:
    """All (i, j, alpha) with i < j where classes i and j satisfy alpha-PRP.

    alpha_filter restricts the reported alphas (default: all of 1..w-1).
    An empty list certifies the resolution (alpha-)PRP-free.  Each class
    pair costs 2w nodes of `node_budget`, in pair order; on exhaustion the
    raised error carries the violations found so far.

    When k >= w, a pair in which the first block of one class meets every
    block of the other is one component and satisfies no alpha-PRP; all
    such pairs are found at once from a point-owner table
    (_one_component_pairs), as every pair of an affine hyperplane
    resolution is.  A block of k < w points meets fewer than w blocks, so
    the table is not built then.  The other pairs go through
    _replacement_alphas.
    """
    check = verify_resolution(design, res)
    if not check:
        raise DesignError(f"invalid resolution: {check.reason}")
    w = design.points.size // design.k
    allowed = set(range(1, w)) if alpha_filter is None else set(alpha_filter)
    for alpha in allowed:
        if not 1 <= alpha <= w - 1:
            raise BadAlpha(f"alpha must be in 1..{w - 1}, got {alpha}")
    classes = [cls.block_refs for cls in res.classes]
    r = len(classes)
    decided = (_one_component_pairs(design._members, np.array(classes, dtype=np.intp))
               if design.k >= w and r > 1 else None)
    masks = [[design._masks[ref] for ref in refs] for refs in classes]
    alphas_wanted = sorted(allowed)
    out: list[tuple[int, int, int]] = []
    budget = node_budget
    for i in range(r):
        for j in range(i + 1, r):
            # 2w nodes: what a search placing one block per node spends on
            # the two trivial replacements, S = class_i and S = class_j.
            budget -= 2 * w
            if budget < 0:
                raise SearchBudgetExceeded(node_budget, out, "PRP violation(s)")
            if decided and decided[i][j]:
                continue
            alphas = _replacement_alphas(masks[i], masks[j], design.k)
            out.extend((i, j, alpha) for alpha in alphas_wanted if alphas >> alpha & 1)
    return out
