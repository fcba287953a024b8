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
no candidate is scanned and rejected.  Every placed block is one node of
the search budget.  The PRP check reads the alphas of a class pair off the
connected components of its 2w blocks, and charges 2w nodes per pair.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import Design, DesignError, _columns, _ints, _packed_rows, _replication

__all__ = [
    "BadAlpha",
    "CheckResult",
    "DEFAULT_NODE_BUDGET",
    "ParallelClass",
    "Resolution",
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


def _block_ranks(members) -> np.ndarray:
    """The rank of each block in the lexicographic order of the blocks as
    point tuples, equal blocks sharing one rank: comparing ranks compares
    the blocks."""
    order = np.lexsort(members.T[::-1])
    listed = members[order]
    rank = np.zeros(len(members), dtype=np.intp)
    rank[order[1:]] = np.cumsum((listed[1:] != listed[:-1]).any(axis=1))
    return rank


def _canonical_order(ranks, classes) -> list[tuple[tuple, tuple[int, ...]]]:
    """(contents, refs) of each class of block indices, in canonical order;
    `ranks` are the _block_ranks of the blocks.

    Refs are ordered by (block, index) and classes by (contents, refs),
    contents being the ranks of the blocks of a class in that order, so
    the contents of the returned classes, in order, are the content key
    under which two resolutions are the same.
    """
    ordered = []
    for refs in classes:
        refs = tuple(sorted(refs, key=lambda i: (ranks[i], i)))
        ordered.append((tuple(ranks[i] for i in refs), refs))
    ordered.sort()
    return ordered


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
    """(masks, through, keep): the search's sets in descending bit order.

    Over v points, point p is bit v-1-p; over b blocks, block i is bit
    b-1-i.  masks[i] holds the points of block i; through[m] the blocks
    through point v-m (0 for a point in no block), read off the packed
    column of the point over the blocks in reverse order; keep[n] the
    blocks that miss block b-n, a list when all b masks fit in
    MEETS_MEMO_BITS bits and a bounded memo (_Keep) when not.
    """
    members = design._members
    v, b = design.points.size, len(members)
    masks = _ints(_packed_rows(v - 1 - members, (v + 63) // 64))
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
    return masks, [0] + through[::-1], keep


def _class_completions(chosen, uncovered, b, masks, through, keep, avail, budget):
    """Yield `chosen` once for each way to complete a partial parallel class.

    Blocks are indices 0..b-1 into `masks`; sets of points and of blocks
    are Python ints in the descending bit order of _search_masks, so the
    lowest member of a set s is read off s.bit_length() and no set is
    ever negated.  `chosen` lists the blocks placed so far, `uncovered`
    holds the points they leave uncovered and `avail` the blocks that may
    still be placed.  The lowest uncovered point, v - m for
    m = uncovered.bit_length(), is filled next with each block of
    `through[m] & avail` (the blocks through it), in increasing index
    order: block b-n for n = candidates.bit_length().  Placing block b-n
    leaves `avail & keep[n]`, where `keep[n]` holds the blocks that miss
    it, so each candidate misses the points covered.  Every placed block
    costs one node of the single-element counter `budget`; the search
    raises SearchBudgetExceeded when the counter drops below zero.
    `chosen` is restored after each completion has been consumed.
    """
    if not uncovered:
        yield chosen
        return
    candidates = through[uncovered.bit_length()] & avail
    while candidates:
        n = candidates.bit_length()
        candidates ^= 1 << (n - 1)
        budget[0] -= 1
        if budget[0] < 0:
            raise SearchBudgetExceeded(0, [], "class completion(s)")
        i = b - n
        chosen.append(i)
        yield from _class_completions(
            chosen, uncovered ^ masks[i], b, masks, through, keep,
            avail & keep[n], budget,
        )
        chosen.pop()


def find_resolutions(
    design: Design, limit: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> list[Resolution]:
    """Backtracking exact-cover search for up to `limit` resolutions.

    Results are canonically deduplicated: two instance-partitions that are
    equal as multisets of classes-of-block-sets count once.  An empty list
    means the search completed without finding any resolution.  Raises
    SearchBudgetExceeded when the node budget runs out first.
    """
    if limit < 1:
        return []
    members = design._members
    v, k, b = design.points.size, design.k, len(members)
    if v % k:
        raise DesignError(f"block size {k} does not divide {v}")
    w = v // k
    if b == 0 or b % w:
        return []
    masks, through, keep = _search_masks(design)
    found: dict[tuple, Resolution] = {}
    try:
        _complete_resolution(
            design, limit, masks, through, keep, (1 << b) - 1, [],
            [node_budget], found, _block_ranks(members).tolist(),
        )
    except SearchBudgetExceeded:
        raise SearchBudgetExceeded(
            node_budget, found.values(), "resolution(s)"
        ) from None
    return list(found.values())


def _complete_resolution(
    design, limit, masks, through, keep, unused, classes, budget, found, ranks
) -> bool:
    """Extend the classes in `classes` to resolutions using the blocks of
    `unused` (descending bits, as in _class_completions), recording each
    new one in `found` under its content key (`ranks` are the
    _block_ranks of the blocks); True once `limit` are found."""
    if not unused:
        ordered = _canonical_order(ranks, classes)
        key = tuple(contents for contents, _ in ordered)
        if key not in found:
            found[key] = Resolution(
                design, tuple(ParallelClass(refs) for _, refs in ordered)
            )
        return len(found) >= limit
    # The lowest-indexed unused block, the highest bit, must open the next
    # class: classes are unordered, so fixing it prunes the r! class-order
    # symmetry.
    b, n = len(masks), unused.bit_length()
    uncovered = ((1 << design.points.size) - 1) ^ masks[b - n]
    for chosen in _class_completions(
        [b - n], uncovered, b, masks, through, keep, unused & keep[n], budget
    ):
        classes.append(tuple(chosen))
        rest = unused
        for i in chosen:
            rest ^= 1 << (b - 1 - i)
        done = _complete_resolution(
            design, limit, masks, through, keep, rest, classes, budget, found,
            ranks,
        )
        classes.pop()
        if done:
            return True
    return False


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
    grown as point masks, and each class_a block count is its size over k.
    """
    parts = list(masks_a)
    for b in masks_b:
        merged, rest = b, []
        for part in parts:
            if part & b:
                merged |= part
            else:
                rest.append(part)
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


def prp_violations(
    design: Design,
    res: Resolution,
    alpha_filter=None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[tuple[int, int, int]]:
    """All (i, j, alpha) with i < j where classes i and j satisfy alpha-PRP.

    alpha_filter restricts the reported alphas (default: all of 1..w-1).
    An empty list certifies the resolution (alpha-)PRP-free.  Each class
    pair costs 2w nodes of `node_budget`; on exhaustion the raised error
    carries the violations found so far.
    """
    check = verify_resolution(design, res)
    if not check:
        raise DesignError(f"invalid resolution: {check.reason}")
    w = design.points.size // design.k
    allowed = set(range(1, w)) if alpha_filter is None else set(alpha_filter)
    for alpha in allowed:
        if not 1 <= alpha <= w - 1:
            raise BadAlpha(f"alpha must be in 1..{w - 1}, got {alpha}")
    masks = [[design._masks[ref] for ref in cls.block_refs] for cls in res.classes]
    alphas_wanted = sorted(allowed)
    out: list[tuple[int, int, int]] = []
    budget = node_budget
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            # 2w nodes: what a search placing one block per node spends on
            # the two trivial replacements, S = class_i and S = class_j.
            budget -= 2 * w
            if budget < 0:
                raise SearchBudgetExceeded(node_budget, out, "PRP violation(s)")
            alphas = _replacement_alphas(masks[i], masks[j], design.k)
            out.extend((i, j, alpha) for alpha in alphas_wanted if alphas >> alpha & 1)
    return out
