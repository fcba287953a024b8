"""Resolutions into parallel classes, resolution search, and the
partial-replacement-property (PRP) check.

A resolution partitions a design's block *instances* into parallel classes
(each class: v/k disjoint blocks covering every point).  Two classes
satisfy alpha-PRP when the 2w blocks they hold can be re-partitioned into
a different pair of parallel classes overlapping the first class in
exactly alpha blocks; resolutions free of such swaps make the union
construction produce simple designs.

Only the resolution search searches.  It completes one parallel class at
a time over bitsets of block indices (Python ints): `through[p]` holds the
blocks through point p and `avail` the blocks that may still be placed.
The lowest uncovered point is filled with each block of
`through[p] & avail` in increasing index order, and placing block i
removes every block that meets it from `avail`, so no candidate is
scanned and rejected.  Every placed block is one node of the search
budget.  The PRP check reads the alphas of a class pair off the connected
components of its 2w blocks, and charges 2w nodes per pair.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import Design, DesignError, _columns, _ints, _replication

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


# Bits of the memoized `meets` masks one resolution search keeps: each is b
# bits, so a design with many blocks rebuilds the masks past this on use.
MEETS_MEMO_BITS = 1 << 26


class _Meets(dict):
    """meets[i]: the mask of the blocks that share a point with block i
    (row i of `members`), i included, built from `through` on first
    use."""

    def __init__(self, members, through):
        super().__init__()
        self.members = members
        self.through = through
        self.room = MEETS_MEMO_BITS // max(len(members), 1)

    def __missing__(self, i):
        mask = 0
        for p in self.members[i].tolist():
            mask |= self.through[p]
        if len(self) < self.room:
            self[i] = mask
        return mask


def _class_completions(chosen, cover, full, masks, through, meets, avail, budget):
    """Yield `chosen` once for each way to complete a partial parallel class.

    Blocks are indices into `masks`, their point masks; sets of blocks are
    Python-int bit masks over those indices.  `chosen` lists the blocks
    placed so far, `cover` is the mask of the points they cover and `avail`
    holds the blocks that may still be placed.  The lowest uncovered point
    p is filled next with each block of `through[p] & avail` (the blocks
    through p), in increasing index order.  Placing block i leaves
    `avail & ~meets[i]`, where `meets[i]` holds i and every block that
    meets i, so each candidate misses `cover`.  Every placed block costs
    one node of the single-element counter `budget`; the search raises
    SearchBudgetExceeded when the counter drops below zero.  `chosen` is
    restored after each completion has been consumed.
    """
    if cover == full:
        yield chosen
        return
    bit = ~cover & full
    candidates = through[(bit & -bit).bit_length() - 1] & avail
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        i = low.bit_length() - 1
        budget[0] -= 1
        if budget[0] < 0:
            raise SearchBudgetExceeded(0, [], "class completion(s)")
        chosen.append(i)
        yield from _class_completions(
            chosen, cover | masks[i], full, masks, through, meets,
            avail & ~meets[i], budget,
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
    through = _through(design)
    meets = _Meets(members, through)
    found: dict[tuple, Resolution] = {}
    try:
        _complete_resolution(
            design, limit, design._masks, through, meets, (1 << b) - 1, [],
            [node_budget], found, _block_ranks(members).tolist(),
        )
    except SearchBudgetExceeded:
        raise SearchBudgetExceeded(
            node_budget, found.values(), "resolution(s)"
        ) from None
    return list(found.values())


def _through(design: Design) -> list[int]:
    """through[p]: the mask of the blocks through point p, read off the
    packed column of p over all blocks (0 for a point in no block)."""
    v = design.points.size
    through = [0] * v
    present = np.flatnonzero(_replication(design))
    columns = _ints(_columns(design._members, v, slice(0, 0)))
    for p, mask in zip(present.tolist(), columns):
        through[p] = mask
    return through


def _complete_resolution(
    design, limit, masks, through, meets, unused, classes, budget, found, ranks
) -> bool:
    """Extend the classes in `classes` to resolutions using the blocks of
    the mask `unused`, recording each new one in `found` under its content
    key (`ranks` are the _block_ranks of the blocks); True once `limit`
    are found."""
    if not unused:
        ordered = _canonical_order(ranks, classes)
        key = tuple(contents for contents, _ in ordered)
        if key not in found:
            found[key] = Resolution(
                design, tuple(ParallelClass(refs) for _, refs in ordered)
            )
        return len(found) >= limit
    # The lowest-indexed unused block must open the next class: classes
    # are unordered, so fixing it prunes the r! class-order symmetry.
    seed = (unused & -unused).bit_length() - 1
    full = (1 << design.points.size) - 1
    for chosen in _class_completions(
        [seed], masks[seed], full, masks, through, meets, unused & ~meets[seed], budget
    ):
        classes.append(tuple(chosen))
        rest = unused
        for i in chosen:
            rest ^= 1 << i
        done = _complete_resolution(
            design, limit, masks, through, meets, rest, classes, budget, found,
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
