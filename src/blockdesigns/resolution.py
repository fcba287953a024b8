"""Resolutions into parallel classes, resolution search, and the
partial-replacement-property (PRP) machinery.

A resolution partitions a design's block *instances* into parallel classes
(each class: v/k disjoint blocks covering every point).  Two classes
satisfy alpha-PRP when the 2w blocks they hold can be re-partitioned into
a different pair of parallel classes overlapping the first class in
exactly alpha blocks; resolutions free of such swaps make the union
construction produce simple designs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import Design, DesignError

__all__ = [
    "BadAlpha",
    "CheckResult",
    "DEFAULT_NODE_BUDGET",
    "ParallelClass",
    "Resolution",
    "SearchBudgetExceeded",
    "canonical_resolution",
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
        b = len(self.design.blocks)
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
    classes; the result is falsy with a reason when it does not."""
    if res.design != design:
        return CheckResult(False, "resolution refers to a different design")
    used: list[int] = []
    for index, cls in enumerate(res.classes):
        problem = _class_check(design, cls.block_refs)
        if problem:
            return CheckResult(False, f"class {index}: {problem}")
        used.extend(cls.block_refs)
    if len(used) != len(set(used)):
        dup = next(ref for ref, n in Counter(used).items() if n > 1)
        return CheckResult(False, f"block instance {dup} appears in two classes")
    if len(used) != len(design.blocks):
        missing = min(set(range(len(design.blocks))) - set(used))
        return CheckResult(False, f"block instance {missing} is in no class")
    return CheckResult(True)


def canonical_resolution(res: Resolution) -> Resolution:
    """Order classes and in-class refs by block content (idempotent)."""
    blocks = res.design.blocks
    ordered = []
    for cls in res.classes:
        refs = tuple(sorted(cls.block_refs, key=lambda i: (blocks[i], i)))
        ordered.append(refs)
    ordered.sort(key=lambda refs: (tuple(blocks[i] for i in refs), refs))
    return Resolution(res.design, tuple(ParallelClass(refs) for refs in ordered))


def _content_key(design: Design, classes) -> tuple:
    blocks = design.blocks
    return tuple(sorted(tuple(sorted(blocks[i] for i in refs)) for refs in classes))


def _class_completions(chosen, cover, full, candidates, masks, used, budget):
    """Yield `chosen` once for each way to complete a partial parallel class.

    `chosen` lists the block indices placed so far and `cover` is the mask
    of the points they cover.  The lowest uncovered point is filled next,
    trying the blocks of `candidates[point]` in order that contain it, are
    not `used` and miss `cover`.  Every placed block costs one node of the
    single-element counter `budget`; the search raises SearchBudgetExceeded
    when the counter drops below zero.  `chosen` and `used` are restored
    after each completion has been consumed.
    """
    if cover == full:
        yield chosen
        return
    bit = ~cover & full
    bit &= -bit
    for i in candidates[bit.bit_length() - 1]:
        if used[i] or masks[i] & cover or not masks[i] & bit:
            continue
        mask = masks[i]
        budget[0] -= 1
        if budget[0] < 0:
            raise SearchBudgetExceeded(0, [], "class completion(s)")
        used[i] = True
        chosen.append(i)
        yield from _class_completions(
            chosen, cover | mask, full, candidates, masks, used, budget
        )
        chosen.pop()
        used[i] = False


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
    v, k, b = design.points.size, design.k, len(design.blocks)
    if v % k:
        raise DesignError(f"block size {k} does not divide {v}")
    w = v // k
    if b == 0 or b % w:
        return []
    masks = design._masks
    by_point: list[list[int]] = [[] for _ in range(v)]
    for i, block in enumerate(design.blocks):
        for p in block:
            by_point[p].append(i)
    found: dict[tuple, Resolution] = {}
    try:
        _complete_resolution(
            design, limit, masks, by_point, [False] * b, [], [node_budget], found
        )
    except SearchBudgetExceeded:
        raise SearchBudgetExceeded(
            node_budget, found.values(), "resolution(s)"
        ) from None
    return list(found.values())


def _complete_resolution(
    design, limit, masks, by_point, used, classes, budget, found
) -> bool:
    """Extend the classes in `classes` to resolutions, recording each new
    one in `found` under its content key; True once `limit` are found."""
    try:
        # The lowest-indexed unused block must open the next class: classes
        # are unordered, so fixing it prunes the r! class-order symmetry.
        seed = used.index(False)
    except ValueError:
        key = _content_key(design, classes)
        if key not in found:
            res = Resolution(design, tuple(ParallelClass(refs) for refs in classes))
            found[key] = canonical_resolution(res)
        return len(found) >= limit
    full = (1 << design.points.size) - 1
    used[seed] = True
    for chosen in _class_completions(
        [seed], masks[seed], full, by_point, masks, used, budget
    ):
        classes.append(tuple(chosen))
        done = _complete_resolution(
            design, limit, masks, by_point, used, classes, budget, found
        )
        classes.pop()
        if done:
            return True
    used[seed] = False
    return False


def _replacement_alphas(
    design: Design,
    class_a: ParallelClass,
    class_b: ParallelClass,
    budget: list[int],
) -> set[int]:
    """All values of |S ∩ class_a| over parallel classes S built from the
    2w block instances of class_a ∪ class_b.

    Every such S leaves a complementary parallel class (each point is
    covered exactly twice by the two classes), so S ranges over all valid
    replacement pairs.  The intersection with class_a is counted on block
    contents as a multiset.  Neither S nor class_a repeats a block (their
    blocks are disjoint), so that is the number of blocks of S whose
    content is a block of class_a.  `budget` is the node counter of
    _class_completions, shared across calls.
    """
    refs = list(class_a.block_refs) + list(class_b.block_refs)
    masks = [design._masks[ref] for ref in refs]
    full = (1 << design.points.size) - 1
    a_content = {design.blocks[ref] for ref in class_a.block_refs}
    in_a = [design.blocks[ref] in a_content for ref in refs]
    every_block = [range(len(refs))] * design.points.size
    alphas: set[int] = set()
    for chosen in _class_completions(
        [], 0, full, every_block, masks, [False] * len(refs), budget
    ):
        alphas.add(sum(in_a[j] for j in chosen))
    return alphas


def prp_violations(
    design: Design,
    res: Resolution,
    alpha_filter=None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[tuple[int, int, int]]:
    """All (i, j, alpha) with i < j where classes i and j satisfy alpha-PRP.

    alpha_filter restricts the reported alphas (default: all of 1..w-1).
    An empty list certifies the resolution (alpha-)PRP-free.  On budget
    exhaustion the raised error carries the violations found so far.
    """
    check = verify_resolution(design, res)
    if not check:
        raise DesignError(f"invalid resolution: {check.reason}")
    w = design.points.size // design.k
    allowed = set(range(1, w)) if alpha_filter is None else set(alpha_filter)
    for alpha in allowed:
        if not 1 <= alpha <= w - 1:
            raise BadAlpha(f"alpha must be in 1..{w - 1}, got {alpha}")
    out: list[tuple[int, int, int]] = []
    budget = [node_budget]
    for i in range(len(res.classes)):
        for j in range(i + 1, len(res.classes)):
            try:
                alphas = _replacement_alphas(
                    design, res.classes[i], res.classes[j], budget
                )
            except SearchBudgetExceeded:
                raise SearchBudgetExceeded(
                    node_budget, out, "PRP violation(s)"
                ) from None
            for alpha in sorted(alphas & allowed):
                out.append((i, j, alpha))
    return out
