"""Naive reference implementations, independent of the library's fast paths.

Everything here works on plain sets and itertools so that tests can compare
the library's bitset/vectorized code against straightforward counting.  The
paper's closed forms for the triple coverage and its block-count bound are
here too, as checks on the library's one triple-coverage formula.
"""

import itertools
import math
import numbers
import operator
from fractions import Fraction


def naive_coverage(blocks, subset) -> int:
    """Number of blocks containing every point of subset."""
    wanted = set(subset)
    return sum(1 for block in blocks if wanted <= set(block))


def naive_spectrum(v, blocks, t) -> dict:
    """Coverage spectrum by looping over all C(v, t) subsets."""
    sets = [set(block) for block in blocks]
    spectrum: dict[int, int] = {}
    for subset in itertools.combinations(range(v), t):
        wanted = set(subset)
        count = sum(1 for block in sets if wanted <= block)
        spectrum[count] = spectrum.get(count, 0) + 1
    return dict(sorted(spectrum.items()))


def naive_profile(blocks) -> list:
    """Intersection histogram via pairwise set intersections."""
    k = len(blocks[0]) if blocks else 0
    sets = [set(block) for block in blocks]
    counts = [0] * (k + 1)
    for a, b in itertools.combinations(sets, 2):
        counts[len(a & b)] += 1
    return counts


def naive_is_simple(blocks) -> bool:
    """No two blocks are equal as point sets."""
    sets = [frozenset(block) for block in blocks]
    return len(set(sets)) == len(sets)


def naive_is_trivial(v, k, blocks) -> bool:
    """The blocks are every k-subset of 0..v-1, each once."""
    if len(blocks) != math.comb(v, k):
        return False
    every = itertools.combinations(range(v), k)
    return naive_is_simple(blocks) and set(map(frozenset, blocks)) == set(map(frozenset, every))


def naive_is_automorphism(v, blocks, perm, block_perm=None) -> bool:
    """perm (the images of 0..v-1) is a permutation that maps the blocks
    onto themselves as a multiset of point sets; with block_perm, a
    permutation of the block indices, it maps block i onto block
    block_perm[i] for every i."""
    if sorted(perm) != list(range(v)):
        return False
    images = [frozenset(perm[p] for p in block) for block in blocks]
    sets = [frozenset(block) for block in blocks]
    if block_perm is None:
        return sorted(map(sorted, images)) == sorted(map(sorted, sets))
    if sorted(block_perm) != list(range(len(blocks))):
        return False
    return all(images[i] == sets[j] for i, j in enumerate(block_perm))


def naive_is_resolution(v, blocks, classes) -> bool:
    """classes (lists of block indices) partition the block instances into
    classes of disjoint blocks that cover all v points."""
    refs = [ref for cls in classes for ref in cls]
    if sorted(refs) != list(range(len(blocks))):
        return False
    for cls in classes:
        points = [p for ref in cls for p in blocks[ref]]
        if sorted(points) != list(range(v)):
            return False
    return True


def naive_pair_replication(v, blocks) -> dict:
    return naive_spectrum(v, blocks, 2)


def naive_resolutions(v, blocks) -> set:
    """All partitions into parallel classes, as canonical content keys.

    Chooses the first unused block and completes its class via
    combinations, so the enumeration strategy differs from the library's
    point-driven search.
    """
    sets = [frozenset(block) for block in blocks]
    k = len(blocks[0])
    if v % k:
        return set()
    w = v // k
    all_points = frozenset(range(v))
    solutions: set = set()
    classes: list[tuple[int, ...]] = []

    def class_completions(seed, pool):
        for combo in itertools.combinations(pool, w - 1):
            union = set(sets[seed])
            ok = True
            for i in combo:
                if union & sets[i]:
                    ok = False
                    break
                union |= sets[i]
            if ok and union == all_points:
                yield combo

    def recurse(unused):
        if not unused:
            key = tuple(
                sorted(
                    tuple(sorted(tuple(sorted(blocks[i])) for i in cls))
                    for cls in classes
                )
            )
            solutions.add(key)
            return
        seed = unused[0]
        rest = unused[1:]
        for combo in class_completions(seed, rest):
            chosen = {seed, *combo}
            classes.append(tuple(sorted(chosen)))
            recurse([i for i in rest if i not in chosen])
            classes.pop()

    recurse(list(range(len(blocks))))
    return solutions


def naive_search_trace(v, blocks, limit) -> tuple[list, int]:
    """The resolution search's documented order, on lists and sets.

    The lowest unused block opens each class; the lowest uncovered point
    is then filled with each free block through it that is disjoint from
    the points covered, in increasing index; every block so placed is one
    node (the block opening a class is not).  A resolution is recorded
    under its content key (sorted classes of sorted blocks) the first time
    it is completed, with its refs in canonical order: each class by
    (block, index), the classes by (contents, refs).  The search stops
    once `limit` are recorded.

    Returns ([(key, classes, nodes), ...], total): each new resolution in
    the order found, with the nodes spent when it was completed, and the
    nodes spent in all.  A search on a budget of B nodes runs out exactly
    when total > B, having found the entries with nodes <= B.  A design
    whose block count is not a multiple of w = v/k has no resolution and
    is not searched.
    """
    sets = [set(block) for block in blocks]
    w = v // len(blocks[0])
    if len(blocks) % w:
        return [], 0
    found: list = []
    keys: set = set()
    classes: list[list[int]] = []
    nodes = 0

    def completions(chosen, covered, unused):
        nonlocal nodes
        if len(covered) == v:
            yield chosen
            return
        p = min(set(range(v)) - covered)
        for i in sorted(unused):
            if i not in chosen and p in sets[i] and not sets[i] & covered:
                nodes += 1
                chosen.append(i)
                yield from completions(chosen, covered | sets[i], unused)
                chosen.pop()

    def record():
        ordered = sorted(
            (tuple(blocks[i] for i in refs), refs)
            for refs in (
                tuple(sorted(cls, key=lambda i: (tuple(blocks[i]), i)))
                for cls in classes
            )
        )
        key = tuple(sorted(tuple(sorted(tuple(sorted(blocks[i])) for i in cls))
                           for cls in classes))
        if key not in keys:
            keys.add(key)
            found.append((key, tuple(refs for _, refs in ordered), nodes))
        return len(found) >= limit

    def recurse(unused):
        if not unused:
            return record()
        seed = min(unused)
        for chosen in completions([seed], set(sets[seed]), unused):
            classes.append(list(chosen))
            done = recurse(unused - set(chosen))
            classes.pop()
            if done:
                return True
        return False

    recurse(set(range(len(blocks))))
    return found, nodes


def naive_prp_witness(blocks_a, blocks_b, alpha, v) -> bool:
    """Check alpha-PRP by trying every w-subset of the 2w blocks."""
    pool = [frozenset(b) for b in blocks_a] + [frozenset(b) for b in blocks_b]
    w = len(blocks_a)
    all_points = frozenset(range(v))

    def is_class(indices):
        union: set = set()
        for i in indices:
            if union & pool[i]:
                return False
            union |= pool[i]
        return union == all_points

    a_multiset = sorted(tuple(sorted(b)) for b in blocks_a)
    for combo in itertools.combinations(range(2 * w), w):
        rest = [i for i in range(2 * w) if i not in combo]
        if not is_class(combo) or not is_class(rest):
            continue
        chosen = sorted(tuple(sorted(pool[i])) for i in combo)
        overlap = 0
        remaining = list(a_multiset)
        for block in chosen:
            if block in remaining:
                remaining.remove(block)
                overlap += 1
        if overlap == alpha:
            return True
    return False


def naive_affine_hyperplane_design(m, q):
    """(blocks, class refs, k) of AG(m, q)'s hyperplanes by element-wise
    field arithmetic.

    Points are coordinate vectors in rank order (first coordinate most
    significant), directions are the normal vectors whose first nonzero
    coordinate is 1, and each direction's hyperplanes are listed by the
    rank of their dot product.  Sums and products come from FieldSpec.add
    and FieldSpec.mul on element tuples, looked up per pair; the dot
    products of all points extend those of their coordinate prefixes.
    """
    from blockdesigns.galois import field

    spec = field(q)
    elems = spec.elements()
    zero, one = spec.from_rank(0), spec.from_rank(1)
    add = {(a, b): spec.add(a, b) for a in elems for b in elems}
    mul = {(a, b): spec.mul(a, b) for a in elems for b in elems}
    blocks = []
    classes = []
    for normal in itertools.product(elems, repeat=m):
        nonzero = [c for c in normal if c != zero]
        if not nonzero or nonzero[0] != one:
            continue
        dots = [zero]
        for a in normal:
            terms = [mul[a, x] for x in elems]
            dots = [add[s, t] for s in dots for t in terms]
        buckets = {c: [] for c in elems}
        for index, dot in enumerate(dots):
            buckets[dot].append(index)
        refs = []
        for bucket in buckets.values():
            refs.append(len(blocks))
            blocks.append(tuple(bucket))
        classes.append(tuple(refs))
    return tuple(blocks), tuple(classes), q ** (m - 1)


def naive_block_problem(blocks, k, v):
    """The DesignError message for the first bad block, or None: a block
    must have k points, each an integer, starting at 0 or above, ending
    below v and strictly increasing, checked block by block."""
    for block in blocks:
        if len(block) != k:
            return f"block {block} has size {len(block)}, expected {k}"
        if not all(isinstance(p, numbers.Integral) for p in block):
            return f"block {block} has a point that is not an integer"
        if block[0] < 0 or block[-1] >= v:
            return f"block {block} has points outside 0..{v - 1}"
        if not all(map(operator.lt, block, block[1:])):
            return f"block {block} is not strictly increasing"
    return None


def naive_union(master_blocks, class_refs, indexing_blocks, generators=()):
    """(blocks, provenance, kept) of the union construction, class by class
    and indexing block by indexing block, with sets.

    A generator g (images of the points) is kept when the classes can be
    matched one to one with classes i -> j such that g maps the blocks of
    i onto those of j, and the position map it induces (position p of i
    to the position of g(block p) in j) maps the indexing blocks onto
    themselves as a multiset.  The match is found by augmenting paths, so
    where two classes hold the same blocks every match is tried.
    """
    classes = [[frozenset(master_blocks[ref]) for ref in refs] for refs in class_refs]
    blocks, provenance = [], []
    for i, cls in enumerate(classes):
        for c, chosen in enumerate(indexing_blocks):
            blocks.append(tuple(sorted(itertools.chain.from_iterable(cls[j] for j in chosen))))
            provenance.append((i, c))

    def multiset(sets):
        return sorted(tuple(sorted(s)) for s in sets)

    indexing = multiset(indexing_blocks)

    def respects(g, i, j):
        image = [frozenset(g[p] for p in block) for block in classes[i]]
        if set(image) != set(classes[j]):
            return False
        sigma = [classes[j].index(block) for block in image]
        return multiset([[sigma[p] for p in c] for c in indexing_blocks]) == indexing

    kept = []
    for g in generators:
        targets = [[j for j in range(len(classes)) if respects(g, i, j)] for i in range(len(classes))]
        match: dict[int, int] = {}  # target class -> source class

        def augment(i, seen):
            for j in targets[i]:
                if j not in seen:
                    seen.add(j)
                    if j not in match or augment(match[j], seen):
                        match[j] = i
                        return True
            return False

        if all(augment(i, set()) for i in range(len(classes))):
            kept.append(g)
    return tuple(blocks), tuple(provenance), tuple(kept)


def naive_inherited_resolution(provenance, indexing_classes):
    """The classes a constructed design inherits, as tuples of block
    positions: the blocks with provenance (i, c) for c in the indexing
    class C go to class (i, C), in increasing position, and the classes
    are ordered by (i, index of C)."""
    class_of_block = {}
    for ci, refs in enumerate(indexing_classes):
        for ref in refs:
            class_of_block[ref] = ci
    groups: dict[tuple[int, int], list[int]] = {}
    for pos, (i, c) in enumerate(provenance):
        groups.setdefault((i, class_of_block[c]), []).append(pos)
    return tuple(tuple(groups[key]) for key in sorted(groups))


def naive_block_lines(lines, first_lineno=1):
    """(blocks, None) for block lines read token by token as the text
    format asks: '#' starts a comment, blank lines are skipped, and every
    point is ASCII digits (at most 4300 of them, as int() takes) split by
    whitespace.  (None, message) with the parser's message for the first
    line that breaks this."""
    blocks = []
    for lineno, raw in enumerate(lines, start=first_lineno):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not all(token.isascii() and token.isdigit() and len(token) <= 4300
                   for token in tokens):
            return None, f"line {lineno}: bad block line {line!r}"
        blocks.append(tuple(int(token) for token in tokens))
    return tuple(blocks), None


# --- the paper's closed forms -------------------------------------------------

class DivisibilityViolation(ValueError):
    """v and k outside the domain of the nontriviality bound."""


def _whole(value: Fraction, context: str) -> int:
    if value.denominator != 1:
        raise ValueError(f"{context} is not integral: {value}")
    return int(value)


def predicted_mu(master, lambda_prime) -> int:
    """Triple coverage of the union construction at k' = w/2 from a master
    2-(v, k, lam) design with replication r, w = v/k:

        lam' * (3*lam*w/(w-4) + r)   for w > 4, lam' the indexing
                                     triple coverage;
        3*lam*lam'                   for w = 4 (pair indexing), lam' the
                                     indexing pair coverage.

    ValueError for a master that is not declared a 2-design, an odd w, or
    a non-integral result.
    """
    w, lam = master.v // master.k, master.lam
    if master.t != 2 or master.v % master.k or w % 2 or w < 4:
        raise ValueError(
            "need a 2-design master with w = v/k even and >= 4, got "
            f"t={master.t} v={master.v} k={master.k}"
        )
    if w == 4:
        return 3 * lam * lambda_prime
    value = lambda_prime * (Fraction(3 * lam * w, w - 4) + master.r)
    return _whole(value, "predicted triple coverage")


def predicted_mu_affine(q, m, lambda_prime) -> int:
    """Triple coverage lam'*(q^m - 4)/(q - 4) at k' = q/2 for the hyperplane
    master of AG(m, q), q a power of two above 4 and lam' the indexing
    triple coverage."""
    if q <= 4 or q & (q - 1):
        raise ValueError(f"need q = 2^n > 4, got q={q}")
    if m < 2:
        raise ValueError(f"need m >= 2, got m={m}")
    value = Fraction(lambda_prime * (q**m - 4), q - 4)
    return _whole(value, "predicted triple coverage")


def nontriviality_bound_holds(v, k) -> bool:
    """True when r_max * C(v/k, v/2k) < C(v, v/2) for simple ingredients.

    This is the exact block-count comparison showing that unioning half of
    each parallel class of a simple master design cannot reach the trivial
    design with block size v/2.
    """
    if k < 2 or v % (2 * k) != 0 or v // k < 4:
        raise DivisibilityViolation(
            f"need 2k | v and v/k >= 4, got v={v} k={k}"
        )
    bound = math.comb(v - 1, k - 1) * math.comb(v // k, v // (2 * k))
    return bound < math.comb(v, v // 2)
