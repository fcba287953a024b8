"""Naive reference implementations, independent of the library's fast paths.

Everything here works on plain sets and itertools so that tests can compare
the library's bitset/vectorized code against straightforward counting.
"""

import itertools


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
