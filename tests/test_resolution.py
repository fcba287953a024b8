import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdesigns import core, resolution
from blockdesigns.catalog import catalog_entry, catalog_names
from blockdesigns.core import DesignError, make_design
from blockdesigns.generators import (
    CyclicBaseSpec,
    affine_hyperplane_design,
    cyclic_develop,
    sub_factorization_embedding,
    trivial_design,
)
from blockdesigns.resolution import (
    BadAlpha,
    ParallelClass,
    Resolution,
    SearchBudgetExceeded,
    find_resolutions,
    prp_violations,
    verify_resolution,
)

from oracles import (
    naive_is_automorphism,
    naive_is_resolution,
    naive_prp_witness,
    naive_resolutions,
    naive_search_trace,
)

K4_FACTORIZATION = [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]

# A 2-(6,3,2) design where block {0,1,2} has no disjoint partner, so no
# parallel class can contain it and the design is not resolvable.
NON_RESOLVABLE_632 = [
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
]


def k4_resolution():
    design = make_design(4, K4_FACTORIZATION)
    classes = tuple(ParallelClass((2 * i, 2 * i + 1)) for i in range(3))
    return design, Resolution(design, classes)


# --- verify_resolution -------------------------------------------------------

def test_verify_k4_one_factorization():
    design, res = k4_resolution()
    assert verify_resolution(design, res)


def test_verify_rejects_reused_block():
    design, _ = k4_resolution()
    classes = (
        ParallelClass((0, 1)),
        ParallelClass((0, 1)),
        ParallelClass((2, 3)),
    )
    result = verify_resolution(design, Resolution(design, classes))
    assert not result
    assert "two classes" in result.reason


def test_verify_rejects_overlapping_class():
    design, _ = k4_resolution()
    classes = (ParallelClass((0, 2)),) * 1
    result = verify_resolution(design, Resolution(design, classes))
    assert not result
    assert result.reason == "class 0: blocks in class (0, 2) are not pairwise disjoint"
    # The verdict and its wording read the members; nothing is packed.
    assert "_masks" not in vars(design) and "_rows" not in vars(design)


def test_verify_rejects_missing_block():
    design, _ = k4_resolution()
    res = Resolution(design, (ParallelClass((0, 1)),))
    result = verify_resolution(design, res)
    assert not result
    assert "no class" in result.reason


def test_verify_rejects_a_resolution_of_another_design():
    design, res = k4_resolution()
    other = make_design(4, K4_FACTORIZATION[2:] + K4_FACTORIZATION[:2])
    result = verify_resolution(other, res)
    assert not result
    assert result.reason == "resolution refers to a different design"


def test_verify_rejects_a_block_size_that_does_not_divide_v():
    design = make_design(5, [(0, 1), (2, 3), (1, 4)])
    result = verify_resolution(design, Resolution(design, (ParallelClass((0, 1)),)))
    assert not result
    assert result.reason == "class 0: block size 2 does not divide 5"


@pytest.mark.parametrize(
    "v, blocks, classes, reason",
    [
        (4, [], [], None),
        (4, [], [()], "class 0: class has 0 blocks, expected 2"),
        (5, [(0, 1), (2, 3), (1, 4)], [], "block instance 0 is in no class"),
        (5, [(0, 1), (2, 3), (1, 4)], [(0,), (1,), (2,)],
         "class 0: block size 2 does not divide 5"),
        (5, [(0, 1), (2, 3), (1, 4)], [(0, 1, 2)], "class 0: block size 2 does not divide 5"),
    ],
)
def test_verify_on_no_blocks_and_on_a_block_size_not_dividing_v(v, blocks, classes, reason):
    # The count's edges: no blocks at all (r·w = b = 0), and k ∤ v, where
    # neither the class lengths nor any count can make a resolution.
    design = core.Design(points=core.PointSet(v), blocks=tuple(blocks), k=2)
    result = verify_resolution(design, Resolution(design, tuple(map(ParallelClass, classes))))
    assert (result.ok, result.reason) == (reason is None, reason)
    assert bool(result) == naive_is_resolution(v, design.blocks, classes)


def test_verify_translate_classes_of_cyclic_master():
    master, res = cyclic_develop(catalog_entry("3-(30,15,65)").base)
    assert verify_resolution(master, res)
    assert len(res.classes) == 29
    assert all(len(cls.block_refs) == 6 for cls in res.classes)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_verify_agrees_with_naive_check_on_altered_classes(data):
    design, res = data.draw(_random_resolutions())
    classes = [list(cls.block_refs) for cls in res.classes]
    b = len(design._members)
    change = data.draw(st.sampled_from(
        ["none", "swap", "replace", "drop ref", "drop class", "add ref", "move ref"]))
    i, j = data.draw(st.permutations(range(len(classes))))[:2]
    x = data.draw(st.integers(0, len(classes[i]) - 1))
    if change == "swap":
        y = data.draw(st.integers(0, len(classes[j]) - 1))
        classes[i][x], classes[j][y] = classes[j][y], classes[i][x]
    elif change == "replace":
        classes[i][x] = data.draw(st.integers(0, b - 1))
    elif change == "drop ref":
        del classes[i][x]
    elif change == "drop class":
        del classes[i]
    elif change == "add ref":
        classes[i].append(data.draw(st.integers(0, b - 1)))
    elif change == "move ref":  # r·w = b still holds; two class lengths do not
        classes[j].append(classes[i].pop(x))
    altered = Resolution(design, tuple(ParallelClass(tuple(c)) for c in classes))
    result = verify_resolution(design, altered)
    assert bool(result) == naive_is_resolution(design.points.size, design.blocks, classes)
    assert (result.reason is None) == bool(result)


def test_out_of_range_ref_rejected_at_construction():
    design, _ = k4_resolution()
    with pytest.raises(DesignError):
        Resolution(design, (ParallelClass((0, 99)),))


# --- find_resolutions --------------------------------------------------------

def test_k4_trivial_design_has_unique_resolution():
    design = trivial_design(4, 2)
    found = find_resolutions(design, limit=10)
    assert len(found) == 1
    assert verify_resolution(design, found[0])
    assert len(find_resolutions(design, limit=2)) == 1


def test_ag23_unique_resolution(ag23):
    design, _ = ag23
    found = find_resolutions(design, limit=10)
    assert len(found) == 1
    assert len(find_resolutions(design, limit=2)) == 1


def test_non_resolvable_design_yields_nothing():
    design = make_design(6, NON_RESOLVABLE_632)
    assert find_resolutions(design, limit=5) == []


def test_a_point_in_no_block_ends_the_search_before_a_node():
    # K_4 on points 0..3 of 6: b = 6 blocks fill r = 2 classes of w = 3 in
    # count, but no class covers points 4 and 5, so no block is placed.
    design = make_design(6, K4_FACTORIZATION)
    assert find_resolutions(design, limit=1, node_budget=0) == []
    assert "_masks" not in vars(design)


def test_trivial_6_3_resolution_is_forced():
    # Every parallel class must pair a block with its complement, so the
    # partition is unique.
    design = trivial_design(6, 3)
    found = find_resolutions(design, limit=10)
    assert len(found) == 1
    assert len(find_resolutions(design, limit=2)) == 1


def test_k6_has_six_one_factorizations():
    design = trivial_design(6, 2)
    found = find_resolutions(design, limit=50)
    assert len(found) == 6


def _content_keys(design, found):
    """The resolutions as naive_resolutions keys them: sorted classes of
    sorted block contents."""
    return {
        tuple(sorted(
            tuple(sorted(design.blocks[i] for i in cls.block_refs))
            for cls in res.classes
        ))
        for res in found
    }


def _shuffled(design, res, seed):
    """An isomorphic copy with the points relabelled and the blocks
    shuffled, so that block order no longer follows point order; the
    classes keep their order and follow their blocks."""
    rng = random.Random(seed)
    v = design.points.size
    perm = list(range(v))
    rng.shuffle(perm)
    order = list(range(len(design.blocks)))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    copy = make_design(v, [[perm[p] for p in design.blocks[old]] for old in order])
    classes = tuple(
        ParallelClass(tuple(position[ref] for ref in cls.block_refs))
        for cls in res.classes
    )
    return copy, Resolution(copy, classes)


SHUFFLED = {
    "AG(2,3)": lambda: _shuffled(*affine_hyperplane_design(2, 3), seed=1),
    "AG(3,2)": lambda: _shuffled(*affine_hyperplane_design(3, 2), seed=2),
    "K_8 embedding": lambda: _shuffled(*sub_factorization_embedding(2), seed=3),
}


@pytest.mark.parametrize(
    "v,blocks",
    [
        (4, list(trivial_design(4, 2).blocks)),
        (6, list(trivial_design(6, 2).blocks)),
        (6, list(trivial_design(6, 3).blocks)),
        (6, NON_RESOLVABLE_632),
        (8, list(trivial_design(8, 4).blocks)),
    ]
    + [(None, name) for name in SHUFFLED],
)
def test_search_agrees_with_naive_enumeration(v, blocks):
    if v is None:
        design, _ = SHUFFLED[blocks]()
        v = design.points.size
    else:
        design = make_design(v, blocks)
    found = find_resolutions(design, limit=10_000)
    keys = _content_keys(design, found)
    assert len(keys) == len(found)
    assert keys == naive_resolutions(v, design.blocks)
    for res in found:
        assert verify_resolution(design, res)


@pytest.mark.parametrize("name", SHUFFLED)
def test_prp_agrees_with_naive_witness_on_shuffled_copies(name):
    design, res = SHUFFLED[name]()
    assert verify_resolution(design, res)
    violations = set(prp_violations(design, res))
    for i in range(len(res.classes)):
        for j in range(i + 1, len(res.classes)):
            alphas = {alpha for a, b, alpha in violations if (a, b) == (i, j)}
            assert alphas == _oracle_alphas(design, res, i, j), (i, j)


def test_search_agrees_with_naive_on_ag23(ag23):
    design, _ = ag23
    found = find_resolutions(design, limit=10)
    assert len(found) == len(naive_resolutions(9, design.blocks)) == 1


def test_duplicate_blocks_collapse_to_one_resolution():
    # Development of {{0,1},{2,3}} mod 4 repeats each class; partitions that
    # differ only in which instance they use are the same resolution.
    from blockdesigns.generators import CyclicBaseSpec

    spec = CyclicBaseSpec(n=4, has_infinity=False, base_class=((0, 1), (2, 3)))
    design, res = cyclic_develop(spec)
    assert verify_resolution(design, res)
    found = find_resolutions(design, limit=100)
    keys = {
        tuple(
            sorted(
                tuple(sorted(design.blocks[i] for i in cls.block_refs))
                for cls in r.classes
            )
        )
        for r in found
    }
    assert len(keys) == len(found)


def test_search_budget_raises():
    design = trivial_design(8, 2)
    with pytest.raises(SearchBudgetExceeded, match=r"\(0 resolution\(s\) found"):
        find_resolutions(design, limit=10_000, node_budget=20)


def test_search_depth_does_not_grow_with_block_count(wide_classes, many_classes):
    # A search recursing once per placed block, or once per class, would
    # exceed the interpreter's default recursion limit on a class of 1500
    # blocks or on 1200 classes; the loop's stack is a list.
    for design, shape in ((wide_classes, (2, 1500)), (many_classes, (1200, 2))):
        found = find_resolutions(design, limit=1)
        assert len(found) == 1
        assert verify_resolution(design, found[0])
        classes = found[0].classes
        assert (len(classes), len(classes[0].block_refs)) == shape


@pytest.mark.parametrize("node_budget, found", [(1000, 51), (10_000, 407)])
def test_budget_exhaustion_keeps_partial_results(node_budget, found):
    design, _ = sub_factorization_embedding(4)
    with pytest.raises(SearchBudgetExceeded) as info:
        find_resolutions(design, limit=10**6, node_budget=node_budget)
    assert len(info.value.found) == found


def _catalog_master(v, k, lam):
    """The catalog's cyclic (design, resolution) with parameters (v,k,lam)."""
    for name in catalog_names():
        entry = catalog_entry(name)
        p = entry.master_params
        if (p.v, p.k, p.lam) == (v, k, lam):
            return cyclic_develop(entry.base)
    raise KeyError((v, k, lam))


def _resolving(limit, design_and_res):
    design, _ = design_and_res
    return lambda budget: find_resolutions(design, limit=limit, node_budget=budget)


def _prp_checking(design_and_res):
    design, res = design_and_res
    return lambda budget: prp_violations(design, res, node_budget=budget)


# Each search as a function of its node budget.
PINNED_SEARCHES = {
    "(24,4,3) limit=2": lambda: _resolving(2, _catalog_master(24, 4, 3)),
    "(30,5,4) limit=2": lambda: _resolving(2, _catalog_master(30, 5, 4)),
    "sub3 limit=1000": lambda: _resolving(1000, sub_factorization_embedding(3)),
    "relabelled (24,3,2) limit=1": lambda: _resolving(
        1, _shuffled(*_catalog_master(24, 3, 2), seed=0)
    ),
    "prp sub4": lambda: _prp_checking(sub_factorization_embedding(4)),
    "prp (30,3,2)": lambda: _prp_checking(_catalog_master(30, 3, 2)),
    "prp AG(2,4)": lambda: _prp_checking(affine_hyperplane_design(2, 4)),
}


# Nodes each search spends in all.  A resolution search spends one per
# placed block, counted on the list-scanning search that the block-bitset
# one replaced: both place the same blocks in the same order, so the
# exhaustion points do not move.  The relabelled (24,3,2) finds nothing in
# its first SYMMETRY_AFTER + 1 = 8193 nodes, so its symmetry stage runs
# there: 107 rounds of refinement at b = 184 nodes each (19,688) find an
# automorphism of order 23, and the invariant search then places 144
# blocks.  A PRP check spends 2w per class pair,
# C(r,2)·2w in all: 105·2·8 for sub4, 406·2·10 for (30,3,2) and 10·2·4
# for AG(2,4), whose pairs (k >= w) are all decided from the owner table.
@pytest.mark.parametrize(
    "name, nodes",
    [
        ("(24,4,3) limit=2", 2243),
        ("(30,5,4) limit=2", 1221),
        ("sub3 limit=1000", 17961),
        ("relabelled (24,3,2) limit=1", 8193 + 107 * 184 + 144),
        ("prp sub4", 1680),
        ("prp (30,3,2)", 8120),
        ("prp AG(2,4)", 80),
    ],
)
def test_search_node_counts_are_pinned(name, nodes):
    search = PINNED_SEARCHES[name]()
    result = search(nodes)
    assert result == search(10 * nodes)
    with pytest.raises(SearchBudgetExceeded):
        search(nodes - 1)


def _rotation(v, n, seed):
    """The point map x -> x+1 mod n, fixing n, of a 1-rotational master
    over Z_n and n, carried over to its copy _shuffled(..., seed), which
    relabels point p as perm[p]."""
    perm = list(range(v))
    random.Random(seed).shuffle(perm)  # the first draw _shuffled makes
    rotation = [0] * v
    for p in range(v):
        rotation[perm[p]] = perm[(p + 1) % n if p < n else p]
    return rotation


def _class_sets(design, res):
    return {frozenset(frozenset(design.blocks[i]) for i in cls.block_refs)
            for cls in res.classes}


@pytest.mark.parametrize("master", [(24, 3, 2), (30, 3, 2)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relabelled_hard_masters_are_resolved_through_an_automorphism(master, seed):
    # The plain search runs 250,000 nodes on these copies without finding
    # a resolution; the symmetry stage finds one that the copy's hidden
    # rotation, of prime order n, maps onto itself class by class.
    design, _ = _shuffled(*_catalog_master(*master), seed)
    v, n = design.points.size, design.points.size - 1
    (res,) = find_resolutions(design, limit=1, node_budget=250_000)
    assert verify_resolution(design, res)
    classes = [cls.block_refs for cls in res.classes]
    assert naive_is_resolution(v, design.blocks, classes)
    rotation = _rotation(v, n, seed)
    assert naive_is_automorphism(v, design.blocks, rotation)
    image = {frozenset(frozenset(rotation[p] for p in block) for block in cls)
             for cls in _class_sets(design, res)}
    assert image == _class_sets(design, res)


def test_search_results_equal_their_checked_construction():
    # The search builds its results without re-checking their refs; the
    # public constructor, which checks them, accepts and equals each.
    hard, _ = _shuffled(*_catalog_master(24, 3, 2), seed=0)
    found = (find_resolutions(hard, limit=1, node_budget=250_000)
             + find_resolutions(SHUFFLED["K_8 embedding"]()[0], limit=10))
    assert len(found) > 2
    for res in found:
        assert Resolution(res.design, res.classes) == res


def _random_classes(v, k, r, seed):
    """r parallel classes of k-sets on v points, each a random partition,
    with the blocks of all of them shuffled: a resolvable design whose
    automorphisms are almost always trivial."""
    rng = random.Random(seed)
    blocks = []
    for _ in range(r):
        points = list(range(v))
        rng.shuffle(points)
        blocks += [points[i : i + k] for i in range(0, v, k)]
    rng.shuffle(blocks)
    return make_design(v, blocks)


def test_symmetry_stage_without_an_automorphism_only_adds_its_charge():
    # The plain search of this design finds its first resolution after
    # more than SYMMETRY_AFTER nodes and the design has no nontrivial
    # automorphism, so the stage finds none, charges b nodes per round of
    # refinement and leaves the plain search's result and order as they
    # were, its exhaustion point moved by that charge.
    design = _random_classes(18, 3, 10, seed=2)
    b = len(design.blocks)
    trace, total = naive_search_trace(design.points.size, design.blocks, 1)
    assert total > resolution.SYMMETRY_AFTER

    rounds = 0

    def spend():
        nonlocal rounds
        rounds += 1

    assert core._find_automorphism(design, lambda blocks: True, spend) is None
    budget = total + rounds * b
    found = find_resolutions(design, limit=1, node_budget=budget)
    assert [tuple(cls.block_refs for cls in res.classes) for res in found] == [
        refs for _, refs, _ in trace
    ]
    with pytest.raises(SearchBudgetExceeded) as info:
        find_resolutions(design, limit=1, node_budget=budget - 1)
    assert info.value.found == []


# A 1-rotational master over Z_17 and 17 (the base class, developed): a
# relabelled copy whose plain search finds its first resolution only
# after 28,909 nodes.
ROTATIONAL_18 = CyclicBaseSpec(
    n=17, has_infinity=True,
    base_class=((7, 12, 14), (0, 6, 17), (3, 8, 9), (4, 10, 11), (5, 13, 15), (1, 2, 16)),
)


def test_limit_two_adds_the_plain_search_resolution_after_the_invariant_one(monkeypatch):
    design, _ = _shuffled(*cyclic_develop(ROTATIONAL_18), seed=1)
    (invariant,) = find_resolutions(design, limit=1)
    found = find_resolutions(design, limit=2)
    monkeypatch.setattr(resolution, "SYMMETRY_AFTER", 10**9)  # no stage
    (plain,) = find_resolutions(design, limit=1)
    assert found == [invariant, plain]
    assert _class_sets(design, invariant) != _class_sets(design, plain)
    assert all(verify_resolution(design, res) for res in found)


def test_limit_two_on_a_hard_master_keeps_the_invariant_resolution():
    # The plain search finds nothing more within the budget, so the search
    # runs out holding the stage's resolution alone.
    design, _ = _shuffled(*_catalog_master(24, 3, 2), seed=0)
    first = find_resolutions(design, limit=1, node_budget=250_000)
    with pytest.raises(SearchBudgetExceeded) as info:
        find_resolutions(design, limit=2, node_budget=250_000)
    assert info.value.found == first


@st.composite
def _search_inputs(draw):
    """(design, limit): a small resolvable design whose later classes may
    repeat blocks of earlier ones, its blocks shuffled and perhaps w
    random blocks added; or a relabelled K_8 or K_12 embedding."""
    if draw(st.booleans()):
        n = draw(st.sampled_from([2, 3]))
        seed = draw(st.integers(0, 999))
        design, _ = _shuffled(*sub_factorization_embedding(n), seed)
    else:
        design, _ = draw(_random_resolutions(ks=(2, 3), ws=(2, 3), rs=(2, 4)))
        v, k = design.points.size, design.k
        blocks = list(design.blocks)
        if draw(st.booleans()):
            point = st.integers(0, v - 1)
            subset = st.lists(point, min_size=k, max_size=k, unique=True)
            blocks += [tuple(sorted(draw(subset))) for _ in range(v // k)]
        design = make_design(v, draw(st.permutations(blocks)))
    return design, draw(st.integers(1, 4))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_search_inputs())
def test_search_follows_the_documented_order_at_every_budget(case):
    # One node per placed block, in the order naive_search_trace spells
    # out: on a budget of B nodes the search runs out exactly when the
    # oracle needs more than B, with the oracle's results found by then.
    design, limit = case
    trace, total = naive_search_trace(design.points.size, design.blocks, limit)

    def classes(found):
        return [tuple(cls.block_refs for cls in res.classes) for res in found]

    for budget in range(total + 2):
        expected = [refs for _, refs, nodes in trace if nodes <= budget]
        if budget < total:
            with pytest.raises(SearchBudgetExceeded) as info:
                find_resolutions(design, limit, node_budget=budget)
            assert classes(info.value.found) == expected
        else:
            found = find_resolutions(design, limit, node_budget=budget)
            assert classes(found) == expected


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_search_inputs())
def test_bounded_keep_memo_follows_the_documented_order(case):
    # The documented-order property again with room for two `keep` masks,
    # so the search reads them from the bounded memo (_Keep), which
    # rebuilds most of them on use, node for node at every budget.
    design, _ = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resolution, "MEETS_MEMO_BITS", 2 * len(design.blocks))
        assert isinstance(resolution._search_masks(design)[2], resolution._Keep)
        test_search_follows_the_documented_order_at_every_budget.hypothesis.inner_test(
            case
        )


def test_overlap_masks_past_the_memo_bound_are_rebuilt(monkeypatch):
    # A search keeps at most MEETS_MEMO_BITS bits of `meets` masks and
    # rebuilds the others on each use; the results do not depend on it.
    design, _ = sub_factorization_embedding(3)
    expected = find_resolutions(design, limit=50)
    monkeypatch.setattr(resolution, "MEETS_MEMO_BITS", 2 * len(design.blocks))
    assert find_resolutions(design, limit=50) == expected


# Searches whose classes recur: 6,386 nodes find the first 300 of the K_16
# embedding's resolutions, and the relabelled (24,3,2) is resolved by its
# symmetry stage, one class and its m - 1 = 22 images.
MEMO_SEARCHES = {
    "sub4 limit=300": (lambda: sub_factorization_embedding(4)[0], 300, 6386),
    "relabelled (24,3,2) limit=1": (
        lambda: _shuffled(*_catalog_master(24, 3, 2), seed=0)[0], 1, 8193 + 107 * 184 + 144,
    ),
}


@pytest.mark.parametrize("name", MEMO_SEARCHES)
def test_class_memo_cleared_every_few_classes_changes_nothing(name, monkeypatch):
    # With MEETS_MEMO_BITS at b·b the keep masks are still one list, so the
    # symmetry stage runs, but the memo of completed classes holds only
    # b·b // (b + 128·w) of them (12 for sub4, 28 for (24,3,2)) and is
    # cleared many times over: the results, their class order and the
    # nodes spent are the default bound's.
    make, limit, nodes = MEMO_SEARCHES[name]
    design = make()
    b = len(design.blocks)
    keyed = 0
    class_key = resolution._class_key

    def counting(*args):
        nonlocal keyed
        keyed += 1
        return class_key(*args)

    monkeypatch.setattr(resolution, "_class_key", counting)

    def search():
        found = find_resolutions(design, limit, node_budget=nodes)
        with pytest.raises(SearchBudgetExceeded):
            find_resolutions(design, limit, node_budget=nodes - 1)
        return [tuple(cls.block_refs for cls in res.classes) for res in found]

    expected = search()
    keyed_by_default, keyed = keyed, 0
    monkeypatch.setattr(resolution, "MEETS_MEMO_BITS", b * b)
    assert isinstance(resolution._search_masks(design)[2], list)
    assert search() == expected
    assert keyed > keyed_by_default


def test_resolutions_of_one_search_share_one_class_per_distinct_class():
    design, _ = sub_factorization_embedding(4)
    found = find_resolutions(design, limit=1000)
    assert len(found) == 1000
    objects = {id(cls) for res in found for cls in res.classes}
    contents = {
        tuple(sorted(design.blocks[i] for i in cls.block_refs))
        for res in found for cls in res.classes
    }
    assert len(objects) <= len(contents)


def test_searches_leave_no_reference_cycles(k8_subfac):
    design, res = k8_subfac
    gc.collect()
    gc.disable()
    try:
        find_resolutions(design, limit=50)
        assert gc.collect() == 0
        prp_violations(design, res)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_nondividing_block_size_rejected():
    design = make_design(5, [(0, 1), (2, 3)])
    with pytest.raises(DesignError):
        find_resolutions(design, limit=1)


# --- PRP ---------------------------------------------------------------------

def _oracle_alphas(design, res, i, j):
    """The alphas naive_prp_witness finds for classes i and j."""
    blocks_i = [design.blocks[r] for r in res.classes[i].block_refs]
    blocks_j = [design.blocks[r] for r in res.classes[j].block_refs]
    w = design.points.size // design.k
    return {
        alpha for alpha in range(1, w)
        if naive_prp_witness(blocks_i, blocks_j, alpha, design.points.size)
    }


def test_k8_mixed_classes_satisfy_2_prp(k8_subfac):
    design, res = k8_subfac
    alphas = {alpha for i, j, alpha in prp_violations(design, res) if (i, j) == (0, 1)}
    assert 2 in alphas and 3 not in alphas
    assert alphas == _oracle_alphas(design, res, 0, 1)


def test_alpha_range_enforced():
    design, res = k4_resolution()
    with pytest.raises(BadAlpha):
        prp_violations(design, res, alpha_filter={2})  # w = 2
    with pytest.raises(BadAlpha):
        prp_violations(design, res, alpha_filter={0})


def test_prp_violations_ag23_empty(ag23):
    design, res = ag23
    assert prp_violations(design, res) == []
    assert _oracle_alphas(design, res, 0, 1) == set()


def test_prp_violations_k8(k8_subfac):
    design, res = k8_subfac
    violations = prp_violations(design, res)
    assert (0, 1, 2) in violations
    assert all(i < j for i, j, _ in violations)
    # every reported witness must survive an independent re-check
    for i, j, alpha in violations:
        blocks_i = [design.blocks[r] for r in res.classes[i].block_refs]
        blocks_j = [design.blocks[r] for r in res.classes[j].block_refs]
        assert naive_prp_witness(blocks_i, blocks_j, alpha, design.points.size)


def _doubled(design, res):
    """Every block and every class twice: class i + len(res.classes) holds
    the copies of class i's blocks, so the two share all their contents."""
    b = len(design.blocks)
    twice = make_design(design.points.size, design.blocks + design.blocks)
    copies = tuple(
        ParallelClass(tuple(ref + b for ref in cls.block_refs)) for cls in res.classes
    )
    return twice, Resolution(twice, res.classes + copies)


@pytest.mark.parametrize("name", ["K_8 embedding doubled", "Z_4 development"])
def test_prp_violations_match_oracle_on_shared_contents(name):
    # Alpha counts block contents as a multiset, not block instances: a
    # class and a copy of it admit only replacements with alpha = w.
    if name == "Z_4 development":
        base = CyclicBaseSpec(n=4, has_infinity=False, base_class=((0, 1), (2, 3)))
        design, res = cyclic_develop(base)  # classes 0 and 2 are equal
    else:
        design, res = _doubled(*sub_factorization_embedding(2))
    w = design.points.size // design.k
    violations = set(prp_violations(design, res))
    for i in range(len(res.classes)):
        for j in range(i + 1, len(res.classes)):
            blocks_i = [design.blocks[r] for r in res.classes[i].block_refs]
            blocks_j = [design.blocks[r] for r in res.classes[j].block_refs]
            for alpha in range(1, w):
                expected = naive_prp_witness(blocks_i, blocks_j, alpha, w * design.k)
                assert ((i, j, alpha) in violations) == expected, (i, j, alpha)


@st.composite
def _random_resolutions(draw, ks=(2, 4), ws=(2, 6), rs=(2, 6)):
    """A resolution of k·w points into r classes, some of which repeat
    blocks of an earlier class as new instances; k, w and r are drawn from
    the inclusive ranges ks, ws and rs."""
    k, w, r = (draw(st.integers(*bounds)) for bounds in (ks, ws, rs))
    blocks, classes = [], []
    for _ in range(r):
        kept = []
        if classes and draw(st.booleans()):
            kept = draw(st.lists(st.sampled_from(draw(st.sampled_from(classes))),
                                 unique=True))
        covered = {p for ref in kept for p in blocks[ref]}
        rest = draw(st.permutations([p for p in range(k * w) if p not in covered]))
        classes.append(tuple(range(len(blocks), len(blocks) + w)))
        blocks += [blocks[ref] for ref in kept]
        blocks += [tuple(sorted(rest[x:x + k])) for x in range(0, len(rest), k)]
    design = make_design(k * w, blocks)
    return design, Resolution(design, tuple(ParallelClass(c) for c in classes))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_random_resolutions(), _random_resolutions(ks=(4, 6), ws=(2, 4)))
def test_prp_violations_match_oracle_on_random_resolutions(small_k, large_k):
    # The second draw has k >= w, so prp_violations decides some of its
    # pairs from the owner table and the rest by components.
    for design, res in (small_k, large_k):
        assert verify_resolution(design, res)
        violations = prp_violations(design, res)
        expected = [
            (i, j, alpha)
            for i in range(len(res.classes))
            for j in range(i + 1, len(res.classes))
            for alpha in sorted(_oracle_alphas(design, res, i, j))
        ]
        assert violations == expected


def test_prp_with_more_than_256_blocks_per_class():
    # Two perfect matchings of 600 points, w = 300: their union is a 4-cycle
    # on points 0..3 and one 596-cycle.  A replacement class takes one side
    # of each cycle, so it shares 0, 2, 298 or 300 blocks with the first.
    first = [(0, 1), (2, 3)] + [(p, p + 1) for p in range(4, 600, 2)]
    second = [(0, 2), (1, 3)] + [(p, p + 1) for p in range(5, 599, 2)] + [(4, 599)]
    design = make_design(600, first + second)
    res = Resolution(design, (
        ParallelClass(tuple(range(300))), ParallelClass(tuple(range(300, 600)))
    ))
    assert prp_violations(design, res) == [(0, 1, 2), (0, 1, 298)]
    # The rows and the columns of a 256 x 256 grid, w = k = 256: each row
    # meets every column, so the pair is one component, and the owner
    # table's positions fill all of uint8.
    rows = [tuple(range(256 * a, 256 * a + 256)) for a in range(256)]
    columns = [tuple(range(a, 256 * 256, 256)) for a in range(256)]
    design = make_design(256 * 256, rows + columns)
    res = Resolution(design, (
        ParallelClass(tuple(range(256))), ParallelClass(tuple(range(256, 512)))
    ))
    assert prp_violations(design, res) == []


def test_prp_alpha_filter(k8_subfac):
    design, res = k8_subfac
    only_two = prp_violations(design, res, alpha_filter={2})
    assert only_two and all(alpha == 2 for _, _, alpha in only_two)
    assert prp_violations(design, res, alpha_filter={3}) == []
    with pytest.raises(BadAlpha):
        prp_violations(design, res, alpha_filter={4})


def test_single_class_resolution_is_free():
    design = make_design(4, [(0, 1), (2, 3)])
    res = Resolution(design, (ParallelClass((0, 1)),))
    assert verify_resolution(design, res)
    assert prp_violations(design, res) == []


def test_prp_requires_valid_resolution():
    design, _ = k4_resolution()
    broken = Resolution(design, (ParallelClass((0, 1)),))
    with pytest.raises(DesignError):
        prp_violations(design, broken)


def test_prp_budget(k8_subfac):
    design, res = k8_subfac
    with pytest.raises(SearchBudgetExceeded, match=r"\(0 PRP violation\(s\) found"):
        prp_violations(design, res, node_budget=5)
    with pytest.raises(SearchBudgetExceeded, match="PRP violation"):
        prp_violations(design, res, alpha_filter={1}, node_budget=1)


# --- a unique resolution leaves no room for replacements ----------------------

def test_unique_resolution_designs_are_prp_free(ag23, ag32):
    corpus = [ag23, ag32]
    design = trivial_design(4, 2)
    corpus.append((design, find_resolutions(design, limit=2)[0]))
    for design, res in corpus:
        assert len(find_resolutions(design, limit=2)) == 1
        assert prp_violations(design, res) == []
