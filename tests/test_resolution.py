import gc

import pytest

from blockdesigns.catalog import catalog_entry
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
    canonical_resolution,
    find_resolutions,
    prp_violations,
    verify_resolution,
)

from oracles import naive_prp_witness, naive_resolutions

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


def test_verify_rejects_missing_block():
    design, _ = k4_resolution()
    res = Resolution(design, (ParallelClass((0, 1)),))
    result = verify_resolution(design, res)
    assert not result
    assert "no class" in result.reason


def test_verify_translate_classes_of_cyclic_master():
    master, res = cyclic_develop(catalog_entry("3-(30,15,65)").base)
    assert verify_resolution(master, res)
    assert len(res.classes) == 29
    assert all(len(cls.block_refs) == 6 for cls in res.classes)


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


@pytest.mark.parametrize(
    "v,blocks",
    [
        (4, list(trivial_design(4, 2).blocks)),
        (6, list(trivial_design(6, 2).blocks)),
        (6, list(trivial_design(6, 3).blocks)),
        (6, NON_RESOLVABLE_632),
        (8, list(trivial_design(8, 4).blocks)),
    ],
)
def test_search_agrees_with_naive_enumeration(v, blocks):
    design = make_design(v, blocks)
    found = find_resolutions(design, limit=10_000)
    assert len(found) == len(naive_resolutions(v, design.blocks))
    for res in found:
        assert verify_resolution(design, res)


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


def test_search_depth_does_not_grow_with_block_count():
    # AG(2,32) has 1056 blocks; a search recursing once per block would
    # exceed the interpreter's default recursion limit.
    design, _ = affine_hyperplane_design(2, 32)
    assert len(find_resolutions(design, limit=1)) == 1


@pytest.mark.parametrize("node_budget, found", [(1000, 51), (10_000, 407)])
def test_budget_exhaustion_keeps_partial_results(node_budget, found):
    design, _ = sub_factorization_embedding(4)
    with pytest.raises(SearchBudgetExceeded) as info:
        find_resolutions(design, limit=10**6, node_budget=node_budget)
    assert len(info.value.found) == found


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


def test_canonicalization_idempotent(ag23):
    design, res = ag23
    canon = canonical_resolution(res)
    assert canonical_resolution(canon) == canon
    assert verify_resolution(design, canon)


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
