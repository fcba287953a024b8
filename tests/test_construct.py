import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdesigns import construct, core
from blockdesigns.catalog import catalog_entry, catalog_names
from blockdesigns.construct import (
    DimensionMismatch,
    IndexingParams,
    NonIntegral,
    SimplicityVerdict,
    ThreeDesignCase,
    classify_three_design,
    indexing_balance,
    inherited_resolution,
    measure_params,
    predict_bibd_lambda,
    predict_ibd_params,
    predict_triple_coverage,
    shrikhande_raghavarao,
    simplicity_verdict,
    triple_coverage_by_alpha,
)
from blockdesigns.core import (
    Design,
    DesignError,
    DesignParams,
    PointSet,
    intersection_profile,
    is_simple,
    make_design,
    t_coverage_spectrum,
    verify_ibd,
)
from blockdesigns.formats import load_resolution, save_resolution
from blockdesigns.generators import (
    CyclicBaseSpec,
    affine_hyperplane_design,
    cyclic_develop,
    sub_factorization_embedding,
    trivial_design,
)
from blockdesigns.resolution import (
    ParallelClass,
    Resolution,
    find_resolutions,
    prp_violations,
    verify_resolution,
)

from oracles import (
    naive_coverage,
    naive_inherited_resolution,
    naive_profile,
    naive_spectrum,
    naive_union,
    predicted_mu,
    predicted_mu_affine,
)

MASTER_24_6_5 = DesignParams(t=2, v=24, b=92, r=23, k=6, lam=5)
MASTER_30_5_4 = DesignParams(t=2, v=30, b=174, r=29, k=5, lam=4)
MASTER_24_4_3 = DesignParams(t=2, v=24, b=138, r=23, k=4, lam=3)
IDX_4_2 = IndexingParams(
    w=4, b_prime=6, r_prime=3, k_prime=2, lambda_prime=0, lambda2_prime=1
)
IDX_6_3 = IndexingParams(
    w=6, b_prime=20, r_prime=10, k_prime=3, lambda_prime=1, lambda2_prime=4
)


def single_class_master():
    design = make_design(4, [(0, 1), (2, 3)])
    return design, Resolution(design, (ParallelClass((0, 1)),))


# --- the construction ---------------------------------------------------------

def test_first_class_blocks_are_base_unions(repro):
    built = repro["3-(24,12,15)"].constructed
    base = catalog_entry("3-(24,12,15)").base.base_class
    expected = [
        tuple(sorted(base[i] + base[j]))
        for i, j in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    ]
    assert list(built.design.blocks[:6]) == expected
    assert built.provenance[:6] == tuple((0, ci) for ci in range(6))


def test_single_class_single_block():
    # one class of three blocks; a single indexing block unions two of them
    master = make_design(6, [(0, 1), (2, 3), (4, 5)])
    res = Resolution(master, (ParallelClass((0, 1, 2)),))
    indexing = make_design(3, [(0, 1)])
    built = shrikhande_raghavarao(res, indexing)
    assert built.design.blocks == ((0, 1, 2, 3),)
    assert built.provenance == ((0, 0),)


def test_affine_construction_counts(ag28):
    _, res = ag28
    built = shrikhande_raghavarao(res, trivial_design(8, 4))
    assert len(built.design.blocks) == 9 * 70
    assert built.design.k == 32
    assert verify_ibd(built.design).as_tuple() == (64, 630, 315, 32)


def test_affine_16_golden_3_256_128_63():
    master, res = affine_hyperplane_design(2, 16)
    indexing, _ = affine_hyperplane_design(4, 2)  # a 3-(16,8,3) design
    built = shrikhande_raghavarao(res, indexing).design
    assert len(built.blocks) == 510
    assert is_simple(built)
    assert t_coverage_spectrum(built, 3) == {63: 2_763_520}  # C(256, 3)
    counts = intersection_profile(built).counts
    assert counts[0] == 255 and counts[64] == 129_540
    assert sum(counts) == counts[0] + counts[64]
    assert prp_violations(master, res, alpha_filter={8}) == []
    assert predicted_mu_affine(16, 2, 3) == 63


@st.composite
def union_inputs(draw, widths=(3, 4, 5), resolvable=False):
    """(master resolution, its class refs, indexing design).

    The master is all translates of a random base class through Z_n,
    perhaps twice over, carrying the shift and its square; or 0-5 random
    parallel classes, perhaps with a class repeated, carrying nothing;
    their classes hold w blocks, w drawn from `widths`.  Or it is the
    one-factorization of K_4n with a sub-one-factorization
    (sub_factorization_embedding, n = 2 or 3, w = 2n), its points
    relabelled, carrying nothing or a random point permutation: a simple
    master with k'-PRPs for many k'.  Every point permutation maps the
    edges of K_4n onto themselves, and most map some class onto one the
    resolution lacks.  Classes, positions in a class and the block list are shuffled.
    The indexing design is trivial or a few random blocks, or, when
    `resolvable`, the union of 1-3 random parallel classes of the w
    points.  Two times in three, an embedding takes trivial indexing with
    a k' for which it has a k'-PRP: the converse of the PRP criterion,
    where the built design repeats a block.
    """
    kind = draw(st.sampled_from(["cyclic", "random", "embedding"]))
    if kind == "embedding":
        embedded, embedded_res = sub_factorization_embedding(draw(st.integers(2, 3)))
        k, v = 2, embedded.points.size
        w = v // k
        relabel = draw(st.permutations(range(v)))
        classes = [
            [tuple(sorted(relabel[p] for p in embedded.blocks[ref])) for ref in cls.block_refs]
            for cls in embedded_res.classes
        ]
        generators = (tuple(draw(st.permutations(range(v)))),) if draw(st.booleans()) else ()
    else:
        k = draw(st.integers(2, 3))
        w = draw(st.sampled_from(widths))
        v = k * w
    if kind == "cyclic":
        infinity = draw(st.booleans())
        n = v - infinity
        points = draw(st.permutations(range(v)))
        base = tuple(tuple(sorted(points[i : i + k])) for i in range(0, v, k))
        developed, developed_res = cyclic_develop(CyclicBaseSpec(n, infinity, base))
        classes = [
            [developed.blocks[ref] for ref in cls.block_refs]
            for cls in developed_res.classes
        ] * draw(st.integers(1, 2))
        shift = developed.automorphisms[0]
        generators = (shift, tuple(shift[p] for p in shift))
    elif kind == "random":
        classes = []
        for _ in range(draw(st.integers(0, 5))):
            points = draw(st.permutations(range(v)))
            classes.append([tuple(sorted(points[i : i + k])) for i in range(0, v, k)])
        if classes and draw(st.booleans()):
            classes.append(classes[0])
        generators = ()
    classes = draw(st.permutations([draw(st.permutations(cls)) for cls in classes]))
    slots = draw(st.permutations([(i, j) for i in range(len(classes)) for j in range(w)]))
    position = {slot: ref for ref, slot in enumerate(slots)}
    refs = tuple(tuple(position[i, j] for j in range(w)) for i in range(len(classes)))
    blocks = tuple(classes[i][j] for i, j in slots)
    master = Design(PointSet(v), blocks, k, automorphisms=generators)
    res = Resolution(master, tuple(ParallelClass(cls) for cls in refs))
    if resolvable:
        k_prime = draw(st.sampled_from([d for d in range(2, w) if w % d == 0]))
        chosen = []
        for _ in range(draw(st.integers(1, 3))):
            points = draw(st.permutations(range(w)))
            chosen += [points[i : i + k_prime] for i in range(0, w, k_prime)]
        return res, refs, make_design(w, chosen, k=k_prime)
    if kind == "embedding" and draw(st.integers(0, 2)) > 0:
        violations = prp_violations(embedded, embedded_res)
        k_prime = draw(st.sampled_from(sorted({alpha for _, _, alpha in violations})))
        return res, refs, trivial_design(w, k_prime)
    k_prime = draw(st.integers(2, w - 1))
    if draw(st.booleans()):
        indexing = trivial_design(w, k_prime)
    else:
        chosen = draw(st.lists(
            st.lists(st.integers(0, w - 1), min_size=k_prime, max_size=k_prime, unique=True),
            min_size=1, max_size=6,
        ))
        indexing = make_design(w, chosen, k=k_prime)
    return res, refs, indexing


@settings(max_examples=80, derandomize=True, deadline=None)
@given(union_inputs())
def test_union_matches_naive_union(case):
    res, refs, indexing = case
    master = res.design
    built = shrikhande_raghavarao(res, indexing)
    blocks, provenance, kept = naive_union(
        master.blocks, refs, indexing.blocks, master.automorphisms
    )
    assert built.design.blocks == blocks
    assert built.provenance == provenance
    # Both match classes holding the same blocks in every way they can.
    assert built.design.automorphisms == kept
    listed = sorted(blocks)
    for g in built.design.automorphisms:
        assert sorted(tuple(sorted(g[p] for p in b)) for b in blocks) == listed
    # The block permutations the construction supplies pass the exact check.
    assert len(built.design._block_perms) == len(kept)
    built.design._symmetry


def test_designs_built_from_arrays_keep_them(monkeypatch, tmp_path):
    # The generators, the union construction and the parser hand their
    # checked arrays to the design: the check of block tuples never runs,
    # and _members is the array, read-only and of the smallest type.
    def refuse(*args):
        raise AssertionError("the blocks were turned into an array again")

    monkeypatch.setattr(core, "_block_array", refuse)
    master, res = affine_hyperplane_design(2, 4)
    indexing, _ = affine_hyperplane_design(2, 2)
    built = shrikhande_raghavarao(res, indexing).design
    save_resolution(res, tmp_path / "ag24.res")
    loaded, _ = load_resolution(tmp_path / "ag24.res")
    for design in (master, indexing, built, loaded):
        members = vars(design)["_members"]
        assert members.dtype == np.uint8 and not members.flags.writeable
        assert members.tolist() == [list(block) for block in design.blocks]
    assert loaded == master


def test_union_of_no_classes():
    master = Design(PointSet(6), (), 2)
    built = shrikhande_raghavarao(Resolution(master, ()), trivial_design(3, 2))
    assert built.design.blocks == () and built.provenance == ()
    assert built.design.k == 4


def test_dimension_mismatch(ag23):
    _, res = ag23  # w = 3
    with pytest.raises(DimensionMismatch):
        shrikhande_raghavarao(res, trivial_design(4, 2))


def test_invalid_master_resolution_rejected():
    design = make_design(6, [(0, 1), (2, 3), (4, 5), (0, 2), (1, 4), (3, 5)])
    broken = Resolution(design, (ParallelClass((0, 1, 2)),))
    with pytest.raises(DesignError, match="master resolution invalid: "
                                          "block instance 3 is in no class"):
        shrikhande_raghavarao(broken, make_design(3, [(0, 1)]))


# --- parameter prediction -------------------------------------------------------

def test_predict_ibd_params_24():
    assert predict_ibd_params(MASTER_24_6_5, IDX_4_2).as_tuple() == (24, 138, 69, 12)


def test_predict_ibd_params_single_block_indexing():
    # k' = w is rejected: indexing blocks must be proper subsets
    with pytest.raises(DesignError):
        IndexingParams(
            w=4, b_prime=1, r_prime=1, k_prime=4, lambda_prime=1, lambda2_prime=1
        )
    idx = IndexingParams(
        w=4, b_prime=2, r_prime=1, k_prime=2, lambda_prime=0, lambda2_prime=0
    )
    params = predict_ibd_params(MASTER_24_6_5, idx)
    assert params.b == MASTER_24_6_5.r * 2


def test_predict_ibd_params_affine():
    master = DesignParams(t=2, v=64, b=72, r=9, k=8, lam=1)
    idx = IndexingParams(
        w=8, b_prime=70, r_prime=35, k_prime=4, lambda_prime=5, lambda2_prime=15
    )
    assert predict_ibd_params(master, idx).as_tuple() == (64, 630, 315, 32)


def test_predict_ibd_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        predict_ibd_params(MASTER_24_6_5, IDX_6_3)


@pytest.mark.parametrize("predict", [
    predict_ibd_params,
    predict_bibd_lambda,
    predict_triple_coverage,
    lambda master, indexing: triple_coverage_by_alpha(master, indexing, 0),
])
def test_every_prediction_refuses_indexing_of_the_wrong_size(predict):
    # The 2-(24,6,5) master has w = 4 blocks per class; trivial(6, 2)
    # indexes 6 (its triple coverage alone would read 15).
    indexing = IndexingParams.from_design(trivial_design(6, 2))
    with pytest.raises(DimensionMismatch, match=r"^indexing on 6 points, master has w=4$"):
        predict(MASTER_24_6_5, indexing)


def test_predict_bibd_lambda_values():
    assert predict_bibd_lambda(MASTER_24_6_5, IDX_4_2) == 33
    assert predict_bibd_lambda(MASTER_30_5_4, IDX_6_3) == 140
    # cross-check: derived pair coverage of the constructed 3-designs
    assert 15 * 22 // 10 == 33
    assert 65 * 28 // 13 == 140


def test_predict_bibd_lambda_observed(repro):
    built = repro["3-(24,12,15)"].constructed.design
    assert t_coverage_spectrum(built, 2) == {33: math.comb(24, 2)}


# --- triple coverage ---------------------------------------------------------

def test_triple_coverage_alpha_independent_when_balanced():
    assert triple_coverage_by_alpha(MASTER_24_4_3, IDX_6_3, 0) == 50
    assert triple_coverage_by_alpha(MASTER_24_4_3, IDX_6_3, 1) == 50


def test_triple_coverage_pair_indexing_constant():
    for alpha in range(6):
        assert triple_coverage_by_alpha(MASTER_24_6_5, IDX_4_2, alpha) == 15


def test_triple_coverage_alpha_equals_lambda():
    # with alpha = lambda the middle term vanishes
    value = triple_coverage_by_alpha(MASTER_30_5_4, IDX_6_3, 4)
    r_prime, lam3 = IDX_6_3.r_prime, IDX_6_3.lambda_prime
    assert value == 4 * r_prime + (MASTER_30_5_4.r - 4) * lam3


def test_triple_coverage_alpha_range():
    with pytest.raises(DesignError):
        triple_coverage_by_alpha(MASTER_24_6_5, IDX_4_2, 6)


def test_triple_coverage_matches_counts_on_sample(repro):
    report = repro["3-(30,15,65)"]
    master_blocks = [set(b) for b in report.master.blocks]
    built = report.constructed.design
    rng = random.Random(5)
    for _ in range(60):
        triple = tuple(rng.sample(range(30), 3))
        alpha = sum(1 for block in master_blocks if set(triple) <= block)
        expected = triple_coverage_by_alpha(MASTER_30_5_4, IDX_6_3, alpha)
        assert naive_coverage(built.blocks, triple) == expected


# --- classification -----------------------------------------------------------

def test_classify_w4_pair_indexing():
    analysis = classify_three_design(MASTER_24_6_5, 2)
    assert analysis.case is ThreeDesignCase.K_PRIME_HALF_W
    assert analysis.is_three_design and analysis.note is None


def test_classify_half_w():
    analysis = classify_three_design(MASTER_30_5_4, 3)
    assert analysis.case is ThreeDesignCase.K_PRIME_HALF_W


def test_classify_not_three_design():
    analysis = classify_three_design(MASTER_30_5_4, 4)
    assert analysis.case is ThreeDesignCase.NOT_3_DESIGN
    assert not analysis.is_three_design


def test_classify_master_three_design():
    # parameters of a 3-(16,4,1) design (w = 4 admits k' = 3)
    master = DesignParams(t=3, v=16, b=140, r=35, k=4, lam=1)
    analysis = classify_three_design(master, 3)
    assert analysis.case is ThreeDesignCase.MASTER_IS_3_DESIGN


def test_classify_master_pairs_with_note():
    master = DesignParams(t=2, v=8, b=28, r=7, k=2, lam=1)
    analysis = classify_three_design(master, 2)
    assert analysis.case is ThreeDesignCase.MASTER_BLOCK_SIZE_2
    assert analysis.note is not None
    analysis3 = classify_three_design(master, 3)
    assert analysis3.case is ThreeDesignCase.MASTER_BLOCK_SIZE_2
    assert analysis3.note is None


def test_classify_refuses_bad_parameters():
    with pytest.raises(DesignError, match="k' >= 2"):
        classify_three_design(MASTER_30_5_4, 1)
    with pytest.raises(DimensionMismatch):  # 7 does not divide 30
        classify_three_design(DesignParams(t=2, v=30, b=0, r=0, k=7, lam=0), 2)
    with pytest.raises(DesignError, match="2-design or stronger"):
        classify_three_design(DesignParams(t=1, v=24, b=4, r=1, k=6, lam=1), 2)
    # A 3-(10,5,1) parameter set: pair coverage 8/3.
    with pytest.raises(NonIntegral):
        classify_three_design(DesignParams(t=3, v=10, b=12, r=6, k=5, lam=1), 2)


def _trivial_params(v, k, t):
    """The parameters of the trivial design of all k-subsets of v points,
    declared as a t-design (DesignParams checks b and r against lam)."""
    return DesignParams(
        t=t, v=v, b=math.comb(v, k), r=math.comb(v - 1, k - 1), k=k,
        lam=math.comb(v - t, k - t),
    )


def test_classifier_agrees_with_the_alpha_coefficient():
    # Every trivial master declared a 2-design with k >= 3 and w < 40,
    # indexed by trivial(w, k'): a 3-design exactly when the coverage of a
    # triple in no master block equals that of a triple in one.
    checked = 0
    for w in range(3, 40):
        for k in range(3, 6):
            master = _trivial_params(w * k, k, 2)
            for k_prime in range(2, w):
                indexing = IndexingParams.from_params(
                    _trivial_params(w, k_prime, min(3, k_prime))
                )
                constant = (triple_coverage_by_alpha(master, indexing, 0)
                            == triple_coverage_by_alpha(master, indexing, 1))
                analysis = classify_three_design(master, k_prime)
                assert analysis.is_three_design == constant, (w, k, k_prime)
                checked += constant
    assert checked == 3 * len(range(4, 40, 2))


# --- the paper's closed forms ---------------------------------------------------

def test_predicted_mu_values():
    assert predicted_mu(MASTER_30_5_4, 1) == 65
    master_24_3_2 = DesignParams(t=2, v=24, b=184, r=23, k=3, lam=2)
    assert predicted_mu(master_24_3_2, 5) == 175
    master_30_3_2 = DesignParams(t=2, v=30, b=290, r=29, k=3, lam=2)
    assert predicted_mu(master_30_3_2, 21) == 819
    assert predicted_mu(MASTER_24_6_5, 1) == 15  # w = 4: 3*lam*lam2'


def test_predicted_mu_requires_even_w():
    master_25_5_1 = DesignParams(t=2, v=25, b=30, r=6, k=5, lam=1)
    with pytest.raises(ValueError, match="even"):
        predicted_mu(master_25_5_1, 1)  # w = 5


def test_predicted_mu_non_integral():
    # w = 12, lam = 1: 3*lam*w/(w-4) = 36/8 is not an integer
    master = DesignParams(t=2, v=24, b=276, r=23, k=2, lam=1)
    with pytest.raises(ValueError, match="not integral"):
        predicted_mu(master, 1)


def test_predicted_mu_affine_values():
    assert predicted_mu_affine(8, 2, 1) == 15
    assert predicted_mu_affine(8, 2, 5) == 75
    assert predicted_mu_affine(16, 2, 1) == 21


def test_predicted_mu_affine_errors():
    with pytest.raises(ValueError):
        predicted_mu_affine(9, 2, 1)  # not a power of two
    with pytest.raises(ValueError):
        predicted_mu_affine(4, 2, 1)  # not above 4
    with pytest.raises(ValueError, match="not integral"):
        predicted_mu_affine(32, 2, 1)  # 1020/28


def _half_class_lambda(indexing: IndexingParams) -> int:
    """The indexing coverage the closed forms take: pair coverage for pair
    indexing, triple coverage otherwise."""
    return indexing.lambda2_prime if indexing.k_prime == 2 else indexing.lambda_prime


def test_predicted_triple_coverage_is_the_closed_form_on_the_catalog():
    for name in catalog_names():
        entry = catalog_entry(name)
        indexing = IndexingParams.from_design(trivial_design(entry.w, entry.k_prime))
        mu = predict_triple_coverage(entry.master_params, indexing)
        assert mu == predicted_mu(entry.master_params, _half_class_lambda(indexing))
        assert mu == entry.mu, name


@pytest.mark.parametrize(
    "m, q, indexing, mu",
    [
        (2, 8, lambda: trivial_design(8, 4), 75),
        (3, 8, lambda: trivial_design(8, 4), 635),
        (2, 16, lambda: trivial_design(16, 8), 27027),
        (2, 32, lambda: affine_hyperplane_design(5, 2)[0], 255),
    ],
    ids=["AG(2,8)", "AG(3,8)", "AG(2,16)", "AG(2,32)"],
)
def test_predicted_triple_coverage_is_the_closed_form_on_affine_masters(
    m, q, indexing, mu
):
    master = measure_params(affine_hyperplane_design(m, q)[0])
    assert (master.t, master.k) == (2, q ** (m - 1))
    params = IndexingParams.from_design(indexing())
    assert predict_triple_coverage(master, params) == mu
    assert predicted_mu_affine(q, m, params.lambda_prime) == mu
    assert predicted_mu(master, params.lambda_prime) == mu


# --- inherited resolutions -------------------------------------------------------

def _inherited_refs(built, indexing_res):
    inherited = inherited_resolution(built, indexing_res)
    assert verify_resolution(built.design, inherited)
    return tuple(cls.block_refs for cls in inherited.classes)


def test_inherited_resolution_small():
    # K_4 pair indexing: the trivial (4,2) design resolved into one-factors
    from blockdesigns.generators import round_robin_one_factorization

    idx_design, idx_res = round_robin_one_factorization(4)
    master = make_design(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    master_res = Resolution(master, (ParallelClass((0, 1, 2, 3)),))
    built = shrikhande_raghavarao(master_res, idx_design)
    refs = _inherited_refs(built, idx_res)
    assert refs == ((0, 1), (2, 3), (4, 5))
    indexing_classes = [cls.block_refs for cls in idx_res.classes]
    assert refs == naive_inherited_resolution(built.provenance, indexing_classes)


def test_inherited_resolution_catalog(repro):
    report = repro["3-(24,12,15)"]
    built = report.constructed
    idx_res = find_resolutions(built.indexing, limit=1)[0]
    refs = _inherited_refs(built, idx_res)
    assert len(refs) == 69 and all(len(cls) == 2 for cls in refs)
    # The complement pairs of trivial(4, 2), class by master class.
    assert refs[:3] == ((0, 5), (1, 4), (2, 3))
    assert refs[-1] == (22 * 6 + 2, 22 * 6 + 3)
    master_refs = [cls.block_refs for cls in report.master_res.classes]
    blocks, provenance, _ = naive_union(
        report.master.blocks, master_refs, built.indexing.blocks
    )
    assert blocks == built.design.blocks
    indexing_classes = [cls.block_refs for cls in idx_res.classes]
    assert refs == naive_inherited_resolution(provenance, indexing_classes)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(union_inputs(widths=(4, 6), resolvable=True))
def test_inherited_resolution_matches_naive_grouping(case):
    res, refs, indexing = case
    found = find_resolutions(indexing, limit=1)
    assert found
    built = shrikhande_raghavarao(res, indexing)
    _, provenance, _ = naive_union(res.design.blocks, refs, indexing.blocks)
    indexing_classes = [cls.block_refs for cls in found[0].classes]
    assert _inherited_refs(built, found[0]) == naive_inherited_resolution(
        provenance, indexing_classes
    )


def test_inherited_resolution_rejects_non_resolution(repro):
    built = repro["3-(24,12,15)"].constructed
    broken = Resolution(built.indexing, (ParallelClass((0, 1)),))
    with pytest.raises(DesignError):
        inherited_resolution(built, broken)


# --- simplicity verdict -----------------------------------------------------------

def test_verdict_ag28_guaranteed(ag28, monkeypatch):
    _, res = ag28

    def refuse(*args):
        raise AssertionError("the guaranteed verdict built the design")

    monkeypatch.setattr(construct, "shrikhande_raghavarao", refuse)
    assert (
        simplicity_verdict(res, trivial_design(8, 4))
        is SimplicityVerdict.SIMPLE_GUARANTEED
    )


def test_verdict_k8_not_simple(k8_subfac):
    _, res = k8_subfac
    assert (
        simplicity_verdict(res, trivial_design(4, 2))
        is SimplicityVerdict.NOT_SIMPLE
    )
    built = shrikhande_raghavarao(res, trivial_design(4, 2))
    assert not is_simple(built.design)


def test_verdict_forward_direction_nontrivial_indexing(ag23):
    _, res = ag23
    indexing = make_design(3, [(0, 1), (1, 2)], k=2)
    assert (
        simplicity_verdict(res, indexing)
        is SimplicityVerdict.SIMPLE_GUARANTEED
    )


def test_verdict_repeated_indexing_block_is_not_simple(ag23):
    """AG(2,3) has no 2-PRP, but a repeated indexing block repeats a
    constructed block."""
    _, res = ag23
    indexing = make_design(3, [(0, 1), (0, 1), (1, 2), (0, 2)], k=2)
    assert not prp_violations(res.design, res, alpha_filter={2})
    assert simplicity_verdict(res, indexing) is SimplicityVerdict.NOT_SIMPLE
    assert not is_simple(shrikhande_raghavarao(res, indexing).design)


def test_verdict_k16_embedding_with_ag32_is_not_simple(ag32):
    _, res = sub_factorization_embedding(4)
    indexing, _ = ag32
    assert not core.is_trivial(indexing)
    assert simplicity_verdict(res, indexing) is SimplicityVerdict.NOT_SIMPLE
    assert not is_simple(shrikhande_raghavarao(res, indexing).design)


def test_verdict_simple_despite_prp():
    """Positions {0, 1} of the two classes cover the same four points, a
    2-PRP; an indexing design that never selects both keeps the result
    simple, which only building it shows."""
    master = make_design(
        8, [(0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (1, 3), (4, 6), (5, 7)]
    )
    res = Resolution(
        master, (ParallelClass((0, 1, 2, 3)), ParallelClass((4, 5, 6, 7)))
    )
    indexing = make_design(4, [(0, 2), (1, 3)], k=2)
    assert prp_violations(master, res, alpha_filter={2})
    assert simplicity_verdict(res, indexing) is SimplicityVerdict.SIMPLE
    assert is_simple(shrikhande_raghavarao(res, indexing).design)


def test_verdict_master_block_in_two_classes_is_not_simple():
    """Block 01 lies in both classes, so prp_violations, counting block
    contents, sees alphas 1 and 3 only; positions {1, 2} still union to
    2345 in both classes."""
    master = make_design(6, [(0, 1), (2, 3), (4, 5), (0, 1), (2, 4), (3, 5)])
    res = Resolution(
        master, (ParallelClass((0, 1, 2)), ParallelClass((3, 4, 5)))
    )
    assert not prp_violations(master, res, alpha_filter={2})
    assert (
        simplicity_verdict(res, trivial_design(3, 2))
        is SimplicityVerdict.NOT_SIMPLE
    )


def test_verdict_rejects_indexing_on_wrong_points(ag28):
    _, res = ag28
    with pytest.raises(DimensionMismatch, match=r"has 4 points, .* hold w=8 blocks"):
        simplicity_verdict(res, trivial_design(4, 2))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(union_inputs())
def test_verdict_agrees_with_built_design(case):
    res, _, indexing = case
    verdict = simplicity_verdict(res, indexing)
    simple = is_simple(shrikhande_raghavarao(res, indexing).design)
    assert (verdict is not SimplicityVerdict.NOT_SIMPLE) == simple
    prp = prp_violations(res.design, res, alpha_filter={indexing.k})
    if verdict is SimplicityVerdict.SIMPLE_GUARANTEED:
        assert is_simple(res.design) and is_simple(indexing) and not prp
    if core.is_trivial(indexing) and prp:
        # The converse of the criterion: a k'-PRP swaps k' positions of
        # two classes, and trivial indexing selects both sets.
        assert verdict is SimplicityVerdict.NOT_SIMPLE


# --- indexing params ---------------------------------------------------------------

def test_indexing_params_from_design():
    params = IndexingParams.from_design(trivial_design(6, 3))
    assert params == IDX_6_3
    pair = IndexingParams.from_design(trivial_design(4, 2))
    assert pair == IDX_4_2


def test_indexing_params_from_params_keeps_measured_coverages():
    fano = make_design(7, [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)])
    measured = measure_params(fano)
    assert measured.t == 2
    assert IndexingParams.from_params(measured) == IndexingParams(
        w=7, b_prime=7, r_prime=3, k_prime=3, lambda_prime=0, lambda2_prime=1
    )
    with pytest.raises(DesignError, match="not 3-balanced"):
        IndexingParams.from_design(fano)
    two_one_factors = make_design(
        8, [(0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (1, 3), (4, 6), (5, 7)]
    )
    assert IndexingParams.from_params(
        measure_params(two_one_factors)
    ) == IndexingParams(
        w=8, b_prime=8, r_prime=2, k_prime=2, lambda_prime=0, lambda2_prime=0
    )


def test_measure_params_strongest_balanced_strength():
    assert measure_params(trivial_design(6, 3)) == DesignParams(
        t=3, v=6, b=20, r=10, k=3, lam=1
    )
    assert measure_params(trivial_design(4, 2)).t == 2  # t is capped at k
    two_one_factors = make_design(
        8, [(0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (1, 3), (4, 6), (5, 7)]
    )
    assert measure_params(two_one_factors).t == 1
    # Consecutive triples mod 7: r = 3 makes 3 * 2 / 6 = 1 a whole pair
    # coverage, but the counted pairs are covered 2, 1 or 0 times.
    consecutive = make_design(7, [(i, (i + 1) % 7, (i + 2) % 7) for i in range(7)])
    assert measure_params(consecutive).t == 1


def test_measure_params_skips_a_strength_ruled_out_by_divisibility(ag28):
    # AG(2,8) is a 2-(64,8,1) design; 1 * 6 / 62 is no whole triple
    # coverage, so it cannot be 3-balanced, as the count confirms.
    master, _ = ag28
    assert measure_params(master) == DesignParams(t=2, v=64, b=72, r=9, k=8, lam=1)
    assert len(t_coverage_spectrum(master, 3)) > 1


def test_predict_triple_coverage_by_case():
    # Pair indexing at w = 4: 3*lambda per unit of lambda2'.
    assert predict_triple_coverage(MASTER_24_6_5, IDX_4_2) == 15
    master_32_8_7 = DesignParams(t=2, v=32, b=124, r=31, k=8, lam=7)
    assert predict_triple_coverage(master_32_8_7, IDX_4_2) == 21
    master_36_9_8 = DesignParams(t=2, v=36, b=140, r=35, k=9, lam=8)
    assert predict_triple_coverage(master_36_9_8, IDX_4_2) == 24
    doubled_4_2 = make_design(4, trivial_design(4, 2).blocks * 2)
    idx_doubled = IndexingParams.from_design(doubled_4_2)
    assert idx_doubled.lambda2_prime == 2
    assert predict_triple_coverage(MASTER_24_6_5, idx_doubled) == 30
    assert predict_triple_coverage(MASTER_24_4_3, IDX_6_3) == 50
    master_3 = DesignParams(t=3, v=16, b=140, r=35, k=4, lam=1)
    idx_4_3 = IndexingParams.from_design(trivial_design(4, 3))
    assert predict_triple_coverage(master_3, idx_4_3) == triple_coverage_by_alpha(
        master_3, idx_4_3, 1
    )
    master_pairs = DesignParams(t=2, v=8, b=28, r=7, k=2, lam=1)
    assert predict_triple_coverage(master_pairs, IDX_4_2) == 3
    idx_6_4 = IndexingParams.from_design(trivial_design(6, 4))
    assert predict_triple_coverage(MASTER_30_5_4, idx_6_4) is None


def test_indexing_balance_counts_pair_indexing_as_three_balanced():
    fano = make_design(7, [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)])
    two_one_factors = make_design(
        8, [(0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (1, 3), (4, 6), (5, 7)]
    )
    cases = [
        (trivial_design(6, 3), 3),
        (trivial_design(4, 2), 3),  # k' = 2 covers no triple
        (fano, 2),
        (two_one_factors, 1),
    ]
    for design, balance in cases:
        assert indexing_balance(measure_params(design)) == balance
    with pytest.raises(DesignError, match="not 2-balanced"):
        IndexingParams.from_design(two_one_factors)


def test_indexing_params_rejects_unbalanced():
    # constant replication but pair coverage 2 for {0,1},{2,3} and 0 elsewhere
    unbalanced = make_design(4, [(0, 1), (2, 3), (0, 1), (2, 3)])
    with pytest.raises(DesignError):
        IndexingParams.from_design(unbalanced)


def test_indexing_params_validation():
    with pytest.raises(DesignError):
        IndexingParams(
            w=4, b_prime=5, r_prime=3, k_prime=2, lambda_prime=0, lambda2_prime=1
        )


# --- orbit counting on constructed designs ----------------------------------

def _plain(design):
    """The same blocks without automorphisms: the count of every pair and
    t-subset one by one."""
    return dataclasses.replace(design, automorphisms=())


def _assert_orbit_counts_match_plain(design):
    assert design.automorphisms
    plain = _plain(design)
    for t in (2, 3):
        assert t_coverage_spectrum(design, t) == t_coverage_spectrum(plain, t)
    assert intersection_profile(design) == intersection_profile(plain)


def test_orbit_counts_match_plain_counts_on_the_catalog(repro):
    for report in repro.values():
        _assert_orbit_counts_match_plain(report.master)
        _assert_orbit_counts_match_plain(report.constructed.design)


@pytest.mark.parametrize(
    "m, q, indexing",
    [
        (2, 8, lambda: trivial_design(8, 4)),
        (3, 4, lambda: trivial_design(4, 2)),
        (2, 16, lambda: affine_hyperplane_design(4, 2)[0]),
    ],
    ids=["AG(2,8)xtrivial(8,4)", "AG(3,4)xtrivial(4,2)", "AG(2,16)xAG(4,2)"],
)
def test_orbit_counts_match_plain_counts_on_affine_constructions(m, q, indexing):
    _, res = affine_hyperplane_design(m, q)
    built = shrikhande_raghavarao(res, indexing()).design
    assert len(built.automorphisms) == len(res.design.automorphisms)
    _assert_orbit_counts_match_plain(built)


def test_catalog_construction_counts_on_the_orbits_of_z29(repro):
    design = repro["3-(30,15,819)"].constructed.design
    assert design.automorphisms == (tuple(range(1, 29)) + (0, 29),)
    points, blocks = design._symmetry
    assert points.reps.tolist() == [0, 29] and points.sizes.tolist() == [29, 1]
    assert len(blocks.reps) == 252 and blocks.sizes.sum() == 7308


def test_catalog_designs_supply_the_block_permutations_the_search_finds(repro):
    for report in repro.values():
        for design in (report.master, report.constructed.design):
            assert len(design._block_perms) == len(design.automorphisms) == 1
            searched = Design._from_members(design.points, design._members,
                                            design.automorphisms)
            for supplied, found in zip(design._symmetry, searched._symmetry):
                assert np.array_equal(supplied.reps, found.reps)
                assert np.array_equal(supplied.sizes, found.sizes)


def test_construction_drops_an_automorphism_the_indexing_design_breaks(ag23):
    _, res = ag23
    # Both translations of AG(2,3) shift the positions of some class, which
    # maps the indexing block {0, 1} to {1, 2} or {0, 2}.
    lone = make_design(3, [(0, 1)])
    built = shrikhande_raghavarao(res, lone).design
    assert res.design.automorphisms and built.automorphisms == ()
    kept = shrikhande_raghavarao(res, trivial_design(3, 2)).design
    assert kept.automorphisms == res.design.automorphisms
    blocks = kept.blocks
    assert t_coverage_spectrum(kept, 3) == naive_spectrum(9, blocks, 3)
    assert list(intersection_profile(kept).counts) == naive_profile(blocks)


def test_construction_refuses_a_false_master_automorphism(ag23):
    master, res = ag23
    swap = (1, 0) + tuple(range(2, 9))  # swaps two points of a line
    claimed = dataclasses.replace(master, automorphisms=(swap,))
    relabelled = Resolution(claimed, res.classes)
    with pytest.raises(DesignError, match="automorphism 0"):
        shrikhande_raghavarao(relabelled, trivial_design(3, 2))


def test_affine_32_golden_3_1024_512_255():
    """AG(2,32) with AG(5,2) indexing: the plain t=3 spectrum is counted on
    the 1023 blocks through point 0, since the design is closed under
    complement, and the orbits of the 1024 translations count it too.  With
    one block repeated in place of another the design is not closed, and
    MAX_SPECTRUM_WORDS refuses its plain t=3 spectrum."""
    _, res = affine_hyperplane_design(2, 32)
    indexing, _ = affine_hyperplane_design(5, 2)  # a 3-(32,16,7) design
    built = shrikhande_raghavarao(res, indexing).design
    assert len(built.blocks) == 2046 and len(built.automorphisms) == 10
    assert t_coverage_spectrum(_plain(built), 3) == {255: 178_433_024}
    unclosed = Design(built.points, built.blocks[1:2] + built.blocks[1:], built.k)
    assert unclosed._halves is None
    with pytest.raises(DesignError, match="above the limit"):
        t_coverage_spectrum(unclosed, 3)
    mu = predicted_mu_affine(32, 2, 7)
    assert t_coverage_spectrum(built, 3) == {mu: 178_433_024} == {255: math.comb(1024, 3)}
    counts = intersection_profile(built).counts
    assert {i: c for i, c in enumerate(counts) if c} == {0: 1023, 256: 2_091_012}
