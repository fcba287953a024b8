import itertools
import math
import tracemalloc

import pytest

from blockdesigns.catalog import UnknownEntry, catalog_entry, catalog_names
from blockdesigns.core import DesignError, is_simple, t_coverage_spectrum, verify_ibd
from blockdesigns.generators import (
    MAX_INCIDENCES,
    CyclicBaseSpec,
    InvalidBaseClass,
    OddPointCount,
    UnsupportedField,
    affine_hyperplane_design,
    cyclic_develop,
    cyclic_point_set,
    round_robin_one_factorization,
    sub_factorization_embedding,
    trivial_design,
)
from blockdesigns.resolution import prp_violations, verify_resolution

from oracles import naive_affine_hyperplane_design


# --- trivial designs ---------------------------------------------------------

def test_trivial_counts():
    assert len(trivial_design(4, 2).blocks) == 6
    assert len(trivial_design(6, 3).blocks) == 20
    assert trivial_design(6, 3).blocks == tuple(
        itertools.combinations(range(6), 3)
    )


def test_trivial_8_4_triple_coverage():
    design = trivial_design(8, 4)
    assert len(design.blocks) == 70
    assert t_coverage_spectrum(design, 3) == {5: 56}


def test_trivial_validation():
    with pytest.raises(Exception):
        trivial_design(4, 4)


def test_trivial_guard_raises_before_building():
    assert math.comb(40, 20) * 20 > MAX_INCIDENCES  # 1.4e11 blocks
    with pytest.raises(DesignError, match="above the limit"):
        trivial_design(40, 20)


@pytest.mark.parametrize("v, k, stated", [
    (40, 20, "137846528820 blocks of 20 points, 2756930576400 incidences"),
    (20000, 10000, "more than 1000000000000000000 blocks of 10000 points"),
    (1 << 20, 1 << 19, "more than 1000000000000000000 blocks of 524288 points"),
])
def test_trivial_guard_states_the_block_count_up_to_a_bound(monkeypatch, v, k, stated):
    # C(20000, 10000) has 6,018 digits, which str() refuses; the count is
    # taken no further than 10^18 blocks, and never by math.comb.
    monkeypatch.setattr(math, "comb", None)
    with pytest.raises(DesignError) as info:
        trivial_design(v, k)
    assert str(info.value) == (f"the trivial design on v={v} with k={k} has {stated}, "
                               f"above the limit of {MAX_INCIDENCES}")


def _halves(n):
    """A base class of Z_n: the pairs {i, i + n/2}."""
    return CyclicBaseSpec(n, False, tuple((i, i + n // 2) for i in range(n // 2)))


OVERSIZED = {
    "one-factorization of K_20000": lambda: round_robin_one_factorization(20000),
    "sub-one-factorization of K_40000": lambda: sub_factorization_embedding(10_000),
    "AG(4,64): 2^24 points": lambda: affine_hyperplane_design(4, 64),
    "AG(2,1024): 1e9 incidences": lambda: affine_hyperplane_design(2, 1024),
    "AG(10^9,2)": lambda: affine_hyperplane_design(10**9, 2),
    "trivial(2^20, 2^20 - 1)": lambda: trivial_design(1 << 20, (1 << 20) - 1),
}


@pytest.mark.parametrize("build", OVERSIZED.values(), ids=OVERSIZED)
def test_generators_refuse_oversized_designs_before_building(build):
    tracemalloc.start()
    try:
        with pytest.raises(DesignError, match="above the limit"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_cyclic_development_is_bounded_before_building():
    spec = _halves(6000)  # 6000 classes of 3000 pairs: 3.6e7 incidences
    tracemalloc.start()
    try:
        with pytest.raises(DesignError, match="above the limit"):
            cyclic_develop(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    design, res = cyclic_develop(_halves(200))
    assert len(design.blocks) == 200 * 100 and verify_resolution(design, res)


# --- one-factorizations ------------------------------------------------------

def test_round_robin_k4():
    design, res = round_robin_one_factorization(4)
    assert verify_ibd(design).as_tuple() == (4, 6, 3, 2)
    assert len(res.classes) == 3
    assert verify_resolution(design, res)


def test_round_robin_k8_is_balanced():
    design, res = round_robin_one_factorization(8)
    assert len(res.classes) == 7
    assert t_coverage_spectrum(design, 2) == {1: 28}


def test_round_robin_k6_params():
    design, _ = round_robin_one_factorization(6)
    assert verify_ibd(design).as_tuple() == (6, 15, 5, 2)


@pytest.mark.parametrize("v", [4, 6, 8, 10, 12])
def test_round_robin_always_balanced(v):
    design, res = round_robin_one_factorization(v)
    assert verify_resolution(design, res)
    assert t_coverage_spectrum(design, 2) == {1: math.comb(v, 2)}


def test_round_robin_rejects_odd():
    with pytest.raises(OddPointCount):
        round_robin_one_factorization(7)


# --- sub-one-factorization embedding ------------------------------------------

def test_sub_factorization_k8(k8_subfac):
    design, res = k8_subfac
    assert verify_ibd(design).as_tuple() == (8, 28, 7, 2)
    assert verify_resolution(design, res)
    assert t_coverage_spectrum(design, 2) == {1: 28}
    low = set(range(4))
    restricting = [
        cls
        for cls in res.classes
        if sum(set(design.blocks[r]) <= low for r in cls.block_refs) == 2
    ]
    assert len(restricting) == 3  # those classes contain a K_4 one-factor


def test_sub_factorization_needs_n_at_least_2():
    with pytest.raises(DesignError, match="need n >= 2, got 1"):
        sub_factorization_embedding(1)


def test_sub_factorization_k12_has_alpha3_swap():
    design, res = sub_factorization_embedding(3)
    assert verify_ibd(design).as_tuple() == (12, 66, 11, 2)
    violations = prp_violations(design, res, alpha_filter={3})
    assert (0, 1, 3) in violations


# --- affine hyperplane designs -------------------------------------------------

def test_affine_2_3(ag23):
    design, res = ag23
    assert verify_ibd(design).as_tuple() == (9, 12, 4, 3)
    assert t_coverage_spectrum(design, 2) == {1: 36}
    assert len(res.classes) == 4
    assert verify_resolution(design, res)


def test_affine_2_8(ag28):
    design, res = ag28
    assert verify_ibd(design).as_tuple() == (64, 72, 9, 8)
    assert t_coverage_spectrum(design, 2) == {1: math.comb(64, 2)}
    assert len(res.classes) == 9
    assert verify_resolution(design, res)


def test_affine_3_2(ag32):
    design, res = ag32
    assert verify_ibd(design).as_tuple() == (8, 14, 7, 4)
    assert t_coverage_spectrum(design, 3) == {1: 56}
    assert len(res.classes) == 7
    assert is_simple(design)


@pytest.mark.parametrize("m,q", [(2, 3), (2, 4), (3, 2), (2, 8)])
def test_affine_cross_class_intersections(m, q):
    design, res = affine_hyperplane_design(m, q)
    expected = q ** (m - 2)
    class_of = {}
    for ci, cls in enumerate(res.classes):
        for ref in cls.block_refs:
            class_of[ref] = ci
    sets = [set(block) for block in design.blocks]
    for a, b in itertools.combinations(range(len(sets)), 2):
        meet = len(sets[a] & sets[b])
        if class_of[a] == class_of[b]:
            assert meet == 0
        else:
            assert meet == expected


AFFINE_SIZES = [
    (m, q)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64)
    for m in range(2, 11)
    if q**m <= 1024
]


@pytest.mark.parametrize("m,q", AFFINE_SIZES)
def test_affine_matches_elementwise_oracle(m, q):
    design, res = affine_hyperplane_design(m, q)
    blocks, class_refs, k = naive_affine_hyperplane_design(m, q)
    assert design.blocks == blocks
    assert tuple(cls.block_refs for cls in res.classes) == class_refs
    assert design.k == k


def test_affine_rejects_bad_field():
    with pytest.raises(UnsupportedField):
        affine_hyperplane_design(2, 6)


def test_affine_needs_dimension_at_least_2():
    with pytest.raises(DesignError, match="need dimension m >= 2, got 1"):
        affine_hyperplane_design(1, 2)


# --- cyclic development ---------------------------------------------------------

def test_cyclic_develop_master_24_6_5():
    master, res = cyclic_develop(catalog_entry("3-(24,12,15)").base)
    assert verify_ibd(master).as_tuple() == (24, 92, 23, 6)
    assert t_coverage_spectrum(master, 2) == {5: 276}
    assert verify_resolution(master, res)
    assert master.points.labels[-1] == "inf"


def test_cyclic_develop_master_30_5_4():
    master, res = cyclic_develop(catalog_entry("3-(30,15,65)").base)
    assert verify_ibd(master).as_tuple() == (30, 174, 29, 5)
    assert t_coverage_spectrum(master, 2) == {4: math.comb(30, 2)}


def test_cyclic_develop_wrapping_duplicates():
    spec = CyclicBaseSpec(n=4, has_infinity=False, base_class=((0, 1), (2, 3)))
    design, res = cyclic_develop(spec)
    assert len(res.classes) == 4
    assert not is_simple(design)
    assert verify_resolution(design, res)


def test_base_class_validation():
    with pytest.raises(InvalidBaseClass):
        CyclicBaseSpec(n=4, has_infinity=False, base_class=((0, 1), (1, 2)))
    with pytest.raises(InvalidBaseClass):
        CyclicBaseSpec(n=5, has_infinity=False, base_class=((0, 1), (2, 3)))
    with pytest.raises(InvalidBaseClass):
        CyclicBaseSpec(n=4, has_infinity=False, base_class=((1, 0), (2, 3)))


@pytest.mark.parametrize(
    "base, message",
    [
        ((), "base class has no blocks"),
        (((),), r"block size must satisfy 2 <= k < v \(k=0, v=4\)"),
        (((0, 1.5), (2, 3)), r"block \(0, 1.5\) has a point that is not an integer"),
        (((0, 1), (2, 3, 4)), r"block \(2, 3, 4\) has size 3, expected 2"),
        (((0, 1), (2, 4)), r"block \(2, 4\) has points outside 0..3"),
        (((0, 1), (1, 2)), "base class blocks are not disjoint"),
        (((0, 1),), "base class covers 2 of 4 points"),
    ],
    ids=[
        "empty", "empty block", "float point", "wrong size", "out of range",
        "overlap", "short cover",
    ],
)
def test_base_class_faults_are_named_as_a_design_names_them(base, message):
    # A point that is not an integer is refused, not truncated by the
    # development's array.
    with pytest.raises(InvalidBaseClass, match=f"^{message}$"):
        CyclicBaseSpec(n=4, has_infinity=False, base_class=base)


def test_base_class_cover_is_checked_without_an_array_of_v_points():
    with pytest.raises(InvalidBaseClass, match="covers 4 of 1000000000000 points"):
        CyclicBaseSpec(n=10**12, has_infinity=False, base_class=((0, 1), (2, 3)))


def test_cyclic_point_set_labels():
    points = cyclic_point_set(3, True)
    assert points.size == 4
    assert points.labels == ("0", "1", "2", "inf")


# --- catalog -------------------------------------------------------------------

def test_catalog_names():
    assert len(catalog_names()) == 8
    assert "3-(30,15,819)" in catalog_names()


def test_catalog_masters_develop_to_stated_parameters():
    for name in catalog_names():
        entry = catalog_entry(name)
        master, res = cyclic_develop(entry.base)
        params = verify_ibd(master)
        assert params.as_tuple() == entry.master_params.as_tuple(), name
        pair = t_coverage_spectrum(master, 2)
        assert pair == {
            entry.master_params.lam: math.comb(entry.master_params.v, 2)
        }, name
        assert verify_resolution(master, res), name


def test_catalog_profile_sums():
    for name in catalog_names():
        entry = catalog_entry(name)
        b = entry.master_params.r * math.comb(entry.w, entry.k_prime)
        assert entry.profile.pair_count == math.comb(b, 2), name


def test_unknown_catalog_entry():
    with pytest.raises(UnknownEntry):
        catalog_entry("3-(10,5,1)")
