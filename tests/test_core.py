import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockdesigns import core
from blockdesigns.core import (
    Design,
    DesignError,
    DesignParams,
    IntersectionProfile,
    NonConstantReplication,
    PointSet,
    intersection_profile,
    is_automorphism,
    is_simple,
    is_trivial,
    lambda_j,
    make_design,
    t_coverage_spectrum,
    verify_ibd,
)
from blockdesigns.generators import CyclicBaseSpec, cyclic_develop, trivial_design
from blockdesigns.catalog import catalog_entry

from oracles import (
    DivisibilityViolation,
    naive_block_problem,
    naive_coverage,
    naive_profile,
    naive_spectrum,
    nontriviality_bound_holds,
)


# --- type validation -------------------------------------------------------

def test_pointset_validation():
    with pytest.raises(DesignError):
        PointSet(1)
    with pytest.raises(DesignError):
        PointSet(3, ("a", "b"))
    with pytest.raises(DesignError):
        PointSet(2, ("a", "a"))


def test_design_validation():
    with pytest.raises(DesignError):
        Design(PointSet(4), ((0, 1, 2),), 2)  # wrong size
    with pytest.raises(DesignError):
        Design(PointSet(4), ((1, 0),), 2)  # not increasing
    with pytest.raises(DesignError):
        Design(PointSet(4), ((0, 4),), 2)  # out of range
    with pytest.raises(DesignError):
        Design(PointSet(4), ((0, 1),), 4)  # k = v


def test_design_rejects_points_that_are_not_integers():
    # Read as numbers, 0.5 would count as point 0 and 2.0 as point 2.
    with pytest.raises(DesignError) as exc:
        Design(PointSet(4), ((0.5, 1.0), (2.0, 3.0)), 2)
    assert str(exc.value) == "block (0.5, 1.0) has a point that is not an integer"
    with pytest.raises(DesignError) as exc:
        Design(PointSet(4), ((0, 1), (2, "3")), 2)
    assert str(exc.value) == "block (2, '3') has a point that is not an integer"


@st.composite
def block_lists(draw):
    """(blocks, k, v): strictly increasing k-subsets of 0..v-1, each with
    a chance of one fault."""
    v = draw(st.integers(4, 300))
    k = draw(st.integers(2, min(v - 1, 6)))
    blocks = []
    for _ in range(draw(st.integers(0, 8))):
        block = sorted(draw(st.sets(st.integers(0, v - 1), min_size=k, max_size=k)))
        i = draw(st.integers(0, k - 1))
        fault = draw(st.sampled_from(
            [None] * 6
            + ["short", "long", "negative", "high", "huge", "order", "repeat",
               "float", "string"]
        ))
        if fault == "short":
            del block[i]
        elif fault == "long":
            block.insert(i, draw(st.integers(-2, v + 2)))
        elif fault == "negative":
            block[i] = draw(st.integers(-(2**70), -1))
        elif fault == "high":
            block[i] = draw(st.integers(v, v + 300))
        elif fault == "huge":
            block[i] = draw(st.integers(2**64 + 1, 2**80))
        elif fault == "order" and i:
            block[i - 1], block[i] = block[i], block[i - 1]
        elif fault == "repeat" and i:
            block[i] = block[i - 1]
        elif fault == "float":
            block[i] = draw(st.sampled_from([block[i] + 0.5, float(block[i])]))
        elif fault == "string":
            block[i] = str(block[i])
        blocks.append(tuple(block))
    return tuple(blocks), k, v


@settings(max_examples=300, derandomize=True, deadline=None)
@given(block_lists())
def test_design_validation_matches_block_by_block_oracle(case):
    blocks, k, v = case
    expected = naive_block_problem(blocks, k, v)
    if expected is None:
        design = Design(PointSet(v), blocks, k)
        assert design._members.tolist() == [list(block) for block in blocks]
        assert design._members.shape == (len(blocks), k)
        return
    with pytest.raises(DesignError) as exc:
        Design(PointSet(v), blocks, k)
    assert str(exc.value) == expected


def test_designs_built_from_tuples_keep_their_checked_array(monkeypatch):
    calls = []
    block_array = core._block_array
    monkeypatch.setattr(
        core, "_block_array", lambda *args: calls.append(args) or block_array(*args)
    )
    design = make_design(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    members = vars(design)["_members"]
    assert members.dtype == np.uint8 and not members.flags.writeable
    assert members.tolist() == [list(block) for block in design.blocks]
    verify_ibd(design)
    t_coverage_spectrum(design, 2)
    intersection_profile(design)
    assert len(calls) == 1 and design._members is members


def test_make_design_canonicalizes():
    d = make_design(4, [(2, 0), (3, 1)])
    assert d.blocks == ((0, 2), (1, 3))
    with pytest.raises(DesignError):
        make_design(4, [(0, 0)])


def test_design_params_validation():
    with pytest.raises(DesignError):
        DesignParams(t=1, v=6, b=10, r=4, k=3, lam=4)  # bk != vr
    with pytest.raises(DesignError):
        DesignParams(t=2, v=7, b=7, r=3, k=3, lam=2)  # lam(v-1) != r(k-1)
    params = DesignParams(t=2, v=7, b=7, r=3, k=3, lam=1)
    assert params.as_tuple() == (7, 7, 3, 3)


# --- verify_ibd ------------------------------------------------------------

def test_verify_ibd_trivial():
    assert verify_ibd(trivial_design(6, 3)).as_tuple() == (6, 20, 10, 3)


def test_verify_ibd_single_class():
    d = make_design(4, [(0, 1), (2, 3)])
    assert verify_ibd(d).as_tuple() == (4, 2, 1, 2)


def test_verify_ibd_developed_master():
    master, _ = cyclic_develop(catalog_entry("3-(24,12,15)").base)
    params = verify_ibd(master)
    assert params.as_tuple() == (24, 92, 23, 6)
    assert params.b == params.v * params.r // params.k


def test_verify_ibd_rejects_uneven_replication():
    d = make_design(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(NonConstantReplication) as info:
        verify_ibd(d)
    # point 0 sets the baseline of 3; point 1 is the first to deviate
    assert info.value.point == 1
    assert info.value.count == 1
    assert info.value.expected == 3


@pytest.mark.parametrize(
    "extra, point, count, expected",
    [
        ([(5, 66), (66, 67)], 5, 3, 2),  # 66 deviates more but comes later
        ([(66, 67), (68, 69)], 66, 3, 2),  # first deviation past one word
        ([(0, 69)], 1, 2, 3),  # point 0 sets the baseline even when odd
    ],
)
def test_verify_ibd_names_first_deviating_point(extra, point, count, expected):
    # 70 points (two words per block row) and 71 or 72 blocks.
    matching = [(p, p + 1) for p in range(0, 70, 2)]
    d = make_design(70, matching * 2 + extra)
    with pytest.raises(NonConstantReplication) as info:
        verify_ibd(d)
    assert (info.value.point, info.value.count, info.value.expected) == (
        point, count, expected
    )
    counts = [naive_coverage(d.blocks, [p]) for p in range(70)]
    assert counts[point] == count
    assert all(c == counts[0] for c in counts[:point])


# --- coverage spectra ------------------------------------------------------

def test_spectrum_trivial_design():
    assert t_coverage_spectrum(trivial_design(6, 3), 3) == {1: 20}


def test_spectrum_matches_naive_oracle():
    rng = random.Random(7)
    for _ in range(10):
        v = rng.randrange(5, 9)
        k = rng.randrange(2, v - 1)
        pool = list(trivial_design(v, k).blocks)
        blocks = [rng.choice(pool) for _ in range(rng.randrange(2, 12))]
        d = make_design(v, blocks, k=k)
        for t in range(1, k + 1):
            assert t_coverage_spectrum(d, t) == naive_spectrum(v, d.blocks, t)


def test_spectrum_bounds():
    d = trivial_design(5, 3)
    with pytest.raises(DesignError):
        t_coverage_spectrum(d, 0)
    with pytest.raises(DesignError):
        t_coverage_spectrum(d, 4)


def test_spectrum_counts_uncovered_subsets():
    d = make_design(6, [(0, 1, 2), (3, 4, 5)])
    spectrum = t_coverage_spectrum(d, 2)
    assert spectrum == {0: 9, 1: 6}


def _random_design(seed, v, k, b, repeats):
    """b blocks: b - repeats random k-subsets, then `repeats` copies."""
    rng = random.Random(seed)
    blocks = [rng.sample(range(v), k) for _ in range(b - repeats)]
    blocks += rng.sample(blocks, repeats)
    return make_design(v, blocks, k=k)


# (v, k, b, repeats): b above 64 and not a multiple of it, so the point
# columns carry padding bits; v above 64, so blocks take two words; every
# design repeats blocks and leaves some t-subsets uncovered.
PACKED_EDGE_DESIGNS = [(9, 4, 65, 3), (10, 4, 150, 6), (70, 3, 9, 2), (66, 2, 70, 4)]


@pytest.mark.parametrize("v, k, b, repeats", PACKED_EDGE_DESIGNS)
def test_spectrum_matches_naive_oracle_on_packed_edges(v, k, b, repeats):
    d = _random_design(v * b, v, k, b, repeats)
    assert not is_simple(d)
    spectra = {t: t_coverage_spectrum(d, t) for t in range(1, k + 1)}
    for t, spectrum in spectra.items():
        assert spectrum == naive_spectrum(v, d.blocks, t), t
    assert 0 in spectra[k]


@pytest.mark.parametrize(
    "v, k, b, repeats", PACKED_EDGE_DESIGNS[:2] + [(8, 4, 300, 5)]
)
def test_spectrum_matches_naive_oracle_in_small_chunks(monkeypatch, v, k, b, repeats):
    # A few words per numpy call: every t >= 2 crosses chunk boundaries, and
    # the 300-block design (about 150 blocks through each point, three
    # words per column) packs its columns in several slices.
    monkeypatch.setattr(core, "_CHUNK_WORDS", 5)
    d = _random_design(v * b, v, k, b, repeats)
    for t in range(1, k + 1):
        assert t_coverage_spectrum(d, t) == naive_spectrum(v, d.blocks, t), t


def test_spectrum_is_sorted_python_ints():
    d = _random_design(5, 12, 5, 100, 4)
    for t in range(1, 6):
        spectrum = t_coverage_spectrum(d, t)
        assert len(spectrum) > 1
        assert all(type(c) is int and type(n) is int for c, n in spectrum.items())
        assert list(spectrum) == sorted(spectrum)
        assert json.loads(json.dumps(spectrum)) == {
            str(c): n for c, n in spectrum.items()
        }


def test_spectrum_guard_raises_before_packing():
    # One block of 1000 of 2000 points: each of its points p bounds its
    # share by C(min(1999 - p, 999), 2) pairs of one word, 4.99e8 in all.
    d = Design(PointSet(2000), (tuple(range(1000)),), 1000)
    assert 1000 * math.comb(999, 2) > core.MAX_SPECTRUM_WORDS
    with pytest.raises(DesignError, match="above the limit"):
        t_coverage_spectrum(d, 3)
    assert "_rows" not in vars(d)  # nothing was packed


def test_spectrum_of_one_block_on_many_points_is_small():
    # C(23000, 2) = 2.6e8 pairs, but only the two block points carry any
    # block, so the count and its memory stay small.
    v = 23000
    d = make_design(v, [(0, 1)])
    tracemalloc.start()
    try:
        spectrum = t_coverage_spectrum(d, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spectrum == {0: math.comb(v, 2) - 1, 1: 1}
    assert peak < 8 << 20
    with pytest.raises(NonConstantReplication):
        verify_ibd(d)
    assert "_rows" not in vars(d)  # neither packs the block rows


def test_spectrum_counts_past_64_bits():
    # C(23000, 6) = 2.0e23 six-subsets, one of them covered.
    d = make_design(23000, [(0, 5, 9, 100, 22000, 22999)])
    assert t_coverage_spectrum(d, 6) == {0: math.comb(23000, 6) - 1, 1: 1}


def test_spectrum_cost_follows_replication():
    # 666 disjoint triples on 1998 points: C(1998, 3) * ceil(666 / 64) =
    # 1.5e10 words over all blocks, but one block through each point.
    v = 1998
    d = make_design(v, [(p, p + 1, p + 2) for p in range(0, v, 3)])
    assert math.comb(v, 3) * 11 > core.MAX_SPECTRUM_WORDS
    assert t_coverage_spectrum(d, 3) == {0: math.comb(v, 3) - 666, 1: 666}
    assert t_coverage_spectrum(d, 2) == {0: math.comb(v, 2) - v, 1: v}


@st.composite
def pair_designs(draw):
    """Designs on up to 70 points, some in no block, with 0 to 140 blocks
    of 2 to 8 points, repeats likely: the t=2 counts cross the word
    boundary of the columns and of the later points."""
    v = draw(st.integers(3, 70))
    k = draw(st.integers(2, min(8, v - 1)))
    pool = draw(st.lists(
        st.lists(st.integers(0, v - 1), min_size=k, max_size=k, unique=True),
        min_size=1, max_size=80,
    ))
    blocks = draw(st.lists(st.sampled_from(pool), max_size=140))
    return make_design(v, blocks, k=k)


def _refuse(*args):
    raise AssertionError("the other kernel ran")


@settings(max_examples=60, derandomize=True, deadline=None)
@given(pair_designs())
def test_pair_spectrum_matches_naive_oracle_on_both_kernels(design):
    expected = naive_spectrum(design.points.size, design.blocks, 2)
    # A word cost of 0 takes every pair at once, a huge one point by point.
    for cost, other in [(0, "_add_through"), (1 << 100, "_add_meets")]:
        with mock.patch.object(core, "_PAIR_WORD_COST", cost), \
                mock.patch.object(core, other, _refuse):
            assert t_coverage_spectrum(design, 2) == expected


def _halves(v):
    return Design(PointSet(v), (tuple(range(v // 2)), tuple(range(v // 2, v))), v // 2)


@pytest.mark.parametrize("t, covered", [(1200, 2), (1199, 2400)])
def test_spectrum_deeper_than_the_recursion_limit(t, covered):
    # Two halves of 2400 points: the t-subsets of a half are found t - 1
    # columns deep; at t = 1199 every level still has one column to spare.
    assert t > sys.getrecursionlimit()
    spectrum = t_coverage_spectrum(_halves(2400), t)
    assert spectrum == {0: math.comb(2400, t) - covered, 1: covered}


def _no_comb(*args):
    raise AssertionError("a full binomial was computed")


def test_spectrum_guard_stops_summing_past_the_bound(monkeypatch):
    # C(32767, 2999) words through point 0 alone: the sum stops there.
    monkeypatch.setattr(core.math, "comb", _no_comb)
    with pytest.raises(DesignError, match=(
        f"would count more than {core.MAX_SPECTRUM_WORDS} words, above the limit"
    )):
        t_coverage_spectrum(_halves(1 << 16), 3000)


def test_spectrum_guard_states_an_exact_sum(monkeypatch):
    # Points 0, 1, 3 and 4 start pairs, with 2, 2, 2 and 1 later points
    # in their one block: 7 words, known exactly once all are summed.
    d = make_design(6, [(0, 1, 2), (3, 4, 5)])
    monkeypatch.setattr(core, "MAX_SPECTRUM_WORDS", 6)
    with pytest.raises(DesignError, match="would count 7 words, above the limit of 6$"):
        t_coverage_spectrum(d, 2)
    monkeypatch.setattr(core, "MAX_SPECTRUM_WORDS", 5)
    with pytest.raises(DesignError, match="would count more than 5 words, above the limit of 5$"):
        t_coverage_spectrum(d, 2)


def test_capped_comb_is_comb_up_to_the_cap():
    for n in range(25):
        for r in range(-1, n + 2):
            exact = math.comb(n, r) if r >= 0 else 0
            for cap in (0, 1, 7, 100, 10**6):
                assert core._capped_comb(n, r, cap) == min(exact, cap + 1)
    assert core._capped_comb(1 << 20, 1 << 19, 2) == 3


# --- lambda_j --------------------------------------------------------------

def test_lambda_j_values():
    params = DesignParams(t=3, v=8, b=14, r=7, k=4, lam=1)
    assert lambda_j(params, 2) == 3
    assert lambda_j(params, 0) == 14
    assert lambda_j(params, 3) == Fraction(1)
    with pytest.raises(DesignError):
        lambda_j(params, 4)


def test_lambda_j_matches_counted_coverage(repro, ag32):
    built = repro["3-(24,12,15)"].constructed.design
    steiner, _ = ag32
    cases = [
        (built, DesignParams(t=3, v=24, b=138, r=69, k=12, lam=15)),
        (steiner, DesignParams(t=3, v=8, b=14, r=7, k=4, lam=1)),
    ]
    rng = random.Random(11)
    for design, params in cases:
        for j in range(params.t + 1):
            expected = lambda_j(params, j)
            assert expected.denominator == 1
            for _ in range(20):
                subset = rng.sample(range(params.v), j)
                assert naive_coverage(design.blocks, subset) == expected


# --- simplicity and triviality ---------------------------------------------

def test_is_simple():
    assert is_simple(trivial_design(5, 2))
    dup = make_design(5, [(0, 1), (1, 2), (0, 1)])
    assert not is_simple(dup)


def test_is_trivial():
    assert is_trivial(trivial_design(6, 3))
    missing = make_design(6, list(trivial_design(6, 3).blocks[:-1]))
    assert not is_trivial(missing)
    doubled = make_design(4, list(trivial_design(4, 2).blocks) + [(0, 1)])
    assert not is_trivial(doubled)


def test_is_trivial_compares_against_a_capped_binomial(monkeypatch):
    monkeypatch.setattr(core.math, "comb", _no_comb)
    assert not is_trivial(_halves(1 << 20))  # C(2^20, 2^19) has 315,650 digits
    blocks = trivial_design(7, 3).blocks
    assert is_trivial(Design(PointSet(7), blocks, 3))
    assert not is_trivial(Design(PointSet(7), blocks[1:], 3))


def test_constructed_catalog_design_is_simple(repro):
    assert is_simple(repro["3-(28,14,18)"].constructed.design)


# --- intersection profile ---------------------------------------------------

def test_profile_two_disjoint_blocks():
    d = make_design(6, [(0, 1, 2), (3, 4, 5)])
    assert intersection_profile(d).counts == (1, 0, 0, 0)


def test_profile_matches_naive_oracle():
    rng = random.Random(3)
    for _ in range(10):
        v = rng.randrange(5, 10)
        k = rng.randrange(2, v)
        pool = list(trivial_design(v, k).blocks)
        blocks = [rng.choice(pool) for _ in range(rng.randrange(2, 15))]
        d = make_design(v, blocks, k=k)
        assert list(intersection_profile(d).counts) == naive_profile(d.blocks)


def test_profile_multiword_points():
    # 70 points forces two 64-bit words per block
    blocks = [tuple(range(i, i + 10)) for i in range(0, 60, 5)]
    d = make_design(70, blocks)
    assert list(intersection_profile(d).counts) == naive_profile(blocks)


# Block rows per numpy call when _CHUNK_WORDS is set to hold that many.
PROFILE_CHUNK = 8


@pytest.mark.parametrize("v", [40, 100])  # one and two words per block
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_profile_matches_naive_oracle_at_chunk_edges(monkeypatch, v, offset):
    b = PROFILE_CHUNK + offset
    monkeypatch.setattr(core, "_CHUNK_WORDS", PROFILE_CHUNK * b * ((v + 63) // 64))
    d = _random_design(b + v, v, 20, b, 3)
    assert list(intersection_profile(d).counts) == naive_profile(d.blocks)


def test_profile_matches_naive_oracle_over_several_chunks(monkeypatch):
    b = 2 * PROFILE_CHUNK + 5
    monkeypatch.setattr(core, "_CHUNK_WORDS", PROFILE_CHUNK * b)
    d = _random_design(1, 30, 9, b, 7)
    assert list(intersection_profile(d).counts) == naive_profile(d.blocks)


def test_profile_packs_only_points_in_some_block():
    # 300 two-point blocks spread over 2^20 points, each meeting the next:
    # packed over all v points the rows took 128 KB each, and one slice
    # ANDed a row with every later row (seconds, and about 146 MB).
    blocks = [(3000 * i, 3000 * (i + 1)) for i in range(300)]
    d = make_design(core.MAX_POINTS, blocks)
    tracemalloc.start()
    try:
        counts = intersection_profile(d).counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(counts) == naive_profile(blocks) == [44850 - 299, 299, 0]
    assert d._rows.shape == (300, 5)  # 301 points in some block
    assert peak < 16 << 20  # the replication counts of 2^20 points take 8 MB


def test_profile_guard_raises_before_packing(monkeypatch):
    d = make_design(300, [(2 * i, 2 * i + 1) for i in range(100)])
    monkeypatch.setattr(core, "MAX_ROW_WORDS", 399)  # 100 rows of 4 words
    with pytest.raises(DesignError, match="hold 400 words, above the limit of 399"):
        intersection_profile(d)
    assert "_rows" not in vars(d)
    monkeypatch.setattr(core, "MAX_ROW_WORDS", 400)
    assert intersection_profile(d).counts == (4950, 0, 0)


def test_profile_validation():
    with pytest.raises(DesignError):
        IntersectionProfile(())
    with pytest.raises(DesignError):
        IntersectionProfile((1, -1))


# --- invariants -------------------------------------------------------------

@st.composite
def small_designs(draw):
    v = draw(st.integers(min_value=4, max_value=9))
    k = draw(st.integers(min_value=2, max_value=v - 1))
    pool = list(trivial_design(v, k).blocks)
    blocks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=14))
    return make_design(v, blocks, k=k)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(small_designs())
def test_profile_sum_is_pair_count(design):
    profile = intersection_profile(design)
    b = len(design.blocks)
    assert profile.pair_count == b * (b - 1) // 2


@settings(max_examples=60, derandomize=True, deadline=None)
@given(small_designs())
def test_simple_iff_no_full_intersections(design):
    profile = intersection_profile(design)
    assert is_simple(design) == (profile.counts[design.k] == 0)
    assert profile.simple == is_simple(design)


# --- counting once per orbit of the automorphisms ---------------------------

def _translate(block, t, n):
    """Block translated by t in Z_n; the point n (if any) stays fixed."""
    return tuple(sorted((x + t) % n if x < n else x for x in block))


@st.composite
def developed_designs(draw):
    """A random base class on Z_n (plus a fixed point), developed through
    Z_n, then given a repeated block orbit or a duplicated development;
    the translate x -> x+1 is an automorphism of each."""
    n = draw(st.integers(min_value=3, max_value=11))
    infinity = draw(st.booleans())
    v = n + infinity
    k = draw(st.sampled_from([k for k in range(2, v) if v % k == 0] or [0]))
    assume(k)
    points = draw(st.permutations(range(v)))
    base = CyclicBaseSpec(n, infinity, tuple(
        tuple(sorted(points[i : i + k])) for i in range(0, v, k)
    ))
    blocks = list(cyclic_develop(base)[0].blocks)
    if draw(st.booleans()):
        blocks += blocks  # every class twice
    else:
        # One more orbit: a base block again, or any k points; a block with
        # a short orbit, such as {0, n/2}, comes out several times.
        extra = draw(st.one_of(
            st.sampled_from(base.base_class),
            st.lists(st.integers(0, v - 1), min_size=k, max_size=k,
                     unique=True),
        ))
        blocks += [_translate(extra, t, n) for t in range(n)]
    shift = tuple(range(1, n)) + (0,) + ((n,) if infinity else ())
    return Design(PointSet(v), tuple(blocks), k, automorphisms=(shift,))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(developed_designs())
def test_orbit_counts_match_naive_oracles(design):
    v, blocks = design.points.size, design.blocks
    for t in range(1, min(3, design.k) + 1):
        assert t_coverage_spectrum(design, t) == naive_spectrum(v, blocks, t)
    assert list(intersection_profile(design).counts) == naive_profile(blocks)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_orbit_counts_skip_points_in_no_block(t):
    # The cyclic Fano plane on points 0..6 plus a point 7 in no block,
    # which x -> x+1 mod 7 fixes.
    lines = tuple(_translate((0, 1, 3), s, 7) for s in range(7))
    shift = (1, 2, 3, 4, 5, 6, 0, 7)
    design = Design(PointSet(8), lines, 3, automorphisms=(shift,))
    assert t_coverage_spectrum(design, t) == naive_spectrum(8, lines, t)
    assert list(intersection_profile(design).counts) == naive_profile(lines)


def test_orbit_counts_of_a_design_without_blocks():
    design = Design(PointSet(4), (), 2, automorphisms=((1, 0, 3, 2),))
    assert t_coverage_spectrum(design, 2) == {0: 6}
    assert intersection_profile(design).counts == (0, 0, 0)


def test_orbits_of_a_developed_design():
    design = cyclic_develop(catalog_entry("3-(24,12,15)").base)[0]
    points, blocks = design._symmetry
    assert points.reps.tolist() == [0, 23] and points.sizes.tolist() == [23, 1]
    assert blocks.reps.tolist() == [0, 1, 2, 3]
    assert blocks.sizes.tolist() == [23] * 4


def test_automorphisms_take_no_part_in_equality():
    design = make_design(4, [(0, 1), (2, 3)])
    claimed = Design(design.points, design.blocks, 2,
                     automorphisms=((1, 0, 3, 2),))
    assert claimed == design and hash(claimed) == hash(design)
    assert design._symmetry is None


FALSE_AUTOMORPHISMS = {
    "not a permutation": ((0, 0, 1, 2, 3, 4, 5),),
    "wrong length": ((1, 2, 0),),
    "not an automorphism": ((1, 0, 2, 3, 4, 5, 6),),
    "one false of two": ((6, 0, 1, 2, 3, 4, 5), (1, 0, 2, 3, 4, 5, 6)),
}


@pytest.mark.parametrize("claim", FALSE_AUTOMORPHISMS.values(),
                         ids=FALSE_AUTOMORPHISMS)
@pytest.mark.parametrize(
    "verifier",
    [lambda d: t_coverage_spectrum(d, 2), lambda d: t_coverage_spectrum(d, 3),
     intersection_profile],
    ids=["spectrum t=2", "spectrum t=3", "profile"],
)
def test_false_automorphisms_are_refused(claim, verifier):
    # The Fano plane: x -> x+1 mod 7 on the lines {0,1,3} + t is an
    # automorphism, the transposition (0 1) is not.
    lines = [_translate((0, 1, 3), t, 7) for t in range(7)]
    fano = make_design(7, lines)
    assert is_automorphism(fano, (1, 2, 3, 4, 5, 6, 0))
    assert not any(is_automorphism(fano, gen) for gen in claim[-1:])
    claimed = Design(fano.points, fano.blocks, 3, automorphisms=claim)
    with pytest.raises(DesignError, match="automorphism"):
        verifier(claimed)
    with pytest.raises(DesignError, match="automorphism"):  # never cached
        verifier(claimed)


def test_is_automorphism_refuses_non_integer_images():
    design = make_design(4, [(0, 1), (2, 3)])
    assert is_automorphism(design, (1, 0, 3, 2))
    assert is_automorphism(design, (2, 3, 0, 1))
    assert not is_automorphism(design, (1, 2, 0, 3))
    assert not is_automorphism(design, (1.0, 0.0, 3.0, 2.0))
    assert not is_automorphism(design, (1, 0, 3, 4))
    assert not is_automorphism(design, ())


# --- the paper's nontriviality bound (an oracle closed form) ------------------

def test_bound_examples():
    assert math.comb(23, 3) * math.comb(6, 3) == 35420
    assert math.comb(24, 12) == 2704156
    assert nontriviality_bound_holds(24, 4)
    assert nontriviality_bound_holds(18, 3)
    assert nontriviality_bound_holds(8, 2)


def test_bound_preconditions():
    with pytest.raises(DivisibilityViolation):
        nontriviality_bound_holds(24, 5)  # 10 does not divide 24
    with pytest.raises(DivisibilityViolation):
        nontriviality_bound_holds(12, 4)  # v/k = 3 < 4


def test_bound_holds_everywhere_in_range():
    checked = 0
    for v in range(8, 65):
        for k in range(2, v // 4 + 1):
            if v % (2 * k) == 0 and v // k >= 4:
                assert nontriviality_bound_holds(v, k), (v, k)
                checked += 1
    assert checked > 30
