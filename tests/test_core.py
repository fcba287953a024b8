import dataclasses
import hashlib
import itertools
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
    naive_is_automorphism,
    naive_is_closed_under_complement,
    naive_is_simple,
    naive_is_trivial,
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
    of 2 to 8 points, repeats likely."""
    v = draw(st.integers(3, 70))
    k = draw(st.integers(2, min(8, v - 1)))
    pool = draw(st.lists(
        st.lists(st.integers(0, v - 1), min_size=k, max_size=k, unique=True),
        min_size=1, max_size=80,
    ))
    b = draw(st.integers(0, 140))
    blocks = draw(st.lists(st.sampled_from(pool), min_size=b, max_size=b))
    return make_design(v, blocks, k=k)


def _refuse(*args):
    raise AssertionError("another path ran")


def _past_the_half_path(*args):
    return core.MAX_SPECTRUM_WORDS + 1


@settings(max_examples=60, derandomize=True, deadline=None)
@given(pair_designs())
def test_pair_spectrum_matches_naive_oracle_point_by_point(design):
    # Past the half path's bound every design here, closed under
    # complement or not, is counted point by point, which bins the pairs
    # through each point without meeting any columns.
    with mock.patch.object(core, "_half_words", _past_the_half_path), \
            mock.patch.object(core, "_add_meets", _refuse):
        assert t_coverage_spectrum(design, 2) == naive_spectrum(
            design.points.size, design.blocks, 2)


@st.composite
def deep_designs(draw):
    """Designs on up to 16 points, some in no block, with 0 to 140 blocks
    of 3 to 8 points, repeats likely: the columns over the blocks through
    one point take up to three words."""
    v = draw(st.integers(4, 16))
    k = draw(st.integers(3, min(8, v - 1)))
    pool = draw(st.lists(
        st.lists(st.integers(0, v - 1), min_size=k, max_size=k, unique=True),
        min_size=1, max_size=40,
    ))
    b = draw(st.integers(0, 140))
    blocks = draw(st.lists(st.sampled_from(pool), min_size=b, max_size=b))
    return make_design(v, blocks, k=k)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(deep_designs(), st.sampled_from([3, 4]))
def test_deep_spectrum_matches_naive_oracle_point_by_point(design, t):
    assume(t <= design.k)
    with mock.patch.object(core, "_half_words", _past_the_half_path):
        assert t_coverage_spectrum(design, t) == naive_spectrum(
            design.points.size, design.blocks, t)


def test_spectrum_bound_refuses_before_packing_columns(monkeypatch):
    # The columns of the 1000 block points over the one block would hold
    # C(1000, 3) words, within the bound; the bound on the point path, at
    # C(999, 2) words through each of 998 points, refuses first.
    d = Design(PointSet(2000), (tuple(range(1000)),), 1000)
    assert math.comb(1000, 3) <= core.MAX_SPECTRUM_WORDS
    monkeypatch.setattr(core, "_columns", _refuse)
    with pytest.raises(DesignError, match="above the limit"):
        t_coverage_spectrum(d, 3)


def test_pairs_table_is_every_pair_in_order_of_the_larger():
    for n in (0, 1, 2, 5, core._PAIR_TABLE, core._PAIR_TABLE + 3):
        inner, outer = core._pairs(n)
        pairs = list(zip(inner.tolist(), outer.tolist()))
        assert pairs == sorted(itertools.combinations(range(n), 2), key=lambda p: p[::-1])


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


def test_spectrum_guard_bounds_the_bits_of_the_binomial(monkeypatch):
    # C(12, 6) = 924 has 10 bits.
    monkeypatch.setattr(core, "MAX_COMB_BITS", 10)
    assert t_coverage_spectrum(_halves(12), 6) == {0: 922, 1: 2}
    monkeypatch.setattr(core, "MAX_COMB_BITS", 9)
    with pytest.raises(DesignError, match=(
        r"accounts for C\(12, 6\) subsets, a number of more than 9 bits, above the limit$"
    )):
        t_coverage_spectrum(_halves(12), 6)
    # C(2^20, 2^19) has 1,048,566 bits; refused before any binomial is built.
    monkeypatch.undo()
    monkeypatch.setattr(core.math, "comb", _no_comb)
    with pytest.raises(DesignError, match=f"more than {core.MAX_COMB_BITS} bits"):
        t_coverage_spectrum(_halves(1 << 20), 1 << 19)


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


@st.composite
def designs_with_repeats(draw):
    """(design, blocks): a design and the point lists it was made from.
    Either blocks drawn from a small pool on up to 150 points (repeats
    likely, rows of up to three words, points in no block), or every
    k-subset of up to 8 points in a shuffled order, perhaps with one
    block dropped or replaced by a copy of another."""
    if draw(st.booleans()):
        v = draw(st.integers(3, 150))
        k = draw(st.integers(2, min(6, v - 1)))
        pool = draw(st.lists(
            st.lists(st.integers(0, v - 1), min_size=k, max_size=k, unique=True),
            min_size=1, max_size=24,
        ))
        blocks = draw(st.lists(st.sampled_from(pool), max_size=40))
    else:
        v = draw(st.integers(3, 8))
        k = draw(st.integers(2, v - 1))
        blocks = draw(st.permutations(list(itertools.combinations(range(v), k))))
        change = draw(st.sampled_from(["none", "drop", "copy"]))
        if change == "drop":
            blocks = blocks[1:]
        elif change == "copy":
            blocks = blocks[:-1] + [blocks[0]]
    return make_design(v, blocks, k=k), blocks


@settings(max_examples=200, derandomize=True, deadline=None)
@given(designs_with_repeats())
def test_simple_and_trivial_match_the_oracles_on_rows_and_members(case):
    design, blocks = case
    v, k = design.points.size, design.k
    expected = naive_is_simple(blocks), naive_is_trivial(v, k, blocks)
    assert (is_simple(design), is_trivial(design)) == expected
    # Rows above the word limit are not packed: the members are compared.
    rows_refused = make_design(v, blocks, k=k)
    with mock.patch.object(core, "MAX_ROW_WORDS", 0):
        if len(blocks):
            with pytest.raises(DesignError):
                rows_refused._rows
        assert (is_simple(rows_refused), is_trivial(rows_refused)) == expected
    assert "blocks" not in vars(design) and "blocks" not in vars(rows_refused)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(designs_with_repeats())
def test_masks_are_the_rows_in_descending_support_order(case):
    # One packing serves the verifiers and the searches: the j-th of the s
    # points in some block is bit s-1-j of a block's row and of its mask.
    design, blocks = case
    support = sorted({p for block in blocks for p in block})
    rank = {p: j for j, p in enumerate(support)}
    s = len(support)
    expected = tuple(sum(1 << (s - 1 - rank[p]) for p in block) for block in blocks)
    with mock.patch.object(core, "_packed_rows", wraps=core._packed_rows) as packed:
        assert design._masks == expected
        assert design._rows.shape == (len(blocks), (s + 63) // 64)
        assert tuple(int.from_bytes(row.astype("<u8").tobytes(), "little")
                     for row in design._rows) == expected
    assert packed.call_count == 1


@pytest.mark.parametrize("v", [6, 300])  # one- and two-byte points
def test_designs_from_tuples_and_from_members_are_equal(v):
    blocks = ((0, 1, 2), (3, 4, 5), (0, 1, 2), (1, 3, v - 1))
    from_tuples = Design(PointSet(v), blocks, 3)
    from_members = Design._from_members(PointSet(v), np.array(blocks))
    assert from_tuples == from_members
    assert hash(from_tuples) == hash(from_members)
    assert {from_tuples: "found"}[from_members] == "found"
    assert "blocks" not in vars(from_tuples) and "blocks" not in vars(from_members)
    reordered = Design(PointSet(v), blocks[1:] + blocks[:1], 3)
    assert reordered != from_tuples and is_simple(reordered) == is_simple(from_tuples)
    assert from_tuples != Design(PointSet(v), blocks[:-1], 3)
    assert from_tuples != Design(PointSet(v, tuple(map(str, range(v)))), blocks, 3)
    # The tuples are built on request, once, from the array.
    assert from_members.blocks == blocks
    assert from_members.blocks is from_members.blocks
    assert all(type(p) is int for block in from_members.blocks for p in block)


def test_design_repr_and_replace():
    design = make_design(4, [(2, 3), (0, 1)])
    assert repr(design) == (
        "Design(points=PointSet(size=4, labels=None), blocks=((2, 3), (0, 1)), k=2)"
    )
    swap = (1, 0, 3, 2)
    claimed = dataclasses.replace(design, automorphisms=(swap,))
    assert claimed == design and claimed.automorphisms == (swap,)
    assert claimed._symmetry is not None and design._symmetry is None
    assert claimed._members.tolist() == design._members.tolist()
    with pytest.raises(dataclasses.FrozenInstanceError):
        design.k = 3


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


@st.composite
def orbit_designs(draw):
    """Blocks on Z_n (up to 72 points, so rows of one or two words), each
    developed through Z_n: a block that is a union of cosets of dZ_n,
    whose orbit has at most d blocks and holds each n/d times over, and
    up to three random blocks; the translate x -> x+1 is an automorphism
    of each."""
    n = draw(st.integers(4, 40) | st.integers(65, 72))
    d = draw(st.sampled_from([d for d in range(2, n) if n % d == 0] or [n]))
    cosets = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d - 1,
                           unique=True))
    k = len(cosets) * (n // d)
    assume(2 <= k < n)
    base = [[x + j * d for x in cosets for j in range(n // d)]]
    base += draw(st.lists(st.lists(st.integers(0, n - 1), min_size=k, max_size=k,
                                   unique=True), max_size=3))
    blocks = tuple(_translate(block, t, n) for block in base for t in range(n))
    shift = tuple(range(1, n)) + (0,)
    return Design(PointSet(n), blocks, k, automorphisms=(shift,))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(orbit_designs(), st.integers(1, 3), st.booleans())
def test_orbit_profile_matches_the_plain_profile(design, step, pairs):
    # step representatives per AND, and byte pairs counted from the first
    # meet or never.
    plain = intersection_profile(dataclasses.replace(design, automorphisms=()))
    n, nwords = design._rows.shape
    with mock.patch.multiple(core, _CHUNK_WORDS=step * n * nwords,
                             _PAIR_MEETS=0 if pairs else 1 << 30):
        assert intersection_profile(design) == plain


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


# --- designs closed under complement -----------------------------------------

@st.composite
def closed_designs(draw):
    """A random half of 1-10 blocks of k = 2..6 points, repeats likely, and
    the complement of each, on v = 2k points; the blocks shuffled and the
    points relabelled, and sometimes one block replaced by a random
    k-subset, which most often leaves a design that is not closed."""
    k = draw(st.integers(2, 6))
    v = 2 * k
    pool = draw(st.lists(
        st.lists(st.integers(0, v - 1), min_size=k, max_size=k, unique=True),
        min_size=1, max_size=6,
    ))
    half = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    blocks = half + [sorted(set(range(v)) - set(block)) for block in half]
    blocks = draw(st.permutations(blocks))
    relabel = draw(st.permutations(range(v)))
    blocks = [[relabel[p] for p in block] for block in blocks]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(blocks) - 1))
        blocks[i] = draw(st.lists(st.integers(0, v - 1), min_size=k, max_size=k,
                                  unique=True))
    return make_design(v, blocks, k=k)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(closed_designs(), st.sampled_from([1, 5, core._CHUNK_WORDS]))
def test_closed_designs_match_the_naive_oracles(design, chunk):
    # chunk words per slice: one pair or column at a time, a few, or all.
    v, k, blocks = design.points.size, design.k, design.blocks
    closed = naive_is_closed_under_complement(v, k, blocks)
    assert (design._halves is not None) == closed
    if closed:
        assert design._halves.tolist() == [
            i for i, block in enumerate(blocks) if 0 in block]
    with mock.patch.object(core, "_CHUNK_WORDS", chunk):
        for t in range(2, min(3, k) + 1):
            assert t_coverage_spectrum(design, t) == naive_spectrum(v, blocks, t)
        assert list(intersection_profile(design).counts) == naive_profile(blocks)


def _closed(v, n, seed):
    """n random blocks of v/2 points through point 0 and their complements,
    shuffled."""
    rng = random.Random(seed)
    half = [[0] + rng.sample(range(1, v), v // 2 - 1) for _ in range(n)]
    blocks = half + [sorted(set(range(v)) - set(block)) for block in half]
    rng.shuffle(blocks)
    return make_design(v, blocks)


@pytest.mark.parametrize("v, n", [(130, 70), (66, 129)])
def test_closed_designs_on_several_words_match_the_other_paths(v, n):
    # Rows of three words and columns of two, or rows of two and columns
    # of three; past the half path's bound the other paths count.
    design = _closed(v, n, v * n)
    assert design._halves is not None
    counted = [t_coverage_spectrum(design, t) for t in (2, 3)]
    assert list(intersection_profile(design).counts) == naive_profile(design.blocks)
    with mock.patch.object(core, "_add_halves", _refuse), \
            mock.patch.object(core, "_half_words", lambda *args: core.MAX_SPECTRUM_WORDS + 1):
        assert [t_coverage_spectrum(design, t) for t in (2, 3)] == counted


def test_half_path_takes_its_words_up_to_the_bound(monkeypatch):
    # Two halves of 6 points: C(6, 2) pairs of one word and C(6, 3) triple
    # sums are 35 words at t = 3.  The point path counts 2 words, through
    # points 0 and 3, and refuses past its own bound.
    d = make_design(6, [(0, 1, 2), (3, 4, 5)])
    assert core._half_words(6, 1, 3) == 35 and core._half_words(6, 1, 2) == 15
    expected = {0: 18, 1: 2}
    monkeypatch.setattr(core, "MAX_SPECTRUM_WORDS", 35)
    with mock.patch.object(core, "_add_through", _refuse):
        assert t_coverage_spectrum(d, 3) == expected
    monkeypatch.setattr(core, "MAX_SPECTRUM_WORDS", 34)
    with mock.patch.object(core, "_add_halves", _refuse):
        assert t_coverage_spectrum(d, 3) == expected
    monkeypatch.setattr(core, "MAX_SPECTRUM_WORDS", 1)
    with pytest.raises(DesignError, match=(
            "the t=3 spectrum of a design with v=6 and b=2 would count 2 words, "
            "above the limit of 1$")):
        t_coverage_spectrum(d, 3)


def test_closed_design_with_automorphisms_counts_by_orbits():
    # The trivial design on 6 points is closed, and x -> x+1 mod 6 splits
    # its 20 blocks into orbits of 6, 6, 6 and 2; the spectrum keeps the
    # orbit path, and the profile meets the representatives with the 10
    # blocks through point 0.
    blocks = trivial_design(6, 3).blocks
    shift = (1, 2, 3, 4, 5, 0)
    design = Design(PointSet(6), blocks, 3, automorphisms=(shift,))
    assert design._halves is not None and len(design._symmetry[1].reps) == 4
    with mock.patch.object(core, "_add_halves", _refuse):
        assert t_coverage_spectrum(design, 3) == {1: 20}
    assert list(intersection_profile(design).counts) == naive_profile(blocks)


def _fano():
    return tuple(_translate((0, 1, 3), s, 7) for s in range(7))


@pytest.mark.parametrize("design, words", [
    (make_design(7, _fano()), 21),  # C(7, 2) pairs of one word
    (trivial_design(6, 3), 45),  # C(10, 2): the 10 blocks through point 0
    (Design(PointSet(7), _fano(), 3, automorphisms=((1, 2, 3, 4, 5, 6, 0),)), 7),
    (Design(PointSet(6), trivial_design(6, 3).blocks, 3,
            automorphisms=((1, 2, 3, 4, 5, 0),)), 40),  # 4 reps x 10 blocks
    (make_design(130, [range(100, 130)] * 3), 3),  # rows of one word
])
def test_profile_bound_counts_the_words_of_the_path_taken(monkeypatch, design, words):
    expected = intersection_profile(design)
    monkeypatch.setattr(core, "MAX_SPECTRUM_WORDS", words)
    assert intersection_profile(design) == expected
    monkeypatch.setattr(core, "MAX_SPECTRUM_WORDS", words - 1)
    with mock.patch.object(core, "_add_meets", _refuse), \
            mock.patch.object(core, "_orbit_meets", _refuse), \
            pytest.raises(DesignError, match=(
                f"the intersection profile of a design with v={design.points.size} "
                f"and b={len(design.blocks)} would count {words} words, above the "
                f"limit of {words - 1}$")):
        intersection_profile(design)


# --- block permutations supplied with the automorphisms ----------------------

def _matched_block_permutation(blocks, perm):
    """Block i -> the first unused block j equal to perm(block i), or None
    when some image is no block left: the block permutation the search
    finds, where equal blocks are matched in index order."""
    free: dict[frozenset, list[int]] = {}
    for j, block in enumerate(blocks):
        free.setdefault(frozenset(block), []).append(j)
    matched = []
    for block in blocks:
        targets = free.get(frozenset(perm[p] for p in block))
        if not targets:
            return None
        matched.append(targets.pop(0))
    return matched


@st.composite
def supplied_permutations(draw, kind):
    """(design, block_perm): a developed design and a claimed block
    permutation of its shift, of one of SUPPLIED_KINDS: the one the search
    finds, that one with the images of two equal blocks or of two unequal
    blocks swapped, or not a permutation of the blocks."""
    design = draw(developed_designs())
    blocks, shift = design.blocks, design.automorphisms[0]
    block_perm = _matched_block_permutation(blocks, shift)
    b = len(blocks)
    i, j = draw(st.permutations(range(b)))[:2]
    pairs = [(i, j) for i in range(b) for j in range(i + 1, b)
             if (blocks[block_perm[i]] == blocks[block_perm[j]]) == (kind == "equal swap")]
    if kind.endswith("swap"):
        assume(pairs)
        i, j = draw(st.sampled_from(pairs))
        block_perm[i], block_perm[j] = block_perm[j], block_perm[i]
    elif kind == "repeat":
        block_perm[i] = block_perm[j]
    elif kind == "out of range":
        block_perm[i] = draw(st.sampled_from([-1, b]))
    elif kind == "short":
        block_perm.pop()
    return design, block_perm


SUPPLIED_KINDS = ["found", "equal swap", "unequal swap", "repeat", "out of range",
                  "short"]


@pytest.mark.parametrize("kind", SUPPLIED_KINDS)
@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_supplied_block_permutations_are_checked_exactly(kind, data):
    searched, block_perm = data.draw(supplied_permutations(kind))
    v, blocks, automorphisms = searched.points.size, searched.blocks, searched.automorphisms
    supplied = Design._from_members(searched.points, searched._members,
                                    automorphisms, (np.array(block_perm),))
    if not naive_is_automorphism(v, blocks, automorphisms[0], block_perm):
        assert kind not in ("found", "equal swap")
        with pytest.raises(DesignError, match="automorphism 0 does not map the blocks"):
            supplied._symmetry
        return
    assert kind in ("found", "equal swap")
    points, orbits = supplied._symmetry
    search_points, search_orbits = searched._symmetry
    assert np.array_equal(points.reps, search_points.reps)
    assert np.array_equal(points.sizes, search_points.sizes)
    assert orbits.sizes.sum() == len(blocks)
    if kind == "found":
        assert np.array_equal(orbits.reps, search_orbits.reps)
        assert np.array_equal(orbits.sizes, search_orbits.sizes)
    for t in range(2, min(3, searched.k) + 1):
        assert t_coverage_spectrum(supplied, t) == t_coverage_spectrum(searched, t)
    assert intersection_profile(supplied) == intersection_profile(searched)


def test_replace_drops_supplied_block_permutations():
    design = cyclic_develop(catalog_entry("3-(24,12,15)").base)[0]
    assert len(design._block_perms) == 1
    for automorphisms in (design.automorphisms, ()):
        copy = dataclasses.replace(design, automorphisms=automorphisms)
        assert copy == design and copy._block_perms == ()
    # A false point permutation is refused with or without a supplied one.
    claim = ((1, 0) + tuple(range(2, 24)),)
    for design in (Design._from_members(design.points, design._members, claim,
                                        design._block_perms),
                   dataclasses.replace(design, automorphisms=claim)):
        with pytest.raises(DesignError, match="automorphism 0 does not map the blocks"):
            design._symmetry


# --- finding an automorphism by individualisation and refinement -------------

def _relabelled(design, seed):
    """design with its points relabelled and its blocks shuffled."""
    rng = random.Random(seed)
    v = design.points.size
    perm = list(range(v))
    rng.shuffle(perm)
    blocks = [[perm[p] for p in block] for block in design.blocks]
    rng.shuffle(blocks)
    return make_design(v, blocks)


def _spent(design, accept=lambda blocks: True):
    """(what _find_automorphism returns, the rounds it spent)."""
    rounds = 0

    def spend():
        nonlocal rounds
        rounds += 1

    return core._find_automorphism(design, accept, spend), rounds


def _digest(blocks) -> str:
    return hashlib.sha256(str(blocks.tolist()).encode()).hexdigest()[:16]


# (rounds, point images, digest of the block permutation) as the search
# returned them when each round ranked its rows unpacked; packing the rows
# into words keeps every colouring, so it keeps all three.
@pytest.mark.parametrize(
    "design, pinned",
    [
        (_relabelled(cyclic_develop(catalog_entry("3-(24,12,175)").base)[0], seed=1),
         (104, [1, 16, 20, 2, 4, 9, 7, 19, 18, 0, 6, 17, 14, 10, 3, 8, 22, 13, 11, 12, 23,
                5, 15, 21], "b53a9399b5b5b295")),
        (_relabelled(cyclic_develop(catalog_entry("3-(30,15,819)").base)[0], seed=4),
         (113, [1, 5, 17, 4, 25, 11, 3, 7, 21, 15, 18, 10, 22, 9, 16, 0, 19, 8, 12, 24, 6,
                20, 28, 2, 23, 29, 27, 13, 14, 26], "a963086c77faf387")),
        (_relabelled(cyclic_develop(catalog_entry("3-(24,12,15)").base)[0], seed=2),
         (153, [2, 1, 5, 0, 12, 6, 10, 22, 18, 23, 13, 8, 15, 19, 7, 11, 17, 3, 16, 14, 4,
                20, 9, 21], "e0ea7251ba98e166")),
        (_relabelled(trivial_design(6, 2), seed=3),
         (13, [0, 1, 2, 3, 5, 4], "d9a4760f77b5be63")),
        (make_design(7, [_translate((0, 1, 3), t, 7) for t in range(7)]),
         (9, [0, 1, 4, 3, 2, 6, 5], "97d34e302cc32431")),
    ],
    ids=["(24,3,2)", "(30,3,2)", "(24,6,5)", "K_6", "Fano"],
)
def test_found_automorphisms_hold_with_their_block_permutations(design, pinned):
    (perm, blocks), rounds = _spent(design)
    assert (rounds, perm.tolist(), _digest(blocks)) == pinned
    v = design.points.size
    assert perm.tolist() != list(range(v))
    assert naive_is_automorphism(v, design.blocks, perm.tolist(), blocks.tolist())


def test_refinement_rows_fit_the_bits_they_are_packed_in(monkeypatch):
    # Every row a round packs holds colours below 2**bits, so its words
    # rank as the rows do; block colours reach past v on these designs.
    packed = []

    def checked(rows, bits):
        words = packed_words(rows, bits)
        assert 0 <= rows.min() and rows.max() < 1 << bits
        assert core._row_ranks(words).tolist() == core._row_ranks(rows).tolist()
        packed.append(int(rows.max()))
        return words

    packed_words = core._packed_words
    monkeypatch.setattr(core, "_packed_words", checked)
    for design in (
        _relabelled(cyclic_develop(catalog_entry("3-(30,15,819)").base)[0], seed=4),
        make_design(7, [_translate(block, t, 7) for block in ((0, 1, 2), (0, 1, 3), (0, 2, 3))
                        for t in range(7)]),
    ):
        packed.clear()
        _spent(design)
        assert max(packed) > design.points.size


@st.composite
def rows_to_pack(draw):
    """(rows, bits): an int64 array of values at most a drawn bound, which
    has `bits` bits, as wide as one, two or three words of 63 // bits
    values.  Values are often 0, 1 or the bound, so rows tie often."""
    bound = draw(st.integers(1, 1 << 20))
    bits = bound.bit_length()
    per = 63 // bits
    words = draw(st.integers(1, 3))
    width = draw(st.integers((words - 1) * per + 1, words * per))
    value = st.sampled_from([0, 1, bound]) | st.integers(0, bound)
    rows = draw(st.lists(st.lists(value, min_size=width, max_size=width),
                         min_size=1, max_size=12))
    return np.array(rows, dtype=np.int64), bits


@settings(max_examples=300, derandomize=True, deadline=None)
@given(rows_to_pack())
def test_packed_words_rank_as_the_rows(case):
    rows, bits = case
    words = core._packed_words(rows, bits)
    assert words.shape == (len(rows), -(-rows.shape[1] // (63 // bits)))
    assert core._row_ranks(words).tolist() == core._row_ranks(rows).tolist()


def test_automorphism_search_takes_only_what_accept_takes():
    # The first automorphism of the Fano plane the search meets fixes a
    # point; asked for a 7-cycle of the lines, it goes on to one.
    fano = make_design(7, [_translate((0, 1, 3), t, 7) for t in range(7)])

    def seven_cycle(blocks):
        i, length = blocks[0], 1
        while i != 0:
            i, length = blocks[i], length + 1
        return length == 7

    (_, first), _ = _spent(fano)
    assert not seven_cycle(first)
    (perm, blocks), _ = _spent(fano, seven_cycle)
    assert seven_cycle(blocks)
    assert naive_is_automorphism(7, fano.blocks, perm.tolist(), blocks.tolist())
    assert _spent(fano, lambda blocks: False)[0] is None


def test_automorphism_search_skips_designs_of_unequal_replication():
    assert _spent(make_design(4, [(0, 1), (0, 2), (0, 3)])) == (None, 0)


def test_automorphism_search_stops_when_spend_raises():
    design = _relabelled(cyclic_develop(catalog_entry("3-(24,12,175)").base)[0], seed=1)
    _, rounds = _spent(design)
    spent = 0

    def spend():
        nonlocal spent
        spent += 1
        if spent == rounds:
            raise RuntimeError("out of rounds")

    with pytest.raises(RuntimeError, match="out of rounds"):
        core._find_automorphism(design, lambda blocks: True, spend)
    assert spent == rounds


# --- ordering block rows -----------------------------------------------------

@st.composite
def rows_to_order(draw):
    """A b x width array of uint8, uint16, int64 or uint64 values, b from 0
    to 40 and width from 1 to 5.  Values are often a bound of the type, 0
    or 1, so rows tie often; uint64 words often have the top bit set."""
    dtype = np.dtype(draw(st.sampled_from(["uint8", "uint16", "int64", "uint64"])))
    low, high = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    value = st.sampled_from([low, 0, 1, high]) | st.integers(low, high)
    if dtype == np.uint64:
        value |= st.integers(1 << 63, high)
    width = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(value, min_size=width, max_size=width), max_size=40))
    return np.array(rows, dtype=dtype).reshape(len(rows), width)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(rows_to_order())
def test_row_order_is_the_stable_lexicographic_order(rows):
    listed = rows.tolist()
    assert core._row_order(rows).tolist() == sorted(range(len(rows)), key=lambda i: listed[i])


def test_a_design_sorts_its_blocks_once(monkeypatch):
    # The automorphism check, is_automorphism and the finder all match
    # block images against one sorted view of the blocks.
    design = _relabelled(cyclic_develop(catalog_entry("3-(24,12,175)").base)[0], seed=1)
    (perm, _), _ = _spent(design)
    design = dataclasses.replace(design, automorphisms=(tuple(perm.tolist()),))
    sorted_members = 0

    def counted(rows):
        nonlocal sorted_members
        sorted_members += np.shares_memory(rows, design._members)
        return row_order(rows)

    row_order = core._row_order
    monkeypatch.setattr(core, "_row_order", counted)
    design._permutations
    assert is_automorphism(design, perm)
    assert not is_automorphism(design, np.roll(np.arange(design.points.size), 1))
    assert _spent(design)[0] is not None
    assert sorted_members == 1


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
