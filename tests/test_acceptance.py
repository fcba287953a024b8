"""Acceptance suite: every criterion exact, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import math
import random
from contextlib import contextmanager

from blockdesigns.catalog import catalog_entry, catalog_names
from blockdesigns.construct import (
    IndexingParams,
    ThreeDesignCase,
    classify_three_design,
    predict_bibd_lambda,
    predict_ibd_params,
    shrikhande_raghavarao,
    triple_coverage_by_alpha,
)
from blockdesigns.core import (
    DesignParams,
    intersection_profile,
    is_simple,
    t_coverage_spectrum,
    verify_ibd,
)
from blockdesigns.generators import trivial_design
from blockdesigns.resolution import (
    find_resolutions,
    prp_violations,
)

from oracles import naive_coverage, nontriviality_bound_holds, predicted_mu_affine


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"criterion {num} ({desc}): FAIL")
        raise
    print(f"criterion {num} ({desc}): PASS")


EXPECTED_MU = {
    "3-(24,12,15)": 15,
    "3-(28,14,18)": 18,
    "3-(32,16,21)": 21,
    "3-(36,18,24)": 24,
    "3-(24,12,50)": 50,
    "3-(30,15,65)": 65,
    "3-(24,12,175)": 175,
    "3-(30,15,819)": 819,
}


def test_criterion_1_catalog_reproduction(repro):
    with criterion(1, "bit-exact reproduction of all eight catalog designs"):
        assert set(EXPECTED_MU) == set(catalog_names())
        for name, report in repro.items():
            entry = catalog_entry(name)
            assert entry.mu == EXPECTED_MU[name], name
            spectrum = t_coverage_spectrum(report.constructed.design, 3)
            assert spectrum == {
                entry.mu: math.comb(entry.master_params.v, 3)
            }, name
            profile = intersection_profile(report.constructed.design)
            assert profile.counts == entry.profile.counts, name
            assert report.ok, name


def test_criterion_2_profile_sums(repro):
    with criterion(2, "profile sums equal C(b,2)"):
        for name, report in repro.items():
            b = len(report.constructed.design.blocks)
            profile = intersection_profile(report.constructed.design)
            assert profile.pair_count == math.comb(b, 2), name
        assert math.comb(138, 2) == 9453
        b_819 = len(repro["3-(30,15,819)"].constructed.design.blocks)
        assert math.comb(b_819, 2) == 26_699_778


def test_criterion_3_affine_constructions(ag28, ag32):
    with criterion(3, "affine masters give simple 3-(64,32,15) and 3-(64,32,75)"):
        design, res = ag28
        params = verify_ibd(design)
        assert params.as_tuple() == (64, 72, 9, 8)
        assert t_coverage_spectrum(design, 2) == {1: math.comb(64, 2)}

        steiner, _ = ag32
        assert t_coverage_spectrum(steiner, 3) == {1: 56}
        built15 = shrikhande_raghavarao(res, steiner)
        assert t_coverage_spectrum(built15.design, 3) == {15: math.comb(64, 3)}
        assert is_simple(built15.design)
        assert predicted_mu_affine(8, 2, 1) == 15

        built75 = shrikhande_raghavarao(res, trivial_design(8, 4))
        assert t_coverage_spectrum(built75.design, 3) == {75: math.comb(64, 3)}
        assert is_simple(built75.design)
        assert predicted_mu_affine(8, 2, 5) == 75


def test_criterion_4_classifier_vs_spectrum(repro):
    with criterion(4, "3-design classifier agrees with the coverage oracle"):
        cases = 0
        for name, report in repro.items():
            entry = catalog_entry(name)
            analysis = classify_three_design(entry.master_params, entry.k_prime)
            spectrum = t_coverage_spectrum(report.constructed.design, 3)
            assert analysis.is_three_design == (len(spectrum) == 1), name
            assert analysis.case is ThreeDesignCase.K_PRIME_HALF_W, name
            cases += 1

        negatives = [
            ("3-(30,15,65)", 4),  # master 2-(30,5,4) with k' = 4
            ("3-(24,12,15)", 3),  # master 2-(24,6,5) with k' = 3
        ]
        for name, k_prime in negatives:
            report = repro[name]
            entry = catalog_entry(name)
            analysis = classify_three_design(entry.master_params, k_prime)
            built = shrikhande_raghavarao(
                report.master_res, trivial_design(entry.w, k_prime)
            )
            spectrum = t_coverage_spectrum(built.design, 3)
            assert analysis.case is ThreeDesignCase.NOT_3_DESIGN, name
            assert len(spectrum) > 1, name
            cases += 1
        assert cases >= 10


def test_criterion_5_pair_and_triple_oracles(repro):
    with criterion(5, "predicted pair/triple coverages match brute force"):
        rng = random.Random(2024)
        smallest = {"3-(24,12,15)", "3-(28,14,18)"}
        for name, report in repro.items():
            entry = catalog_entry(name)
            master = entry.master_params
            indexing = IndexingParams.from_design(report.constructed.indexing)
            built_blocks = [set(b) for b in report.constructed.design.blocks]
            v = master.v

            # pair coverage: exhaustive over all C(v,2) pairs
            lam2 = predict_bibd_lambda(master, indexing)
            for pair in itertools.combinations(range(v), 2):
                wanted = set(pair)
                count = sum(1 for block in built_blocks if wanted <= block)
                assert count == lam2, (name, pair)

            # triple coverage via the alpha decomposition
            master_blocks = [set(b) for b in report.master.blocks]

            def check_triple(triple):
                wanted = set(triple)
                alpha = sum(1 for block in master_blocks if wanted <= block)
                expected = triple_coverage_by_alpha(master, indexing, alpha)
                observed = sum(1 for block in built_blocks if wanted <= block)
                assert observed == expected, (name, triple)

            if name in smallest:
                for triple in itertools.combinations(range(v), 3):
                    check_triple(triple)
            else:
                for _ in range(500):
                    check_triple(tuple(rng.sample(range(v), 3)))


def test_criterion_6_prp_both_directions(ag23, ag28, k8_subfac):
    with criterion(6, "PRP-free implies simple; the K_8 swap breaks simplicity"):
        design23, res23 = ag23
        assert prp_violations(design23, res23) == []
        built = shrikhande_raghavarao(res23, trivial_design(3, 2))
        assert is_simple(built.design)

        design28, res28 = ag28
        assert prp_violations(design28, res28) == []
        built28 = shrikhande_raghavarao(res28, trivial_design(8, 4))
        assert is_simple(built28.design)

        design8, res8 = k8_subfac
        violations = prp_violations(design8, res8)
        assert any(alpha == 2 for _, _, alpha in violations)
        repeated = shrikhande_raghavarao(res8, trivial_design(4, 2))
        assert not is_simple(repeated.design)


def test_criterion_7_unique_resolutions_prp_free(ag23, ag32, trivial_4_2):
    with criterion(7, "designs with unique resolutions have no PRP violations"):
        corpus = [ag23, ag32]
        res42 = find_resolutions(trivial_4_2, limit=2)
        assert len(res42) == 1
        corpus.append((trivial_4_2, res42[0]))
        for design, res in corpus:
            assert len(find_resolutions(design, limit=2)) == 1
            assert prp_violations(design, res) == []


def test_criterion_8_nontriviality():
    with criterion(8, "block-count bound holds; the 18-point example checks out"):
        checked = 0
        for v in range(8, 65):
            for k in range(2, v // 4 + 1):
                if v % (2 * k) == 0 and v // k >= 4:
                    assert nontriviality_bound_holds(v, k), (v, k)
                    checked += 1
        assert checked >= 40

        trivial_18 = DesignParams(t=1, v=18, b=816, r=136, k=3, lam=136)
        idx = IndexingParams(
            w=6, b_prime=20, r_prime=10, k_prime=3,
            lambda_prime=1, lambda2_prime=4,
        )
        predicted = predict_ibd_params(trivial_18, idx)
        assert predicted.b == 136 * 20 == 2720
        assert math.comb(18, 9) == 48620
        assert predicted.b < math.comb(18, 9)
        assert nontriviality_bound_holds(18, 3)
