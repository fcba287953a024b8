"""End-to-end reproduction of the catalog designs against their goldens."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .catalog import CatalogEntry, catalog_entry
from .construct import (
    ConstructedDesign,
    IndexingParams,
    predict_ibd_params,
    predict_triple_coverage,
    shrikhande_raghavarao,
)
from .core import (
    Design,
    intersection_profile,
    is_simple,
    t_coverage_spectrum,
    verify_ibd,
)
from .generators import cyclic_develop, trivial_design
from .resolution import Resolution

__all__ = ["CheckItem", "EntryReport", "reproduce_entry"]


@dataclass(frozen=True)
class CheckItem:
    label: str
    expected: object
    observed: object

    @property
    def ok(self) -> bool:
        return self.expected == self.observed


@dataclass
class EntryReport:
    entry: CatalogEntry
    master: Design
    master_res: Resolution
    constructed: ConstructedDesign
    checks: list[CheckItem] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)


def reproduce_entry(name: str) -> EntryReport:
    """Develop the entry's base class, apply the construction with the
    trivial indexing design, and compare everything to the goldens."""
    entry = catalog_entry(name)
    expected = entry.master_params
    master, master_res = cyclic_develop(entry.base)
    indexing = trivial_design(entry.w, entry.k_prime)
    built = shrikhande_raghavarao(master_res, indexing)
    report = EntryReport(entry, master, master_res, built)
    checks = report.checks

    observed = verify_ibd(master)
    checks.append(
        CheckItem("master parameters (v,b,r,k)", expected.as_tuple(), observed.as_tuple())
    )
    checks.append(
        CheckItem(
            "master pair coverage",
            {expected.lam: math.comb(expected.v, 2)},
            t_coverage_spectrum(master, 2),
        )
    )

    indexing_params = IndexingParams.from_design(indexing)
    predicted = predict_ibd_params(expected, indexing_params)
    built_params = verify_ibd(built.design)
    checks.append(
        CheckItem(
            "constructed parameters (v,b,r,k)",
            predicted.as_tuple(),
            built_params.as_tuple(),
        )
    )
    checks.append(
        CheckItem(
            "triple coverage",
            {entry.mu: math.comb(expected.v, 3)},
            t_coverage_spectrum(built.design, 3),
        )
    )

    profile = intersection_profile(built.design)
    checks.append(
        CheckItem("intersection profile", entry.profile.counts, profile.counts)
    )
    checks.append(
        CheckItem(
            "profile pair total",
            math.comb(built_params.b, 2),
            profile.pair_count,
        )
    )
    checks.append(CheckItem("simple", True, is_simple(built.design)))

    formula = predict_triple_coverage(expected, indexing_params)
    checks.append(CheckItem("coverage formula", entry.mu, formula))
    return report
