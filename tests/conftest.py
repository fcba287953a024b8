import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from blockdesigns.catalog import catalog_names
from blockdesigns.core import make_design
from blockdesigns.generators import (
    affine_hyperplane_design,
    sub_factorization_embedding,
    trivial_design,
)
from blockdesigns.reproduce import reproduce_entry


@pytest.fixture(scope="session")
def repro():
    """Full reproduction reports for every catalog entry, computed once."""
    return {name: reproduce_entry(name) for name in catalog_names()}


@pytest.fixture(scope="session")
def ag23():
    return affine_hyperplane_design(2, 3)


@pytest.fixture(scope="session")
def ag28():
    return affine_hyperplane_design(2, 8)


@pytest.fixture(scope="session")
def ag32():
    return affine_hyperplane_design(3, 2)


@pytest.fixture(scope="session")
def k8_subfac():
    return sub_factorization_embedding(2)


@pytest.fixture(scope="session")
def trivial_4_2():
    return trivial_design(4, 2)


@pytest.fixture(scope="session")
def wide_classes():
    """A 3000-point design of pairs with w = 1500 blocks per class: the two
    perfect matchings of the 3000-cycle, each class found by a chain of
    1499 forced placements."""
    v = 3000
    return make_design(v, [(p, (p + 1) % v) for p in range(v)])


@pytest.fixture(scope="session")
def many_classes():
    """A 4-point design whose one parallel class is repeated 1200 times
    (r = 1200)."""
    return make_design(4, [(0, 1), (2, 3)] * 1200)
