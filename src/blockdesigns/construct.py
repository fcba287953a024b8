"""The Shrikhande-Raghavarao union construction and its parameter theory.

Given a resolvable master design and an indexing design on w = v/k points,
each block C of the indexing design turns every parallel class of the
master into a constructed block: the union of the class's blocks at the
positions named by C.  Constructed block i * b' + c, b' the indexing
blocks, is the pair (master class i, indexing block c): its provenance,
the inherited resolutions and the kept master automorphisms (classes
matched by block content) are arithmetic on that order.  This module
builds those designs, predicts their parameters exactly, and decides
simplicity exactly: by the PRP criterion where it applies, else by
building the design.  One formula, triple_coverage_by_alpha,
gives the constructed coverage of a triple from alpha, the number of
master blocks through it; the result is a 3-design when that value does
not depend on alpha, which classify_three_design decides from the
parameters' structure alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .core import (
    Design,
    DesignError,
    DesignParams,
    _block_permutation,
    _row_ranks,
    is_simple,
    lambda_j,
    t_coverage_spectrum,
    verify_ibd,
)
from .resolution import (
    ParallelClass,
    Resolution,
    prp_violations,
    verify_resolution,
)

__all__ = [
    "ConstructedDesign",
    "DimensionMismatch",
    "IndexingParams",
    "NonIntegral",
    "SimplicityVerdict",
    "ThreeDesignAnalysis",
    "ThreeDesignCase",
    "classify_three_design",
    "indexing_balance",
    "inherited_resolution",
    "measure_params",
    "predict_bibd_lambda",
    "predict_ibd_params",
    "predict_triple_coverage",
    "shrikhande_raghavarao",
    "simplicity_verdict",
    "triple_coverage_by_alpha",
]


class DimensionMismatch(DesignError):
    pass


class NonIntegral(DesignError):
    """A parameter formula produced a non-integer; the combination of
    ingredient parameters is inapplicable."""

    def __init__(self, value: Fraction, context: str):
        super().__init__(f"{context} is not integral: {value}")
        self.value = value


@dataclass(frozen=True)
class IndexingParams:
    """(w, b', r', k') parameters of an indexing design, together with its
    pair coverage and triple coverage (triple coverage 0 stands for the
    degenerate k' = 2 case)."""

    w: int
    b_prime: int
    r_prime: int
    k_prime: int
    lambda_prime: int
    lambda2_prime: int

    def __post_init__(self) -> None:
        if not 2 <= self.k_prime < self.w:
            raise DesignError(
                f"need 2 <= k' < w, got k'={self.k_prime} w={self.w}"
            )
        if self.b_prime * self.k_prime != self.w * self.r_prime:
            raise DesignError(
                f"b'k' = wr' violated: {self.b_prime}*{self.k_prime} "
                f"!= {self.w}*{self.r_prime}"
            )
        if min(self.lambda_prime, self.lambda2_prime) < 0:
            raise DesignError("coverages must be nonnegative")

    @classmethod
    def from_design(cls, design: Design) -> "IndexingParams":
        """Measure the parameters of an indexing design directly.

        The design must be 2-balanced, and 3-balanced as well unless its
        block size is 2 (where the triple coverage is identically 0).
        """
        params = measure_params(design)
        balance = indexing_balance(params)
        if balance < 2:
            raise DesignError("indexing design is not 2-balanced")
        if balance < 3:
            raise DesignError("indexing design is not 3-balanced")
        return cls.from_params(params)

    @classmethod
    def from_params(cls, params: DesignParams) -> "IndexingParams":
        """The parameters of an indexing design as measure_params found
        them; a coverage above the measured strength is recorded as 0."""
        return cls(
            w=params.v,
            b_prime=params.b,
            r_prime=params.r,
            k_prime=params.k,
            lambda_prime=params.lam if params.t == 3 else 0,
            lambda2_prime=_pair_coverage(params) if params.t >= 2 else 0,
        )


def indexing_balance(params: DesignParams) -> int:
    """The strength an indexing design with measured `params` is balanced
    at for the construction.  Blocks of size 2 cover no triple, so k' = 2
    needs only 2-balance to count as 3-balanced."""
    return 3 if params.k == 2 and params.t == 2 else params.t


def measure_params(design: Design) -> DesignParams:
    """Parameters at the strongest balanced strength t <= min(3, k).

    A (t-1)-design can be t-balanced only with coverage
    lam * (k-t+1) / (v-t+1); when that is not an integer, the t-subsets
    are not counted.
    """
    params = verify_ibd(design)
    for t in range(2, min(3, design.k) + 1):
        if params.lam * (params.k - t + 1) % (params.v - t + 1):
            break
        spectrum = t_coverage_spectrum(design, t)
        if len(spectrum) != 1:
            break
        params = DesignParams(
            t=t, v=params.v, b=params.b, r=params.r, k=params.k,
            lam=next(iter(spectrum)),
        )
    return params


@dataclass(frozen=True)
class ConstructedDesign:
    """Output of the union construction and the indexing design it used:
    block i * b' + c, b' the indexing blocks, unions master class i at the
    positions of indexing block c."""

    design: Design
    indexing: Design

    @property
    def provenance(self) -> tuple[tuple[int, int], ...]:
        """provenance[n] = (master class index, indexing block index) of
        block n: divmod(n, b')."""
        b_prime = len(self.indexing._members)
        return tuple(divmod(n, b_prime) for n in range(len(self.design._members)))


class ThreeDesignCase(Enum):
    MASTER_IS_3_DESIGN = "master-is-3-design"
    MASTER_BLOCK_SIZE_2 = "master-block-size-2"
    K_PRIME_HALF_W = "k-prime-is-half-w"
    NOT_3_DESIGN = "not-a-3-design"


class SimplicityVerdict(Enum):
    SIMPLE_GUARANTEED = "simple-guaranteed"
    SIMPLE = "simple"
    NOT_SIMPLE = "not-simple"


@dataclass(frozen=True)
class ThreeDesignAnalysis:
    """Whether the union construction yields a 3-design: `case` names the
    reason (classify_three_design), and `note` remarks on a degenerate
    one."""

    case: ThreeDesignCase
    note: str | None = None

    @property
    def is_three_design(self) -> bool:
        return self.case is not ThreeDesignCase.NOT_3_DESIGN


def _master_w(master: DesignParams) -> int:
    if master.v % master.k:
        raise DimensionMismatch(
            f"master block size {master.k} does not divide {master.v}"
        )
    return master.v // master.k


def _check_indexing_points(master: DesignParams, indexing: IndexingParams) -> None:
    """Raise DimensionMismatch unless the indexing design has one point
    for each of the w = v/k blocks of a master class."""
    w = _master_w(master)
    if indexing.w != w:
        raise DimensionMismatch(f"indexing on {indexing.w} points, master has w={w}")


def _pair_coverage(params: DesignParams) -> int:
    """Pair coverage of a design declared as a t >= 2 design."""
    if params.t < 2:
        raise DesignError("master must be declared a 2-design or stronger")
    if params.t == 2:
        return params.lam
    lam2 = lambda_j(params, 2)
    if lam2.denominator != 1:
        raise NonIntegral(lam2, "master pair coverage")
    return int(lam2)


def _indexing_width(master: Design, indexing: Design) -> int:
    """w = v/k, the blocks of a master class; raises DimensionMismatch
    unless the indexing design has w points."""
    w = master.points.size // master.k
    if indexing.points.size != w:
        raise DimensionMismatch(
            f"indexing design has {indexing.points.size} points, "
            f"but master classes hold w={w} blocks"
        )
    return w


def shrikhande_raghavarao(
    master_res: Resolution, indexing: Design
) -> ConstructedDesign:
    """Union the blocks of each master parallel class at the positions
    selected by each indexing block.

    Indexing point j names the j-th block of every class in the stored
    class order.  Output blocks are ordered by (class index, indexing
    block index) and duplicates are preserved.  The blocks are gathered
    from the master's members as one array, which the design keeps.
    The constructed design carries the master automorphisms that
    `_kept_automorphisms` keeps.
    """
    master = master_res.design
    check = verify_resolution(master, master_res)
    if not check:
        raise DesignError(f"master resolution invalid: {check.reason}")
    w = _indexing_width(master, indexing)
    refs = np.array(
        [cls.block_refs for cls in master_res.classes], dtype=np.intp
    ).reshape(len(master_res.classes), w)
    # Class i, indexing block c: the points of the class's blocks at c.
    unions = master._members[refs[:, indexing._members]]
    unions = unions.reshape(-1, master.k * indexing.k)
    unions.sort(axis=1)
    constructed = Design._from_members(
        master.points, unions, *_kept_automorphisms(master, refs, indexing)
    )
    return ConstructedDesign(constructed, indexing)


def _kept_automorphisms(
    master: Design, refs: np.ndarray, indexing: Design
) -> tuple[tuple, tuple]:
    """(kept, block_perms): the master automorphisms g that are
    automorphisms of the union construction as well, and the block
    permutation each induces on the constructed blocks; `refs` holds the
    master's resolution as an array of block indices (class, position).

    g is kept when the classes can be matched one to one, i -> j, so that
    g maps the blocks of class i onto those of class j and the position
    permutation it induces (the p-th block of class i goes to the
    sigma(p)-th block of class j) is an automorphism of the indexing
    design, with block permutation pi_sigma.  g then maps the union of
    class i at the positions of indexing block c onto the union of class
    j at those of block pi_sigma(c): constructed block i * b' + c goes to
    j * b' + pi_sigma(c), b' the indexing blocks; the constructed
    design's _permutations checks that claim.  Raises DesignError when a
    master automorphism does not check out.

    Classes are compared by block content: the master's check of g
    (Design._permutations) names the block each block goes to, and a
    class is the ascending row of its blocks' content ranks, which are
    distinct, as its blocks are disjoint.  Each sigma is checked once, and
    the pi_sigma a class matched with is the one kept.
    The classes are matched class by class, each image class taking the
    first free equal class it may.  That finds a matching whenever one
    exists: with o_i the map from positions to blocks of class i and
    gamma the map g induces on blocks, sigma = o_j^-1 gamma o_i is an
    indexing automorphism exactly when o_j and gamma o_i lie in one coset
    of the indexing automorphism group, so classes i of one coset may all
    take the same classes j, and no choice among them blocks another.
    """
    _, moves = master._permutations
    if not moves or not len(refs):
        return (), ()
    ranks = _row_ranks(master._members)
    positions = np.argsort(ranks[refs], axis=1)
    rows = np.sort(ranks[refs], axis=1)
    b = len(indexing._members)
    found: dict[bytes, np.ndarray | None] = {}

    def induced(sigma) -> np.ndarray | None:
        """pi_sigma, or None when sigma is no indexing automorphism."""
        key = sigma.tobytes()
        if key not in found:
            found[key] = _block_permutation(indexing, sigma)
        return found[key]

    kept, block_perms = [], []
    for gen, move in zip(master.automorphisms, moves):
        image = ranks[move[refs]]
        # Position p of image class i holds the back[i, p]-th rank of its
        # row, which class j holds at positions[j, back[i, p]]: sigma.
        back = np.argsort(np.argsort(image, axis=1), axis=1)
        matched = _first_free_matching(
            np.sort(image, axis=1), rows,
            lambda i, j: induced(positions[j].take(back[i])))
        if matched is not None:
            match, pis = matched
            kept.append(gen)
            block_perms.append((match[:, None] * b + np.array(pis)).ravel())
    return tuple(kept), tuple(block_perms)


def _first_free_matching(image_rows, rows, induced):
    """(match, values): the match i -> j of image row i to an equal class
    row j, each i in turn taking the first free j for which induced(i, j)
    is not None, and those values of induced(i, j) in the order of i;
    None when some i finds none."""
    by_row: dict[tuple, list[int]] = {}
    for j, row in enumerate(map(tuple, rows.tolist())):
        by_row.setdefault(row, []).append(j)
    match, values = [], []
    for i, row in enumerate(map(tuple, image_rows.tolist())):
        free = by_row.get(row, [])
        for j in free:
            value = induced(i, j)
            if value is not None:
                break
        else:
            return None
        free.remove(j)
        match.append(j)
        values.append(value)
    return np.array(match, dtype=np.intp), values


def predict_ibd_params(
    master: DesignParams, indexing: IndexingParams
) -> DesignParams:
    """(v, rb', rr', kk') for the constructed design."""
    _check_indexing_points(master, indexing)
    return DesignParams(
        t=1,
        v=master.v,
        b=master.r * indexing.b_prime,
        r=master.r * indexing.r_prime,
        k=master.k * indexing.k_prime,
        lam=master.r * indexing.r_prime,
    )


def predict_bibd_lambda(master: DesignParams, indexing: IndexingParams) -> int:
    """Pair coverage of the constructed design: lam*r' + (r-lam)*lam2'."""
    _check_indexing_points(master, indexing)
    lam = _pair_coverage(master)
    return lam * indexing.r_prime + (master.r - lam) * indexing.lambda2_prime


def triple_coverage_by_alpha(
    master: DesignParams, indexing: IndexingParams, alpha: int
) -> int:
    """Constructed coverage of a triple appearing in alpha master blocks:

        alpha*r' + 3(lam-alpha)*lam2' + (r - alpha - 3(lam-alpha))*lam3'

    (classes where the triple sits in one block / split 2+1 / split
    1+1+1).  lam3' = 0 covers the pair-indexing case.
    """
    _check_indexing_points(master, indexing)
    lam = _pair_coverage(master)
    if not 0 <= alpha <= lam:
        raise DesignError(f"need 0 <= alpha <= {lam}, got {alpha}")
    return (
        alpha * indexing.r_prime
        + 3 * (lam - alpha) * indexing.lambda2_prime
        + (master.r - alpha - 3 * (lam - alpha)) * indexing.lambda_prime
    )


def classify_three_design(
    master: DesignParams, k_prime: int
) -> ThreeDesignAnalysis:
    """Decide when the construction yields a 3-design.

    The triple coverage (triple_coverage_by_alpha) is affine in the master
    triple coverage alpha, so the result is a 3-design exactly when alpha
    is constant (the master is a 3-design, or k = 2 forces alpha = 0) or
    the alpha coefficient r' - 3*lam2' + 2*lam3' vanishes.  In units of
    lam3' that coefficient is (2k'-w)(k'-w)/((k'-1)(k'-2)), and w - 4 in
    units of lam2' at k' = 2, so for 2 <= k' < w it vanishes exactly at
    2k' = w.
    """
    if k_prime < 2:
        raise DesignError(f"need k' >= 2, got {k_prime}")
    w = _master_w(master)
    _pair_coverage(master)  # the master must have a whole pair coverage
    note = None
    if master.t >= 3:
        case = ThreeDesignCase.MASTER_IS_3_DESIGN
    elif master.k == 2:
        case = ThreeDesignCase.MASTER_BLOCK_SIZE_2
        if k_prime == 2:
            note = (
                "master block size 2 with pair indexing: the triple "
                "coverage is the constant 3*lambda"
            )
    elif 2 * k_prime == w:
        case = ThreeDesignCase.K_PRIME_HALF_W
    else:
        case = ThreeDesignCase.NOT_3_DESIGN
    return ThreeDesignAnalysis(case=case, note=note)


def predict_triple_coverage(
    master: DesignParams, indexing: IndexingParams
) -> int | None:
    """Triple coverage of the constructed design, or None when the
    construction does not yield a 3-design.  Every master triple lies in
    master.lam blocks when the master is a 3-design; otherwise the alpha
    coefficient vanishes or alpha is 0, so alpha = 0 gives the coverage."""
    _check_indexing_points(master, indexing)
    if not classify_three_design(master, indexing.k_prime).is_three_design:
        return None
    alpha = master.lam if master.t >= 3 else 0
    return triple_coverage_by_alpha(master, indexing, alpha)


def inherited_resolution(
    constructed: ConstructedDesign, indexing_res: Resolution
) -> Resolution:
    """Group constructed blocks by (master class, indexing class): when the
    indexing design is resolvable, so is the constructed design.  Class
    (i, C) holds the blocks i * b' + c for c in C, b' the indexing blocks,
    and the classes are ordered by i and then by the index of C."""
    check = verify_resolution(constructed.indexing, indexing_res)
    if not check:
        raise DesignError(f"indexing resolution invalid: {check.reason}")
    b_prime = len(constructed.indexing._members)
    count = len(constructed.design._members) // b_prime if b_prime else 0
    classes = tuple(
        ParallelClass(tuple(i * b_prime + c for c in sorted(cls.block_refs)))
        for i in range(count) for cls in indexing_res.classes
    )
    result = Resolution(constructed.design, classes)
    check = verify_resolution(constructed.design, result)
    if not check:
        raise DesignError(f"inherited resolution invalid: {check.reason}")
    return result


def simplicity_verdict(
    master_res: Resolution, indexing: Design
) -> SimplicityVerdict:
    """Whether the union construction of master_res and indexing is simple.

    SIMPLE_GUARANTEED is the replacement-property criterion, decided
    without building anything: the master and the indexing design are
    simple, and the master resolution has no k'-PRP, k' the indexing
    block size.  Two equal constructed blocks from one class then come
    from two equal indexing blocks, and two from classes i != j union k'
    blocks of each over the same points, which is a k'-PRP as the
    classes share no block.  The master must be simple because
    prp_violations counts block contents: a block that two classes share
    adds to alpha on either side, so a repeated class has no PRP and
    still repeats every constructed block.  Otherwise the design is
    built, and is_simple decides between SIMPLE and NOT_SIMPLE.
    """
    master = master_res.design
    _indexing_width(master, indexing)
    if (
        is_simple(indexing)
        and is_simple(master)
        and not prp_violations(master, master_res, alpha_filter={indexing.k})
    ):
        return SimplicityVerdict.SIMPLE_GUARANTEED
    built = shrikhande_raghavarao(master_res, indexing)
    if is_simple(built.design):
        return SimplicityVerdict.SIMPLE
    return SimplicityVerdict.NOT_SIMPLE
